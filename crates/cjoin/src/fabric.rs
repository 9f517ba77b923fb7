//! The engine-level **admission fabric**: one worker pool serving the CJOIN
//! admission requests of *every* live fact stage.
//!
//! With the shared path sharded by fact table, per-stage admission workers
//! reintroduce a sharing gap: two stages whose star queries filter the
//! *same* dimension table each scan it independently. The fabric closes it:
//! stages hand their pending snapshots here instead of to a private pool; a
//! worker opens a short batching window, merges every request visible at
//! that instant — across stages — and runs the shared three-phase admission
//! (prepare → scan → activate) with scan units grouped by dimension table
//! **across stages**. A dimension filtered by queries over several fact
//! tables is physically scanned once per window; every stage receives its
//! own staged [`crate::DimEntry`] inserts and activates its own batch.
//!
//! Accounting: physical page reads are attributed to the fabric
//! ([`FabricStats::admission_dim_pages`]) — a page decoded once for several
//! stages belongs to none of them — while each stage's logical counters
//! (`admitted`, `admission_dim_rows`, per-dimension selectivity EWMAs) are
//! maintained exactly as under a per-stage pool, so stage-level reports
//! stay batching-invariant.
//!
//! Stages keep working without a fabric: [`crate::CjoinStage::new`] falls
//! back to the per-stage pool (one admission worker per stage), which
//! remains the oracle-tested baseline and the path of the standalone /
//! paper-figure deployments.

use workshare_common::fxhash::FxHashMap;
// Concurrent-core primitives come through the swappable sync layer so the
// `--cfg interleave` build model-checks this module's protocols (see
// `workshare_common::sync` and docs/TESTING.md).
use workshare_common::sync::{Arc, AtomicBool, AtomicU64, Mutex, Ordering};
use workshare_sim::{Machine, SimCtx, WaitSet};

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::admission::{
    activate_batch, build_units, fail_batch, prepare_batch, run_scan_unit, PreparedBatch,
    ScanUnit,
};
use crate::health::{AdmissionHealth, CjoinFaultPlan};
use crate::stage::{Admission, CjoinStage, StageInner, ADMISSION_BATCH_WINDOW_NS};
use crate::window::{ScanAttempt, ShardedSlot, WindowLedger};

/// Page-range partitions a batching window splits each scan unit into (when
/// the dimension spans that many pages): the admission latency of a merged
/// window is bounded by the slowest partition, keeping the fabric's
/// activation barrier no taller than the per-stage pools it replaces.
const UNIT_SCAN_PARALLELISM: usize = 4;

/// Virtual deadline a supervised window gives its subscans before
/// re-dispatching stragglers. Comfortably above a healthy dimension
/// subscan, comfortably below the injected stall (`SCAN_STALL_NS` in
/// `admission.rs`), so a stalled subscan is overtaken by its replacement
/// instead of gating the window on the stall.
pub const UNIT_REDISPATCH_DEADLINE_NS: f64 = 4_000_000.0;

/// One stage's pending-admission snapshot, queued on the fabric.
pub(crate) struct FabricRequest {
    pub stage: CjoinStage,
    pub pending: Vec<Admission>,
}

/// Shards of the fabric request queue. Submitting preprocessors round-robin
/// over them, so a burst from several stages lands on distinct mutexes
/// instead of serializing on one.
const FABRIC_QUEUE_SHARDS: usize = 4;

/// MPMC request queue: a sharded pending slot ([`ShardedSlot`], its drain
/// protocol model-checked by `tests/interleave_core.rs`) behind a close
/// flag and a wait set — the replacement for the former single-mutex
/// pending list.
struct ShardedQueue<A> {
    slot: ShardedSlot<A>,
    /// Raised by [`ShardedQueue::close`] *before* the shard barrier:
    /// [`ShardedSlot::push_unless`] checks it inside the shard critical
    /// section, so a push either lands before the barrier (drainable) or
    /// observes the flag and bounces.
    closed: AtomicBool,
    /// Parking lot for blocked poppers.
    not_empty: WaitSet,
}

impl<A> ShardedQueue<A> {
    fn new(machine: &Machine, shards: usize) -> ShardedQueue<A> {
        ShardedQueue {
            slot: ShardedSlot::new(shards),
            closed: AtomicBool::new(false),
            not_empty: WaitSet::new(machine),
        }
    }

    /// Enqueue, unless the queue has closed — then the item comes back as
    /// `Err` for the caller to roll back its side effects.
    fn push(&self, item: A) -> Result<(), A> {
        self.slot.push_unless(item, &self.closed)?;
        self.not_empty.notify_all();
        Ok(())
    }

    /// Non-blocking pop (oldest-first within each shard).
    fn try_pop(&self) -> Option<A> {
        self.slot.take_one()
    }

    /// Blocking pop: `None` once the queue is closed **and** drained.
    fn pop(&self) -> Option<A> {
        loop {
            // Load the close flag *before* scanning: finding the shards
            // empty after observing `closed` proves no later push can
            // succeed (pushes check the flag in the shard critical section
            // and `close` barriers every shard after raising it), so the
            // `None` below never strands an item.
            let was_closed = self.closed.load(Ordering::Acquire);
            if let Some(item) = self.slot.take_one() {
                return Some(item);
            }
            if was_closed {
                return None;
            }
            self.not_empty.wait_until(|| {
                self.closed.load(Ordering::Acquire) || !self.slot.is_empty()
            });
        }
    }

    /// Close the queue: raise the flag, then lock/unlock every shard so
    /// every in-flight push has either landed or will bounce, then wake
    /// every blocked popper.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.slot.barrier();
        self.not_empty.notify_all();
    }
}

/// Lifetime counters of an [`AdmissionFabric`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Batching windows processed.
    pub batches: u64,
    /// Windows that merged pending admissions from more than one stage —
    /// the cross-stage sharing the fabric exists for.
    pub cross_stage_batches: u64,
    /// Stage requests merged into windows (≥ `batches`; the surplus is
    /// requests that queued behind an in-flight window and shared it).
    pub merged_requests: u64,
    /// Physical dimension pages read by fabric scans. Each page is counted
    /// **once per window** no matter how many stages and pending queries
    /// shared it; per-stage `admission_dim_pages` stays 0 under the fabric
    /// (see [`crate::CjoinStats::admission_dim_pages`]).
    pub admission_dim_pages: u64,
}

struct FabricInner {
    queue: ShardedQueue<FabricRequest>,
    /// Queries queued across all stages and not yet activated — the
    /// governor's cross-stage pending signal
    /// (`SharingSignals::cross_stage_pending`) — plus the depth cap
    /// advertised via [`AdmissionFabric::has_capacity`] (`u64::MAX` =
    /// unbounded, the legacy default; the overload-safe service layer
    /// builds the fabric with its queue cap so submissions are shed at the
    /// door instead of queueing without bound). The add-before-visible /
    /// rollback-on-failed-push protocol lives in [`WindowLedger`]
    /// (model-checked by `tests/interleave_core.rs`).
    ledger: WindowLedger,
    // [`FabricStats`] counters. All `Relaxed`: each is a monotone tally
    // incremented on its own and read only by observers (`stats()`, the
    // health monitor's progress probe) that tolerate a momentarily stale
    // value — no decision pairs a read of one counter with a write to
    // another, so no acquire/release edge is needed.
    batches: AtomicU64,
    cross_stage_batches: AtomicU64,
    merged_requests: AtomicU64,
    admission_dim_pages: AtomicU64,
    /// The machine the workers run on, kept so the health monitor can
    /// spawn replacement workers ([`AdmissionFabric::respawn_worker`]).
    machine: Machine,
    /// Seeded fault schedule for the fabric's own sites (worker wedges).
    faults: CjoinFaultPlan,
    /// Shared admission-health state; `Some` turns on window supervision
    /// (subscan deadlines + straggler re-dispatch) and fault accounting.
    health: Option<Arc<AdmissionHealth>>,
    /// Batching windows processed across all workers — the wedge site's
    /// injection tick.
    windows: AtomicU64,
    /// Latch making the injected wedge fire at most once per fabric
    /// lifetime (a respawned replacement worker must not re-wedge).
    wedge_fired: AtomicBool,
    /// Raised by [`AdmissionFabric::shutdown`]; wakes wedged workers so
    /// their carrier threads exit.
    stop: AtomicBool,
    /// Parking lot for wedged workers, notified on shutdown.
    cancel: WaitSet,
}

impl FabricInner {
    /// Whether this worker should wedge now (injected fault, fires once).
    fn wedge_due(&self) -> bool {
        let Some(n) = self.faults.wedge_after_windows else {
            return false;
        };
        if self.windows.load(Ordering::Relaxed) < n {
            return false;
        }
        // `Relaxed` suffices for the latch: the swap is a single RMW, so
        // exactly one worker ever observes `false` (atomicity, not
        // ordering, is what makes the wedge fire once) — and no payload is
        // published through it that a winner would need to acquire.
        !self.wedge_fired.swap(true, Ordering::Relaxed)
    }
}

/// Engine-level cross-stage admission worker pool. Cheap to clone; one per
/// governed engine, shared by every stage the registry builds.
#[derive(Clone)]
pub struct AdmissionFabric {
    inner: Arc<FabricInner>,
}

impl AdmissionFabric {
    /// Create the fabric on `machine` and spawn its admission worker. A
    /// single worker maximizes window merging and makes it deterministic —
    /// every burst lands in one window and shares one scan pass; the health
    /// monitor adds a replacement with [`AdmissionFabric::respawn_worker`]
    /// when that worker wedges.
    ///
    /// `capacity` is a depth cap on the pending-query count (`u64::MAX` =
    /// unbounded): once `capacity` queries are queued across all stages,
    /// [`AdmissionFabric::has_capacity`] turns false and the service layer
    /// sheds further submissions instead of enqueueing them forever.
    ///
    /// `faults` is the seeded fault plan (worker-wedge site) and `health`
    /// an optional shared [`AdmissionHealth`]. With a health handle every
    /// window runs under **supervision**: subscans get a virtual deadline
    /// ([`UNIT_REDISPATCH_DEADLINE_NS`]); a straggler (stalled, panicked,
    /// or wedged-behind) is re-dispatched idempotently through the
    /// [`ScanAttempt`] claim protocol, and typed storage errors fail the
    /// window's batches instead of killing the worker.
    pub fn new(
        machine: &Machine,
        capacity: u64,
        faults: CjoinFaultPlan,
        health: Option<Arc<AdmissionHealth>>,
    ) -> AdmissionFabric {
        let fabric = AdmissionFabric {
            inner: Arc::new(FabricInner {
                queue: ShardedQueue::new(machine, FABRIC_QUEUE_SHARDS),
                ledger: WindowLedger::new(capacity),
                batches: AtomicU64::new(0),
                cross_stage_batches: AtomicU64::new(0),
                merged_requests: AtomicU64::new(0),
                admission_dim_pages: AtomicU64::new(0),
                machine: machine.clone(),
                faults,
                health,
                windows: AtomicU64::new(0),
                wedge_fired: AtomicBool::new(false),
                stop: AtomicBool::new(false),
                cancel: WaitSet::new(machine),
            }),
        };
        fabric.spawn_worker(machine, 0);
        fabric
    }

    /// Queries queued across all stages and not yet activated: the
    /// governor's cross-stage pending-admission signal.
    pub fn pending_queries(&self) -> u64 {
        self.inner.ledger.pending()
    }

    /// Whether the pending queue is below its depth cap (always true for
    /// an uncapped fabric). Advisory — the race-free hard cap lives in the
    /// engine's admission counter; this sheds on queue *depth* so a stalled
    /// fabric rejects new work before the backlog grows unbounded.
    pub fn has_capacity(&self) -> bool {
        self.inner.ledger.has_capacity()
    }

    /// Lifetime fabric counters.
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            batches: self.inner.batches.load(Ordering::Relaxed),
            cross_stage_batches: self.inner.cross_stage_batches.load(Ordering::Relaxed),
            merged_requests: self.inner.merged_requests.load(Ordering::Relaxed),
            admission_dim_pages: self.inner.admission_dim_pages.load(Ordering::Relaxed),
        }
    }

    /// Stop the fabric workers (engine shutdown, the only time a stage goes
    /// away too). A request still in flight is benign: stage shutdown is
    /// cooperative. Wedged workers are woken so their carrier threads exit.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.queue.close();
        self.inner.cancel.notify_all();
    }

    /// Spawn a replacement admission worker (the health monitor's answer to
    /// an observed wedge). The replacement shares the fabric's wedge latch,
    /// so it never re-fires the injected wedge.
    pub fn respawn_worker(&self) {
        let idx = 1000 + self.inner.windows.load(Ordering::Relaxed) as usize;
        let machine = self.inner.machine.clone();
        self.spawn_worker(&machine, idx);
        if let Some(h) = &self.inner.health {
            h.count_respawn();
        }
    }

    /// Drain every request still queued on the fabric and push each back
    /// onto its owning stage's pending set, waking the stage — the health
    /// monitor calls this on a ladder demotion so work held by a wedged
    /// (dark) fabric re-routes through the pool/serial path instead of
    /// waiting forever. Returns the number of queries requeued.
    pub fn reclaim(&self) -> u64 {
        let mut n = 0u64;
        while let Some(req) = self.inner.queue.try_pop() {
            let count = req.pending.len() as u64;
            self.inner.ledger.sub(count);
            n += count;
            req.stage.inner.pending.extend(req.pending);
            req.stage.inner.wake.notify_all();
        }
        if n > 0 {
            if let Some(h) = &self.inner.health {
                h.count_requeued(n);
            }
        }
        n
    }

    /// Batching windows processed across all workers. A health monitor
    /// watching this against [`AdmissionFabric::pending_queries`] can tell
    /// a busy fabric from a wedged one: pending work with no window
    /// progress means the pool is dark.
    pub fn windows_processed(&self) -> u64 {
        self.inner.windows.load(Ordering::Relaxed)
    }

    /// Queue one stage's pending snapshot. Returns `false` when the fabric
    /// has shut down (the caller's stage is shutting down too).
    pub(crate) fn submit(&self, stage: CjoinStage, pending: Vec<Admission>) -> bool {
        let n = pending.len() as u64;
        // Ledger add *before* the push makes the request visible: the
        // governor's pending signal never undercounts queued work. A push
        // onto a closed queue (fabric shut down) rolls the add back.
        self.inner.ledger.add(n);
        if self.inner.queue.push(FabricRequest { stage, pending }).is_err() {
            self.inner.ledger.sub(n);
            return false;
        }
        true
    }

    fn spawn_worker(&self, machine: &Machine, idx: usize) {
        let inner = Arc::clone(&self.inner);
        machine
            .clone()
            .spawn(&format!("admission-fabric-{idx}"), move |ctx| {
                loop {
                    // Injected wedge site: checked *before* popping, so a
                    // wedging worker never takes a request down with it —
                    // everything it would have served stays on the queue,
                    // reclaimable by the health monitor.
                    if inner.wedge_due() {
                        if let Some(h) = &inner.health {
                            h.count_wedge();
                        }
                        inner
                            .cancel
                            .wait_until(|| inner.stop.load(Ordering::Acquire));
                        return;
                    }
                    let Some(req) = inner.queue.pop() else { return };
                    // Short virtual batching window, then merge every
                    // request visible at that instant — from any stage —
                    // plus submissions still sitting in the involved
                    // stages' pending sets. A burst submitted without
                    // intervening virtual time lands in one window
                    // deterministically, maximizing cross-stage scan
                    // sharing; the window is negligible against the fixed
                    // admission charge.
                    ctx.sleep(ADMISSION_BATCH_WINDOW_NS);
                    let mut reqs = vec![req];
                    while let Some(more) = inner.queue.try_pop() {
                        reqs.push(more);
                    }
                    let counted: u64 =
                        reqs.iter().map(|r| r.pending.len() as u64).sum();
                    process_window(&inner, ctx, reqs, idx);
                    inner.ledger.sub(counted);
                    inner.windows.fetch_add(1, Ordering::Relaxed);
                }
            });
    }
}

/// Run one merged batching window: per-stage prepare, cross-stage scan
/// units (each distinct dimension table scanned once for every stage, the
/// units themselves scanned **in parallel** — merging stages must not
/// serialize scans the per-stage pools would have overlapped), per-stage
/// activation.
fn process_window(
    fabric: &Arc<FabricInner>,
    ctx: &SimCtx,
    reqs: Vec<FabricRequest>,
    worker_idx: usize,
) {
    fabric
        .merged_requests
        .fetch_add(reqs.len() as u64, Ordering::Relaxed);
    // Merge requests per stage, preserving first-seen order (deterministic
    // unit construction), then drain submissions still sitting in each
    // stage's pending set — the same last-moment merge the per-stage
    // workers perform.
    let mut stages: Vec<CjoinStage> = Vec::new();
    let mut pendings: Vec<Vec<Admission>> = Vec::new();
    let mut idx_of: FxHashMap<usize, usize> = FxHashMap::default();
    for req in reqs {
        let key = Arc::as_ptr(&req.stage.inner) as usize;
        let si = *idx_of.entry(key).or_insert_with(|| {
            stages.push(req.stage.clone());
            pendings.push(Vec::new());
            stages.len() - 1
        });
        pendings[si].extend(req.pending);
    }
    for (si, stage) in stages.iter().enumerate() {
        pendings[si].extend(stage.inner.pending.drain());
    }
    let (stages, pendings): (Vec<CjoinStage>, Vec<Vec<Admission>>) = stages
        .into_iter()
        .zip(pendings)
        .filter(|(_, p)| !p.is_empty())
        .unzip();
    if stages.is_empty() {
        return;
    }
    let prepared: Vec<PreparedBatch> = stages
        .iter()
        .zip(pendings)
        .map(|(stage, pending)| prepare_batch(&stage.inner, ctx, pending))
        .collect();
    let units = build_units(&prepared);
    // Scan units are independent — a filter core belongs to exactly one
    // `(dim, pk)` unit — and a unit's page subranges stage disjoint filter
    // entries (dimension primary keys are unique), so the window fans the
    // scans out as (unit × page-range) subscans on parallel vthreads: the
    // window's wall time is the slowest partition, not the sum — merging
    // stages must not serialize scans the per-stage pools would have
    // overlapped. Activation waits for every subscan: a query's filters
    // span dimensions.
    let storage = &stages[0].inner.storage;
    let tasks: Vec<(Arc<ScanUnit>, (usize, usize))> = units
        .into_iter()
        .flat_map(|unit| {
            let npages = storage.page_count(unit.dim);
            let chunks = npages.clamp(1, UNIT_SCAN_PARALLELISM);
            let per = npages.max(1).div_ceil(chunks);
            let unit = Arc::new(unit);
            (0..chunks)
                .map(|c| (Arc::clone(&unit), (c * per, ((c + 1) * per).min(npages))))
                .filter(|(_, (lo, hi))| lo < hi)
                .collect::<Vec<_>>()
        })
        .collect();
    let scan_result: Result<(), String> = if let Some(health) = fabric.health.clone() {
        supervise_subscans(fabric, &stages, tasks, worker_idx, &health)
    } else if tasks.len() == 1 {
        let inners: Vec<&StageInner> = stages.iter().map(|s| &*s.inner).collect();
        run_scan_unit(
            ctx,
            &inners,
            &tasks[0].0,
            Some(&fabric.admission_dim_pages),
            Some(tasks[0].1),
            None,
            true,
        )
        .map_err(|e| e.to_string())
    } else {
        let machine = stages[0].inner.machine.clone();
        let handles: Vec<_> = tasks
            .into_iter()
            .enumerate()
            .map(|(ti, (unit, range))| {
                let stages = stages.clone();
                let fabric = Arc::clone(fabric);
                machine.spawn(
                    &format!("admission-fabric-{worker_idx}-scan-{ti}"),
                    move |ctx| {
                        let inners: Vec<&StageInner> =
                            stages.iter().map(|s| &*s.inner).collect();
                        run_scan_unit(
                            ctx,
                            &inners,
                            &unit,
                            Some(&fabric.admission_dim_pages),
                            Some(range),
                            None,
                            true,
                        )
                    },
                )
            })
            .collect();
        let mut failure = None;
        for h in handles {
            if let Err(e) = h.join().expect("fabric scan subunit panicked") {
                failure.get_or_insert(e.to_string());
            }
        }
        match failure {
            None => Ok(()),
            Some(msg) => Err(msg),
        }
    };
    match scan_result {
        Ok(()) => {
            for (stage, prep) in stages.iter().zip(prepared) {
                activate_batch(&stage.inner, prep);
                // The stage's preprocessor may be parked waiting for an
                // active query; the batch just activated.
                stage.inner.wake.notify_all();
            }
        }
        Err(msg) => {
            // A typed, unrecoverable scan failure fails every batch in the
            // window with per-query errors — the window never activates
            // partially-seeded filters, and no submitter hangs.
            for (stage, prep) in stages.iter().zip(prepared) {
                fail_batch(&stage.inner, prep, &msg);
                stage.inner.wake.notify_all();
            }
        }
    }
    fabric.batches.fetch_add(1, Ordering::Relaxed);
    if stages.len() > 1 {
        fabric.cross_stage_batches.fetch_add(1, Ordering::Relaxed);
    }
}

/// One supervised subscan task: the shared claim/done handle, the fatal
/// (typed storage) error slot, and the recoverable-death flag an injected
/// panic sets.
struct SubscanTask {
    unit: Arc<ScanUnit>,
    range: (usize, usize),
    attempt: Arc<ScanAttempt>,
    err: Arc<Mutex<Option<String>>>,
    died: Arc<AtomicBool>,
    /// Attempts spawned and not yet returned. The supervisor only
    /// activates or fails the window once every task is **quiescent**
    /// (`live == 0`): a late attempt left running could otherwise publish
    /// its staged entries after a failed window's slots were rolled back.
    live: Arc<AtomicU64>,
}

impl SubscanTask {
    /// Whether this task needs no further supervision: some attempt
    /// published (claim + done) or a fatal error was recorded.
    fn settled(&self) -> bool {
        self.attempt.is_done() || self.err.lock().is_some()
    }

    /// Whether every spawned attempt has returned.
    fn quiescent(&self) -> bool {
        self.live.load(Ordering::Acquire) == 0
    }
}

/// Run a window's subscans under deadline supervision: spawn one attempt
/// per task, and when a task is still unsettled at the re-dispatch deadline
/// — or its attempt died to an injected panic — spawn a second,
/// injection-suppressed attempt over the same unit. The [`ScanAttempt`]
/// claim makes the pair publish exactly once; typed storage errors settle
/// the task fatally and fail the window. Every path terminates: a healthy
/// attempt publishes, a stalled one loses the claim and exits, a re-dispatch
/// (no injection) either publishes or surfaces a storage error.
fn supervise_subscans(
    fabric: &Arc<FabricInner>,
    stages: &[CjoinStage],
    tasks: Vec<(Arc<ScanUnit>, (usize, usize))>,
    worker_idx: usize,
    health: &Arc<AdmissionHealth>,
) -> Result<(), String> {
    let machine = stages[0].inner.machine.clone();
    let ws = Arc::new(WaitSet::new(&machine));
    let tasks: Vec<SubscanTask> = tasks
        .into_iter()
        .map(|(unit, range)| SubscanTask {
            unit,
            range,
            attempt: Arc::new(ScanAttempt::new()),
            err: Arc::new(Mutex::new(None)),
            died: Arc::new(AtomicBool::new(false)),
            live: Arc::new(AtomicU64::new(0)),
        })
        .collect();
    let spawn_attempt = |task: &SubscanTask, ti: usize, attempt_no: u32, inject: bool| {
        let stages = stages.to_vec();
        let fabric = Arc::clone(fabric);
        let unit = Arc::clone(&task.unit);
        let range = task.range;
        let attempt = Arc::clone(&task.attempt);
        let err = Arc::clone(&task.err);
        let died = Arc::clone(&task.died);
        let live = Arc::clone(&task.live);
        let ws = Arc::clone(&ws);
        live.fetch_add(1, Ordering::AcqRel);
        machine.spawn(
            &format!("admission-fabric-{worker_idx}-scan-{ti}-a{attempt_no}"),
            move |ctx| {
                let inners: Vec<&StageInner> = stages.iter().map(|s| &*s.inner).collect();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_scan_unit(
                        ctx,
                        &inners,
                        &unit,
                        Some(&fabric.admission_dim_pages),
                        Some(range),
                        Some(&attempt),
                        inject,
                    )
                }));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        let mut slot = err.lock();
                        if slot.is_none() {
                            *slot = Some(e.to_string());
                        }
                    }
                    Err(_) => {
                        // An injected panic is recoverable — flag the death
                        // and let the supervisor re-dispatch. A panic on a
                        // re-dispatched (injection-free) attempt is a
                        // genuine bug: settle fatally so nothing hangs.
                        if inject {
                            died.store(true, Ordering::Release);
                        } else {
                            let mut slot = err.lock();
                            if slot.is_none() {
                                *slot = Some("fabric subscan panicked".to_string());
                            }
                        }
                    }
                }
                live.fetch_sub(1, Ordering::AcqRel);
                ws.notify_all();
            },
        );
    };
    for (ti, task) in tasks.iter().enumerate() {
        spawn_attempt(task, ti, 1, true);
    }
    // Deadline timer: WaitSet has no timed wait, so a watchdog vthread
    // sleeps the deadline away and wakes the supervisor.
    let timeout = Arc::new(AtomicBool::new(false));
    {
        let timeout = Arc::clone(&timeout);
        let ws = Arc::clone(&ws);
        machine.spawn(
            &format!("admission-fabric-{worker_idx}-watchdog"),
            move |ctx| {
                ctx.sleep(UNIT_REDISPATCH_DEADLINE_NS);
                timeout.store(true, Ordering::Release);
                ws.notify_all();
            },
        );
    }
    let mut redispatched = vec![false; tasks.len()];
    loop {
        {
            let redispatched = &redispatched;
            ws.wait_until(|| {
                tasks.iter().all(SubscanTask::settled)
                    || tasks.iter().enumerate().any(|(i, t)| {
                        !redispatched[i]
                            && !t.settled()
                            && (t.died.load(Ordering::Acquire)
                                || timeout.load(Ordering::Acquire))
                    })
            });
        }
        if tasks.iter().all(SubscanTask::settled) {
            break;
        }
        for (ti, task) in tasks.iter().enumerate() {
            if !redispatched[ti]
                && !task.settled()
                && (task.died.load(Ordering::Acquire) || timeout.load(Ordering::Acquire))
            {
                redispatched[ti] = true;
                health.count_redispatch();
                spawn_attempt(task, ti, 2, false);
            }
        }
    }
    let failure = tasks
        .iter()
        .find(|t| !t.attempt.is_done())
        .and_then(|t| t.err.lock().clone());
    match failure {
        None => Ok(()),
        Some(msg) => {
            // Quiesce before failing: the window's slots are about to be
            // rolled back, so wait out any still-running attempt — it must
            // not publish staged entries into a failed (and soon reused)
            // slot. Success needs no such barrier: a late loser cannot
            // publish, having lost the claim.
            ws.wait_until(|| tasks.iter().all(SubscanTask::quiescent));
            Err(msg)
        }
    }
}
