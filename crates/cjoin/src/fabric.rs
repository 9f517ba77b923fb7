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
//! The fabric also owns the **admission memo** (`memo.rs`): a part
//! whose `(dimension, pk column, predicate)` an earlier window selected is
//! staged from the memo instead of scanned, so physical pages fall while the
//! stages' logical counters stay where a scan would have put them. The memo
//! is bypassed — no lookup, no fill — while any fault site is armed (which
//! every healing plan is), so no seeded fault schedule shifts and no entry
//! can come from a retried, torn or quarantined read.
//!
//! Every window scans the same way, whatever the fault plan: each
//! (unit × page-range) subscan is a spawned attempt under `catch_unwind`
//! that publishes through a [`ScanAttempt`] claim, so a storage error or a
//! panic fails the window's batches with typed per-query errors and the
//! worker serves the next window. A healing plan adds supervision on top:
//! a deadline and straggler re-dispatch.
//!
//! Stages keep working without a fabric: [`crate::CjoinStage::new`] falls
//! back to the per-stage pool (one admission worker per stage), which
//! remains the oracle-tested baseline and the path of the standalone /
//! paper-figure deployments.

use workshare_common::fxhash::FxHashMap;
use workshare_common::FaultPlan;
// Concurrent-core primitives come through the swappable sync layer so the
// `--cfg interleave` build model-checks this module's protocols (see
// `workshare_common::sync` and docs/TESTING.md).
use workshare_common::sync::{Arc, AtomicBool, AtomicU64, Mutex, Ordering};
use workshare_sim::{Machine, SimCtx, SimQueue, WaitSet};
use workshare_storage::StorageManager;

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::admission::{
    activate_batch, build_units, fail_batch, prepare_batch, run_scan_unit, scan_panic_error,
    stage_memo_hits, MemoPart, PreparedBatch, ScanUnit,
};
use crate::health::AdmissionHealth;
use crate::memo::{AdmissionMemo, Selected, ADMISSION_MEMO_BUDGET_BYTES};
use crate::stage::{Admission, CjoinStage, StageInner, ADMISSION_BATCH_WINDOW_NS};
use crate::window::{ScanAttempt, WindowLedger};

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
    /// (see [`crate::CjoinStats::admission_dim_pages`]). A part served by
    /// the admission memo reads none.
    pub admission_dim_pages: u64,
    /// `(query, dimension)` parts staged from the admission memo instead of
    /// scanned.
    pub memo_hits: u64,
    /// Parts looked up and not found (scanned, then remembered). Hits and
    /// misses both stay 0 while the memo is bypassed under faults.
    pub memo_misses: u64,
    /// Estimated bytes the memo holds now (entries + interned rows).
    pub memo_bytes: u64,
    /// Estimated bytes evicted to stay under the memo's budget.
    pub memo_evicted_bytes: u64,
}

struct FabricInner {
    /// Stage requests awaiting a window, pushed once per admission hand-off
    /// (never per page); closed by [`AdmissionFabric::shutdown`].
    queue: SimQueue<FabricRequest>,
    /// Queries queued across all stages and not yet activated — the
    /// governor's cross-stage pending signal
    /// (`SharingSignals::cross_stage_pending`) and the health monitor's
    /// idle test. No cap: every such query holds an engine queue permit
    /// when the service layer bounds admission. The add-before-visible /
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
    /// The admission memo. A plain mutex, taken only by a window's worker —
    /// to look its parts up before the scan fan-out and to fill after the
    /// join, never across a charge — and by `stats()`.
    memo: Mutex<AdmissionMemo>,
    /// The machine the workers run on, kept so the health monitor can
    /// spawn replacement workers ([`AdmissionFabric::respawn_worker`]).
    machine: Machine,
    /// The seeded fault plan; the fabric's own site is the worker wedge.
    faults: FaultPlan,
    /// Shared admission-health state; `Some` under an armed plan adds fault
    /// accounting, and under a self-healing one ([`FabricInner::supervisor`])
    /// subscan deadlines and straggler re-dispatch to every window.
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
    /// The health handle that supervises windows: present only under a
    /// self-healing plan (a handle that only counts faults supervises
    /// nothing).
    fn supervisor(&self) -> Option<&Arc<AdmissionHealth>> {
        self.health.as_ref().filter(|_| self.faults.heals())
    }

    /// Whether this worker should wedge now (injected fault, fires once).
    fn wedge_due(&self) -> bool {
        let Some(n) = self.faults.fabric_wedge_after else {
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

    /// Whether this window may consult and fill the admission memo: not
    /// while any fault site is armed in a plan the window can see (the
    /// fabric's, each stage's storage manager's) — a hit skips page reads
    /// and `scan_tick` draws, which would shift every seeded fault schedule.
    fn memo_allowed(&self, stages: &[CjoinStage]) -> bool {
        !self.faults.is_armed()
            && stages.iter().all(|s| !s.inner.storage.config().faults.is_armed())
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
    /// `faults` is the seeded fault plan (worker-wedge site; any armed site
    /// bypasses the memo) and `health` an optional shared
    /// [`AdmissionHealth`] that counts the fabric's faults. A subscan's
    /// storage error or panic fails its window's batches, unless the plan
    /// self-heals and a handle is given: then subscans also get a virtual
    /// deadline ([`UNIT_REDISPATCH_DEADLINE_NS`]), and a straggler (stalled,
    /// dead to an injected panic, or wedged-behind) is re-dispatched
    /// idempotently through the [`ScanAttempt`] claim protocol.
    pub fn new(
        machine: &Machine,
        faults: FaultPlan,
        health: Option<Arc<AdmissionHealth>>,
    ) -> AdmissionFabric {
        Self::with_memo(
            machine,
            faults,
            health,
            AdmissionMemo::new(ADMISSION_MEMO_BUDGET_BYTES),
        )
    }

    fn with_memo(
        machine: &Machine,
        faults: FaultPlan,
        health: Option<Arc<AdmissionHealth>>,
        memo: AdmissionMemo,
    ) -> AdmissionFabric {
        let fabric = AdmissionFabric {
            inner: Arc::new(FabricInner {
                queue: SimQueue::unbounded(machine),
                ledger: WindowLedger::default(),
                batches: AtomicU64::new(0),
                cross_stage_batches: AtomicU64::new(0),
                merged_requests: AtomicU64::new(0),
                admission_dim_pages: AtomicU64::new(0),
                memo: Mutex::new(memo),
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

    /// Lifetime fabric counters.
    pub fn stats(&self) -> FabricStats {
        let memo = self.inner.memo.lock();
        FabricStats {
            batches: self.inner.batches.load(Ordering::Relaxed),
            cross_stage_batches: self.inner.cross_stage_batches.load(Ordering::Relaxed),
            merged_requests: self.inner.merged_requests.load(Ordering::Relaxed),
            admission_dim_pages: self.inner.admission_dim_pages.load(Ordering::Relaxed),
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_bytes: memo.bytes,
            memo_evicted_bytes: memo.evicted_bytes,
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
    let mut units = build_units(&prepared);
    let inners: Vec<&StageInner> = stages.iter().map(|s| &*s.inner).collect();
    // Admission memo: parts whose selection an earlier window computed are
    // staged now — before any scan publishes and before activation — and
    // leave their unit; a unit left without parts is not scanned at all.
    // With a single worker the window count is the window's sequence number.
    let memo_window = fabric
        .memo_allowed(&stages)
        .then(|| fabric.windows.load(Ordering::Relaxed));
    if let Some(window) = memo_window {
        let mut hits: Vec<MemoPart> = Vec::new();
        {
            let mut memo = fabric.memo.lock();
            for unit in &mut units {
                unit.memoize = true;
                for part in std::mem::take(&mut unit.parts) {
                    match memo.lookup(unit.dim, unit.pk_idx, &part.pred, window) {
                        Some(hit) => hits.push(MemoPart {
                            dim: unit.dim,
                            part,
                            hit,
                        }),
                        None => unit.parts.push(part),
                    }
                }
            }
        }
        units.retain(|u| !u.parts.is_empty());
        if !hits.is_empty() {
            stage_memo_hits(ctx, &inners, &hits);
        }
    }
    // Scan units are independent — a filter core belongs to exactly one
    // `(dim, pk)` unit — and a unit's page subranges stage disjoint filter
    // entries (dimension primary keys are unique), so the window fans the
    // scans out as (unit × page-range) subscans on parallel vthreads: the
    // window's wall time is the slowest partition, not the sum — merging
    // stages must not serialize scans the per-stage pools would have
    // overlapped. Activation waits for every subscan: a query's filters
    // span dimensions.
    let storage = &stages[0].inner.storage;
    let tasks: Vec<Subscan> = units
        .into_iter()
        .flat_map(|unit| {
            let npages = storage.page_count(unit.dim);
            let chunks = npages.clamp(1, UNIT_SCAN_PARALLELISM);
            let per = npages.max(1).div_ceil(chunks);
            let unit = Arc::new(unit);
            (0..chunks)
                .map(|c| (c * per, ((c + 1) * per).min(npages)))
                .filter(|(lo, hi)| lo < hi)
                .map(|range| Subscan {
                    unit: Arc::clone(&unit),
                    range,
                    attempt: ScanAttempt::new(),
                    outcome: Mutex::new(None),
                    died: AtomicBool::new(false),
                    live: AtomicU64::new(0),
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let task_units: Vec<Arc<ScanUnit>> = tasks.iter().map(|t| Arc::clone(&t.unit)).collect();
    match scan_window(fabric, &stages, tasks, worker_idx) {
        Ok(selected) => {
            if let Some(window) = memo_window {
                fill_memo(fabric, storage, &task_units, selected, window);
            }
            for (stage, prep) in stages.iter().zip(prepared) {
                activate_batch(&stage.inner, prep);
                // The stage's preprocessor may be parked waiting for an
                // active query; the batch just activated.
                stage.inner.wake.notify_all();
            }
        }
        Err(msg) => {
            // A typed scan failure or a panic fails every batch in the
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

/// Remember what a window's scans selected: every page-range subscan
/// succeeded, so a unit's tasks (consecutive in `task_units`, in page order)
/// concatenate into each part's complete selection.
fn fill_memo(
    fabric: &FabricInner,
    storage: &StorageManager,
    task_units: &[Arc<ScanUnit>],
    selected: Vec<Vec<Selected>>,
    window: u64,
) {
    let mut memo = fabric.memo.lock();
    let mut ranges = selected.into_iter();
    for tasks in task_units.chunk_by(Arc::ptr_eq) {
        let unit = &tasks[0];
        let complete = memo.usable_ranges(tasks.len());
        let mut per_part: Vec<Selected> = vec![Vec::new(); unit.parts.len()];
        for (ri, range) in ranges.by_ref().take(tasks.len()).enumerate() {
            if ri < complete {
                for (whole, piece) in per_part.iter_mut().zip(range) {
                    whole.extend(piece);
                }
            }
        }
        let dim_rows = storage.row_count(unit.dim) as u64;
        for (part, whole) in unit.parts.iter().zip(per_part) {
            memo.fill(unit.dim, unit.pk_idx, &part.pred, whole, dim_rows, window);
        }
    }
}

/// One (unit × page-range) subscan of a window, shared by its attempts.
struct Subscan {
    unit: Arc<ScanUnit>,
    range: (usize, usize),
    /// The exactly-once publish claim between an attempt and its
    /// re-dispatched replacement.
    attempt: ScanAttempt,
    /// Set once: the publishing attempt's selection, or the task's typed
    /// failure (a storage error, or a panic no re-dispatch may recover).
    outcome: Mutex<Option<Result<Vec<Selected>, String>>>,
    /// Raised when an injected panic ended an attempt the supervisor may
    /// replace.
    died: AtomicBool,
    /// Attempts spawned and not yet returned. A failed window waits for
    /// every task to be **quiescent** (`live == 0`) before it rolls its
    /// slots back: a late attempt left running could otherwise publish its
    /// staged entries into a failed (and soon reused) slot.
    live: AtomicU64,
}

impl Subscan {
    /// Whether this task needs no further attempt: one published, or the
    /// task failed.
    fn settled(&self) -> bool {
        self.outcome.lock().is_some()
    }
}

/// Scan a window's tasks, each as a spawned attempt under `catch_unwind`
/// that publishes through its task's [`ScanAttempt`] claim, and return what
/// every task selected, in task order — or the first failure in task order,
/// once every attempt has stopped. A storage error, or a panic nobody
/// re-dispatches, fails its task. An empty window spawns nothing.
///
/// Under a healing plan (`FabricInner::supervisor` is `Some`) the window is
/// **supervised**: a task still unsettled at [`UNIT_REDISPATCH_DEADLINE_NS`],
/// or whose first attempt died to an injected panic, gets a second,
/// injection-free attempt over the same range; the claim makes the pair
/// publish exactly once. Every path terminates: a healthy attempt
/// publishes, a stalled one loses the claim and exits, a re-dispatch
/// publishes or fails its task.
fn scan_window(
    fabric: &Arc<FabricInner>,
    stages: &[CjoinStage],
    tasks: Vec<Subscan>,
    worker_idx: usize,
) -> Result<Vec<Vec<Selected>>, String> {
    if tasks.is_empty() {
        return Ok(Vec::new());
    }
    let machine = stages[0].inner.machine.clone();
    let ws = WaitSet::new(&machine);
    let tasks: Vec<Arc<Subscan>> = tasks.into_iter().map(Arc::new).collect();
    let spawn_attempt = |ti: usize, attempt_no: u32, inject: bool| {
        let task = Arc::clone(&tasks[ti]);
        let stages = stages.to_vec();
        let fabric = Arc::clone(fabric);
        let ws = ws.clone();
        task.live.fetch_add(1, Ordering::AcqRel);
        machine.spawn(
            &format!("admission-fabric-{worker_idx}-scan-{ti}-a{attempt_no}"),
            move |ctx| {
                let inners: Vec<&StageInner> = stages.iter().map(|s| &*s.inner).collect();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_scan_unit(
                        ctx,
                        &inners,
                        &task.unit,
                        Some(&fabric.admission_dim_pages),
                        Some(task.range),
                        Some(&task.attempt),
                        inject,
                    )
                }));
                let settled = match outcome {
                    // A loser of the claim settles nothing; its winner does.
                    Ok(Ok(selected)) => task.attempt.is_done().then_some(Ok(selected)),
                    Ok(Err(e)) => Some(Err(e.to_string())),
                    // An injected panic under supervision is a straggler:
                    // flag it for re-dispatch. Any other panic is a bug and
                    // fails the window.
                    Err(_) if inject && fabric.supervisor().is_some() => {
                        task.died.store(true, Ordering::Release);
                        None
                    }
                    Err(panic) => Some(Err(scan_panic_error(&*panic))),
                };
                if let Some(settled) = settled {
                    task.outcome.lock().get_or_insert(settled);
                }
                task.live.fetch_sub(1, Ordering::AcqRel);
                ws.notify_all();
            },
        );
    };
    for ti in 0..tasks.len() {
        spawn_attempt(ti, 1, true);
    }
    let all_settled = || tasks.iter().all(|t| t.settled());
    match fabric.supervisor() {
        None => ws.wait_until(all_settled),
        Some(health) => {
            // Deadline timer: WaitSet has no timed wait, so a watchdog
            // vthread sleeps the deadline away and wakes the supervisor.
            let timeout = Arc::new(AtomicBool::new(false));
            {
                let timeout = Arc::clone(&timeout);
                let ws = ws.clone();
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
            let due = |redispatched: &[bool], ti: usize| {
                !redispatched[ti]
                    && !tasks[ti].settled()
                    && (tasks[ti].died.load(Ordering::Acquire) || timeout.load(Ordering::Acquire))
            };
            loop {
                ws.wait_until(|| {
                    all_settled() || (0..tasks.len()).any(|ti| due(&redispatched, ti))
                });
                if all_settled() {
                    break;
                }
                for ti in 0..tasks.len() {
                    if due(&redispatched, ti) {
                        redispatched[ti] = true;
                        health.count_redispatch();
                        spawn_attempt(ti, 2, false);
                    }
                }
            }
        }
    }
    let outcomes: Result<Vec<Vec<Selected>>, String> = tasks
        .iter()
        .map(|t| t.outcome.lock().take().expect("every task settled"))
        .collect();
    if outcomes.is_err() {
        // Quiesce before failing: the window's slots are about to be rolled
        // back, so wait out any still-running attempt. Success needs no
        // such barrier: a late loser cannot publish, having lost the claim.
        ws.wait_until(|| tasks.iter().all(|t| t.live.load(Ordering::Acquire) == 0));
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::LadderRung;
    use crate::stage::tests::shared_admission_oracle::build_query;
    use crate::stage::tests::{add_str_pk_dim, bound_for, expected, query, setup, setup_sized};
    use crate::stage::{CjoinConfig, CjoinStats};
    use proptest::prelude::*;
    use workshare_common::cell::CompletionCell;
    use workshare_common::value::Row;
    use workshare_common::{CostModel, StarQuery};
    use workshare_qpipe::exchange::{Exchange, ExchangeKind};
    use workshare_qpipe::ops::run_aggregate;
    use workshare_sim::CostKind;

    fn fabric_with(m: &Machine, memo: AdmissionMemo) -> AdmissionFabric {
        AdmissionFabric::with_memo(m, FaultPlan::default(), None, memo)
    }

    /// Run `queries` on `stage` from `clients` closed-loop clients (query
    /// `i` is client `i % clients`'s, each client one query at a time);
    /// rows in query order.
    fn run_clients(
        m: &Machine,
        stage: &CjoinStage,
        queries: &[StarQuery],
        clients: usize,
    ) -> Vec<Vec<Row>> {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let st = stage.clone();
                let mine: Vec<(usize, StarQuery)> = queries
                    .iter()
                    .cloned()
                    .enumerate()
                    .skip(c)
                    .step_by(clients)
                    .collect();
                m.spawn(&format!("client-{c}"), move |ctx| {
                    mine.into_iter()
                        .map(|(i, q)| {
                            let bound = bound_for(&st, &q);
                            let outp = st.submit(&q, Arc::clone(&bound));
                            let rows = run_aggregate(
                                ctx,
                                outp.reader,
                                &bound,
                                &q.order_by,
                                &st.inner.cost,
                            );
                            (i, rows)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut rows: Vec<(usize, Vec<Row>)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        rows.sort_by_key(|(i, _)| *i);
        rows.into_iter().map(|(_, r)| r).collect()
    }

    /// `queries` on a fresh stage — served by a fabric holding `memo`, or
    /// with no fabric at all: rows and counters.
    fn run_stage(
        queries: &[StarQuery],
        clients: usize,
        dima_rows: i64,
        config: CjoinConfig,
        memo: Option<AdmissionMemo>,
    ) -> (Vec<Vec<Row>>, CjoinStats, Option<FabricStats>) {
        let (m, sm) = setup_sized(dima_rows, 7);
        let fabric = memo.map(|memo| fabric_with(&m, memo));
        let cost = CostModel::default();
        let stage = CjoinStage::with_admission(&m, &sm, "fact", config, cost, fabric.clone(), None);
        let rows = run_clients(&m, &stage, queries, clients);
        let stats = stage.stats();
        stage.shutdown();
        let fs = fabric.map(|f| {
            f.shutdown();
            f.stats()
        });
        (rows, stats, fs)
    }

    /// `specs` as queries on a fabric-served stage holding `memo`, against
    /// the serial oracle on a stage of its own: rows and logical counters.
    fn check_against_oracle(
        specs: &[(u8, u8, u8)],
        clients: usize,
        dima_rows: i64,
        memo: AdmissionMemo,
    ) -> Result<FabricStats, String> {
        let queries: Vec<StarQuery> = specs
            .iter()
            .enumerate()
            .map(|(i, &(pa, pb, subset))| build_query(i as u64, pa, pb, subset))
            .collect();
        let (rows, stats, fs) = run_stage(
            &queries,
            clients,
            dima_rows,
            CjoinConfig::default(),
            Some(memo),
        );
        let fs = fs.expect("fabric run");
        let serial = CjoinConfig {
            serial_admission: true,
            ..Default::default()
        };
        let (o_rows, o_stats, _) = run_stage(&queries, clients, dima_rows, serial, None);
        if rows != o_rows {
            return Err(format!("rows diverged from the serial oracle: {fs:?}"));
        }
        if (stats.admitted, stats.admission_dim_rows)
            != (o_stats.admitted, o_stats.admission_dim_rows)
        {
            return Err(format!(
                "logical counters diverged: {stats:?} vs {o_stats:?}"
            ));
        }
        let parts: u64 = queries.iter().map(|q| q.dims.len() as u64).sum();
        if fs.memo_hits + fs.memo_misses != parts {
            return Err(format!("{parts} parts, {fs:?}"));
        }
        Ok(fs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Random query sequences with repeats, one at a time and from 8
        /// concurrent clients: every result equals the serial oracle's row
        /// for row, and so do `admitted` / `admission_dim_rows`.
        #[test]
        fn memo_served_admission_matches_the_serial_oracle(
            specs in proptest::collection::vec((0u8..3, 0u8..3, 0u8..3), 2..12),
            concurrent in proptest::bool::ANY,
            paged_dims in proptest::bool::ANY,
        ) {
            let dima_rows = if paged_dims { 3000 } else { 10 };
            let clients = if concurrent { 8 } else { 1 };
            let memo = AdmissionMemo::new(ADMISSION_MEMO_BUDGET_BYTES);
            let fs = check_against_oracle(&specs, clients, dima_rows, memo)
                .unwrap_or_else(|e| panic!("{e}"));
            if !concurrent {
                // One window per query: a miss per distinct (dimension,
                // predicate) the sequence holds, everything else hits.
                let mut distinct: Vec<(bool, u8)> = specs
                    .iter()
                    .flat_map(|&(pa, pb, subset)| {
                        let a = (subset % 3 != 2).then_some((false, pa % 3));
                        let b = (subset % 3 != 1).then_some((true, pb % 3));
                        a.into_iter().chain(b)
                    })
                    .collect();
                distinct.sort();
                distinct.dedup();
                prop_assert_eq!(fs.memo_misses, distinct.len() as u64, "{:?}", fs);
            }
        }
    }

    /// Mutation: a memo filled from a scan with one page range withheld is a
    /// wrong answer the oracle comparison above must see.
    #[test]
    fn a_memo_filled_short_of_one_page_range_is_caught() {
        let specs = [(1, 0, 1), (1, 0, 1)];
        let mut short = AdmissionMemo::new(ADMISSION_MEMO_BUDGET_BYTES);
        short.withhold_last_range = true;
        let err = check_against_oracle(&specs, 1, 3000, short).unwrap_err();
        assert!(err.starts_with("rows diverged"), "{err}");
        let whole = AdmissionMemo::new(ADMISSION_MEMO_BUDGET_BYTES);
        assert_eq!(
            check_against_oracle(&specs, 1, 3000, whole)
                .unwrap()
                .memo_hits,
            1
        );
    }

    /// Under a budget of a few entries the memo evicts and refills, and is
    /// still never wrong.
    #[test]
    fn eviction_under_a_tiny_budget_keeps_answers_right() {
        let specs: Vec<(u8, u8, u8)> = (0..18u8).map(|i| (i % 3, (i / 3) % 3, 0)).collect();
        let fs = check_against_oracle(&specs, 1, 3000, AdmissionMemo::new(300_000)).unwrap();
        assert!(
            fs.memo_evicted_bytes > 0 && fs.memo_bytes <= 300_000,
            "{fs:?}"
        );
        assert!(fs.memo_hits > 0 && fs.memo_misses > 6, "{fs:?}");
    }

    /// Run one window of `queries` on `stage` by hand, on the calling
    /// vthread, as the fabric's worker would.
    fn window_by_hand(
        ctx: &SimCtx,
        fabric: &AdmissionFabric,
        stage: &CjoinStage,
        queries: Vec<StarQuery>,
    ) {
        let cost = stage.inner.cost;
        let pending = queries
            .into_iter()
            .map(|q| Admission {
                bound: bound_for(stage, &q),
                out: Exchange::new(ExchangeKind::Spl, &stage.inner.machine, cost, 1),
                sig: q.cjoin_signature(),
                fault: Arc::new(CompletionCell::new()),
                query: q,
            })
            .collect();
        let req = FabricRequest {
            stage: stage.clone(),
            pending,
        };
        process_window(&fabric.inner, ctx, vec![req], 0);
        fabric.inner.windows.fetch_add(1, Ordering::Relaxed);
    }

    /// Two windows driven by hand on a stage whose queries never finish
    /// (`cap_pages: 1`, no reader): the first misses — two equal queries,
    /// four parts, two entries — the second is served by the memo alone.
    #[test]
    fn a_hit_only_window_reads_no_page_and_spawns_no_vthread() {
        let (m, sm) = setup_sized(3000, 7);
        let fabric = fabric_with(&m, AdmissionMemo::new(ADMISSION_MEMO_BUDGET_BYTES));
        let config = CjoinConfig {
            cap_pages: 1,
            ..Default::default()
        };
        let cost = CostModel::default();
        let stage =
            CjoinStage::with_admission(&m, &sm, "fact", config, cost, Some(fabric.clone()), None);
        let (st, fab, mm) = (stage.clone(), fabric.clone(), m.clone());
        let (admission_s, spawns) = m
            .spawn("driver", move |ctx| {
                window_by_hand(ctx, &fab, &st, vec![query(1, true), query(2, true)]);
                let (cpu, handoffs) = (mm.cpu_breakdown(), mm.handoff_counts());
                window_by_hand(ctx, &fab, &st, vec![query(3, true)]);
                (
                    mm.cpu_breakdown().delta(&cpu).secs(CostKind::Admission),
                    mm.handoff_counts().spawns - handoffs.spawns,
                )
            })
            .join()
            .unwrap();
        let pages = (sm.page_count(sm.table("dima")) + sm.page_count(sm.table("dimb"))) as u64;
        let fs = fabric.stats();
        assert_eq!((fs.memo_misses, fs.memo_hits), (4, 2), "{fs:?}");
        assert_eq!(
            fabric.inner.memo.lock().entries(),
            2,
            "equal predicates, one entry"
        );
        assert_eq!(
            fs.admission_dim_pages, pages,
            "the hit-only window read a page"
        );
        assert_eq!(spawns, 0, "the hit-only window spawned a subscan");
        // prepare_batch's fixed charges, then per part the writer lock and
        // 45 ns per selected row: half of dima, all of dimb.
        let expect = cost.admission_query_fixed_ns * 1.1
            + 2.0 * cost.lock_acquire_ns
            + cost.admission_tuple_ns * (1500 + 7) as f64;
        assert!(
            (admission_s * 1e9 - expect).abs() < 1e-3,
            "{admission_s} s vs {expect} ns"
        );
        assert_eq!(
            stage.stats().admission_dim_rows,
            3 * (3000 + 7),
            "logical rows"
        );
        stage.shutdown();
        fabric.shutdown();
    }

    /// A window with nothing to scan under a healing plan — dimension-less
    /// queries, on a fabric with a health handle — spawns neither a subscan
    /// nor a deadline watchdog, and activates its batch.
    #[test]
    fn a_supervised_window_with_nothing_to_scan_spawns_no_vthread() {
        let (m, sm) = setup();
        let heals = FaultPlan {
            scan_stall_stride: Some(u64::MAX),
            self_heal: true,
            ..FaultPlan::default()
        };
        assert!(heals.heals());
        let health = Arc::new(AdmissionHealth::new(LadderRung::Fabric));
        let fabric = AdmissionFabric::new(&m, heals, Some(health));
        let config = CjoinConfig {
            cap_pages: 1,
            ..Default::default()
        };
        let stage = CjoinStage::with_admission(
            &m,
            &sm,
            "fact",
            config,
            CostModel::default(),
            Some(fabric.clone()),
            None,
        );
        let no_dims = |id| StarQuery {
            dims: vec![],
            group_by: vec![],
            order_by: vec![],
            ..query(id, false)
        };
        let (st, fab, mm) = (stage.clone(), fabric.clone(), m.clone());
        let spawns = m
            .spawn("driver", move |ctx| {
                let handoffs = mm.handoff_counts();
                window_by_hand(ctx, &fab, &st, vec![no_dims(1), no_dims(2)]);
                mm.handoff_counts().spawns - handoffs.spawns
            })
            .join()
            .unwrap();
        assert_eq!(spawns, 0, "a window with no scan part spawned a vthread");
        assert_eq!(fabric.stats().batches, 1);
        assert_eq!(stage.stats().admitted, 2);
        stage.shutdown();
        fabric.shutdown();
    }

    /// A genuine bug in a fabric scan, with faults off and no health
    /// handle: a window whose dimension has a `Str` pk fans out to several
    /// page-range subscans, each of which panics. Both queries of the
    /// window end in a typed error carrying the panic's message, and the
    /// fabric's one worker survives to serve a later window.
    #[test]
    fn a_panicking_fabric_scan_fails_its_window_instead_of_hanging_the_fabric() {
        let (m, sm) = setup();
        let broken = add_str_pk_dim(&sm, 9000);
        let dims_pages = sm.page_count(sm.table("dims"));
        assert!(dims_pages > 1, "the window must fan out: {dims_pages} page");
        let fabric = AdmissionFabric::new(&m, FaultPlan::default(), None);
        let stage = CjoinStage::with_admission(
            &m,
            &sm,
            "fact",
            CjoinConfig::default(),
            CostModel::default(),
            Some(fabric.clone()),
            None,
        );
        let (st, fab) = (stage.clone(), fabric.clone());
        let (errors, windows_failed, late) = m
            .spawn("coord", move |ctx| {
                // One window: no virtual time passes between submissions.
                let outputs: Vec<_> = [broken(1), broken(2)]
                    .iter()
                    .map(|q| st.submit(q, bound_for(&st, q)))
                    .collect();
                let mut errors = Vec::new();
                for mut o in outputs {
                    assert!(
                        o.reader.next(ctx).is_none(),
                        "a failed window emits nothing"
                    );
                    errors.push(o.fault.error());
                }
                let windows_failed = fab.windows_processed();
                let q = query(3, true);
                let bound = bound_for(&st, &q);
                let outp = st.submit(&q, Arc::clone(&bound));
                let rows = run_aggregate(ctx, outp.reader, &bound, &q.order_by, &st.inner.cost);
                (errors, windows_failed, (rows, outp.fault.error()))
            })
            .join()
            .unwrap();
        for e in &errors {
            let msg = e.as_deref().expect("the window failed");
            assert!(
                msg.contains("admission scan unit panicked") && msg.contains("expected Int"),
                "{msg}"
            );
        }
        assert_eq!(
            late,
            (expected(true), None),
            "the later query runs on freed slots"
        );
        assert_eq!(windows_failed, 1);
        assert!(
            fabric.windows_processed() > windows_failed,
            "the worker served a window after the failed one"
        );
        assert_eq!(stage.stats().admitted, 1, "the later query alone");
        assert_eq!(stage.active_queries(), 0);
        stage.shutdown();
        fabric.shutdown();
    }
}
