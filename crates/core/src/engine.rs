//! Unified engine facade over the execution paths, including the governed
//! engine that routes each submission between query-centric and shared
//! execution ([`ExecPolicy`], [`crate::governor::SharingGovernor`]).
//!
//! Since the multi-fact sharding refactor the governed engine's shared side
//! is a stage registry: one [`CjoinStage`] **per fact table**, built on the
//! first query routed to it and **always on** from then until
//! [`Engine::shutdown`] — queries come and go (admission sets a bit,
//! finalisation clears it), the operator does not (paper §2.4, §3.2);
//! between queries its threads park at zero virtual cost. Every shared
//! query over *any* fact table enters its fact's Global Query Plan; one
//! with no dimension join is the degenerate star, routed on its fact
//! predicate alone, so the stage's circular scan is the only scan of the
//! table. Per-fact accounting is surfaced as [`StageRow`]s.

use workshare_cjoin::{
    AdmissionFabric, AdmissionHealth, CjoinConfig, CjoinRuntimeStats, CjoinStage, CjoinStats,
    FabricStats, LadderRung, N_FILTER_WORKERS,
};
use workshare_common::bind::BoundQuery;
use workshare_common::fxhash::FxHashMap;
// The concurrent core imports its primitives through the swappable sync
// layer: production builds get the same `std`/`parking_lot` types as
// before, `--cfg interleave` builds get the deterministic-model shim (see
// `workshare_common::sync` and docs/TESTING.md).
use workshare_common::sync::{Arc, AtomicBool, AtomicU64, Mutex, Ordering};
use workshare_common::value::Row;
use workshare_common::{CostModel, FaultSite, SharingSignals, StarQuery};
use workshare_qpipe::ops::run_aggregate;
use workshare_qpipe::{CompletionGuard, QpipeEngine, SlotResult};
use workshare_sim::{Machine, SimCtx, WaitSet};
use workshare_storage::{StorageManager, TableId};

use crate::config::{ExecPolicy, NamedConfig, RunConfig, ServiceConfig};
use crate::governor::{GovernorConfig, GovernorStats, Route, SharingGovernor, SloDecision};
use crate::health::HealthStats;
use crate::slots::{ServiceSlots, SlotPermit};
use crate::ticket::Ticket;
use crate::volcano::try_run_volcano_query;

/// Virtual nanoseconds between health-monitor ticks while admission work is
/// outstanding. Two ticks bracket a wedged fabric well under the default
/// injected stall (8 ms), so a dark pool is demoted before a full stall
/// elapses.
const MONITOR_TICK_NS: f64 = 500_000.0;

/// Injected-fault / failed-batch delta within one monitor tick that demotes
/// the admission ladder one rung.
const MONITOR_FAULT_BURST: u64 = 2;

/// Consecutive ticks of pending fabric work with zero window progress
/// before the fabric is declared dark (demote + reclaim + respawn).
const MONITOR_STALL_TICKS: u32 = 2;

/// Consecutive clean ticks (no new faults, no stall) before the ladder is
/// promoted one rung back toward the top.
const MONITOR_PROMOTE_TICKS: u32 = 16;

/// Why a submission was shed by [`Engine::try_submit`] instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded admission queue (the engine's outstanding count) was
    /// full.
    QueueFull,
    /// No route's predicted completion met the query's virtual deadline.
    Deadline,
}

impl ShedReason {
    /// Display label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::Deadline => "deadline",
        }
    }
}

/// Result of a bounded submission ([`Engine::try_submit`]).
pub enum Outcome {
    /// The query was admitted; track it via the ticket.
    Admitted(Ticket),
    /// The query was shed at the door and never entered any queue.
    Shed {
        /// Why it was shed.
        reason: ShedReason,
    },
}

/// Per-fact-table row of a governed run's shared side, surfaced in
/// [`RunReport::stages`](crate::harness::RunReport::stages): which stage
/// served how many shared queries, with the stage's CJOIN counters. A row
/// exists from the first query routed to its fact table, so a report
/// covers every fact table that was ever sharded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    /// Fact table this stage is bound to.
    pub fact: String,
    /// Route label carrying the fact table, e.g. `Shared(lineorder)` — the
    /// label a shared query served by this stage is attributed to.
    pub label: String,
    /// Shared queries served by this stage over the engine's lifetime.
    pub shared_queries: u64,
    /// Stage pipelines built for this fact table: 1, plus one per injected
    /// stage-build failure
    /// ([`FaultPlan::stage_build_stride`](crate::config::FaultPlan)).
    pub incarnations: u64,
    /// The stage's CJOIN counters over the engine's lifetime.
    pub stats: CjoinStats,
}

/// One fact table's always-on stage and its routing counters.
struct FactStage {
    fact_name: String,
    stage: CjoinStage,
    /// Shared queries routed here and not yet finished: the governor's
    /// `stage_in_flight` signal, and what the health monitor idles on.
    in_flight: u64,
    /// Shared queries ever routed here.
    served: u64,
    /// Pipelines built for this fact ([`StageRow::incarnations`]).
    incarnations: u64,
}

/// Lazily sharded CJOIN stages, one per fact table ([`StageRow`] docs).
/// All methods take `&self`; shared behind the engine's `Arc`.
struct StageRegistry {
    machine: Machine,
    storage: StorageManager,
    config: CjoinConfig,
    cost: CostModel,
    /// Engine-level cross-stage admission pool, shared by every stage this
    /// registry builds ([`RunConfig::admission_fabric`]); stages fall back
    /// to their own per-stage workers when `None`. Shut down with the
    /// engine.
    fabric: Option<AdmissionFabric>,
    /// The stages, built on first routing and kept until
    /// [`StageRegistry::shutdown_all`].
    stages: Mutex<FxHashMap<TableId, FactStage>>,
    /// Shared admission-health state (ladder rung + fault/recovery
    /// counters), present iff [`FaultPlan::is_armed`](crate::config::FaultPlan)
    /// so injected faults are counted with or without self-healing. Under a
    /// plan that also [`heals`](crate::config::FaultPlan::heals), stages
    /// route pending batches by its live rung, the fabric runs supervised
    /// windows under it, and the health monitor drives it.
    health: Option<Arc<AdmissionHealth>>,
    /// Injection tick of the stage-build site (one per fact table).
    stage_builds: AtomicU64,
    /// Builds that failed by injection: the carcass was shut down and the
    /// stage built again.
    stage_rebuilds: AtomicU64,
    /// Wakes the health monitor when admission work appears (it blocks
    /// while no query is in flight and the fabric is empty, so an idle
    /// engine's virtual clock never advances on monitor ticks).
    monitor_ws: WaitSet,
    /// Stops the health monitor (engine shutdown).
    monitor_stop: AtomicBool,
}

/// One shared query's claim on its fact's stage: one unit of the
/// stage's in-flight count, given back on completion. It keeps nothing
/// alive — the stage lives as long as the engine.
struct StageLease {
    registry: Arc<StageRegistry>,
    fact: TableId,
}

impl StageLease {
    fn release(&self) {
        let mut stages = self.registry.stages.lock();
        let fs = stages
            .get_mut(&self.fact)
            .expect("a lease's stage stays in the map until the engine is dropped");
        fs.in_flight -= 1;
    }
}

impl StageRegistry {
    fn new(
        machine: &Machine,
        storage: &StorageManager,
        config: CjoinConfig,
        cost: CostModel,
        fabric: Option<AdmissionFabric>,
        health: Option<Arc<AdmissionHealth>>,
    ) -> StageRegistry {
        StageRegistry {
            machine: machine.clone(),
            storage: storage.clone(),
            config,
            cost,
            fabric,
            stages: Mutex::new(FxHashMap::default()),
            health,
            stage_builds: AtomicU64::new(0),
            stage_rebuilds: AtomicU64::new(0),
            monitor_ws: WaitSet::new(machine),
            monitor_stop: AtomicBool::new(false),
        }
    }

    /// Build `fact_name`'s stage (once per fact table per engine). The
    /// stage-build fault site draws here: on a hit the fresh pipeline is a
    /// bad build — shut down and counted in `stage_rebuilds` before any
    /// query has seen it — and the stage is built again. This site recovers
    /// regardless of `self_heal`: the failure is synchronous and rebuild is
    /// its only sane continuation.
    fn build_stage(&self, fact_name: &str) -> FactStage {
        let build = || {
            CjoinStage::with_admission(
                &self.machine,
                &self.storage,
                fact_name,
                self.config,
                self.cost,
                self.fabric.clone(),
                self.health.clone(),
            )
        };
        let mut stage = build();
        let mut incarnations = 1;
        let tick = self.stage_builds.fetch_add(1, Ordering::Relaxed);
        if self.config.faults.fires(FaultSite::StageBuild, tick) {
            stage.shutdown();
            self.stage_rebuilds.fetch_add(1, Ordering::Relaxed);
            stage = build();
            incarnations += 1;
        }
        FactStage {
            fact_name: fact_name.to_string(),
            stage,
            in_flight: 0,
            served: 0,
            incarnations,
        }
    }

    /// The stage for `fact`, built under the registry lock on first use
    /// (once per fact table per engine); registers one in-flight query on
    /// it, given back by the matching [`StageLease::release`].
    fn checkout(self: &Arc<Self>, fact: TableId, fact_name: &str) -> (CjoinStage, StageLease) {
        let stage = {
            let mut stages = self.stages.lock();
            let fs = stages
                .entry(fact)
                .or_insert_with(|| self.build_stage(fact_name));
            fs.in_flight += 1;
            fs.served += 1;
            fs.stage.clone()
        };
        // The health monitor parks while nothing is in flight; a checkout
        // is the arrival of admission work.
        self.monitor_ws.notify_all();
        let lease = StageLease {
            registry: Arc::clone(self),
            fact,
        };
        (stage, lease)
    }

    /// Whether the health monitor has nothing to watch: no query in flight
    /// on any stage and no queued fabric work. Deliberately not "no stage
    /// exists" — stages are always on, and the monitor must not tick the
    /// virtual clock of a quiet engine.
    fn monitor_idle(&self) -> bool {
        let in_flight: u64 = self.stages.lock().values().map(|fs| fs.in_flight).sum();
        in_flight == 0 && self.fabric_pending() == 0
    }

    /// Spawn the self-healing monitor vthread: while admission work is
    /// outstanding it ticks every [`MONITOR_TICK_NS`], demoting the
    /// fabric → pool → serial ladder on fault bursts, detecting a dark
    /// fabric (pending work, zero window progress) and answering it with
    /// reclaim + a replacement worker, and promoting back toward the top
    /// after a clean window. Parks on [`StageRegistry::monitor_ws`] while
    /// idle so it never advances the virtual clock of a quiet engine.
    fn spawn_health_monitor(self: &Arc<Self>, health: Arc<AdmissionHealth>) {
        let registry = Arc::clone(self);
        let top = if registry.fabric.is_some() {
            LadderRung::Fabric
        } else {
            LadderRung::Pool
        };
        self.machine.clone().spawn("health-monitor", move |ctx| {
            let mut last_score = 0u64;
            let mut last_windows = 0u64;
            let mut stall_ticks = 0u32;
            let mut clean_ticks = 0u32;
            loop {
                if registry.monitor_stop.load(Ordering::Acquire) {
                    return;
                }
                if registry.monitor_idle() {
                    registry.monitor_ws.wait_until(|| {
                        registry.monitor_stop.load(Ordering::Acquire)
                            || !registry.monitor_idle()
                    });
                    continue;
                }
                ctx.sleep(MONITOR_TICK_NS);
                let snap = health.snapshot();
                let score = snap.injected_stalls
                    + snap.injected_panics
                    + snap.injected_wedges
                    + snap.batches_failed;
                let delta = score.saturating_sub(last_score);
                last_score = score;
                // Dark-fabric detection: queued admissions with no window
                // progress across consecutive ticks means the pool is
                // wedged (not merely busy).
                let mut stalled = false;
                if let Some(fabric) = &registry.fabric {
                    if health.rung() == LadderRung::Fabric {
                        let windows = fabric.windows_processed();
                        if fabric.pending_queries() > 0 && windows == last_windows {
                            stall_ticks += 1;
                        } else {
                            stall_ticks = 0;
                        }
                        last_windows = windows;
                        if stall_ticks >= MONITOR_STALL_TICKS {
                            stalled = true;
                            stall_ticks = 0;
                        }
                    } else {
                        stall_ticks = 0;
                    }
                }
                if stalled {
                    health.demote();
                    if let Some(fabric) = &registry.fabric {
                        // Re-route the dark pool's held work through the
                        // pool/serial rung and stand up a replacement
                        // worker so a later promotion has a live fabric.
                        fabric.reclaim();
                        fabric.respawn_worker();
                    }
                    clean_ticks = 0;
                    continue;
                }
                if delta >= MONITOR_FAULT_BURST {
                    health.demote();
                    clean_ticks = 0;
                    continue;
                }
                if delta == 0 {
                    clean_ticks += 1;
                    if clean_ticks >= MONITOR_PROMOTE_TICKS {
                        health.promote(top);
                        clean_ticks = 0;
                    }
                } else {
                    clean_ticks = 0;
                }
            }
        });
    }

    /// Per-stage governor signals for `fact`: in-flight count plus the
    /// stage's runtime stats (its selectivity / key-run EWMAs persist with
    /// the stage); the cold default for a fact no query was routed to yet.
    fn stage_signals(&self, fact: TableId) -> (u64, CjoinRuntimeStats) {
        match self.stages.lock().get(&fact) {
            Some(fs) => (fs.in_flight, fs.stage.runtime_stats()),
            None => (
                0,
                CjoinRuntimeStats {
                    active_queries: 0,
                    avg_key_run: 1.0,
                    dim_selectivity: None,
                    dim_selectivity_by_dim: Vec::new(),
                },
            ),
        }
    }

    /// Queries pending on the cross-stage admission fabric (0 without one):
    /// the governor's `cross_stage_pending` signal.
    fn fabric_pending(&self) -> u64 {
        self.fabric.as_ref().map_or(0, |f| f.pending_queries())
    }

    /// Aggregate CJOIN counters over every stage, plus the physical pages
    /// the cross-stage fabric read on their behalf (each counted once per
    /// batching window, attributed to the fabric — per-stage counters stay
    /// 0 under it), so the aggregate keeps covering every physical
    /// admission read of the engine.
    fn total_stats(&self) -> CjoinStats {
        let mut total = CjoinStats::default();
        for fs in self.stages.lock().values() {
            total.absorb(&fs.stage.stats());
        }
        if let Some(fabric) = &self.fabric {
            total.admission_dim_pages += fabric.stats().admission_dim_pages;
        }
        total
    }

    /// Per-fact report rows, sorted by fact name (deterministic output).
    fn rows(&self) -> Vec<StageRow> {
        let mut rows: Vec<StageRow> = self
            .stages
            .lock()
            .values()
            .map(|fs| StageRow {
                fact: fs.fact_name.clone(),
                label: format!("Shared({})", fs.fact_name),
                shared_queries: fs.served,
                incarnations: fs.incarnations,
                stats: fs.stage.stats(),
            })
            .collect();
        rows.sort_by(|a, b| a.fact.cmp(&b.fact));
        rows
    }

    /// Shut every stage down, then the shared admission fabric (engine
    /// shutdown). The health monitor is stopped first so it cannot act on
    /// the dying fabric. The entries stay, so reports still read them.
    fn shutdown_all(&self) {
        self.monitor_stop.store(true, Ordering::Release);
        self.monitor_ws.notify_all();
        for fs in self.stages.lock().values() {
            fs.stage.shutdown();
        }
        if let Some(fabric) = &self.fabric {
            fabric.shutdown();
        }
    }
}

/// The governed engine: both execution paths plus the router between them.
struct Governed {
    policy: ExecPolicy,
    /// Shared path: one always-on CJOIN stage per fact table.
    registry: Arc<StageRegistry>,
    governor: Arc<SharingGovernor>,
    /// Queries submitted through this engine and not yet completed — the
    /// governor's engine-wide concurrency signal (tracked in Adaptive
    /// mode).
    in_flight: Arc<AtomicU64>,
    /// Virtual cores (saturation divisor of the query-centric estimate).
    cores: f64,
    /// CJOIN filter workers (parallelism divisor of the shared estimate).
    pipeline_parallelism: f64,
    /// Sequential disk bandwidth, bytes per virtual second; 0 when the
    /// database is memory-resident (no I/O terms in the estimates).
    disk_bandwidth: f64,
    /// Overload-control knobs ([`RunConfig::service`]); inactive by
    /// default, in which case [`Engine::try_submit`] degrades to plain
    /// [`Engine::submit`].
    service: ServiceConfig,
    /// Bounded-admission occupancy the queue cap CASes on; the
    /// claim/release protocol lives in
    /// [`ServiceSlots`] (model-checked by `tests/interleave_core.rs`).
    slots: Arc<ServiceSlots>,
}

enum EngineKind {
    Qpipe(QpipeEngine),
    Cjoin(CjoinStage),
    Volcano,
    Governed(Governed),
}

struct EngineInner {
    machine: Machine,
    storage: StorageManager,
    cost: CostModel,
    kind: EngineKind,
    gate_ws: WaitSet,
    gate_open: Arc<AtomicBool>,
    /// Worker-panic fault site
    /// ([`crate::config::FaultPlan::worker_panic_stride`]): panic inside the
    /// producer vthread of every query whose id is a multiple of the
    /// stride, after admission. Exercises the unwind path end to end — the
    /// completion guard poisons the slot, the permit's drop frees its queue
    /// slot, and the run report still balances ([`Engine::drive`] says what
    /// is *not* released on that path).
    worker_panic_stride: Option<u64>,
}

/// One adaptive submission's unit of the engine's in-flight count (the
/// governor's `concurrency` signal), given back when the query ends.
struct InFlightClaim(Arc<AtomicU64>);

impl InFlightClaim {
    fn release(self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Give back everything a finished query holds on the engine — its stage
/// lease, its admission-queue permit and its in-flight count — **before**
/// its completion is published. Publishing wakes the client in the same
/// virtual instant; a client that resubmits at once then races, in real
/// time, whatever the producer has not yet released: it finds its stage's
/// in-flight count one high or not, is shed at the cap or not, is routed on
/// the old in-flight count or the new. Released first, the next submission
/// always sees the engine as the finished query left it.
fn release_claims(
    claim: Option<InFlightClaim>,
    lease: Option<StageLease>,
    permit: Option<SlotPermit>,
) {
    if let Some(claim) = claim {
        claim.release();
    }
    if let Some(lease) = lease {
        lease.release();
    }
    drop(permit);
}

/// An engine instance bound to one machine and one mounted database.
/// Cheap to clone.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Build the engine selected by `config` over an already mounted
    /// storage manager. `fact_table` names the default fact table: the
    /// single CJOIN stage's for the named CJOIN engines; the governed
    /// engine ignores it and builds one always-on stage per fact table, on
    /// the first shared query that references it. With
    /// [`RunConfig::policy`] set, submissions are routed per the policy
    /// between those stages and Volcano.
    pub fn new(
        machine: &Machine,
        storage: &StorageManager,
        config: &RunConfig,
        fact_table: &str,
    ) -> Engine {
        // The health handle counts admission faults whenever a fault site
        // is armed; otherwise `health` is `None`. The self-healing machinery
        // that drives it (ladder, the fabric's subscan deadline and
        // straggler re-dispatch, monitor) runs only when the plan also
        // heals. Either way the fabric scans a window the same way: a
        // failed subscan fails its window.
        let has_fabric = config.admission_fabric && !config.cjoin_serial_admission;
        let health = config.faults.is_armed().then(|| {
            Arc::new(AdmissionHealth::new(if has_fabric {
                LadderRung::Fabric
            } else {
                LadderRung::Pool
            }))
        });
        let kind = match config.policy {
            Some(policy) => EngineKind::Governed(Governed {
                policy,
                registry: {
                    let registry = Arc::new(StageRegistry::new(
                        machine,
                        storage,
                        config.cjoin_config(),
                        config.cost,
                        // One cross-stage admission pool for every stage the
                        // registry will build. The serial oracle admits inline
                        // on the preprocessor, so it never uses a fabric.
                        has_fabric
                            .then(|| AdmissionFabric::new(machine, config.faults, health.clone())),
                        health.clone(),
                    ));
                    if let Some(h) = health.as_ref().filter(|_| config.faults.heals()) {
                        registry.spawn_health_monitor(Arc::clone(h));
                    }
                    registry
                },
                governor: Arc::new(SharingGovernor::new(config.cost, GovernorConfig::default())),
                in_flight: Arc::new(AtomicU64::new(0)),
                cores: config.cores as f64,
                pipeline_parallelism: N_FILTER_WORKERS as f64,
                disk_bandwidth: if config.io_mode == workshare_storage::IoMode::Memory {
                    0.0
                } else {
                    config.disk.bandwidth_bytes_per_sec
                },
                service: config.service,
                slots: ServiceSlots::new(),
            }),
            None => match config.engine {
                NamedConfig::Qpipe | NamedConfig::QpipeCs | NamedConfig::QpipeSp => {
                    EngineKind::Qpipe(QpipeEngine::new(
                        machine,
                        storage,
                        config.qpipe_config(),
                        config.cost,
                    ))
                }
                NamedConfig::Cjoin | NamedConfig::CjoinSp => EngineKind::Cjoin(
                    CjoinStage::new(machine, storage, fact_table, config.cjoin_config(), config.cost),
                ),
                NamedConfig::Volcano => EngineKind::Volcano,
            },
        };
        Engine {
            inner: Arc::new(EngineInner {
                machine: machine.clone(),
                storage: storage.clone(),
                cost: config.cost,
                kind,
                gate_ws: WaitSet::new(machine),
                gate_open: Arc::new(AtomicBool::new(true)),
                worker_panic_stride: config.faults.worker_panic_stride,
            }),
        }
    }

    /// Hold all per-query work at the start line (batch semantics).
    pub fn close_gate(&self) {
        self.inner.gate_open.store(false, Ordering::Release);
        if let EngineKind::Qpipe(e) = &self.inner.kind {
            e.close_gate();
        }
    }

    /// Release the start line.
    pub fn open_gate(&self) {
        self.inner.gate_open.store(true, Ordering::Release);
        self.inner.gate_ws.notify_all();
        if let EngineKind::Qpipe(e) = &self.inner.kind {
            e.open_gate();
        }
    }

    /// Submit a query; returns a [`Ticket`]. Unbounded: always admits
    /// (the legacy path — overload control lives in
    /// [`Engine::try_submit`]).
    pub fn submit(&self, q: &StarQuery) -> Ticket {
        match &self.inner.kind {
            EngineKind::Qpipe(e) => self.submit_qpipe(e, q, None, None),
            EngineKind::Cjoin(stage) => self.submit_cjoin(stage, q, None, None, None),
            EngineKind::Volcano => self.submit_volcano(q, None, None),
            EngineKind::Governed(g) => self
                .route_and_submit(g, q, None, None)
                .expect("unbounded submission cannot shed"),
        }
    }

    /// Bounded submission: admit `q` if the service queue has room and some
    /// route is predicted to meet the deadline, otherwise shed it with a
    /// typed reason. With [`ServiceConfig`] inactive (the default) or on an
    /// ungoverned engine this degrades to plain [`Engine::submit`] — every
    /// query is admitted. `_tenant` labels the submitter in the caller's
    /// reports only: the engine caps no tenant, only the engine-wide queue.
    pub fn try_submit(&self, q: &StarQuery, _tenant: usize) -> Outcome {
        let EngineKind::Governed(g) = &self.inner.kind else {
            return Outcome::Admitted(self.submit(q));
        };
        if !g.service.is_active() {
            return Outcome::Admitted(self.submit(q));
        }
        let permit = match self.claim_service_slot(g) {
            Ok(p) => p,
            Err(reason) => return Outcome::Shed { reason },
        };
        match self.route_and_submit(g, q, permit, g.service.deadline_secs) {
            Ok(t) => Outcome::Admitted(t),
            Err(reason) => Outcome::Shed { reason },
        }
    }

    /// Reserve one slot in the bounded admission queue. The engine-wide cap
    /// is claimed by compare-and-swap (the `SimQueue::try_push` shape:
    /// reserve-or-reject, never block), so concurrent submitters cannot
    /// overshoot it. It is the only cap: a query pending on the fabric holds
    /// its permit, so the fabric's depth never exceeds it.
    fn claim_service_slot(&self, g: &Governed) -> Result<Option<SlotPermit>, ShedReason> {
        let Some(cap) = g.service.queue_cap else {
            return Ok(None);
        };
        g.slots
            .try_claim(cap as u64)
            .map(Some)
            .ok_or(ShedReason::QueueFull)
    }

    /// Live cost-model signals for routing `q`: catalog cardinalities, the
    /// engine-wide in-flight count, the cross-stage admission-fabric
    /// pending count, and the per-stage signals of the query's **own fact
    /// stage** (its crowd, observed per-dimension selectivities, key-run)
    /// — a crowded fact amortizes sharing while a quiet one does not, even
    /// on the same engine.
    fn live_signals(&self, g: &Governed, q: &StarQuery) -> SharingSignals {
        let storage = &self.inner.storage;
        let fact_t = storage.table(&q.fact);
        let fact_tuples = storage.row_count(fact_t) as f64;
        let dim_tuples: f64 = q
            .dims
            .iter()
            .map(|d| storage.row_count(storage.table(&d.dim)) as f64)
            .sum();
        let (stage_in_flight, rt) = g.registry.stage_signals(fact_t);
        let cold = SharingSignals::cold(fact_tuples, dim_tuples, q.dims.len());
        // Per-dimension selectivity: average the observed EWMAs of the
        // dimensions *this query* joins (the skew-aware signal — a query
        // over a cheap-to-share dimension gets that dimension's estimate,
        // not an engine-wide blend), falling back to the stage aggregate
        // and then the cold prior.
        let observed: Vec<f64> = q
            .dims
            .iter()
            .filter_map(|d| {
                let dim_t = storage.table(&d.dim);
                rt.dim_selectivity_by_dim
                    .iter()
                    .find(|(t, _)| *t == dim_t)
                    .map(|(_, s)| *s)
            })
            .collect();
        let dim_selectivity = if observed.is_empty() {
            rt.dim_selectivity.unwrap_or(cold.dim_selectivity)
        } else {
            observed.iter().sum::<f64>() / observed.len() as f64
        };
        SharingSignals {
            dim_selectivity,
            avg_key_run: rt.avg_key_run,
            // Admissions queued across every fact stage on the engine's
            // cross-stage fabric: the candidate's physical admission scan
            // amortizes over them no matter which stage they came from.
            cross_stage_pending: g.registry.fabric_pending() as f64,
            // The governor sees engine-wide load from both paths (its own
            // in-flight count) and from the GQPs (queries admitted by
            // earlier submissions that are still wrapping).
            concurrency: (g.in_flight.load(Ordering::Acquire) as f64)
                .max(rt.active_queries as f64),
            // …and the load on this query's own fact stage (queueing +
            // saturation terms of the shared estimate).
            stage_in_flight: (stage_in_flight as f64).max(rt.active_queries as f64),
            cores: g.cores,
            pipeline_parallelism: g.pipeline_parallelism,
            fact_bytes: storage.table_bytes(fact_t) as f64,
            disk_bandwidth_bytes_per_sec: g.disk_bandwidth,
            ..cold
        }
    }

    /// Route `q` and hand it to the chosen path. `deadline_secs` switches
    /// the governor into SLO mode (deadline shedding); `permit` is the
    /// query's claim on the bounded admission queue, released by the
    /// completion closure of whichever path runs it. With both `None` this
    /// is exactly the legacy unbounded routing.
    fn route_and_submit(
        &self,
        g: &Governed,
        q: &StarQuery,
        permit: Option<SlotPermit>,
        deadline_secs: Option<f64>,
    ) -> Result<Ticket, ShedReason> {
        // One signals snapshot per submission, for the decision. Pinned
        // policies need it too when a deadline is set — their predicted
        // latency decides shed-vs-admit.
        let signals = (g.policy == ExecPolicy::Adaptive || deadline_secs.is_some())
            .then(|| self.live_signals(g, q));
        let route = match g.policy {
            ExecPolicy::QueryCentric | ExecPolicy::Shared => {
                let route = if g.policy == ExecPolicy::QueryCentric {
                    Route::QueryCentric
                } else {
                    Route::Shared
                };
                if let Some(deadline) = deadline_secs {
                    let predicted = g.governor.predicted_ns(route, signals.as_ref().unwrap());
                    if predicted > deadline * 1e9 {
                        return Err(ShedReason::Deadline);
                    }
                }
                g.governor.record_forced(route);
                route
            }
            ExecPolicy::Adaptive => {
                let shape = q.shape_signature();
                match deadline_secs {
                    None => g.governor.decide_keyed(shape, signals.as_ref().unwrap()),
                    Some(deadline) => {
                        match g
                            .governor
                            .decide_slo_keyed(shape, signals.as_ref().unwrap(), deadline)
                        {
                            SloDecision::Route(r) => r,
                            SloDecision::Shed => return Err(ShedReason::Deadline),
                        }
                    }
                }
            }
        };
        let claim = (g.policy == ExecPolicy::Adaptive).then(|| {
            g.in_flight.fetch_add(1, Ordering::AcqRel);
            InFlightClaim(Arc::clone(&g.in_flight))
        });
        Ok(match route {
            Route::QueryCentric => self.submit_volcano(q, claim, permit),
            Route::Shared => {
                let fact_t = self.inner.storage.table(&q.fact);
                let (stage, lease) = g.registry.checkout(fact_t, &q.fact);
                self.submit_cjoin(&stage, q, claim, Some(lease), permit)
            }
        })
    }

    /// The one end of life every route shares, named or governed: bind →
    /// (early error outcome, claims given back) → result slot → producer
    /// vthread → completion guard → start-line gate → worker-panic site →
    /// the route's work → claims released → result or typed error
    /// published → guard disarmed. `plan` starts whatever the route runs
    /// below its producer (nothing, for Volcano) once the query is known to
    /// bind, and returns the producer's `body`; a body that returns `Err`
    /// ends the query in an error outcome at the waiter, never a panic.
    /// The producer vthread is named `{packet}-q{id}`; the three claims are
    /// `None` on the named engines.
    ///
    /// The injected worker panic sits after the gate and **before** the
    /// work, so it unwinds past [`release_claims`]: the guard poisons the
    /// slot and the permit's `Drop` frees its queue slot, but
    /// [`StageLease`] and [`InFlightClaim`] have no `Drop` and leak. What
    /// leaks is a count, not a stage: one unit of the stage's `in_flight`
    /// (the governor's `stage_in_flight` reads one high and the health
    /// monitor never idles again for this engine) and one of the engine's.
    /// The chaos gate still rides on the monitor that keeps ticking —
    /// ROADMAP item 1 (i)–(iii) has the measurements and says what must
    /// land first; do not make the two RAII, move the site, or reorder
    /// release and publication here before then.
    fn drive<B>(
        &self,
        packet: &str,
        q: &StarQuery,
        claim: Option<InFlightClaim>,
        lease: Option<StageLease>,
        permit: Option<SlotPermit>,
        plan: impl FnOnce(Arc<BoundQuery>) -> B,
    ) -> Ticket
    where
        B: FnOnce(&SimCtx) -> Result<Arc<Vec<Row>>, String> + Send + 'static,
    {
        let inner = &self.inner;
        let start_ns = inner.machine.now_ns();
        let slot = SlotResult::new(&inner.machine, start_ns);
        let qid = q.id;
        // Bind before anything is started for the query: an unresolvable
        // column becomes a per-query error outcome at the waiter instead of
        // a panic inside whichever thread binds the same plan later.
        let bound = match inner.storage.bind_query(q) {
            Ok(bound) => Arc::new(bound),
            Err(e) => {
                release_claims(claim, lease, permit);
                slot.complete_error(format!("query {qid}: {e}"), start_ns);
                return Ticket(slot);
            }
        };
        let body = plan(bound);
        let slot2 = Arc::clone(&slot);
        let gate_ws = inner.gate_ws.clone();
        let gate_open = Arc::clone(&inner.gate_open);
        let fault = inner.worker_panic_stride;
        inner.machine.spawn(&format!("{packet}-q{qid}"), move |ctx| {
            let guard = CompletionGuard::new(Arc::clone(&slot2));
            if !gate_open.load(Ordering::Acquire) {
                gate_ws.wait_until(|| gate_open.load(Ordering::Acquire));
            }
            if fault.is_some_and(|s| s > 0 && qid.is_multiple_of(s)) {
                // Unwinding drops the body and with it the route's reader,
                // which detaches from its exchange (a CJOIN distributor
                // marks the consumer dead); the guard poisons the slot on
                // the way out.
                panic!("injected fault: query {qid}");
            }
            let result = body(ctx);
            let now = ctx.machine().now_ns();
            release_claims(claim, lease, permit);
            match result {
                Ok(rows) => slot2.complete(rows, now),
                Err(msg) => slot2.complete_error(format!("query {qid}: {msg}"), now),
            }
            guard.disarm();
        });
        Ticket(slot)
    }

    /// Run `q` on a named QPipe engine: the scan/select/join packets are
    /// QPipe's, with whatever sharing it is configured for; the producer is
    /// the query-centric aggregate/sort packet on top.
    fn submit_qpipe(
        &self,
        qpipe: &QpipeEngine,
        q: &StarQuery,
        claim: Option<InFlightClaim>,
        permit: Option<SlotPermit>,
    ) -> Ticket {
        let (order, cost) = (q.order_by.clone(), self.inner.cost);
        self.drive("agg", q, claim, None, permit, |bound| {
            let stream = qpipe.submit_stream(q, &bound);
            // An unrecoverable read under one of the query's scans is
            // checked after the stream drains (`QpipeStream::aggregate`).
            move |ctx: &SimCtx| stream.aggregate(ctx, &bound, &order, &cost)
        })
    }

    /// Run `q` on the CJOIN stage: the joins are shared; a query-centric
    /// aggregation packet sits on top (paper §3.2: "subsequent operators in
    /// a query plan, e.g. aggregations or sorts, are query-centric"); the
    /// stage takes the driver's `bound`, the query's one bind. A `lease`
    /// (governed path) is the query's unit of the sharded stage's in-flight
    /// count.
    fn submit_cjoin(
        &self,
        stage: &CjoinStage,
        q: &StarQuery,
        claim: Option<InFlightClaim>,
        lease: Option<StageLease>,
        permit: Option<SlotPermit>,
    ) -> Ticket {
        let (order, cost) = (q.order_by.clone(), self.inner.cost);
        self.drive("cj-agg", q, claim, lease, permit, |bound| {
            let output = stage.submit(q, Arc::clone(&bound));
            move |ctx: &SimCtx| {
                let rows = run_aggregate(ctx, output.reader, &bound, &order, &cost);
                // A fault recorded on the query's cell (admission failure,
                // unreadable fact page) is checked after the stream drains:
                // the reader sees a normal end-of-stream, the waiter a typed
                // error outcome instead of a silently partial result.
                output.fault.error().map_or(Ok(Arc::new(rows)), Err)
            }
        })
    }

    /// Run `q` on a private Volcano-style plan on its own vthread.
    fn submit_volcano(
        &self,
        q: &StarQuery,
        claim: Option<InFlightClaim>,
        permit: Option<SlotPermit>,
    ) -> Ticket {
        let (storage, cost, plan) = (self.inner.storage.clone(), self.inner.cost, q.clone());
        self.drive("volcano", q, claim, None, permit, |bound| {
            // An unrecoverable page read (permanent fault, torn page past
            // rebuild) ends the query in a typed error outcome instead of a
            // vthread panic.
            move |ctx: &SimCtx| match try_run_volcano_query(ctx, &storage, &plan, &bound, &cost) {
                Ok(rows) => Ok(Arc::new(rows)),
                Err(e) => Err(e.to_string()),
            }
        })
    }

    /// Sharing statistics of a named QPipe engine (`None` for every other
    /// engine, the governed one included).
    pub fn qpipe_sharing(&self) -> Option<workshare_qpipe::SharingStats> {
        match &self.inner.kind {
            EngineKind::Qpipe(e) => Some(e.sharing_stats()),
            _ => None,
        }
    }

    /// CJOIN stage statistics, if applicable. For a governed engine this is
    /// the aggregate over every sharded stage (see [`Engine::stage_rows`]
    /// for the per-fact breakdown).
    pub fn cjoin_stats(&self) -> Option<workshare_cjoin::CjoinStats> {
        match &self.inner.kind {
            EngineKind::Cjoin(s) => Some(s.stats()),
            EngineKind::Governed(g) => Some(g.registry.total_stats()),
            _ => None,
        }
    }

    /// Per-fact-table stage rows of the governed engine's shared side
    /// (empty for ungoverned engines, and for governed runs that never
    /// routed a query to a stage).
    pub fn stage_rows(&self) -> Vec<StageRow> {
        match &self.inner.kind {
            EngineKind::Governed(g) => g.registry.rows(),
            _ => Vec::new(),
        }
    }

    /// Counters of the engine-level cross-stage admission fabric, if this
    /// engine runs one ([`RunConfig::admission_fabric`]). `None` for
    /// ungoverned engines and when the per-stage pools serve admission.
    pub fn fabric_stats(&self) -> Option<FabricStats> {
        match &self.inner.kind {
            EngineKind::Governed(g) => g.registry.fabric.as_ref().map(|f| f.stats()),
            _ => None,
        }
    }

    /// Fault-injection and self-healing accounting across every layer of
    /// this engine: storage retry/quarantine counters, the admission
    /// ladder's counters and current rung, and stage quarantine/rebuilds.
    /// All-zero ([`HealthStats::is_quiet`]) for runs with the default
    /// (off) fault plan.
    pub fn health_stats(&self) -> HealthStats {
        let storage = self.inner.storage.fault_stats();
        match &self.inner.kind {
            EngineKind::Governed(g) => HealthStats {
                storage,
                admission: g
                    .registry
                    .health
                    .as_ref()
                    .map(|h| h.snapshot())
                    .unwrap_or_default(),
                stage_rebuilds: g.registry.stage_rebuilds.load(Ordering::Relaxed),
            },
            _ => HealthStats {
                storage,
                ..HealthStats::default()
            },
        }
    }

    /// Routing statistics of the governed engine, if applicable.
    pub fn governor_stats(&self) -> Option<GovernorStats> {
        match &self.inner.kind {
            EngineKind::Governed(g) => Some(g.governor.stats()),
            _ => None,
        }
    }

    /// Stop background services (shared scanners, CJOIN pipeline).
    pub fn shutdown(&self) {
        match &self.inner.kind {
            EngineKind::Qpipe(e) => e.shutdown(),
            EngineKind::Cjoin(s) => s.shutdown(),
            EngineKind::Volcano => {}
            EngineKind::Governed(g) => g.registry.shutdown_all(),
        }
    }
}
