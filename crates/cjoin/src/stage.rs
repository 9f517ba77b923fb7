//! The CJOIN stage: preprocessor, shared filters, distributor parts.

// Concurrent-core primitives come through the swappable sync layer so the
// `--cfg interleave` build model-checks this module's protocols (see
// `workshare_common::sync` and docs/TESTING.md).
use workshare_common::sync::{Arc, AtomicBool, AtomicU64, Mutex, Ordering};

use workshare_common::bind::BoundQuery;
use workshare_common::cell::CompletionCell;
use workshare_common::fxhash::FxHashMap;
use workshare_common::codec::Page;
use workshare_common::{CostModel, FaultPlan, Predicate, QueryBitmap, RouteColumns, StarQuery};

use crate::admission::{admit_batch_serial, admit_batch_shared};
use crate::fabric::AdmissionFabric;
use crate::health::{AdmissionHealth, LadderRung};
use crate::window::ShardedSlot;
use crate::wrap::WrapLedger;
use crate::filter::{filter_page_survivors, probe_order, FilterCore, FilterScratch, Survivors};
use workshare_qpipe::batch::BatchBuilder;
use workshare_qpipe::exchange::{Exchange, ExchangeKind, ExchangeReader};
use workshare_sim::{CostKind, Machine, SimCtx, SimQueue, WaitSet};
use workshare_storage::{StorageManager, TableId};

/// CJOIN stage configuration.
#[derive(Debug, Clone, Copy)]
pub struct CjoinConfig {
    /// Exchange kind for per-packet output streams.
    pub exchange: ExchangeKind,
    /// Output exchange capacity in pages.
    pub cap_pages: usize,
    /// Enable SP over identical CJOIN packets (`CJOIN-SP`).
    pub sp: bool,
    /// Use the retained **per-query serial** admission path (the paper's
    /// §3.2 behavior: the preprocessor pauses the pipeline and scans every
    /// dimension table once per pending query) instead of the shared-scan,
    /// pipeline-overlapped path. The serial path is the behavioral oracle:
    /// property tests assert both produce identical rows and stats, and the
    /// `figures` predicate `fig12.shared_scan_admission_at_least_2x_cheaper`
    /// measures the speedup against it. Defaults to `false` (shared scans).
    pub serial_admission: bool,
    /// The seeded fault plan; the stage fires its admission scan sites
    /// (stalls, panics). Default: fully off — every fault path compiles to
    /// the legacy behavior.
    pub faults: FaultPlan,
}

impl Default for CjoinConfig {
    fn default() -> Self {
        CjoinConfig {
            exchange: ExchangeKind::Spl,
            cap_pages: 8,
            sp: false,
            serial_admission: false,
            faults: FaultPlan::default(),
        }
    }
}

/// Live signals the sharing governor reads from a running stage
/// ([`CjoinStage::runtime_stats`]): the observed workload shape that
/// parameterizes the cost model's two route-latency estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct CjoinRuntimeStats {
    /// Queries currently active in the GQP.
    pub active_queries: usize,
    /// Observed average key-run length in filtered fact pages (tuples
    /// probed per actual hash probe), as an EWMA over batches so a
    /// workload shift re-converges quickly. 1.0 until the pipeline has
    /// filtered its first page; rises with clustered or skewed foreign keys.
    pub avg_key_run: f64,
    /// Observed admission-scan predicate selectivity (dimension rows
    /// selected / scanned, from `Predicate::eval_batch*` hit counts),
    /// aggregated over dimensions (mean of the per-dimension EWMAs in
    /// [`dim_selectivity_by_dim`](CjoinRuntimeStats::dim_selectivity_by_dim)).
    /// `None` until the first admission scan.
    pub dim_selectivity: Option<f64>,
    /// Per-dimension admission-selectivity EWMAs, sorted by table id
    /// (deterministic). This is what lets the governor see *which*
    /// dimension is cheap to share: the engine averages the entries
    /// matching a candidate query's own dimension joins instead of using
    /// one engine-wide blend — the first step toward the skew-aware
    /// per-query thresholds of ROADMAP item 3(c).
    pub dim_selectivity_by_dim: Vec<(TableId, f64)>,
}

/// Virtual nanoseconds an admission worker (per-stage pool or engine-level
/// fabric) waits after picking up a batch before merging in every other
/// pending admission: a burst of submissions arriving at one virtual
/// instant always shares one scan pass.
pub(crate) const ADMISSION_BATCH_WINDOW_NS: f64 = 2_000.0;

/// Filter worker threads (the paper's *horizontal* configuration). The
/// sharing governor reads it as the shared route's pipeline parallelism.
pub const N_FILTER_WORKERS: usize = 6;

/// Distributor parts (§3.2: the single-threaded distributor is a
/// bottleneck; parts parallelize routing).
const N_DISTRIBUTORS: usize = 10;

/// Pipeline queue depth (batches in flight between stages).
const PIPELINE_DEPTH: usize = 16;

/// An EWMA statistic in one atomic word: the `f64`'s bits, NaN until the
/// first sample. Every filter worker folds into it once per page, so it is
/// a CAS loop, not a lock. It is a statistic, not a model-checked protocol,
/// so it takes `std`'s atomic rather than `workshare_common::sync`'s.
struct EwmaCell(std::sync::atomic::AtomicU64);

impl EwmaCell {
    fn new() -> EwmaCell {
        EwmaCell(std::sync::atomic::AtomicU64::new(f64::NAN.to_bits()))
    }

    /// Fold `sample` in with smoothing factor `alpha`.
    fn fold(&self, sample: f64, alpha: f64) {
        use std::sync::atomic::Ordering::Relaxed;
        let fold = |bits| {
            let prev = f64::from_bits(bits);
            let next = if prev.is_nan() {
                sample
            } else {
                (1.0 - alpha) * prev + alpha * sample
            };
            Some(next.to_bits())
        };
        let _ = self.0.fetch_update(Relaxed, Relaxed, fold);
    }

    /// The current average, `None` before the first sample.
    fn get(&self) -> Option<f64> {
        use std::sync::atomic::Ordering::Relaxed;
        Some(f64::from_bits(self.0.load(Relaxed))).filter(|v| !v.is_nan())
    }
}

/// Sharing/admission statistics of the stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CjoinStats {
    /// Queries admitted into the GQP.
    pub admitted: u64,
    /// Admission batches performed (pipeline pauses).
    pub admission_batches: u64,
    /// CJOIN packets shared via SP (satellites that skipped admission).
    pub sp_shares: u64,
    /// Dimension tuples **evaluated** during admissions, counted once per
    /// pending query per row (the logical per-query scan volume). This is
    /// independent of how queries batch: the serial path physically scans
    /// this many rows, the shared-scan path evaluates the same volume over
    /// far fewer physical reads (see
    /// [`admission_dim_pages`](CjoinStats::admission_dim_pages)).
    pub admission_dim_rows: u64,
    /// Physical dimension pages read by **this stage's own** admission
    /// scans. Under shared-scan admission each distinct dimension table is
    /// scanned **once per admission batch** regardless of how many pending
    /// queries reference it; the serial oracle path re-reads it once per
    /// query. Under an engine-level [`AdmissionFabric`] this stays 0: a
    /// page read once *for several stages* is attributed to the fabric
    /// ([`crate::FabricStats::admission_dim_pages`]), never double-counted
    /// per stage.
    pub admission_dim_pages: u64,
}

impl CjoinStats {
    /// Fold another stage's counters into this one. Used by the sharded
    /// multi-fact engine to total its per-fact stages.
    pub fn absorb(&mut self, other: &CjoinStats) {
        self.admitted += other.admitted;
        self.admission_batches += other.admission_batches;
        self.sp_shares += other.sp_shares;
        self.admission_dim_rows += other.admission_dim_rows;
        self.admission_dim_pages += other.admission_dim_pages;
    }
}

/// Output of submitting a star query to the stage: a reader over joined rows
/// in the query's bound layout (`[fks… | fact payload… | dim payloads…]`).
pub struct CjoinOutput {
    /// Stream of joined tuples for this query.
    pub reader: ExchangeReader,
    /// The query's fault cell: completed with a typed error (first writer
    /// wins) when a storage or admission fault fails the query, and never
    /// completed otherwise. The same `Arc` is on the in-flight `Admission`
    /// and the activated `QueryRuntime`, so whichever layer hits the fault,
    /// the submitter sees it. The reader still drains normally (possibly
    /// empty) — read [`CompletionCell::error`] after exhaustion.
    pub fault: Arc<CompletionCell<()>>,
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

pub(crate) struct QueryRuntime {
    slot: u32,
    qid: u64,
    sig: u64,
    bound: Arc<BoundQuery>,
    fact_pred: Predicate,
    /// `(filter index, dim-schema payload column indices)` per query dim.
    dim_filters: Vec<(usize, Vec<usize>)>,
    /// The query's way out of the stage: joined pages on its own exchange
    /// (the paper's design — the operators above CJOIN are query-centric),
    /// batched by `builder` across fact pages and distributor parts.
    out: Exchange,
    builder: Mutex<BatchBuilder>,
    /// Fact pages still to be processed by the distributor before this
    /// query completes (initialized to one full wrap).
    process_left: AtomicU64,
    /// Shared with the submission handle; set when a fault fails the query.
    fault: Arc<CompletionCell<()>>,
}

/// Slot capacity of a stage's [`WrapLedger`]. Slots are recycled on query
/// completion, so this bounds *concurrently resident* queries (active or
/// mid-admission), not lifetime admissions; [`GqpState::alloc_slot`]
/// asserts it.
/// Sized for the worst observed crowd — the `overload` figure's unbounded
/// engine holds several thousand queries in flight at 4× capacity —
/// with generous headroom. Cost is memory only (512 KiB of budget words
/// per stage): every per-page walk is bounded by the ledger's live
/// high-water mark, not this capacity.
const WRAP_SLOT_CAPACITY: usize = 65_536;

/// The GQP's shared state, one value mutated in place: the filters the
/// filter workers probe and the order they probe them in, the runtimes the
/// distributor routes to, and the admission bookkeeping (slots, filter
/// index). It lives behind [`StageInner`]'s state mutex and is reached only
/// through [`StageInner::mutate_state`] and [`StageInner::read_state`].
///
/// Every writer is a vthread of the stage's machine, and a machine runs its
/// vthreads one at a time on one carrier, so no page is ever read while a
/// writer is half done: a filter worker or distributor part reads the state
/// as it stands when it pops its page. The mutex is uncontended inside the
/// machine; it orders the few readers outside it (stats, tests) against the
/// carrier.
///
/// The active-query mask and per-slot wrap budgets deliberately live
/// *outside* it, in the stage's [`WrapLedger`]: the preprocessor updates
/// them once per fact page.
#[derive(Default)]
pub(crate) struct GqpState {
    pub(crate) filters: Vec<Arc<FilterCore>>,
    /// The order the filter workers probe `filters` in ([`probe_order`]),
    /// recomputed after every mutation.
    pub(crate) probe_order: Vec<usize>,
    pub(crate) queries: FxHashMap<u32, Arc<QueryRuntime>>,
    /// `(dim, fact_fk_idx, dim_pk_idx)` → index into `filters`: O(1)
    /// shared-filter lookup during admission. Filters are append-only
    /// while any query references one, so the indices a query holds are
    /// stable for its whole life; [`GqpState::release_slot`] empties both
    /// when the last reference goes.
    pub(crate) filter_index: FxHashMap<(TableId, usize, usize), usize>,
    pub(crate) free_slots: Vec<u32>,
    pub(crate) next_slot: u32,
}

impl GqpState {
    /// Filter `fi`, to edit in place. The kernels borrow the filter list and
    /// nothing else holds a core, so a second reference is a bug, never a
    /// copy to make.
    pub(crate) fn filter_mut(&mut self, fi: usize) -> &mut FilterCore {
        Arc::get_mut(&mut self.filters[fi]).expect("a filter core is shared outside the stage")
    }

    /// Allocate a query slot (recycling freed slots first). Slots index the
    /// stage's fixed-capacity [`WrapLedger`]; the assertion replaces the
    /// seed's unbounded `active_bits.grow`.
    pub(crate) fn alloc_slot(&mut self, wrap: &WrapLedger) -> u32 {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            let sl = self.next_slot;
            self.next_slot += 1;
            sl
        });
        assert!(
            (slot as usize) < wrap.capacity(),
            "slot {slot} exceeds the wrap ledger capacity {} — raise WRAP_SLOT_CAPACITY",
            wrap.capacity()
        );
        slot
    }

    /// Locate or create the shared filter for `(dim, fk, pk)` through the
    /// keyed filter index — O(1) instead of the former linear scan over
    /// `filters`.
    pub(crate) fn locate_filter(
        &mut self,
        dim: TableId,
        fact_fk_idx: usize,
        dim_pk_idx: usize,
    ) -> usize {
        if let Some(&fi) = self.filter_index.get(&(dim, fact_fk_idx, dim_pk_idx)) {
            return fi;
        }
        self.filters.push(Arc::new(FilterCore {
            dim,
            fact_fk_idx,
            dim_pk_idx,
            hash: FxHashMap::default(),
            referencing: QueryBitmap::zeros(64),
        }));
        let fi = self.filters.len() - 1;
        self.filter_index.insert((dim, fact_fk_idx, dim_pk_idx), fi);
        fi
    }

    /// Remove a never-activated (or failed) slot from the GQP: clear its bit
    /// from every filter's `referencing` set and entry bitmaps (dropping
    /// entries that go empty) and release the slot for reuse. Shared by
    /// `finalize_query`'s cleanup and the admission failure paths' rollback.
    /// A filter the slot was the only reference of swaps its table for an
    /// empty one instead of walking it ([`FilterCore::release`]).
    ///
    /// A stage nobody references is a fresh stage: when that was the last
    /// reference to the last referenced filter, the filter list and its
    /// index are emptied in the same mutation. The vectorized kernel does
    /// not visit a filter no page member references, but the scalar oracle
    /// probes it and the probe order sorts it, so a long-lived stage would
    /// otherwise carry each dimension any earlier query joined. Nothing can
    /// hold an index across the reset — admission locates a filter and sets
    /// its `referencing` bit inside one [`StageInner::mutate_state`].
    pub(crate) fn release_slot(&mut self, slot: u32) {
        for fi in 0..self.filters.len() {
            self.filter_mut(fi).release(slot as usize);
        }
        if !self.filters.iter().any(|f| f.referencing.any()) {
            self.filters.clear();
            self.filter_index.clear();
        }
        self.free_slots.push(slot);
    }
}

pub(crate) struct Admission {
    pub(crate) query: StarQuery,
    pub(crate) bound: Arc<BoundQuery>,
    /// The per-query exchange the query's tail reads — also what an SP
    /// satellite of the query attaches to.
    pub(crate) out: Exchange,
    pub(crate) sig: u64,
    pub(crate) fault: Arc<CompletionCell<()>>,
}

impl Admission {
    /// Surface a typed admission failure on this query: record the error on
    /// the shared fault cell, drop the SP-registry host entry (so later
    /// identical queries admit fresh instead of attaching to a dead host),
    /// and wake the readers with a closed, empty stream. Never a hang,
    /// never an abort.
    pub(crate) fn fail(&self, inner: &StageInner, msg: &str) {
        self.fault.complete_error(msg);
        inner.retire_host(self.sig, self.query.id);
        self.out.close();
    }
}

/// One fact page stamped with the active query set, flowing from the
/// preprocessor to a filter worker: the circular-scan thread only reads and
/// stamps pages; the (parallel) worker tier reads the tuples, so the scan
/// thread never touches one. The membership bitmap is shared by `Arc`: the
/// preprocessor snapshots `active_bits` once per page and every downstream
/// stage reads the same copy.
struct WorkBatch {
    page: Page,
    members: Arc<QueryBitmap>,
}

/// A filtered page flowing to the distributor: the fact page itself (an
/// `Arc` of its bytes, never decoded into rows) plus the survivor indices
/// and bitmap bank the filter kernel produced — no dimension row. A
/// survivor's foreign keys on the page are its pointers to the dimension
/// tuples it joins (§2.4): the distributor reads the page in place, looks a
/// payload row up only for a joined output tuple it builds, and builds a
/// `Row` only for that tuple.
struct DistBatch {
    fact: Page,
    members: Arc<QueryBitmap>,
    page: Survivors,
}

/// An SP host: its query id, its exchange, and its fault cell — satellites
/// that attach to the exchange share the host's error outcome too.
type SpHost = (u64, Exchange, Arc<CompletionCell<()>>);

pub(crate) struct StageInner {
    pub(crate) machine: Machine,
    pub(crate) storage: StorageManager,
    pub(crate) cost: CostModel,
    pub(crate) config: CjoinConfig,
    pub(crate) fact: TableId,
    pub(crate) fact_pages: u64,
    /// The GQP's filters, runtimes and slots ([`GqpState`]). Private: a
    /// guard never leaves [`StageInner::mutate_state`] and
    /// [`StageInner::read_state`], because a vthread that parked holding it
    /// would stop its whole machine.
    state: Mutex<GqpState>,
    /// Lock-free active mask + per-slot wrap budgets ([`crate::wrap`]): the
    /// circular scan's per-page bookkeeping, formerly a `state.write()` on
    /// every fact page.
    pub(crate) wrap: WrapLedger,
    /// Pending admissions awaiting the next batch window, sharded so
    /// concurrent submitters don't serialize on one mutex. The atomic
    /// per-shard drain protocol lives in [`ShardedSlot`] (model-checked by
    /// `tests/interleave_core.rs`): a submission either rides the window
    /// that drained it or stays for the next — never lost, never doubled.
    pub(crate) pending: ShardedSlot<Admission>,
    pub(crate) wake: WaitSet,
    worker_q: SimQueue<Arc<WorkBatch>>,
    dist_q: SimQueue<Arc<DistBatch>>,
    /// Admission batches handed off by the preprocessor to the stage's own
    /// admission workers (per-stage shared-scan path): the preprocessor
    /// only snapshots the pending set; the scans run here, overlapping
    /// fact-page production. Unused when an engine-level `fabric` serves
    /// the stage.
    admission_q: SimQueue<Vec<Admission>>,
    /// Engine-level cross-stage admission pool, when the stage was built by
    /// a governed engine's registry ([`CjoinStage::with_admission`]); `None`
    /// for standalone stages, which fall back to their own worker.
    fabric: Option<AdmissionFabric>,
    /// Shared admission-health state, installed by a governed engine with
    /// an armed fault plan ([`CjoinStage::with_admission`]): injected scan
    /// faults and failed batches are counted on it. Under a self-healing
    /// plan ([`StageInner::ladder`]) the preprocessor also routes pending
    /// batches by the live degradation-ladder rung instead of the static
    /// config; otherwise the stage routes exactly as before the fault
    /// substrate existed.
    pub(crate) health: Option<Arc<AdmissionHealth>>,
    /// Injection tick counter for this stage's scan-unit fault sites
    /// (advances only while a fault plan is armed).
    scan_ticks: AtomicU64,
    /// Cooperative stop flag. Written once with Release
    /// ([`CjoinStage::shutdown`]) and read with Acquire at the top of every
    /// pipeline-thread loop: a thread that observes the flag also observes
    /// every write the shutting-down thread made before raising it. The
    /// flag alone is not a wakeup — `shutdown` also notifies `wake` and
    /// closes the queues so parked threads re-check it.
    shutdown: AtomicBool,
    /// SP hosts by CJOIN signature.
    sp_registry: Mutex<FxHashMap<u64, SpHost>>,
    pub(crate) admitted: AtomicU64,
    pub(crate) admission_batches: AtomicU64,
    sp_shares: AtomicU64,
    pub(crate) admission_dim_rows: AtomicU64,
    pub(crate) admission_dim_pages: AtomicU64,
    /// Governor signals, EWMA-smoothed per observation (admission scan /
    /// filtered batch) so they track workload shifts. The admission
    /// selectivity is kept **per dimension table** so the governor can see
    /// which dimension is cheap to share.
    pub(crate) dim_sel_ewma: Mutex<FxHashMap<TableId, f64>>,
    key_run_ewma: EwmaCell,
}

impl StageInner {
    /// The degradation ladder the preprocessor routes by: the health handle
    /// under a self-healing plan, `None` otherwise (a handle that only
    /// counts faults moves no batch).
    fn ladder(&self) -> Option<&AdmissionHealth> {
        self.health.as_deref().filter(|_| self.config.faults.heals())
    }

    /// Draw the next injection tick for this stage's scan-unit fault sites.
    pub(crate) fn scan_tick(&self) -> u64 {
        self.scan_ticks.fetch_add(1, Ordering::Relaxed)
    }

    /// Drop query `qid`'s SP-registry entry if it is still the host for
    /// `sig`: a finished or failed host takes no more satellites, later
    /// identical queries admit fresh.
    fn retire_host(&self, sig: u64, qid: u64) {
        if self.config.sp {
            let mut reg = self.sp_registry.lock();
            if reg.get(&sig).is_some_and(|(host, ..)| *host == qid) {
                reg.remove(&sig);
            }
        }
    }

    /// Mutate the GQP state in place: run `f` over it under the state lock,
    /// then recompute the probe order into its existing `Vec`.
    ///
    /// Only a vthread of the stage's machine may mutate (checked in debug
    /// builds): the machine runs its vthreads one at a time, so no filter
    /// worker or distributor part can be reading a page while `f` runs, and
    /// every page reads the state as it stood when the page was popped.
    ///
    /// **No virtual-time operation (charge/sleep/emit) may happen inside
    /// `f`**: a vthread that parks holding the lock deadlocks its machine's
    /// carrier the moment any other vthread reads the state.
    pub(crate) fn mutate_state<R>(&self, f: impl FnOnce(&mut GqpState) -> R) -> R {
        debug_assert!(
            self.machine.is_current(),
            "the GQP state is mutated only by a vthread of the stage's machine"
        );
        let mut state = self.state.lock();
        let r = f(&mut state);
        let GqpState {
            filters,
            probe_order: order,
            ..
        } = &mut *state;
        probe_order(filters, order);
        r
    }

    /// Read the GQP state: run `f` over it under the state lock. The same
    /// rule as [`StageInner::mutate_state`]: `f` must not park.
    pub(crate) fn read_state<R>(&self, f: impl FnOnce(&GqpState) -> R) -> R {
        f(&self.state.lock())
    }
}

/// The CJOIN stage. Cheap to clone.
#[derive(Clone)]
pub struct CjoinStage {
    pub(crate) inner: Arc<StageInner>,
}

impl CjoinStage {
    /// Create a **standalone** stage over `fact_table` and spawn its
    /// pipeline threads. Admission runs on the stage's own fallback worker;
    /// engines that batch admission across stages use
    /// [`CjoinStage::with_admission`] instead.
    pub fn new(
        machine: &Machine,
        storage: &StorageManager,
        fact_table: &str,
        config: CjoinConfig,
        cost: CostModel,
    ) -> CjoinStage {
        Self::with_admission(machine, storage, fact_table, config, cost, None, None)
    }

    /// Create the stage with full admission plumbing: an optional fabric
    /// (the governed engine's cross-stage admission pool, which takes the
    /// stage's pending admissions instead of a per-stage worker) plus an
    /// optional shared [`AdmissionHealth`] handle, which counts the stage's
    /// admission faults. Under a self-healing fault plan the preprocessor
    /// also routes pending batches by the handle's live degradation-ladder
    /// rung (fabric → pool → serial) and the stage spawns its own admission
    /// worker even when fabric-served, so the pool rung has somewhere to
    /// land. With neither this is exactly [`CjoinStage::new`].
    pub fn with_admission(
        machine: &Machine,
        storage: &StorageManager,
        fact_table: &str,
        config: CjoinConfig,
        cost: CostModel,
        fabric: Option<AdmissionFabric>,
        health: Option<Arc<AdmissionHealth>>,
    ) -> CjoinStage {
        let fact = storage.table(fact_table);
        let inner = Arc::new(StageInner {
            machine: machine.clone(),
            storage: storage.clone(),
            cost,
            config,
            fact,
            fact_pages: storage.page_count(fact) as u64,
            state: Mutex::new(GqpState::default()),
            wrap: WrapLedger::new(WRAP_SLOT_CAPACITY),
            pending: ShardedSlot::new(4),
            wake: WaitSet::new(machine),
            worker_q: SimQueue::bounded(machine, PIPELINE_DEPTH),
            dist_q: SimQueue::bounded(machine, PIPELINE_DEPTH),
            admission_q: SimQueue::unbounded(machine),
            fabric,
            health,
            scan_ticks: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            sp_registry: Mutex::new(FxHashMap::default()),
            admitted: AtomicU64::new(0),
            admission_batches: AtomicU64::new(0),
            sp_shares: AtomicU64::new(0),
            admission_dim_rows: AtomicU64::new(0),
            admission_dim_pages: AtomicU64::new(0),
            dim_sel_ewma: Mutex::new(FxHashMap::default()),
            key_run_ewma: EwmaCell::new(),
        });
        let stage = CjoinStage { inner };
        stage.spawn_preprocessor();
        for w in 0..N_FILTER_WORKERS {
            stage.spawn_worker(w);
        }
        for d in 0..N_DISTRIBUTORS {
            stage.spawn_distributor(d);
        }
        // The serial path admits inline on the preprocessor; a
        // fabric-served stage hands batches to the engine-level pool. Only
        // a standalone shared-scan stage needs its own worker — unless the
        // plan self-heals, in which case the degradation ladder may demote
        // a fabric-served stage to its own pool at runtime, so the worker
        // must exist.
        if !stage.inner.config.serial_admission
            && (stage.inner.fabric.is_none() || stage.inner.ladder().is_some())
        {
            stage.spawn_admission_worker();
        }
        stage
    }

    /// Submit the join part of a star query, bound by the caller (the
    /// engine's driver binds once per query); returns a reader over joined
    /// tuples. With SP enabled, a query identical to an in-flight CJOIN
    /// packet whose output has not started attaches to the host's exchange
    /// (step WoP) and skips admission; the satellite shares the host's
    /// fault cell: if the host's admission fails, every attached reader
    /// sees the same typed error. Otherwise the query is registered as a
    /// host and queued for the next admission batch.
    pub fn submit(&self, q: &StarQuery, bound: Arc<BoundQuery>) -> CjoinOutput {
        let inner = &self.inner;
        assert_eq!(
            inner.storage.table(&q.fact),
            inner.fact,
            "CJOIN stage is bound to one fact table"
        );
        let sig = q.cjoin_signature();
        if inner.config.sp {
            let registry = inner.sp_registry.lock();
            if let Some((_, host, fault)) = registry.get(&sig) {
                if host.emitted() == 0 && !host.is_closed() {
                    inner.sp_shares.fetch_add(1, Ordering::Relaxed);
                    return CjoinOutput {
                        reader: host.attach(None),
                        fault: Arc::clone(fault),
                    };
                }
            }
        }
        let out = Exchange::new(
            inner.config.exchange,
            &inner.machine,
            inner.cost,
            inner.config.cap_pages,
        );
        let fault = Arc::new(CompletionCell::new());
        // The submitter's own reader is attached before the query can be
        // admitted, so it misses nothing the exchange will carry.
        let reader = out.attach(None);
        if inner.config.sp {
            // Register the host at submit time so that identical queries in
            // the same submission batch can attach before admission runs.
            inner
                .sp_registry
                .lock()
                .insert(sig, (q.id, out.clone(), Arc::clone(&fault)));
        }
        inner.pending.push(Admission {
            query: q.clone(),
            bound,
            out,
            sig,
            fault: Arc::clone(&fault),
        });
        inner.wake.notify_all();
        CjoinOutput { reader, fault }
    }

    /// Stage statistics.
    pub fn stats(&self) -> CjoinStats {
        CjoinStats {
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            admission_batches: self.inner.admission_batches.load(Ordering::Relaxed),
            sp_shares: self.inner.sp_shares.load(Ordering::Relaxed),
            admission_dim_rows: self.inner.admission_dim_rows.load(Ordering::Relaxed),
            admission_dim_pages: self.inner.admission_dim_pages.load(Ordering::Relaxed),
        }
    }

    /// Number of queries currently in the GQP.
    pub fn active_queries(&self) -> usize {
        self.inner.read_state(|s| s.queries.len())
    }

    /// Live workload-shape signals for the sharing governor.
    pub fn runtime_stats(&self) -> CjoinRuntimeStats {
        let dim_selectivity_by_dim: Vec<(TableId, f64)> = {
            let map = self.inner.dim_sel_ewma.lock();
            let mut v: Vec<(TableId, f64)> = map.iter().map(|(t, s)| (*t, *s)).collect();
            v.sort_by_key(|(t, _)| t.0);
            v
        };
        let dim_selectivity = if dim_selectivity_by_dim.is_empty() {
            None
        } else {
            Some(
                dim_selectivity_by_dim.iter().map(|(_, s)| s).sum::<f64>()
                    / dim_selectivity_by_dim.len() as f64,
            )
        };
        CjoinRuntimeStats {
            active_queries: self.active_queries(),
            avg_key_run: self.inner.key_run_ewma.get().unwrap_or(1.0),
            dim_selectivity,
            dim_selectivity_by_dim,
        }
    }

    /// Stop the pipeline threads.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake.notify_all();
        self.inner.worker_q.close();
        self.inner.dist_q.close();
        self.inner.admission_q.close();
    }

    // -----------------------------------------------------------------
    // Preprocessor
    // -----------------------------------------------------------------

    fn spawn_preprocessor(&self) {
        let inner = Arc::clone(&self.inner);
        self.inner.machine.clone().spawn("cjoin-preproc", move |ctx| {
            let stream = inner.storage.new_stream();
            let npages = inner.fact_pages.max(1) as usize;
            let mut pos = 0usize;
            // Reused page stamp: refreshed by `snapshot_cached` only when
            // the active mask moved (admission/completion), so the
            // steady-state per-page cost is a few mask-word loads, not a
            // bitmap allocation.
            let mut stamp: Arc<QueryBitmap> = Arc::new(QueryBitmap::default());
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    inner.worker_q.close();
                    return;
                }
                // Batched admission at page boundaries. The retained serial
                // oracle path admits inline, pausing the pipeline (the
                // seed's §3.2 behavior); the shared-scan paths only
                // snapshot the pending set here and hand it to the
                // engine-level admission fabric (when the stage was built
                // with one) or the stage's own admission workers, so the
                // dimension scans overlap fact-page production instead of
                // stalling the GQP.
                let pending = inner.pending.drain();
                if !pending.is_empty() {
                    // Under a self-healing plan the live degradation ladder
                    // picks the admission path; otherwise the static
                    // config does (legacy behavior, bit-for-bit). The
                    // serial config always means serial — it is the
                    // behavioral oracle and sits below the ladder.
                    let rung = match (inner.ladder(), inner.config.serial_admission) {
                        (_, true) => LadderRung::Serial,
                        (Some(h), false) => {
                            let r = h.rung();
                            if r == LadderRung::Fabric && inner.fabric.is_none() {
                                LadderRung::Pool
                            } else {
                                r
                            }
                        }
                        (None, false) if inner.fabric.is_some() => LadderRung::Fabric,
                        (None, false) => LadderRung::Pool,
                    };
                    match rung {
                        LadderRung::Serial => admit_batch_serial(&inner, ctx, pending),
                        LadderRung::Fabric => {
                            let fabric = inner.fabric.as_ref().expect("rung checked");
                            let stage = CjoinStage {
                                inner: Arc::clone(&inner),
                            };
                            if !fabric.submit(stage, pending) {
                                return; // fabric (engine) shut down
                            }
                        }
                        LadderRung::Pool => {
                            if inner.admission_q.push(pending).is_err() {
                                return; // shut down
                            }
                        }
                    }
                }
                let has_active = inner.wrap.any();
                if !has_active {
                    // Park until a query arrives, an off-thread admission
                    // batch activates, or shutdown.
                    inner.wake.wait_until(|| {
                        inner.shutdown.load(Ordering::Acquire)
                            || !inner.pending.is_empty()
                            || inner.wrap.any()
                    });
                    continue;
                }
                // Produce one fact page. Only the fetch/pin cost lands on
                // the circular-scan thread — every tuple read happens in
                // the parallel filter workers and distributor parts, so
                // the scan thread never becomes the bottleneck of a
                // crowded stage.
                let page = match inner.storage.try_read_page(ctx, inner.fact, pos, stream) {
                    Ok(page) => page,
                    Err(e) => {
                        // Unrecoverable fact-page fault: the page cannot be
                        // served this lap. Mark every member query with the
                        // typed error and advance the wrap/process
                        // bookkeeping as if the page had flowed through, so
                        // each in-flight query still completes — with an
                        // error outcome — instead of hanging the scan.
                        fail_fact_page(&inner, ctx, &e.to_string());
                        pos = (pos + 1) % npages;
                        continue;
                    }
                };
                // One snapshot of the active-query set per page, shared by
                // `Arc` with every downstream stage (workers and the
                // distributor read the same copy; nothing re-clones it).
                // `Acquire` per mask word: a slot observed here has its
                // budget and filter entries visible (entries-then-activate).
                inner.wrap.snapshot_cached(&mut stamp);
                let members = Arc::clone(&stamp);
                // The page's fixed fetch cost, then the preprocessor
                // bookkeeping: stamping the page with the active-query set
                // and maintaining per-query entry/exit watermarks ("these
                // responsibilities slow down the circular scan
                // significantly", §5.2.2). One CPU job for both, which is
                // why the snapshot is taken before the fetch cost rather
                // than between the two: a query activating during those
                // `scan_page_fixed_ns` is stamped from the next page on.
                ctx.charge_many(&[
                    (CostKind::Scan, inner.cost.scan_page_fixed_ns),
                    (
                        CostKind::Routing,
                        2_000.0 + 60.0 * members.count_ones() as f64,
                    ),
                ]);
                let batch = Arc::new(WorkBatch {
                    page,
                    members: Arc::clone(&members),
                });
                if inner.worker_q.push(batch).is_err() {
                    return; // shut down
                }
                // Wrap bookkeeping: queries whose full wrap has been emitted
                // stop receiving pages. Lock-free — one checked atomic
                // decrement per member ([`WrapLedger::record_page`]); the
                // seed took `state.write()` here on *every* page even when
                // nothing completed.
                inner.wrap.record_page(&members);
                pos = (pos + 1) % npages;
            }
        });
    }

    // -----------------------------------------------------------------
    // Admission worker
    // -----------------------------------------------------------------

    /// The dedicated admission worker running the shared dimension scans
    /// off the circular-scan thread, so admission overlaps fact-page
    /// production instead of pausing the pipeline.
    ///
    /// This is the **per-stage fallback pool** — a pool of one: it serves
    /// stages built standalone via [`CjoinStage::new`] (direct stage users,
    /// the named engines the `figures` driver runs, ungoverned engines).
    /// Stages built by the governed engine's registry with an engine-level
    /// [`AdmissionFabric`] (`RunConfig::admission_fabric`, the default
    /// there) hand their pending batches to the fabric instead and spawn
    /// no worker of their own — the fabric batches admissions **across
    /// stages**, so shared dimension tables are scanned once for all of
    /// them.
    fn spawn_admission_worker(&self) {
        let inner = Arc::clone(&self.inner);
        self.inner
            .machine
            .clone()
            .spawn("cjoin-admit", move |ctx| {
                while let Some(mut batch) = inner.admission_q.pop() {
                    // Small virtual batching window, then merge every
                    // admission visible at that instant: batches that
                    // queued behind this one and submissions still sitting
                    // in `pending`. A burst submitted without intervening
                    // virtual time (the batch-harness pattern) lands in
                    // one batch deterministically, maximizing scan sharing;
                    // the window is negligible against the fixed admission
                    // charge.
                    ctx.sleep(ADMISSION_BATCH_WINDOW_NS);
                    while let Some(more) = inner.admission_q.try_pop() {
                        batch.extend(more);
                    }
                    batch.extend(inner.pending.drain());
                    admit_batch_shared(&inner, ctx, batch);
                    // The preprocessor may be parked waiting for an active
                    // query; the batch just activated.
                    inner.wake.notify_all();
                }
            });
    }

    // -----------------------------------------------------------------
    // Filter workers
    // -----------------------------------------------------------------

    fn spawn_worker(&self, idx: usize) {
        let inner = Arc::clone(&self.inner);
        self.inner
            .machine
            .clone()
            .spawn(&format!("cjoin-filter-{idx}"), move |ctx| {
                let schema = inner.storage.schema(inner.fact);
                // Reusable per-worker scratch: in steady state the
                // vectorized kernel performs zero heap allocations per
                // tuple (allocations grow to the high-water batch size and
                // stay).
                let mut scratch = FilterScratch::default();
                while let Some(batch) = inner.worker_q.pop() {
                    // Read the page in place, in the parallel tier (each page
                    // is popped by exactly one worker): the kernel reads one
                    // foreign key per tuple and filter straight from the
                    // page bytes, and no row is decoded.
                    let rows = batch.page.rows(&schema);
                    // The kernel runs on the state as it stands: every
                    // stamped slot was activated after its entries were
                    // merged (entries-then-activate), and a slot's entries
                    // stay until its last page is distributed.
                    let (page, counters) = inner.read_state(|s| {
                        filter_page_survivors(
                            &s.filters,
                            s.probe_order.iter().copied(),
                            &rows,
                            &batch.members,
                            &mut scratch,
                        )
                    });
                    // Observed skew signal for the governor: this batch's
                    // tuples probed per actual hash probe (key run),
                    // EWMA-folded so shifts in page clustering show up
                    // within a few batches.
                    if counters.key_runs > 0 {
                        let run_len = counters.probes as f64 / counters.key_runs as f64;
                        inner.key_run_ewma.fold(run_len, 0.1);
                    }
                    // The page's scan cost and the shared-operator
                    // bookkeeping costs (the §5.2.2 overhead), charged as one
                    // CPU job once the kernel has run and its counters are
                    // known: per key run + per bank word. V still charges
                    // `scan_tuple_ns` for every row of the page, however few
                    // columns the in-place reads touch.
                    ctx.charge_many(&[
                        (
                            CostKind::Scan,
                            inner.cost.scan_tuple_ns * batch.page.row_count() as f64,
                        ),
                        (
                            CostKind::Hashing,
                            inner.cost.filter_probe_run_ns * counters.key_runs as f64,
                        ),
                        (
                            CostKind::Join,
                            inner.cost.filter_batch_cost(0, counters.bitmap_words),
                        ),
                    ]);
                    let dist = DistBatch {
                        fact: batch.page.clone(),
                        members: Arc::clone(&batch.members),
                        page,
                    };
                    if inner.dist_q.push(Arc::new(dist)).is_err() {
                        return;
                    }
                }
                inner.dist_q.close();
            });
    }

    // -----------------------------------------------------------------
    // Distributor parts
    // -----------------------------------------------------------------

    fn spawn_distributor(&self, idx: usize) {
        let inner = Arc::clone(&self.inner);
        self.inner
            .machine
            .clone()
            .spawn(&format!("cjoin-dist-{idx}"), move |ctx| {
                // Reusable routing scratch: the member queries' slots and
                // their routing columns (over survivor positions).
                let mut slots = Vec::new();
                let mut routes = RouteColumns::new();
                let schema = inner.storage.schema(inner.fact);
                while let Some(batch) = inner.dist_q.pop() {
                    // The runtimes of the member queries; emitting parks, so
                    // they are collected before the state lock is let go.
                    let runtimes = member_runtimes(&inner, &batch.members);
                    let page = &batch.page;
                    let rows = batch.fact.rows(&schema);
                    let mut routed = 0u64;
                    let mut out_rows = 0u64;
                    // Routing columns: the survivors carrying each member
                    // query's bit, all filled in one pass over the bank.
                    slots.clear();
                    slots.extend(runtimes.iter().map(|qrt| qrt.slot as usize));
                    let cols = routes.route(&page.bank, &slots);
                    for (qrt, sel) in runtimes.iter().zip(cols.iter_mut()) {
                        let routed_q = sel.count() as u64;
                        routed += routed_q;
                        if routed_q == 0 {
                            continue;
                        }
                        // Fact predicates on CJOIN output (§3.2): narrow the
                        // routing column batch-at-a-time on the page in
                        // place — only rows this query actually routes are
                        // evaluated.
                        qrt.fact_pred.restrict_batch_gather(&rows, &page.selected, sel);
                        out_rows += sel.count() as u64;
                        // Joined pages are collected under the state guard
                        // (taken once per query and page) and the builder
                        // lock, and emitted once both are released. A
                        // payload row is looked up by the survivor's foreign
                        // key, read from the page in place, only for a row
                        // this query emits and a dimension whose payload it
                        // reads. The entry is still there: a surviving bit
                        // of this query at one of its filters means the
                        // entry carried that bit when the page was
                        // filtered, and the query's slot cannot be released
                        // — nor its bit cleared — while this page still
                        // counts in its `process_left`. Admission only adds
                        // entries and bits meanwhile.
                        let pages = inner.read_state(|s| {
                            let mut pages = Vec::new();
                            let mut builder = qrt.builder.lock();
                            for j in sel.iter_ones() {
                                let i = page.selected[j] as usize;
                                let mut joined = qrt.bound.project_fact_at(&rows, i);
                                for (fi, payload_idx) in &qrt.dim_filters {
                                    if payload_idx.is_empty() {
                                        continue;
                                    }
                                    let dim_row = s.filters[*fi]
                                        .match_of(&rows, i)
                                        .expect("a surviving bit's entry outlives its page");
                                    let payload = payload_idx.iter().map(|&ci| dim_row[ci].clone());
                                    joined.extend(payload);
                                }
                                if let Some(full) = builder.push(joined) {
                                    pages.push(full);
                                }
                            }
                            pages
                        });
                        for p in pages {
                            qrt.out.emit(ctx, p);
                        }
                    }
                    ctx.charge_many(&[
                        (
                            CostKind::Routing,
                            inner.cost.route_tuple_ns * routed as f64,
                        ),
                        (
                            CostKind::Join,
                            inner.cost.join_output_tuple_ns * out_rows as f64,
                        ),
                    ]);
                    // Completion bookkeeping: the part that processes a
                    // query's last page finalizes it. **Ordering
                    // invariant**: the decrement is `AcqRel` so the winner
                    // (the part that observes the count hit zero) acquires
                    // every other part's released writes — the rows they
                    // pushed and the pages they emitted before their own
                    // decrement — before `finalize_query` flushes the tail
                    // page and closes the exchange. `Relaxed` would let
                    // finalization close ahead of another part's page.
                    for qrt in &runtimes {
                        if qrt.process_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                            finalize_query(&inner, ctx, qrt);
                        }
                    }
                }
            });
    }
}

/// Activate one admitted query: insert its runtime into the GQP state
/// (distributor visibility), then raise its wrap-ledger bit (preprocessor
/// visibility). The insert is sequenced **before** the activation —
/// entries-then-activate: a scan that stamps the slot always finds its
/// runtime and filter entries.
pub(crate) fn activate_query(
    inner: &StageInner,
    adm: &Admission,
    slot: u32,
    dim_filters: Vec<(usize, Vec<usize>)>,
) {
    let qrt = Arc::new(QueryRuntime {
        slot,
        qid: adm.query.id,
        sig: adm.sig,
        bound: Arc::clone(&adm.bound),
        fact_pred: adm.query.fact_pred.clone(),
        dim_filters,
        out: adm.out.clone(),
        builder: Mutex::new(BatchBuilder::new()),
        process_left: AtomicU64::new(inner.fact_pages.max(1)),
        fault: Arc::clone(&adm.fault),
    });
    inner.mutate_state(|s| {
        s.queries.insert(slot, Arc::clone(&qrt));
    });
    inner.wrap.activate(slot as usize, inner.fact_pages.max(1));
}

/// The runtimes of the queries whose bits `members` carries.
fn member_runtimes(inner: &StageInner, members: &QueryBitmap) -> Vec<Arc<QueryRuntime>> {
    inner.read_state(|s| {
        members
            .iter_ones()
            .filter_map(|slot| s.queries.get(&(slot as u32)).cloned())
            .collect()
    })
}

/// Unrecoverable fact-page fault on the circular scan: set the typed error
/// on every member query's fault cell, then advance the wrap (`emit_left`)
/// and completion (`process_left`) bookkeeping exactly as a served page
/// would have, so the in-flight queries run to completion with an error
/// outcome instead of waiting forever for a page that cannot be read.
fn fail_fact_page(inner: &Arc<StageInner>, ctx: &SimCtx, msg: &str) {
    let members = inner.wrap.snapshot();
    let runtimes = member_runtimes(inner, &members);
    for qrt in &runtimes {
        qrt.fault.complete_error(msg);
    }
    inner.wrap.record_page(&members);
    for qrt in &runtimes {
        if qrt.process_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            finalize_query(inner, ctx, qrt);
        }
    }
}

fn finalize_query(inner: &StageInner, ctx: &SimCtx, qrt: &QueryRuntime) {
    // Flush the tail page and close the packet's output. A fault recorded
    // on the query's cell is the reader's to check once the stream ends.
    let rest = qrt.builder.lock().flush();
    if let Some(rest) = rest {
        qrt.out.emit(ctx, rest);
    }
    qrt.out.close();
    // Remove from the GQP: its bit cleared from every filter entry, empty
    // entries dropped, the slot released for reuse.
    inner.mutate_state(|s| {
        s.release_slot(qrt.slot);
        s.queries.remove(&qrt.slot);
    });
    inner.retire_host(qrt.sig, qrt.qid);
    ctx.charge(CostKind::Admission, inner.cost.admission_query_fixed_ns / 4.0);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use workshare_common::codec::PageBuilder;
    use workshare_common::{
        AggSpec, ColRef, ColType, Column, DimJoin, OrderKey, Row, Schema, Value,
    };
    use workshare_qpipe::ops::run_aggregate;
    use workshare_sim::MachineConfig;
    use workshare_storage::{IoMode, StorageConfig};

    pub(crate) fn setup_sized(dima_rows: i64, dimb_rows: i64) -> (Machine, StorageManager) {
        setup_faulted(dima_rows, dimb_rows, FaultPlan::default())
    }

    fn setup_faulted(
        dima_rows: i64,
        dimb_rows: i64,
        faults: FaultPlan,
    ) -> (Machine, StorageManager) {
        let m = Machine::new(MachineConfig {
            cores: 8,
            ..Default::default()
        });
        let sm = StorageManager::new(
            StorageConfig {
                io_mode: IoMode::Memory,
                faults,
                ..Default::default()
            },
            CostModel::default(),
        );
        let fs = Schema::new(vec![
            Column::new("fk_a", ColType::Int),
            Column::new("fk_b", ColType::Int),
            Column::new("m", ColType::Int),
        ]);
        let mut fb = PageBuilder::new(&fs);
        for i in 0..3000i64 {
            fb.push(&[
                Value::Int(i % dima_rows),
                Value::Int(i % dimb_rows),
                Value::Int(i),
            ]);
        }
        let fpages = fb.finish();
        sm.create_table("fact", fs, fpages);
        for (name, n, tags) in [("dima", dima_rows, "a"), ("dimb", dimb_rows, "b")] {
            let ds = Schema::new(vec![
                Column::new("pk", ColType::Int),
                Column::new("tag", ColType::Str(8)),
            ]);
            let mut db = PageBuilder::new(&ds);
            for i in 0..n {
                db.push(&[Value::Int(i), Value::str(&format!("{tags}{}", i % 2))]);
            }
            let dpages = db.finish();
            sm.create_table(name, ds, dpages);
        }
        (m, sm)
    }

    pub(crate) fn setup() -> (Machine, StorageManager) {
        setup_sized(10, 7)
    }

    /// Bind `q` against the stage's catalog, as the engine's driver does
    /// before it submits.
    pub(crate) fn bound_for(stage: &CjoinStage, q: &StarQuery) -> Arc<BoundQuery> {
        Arc::new(stage.inner.storage.bind_query(q).expect("fixture queries bind"))
    }

    pub(crate) fn query(id: u64, a_even_only: bool) -> StarQuery {
        StarQuery {
            id,
            fact: "fact".into(),
            fact_pred: Predicate::True,
            dims: vec![
                DimJoin {
                    dim: "dima".into(),
                    fact_fk: "fk_a".into(),
                    dim_pk: "pk".into(),
                    pred: if a_even_only {
                        Predicate::eq(1, Value::str("a0"))
                    } else {
                        Predicate::True
                    },
                    payload: vec!["tag".into()],
                },
                DimJoin {
                    dim: "dimb".into(),
                    fact_fk: "fk_b".into(),
                    dim_pk: "pk".into(),
                    pred: Predicate::True,
                    payload: vec!["tag".into()],
                },
            ],
            group_by: vec![ColRef::dim(0, "tag"), ColRef::dim(1, "tag")],
            aggs: vec![AggSpec::sum(ColRef::fact("m"))],
            order_by: vec![
                OrderKey {
                    output_idx: 0,
                    desc: false,
                },
                OrderKey {
                    output_idx: 1,
                    desc: false,
                },
            ],
        }
    }

    /// `query(id, false)` cut down to its `keep`-th dimension (0 = dima,
    /// 1 = dimb), grouped by that dimension's tag.
    fn single_dim_query(id: u64, keep: usize) -> StarQuery {
        let mut q = query(id, false);
        q.dims = vec![q.dims[keep].clone()];
        q.group_by = vec![ColRef::dim(0, "tag")];
        q.order_by.truncate(1);
        q
    }

    /// Reference evaluation with plain nested loops.
    pub(crate) fn expected(a_even_only: bool) -> Vec<Row> {
        expected_over(10, a_even_only)
    }

    /// [`expected`] over a `dima` of `dima_rows` rows.
    fn expected_over(dima_rows: i64, a_even_only: bool) -> Vec<Row> {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<(String, String), f64> = BTreeMap::new();
        for i in 0..3000i64 {
            let a = i % dima_rows;
            let b = i % 7;
            let atag = format!("a{}", a % 2);
            let btag = format!("b{}", b % 2);
            if a_even_only && atag != "a0" {
                continue;
            }
            *groups.entry((atag, btag)).or_insert(0.0) += i as f64;
        }
        groups
            .into_iter()
            .map(|((a, b), s)| vec![Value::str(&a), Value::str(&b), Value::Float(s)])
            .collect()
    }

    fn run_queries(
        config: CjoinConfig,
        queries: Vec<StarQuery>,
    ) -> (Vec<Vec<Row>>, CjoinStats) {
        let (rows, stats, _) = run_queries_on(setup(), config, queries, 0.0);
        (rows, stats)
    }

    /// Run `queries` on a fresh stage over `(m, sm)`, optionally staggering
    /// submissions by `interarrival_ns` of virtual time (staggered arrivals
    /// split the pending set into several admission batches). Also returns
    /// the stage's runtime signals (the selectivity EWMA the oracle test
    /// compares across admission paths).
    fn run_queries_on(
        (m, sm): (Machine, StorageManager),
        config: CjoinConfig,
        queries: Vec<StarQuery>,
        interarrival_ns: f64,
    ) -> (Vec<Vec<Row>>, CjoinStats, CjoinRuntimeStats) {
        let stage = CjoinStage::new(&m, &sm, "fact", config, CostModel::default());
        let st = stage.clone();
        let out = m
            .spawn("coord", move |ctx| {
                let mut jobs = Vec::new();
                for (qi, q) in queries.iter().enumerate() {
                    if qi > 0 && interarrival_ns > 0.0 {
                        ctx.sleep(interarrival_ns);
                    }
                    let bound = bound_for(&st, q);
                    let outp = st.submit(q, Arc::clone(&bound));
                    let order = q.order_by.clone();
                    let cost = st.inner.cost;
                    jobs.push(ctx.machine().spawn(&format!("agg-q{}", q.id), move |ctx| {
                        run_aggregate(ctx, outp.reader, &bound, &order, &cost)
                    }));
                }
                jobs.into_iter().map(|j| j.join().unwrap()).collect::<Vec<_>>()
            })
            .join()
            .unwrap();
        let stats = stage.stats();
        let runtime = stage.runtime_stats();
        stage.shutdown();
        (out, stats, runtime)
    }

    #[test]
    fn single_query_matches_reference() {
        let (res, stats) = run_queries(CjoinConfig::default(), vec![query(1, false)]);
        assert_eq!(res[0], expected(false));
        assert_eq!(stats.admitted, 1);
    }

    #[test]
    fn concurrent_queries_with_different_predicates() {
        let qs = vec![query(1, false), query(2, true), query(3, false), query(4, true)];
        let (res, stats) = run_queries(CjoinConfig::default(), qs);
        assert_eq!(res[0], expected(false));
        assert_eq!(res[1], expected(true));
        assert_eq!(res[2], expected(false));
        assert_eq!(res[3], expected(true));
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.sp_shares, 0);
    }

    /// CJOIN-SP; [`identical_batch`] is one batch of identical packets for it.
    fn sp_config() -> CjoinConfig {
        CjoinConfig {
            sp: true,
            ..Default::default()
        }
    }

    fn identical_batch() -> Vec<StarQuery> {
        vec![query(1, true), query(2, true), query(3, true)]
    }

    #[test]
    fn sp_shares_identical_packets() {
        let (res, stats) = run_queries(sp_config(), identical_batch());
        for r in &res {
            assert_eq!(*r, expected(true));
        }
        assert_eq!(stats.admitted, 1, "only the host is admitted");
        assert_eq!(stats.sp_shares, 2);
    }

    /// The SP contract [`CjoinStage::submit`] is written around, under a
    /// host whose admission fails ([`sp_shares_identical_packets`] is the
    /// fault-free twin of the same batch): satellites attached to the
    /// host's exchange share its typed error and its end-of-stream, and a
    /// dead host takes no more satellites.
    #[test]
    fn sp_satellites_share_a_failed_hosts_error_and_a_later_query_admits_fresh() {
        // Read 0 of this storage — the host's first dimension page — is
        // unreadable on every attempt; no other read of the run fires.
        let faults = FaultPlan {
            seed: 17_945,
            permanent_page_stride: Some(1 << 16),
            ..Default::default()
        };
        let (m, sm) = setup_faulted(10, 7, faults);
        let stage = CjoinStage::new(&m, &sm, "fact", sp_config(), CostModel::default());
        let st = stage.clone();
        let (errors, late) = m
            .spawn("coord", move |ctx| {
                // One batch: no virtual time passes between submissions, so
                // every satellite attaches before admission runs.
                let outputs: Vec<CjoinOutput> = identical_batch()
                    .iter()
                    .map(|q| st.submit(q, bound_for(&st, q)))
                    .collect();
                let mut errors = Vec::new();
                for mut o in outputs {
                    assert!(o.reader.next(ctx).is_none(), "a failed host emits nothing");
                    errors.push(o.fault.error());
                }
                assert_eq!(st.stats().admitted, 0, "the host never activated");
                // The same query again, after the failure.
                let q = query(9, true);
                let bound = bound_for(&st, &q);
                let outp = st.submit(&q, Arc::clone(&bound));
                let rows = run_aggregate(ctx, outp.reader, &bound, &q.order_by, &st.inner.cost);
                (errors, (rows, outp.fault.error()))
            })
            .join()
            .unwrap();
        let msg = errors[0].clone().expect("the host's admission failed");
        assert!(msg.contains("unreadable"), "a typed storage error: {msg}");
        assert!(errors.iter().all(|e| e.as_ref() == Some(&msg)), "{errors:?}");
        assert_eq!(sm.fault_stats().injected_permanent, 1, "one fault, the host's");
        assert_eq!(late, (expected(true), None), "admitted fresh, on a healthy scan");
        let stats = stage.stats();
        assert_eq!(stats.sp_shares, 2, "the latecomer is no share of the dead host");
        assert_eq!(stats.admitted, 1, "the latecomer alone");
        stage.shutdown();
    }

    #[test]
    fn queries_with_disjoint_dimensions_coexist() {
        // One query joins only dima, the other only dimb; the shared plan
        // must not let one query's filter hurt the other.
        let (qa, qb) = (single_dim_query(1, 0), single_dim_query(2, 1));
        let (res, _) = run_queries(CjoinConfig::default(), vec![qa, qb]);
        // dima tags: sum of i where (i%10)%2==tag parity.
        let mut a0 = 0.0;
        let mut a1 = 0.0;
        let mut b0 = 0.0;
        let mut b1 = 0.0;
        for i in 0..3000i64 {
            if (i % 10) % 2 == 0 {
                a0 += i as f64;
            } else {
                a1 += i as f64;
            }
            if (i % 7) % 2 == 0 {
                b0 += i as f64;
            } else {
                b1 += i as f64;
            }
        }
        assert_eq!(
            res[0],
            vec![
                vec![Value::str("a0"), Value::Float(a0)],
                vec![Value::str("a1"), Value::Float(a1)],
            ]
        );
        assert_eq!(
            res[1],
            vec![
                vec![Value::str("b0"), Value::Float(b0)],
                vec![Value::str("b1"), Value::Float(b1)],
            ]
        );
    }

    #[test]
    fn a_reused_stage_probes_no_stale_filter() {
        // Run `q` alone on `stage`, to completion. Returns its rows, the
        // Hashing + Join CPU spent meanwhile, and how many filters the
        // state held while it was active.
        fn run_alone(m: &Machine, stage: &CjoinStage, q: StarQuery) -> (Vec<Row>, f64, usize) {
            let cpu0 = m.cpu_breakdown();
            let st = stage.clone();
            let (rows, filters) = m
                .spawn("coord", move |ctx| {
                    let bound = bound_for(&st, &q);
                    let outp = st.submit(&q, Arc::clone(&bound));
                    let (order, cost) = (q.order_by.clone(), st.inner.cost);
                    let agg = ctx.machine().spawn("agg", move |ctx| {
                        run_aggregate(ctx, outp.reader, &bound, &order, &cost)
                    });
                    let filters = loop {
                        let active = st.inner.read_state(|s| {
                            (!s.queries.is_empty()).then_some(s.filters.len())
                        });
                        if let Some(filters) = active {
                            break filters;
                        }
                        ctx.sleep(10_000.0);
                    };
                    let rows = agg.join().unwrap();
                    // Finalisation drops the query and releases its slot in
                    // one mutation, after it closed the stream.
                    while st.active_queries() > 0 {
                        ctx.sleep(10_000.0);
                    }
                    (rows, filters)
                })
                .join()
                .unwrap();
            let cpu = m.cpu_breakdown().delta(&cpu0);
            (rows, cpu.secs(CostKind::Hashing) + cpu.secs(CostKind::Join), filters)
        }
        let new_stage = |(m, sm): &(Machine, StorageManager)| {
            CjoinStage::new(m, sm, "fact", CjoinConfig::default(), CostModel::default())
        };
        // A query over dima only, then one over dimb only, on one stage…
        let env = setup();
        let reused = new_stage(&env);
        let (_, _, filters) = run_alone(&env.0, &reused, single_dim_query(1, 0));
        assert_eq!(filters, 1);
        assert!(filter_snapshot(&reused).is_empty(), "nobody references a filter");
        let (rows, cpu, filters) = run_alone(&env.0, &reused, single_dim_query(2, 1));
        assert_eq!(filters, 1, "the finished query's dimension is still probed");
        assert!(filter_snapshot(&reused).is_empty(), "nobody references a filter");
        reused.shutdown();
        // …costs the second what it costs on a stage of its own.
        let env = setup();
        let fresh = new_stage(&env);
        let (fresh_rows, fresh_cpu, _) = run_alone(&env.0, &fresh, single_dim_query(2, 1));
        fresh.shutdown();
        assert_eq!(rows, fresh_rows);
        assert!(
            (cpu - fresh_cpu).abs() <= 1e-9 * fresh_cpu,
            "reused {cpu} vs fresh {fresh_cpu} s of Hashing + Join"
        );
    }

    #[test]
    fn fact_predicates_are_applied_on_output() {
        let mut q = query(1, false);
        q.fact_pred = Predicate::between(2, 0i64, 999i64); // m <= 999
        let (res, _) = run_queries(CjoinConfig::default(), vec![q]);
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<(String, String), f64> = BTreeMap::new();
        for i in 0..1000i64 {
            let atag = format!("a{}", (i % 10) % 2);
            let btag = format!("b{}", (i % 7) % 2);
            *groups.entry((atag, btag)).or_insert(0.0) += i as f64;
        }
        let expect: Vec<Row> = groups
            .into_iter()
            .map(|((a, b), s)| vec![Value::str(&a), Value::str(&b), Value::Float(s)])
            .collect();
        assert_eq!(res[0], expect);
    }

    #[test]
    fn late_query_gets_complete_answer_via_wrap() {
        // The second query is submitted once the first one's scan has
        // progressed mid-way.
        let queries = vec![query(1, false), query(2, true)];
        let (res, _, _) = run_queries_on(setup(), CjoinConfig::default(), queries, 2e5);
        assert_eq!(res[0], expected(false));
        assert_eq!(
            res[1],
            expected(true),
            "late arrival still sees every tuple"
        );
    }

    #[test]
    fn a_query_admitted_while_its_dimension_is_scanned_misses_no_row() {
        // A 1 000-row `dima` spans several pages, so the second query's
        // admission scan takes virtual time while the first query's fact
        // pages flow. Its entries are merged before its slot activates;
        // activating first would stamp pages that probe a filter missing
        // its keys, and the query would lose their rows.
        let queries = vec![query(1, false), query(2, true)];
        let (res, _, _) =
            run_queries_on(setup_sized(1000, 7), CjoinConfig::default(), queries, 2e5);
        assert_eq!(res[0], expected_over(1000, false));
        assert_eq!(res[1], expected_over(1000, true));
    }

    /// Create `dims`, a dimension of `rows` rows whose pk is a `Str` — so
    /// an admission scan that reads it as an `Int` pk panics — and return a
    /// maker of single-dimension queries that join it.
    pub(crate) fn add_str_pk_dim(sm: &StorageManager, rows: usize) -> impl Fn(u64) -> StarQuery {
        let ds = Schema::new(vec![
            Column::new("pk", ColType::Str(4)),
            Column::new("tag", ColType::Str(8)),
        ]);
        let mut db = PageBuilder::new(&ds);
        for i in 0..rows {
            db.push(&[Value::str(&i.to_string()), Value::str("s")]);
        }
        let pages = db.finish();
        sm.create_table("dims", ds, pages);
        |id| {
            let mut q = single_dim_query(id, 0);
            q.dims[0].dim = "dims".into();
            q
        }
    }

    /// A genuine bug in an admission scan, with faults off: the batch's
    /// scan unit panics on a dimension whose pk is not an `Int`. Every
    /// query of the batch must end in a typed error carrying the panic's
    /// message, its slot rolled back, and a later healthy query must run.
    #[test]
    fn a_panicking_admission_scan_fails_its_batch_instead_of_hanging_it() {
        let (m, sm) = setup();
        let broken = add_str_pk_dim(&sm, 10);
        let stage = CjoinStage::new(&m, &sm, "fact", CjoinConfig::default(), CostModel::default());
        let st = stage.clone();
        let (errors, late) = m
            .spawn("coord", move |ctx| {
                // One batch: no virtual time passes between submissions.
                let outputs: Vec<CjoinOutput> = [broken(1), broken(2)]
                    .iter()
                    .map(|q| st.submit(q, bound_for(&st, q)))
                    .collect();
                let mut errors = Vec::new();
                for mut o in outputs {
                    assert!(o.reader.next(ctx).is_none(), "a failed batch emits nothing");
                    errors.push(o.fault.error());
                }
                let q = query(3, true);
                let bound = bound_for(&st, &q);
                let outp = st.submit(&q, Arc::clone(&bound));
                let rows = run_aggregate(ctx, outp.reader, &bound, &q.order_by, &st.inner.cost);
                (errors, (rows, outp.fault.error()))
            })
            .join()
            .unwrap();
        for e in &errors {
            let msg = e.as_deref().expect("the batch failed");
            assert!(msg.contains("panicked") && msg.contains("expected Int"), "{msg}");
        }
        assert_eq!(late, (expected(true), None), "the later query runs on freed slots");
        assert_eq!(stage.stats().admitted, 1, "the later query alone");
        assert_eq!(stage.active_queries(), 0);
        stage.shutdown();
    }

    /// Canonical view of a stage's shared-filter state: per filter, the
    /// referencing slots plus every entry's key, row, and selecting slots.
    #[allow(clippy::type_complexity)]
    fn filter_snapshot(
        stage: &CjoinStage,
    ) -> Vec<(Vec<usize>, std::collections::BTreeMap<i64, (Row, Vec<usize>)>)> {
        stage.inner.read_state(|s| {
            s.filters
                .iter()
                .map(|f| {
                    (
                        f.referencing.iter_ones().collect(),
                        f.hash
                            .iter()
                            .map(|(k, e)| {
                                ((*k), ((*e.row).clone(), e.bits.iter_ones().collect()))
                            })
                            .collect(),
                    )
                })
                .collect()
        })
    }

    #[test]
    fn shared_admission_scans_each_dimension_once_per_batch() {
        // Multi-page dima so the shared scan's page loop is exercised.
        let (m, sm) = setup_sized(3000, 7);
        let dima_pages = sm.page_count(sm.table("dima")) as u64;
        let dimb_pages = sm.page_count(sm.table("dimb")) as u64;
        assert!(dima_pages > 1, "dima must span pages to exercise the loop");
        // cap_pages 1 and no attached readers: emits block before any query
        // can complete, so no finalize mutates the filters under the
        // snapshots below.
        let mk_stage = |serial: bool| {
            CjoinStage::new(
                &m,
                &sm,
                "fact",
                CjoinConfig {
                    serial_admission: serial,
                    cap_pages: 1,
                    ..Default::default()
                },
                CostModel::default(),
            )
        };
        let shared = mk_stage(false);
        let serial = mk_stage(true);
        let queries = [query(1, false), query(2, true), query(3, false), query(4, true)];
        let sh = shared.clone();
        let se = serial.clone();
        let snaps = m
            .spawn("driver", move |ctx| {
                let mk_batch = |st: &CjoinStage| -> Vec<Admission> {
                    queries
                        .iter()
                        .map(|q| Admission {
                            query: q.clone(),
                            bound: bound_for(st, q),
                            out: Exchange::new(
                                ExchangeKind::Spl,
                                &st.inner.machine,
                                st.inner.cost,
                                1,
                            ),
                            sig: q.cjoin_signature(),
                            fault: Arc::new(CompletionCell::new()),
                        })
                        .collect()
                };
                admit_batch_shared(&sh.inner, ctx, mk_batch(&sh));
                admit_batch_serial(&se.inner, ctx, mk_batch(&se));
                (filter_snapshot(&sh), filter_snapshot(&se))
            })
            .join()
            .unwrap();
        let sh_stats = shared.stats();
        let se_stats = serial.stats();
        assert_eq!(sh_stats.admitted, 4);
        assert_eq!(se_stats.admitted, 4);
        assert_eq!(sh_stats.admission_batches, 1);
        // One physical scan per distinct (dim, fk, pk) for the whole
        // batch — the shared-scan invariant — vs one per pending query on
        // the serial oracle path.
        assert_eq!(sh_stats.admission_dim_pages, dima_pages + dimb_pages);
        assert_eq!(se_stats.admission_dim_pages, 4 * (dima_pages + dimb_pages));
        // The logical per-query scan volume is identical either way.
        assert_eq!(sh_stats.admission_dim_rows, 4 * (3000 + 7));
        assert_eq!(se_stats.admission_dim_rows, sh_stats.admission_dim_rows);
        // And the filter state the batch builds (referencing bits, entry
        // keys/rows, per-entry query bitmaps) is exactly the serial one.
        assert_eq!(snaps.0, snaps.1, "shared admission diverged from oracle");
        shared.shutdown();
        serial.shutdown();
    }

    /// Property test of the serial-admission oracle: batched shared-scan
    /// admission must be behaviorally identical to the retained per-query
    /// serial path across random query mixes, dimension subsets,
    /// page counts, and arrival patterns.
    pub(crate) mod shared_admission_oracle {
        use super::*;
        use proptest::prelude::*;

        fn dim_pred(variant: u8, prefix: &str) -> Predicate {
            match variant % 3 {
                0 => Predicate::True,
                1 => Predicate::eq(1, Value::str(&format!("{prefix}0"))),
                _ => Predicate::eq(1, Value::str(&format!("{prefix}1"))),
            }
        }

        pub(crate) fn build_query(id: u64, pa: u8, pb: u8, subset: u8) -> StarQuery {
            let mut q = query(id, false);
            q.dims[0].pred = dim_pred(pa, "a");
            q.dims[1].pred = dim_pred(pb, "b");
            let single = |q: &mut StarQuery| {
                q.group_by = vec![ColRef::dim(0, "tag")];
                q.order_by = vec![OrderKey {
                    output_idx: 0,
                    desc: false,
                }];
            };
            match subset % 3 {
                1 => {
                    q.dims.truncate(1);
                    single(&mut q);
                }
                2 => {
                    q.dims.remove(0);
                    single(&mut q);
                }
                _ => {}
            }
            q
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            #[test]
            fn shared_admission_matches_serial_oracle(
                specs in proptest::collection::vec((0u8..3, 0u8..3, 0u8..3), 1..6),
                paged_dims in proptest::bool::ANY,
                stagger in proptest::bool::ANY,
            ) {
                let queries: Vec<StarQuery> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, &(pa, pb, subset))| build_query(i as u64, pa, pb, subset))
                    .collect();
                let dima_rows = if paged_dims { 3000 } else { 10 };
                // Staggered arrivals split the pending set into several
                // admission batches; the oracle must hold regardless.
                let interarrival = if stagger { 2e5 } else { 0.0 };
                let shared_cfg = CjoinConfig::default();
                let serial_cfg = CjoinConfig {
                    serial_admission: true,
                    ..Default::default()
                };
                let (sh_rows, mut sh_stats, sh_rt) = run_queries_on(
                    setup_sized(dima_rows, 7),
                    shared_cfg,
                    queries.clone(),
                    interarrival,
                );
                let (se_rows, mut se_stats, se_rt) = run_queries_on(
                    setup_sized(dima_rows, 7),
                    serial_cfg,
                    queries,
                    interarrival,
                );
                prop_assert_eq!(sh_rows, se_rows, "joined rows diverged");
                // Physical admission reads and batch counts legitimately
                // differ (that is the optimization); every logical counter
                // must match exactly.
                sh_stats.admission_batches = 0;
                se_stats.admission_batches = 0;
                sh_stats.admission_dim_pages = 0;
                se_stats.admission_dim_pages = 0;
                prop_assert_eq!(sh_stats, se_stats, "stats diverged");
                // The selectivity EWMA folds the same per-(page, query)
                // sample multiset in a different order, and an EWMA with
                // alpha 0.2 over two samples a, b already differs by
                // 0.6·|a−b| across orders — with this fixture's samples in
                // {0.5, 1.0} the order-sensitivity bound is 0.3. The
                // tolerance checks the signal plumbing (folds happened,
                // right magnitude); per-query *attribution* is guaranteed
                // order-independently by the row/stats equality above and
                // the deterministic filter-snapshot test.
                let (a, b) = (
                    sh_rt.dim_selectivity.expect("shared run observed admission scans"),
                    se_rt.dim_selectivity.expect("serial run observed admission scans"),
                );
                prop_assert!(
                    (0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b),
                    "EWMA out of range: shared {} serial {}", a, b
                );
                prop_assert!(
                    (a - b).abs() <= 0.3,
                    "dim_selectivity EWMA diverged: shared {} vs serial {}",
                    a,
                    b
                );
            }
        }
    }

    /// The distributor looks a payload row up when it emits, not when the
    /// page was filtered. Between the two, while the page waits in
    /// `dist_q`, admission may merge a new slot's entries and finalisation
    /// may release another slot — here the one slot referencing a filter,
    /// so that filter's table is swapped out. Every (survivor, surviving
    /// query, payload filter of that query) must still resolve to the very
    /// row the scalar oracle matched before the mutations.
    #[test]
    fn a_waiting_pages_payload_rows_survive_admission_and_release() {
        use crate::filter::{filter_page_scalar, DimEntry};
        let (a, b, c) = (3usize, 70usize, 5usize);
        let mut s = GqpState::default();
        // Slot `slot` joins `dim` on fact column `fk`, selecting `keys`.
        let admit = |s: &mut GqpState, slot: usize, dim: u32, fk: usize, keys: &[i64]| {
            let fi = s.locate_filter(TableId(dim), fk, 0);
            let f = s.filter_mut(fi);
            f.referencing.set(slot);
            for &key in keys {
                let row = || Arc::new(vec![Value::Int(key), Value::str(&format!("{dim}:{key}"))]);
                f.hash
                    .entry(key)
                    .or_insert_with(|| DimEntry {
                        row: row(),
                        bits: QueryBitmap::zeros(64),
                    })
                    .bits
                    .set(slot);
            }
            fi
        };
        let evens: Vec<i64> = (0..13).filter(|k| k % 2 == 0).collect();
        let a_filters = [
            admit(&mut s, a, 1, 0, &evens),
            admit(&mut s, a, 3, 2, &[0, 1, 2, 3, 4, 5]),
        ];
        admit(&mut s, b, 1, 0, &[0, 3, 6, 9, 12]);
        let b_only = admit(&mut s, b, 2, 1, &[0, 1, 2, 3, 4, 5, 6, 7]);
        // One fact page of three foreign keys, read in place.
        let schema = Schema::new(
            ["fk0", "fk1", "fk2"].iter().map(|n| Column::new(n, ColType::Int)).collect(),
        );
        let mut builder = PageBuilder::new(&schema);
        for i in 0..300i64 {
            builder.push(&[Value::Int(i % 13), Value::Int(i * 7 % 11), Value::Int(i / 3 % 9)]);
        }
        let page = builder.finish().remove(0);
        let rows = page.rows(&schema);
        let mut members = QueryBitmap::zeros(64);
        members.set(a);
        members.set(b);
        let mut scratch = FilterScratch::default();
        let (survivors, _) =
            filter_page_survivors(&s.filters, 0..s.filters.len(), &rows, &members, &mut scratch);
        let (oracle, _) = filter_page_scalar(&s.filters, &page.decode_all(&schema), &members);
        assert_eq!(survivors.selected, oracle.selected);
        let want: Vec<(usize, usize, Arc<Row>)> = (0..survivors.selected.len())
            .filter(|&j| survivors.bank.get(j, a))
            .flat_map(|j| a_filters.map(|fi| (j, fi)))
            .map(|(j, fi)| (j, fi, Arc::clone(oracle.dim_match(j, fi).expect("a's match"))))
            .collect();
        assert!(!want.is_empty(), "the page must carry survivors of slot a");
        assert!(
            (0..survivors.selected.len()).any(|j| !survivors.bank.get(j, a)),
            "and survivors of slot b alone"
        );
        // Admission merges slot c into a shared filter and a new one, then
        // finalisation releases b: `b_only` loses its last reference.
        admit(&mut s, c, 1, 0, &(0..13).collect::<Vec<_>>());
        admit(&mut s, c, 4, 0, &[1, 2]);
        s.release_slot(b as u32);
        assert!(s.filters[b_only].hash.is_empty() && !s.filters[b_only].referencing.any());
        for (j, fi, row) in want {
            let i = survivors.selected[j] as usize;
            let got = s.filters[fi].match_of(&rows, i).expect("the entry outlives the page");
            assert!(Arc::ptr_eq(got, &row), "survivor {j} filter {fi}");
        }
    }

    #[test]
    fn slots_are_recycled_after_completion() {
        let (m, sm) = setup();
        let stage = CjoinStage::new(&m, &sm, "fact", CjoinConfig::default(), CostModel::default());
        let st = stage.clone();
        m.spawn("coord", move |ctx| {
            for round in 0..3 {
                let q = query(round, false);
                let mut outp = st.submit(&q, bound_for(&st, &q));
                // Drain without aggregating.
                while outp.reader.next(ctx).is_some() {}
            }
            assert_eq!(st.active_queries(), 0);
            // Slots were reused: next_slot never exceeded round count 1.
            assert!(st.inner.read_state(|s| s.next_slot) <= 2);
        })
        .join()
        .unwrap();
        stage.shutdown();
    }

    #[test]
    fn only_a_vthread_of_the_stages_machine_mutates_its_state() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (m, sm) = setup();
        let stage = CjoinStage::new(&m, &sm, "fact", CjoinConfig::default(), CostModel::default());
        let mutate = |st: &CjoinStage| {
            catch_unwind(AssertUnwindSafe(|| st.inner.mutate_state(|s| s.next_slot))).is_ok()
        };
        let st = stage.clone();
        let on_its_machine = m.spawn("owner", move |_| mutate(&st)).join().unwrap();
        let st = stage.clone();
        let other = Machine::new(MachineConfig::default());
        let on_another_machine = other.spawn("stranger", move |_| mutate(&st)).join().unwrap();
        let on_an_os_thread = mutate(&stage);
        stage.shutdown();
        assert!(on_its_machine);
        // The rule is a `debug_assert!`: a release build does not check it.
        let checked = cfg!(debug_assertions);
        assert_eq!((on_another_machine, on_an_os_thread), (!checked, !checked));
    }

    #[test]
    fn the_atomic_key_run_average_reads_as_the_locked_one_did() {
        // The form the cell replaced: an optional average under a mutex.
        fn locked_fold(cell: &Mutex<Option<f64>>, sample: f64, alpha: f64) {
            let mut v = cell.lock();
            *v = Some(match *v {
                None => sample,
                Some(prev) => (1.0 - alpha) * prev + alpha * sample,
            });
        }
        let (cell, locked) = (EwmaCell::new(), Mutex::new(None));
        assert_eq!(cell.get().unwrap_or(1.0), locked.lock().unwrap_or(1.0));
        for sample in [1.0, 1.0007, 4.0, 1.0 / 3.0, 16.0, 1.0, 1.25, 1e6, 1.0] {
            cell.fold(sample, 0.1);
            locked_fold(&locked, sample, 0.1);
            let (a, b) = (cell.get().unwrap_or(1.0), locked.lock().unwrap_or(1.0));
            assert_eq!(a.to_bits(), b.to_bits(), "after {sample}");
        }
    }
}
