//! The QPipe engine: plan instantiation, packet spawning, SP wiring.
//!
//! [`QpipeEngine::submit_stream`] converts a [`StarQuery`] into a tree of
//! packet vthreads connected by exchanges, up to the tail:
//!
//! ```text
//! scan(fact) → fact-select ─┐
//! scan(dim0) → dim-select ──┤→ join0 ─┐
//! scan(dim1) → dim-select ────────────┤→ join1 → … → aggregate/sort → result
//! ```
//!
//! Sharing hooks, all switchable per configuration:
//!
//! * **Circular scans** (`circular_scans`) — scan packets attach to the
//!   shared per-table scanner (linear WoP) instead of scanning privately.
//! * **SP at the join stage** (`sp_joins`) — before building join level `k`,
//!   the engine probes the join registry for an in-flight identical sub-plan
//!   (deepest prefix first); on a hit the satellite consumes the host's
//!   output exchange and only builds the plan *above* the shared pivot.
//!
//! It plans everything below the tail and hands back the joined stream; the
//! aggregate/sort tail ([`QpipeStream::aggregate`]) and the result slot on
//! top of it belong to the one query driver, the engine facade's in
//! `workshare-core`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use workshare_common::bind::BoundQuery;
use workshare_common::cell::CompletionCell;
use workshare_common::value::Row;
use workshare_common::{CostModel, OrderKey, StarQuery};
use workshare_sim::{Machine, SimCtx, WaitSet};
use workshare_storage::{StorageManager, TableId};

use crate::exchange::{Exchange, ExchangeKind, ExchangeReader};
use crate::ops;
use crate::registry::SpRegistry;
use crate::scan::{ScanService, ScanWatch};
use crate::wop::Wop;

/// QPipe engine configuration (one row of the paper's §5.1 matrix).
#[derive(Debug, Clone, Copy)]
pub struct QpipeConfig {
    /// Exchange implementation (push FIFO vs pull SPL).
    pub exchange: ExchangeKind,
    /// Share table scans via circular scans (`QPipe-CS`).
    pub circular_scans: bool,
    /// SP at the join stage (`QPipe-SP`).
    pub sp_joins: bool,
    /// The run-time prediction model of Johnson et al. \[14\] ("To share or
    /// not to share?"): only share scans when the machine is saturated
    /// (in-flight queries ≥ cores). The paper argues SPL makes this model
    /// unnecessary; the flag exists for the Fig. 6 ablation.
    pub cs_prediction: bool,
    /// Exchange capacity in pages (256 KB / 32 KB = 8, paper §4).
    pub cap_pages: usize,
}

impl Default for QpipeConfig {
    fn default() -> Self {
        QpipeConfig {
            exchange: ExchangeKind::Spl,
            circular_scans: false,
            sp_joins: false,
            cs_prediction: false,
            cap_pages: 8,
        }
    }
}

/// The waitable result slot every engine ends a query in — what the core
/// `Ticket` is a struct over, whichever route ran the query. The write-once
/// publish/claim protocol lives in [`CompletionCell`] (model-checked by
/// `tests/interleave_core.rs`); this type adds the sim-side plumbing:
/// virtual-time waiters and latency stamps.
/// It lives in this crate, next to [`Exchange`], because this is the lowest
/// one that sees both `workshare_common::sync` and the simulator's
/// [`WaitSet`].
pub struct SlotResult {
    cell: CompletionCell<Arc<Vec<Row>>>,
    ws: WaitSet,
    machine: Machine,
    start_ns: f64,
    finish_ns: Mutex<f64>,
}

impl SlotResult {
    /// New pending slot stamped with the submission time.
    pub fn new(machine: &Machine, start_ns: f64) -> Arc<SlotResult> {
        Arc::new(SlotResult {
            cell: CompletionCell::new(),
            ws: WaitSet::new(machine),
            machine: machine.clone(),
            start_ns,
            finish_ns: Mutex::new(0.0),
        })
    }

    /// Publish the result. First write wins: a slot already completed (or
    /// poisoned) ignores the call.
    pub fn complete(&self, rows: Arc<Vec<Row>>, now_ns: f64) {
        if self.cell.complete(rows) {
            *self.finish_ns.lock() = now_ns;
            self.ws.notify_all();
        }
    }

    /// Poison the slot with an error: waiters wake with empty rows and
    /// [`SlotResult::error`] reports the message. Used when a producer
    /// sheds, fails to bind, hits an unrecoverable fault, or abandons the
    /// slot by panicking. First write wins, as with
    /// [`SlotResult::complete`].
    pub fn complete_error(&self, msg: impl Into<String>, now_ns: f64) {
        if self.cell.complete_error(msg) {
            *self.finish_ns.lock() = now_ns;
            self.ws.notify_all();
        }
    }

    /// Block (in virtual time from a vthread) until completion; returns the
    /// result rows (empty when the slot was poisoned — check
    /// [`SlotResult::error`]). Hands back the shared `Arc`: every reader of
    /// one buffered result shares it, nothing is copied out of the cell's
    /// mutex.
    pub fn wait(&self) -> Arc<Vec<Row>> {
        self.ws.wait_for(|| {
            self.cell
                .try_outcome()
                .map(|outcome| outcome.unwrap_or_default())
        })
    }

    /// Whether the query completed.
    pub fn is_done(&self) -> bool {
        self.cell.is_done()
    }

    /// The error that poisoned this slot, if any.
    pub fn error(&self) -> Option<String> {
        self.cell.error()
    }

    /// Response time in virtual seconds (valid after completion).
    pub fn latency_secs(&self) -> f64 {
        (self.finish_ns() - self.start_ns) / 1e9
    }

    /// Completion timestamp in virtual nanoseconds.
    pub fn finish_ns(&self) -> f64 {
        *self.finish_ns.lock()
    }
}

/// RAII guard held by a slot's producer thread. Dropping the guard without
/// [`CompletionGuard::disarm`]ing it poisons the slot, so a producer that
/// panics (or early-returns on an error path) yields an error outcome at the
/// waiter instead of a deadlock on a slot nobody will ever complete.
pub struct CompletionGuard {
    slot: Arc<SlotResult>,
    armed: bool,
}

impl CompletionGuard {
    /// Arm a guard for `slot`.
    pub fn new(slot: Arc<SlotResult>) -> CompletionGuard {
        CompletionGuard { slot, armed: true }
    }

    /// The producer completed the slot normally; the drop becomes a no-op.
    pub fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        if self.armed {
            let now = self.slot.machine.now_ns();
            self.slot
                .complete_error("producer abandoned the result slot", now);
        }
    }
}

/// The joined stream of one submitted query
/// ([`QpipeEngine::submit_stream`]): everything below the query-centric
/// aggregate/sort tail. The same shape as the CJOIN stage's output — a
/// reader plus the fault to check once it drains.
pub struct QpipeStream {
    /// Joined tuples in the query's bound layout.
    reader: ExchangeReader,
    /// Unrecoverable scan reads since submission. The reader still drains
    /// normally (a failed scan closes its exchange) — check after
    /// exhaustion.
    fault: ScanWatch,
    /// Keeps the query in [`QpipeEngine::in_flight`] until the stream is
    /// dropped — by the finished tail or by its unwinding.
    _in_flight: InFlight,
}

impl QpipeStream {
    /// The query-centric tail: aggregate and sort the stream, then surface
    /// a scan that failed under it as the query's typed error instead of a
    /// silently partial result.
    pub fn aggregate(
        self,
        ctx: &SimCtx,
        bound: &BoundQuery,
        order: &[OrderKey],
        cost: &CostModel,
    ) -> Result<Arc<Vec<Row>>, String> {
        let rows = ops::run_aggregate(ctx, self.reader, bound, order, cost);
        match self.fault.failure() {
            Some(msg) => Err(msg),
            None => Ok(Arc::new(rows)),
        }
    }
}

/// One query's count in `EngineInner::in_flight`.
struct InFlight(Arc<AtomicU64>);

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Aggregate sharing statistics of an engine instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Circular-scan hosts created.
    pub scan_hosts: u64,
    /// Scan packets that attached to an existing circular scan.
    pub scan_satellites: u64,
    /// Join sub-plans registered as hosts.
    pub join_hosts: u64,
    /// Satellite attachments by join level (index 0 = first hash-join),
    /// mirroring the paper's Fig. 15 "1st/2nd/3rd hash-join" counts.
    pub join_satellites_by_level: Vec<u64>,
}

struct EngineInner {
    machine: Machine,
    storage: StorageManager,
    cost: CostModel,
    config: QpipeConfig,
    scan: ScanService,
    joins: SpRegistry,
    gate_ws: WaitSet,
    gate_open: Arc<AtomicBool>,
    join_level_shares: Mutex<Vec<u64>>,
    /// Queries submitted but not yet completed (the prediction model's
    /// saturation signal).
    in_flight: Arc<AtomicU64>,
}

/// The staged execution engine. Cheap to clone.
#[derive(Clone)]
pub struct QpipeEngine {
    inner: Arc<EngineInner>,
}

impl QpipeEngine {
    /// Create an engine over `storage` on `machine`.
    pub fn new(
        machine: &Machine,
        storage: &StorageManager,
        config: QpipeConfig,
        cost: CostModel,
    ) -> QpipeEngine {
        QpipeEngine {
            inner: Arc::new(EngineInner {
                machine: machine.clone(),
                storage: storage.clone(),
                cost,
                config,
                scan: ScanService::new(machine, storage, cost, config.exchange, config.cap_pages),
                joins: SpRegistry::new(),
                gate_ws: WaitSet::new(machine),
                gate_open: Arc::new(AtomicBool::new(true)),
                join_level_shares: Mutex::new(Vec::new()),
                in_flight: Arc::new(AtomicU64::new(0)),
            }),
        }
    }

    /// The machine this engine runs on.
    pub fn machine(&self) -> &Machine {
        &self.inner.machine
    }

    /// Hold packets at the start line (batch submission: close, submit all,
    /// open — "queries are submitted at the same time", §5.1).
    pub fn close_gate(&self) {
        self.inner.gate_open.store(false, Ordering::Release);
    }

    /// Release all packets held at the gate.
    pub fn open_gate(&self) {
        self.inner.gate_open.store(true, Ordering::Release);
        self.inner.gate_ws.notify_all();
    }

    fn spawn_packet<F>(&self, name: &str, body: F)
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        let gate_ws = self.inner.gate_ws.clone();
        let gate_open = Arc::clone(&self.inner.gate_open);
        self.inner.machine.spawn(name, move |ctx| {
            if !gate_open.load(Ordering::Acquire) {
                gate_ws.wait_until(|| gate_open.load(Ordering::Acquire));
            }
            body(ctx);
        });
    }

    fn scan_reader(&self, table: TableId) -> ExchangeReader {
        let inner = &self.inner;
        // Prediction model [14]: "first parallelize with a query-centric
        // model before sharing" — only attach to the shared scan when the
        // in-flight query count saturates the cores.
        let share = inner.config.circular_scans
            && (!inner.config.cs_prediction
                || self.in_flight() >= inner.machine.cores() as u64);
        if share {
            inner.scan.attach(table)
        } else {
            inner.scan.scan_once(
                table,
                Some(inner.gate_ws.clone()),
                Arc::clone(&inner.gate_open),
            )
        }
    }

    /// Queries submitted and not yet completed.
    pub fn in_flight(&self) -> u64 {
        self.inner.in_flight.load(Ordering::Acquire)
    }

    /// Plan and start everything below the tail — scans, selects, joins,
    /// with whatever sharing the configuration allows — and return the
    /// joined stream for the caller's aggregate/sort packet. `bound` is
    /// `q` bound against this engine's storage.
    pub fn submit_stream(&self, q: &StarQuery, bound: &Arc<BoundQuery>) -> QpipeStream {
        let inner = &self.inner;
        let cost = inner.cost;
        inner.in_flight.fetch_add(1, Ordering::AcqRel);
        let in_flight = InFlight(Arc::clone(&inner.in_flight));
        // Sampled before the first attach: a scan that fails under this
        // query from here on moves the watch.
        let fault = inner.scan.watch();
        let d = q.dims.len();
        let fact_t = inner.storage.table(&q.fact);
        let dim_ts: Vec<TableId> =
            q.dims.iter().map(|dj| inner.storage.table(&dj.dim)).collect();
        // A join host is only as good as the scans under it, and a host
        // that started before some scan failed may already be truncated by
        // a failure this query's watch would not see: only share with hosts
        // that sampled the same failure generation. (Zero in a fault-free
        // run, where this is the plain signature.)
        let generation_salt = fault.generation().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let join_sig = |k: usize| q.join_prefix_signature(k) ^ generation_salt;

        // ---- SP at the join stage: reuse the deepest identical prefix ----
        let mut stream: Option<ExchangeReader> = None;
        let mut start_level = 0usize;
        if inner.config.sp_joins && d > 0 {
            for k in (0..d).rev() {
                if let Some(r) = inner.joins.try_attach(join_sig(k), Wop::Step, None) {
                    let mut shares = inner.join_level_shares.lock();
                    if shares.len() <= k {
                        shares.resize(k + 1, 0);
                    }
                    shares[k] += 1;
                    stream = Some(r);
                    start_level = k + 1;
                    break;
                }
            }
        }

        // ---- fact scan + select (only when nothing was reused) -----------
        let mut stream = match stream {
            Some(r) => r,
            None => {
                let scan_r = self.scan_reader(fact_t);
                let sel_out =
                    Exchange::new(inner.config.exchange, &inner.machine, cost, inner.config.cap_pages);
                let primary = sel_out.attach(None);
                let pred = q.fact_pred.clone();
                let b = Arc::clone(bound);
                self.spawn_packet(&format!("fsel-q{}", q.id), move |ctx| {
                    ops::run_fact_select(ctx, scan_r, sel_out, &pred, &b, &cost);
                });
                primary
            }
        };

        // ---- joins --------------------------------------------------------
        for (k, &dim_t) in dim_ts.iter().enumerate().skip(start_level) {
            let dscan_r = self.scan_reader(dim_t);
            let build_ex =
                Exchange::new(inner.config.exchange, &inner.machine, cost, inner.config.cap_pages);
            let build_r = build_ex.attach(None);
            let pred = q.dims[k].pred.clone();
            let pk = bound.dim_pk_idx[k];
            let payload = bound.dim_payload_idx[k].clone();
            self.spawn_packet(&format!("dsel-q{}-{k}", q.id), move |ctx| {
                ops::run_dim_select(ctx, dscan_r, build_ex, &pred, pk, &payload, &cost);
            });

            let out =
                Exchange::new(inner.config.exchange, &inner.machine, cost, inner.config.cap_pages);
            if inner.config.sp_joins {
                inner.joins.register(join_sig(k), out.clone(), Wop::Step);
            }
            let out_primary = out.attach(None);
            let probe = stream;
            stream = out_primary;
            self.spawn_packet(&format!("join-q{}-{k}", q.id), move |ctx| {
                ops::run_hash_join(ctx, build_r, probe, out, k, &cost);
            });
        }

        QpipeStream {
            reader: stream,
            fault,
            _in_flight: in_flight,
        }
    }

    /// Aggregate sharing statistics.
    pub fn sharing_stats(&self) -> SharingStats {
        let (scan_hosts, scan_satellites) = self.inner.scan.stats();
        let (join_hosts, _) = self.inner.joins.stats();
        SharingStats {
            scan_hosts,
            scan_satellites,
            join_hosts,
            join_satellites_by_level: self.inner.join_level_shares.lock().clone(),
        }
    }

    /// Stop shared scanners (call when the workload is complete).
    pub fn shutdown(&self) {
        self.inner.scan.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workshare_common::codec::PageBuilder;
    use workshare_common::{
        AggSpec, ColRef, ColType, Column, DimJoin, OrderKey, Predicate, Schema, Value,
    };
    use workshare_sim::MachineConfig;
    use workshare_storage::{IoMode, StorageConfig};

    fn setup() -> (Machine, StorageManager) {
        let m = Machine::new(MachineConfig {
            cores: 8,
            ..Default::default()
        });
        let sm = StorageManager::new(
            StorageConfig {
                io_mode: IoMode::Memory,
                ..Default::default()
            },
            CostModel::default(),
        );
        // fact(fk, m): 2000 rows; dim(pk, tag): 10 rows.
        let fs = Schema::new(vec![
            Column::new("fk", ColType::Int),
            Column::new("m", ColType::Int),
        ]);
        let mut fb = PageBuilder::new(&fs);
        for i in 0..2000i64 {
            fb.push(&[Value::Int(i % 10), Value::Int(i)]);
        }
        let fpages = fb.finish();
        sm.create_table("fact", fs, fpages);
        let ds = Schema::new(vec![
            Column::new("pk", ColType::Int),
            Column::new("tag", ColType::Str(4)),
        ]);
        let mut db = PageBuilder::new(&ds);
        for i in 0..10i64 {
            db.push(&[Value::Int(i), Value::str(if i < 5 { "lo" } else { "hi" })]);
        }
        let dpages = db.finish();
        sm.create_table("dim", ds, dpages);
        (m, sm)
    }

    fn query(id: u64, lo_only: bool) -> StarQuery {
        StarQuery {
            id,
            fact: "fact".into(),
            fact_pred: Predicate::True,
            dims: vec![DimJoin {
                dim: "dim".into(),
                fact_fk: "fk".into(),
                dim_pk: "pk".into(),
                pred: if lo_only {
                    Predicate::eq(1, Value::str("lo"))
                } else {
                    Predicate::True
                },
                payload: vec!["tag".into()],
            }],
            group_by: vec![ColRef::dim(0, "tag")],
            aggs: vec![AggSpec::sum(ColRef::fact("m"))],
            order_by: vec![OrderKey {
                output_idx: 0,
                desc: false,
            }],
        }
    }

    /// Ground truth computed naively.
    fn expected(lo_only: bool) -> Vec<Vec<Value>> {
        let mut lo = 0.0;
        let mut hi = 0.0;
        for i in 0..2000i64 {
            if i % 10 < 5 {
                lo += i as f64;
            } else {
                hi += i as f64;
            }
        }
        if lo_only {
            vec![vec![Value::str("lo"), Value::Float(lo)]]
        } else {
            vec![
                vec![Value::str("hi"), Value::Float(hi)],
                vec![Value::str("lo"), Value::Float(lo)],
            ]
        }
    }

    fn run_config(config: QpipeConfig, queries: Vec<StarQuery>) -> (Vec<Arc<Vec<Row>>>, QpipeEngine) {
        let (m, sm) = setup();
        let cost = CostModel::default();
        let engine = QpipeEngine::new(&m, &sm, config, cost);
        let e2 = engine.clone();
        let out = m
            .spawn("coord", move |ctx| {
                e2.close_gate();
                // One aggregate/sort tail per query on a vthread of its
                // own, as the engine facade's driver runs it.
                let tails: Vec<_> = queries
                    .iter()
                    .map(|q| {
                        let bound = Arc::new(sm.bind_query(q).expect("fixture queries bind"));
                        let stream = e2.submit_stream(q, &bound);
                        let order = q.order_by.clone();
                        ctx.machine().spawn(&format!("agg-q{}", q.id), move |ctx| {
                            stream.aggregate(ctx, &bound, &order, &cost)
                        })
                    })
                    .collect();
                e2.open_gate();
                tails
                    .into_iter()
                    .map(|t| t.join().unwrap().expect("fault-free run"))
                    .collect::<Vec<_>>()
            })
            .join()
            .unwrap();
        engine.shutdown();
        (out, engine)
    }

    fn all_configs() -> Vec<QpipeConfig> {
        let mut v = Vec::new();
        for kind in [ExchangeKind::Spl, ExchangeKind::Fifo] {
            for cs in [false, true] {
                for sp in [false, true] {
                    v.push(QpipeConfig {
                        exchange: kind,
                        circular_scans: cs,
                        sp_joins: sp,
                        cs_prediction: false,
                        cap_pages: 4,
                    });
                }
            }
        }
        v
    }

    #[test]
    fn single_query_correct_on_every_config() {
        for config in all_configs() {
            let (res, _) = run_config(config, vec![query(1, false)]);
            assert_eq!(*res[0], expected(false), "{config:?}");
        }
    }

    #[test]
    fn mixed_batch_correct_on_every_config() {
        for config in all_configs() {
            let queries = vec![
                query(1, false),
                query(2, true),
                query(3, false),
                query(4, true),
            ];
            let (res, _) = run_config(config, queries);
            assert_eq!(*res[0], expected(false), "{config:?}");
            assert_eq!(*res[1], expected(true), "{config:?}");
            assert_eq!(*res[2], expected(false), "{config:?}");
            assert_eq!(*res[3], expected(true), "{config:?}");
        }
    }

    #[test]
    fn sp_joins_shares_identical_subplans() {
        let config = QpipeConfig {
            exchange: ExchangeKind::Spl,
            circular_scans: true,
            sp_joins: true,
            cs_prediction: false,
            cap_pages: 4,
        };
        let queries = vec![query(1, false), query(2, false), query(3, false)];
        let (res, engine) = run_config(config, queries);
        for r in &res {
            assert_eq!(**r, expected(false));
        }
        let stats = engine.sharing_stats();
        assert_eq!(
            stats.join_satellites_by_level.first().copied().unwrap_or(0),
            2,
            "two satellites on the first (only) join level: {stats:?}"
        );
    }

    #[test]
    fn circular_scans_count_satellites() {
        let config = QpipeConfig {
            exchange: ExchangeKind::Spl,
            circular_scans: true,
            sp_joins: false,
            cs_prediction: false,
            cap_pages: 4,
        };
        let (res, engine) = run_config(config, vec![query(1, true), query(2, false)]);
        assert_eq!(*res[0], expected(true));
        assert_eq!(*res[1], expected(false));
        let stats = engine.sharing_stats();
        // fact + dim hosts; second query's fact and dim scans are satellites.
        assert_eq!(stats.scan_hosts, 2, "{stats:?}");
        assert_eq!(stats.scan_satellites, 2, "{stats:?}");
    }

    #[test]
    fn sharing_reduces_total_cpu_work() {
        let queries: Vec<StarQuery> = (0..8).map(|i| query(i, false)).collect();
        let none = QpipeConfig {
            exchange: ExchangeKind::Spl,
            circular_scans: false,
            sp_joins: false,
            cs_prediction: false,
            cap_pages: 4,
        };
        let shared = QpipeConfig {
            sp_joins: true,
            circular_scans: true,
            ..none
        };
        let (_, e1) = run_config(none, queries.clone());
        let (_, e2) = run_config(shared, queries);
        let work_none = e1.machine().cpu_breakdown().total_ns();
        let work_shared = e2.machine().cpu_breakdown().total_ns();
        assert!(
            work_shared < work_none * 0.5,
            "sharing must cut CPU work: shared={work_shared} none={work_none}"
        );
    }

    #[test]
    fn latency_is_positive_and_ordered() {
        let (res, _) = run_config(QpipeConfig::default(), vec![query(1, false)]);
        assert_eq!(res.len(), 1);
    }
}
