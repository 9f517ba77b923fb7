//! The QPipe engine: plan instantiation, packet spawning, SP wiring.
//!
//! `submit` converts a [`StarQuery`] into a tree of packet vthreads connected
//! by exchanges:
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
//! * **SP at the top** (`sp_aggs`) — fully identical queries reuse the
//!   host's buffered final result (full step WoP, paper §3.1 "identical
//!   queries"). Off by default, as in the paper's experiments.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use workshare_common::bind::{bind, BoundQuery};
use workshare_common::fxhash::FxHashMap;
use workshare_common::value::Row;
use workshare_common::{CostModel, StarQuery};
use workshare_sim::{CostKind, Machine, SimCtx, WaitSet};
use workshare_storage::{StorageManager, TableId};

use crate::exchange::{Exchange, ExchangeKind, ExchangeReader};
use crate::ops;
use crate::registry::SpRegistry;
use crate::scan::{spawn_independent_scan, ScanService};
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
    /// SP for identical whole plans at the top stage (off in the paper's
    /// experiments, available for completeness).
    pub sp_aggs: bool,
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
            sp_aggs: false,
            cs_prediction: false,
            cap_pages: 8,
        }
    }
}

/// Result sink of one query.
pub struct QueryResult {
    rows: Mutex<Option<Arc<Vec<Row>>>>,
    done: AtomicBool,
    ws: WaitSet,
    start_ns: f64,
    finish_ns: Mutex<f64>,
}

impl QueryResult {
    fn new(machine: &Machine, start_ns: f64) -> QueryResult {
        QueryResult {
            rows: Mutex::new(None),
            done: AtomicBool::new(false),
            ws: WaitSet::new(machine),
            start_ns,
            finish_ns: Mutex::new(0.0),
        }
    }

    fn complete(&self, rows: Arc<Vec<Row>>, now_ns: f64) {
        *self.rows.lock() = Some(rows);
        *self.finish_ns.lock() = now_ns;
        self.done.store(true, Ordering::Release);
        self.ws.notify_all();
    }

    /// Whether the query finished.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

/// Handle to a submitted query.
#[derive(Clone)]
pub struct QueryHandle {
    /// The query's submission id.
    pub id: u64,
    result: Arc<QueryResult>,
}

impl QueryHandle {
    /// Block (virtual time if called from a vthread) until the query
    /// completes; returns its result rows.
    pub fn wait(&self) -> Arc<Vec<Row>> {
        let r = Arc::clone(&self.result);
        self.result
            .ws
            .wait_for(move || {
                if r.done.load(Ordering::Acquire) {
                    Some(r.rows.lock().clone().expect("done without rows"))
                } else {
                    None
                }
            })
    }

    /// Response time in virtual seconds (valid after completion).
    pub fn latency_secs(&self) -> f64 {
        (*self.result.finish_ns.lock() - self.result.start_ns) / 1e9
    }

    /// Completion time in virtual nanoseconds.
    pub fn finish_ns(&self) -> f64 {
        *self.result.finish_ns.lock()
    }

    /// Whether the query finished.
    pub fn is_done(&self) -> bool {
        self.result.is_done()
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
    /// Whole-plan result reuses (sp_aggs).
    pub result_satellites: u64,
}

struct EngineInner {
    machine: Machine,
    storage: StorageManager,
    cost: CostModel,
    config: QpipeConfig,
    scan: ScanService,
    joins: SpRegistry,
    results: Mutex<FxHashMap<u64, Arc<QueryResult>>>,
    gate_ws: WaitSet,
    gate_open: Arc<AtomicBool>,
    join_level_shares: Mutex<Vec<u64>>,
    result_shares: AtomicU64,
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
                results: Mutex::new(FxHashMap::default()),
                gate_ws: WaitSet::new(machine),
                gate_open: Arc::new(AtomicBool::new(true)),
                join_level_shares: Mutex::new(Vec::new()),
                result_shares: AtomicU64::new(0),
                in_flight: Arc::new(AtomicU64::new(0)),
            }),
        }
    }

    /// The machine this engine runs on.
    pub fn machine(&self) -> &Machine {
        &self.inner.machine
    }

    /// The engine's storage manager.
    pub fn storage(&self) -> &StorageManager {
        &self.inner.storage
    }

    /// Active configuration.
    pub fn config(&self) -> QpipeConfig {
        self.inner.config
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
            spawn_independent_scan(
                &inner.machine,
                &inner.storage,
                inner.cost,
                inner.config.exchange,
                inner.config.cap_pages,
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

    /// Submit one query; returns immediately with a handle. Callable from a
    /// coordinator vthread (deterministic batches) or an external thread.
    pub fn submit(&self, q: &StarQuery) -> QueryHandle {
        let inner = &self.inner;
        let cost = inner.cost;
        let now = inner.machine.now_ns();
        inner.in_flight.fetch_add(1, Ordering::AcqRel);
        let result = Arc::new(QueryResult::new(&inner.machine, now));
        let handle = QueryHandle {
            id: q.id,
            result: Arc::clone(&result),
        };

        // ---- whole-plan SP (identical queries) --------------------------
        if inner.config.sp_aggs {
            let sig = q.full_signature();
            let mut map = inner.results.lock();
            if let Some(host) = map.get(&sig) {
                if !host.is_done() {
                    let host = Arc::clone(host);
                    let res = Arc::clone(&result);
                    let in_flight = Arc::clone(&inner.in_flight);
                    inner.result_shares.fetch_add(1, Ordering::Relaxed);
                    self.spawn_packet(&format!("res-sat-q{}", q.id), move |ctx| {
                        let rows = host.ws.wait_for(|| {
                            if host.done.load(Ordering::Acquire) {
                                Some(host.rows.lock().clone().expect("done w/o rows"))
                            } else {
                                None
                            }
                        });
                        // Copy the buffered final results to this client.
                        let bytes: usize = rows.len() * 64;
                        ctx.charge(CostKind::Copy, cost.copy_cost(bytes));
                        let done_ns = ctx.machine().now_ns();
                        res.complete(rows, done_ns);
                        in_flight.fetch_sub(1, Ordering::AcqRel);
                    });
                    return handle;
                }
            }
            map.insert(sig, Arc::clone(&result));
        }

        // ---- bind -------------------------------------------------------
        let d = q.dims.len();
        let fact_t = inner.storage.table(&q.fact);
        let dim_ts: Vec<TableId> =
            q.dims.iter().map(|dj| inner.storage.table(&dj.dim)).collect();
        let fact_schema = inner.storage.schema(fact_t);
        let dim_schemas: Vec<_> = dim_ts.iter().map(|&t| inner.storage.schema(t)).collect();
        let dim_refs: Vec<&workshare_common::Schema> =
            dim_schemas.iter().map(|s| s.as_ref()).collect();
        let bound: Arc<BoundQuery> = Arc::new(bind(&fact_schema, &dim_refs, q));

        // ---- SP at the join stage: reuse the deepest identical prefix ----
        let mut stream: Option<ExchangeReader> = None;
        let mut start_level = 0usize;
        if inner.config.sp_joins && d > 0 {
            for k in (0..d).rev() {
                if let Some(r) =
                    inner
                        .joins
                        .try_attach(q.join_prefix_signature(k), Wop::Step, None)
                {
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
                let b = Arc::clone(&bound);
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
                inner
                    .joins
                    .register(q.join_prefix_signature(k), out.clone(), Wop::Step);
            }
            let out_primary = out.attach(None);
            let probe = stream;
            stream = out_primary;
            self.spawn_packet(&format!("join-q{}-{k}", q.id), move |ctx| {
                ops::run_hash_join(ctx, build_r, probe, out, k, &cost);
            });
        }

        // ---- aggregate / sort / result ------------------------------------
        let order = q.order_by.clone();
        let b = Arc::clone(&bound);
        let in_flight = Arc::clone(&inner.in_flight);
        self.spawn_packet(&format!("agg-q{}", q.id), move |ctx| {
            let rows = ops::run_aggregate(ctx, stream, &b, &order, &cost);
            let done_ns = ctx.machine().now_ns();
            result.complete(Arc::new(rows), done_ns);
            in_flight.fetch_sub(1, Ordering::AcqRel);
        });
        handle
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
            result_satellites: self.inner.result_shares.load(Ordering::Relaxed),
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
        let engine = QpipeEngine::new(&m, &sm, config, CostModel::default());
        let e2 = engine.clone();
        let out = m
            .spawn("coord", move |_ctx| {
                e2.close_gate();
                let handles: Vec<_> = queries.iter().map(|q| e2.submit(q)).collect();
                e2.open_gate();
                handles.iter().map(|h| h.wait()).collect::<Vec<_>>()
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
                        sp_aggs: false,
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
            sp_aggs: false,
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
            sp_aggs: false,
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
    fn sp_aggs_reuses_identical_whole_plans() {
        let config = QpipeConfig {
            exchange: ExchangeKind::Spl,
            circular_scans: true,
            sp_joins: true,
            sp_aggs: true,
            cs_prediction: false,
            cap_pages: 4,
        };
        let queries = vec![query(1, false), query(2, false)];
        let (res, engine) = run_config(config, queries);
        assert_eq!(*res[0], expected(false));
        assert_eq!(*res[1], expected(false));
        assert_eq!(engine.sharing_stats().result_satellites, 1);
    }

    #[test]
    fn sharing_reduces_total_cpu_work() {
        let queries: Vec<StarQuery> = (0..8).map(|i| query(i, false)).collect();
        let none = QpipeConfig {
            exchange: ExchangeKind::Spl,
            circular_scans: false,
            sp_joins: false,
            sp_aggs: false,
            cs_prediction: false,
            cap_pages: 4,
        };
        let shared = QpipeConfig {
            sp_joins: true,
            circular_scans: true,
            ..none
        };
        let (m1, sm1) = setup();
        let e1 = QpipeEngine::new(&m1, &sm1, none, CostModel::default());
        let qs = queries.clone();
        let e1c = e1.clone();
        m1.spawn("coord", move |_| {
            e1c.close_gate();
            let hs: Vec<_> = qs.iter().map(|q| e1c.submit(q)).collect();
            e1c.open_gate();
            for h in hs {
                h.wait();
            }
        })
        .join()
        .unwrap();
        e1.shutdown();

        let (m2, sm2) = setup();
        let e2 = QpipeEngine::new(&m2, &sm2, shared, CostModel::default());
        let e2c = e2.clone();
        m2.spawn("coord", move |_| {
            e2c.close_gate();
            let hs: Vec<_> = queries.iter().map(|q| e2c.submit(q)).collect();
            e2c.open_gate();
            for h in hs {
                h.wait();
            }
        })
        .join()
        .unwrap();
        e2.shutdown();

        let work_none = m1.cpu_breakdown().total_ns();
        let work_shared = m2.cpu_breakdown().total_ns();
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
