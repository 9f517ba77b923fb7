//! Every call into the repository's crates is in this file, so that a change
//! to their interfaces is a change to one file of the benchmark.
//!
//! Three groups: the untraced runs through `harness::run_batch` and
//! `harness::run_service` (the entry points users and the figure binaries
//! call), the traced replays of the same workloads through the benchmark's
//! own driver with a span around each call, and the per-layer sweep.
//!
//! Nothing here is slated for deletion by ROADMAP item 3: no `run_clients`,
//! no `RunConfig::multifact = false`, no `fault_panic_stride`, no
//! `cjoin::publish`.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use workshare_cjoin::{filter_page_vectorized, DimEntry, FilterCore, FilterScratch};
use workshare_common::agg::Aggregator;
use workshare_common::bind::{bind, BoundQuery};
use workshare_common::fxhash::FxHashMap;
use workshare_common::value::Row;
use workshare_common::{QueryBitmap, Schema, SharingSignals, StarQuery};
use workshare_core::volcano::{run_volcano_query, volcano_reference};
use workshare_core::{
    harness, workload, Dataset, Engine, ExecPolicy, GovernorConfig, IoMode, Outcome, RunConfig,
    ServiceLoad, SharingGovernor,
};
use workshare_sim::{CostKind, Machine, COST_KINDS};
use workshare_storage::StorageManager;

use crate::metrics::nearest_rank;
use crate::trace::Tracer;
use crate::workloads::{derive_seed, Load, Residency, Shape};

/// Every workload reads the SSB fact table.
const FACT: &str = "lineorder";

/// The `<kind>` of `sim.cpu.<kind>.v_s`, in the order of `COST_KINDS` and of
/// `Counters::cpu_v_s`: the variant's name in lower case (`scan`, `select`,
/// `hashing`, ...).
pub fn cost_kind_names() -> Vec<String> {
    COST_KINDS
        .iter()
        .map(|kind| format!("{kind:?}").to_lowercase())
        .collect()
}

/// Virtual back-off of a closed-loop client whose submission was shed or
/// failed, as in `harness::run_service`: neither consumes virtual time, so
/// without it the loop would spin with the clock standing still.
const SHED_BACKOFF_NS: f64 = 10e6;

fn run_config(shape: &Shape) -> RunConfig {
    let mut config = RunConfig::governed(ExecPolicy::Adaptive);
    config.cores = shape.cores;
    if let Residency::DirectDisk { pool_pages } = shape.residency {
        config.io_mode = IoMode::DirectDisk;
        config.buffer_pool_pages = Some(pool_pages);
    }
    config
}

pub struct Data {
    dataset: Dataset,
    /// Rows over all five tables.
    pub rows: u64,
    pub fact_rows: u64,
    pub pages: usize,
    /// Host seconds `Dataset::ssb` took.
    pub gen_wall_s: f64,
}

pub fn generate(shape: &Shape, seed: u64) -> Data {
    let start = Instant::now();
    let dataset = Dataset::ssb(shape.scale, seed);
    let gen_wall_s = start.elapsed().as_secs_f64();
    let config = run_config(shape);
    let storage = dataset.instantiate(config.storage_config(), config.cost);
    let rows = dataset
        .table_names()
        .iter()
        .map(|name| storage.row_count(storage.table(name)) as u64)
        .sum();
    Data {
        rows,
        fact_rows: storage.row_count(storage.table(FACT)) as u64,
        pages: dataset.total_pages(),
        gen_wall_s,
        dataset,
    }
}

pub struct Queries(Vec<StarQuery>);

impl Queries {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// The SSB mix of the paper's Fig. 16: Q1.1, Q2.1, Q3.2 in turn, with
/// predicates drawn from `seed`.
pub fn mix_queries(n: usize, seed: u64) -> Queries {
    Queries(workload::ssb_mix(n, seed))
}

/// One `harness::run_batch` or one traced replay of it.
pub struct BatchRep {
    /// Per query, virtual seconds from submission to completion.
    pub latencies_s: Vec<f64>,
    /// Virtual seconds from the start to the last completion.
    pub makespan_s: f64,
    /// Virtual CPU seconds charged, over all cost kinds.
    pub cpu_s: f64,
    /// Queries that ended in an error outcome. The harness report does not
    /// carry them, so an untraced repetition reads 0 here.
    pub errors: u64,
    pub host_s: f64,
}

pub fn run_batch(data: &Data, shape: &Shape, queries: &Queries) -> BatchRep {
    let config = run_config(shape);
    let start = Instant::now();
    let report = harness::run_batch(&data.dataset, &config, &queries.0, false);
    BatchRep {
        host_s: start.elapsed().as_secs_f64(),
        makespan_s: report.makespan_secs,
        cpu_s: report.cpu.total_secs(),
        latencies_s: report.latencies_secs,
        errors: 0,
    }
}

/// The query a closed-loop client sends under `id` (client << 32 | sequence):
/// the Fig. 16 mix in turn per client, its predicates drawn from the run's
/// seed and the id alone. The harness's own per-client generator is left
/// unused, so the traced replay sends exactly the queries the harness does.
fn closed_loop_query(seed: u64, id: u64) -> StarQuery {
    let mut rng = workload::rng(derive_seed(seed, id));
    match id % 3 {
        0 => workload::ssb_q1_1(id, &mut rng),
        1 => workload::ssb_q2_1(id, &mut rng),
        _ => workload::ssb_q3_2(id, &mut rng),
    }
}

/// One closed-loop window through `harness::run_service` or a traced replay.
pub struct ClosedRun {
    pub submitted: u64,
    /// Completed inside the window; the latencies are theirs.
    pub completed: u64,
    /// Admitted, completed after the window closed.
    pub late: u64,
    pub shed: u64,
    pub errors: u64,
    /// Every submission ended as exactly one of the four above.
    pub conserved: bool,
    pub mean_s: f64,
    pub p50_s: f64,
    pub p99_s: f64,
    /// Virtual core-seconds the machine was busy.
    pub cpu_s: f64,
    pub window_s: f64,
    pub host_s: f64,
    /// Host seconds since the run began at which each query was submitted,
    /// ascending: how the run's pace over host time is seen from outside.
    pub submitted_at_s: Vec<f64>,
}

fn clients_of(shape: &Shape) -> usize {
    match shape.load {
        Load::Closed { clients, .. } => clients,
        Load::Batch { .. } => panic!("{} is not a closed-loop workload", shape.name),
    }
}

pub fn run_closed(data: &Data, shape: &Shape, window_s: f64, seed: u64) -> ClosedRun {
    let config = run_config(shape);
    let load = ServiceLoad {
        clients: clients_of(shape),
        arrivals_per_sec: None,
        tenants: 1,
        window_secs: window_s,
        seed,
    };
    let start = Instant::now();
    // The harness asks for each client's next query at the moment it submits
    // it, so the generator doubles as a clock on submissions.
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let clock = Arc::clone(&stamps);
    let report = harness::run_service(&data.dataset, &config, FACT, load, move |id, _rng| {
        let at = start.elapsed().as_secs_f64();
        clock.lock().expect("no client panics holding it").push(at);
        closed_loop_query(seed, id)
    });
    let mut submitted_at_s = std::mem::take(&mut *stamps.lock().expect("the clients are done"));
    submitted_at_s.sort_by(f64::total_cmp);
    ClosedRun {
        host_s: start.elapsed().as_secs_f64(),
        submitted_at_s,
        submitted: report.submitted,
        completed: report.completed,
        late: report.completed_late,
        shed: report.shed_queue_full + report.shed_deadline,
        errors: report.errors,
        conserved: report.is_conserved(),
        mean_s: report.mean_latency_secs,
        p50_s: report.p50_latency_secs,
        p99_s: report.p99_latency_secs,
        cpu_s: report.avg_cores_used * window_s,
        window_s,
    }
}

/// Run `queries` as one batch with results kept and count those whose rows
/// differ from the single-threaded Volcano reference.
pub fn result_mismatches(data: &Data, shape: &Shape, queries: &Queries) -> usize {
    let config = run_config(shape);
    let report = harness::run_batch(&data.dataset, &config, &queries.0, true);
    let got = report.results.expect("run_batch was asked to keep results");
    let machine = Machine::new(config.machine_config());
    let storage = data
        .dataset
        .instantiate(config.storage_config(), config.cost);
    let qs = queries.0.clone();
    let expected = machine
        .spawn("oracle", move |ctx| {
            qs.iter()
                .map(|q| volcano_reference(ctx, &storage, q, &config.cost))
                .collect::<Vec<_>>()
        })
        .join()
        .expect("the Volcano reference panicked");
    got.iter().zip(&expected).filter(|(g, e)| g != e).count()
}

/// What the engine, the machine and the storage manager counted, summed over
/// the traced run.
#[derive(Default)]
pub struct Counters {
    /// Virtual CPU seconds per cost kind, in the order of `COST_KINDS`.
    pub cpu_v_s: [f64; 11],
    pub busy_core_s: f64,
    /// Virtual seconds the machines ran for.
    pub elapsed_v_s: f64,
    pub disk_bytes: u64,
    pub disk_requests: u64,
    pub disk_seeks: u64,
    pub disk_busy_v_s: f64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub fs_hits: u64,
    pub fs_misses: u64,
    pub admitted: u64,
    pub admission_batches: u64,
    pub sp_shares: u64,
    pub admission_dim_rows: u64,
    pub fabric_windows: u64,
    pub fabric_merged: u64,
    pub fabric_dim_pages: u64,
    pub routed_shared: u64,
    pub routed_query_centric: u64,
    pub flips: u64,
    /// Sum over engines of the governor's shared-route residual.
    pub shared_residual_sum: f64,
    /// Engines built (one per repetition or window).
    pub engines: u64,
    pub completed: u64,
}

impl Counters {
    fn read(&mut self, machine: &Machine, storage: &StorageManager, engine: &Engine) {
        let cpu = machine.cpu_breakdown();
        for (slot, kind) in self.cpu_v_s.iter_mut().zip(COST_KINDS) {
            *slot += cpu.secs(kind);
        }
        self.busy_core_s += machine.busy_core_secs();
        self.elapsed_v_s += machine.now_secs();
        let disk = machine.disk_stats();
        self.disk_bytes += disk.bytes_read;
        self.disk_requests += disk.requests;
        self.disk_seeks += disk.seeks;
        self.disk_busy_v_s += disk.busy_ns / 1e9;
        let (hits, misses) = storage.pool_stats();
        self.pool_hits += hits;
        self.pool_misses += misses;
        let (hits, misses) = storage.fs_stats();
        self.fs_hits += hits;
        self.fs_misses += misses;
        if let Some(cjoin) = engine.cjoin_stats() {
            self.admitted += cjoin.admitted;
            self.admission_batches += cjoin.admission_batches;
            self.sp_shares += cjoin.sp_shares;
            self.admission_dim_rows += cjoin.admission_dim_rows;
        }
        if let Some(fabric) = engine.fabric_stats() {
            self.fabric_windows += fabric.batches;
            self.fabric_merged += fabric.merged_requests;
            self.fabric_dim_pages += fabric.admission_dim_pages;
        }
        if let Some(governor) = engine.governor_stats() {
            self.routed_shared += governor.routed_shared;
            self.routed_query_centric += governor.routed_query_centric;
            self.flips += governor.flips;
            self.shared_residual_sum += governor.shared_residual;
        }
        self.engines += 1;
    }
}

/// What `harness::run_batch` and `harness::run_service` do first, with a span
/// around each step.
fn build_engine(
    data: &Data,
    config: &RunConfig,
    request: u64,
    tracer: &mut Tracer,
) -> (Machine, StorageManager, Engine) {
    let span = tracer.enter("sim.machine.new", request);
    let machine = Machine::new(config.machine_config());
    tracer.exit(span);
    let span = tracer.enter("storage.instantiate", request);
    let storage = data
        .dataset
        .instantiate(config.storage_config(), config.cost);
    tracer.exit(span);
    let span = tracer.enter("core.engine.new", request);
    let engine = Engine::new(&machine, &storage, config, FACT);
    tracer.exit(span);
    (machine, storage, engine)
}

fn read_and_shut_down(
    machine: &Machine,
    storage: &StorageManager,
    engine: &Engine,
    request: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) {
    let span = tracer.enter("core.engine.stats", request);
    counters.read(machine, storage, engine);
    tracer.exit(span);
    let span = tracer.enter("core.engine.shutdown", request);
    engine.shutdown();
    tracer.exit(span);
}

/// `harness::run_batch`, replayed call by call with spans. `rep` tags them.
pub fn run_batch_traced(
    data: &Data,
    shape: &Shape,
    queries: &Queries,
    rep: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> BatchRep {
    let config = run_config(shape);
    let start = Instant::now();
    let rep_span = tracer.enter("workload.rep", rep);
    let (machine, storage, engine) = build_engine(data, &config, rep, tracer);
    let start_ns = machine.now_ns();
    let cpu_before = machine.cpu_breakdown();

    let batch_span = tracer.enter("workload.batch", rep);
    let mut spans = tracer.fork(2 * queries.len() + 2);
    let driver = engine.clone();
    let qs = queries.0.clone();
    let (latencies_s, errors, spans) = machine
        .spawn("harness", move |_ctx| {
            let gate = spans.enter("core.engine.close_gate", rep);
            driver.close_gate();
            spans.exit(gate);
            let tickets: Vec<_> = qs
                .iter()
                .map(|q| {
                    let span = spans.enter("core.engine.submit", rep << 32 | q.id);
                    let ticket = driver.submit(q);
                    spans.exit(span);
                    ticket
                })
                .collect();
            let gate = spans.enter("core.engine.open_gate", rep);
            driver.open_gate();
            spans.exit(gate);
            let mut latencies_s = Vec::with_capacity(tickets.len());
            let mut errors = 0u64;
            for (q, ticket) in qs.iter().zip(&tickets) {
                let span = spans.enter("core.ticket.wait", rep << 32 | q.id);
                ticket.wait();
                spans.exit(span);
                latencies_s.push(ticket.latency_secs());
                errors += u64::from(ticket.error().is_some());
            }
            (latencies_s, errors, spans)
        })
        .join()
        .expect("the traced batch driver panicked");
    tracer.absorb(spans);
    tracer.exit(batch_span);

    let makespan_s = (machine.now_ns() - start_ns) / 1e9;
    let cpu_s = machine.cpu_breakdown().delta(&cpu_before).total_secs();
    counters.completed += latencies_s.len() as u64 - errors;
    read_and_shut_down(&machine, &storage, &engine, rep, tracer, counters);
    tracer.exit(rep_span);
    BatchRep {
        latencies_s,
        makespan_s,
        cpu_s,
        errors,
        host_s: start.elapsed().as_secs_f64(),
    }
}

#[derive(Default)]
struct Tally {
    late: u64,
    shed: u64,
    errors: u64,
    latencies_s: Vec<f64>,
    submitted_at_s: Vec<f64>,
}

/// The closed loop of `harness::run_service`, replayed call by call with
/// spans.
pub fn run_closed_traced(
    data: &Data,
    shape: &Shape,
    window_s: f64,
    seed: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> ClosedRun {
    let config = run_config(shape);
    let clients = clients_of(shape);
    let start = Instant::now();
    let window_span = tracer.enter("workload.window", 0);
    let (machine, storage, engine) = build_engine(data, &config, 0, tracer);

    let clients_span = tracer.enter("workload.clients", 0);
    let forks: Vec<Tracer> = (0..clients).map(|_| tracer.fork(1 << 13)).collect();
    let driver = engine.clone();
    let finished: Vec<(Tally, Tracer)> = machine
        .spawn("clients", move |ctx| {
            let window_end_ns = ctx.machine().now_ns() + window_s * 1e9;
            let workers: Vec<_> = forks
                .into_iter()
                .enumerate()
                .map(|(c, mut spans)| {
                    let engine = driver.clone();
                    ctx.machine().spawn(&format!("client-{c}"), move |ctx| {
                        let mut tally = Tally::default();
                        let mut seq = 0u64;
                        while ctx.machine().now_ns() < window_end_ns {
                            let id = (c as u64) << 32 | seq;
                            seq += 1;
                            tally.submitted_at_s.push(start.elapsed().as_secs_f64());
                            let query = closed_loop_query(seed, id);
                            let query_span = spans.enter("workload.query", id);
                            let span = spans.enter("core.engine.submit", id);
                            let outcome = engine.try_submit(&query, 0);
                            spans.exit(span);
                            match outcome {
                                Outcome::Admitted(ticket) => {
                                    let span = spans.enter("core.ticket.wait", id);
                                    ticket.wait();
                                    spans.exit(span);
                                    if ticket.error().is_some() {
                                        tally.errors += 1;
                                        ctx.sleep(SHED_BACKOFF_NS);
                                    } else if ticket.finish_ns() <= window_end_ns {
                                        tally.latencies_s.push(ticket.latency_secs());
                                    } else {
                                        tally.late += 1;
                                    }
                                }
                                Outcome::Shed { .. } => {
                                    tally.shed += 1;
                                    ctx.sleep(SHED_BACKOFF_NS);
                                }
                            }
                            spans.exit(query_span);
                        }
                        (tally, spans)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("a traced client panicked"))
                .collect()
        })
        .join()
        .expect("the traced client driver panicked");

    let mut total = Tally::default();
    for (tally, spans) in finished {
        total.submitted_at_s.extend(tally.submitted_at_s);
        total.late += tally.late;
        total.shed += tally.shed;
        total.errors += tally.errors;
        total.latencies_s.extend(tally.latencies_s);
        tracer.absorb(spans);
    }
    tracer.exit(clients_span);
    total.latencies_s.sort_by(f64::total_cmp);
    total.submitted_at_s.sort_by(f64::total_cmp);
    let completed = total.latencies_s.len() as u64;
    let submitted = total.submitted_at_s.len() as u64;
    counters.completed += completed;
    let cpu_s = machine.busy_core_secs();
    read_and_shut_down(&machine, &storage, &engine, 0, tracer, counters);
    tracer.exit(window_span);
    ClosedRun {
        submitted,
        completed,
        late: total.late,
        shed: total.shed,
        errors: total.errors,
        conserved: submitted == completed + total.late + total.shed + total.errors,
        mean_s: total.latencies_s.iter().sum::<f64>() / completed.max(1) as f64,
        p50_s: nearest_rank(&total.latencies_s, 0.5),
        p99_s: nearest_rank(&total.latencies_s, 0.99),
        cpu_s,
        window_s,
        host_s: start.elapsed().as_secs_f64(),
        submitted_at_s: total.submitted_at_s,
    }
}

/// Counts and virtual charges of the per-layer sweep. The host times are in
/// the spans `storage.read_page`, `common.codec.decode`,
/// `common.predicate.eval_batch`, `cjoin.filter` and `common.agg.update`.
#[derive(Default)]
pub struct Sweep {
    pub pages: u64,
    pub tuples: u64,
    /// Virtual ns that passed inside `try_read_page` (latch charge plus I/O).
    pub read_v_ns: f64,
    pub decode_v_ns: f64,
    /// Predicate terms × tuples evaluated.
    pub predicate_term_tuples: u64,
    pub predicate_v_ns: f64,
    /// Tuple × filter probe steps.
    pub filter_probes: u64,
    /// Hash probes made: one per run of equal consecutive keys.
    pub filter_key_runs: u64,
    pub filter_v_ns: f64,
    pub agg_updates: u64,
    pub agg_v_ns: f64,
}

/// The shared filters `queries` would register in a CJOIN stage: one per
/// distinct (dimension, foreign key, primary key), holding every dimension
/// row some query selects with the bits of the queries that select it.
fn build_filters(
    ctx: &workshare_sim::SimCtx,
    storage: &StorageManager,
    queries: &[StarQuery],
    bounds: &[BoundQuery],
    slots: usize,
) -> (Vec<Arc<FilterCore>>, Vec<Vec<usize>>) {
    let mut filters: Vec<FilterCore> = Vec::new();
    let mut decoded: FxHashMap<u32, Vec<Arc<Row>>> = FxHashMap::default();
    // Per query, per dimension join: the filter it registered into.
    let mut filter_of = Vec::with_capacity(queries.len());
    for (slot, (q, bound)) in queries.iter().zip(bounds).enumerate() {
        let mut mine = Vec::with_capacity(q.dims.len());
        for (k, join) in q.dims.iter().enumerate() {
            let dim = storage.table(&join.dim);
            let (fk, pk) = (bound.fact_fk_idx[k], bound.dim_pk_idx[k]);
            let fi = filters
                .iter()
                .position(|f| f.dim == dim && f.fact_fk_idx == fk && f.dim_pk_idx == pk)
                .unwrap_or_else(|| {
                    filters.push(FilterCore {
                        dim,
                        fact_fk_idx: fk,
                        dim_pk_idx: pk,
                        hash: FxHashMap::default(),
                        referencing: QueryBitmap::zeros(slots),
                    });
                    filters.len() - 1
                });
            let rows = decoded.entry(dim.0).or_insert_with(|| {
                let schema = storage.schema(dim);
                let stream = storage.new_stream();
                (0..storage.page_count(dim))
                    .flat_map(|p| storage.read_page(ctx, dim, p, stream).decode_all(&schema))
                    .map(Arc::new)
                    .collect()
            });
            let filter = &mut filters[fi];
            filter.referencing.set(slot);
            for row in rows.iter().filter(|row| join.pred.eval(row)) {
                filter
                    .hash
                    .entry(row[pk].as_int())
                    .or_insert_with(|| DimEntry {
                        row: Arc::clone(row),
                        bits: QueryBitmap::zeros(slots),
                    })
                    .bits
                    .set(slot);
            }
            mine.push(fi);
        }
        filter_of.push(mine);
    }
    (filters.into_iter().map(Arc::new).collect(), filter_of)
}

/// Sweep the fact table once, page by page, through the calls the shared
/// path makes on every page: read, decode, evaluate a fact predicate, run the
/// shared filter built from `queries`' own dimension predicates, and fold the
/// survivors into each query's aggregate. Each call gets a span; each page's
/// spans nest under one `sweep.page`.
pub fn layer_sweep(data: &Data, shape: &Shape, queries: &Queries, tracer: &mut Tracer) -> Sweep {
    let config = run_config(shape);
    let cost = config.cost;
    let machine = Machine::new(config.machine_config());
    let storage = data.dataset.instantiate(config.storage_config(), cost);
    let qs = queries.0.clone();
    let mut spans = tracer.fork(8 * data.pages + 8);
    let sweep_span = tracer.enter("sweep", 0);
    let (sweep, spans) = machine
        .spawn("sweep", move |ctx| {
            let fact = storage.table(FACT);
            let fact_schema = storage.schema(fact);
            let bounds: Vec<BoundQuery> = qs
                .iter()
                .map(|q| {
                    let dim_schemas: Vec<Arc<Schema>> = q
                        .dims
                        .iter()
                        .map(|d| storage.schema(storage.table(&d.dim)))
                        .collect();
                    let refs: Vec<&Schema> = dim_schemas.iter().map(|s| s.as_ref()).collect();
                    bind(&fact_schema, &refs, q)
                })
                .collect();
            // The stage keeps 64 query slots per bitmap word.
            let slots = qs.len().next_multiple_of(64);
            let build = spans.enter("sweep.build_filters", 0);
            let (filters, filter_of) = build_filters(ctx, &storage, &qs, &bounds, slots);
            spans.exit(build);
            let mut members = QueryBitmap::zeros(slots);
            (0..qs.len()).for_each(|slot| members.set(slot));
            let mut scratch = FilterScratch::default();
            let mut aggs: Vec<Aggregator> = bounds.iter().map(Aggregator::new).collect();
            // Q1.1 leads the mix and is the template with a fact predicate.
            let predicate = &qs[0].fact_pred;
            let terms = predicate.term_count().max(1);

            let mut sweep = Sweep::default();
            let stream = storage.new_stream();
            for p in 0..storage.page_count(fact) {
                let request = p as u64;
                let page_span = spans.enter("sweep.page", request);

                let span = spans.enter("storage.read_page", request);
                let before_ns = ctx.machine().now_ns();
                let page = storage
                    .try_read_page(ctx, fact, p, stream)
                    .expect("no fault is armed");
                sweep.read_v_ns += ctx.machine().now_ns() - before_ns;
                spans.exit(span);

                let span = spans.enter("common.codec.decode", request);
                let rows = page
                    .try_decode_all(&fact_schema)
                    .expect("generated pages decode");
                spans.exit(span);
                let n = rows.len();
                sweep.decode_v_ns += cost.scan_page_fixed_ns + cost.scan_tuple_ns * n as f64;

                let span = spans.enter("common.predicate.eval_batch", request);
                black_box(predicate.eval_batch(&rows).count());
                spans.exit(span);
                sweep.predicate_term_tuples += (terms * n) as u64;
                sweep.predicate_v_ns += cost.select_batch_cost(terms, n);

                let span = spans.enter("cjoin.filter", request);
                let (filtered, work) =
                    filter_page_vectorized(&filters, &rows, &members, &mut scratch);
                spans.exit(span);
                sweep.filter_probes += work.probes;
                sweep.filter_key_runs += work.key_runs;
                sweep.filter_v_ns += cost.filter_batch_cost(work.key_runs, work.bitmap_words);

                // What the distributor hands each subscribed query: the fact
                // prefix plus the payload of every dimension it joined.
                let span = spans.enter("sweep.assemble", request);
                let mut joined: Vec<(usize, Row)> = Vec::new();
                for (j, &i) in filtered.selected.iter().enumerate() {
                    let fact_row = &rows[i as usize];
                    for slot in filtered.bank.row_ones(j) {
                        if !qs[slot].fact_pred.eval(fact_row) {
                            continue;
                        }
                        let bound = &bounds[slot];
                        let mut row = bound.project_fact(fact_row);
                        for (k, &fi) in filter_of[slot].iter().enumerate() {
                            let dim_row = filtered
                                .dim_match(j, fi)
                                .expect("a surviving bit has a match in each of its filters");
                            row.extend(
                                bound.dim_payload_idx[k].iter().map(|&c| dim_row[c].clone()),
                            );
                        }
                        joined.push((slot, row));
                    }
                }
                spans.exit(span);

                let span = spans.enter("common.agg.update", request);
                for (slot, row) in &joined {
                    aggs[*slot].update(row);
                }
                spans.exit(span);
                sweep.agg_updates += joined.len() as u64;
                sweep.agg_v_ns += cost.agg_update_tuple_ns * joined.len() as f64;

                spans.exit(page_span);
                sweep.pages += 1;
                sweep.tuples += n as u64;
            }
            black_box(aggs.iter().map(Aggregator::group_count).sum::<usize>());
            (sweep, spans)
        })
        .join()
        .expect("the layer sweep panicked");
    tracer.absorb(spans);
    tracer.exit(sweep_span);
    sweep
}

/// Host ns per `SimCtx::charge` with `threads` vthreads charging at once.
/// Each thread makes enough charges that starting it does not count.
pub fn charge_wall_ns(shape: &Shape, threads: usize, charges_each: usize) -> f64 {
    let machine = Machine::new(run_config(shape).machine_config());
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            machine.spawn("charger", move |ctx| {
                for _ in 0..charges_each {
                    ctx.charge(CostKind::Misc, 1_000.0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("a charging vthread panicked");
    }
    start.elapsed().as_nanos() as f64 / (threads * charges_each) as f64
}

/// Host ns to start one vthread that does nothing and wait for it.
pub fn spawn_join_wall_ns(shape: &Shape, times: usize) -> f64 {
    let machine = Machine::new(run_config(shape).machine_config());
    let start = Instant::now();
    for _ in 0..times {
        machine
            .spawn("idle", |_ctx| ())
            .join()
            .expect("an idle vthread panicked");
    }
    start.elapsed().as_nanos() as f64 / times as f64
}

/// Host ns per routing decision of a governor that sees `shape`'s crowd.
pub fn governor_decide_wall_ns(data: &Data, shape: &Shape, queries: &Queries, times: usize) -> f64 {
    let config = run_config(shape);
    let governor = SharingGovernor::new(config.cost, GovernorConfig::default());
    let query = &queries.0[0];
    let signals = SharingSignals::cold(
        data.fact_rows as f64,
        (data.rows - data.fact_rows) as f64,
        query.dims.len(),
    )
    .with_crowd(shape.concurrency() as f64);
    let key = query.shape_signature();
    let start = Instant::now();
    for _ in 0..times {
        black_box(governor.decide_keyed(black_box(key), &signals));
    }
    start.elapsed().as_nanos() as f64 / times as f64
}

/// One query start to finish on the query-centric path, alone on a machine:
/// (host ns, virtual ns, fact tuples scanned).
pub fn volcano_one(
    data: &Data,
    shape: &Shape,
    queries: &Queries,
    tracer: &mut Tracer,
) -> (f64, f64, u64) {
    let config = run_config(shape);
    let machine = Machine::new(config.machine_config());
    let storage = data
        .dataset
        .instantiate(config.storage_config(), config.cost);
    let query = queries.0[0].clone();
    let span = tracer.enter("core.volcano", query.id);
    let start = Instant::now();
    machine
        .spawn("volcano", move |ctx| {
            black_box(run_volcano_query(ctx, &storage, &query, &config.cost).len())
        })
        .join()
        .expect("the Volcano query panicked");
    let wall_ns = start.elapsed().as_nanos() as f64;
    tracer.exit(span);
    (wall_ns, machine.now_ns(), data.fact_rows)
}
