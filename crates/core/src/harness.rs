//! Experiment harness: batch runs and closed-loop client runs, reporting the
//! measurements the paper's figures and tables are built from.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use workshare_common::value::Row;
use workshare_common::StarQuery;
use workshare_sim::{CostKind, CpuBreakdown, DiskStats, LatencyHistogram, Machine, SimCtx};

use crate::config::RunConfig;
use crate::dataset::Dataset;
use crate::engine::{Engine, Outcome, ShedReason};

/// Measurements of one batch run (the unit behind every response-time
/// figure).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Configuration label.
    pub config: &'static str,
    /// Number of queries.
    pub queries: usize,
    /// Per-query response times, seconds (submission → completion).
    pub latencies_secs: Vec<f64>,
    /// Batch makespan, seconds (start → last completion).
    pub makespan_secs: f64,
    /// The paper's "Avg. # Cores Used": core-busy time / makespan.
    pub avg_cores_used: f64,
    /// The paper's "Avg. Read Rate (MB/s)".
    pub read_rate_mbps: f64,
    /// Per-category CPU time consumed by the run.
    pub cpu: CpuBreakdown,
    /// Disk activity of the run.
    pub disk: DiskStats,
    /// QPipe sharing statistics (if the engine was a named QPipe variant).
    pub qpipe_sharing: Option<workshare_qpipe::SharingStats>,
    /// CJOIN statistics (if the engine was a CJOIN variant; aggregate over
    /// all sharded stages — plus the cross-stage fabric's physical reads —
    /// when governed).
    pub cjoin: Option<workshare_cjoin::CjoinStats>,
    /// Cross-stage admission-fabric counters (governed engines with
    /// [`RunConfig::admission_fabric`] on): batching windows, cross-stage
    /// merges, and the physical dimension pages read once per window on
    /// behalf of every stage.
    pub fabric: Option<workshare_cjoin::FabricStats>,
    /// Per-fact-table stage rows of a governed run's shared side: which
    /// sharded CJOIN stage served how many shared queries, labeled
    /// with the fact table (`Shared(lineorder)`). Empty for ungoverned
    /// engines.
    pub stages: Vec<crate::engine::StageRow>,
    /// Sharing-governor routing statistics (if the run was governed).
    pub governor: Option<crate::governor::GovernorStats>,
    /// Fault-injection and self-healing accounting (all-zero with the
    /// default, fully-off [`crate::config::FaultPlan`]).
    pub health: crate::health::HealthStats,
    /// Query results (kept only when requested).
    pub results: Option<Vec<Arc<Vec<Row>>>>,
}

impl RunReport {
    /// Mean response time, seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        if self.latencies_secs.is_empty() {
            return 0.0;
        }
        self.latencies_secs.iter().sum::<f64>() / self.latencies_secs.len() as f64
    }

    /// Maximum response time, seconds.
    pub fn max_latency_secs(&self) -> f64 {
        self.latencies_secs.iter().copied().fold(0.0, f64::max)
    }

    /// CJOIN admission time, seconds (Fig. 11/12's stacked `CJOIN
    /// Admission` component).
    pub fn admission_secs(&self) -> f64 {
        self.cpu.secs(CostKind::Admission)
    }
}

/// Run `queries` as one simultaneous batch (paper §5.1: "queries are
/// submitted at the same time, and are all evaluated concurrently").
pub fn run_batch(
    dataset: &Dataset,
    config: &RunConfig,
    queries: &[StarQuery],
    keep_results: bool,
) -> RunReport {
    run_batch_on(dataset, config, "lineorder", queries, keep_results)
}

/// [`run_batch`] with an explicit fact table (TPC-H workloads use
/// `lineitem`).
pub fn run_batch_on(
    dataset: &Dataset,
    config: &RunConfig,
    fact_table: &str,
    queries: &[StarQuery],
    keep_results: bool,
) -> RunReport {
    run_queries(dataset, config, fact_table, queries, keep_results, |_ctx, engine, qs| {
        engine.close_gate();
        let tickets = qs.iter().map(|q| engine.submit(q)).collect();
        engine.open_gate();
        tickets
    })
}

/// Run `queries` with a fixed interarrival delay between submissions
/// (virtual seconds). This is how Windows of Opportunity are probed: step
/// WoPs close as soon as the host emits its first page, while linear WoPs
/// (circular scans) accept latecomers until the host finishes.
pub fn run_staggered(
    dataset: &Dataset,
    config: &RunConfig,
    fact_table: &str,
    queries: &[StarQuery],
    interarrival_secs: f64,
    keep_results: bool,
) -> RunReport {
    run_queries(dataset, config, fact_table, queries, keep_results, move |ctx, engine, qs| {
        let mut tickets = Vec::with_capacity(qs.len());
        for (i, q) in qs.iter().enumerate() {
            if i > 0 && interarrival_secs > 0.0 {
                ctx.sleep(interarrival_secs * 1e9);
            }
            tickets.push(engine.submit(q));
        }
        tickets
    })
}

/// The driver behind [`run_batch_on`] and [`run_staggered`]: build machine,
/// storage and engine, run `submit` on a harness vthread to hand every
/// query to the engine, wait for all tickets, and assemble the report.
fn run_queries<S>(
    dataset: &Dataset,
    config: &RunConfig,
    fact_table: &str,
    queries: &[StarQuery],
    keep_results: bool,
    submit: S,
) -> RunReport
where
    S: FnOnce(&SimCtx, &Engine, &[StarQuery]) -> Vec<crate::Ticket> + Send + 'static,
{
    let machine = Machine::new(config.machine_config());
    let storage = dataset.instantiate(config.storage_config(), config.cost);
    let engine = Engine::new(&machine, &storage, config, fact_table);

    let cpu0 = machine.cpu_breakdown();
    let disk0 = machine.disk_stats();
    let start_ns = machine.now_ns();

    let e2 = engine.clone();
    let qs: Vec<StarQuery> = queries.to_vec();
    let (rows, latencies_secs) = machine
        .spawn("harness", move |ctx| {
            let tickets = submit(ctx, &e2, &qs);
            let mut rows = Vec::with_capacity(tickets.len());
            let mut lats = Vec::with_capacity(tickets.len());
            for t in &tickets {
                rows.push(t.wait());
                lats.push(t.latency_secs());
            }
            (rows, lats)
        })
        .join()
        .expect("harness vthread panicked");

    let end_ns = machine.now_ns();
    let makespan_secs = (end_ns - start_ns) / 1e9;
    let cpu = machine.cpu_breakdown().delta(&cpu0);
    let disk = machine.disk_stats().delta(&disk0);
    let avg_cores_used = if makespan_secs > 0.0 {
        (machine.busy_core_secs()) / makespan_secs
    } else {
        0.0
    };
    let report = RunReport {
        config: config.label(),
        queries: queries.len(),
        latencies_secs,
        makespan_secs,
        avg_cores_used: avg_cores_used.min(config.cores as f64),
        read_rate_mbps: disk.read_rate_mbps(end_ns - start_ns),
        cpu,
        disk,
        qpipe_sharing: engine.qpipe_sharing(),
        cjoin: engine.cjoin_stats(),
        fabric: engine.fabric_stats(),
        stages: engine.stage_rows(),
        governor: engine.governor_stats(),
        health: engine.health_stats(),
        results: keep_results.then_some(rows),
    };
    engine.shutdown();
    report
}

/// Measurements of one closed-loop client run (Fig. 16's throughput panel)
/// or one [`run_service`] overload run.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Configuration label.
    pub config: &'static str,
    /// Concurrent clients.
    pub clients: usize,
    /// Queries submitted (admitted **or** shed) inside the window.
    pub submitted: u64,
    /// Queries completed inside the measurement window.
    pub completed: u64,
    /// Admitted queries that completed only after the window closed (they
    /// count toward conservation, not toward throughput).
    pub completed_late: u64,
    /// Submissions shed because the bounded admission queue was full.
    pub shed_queue_full: u64,
    /// Submissions shed because no route was predicted to meet the
    /// deadline.
    pub shed_deadline: u64,
    /// Admitted queries that ended in a per-query error outcome
    /// ([`crate::Ticket::error`]).
    pub errors: u64,
    /// Throughput in queries per virtual hour.
    pub queries_per_hour: f64,
    /// Goodput in queries per virtual hour: completed **within the
    /// configured SLO target** ([`crate::ServiceConfig::slo_target_secs`]
    /// — the enforced deadline, or the observability-only p99 target);
    /// equals `queries_per_hour` when neither is set.
    pub goodput_per_hour: f64,
    /// Mean response time over completed queries, seconds.
    pub mean_latency_secs: f64,
    /// Median response time over completed queries, seconds.
    pub p50_latency_secs: f64,
    /// 99th-percentile response time over completed queries, seconds.
    pub p99_latency_secs: f64,
    /// "Avg. # Cores Used" over the window.
    pub avg_cores_used: f64,
    /// "Avg. Read Rate (MB/s)" over the window.
    pub read_rate_mbps: f64,
    /// Per-tenant outcome counts (one row per tenant of the
    /// [`ServiceLoad`]).
    pub tenants: Vec<TenantCounts>,
    /// Sharing-governor routing statistics (if the run was governed) —
    /// under closed-loop arrivals the calibration residuals here are the
    /// check that the latency-feedback EWMA converges outside the batch
    /// arrival pattern the estimator's queue term assumes.
    pub governor: Option<crate::governor::GovernorStats>,
    /// Per-fact-table stage rows of a governed run's shared side.
    pub stages: Vec<crate::engine::StageRow>,
    /// Cross-stage admission-fabric counters, when the engine ran one.
    pub fabric: Option<workshare_cjoin::FabricStats>,
    /// Fault-injection and self-healing accounting (all-zero with the
    /// default, fully-off [`crate::config::FaultPlan`]).
    pub health: crate::health::HealthStats,
    /// Virtual CPU charged by kind from the engine's creation to the virtual
    /// instant the last client finished.
    pub cpu: CpuBreakdown,
}

impl ThroughputReport {
    /// Conservation check: every submitted query ended in exactly one of
    /// {completed (in-window or late), shed, error}.
    pub fn is_conserved(&self) -> bool {
        self.submitted
            == self.completed
                + self.completed_late
                + self.shed_queue_full
                + self.shed_deadline
                + self.errors
    }
}

/// Per-tenant outcome counts of a [`run_service`] run. `submitted ==
/// completed + shed + errors` per tenant (completed includes late
/// completions — the window cutoff is not a per-tenant property).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounts {
    /// Tenant id (client `c` maps to tenant `c % tenants`).
    pub tenant: usize,
    /// Queries this tenant submitted.
    pub submitted: u64,
    /// Queries admitted and completed (in-window or late).
    pub completed: u64,
    /// Queries shed (either reason).
    pub shed: u64,
    /// Queries admitted that ended in an error outcome.
    pub errors: u64,
}

/// Offered-load description of a [`run_service`] run.
#[derive(Debug, Clone, Copy)]
pub struct ServiceLoad {
    /// Client vthreads.
    pub clients: usize,
    /// `None` = closed loop (each client waits for its query before
    /// submitting the next).
    /// `Some(rate)` = open loop: clients submit with exponential
    /// interarrival times at an aggregate `rate` arrivals per virtual
    /// second, without waiting — offered load keeps rising past
    /// saturation, which is what the overload gates sweep.
    pub arrivals_per_sec: Option<f64>,
    /// Distinct tenants, report labels only; client `c` is tenant `c % tenants`.
    pub tenants: usize,
    /// Measurement window, virtual seconds.
    pub window_secs: f64,
    /// Workload seed.
    pub seed: u64,
}

/// Virtual backoff after a shed submission in closed-loop mode. Without it
/// a shedding engine would let the client loop spin without advancing
/// virtual time (sheds consume none), hanging the simulation in real time.
const SHED_BACKOFF_NS: f64 = 10e6;

/// Per-client tally of a [`run_service`] run.
#[derive(Default)]
struct ClientTally {
    submitted: u64,
    completed: u64,
    completed_late: u64,
    shed_queue_full: u64,
    shed_deadline: u64,
    errors: u64,
    lat_sum: f64,
    latencies: Vec<f64>,
    within_deadline: u64,
}

impl ClientTally {
    /// Fold a finished ticket in (`deadline_ns` = window cutoff).
    fn settle(&mut self, t: &crate::Ticket, window_end_ns: f64, deadline_secs: Option<f64>) {
        if t.error().is_some() {
            self.errors += 1;
        } else if t.finish_ns() <= window_end_ns {
            self.completed += 1;
            let lat = t.latency_secs();
            self.lat_sum += lat;
            self.latencies.push(lat);
            if deadline_secs.is_none_or(|d| lat <= d) {
                self.within_deadline += 1;
            }
        } else {
            self.completed_late += 1;
        }
    }
}

/// The machine's counters at the virtual instant the last client finished,
/// read by the clients' own vthread. A thread outside the machine reading
/// them later races the engine's trailing work (a stage's charge that no
/// client waits for), so its figures would vary from run to run.
struct MachineAtEnd {
    now_ns: f64,
    busy_core_secs: f64,
    cpu: CpuBreakdown,
    disk: DiskStats,
}

/// Service-loop run: drive the engine with `load` (closed- or open-loop
/// arrivals, multi-tenant) through the bounded-admission front door
/// ([`Engine::try_submit`]), reporting shed counts by reason, p50/p99
/// latency of admitted queries, and goodput alongside the classic
/// throughput metrics. Every submission ends in exactly one of
/// {completed, shed, error} ([`ThroughputReport::is_conserved`]).
pub fn run_service<F>(
    dataset: &Dataset,
    config: &RunConfig,
    fact_table: &str,
    load: ServiceLoad,
    make_query: F,
) -> ThroughputReport
where
    F: Fn(u64, &mut StdRng) -> StarQuery + Send + Sync + 'static,
{
    let machine = Machine::new(config.machine_config());
    let storage = dataset.instantiate(config.storage_config(), config.cost);
    let engine = Engine::new(&machine, &storage, config, fact_table);
    let disk0 = machine.disk_stats();
    let make_query = Arc::new(make_query);
    // Goodput yardstick: the enforced deadline, or the observability-only
    // p99 target when only that is set (lets an unbounded baseline report
    // deadline-accounted goodput without enabling shedding).
    let deadline_secs = config.service.slo_target_secs();
    let tenants = load.tenants.max(1);

    let e2 = engine.clone();
    let (tallies, at_end): (Vec<(usize, ClientTally)>, MachineAtEnd) = machine
        .spawn("clients", move |ctx| {
            let window_end_ns = ctx.machine().now_ns() + load.window_secs * 1e9;
            let workers: Vec<_> = (0..load.clients)
                .map(|c| {
                    let engine = e2.clone();
                    let make_query = Arc::clone(&make_query);
                    let tenant = c % tenants;
                    // Per-client share of the aggregate open-loop rate.
                    let rate = load
                        .arrivals_per_sec
                        .map(|r| (r / load.clients.max(1) as f64).max(1e-9));
                    ctx.machine().spawn(&format!("client-{c}"), move |ctx| {
                        let mut rng = StdRng::seed_from_u64(load.seed ^ (c as u64) << 20);
                        let mut tally = ClientTally::default();
                        let mut open_tickets = Vec::new();
                        let mut seq = 0u64;
                        while ctx.machine().now_ns() < window_end_ns {
                            if let Some(rate) = rate {
                                // Open loop: exponential interarrival gap
                                // first, then submit without waiting.
                                let u: f64 = rng.gen_range(1e-12..1.0f64);
                                ctx.sleep(-u.ln() / rate * 1e9);
                                if ctx.machine().now_ns() >= window_end_ns {
                                    break;
                                }
                            }
                            let qid = (c as u64) << 32 | seq;
                            seq += 1;
                            let q = make_query(qid, &mut rng);
                            tally.submitted += 1;
                            match engine.try_submit(&q, tenant) {
                                Outcome::Admitted(t) => {
                                    if rate.is_some() {
                                        open_tickets.push(t);
                                    } else {
                                        t.wait();
                                        tally.settle(&t, window_end_ns, deadline_secs);
                                        if t.error().is_some() {
                                            // Error outcomes complete without
                                            // consuming virtual time; back off
                                            // like a shed so an all-error
                                            // workload cannot spin the loop.
                                            ctx.sleep(SHED_BACKOFF_NS);
                                        }
                                    }
                                }
                                Outcome::Shed { reason } => {
                                    match reason {
                                        ShedReason::QueueFull => tally.shed_queue_full += 1,
                                        ShedReason::Deadline => tally.shed_deadline += 1,
                                    }
                                    if rate.is_none() {
                                        // Closed loop: back off in virtual
                                        // time so a shedding engine cannot
                                        // spin the loop without the clock
                                        // advancing.
                                        ctx.sleep(SHED_BACKOFF_NS);
                                    }
                                }
                            }
                        }
                        // Open loop: drain what was admitted.
                        for t in &open_tickets {
                            t.wait();
                            tally.settle(t, window_end_ns, deadline_secs);
                        }
                        (tenant, tally)
                    })
                })
                .collect();
            let tallies = workers
                .into_iter()
                .map(|w| w.join().expect("client panicked"))
                .collect();
            let m = ctx.machine();
            let at_end = MachineAtEnd {
                now_ns: m.now_ns(),
                busy_core_secs: m.busy_core_secs(),
                cpu: m.cpu_breakdown(),
                disk: m.disk_stats(),
            };
            (tallies, at_end)
        })
        .join()
        .expect("client harness panicked");

    let mut total = ClientTally::default();
    let mut hist = LatencyHistogram::new();
    let mut per_tenant: Vec<TenantCounts> = (0..tenants)
        .map(|t| TenantCounts {
            tenant: t,
            ..Default::default()
        })
        .collect();
    for (tenant, tally) in &tallies {
        total.submitted += tally.submitted;
        total.completed += tally.completed;
        total.completed_late += tally.completed_late;
        total.shed_queue_full += tally.shed_queue_full;
        total.shed_deadline += tally.shed_deadline;
        total.errors += tally.errors;
        total.lat_sum += tally.lat_sum;
        total.within_deadline += tally.within_deadline;
        for &l in &tally.latencies {
            hist.record(l);
        }
        let row = &mut per_tenant[*tenant];
        row.submitted += tally.submitted;
        row.completed += tally.completed + tally.completed_late;
        row.shed += tally.shed_queue_full + tally.shed_deadline;
        row.errors += tally.errors;
    }

    let window_ns = at_end.now_ns.min(load.window_secs * 1e9).max(1.0);
    let disk = at_end.disk.delta(&disk0);
    let per_hour = |n: u64| n as f64 / (load.window_secs / 3600.0);
    let report = ThroughputReport {
        config: config.label(),
        clients: load.clients,
        submitted: total.submitted,
        completed: total.completed,
        completed_late: total.completed_late,
        shed_queue_full: total.shed_queue_full,
        shed_deadline: total.shed_deadline,
        errors: total.errors,
        queries_per_hour: per_hour(total.completed),
        goodput_per_hour: per_hour(total.within_deadline),
        mean_latency_secs: if total.completed > 0 {
            total.lat_sum / total.completed as f64
        } else {
            0.0
        },
        p50_latency_secs: hist.quantile(0.5),
        p99_latency_secs: hist.quantile(0.99),
        avg_cores_used: (at_end.busy_core_secs / (window_ns / 1e9)).min(config.cores as f64),
        read_rate_mbps: disk.read_rate_mbps(window_ns),
        tenants: per_tenant,
        governor: engine.governor_stats(),
        stages: engine.stage_rows(),
        fabric: engine.fabric_stats(),
        health: engine.health_stats(),
        cpu: at_end.cpu,
    };
    engine.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NamedConfig;
    use crate::workload;

    fn dataset() -> Dataset {
        Dataset::ssb(0.05, 11)
    }

    fn q32_batch(n: usize, seed: u64) -> Vec<StarQuery> {
        let mut r = workload::rng(seed);
        (0..n).map(|i| workload::ssb_q3_2(i as u64, &mut r)).collect()
    }

    #[test]
    fn all_engines_agree_on_results() {
        let d = dataset();
        let queries = q32_batch(3, 5);
        let mut baseline: Option<Vec<Vec<Row>>> = None;
        for engine in NamedConfig::all() {
            let cfg = RunConfig::named(engine);
            let rep = run_batch(&d, &cfg, &queries, true);
            let got: Vec<Vec<Row>> = rep
                .results
                .unwrap()
                .iter()
                .map(|r| (**r).clone())
                .collect();
            match &baseline {
                None => baseline = Some(got),
                Some(b) => assert_eq!(&got, b, "{engine:?} diverged"),
            }
        }
    }

    #[test]
    fn report_metrics_are_sane() {
        let d = dataset();
        let cfg = RunConfig::named(NamedConfig::QpipeSp);
        let rep = run_batch(&d, &cfg, &q32_batch(4, 9), false);
        assert_eq!(rep.queries, 4);
        assert_eq!(rep.latencies_secs.len(), 4);
        assert!(rep.makespan_secs > 0.0);
        assert!(rep.mean_latency_secs() > 0.0);
        assert!(rep.max_latency_secs() <= rep.makespan_secs * 1.0001);
        assert!(rep.avg_cores_used > 0.0);
        assert!(rep.avg_cores_used <= 24.0);
        assert!(rep.cpu.total_secs() > 0.0);
        assert!(rep.qpipe_sharing.is_some());
        assert!(rep.cjoin.is_none());
    }

    #[test]
    fn disk_resident_runs_report_read_rate() {
        let d = dataset();
        let mut cfg = RunConfig::named(NamedConfig::QpipeCs);
        cfg.io_mode = workshare_storage::IoMode::BufferedDisk;
        let rep = run_batch(&d, &cfg, &q32_batch(2, 3), false);
        assert!(rep.disk.bytes_read > 0, "disk mode must read bytes");
        assert!(rep.read_rate_mbps > 0.0);
    }

    #[test]
    fn closed_loop_clients_complete_queries() {
        let d = dataset();
        let cfg = RunConfig::named(NamedConfig::QpipeSp);
        let load = ServiceLoad {
            clients: 3,
            arrivals_per_sec: None,
            tenants: 1,
            window_secs: 2.0,
            seed: 42,
        };
        let rep = run_service(&d, &cfg, "lineorder", load, |id, rng| {
            workload::ssb_q3_2(id, rng)
        });
        assert!(rep.completed > 0, "{rep:?}");
        assert!(rep.queries_per_hour > 0.0);
        assert!(rep.mean_latency_secs > 0.0);
    }
}
