//! The paper's figures and tables, each as one sweep that returns [`Row`]s.
//!
//! A function here builds the dataset and the query batches of its figure,
//! runs every configuration at every sweep point and records what the figure
//! plots — nothing is printed and nothing is judged (that is
//! [`crate::pivot`] and [`crate::predicates`]). Response times are the mean
//! over the batch, in virtual milliseconds; datasets are generated at 1/100
//! row scale, so absolute values are ~100× smaller than the paper's and the
//! shapes are the comparison unit.

use workshare_core::harness::{run_batch_on, run_service, run_staggered, RunReport};
use workshare_core::harness::{ServiceLoad, ThroughputReport};
use workshare_core::NamedConfig::{self, Cjoin, CjoinSp, Qpipe, QpipeCs, QpipeSp, Volcano};
use workshare_core::{
    workload, Dataset, ExchangeKind, ExecPolicy, FaultPlan, IoMode, RunConfig, ServiceConfig,
    StarQuery,
};
use workshare_sim::{CostKind, CpuBreakdown};

use crate::{pow2_sweep, Row};

/// Problem size: `Default` finishes in minutes on a small container and is
/// what `figures --check` gates; `Full` (`--full`) is the paper-scale sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Default,
    Full,
}

impl Scale {
    fn pick<T>(self, default: T, full: T) -> T {
        match self {
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// One figure or table of the paper: its id on the command line, what it
/// reproduces, and the sweep (`docs/FIGURES.md` says what each one sweeps).
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    pub run: fn(Scale) -> Vec<Row>,
}

pub const FIGURES: [Figure; 14] = [
    Figure {
        id: "fig06",
        title: "Figure 6 (§4): identical TPC-H Q1, push SP (FIFO) vs pull SP (SPL)",
        run: fig06,
    },
    Figure {
        id: "fig10",
        title: "Figure 10 (§5.2.1): concurrency sweep, SSB Q3.2, memory and disk",
        run: fig10,
    },
    Figure {
        id: "fig11",
        title: "Figure 11 (§5.2.2): selectivity sweep, 8 queries, memory-resident",
        run: fig11,
    },
    Figure {
        id: "fig12",
        title: "Figure 12 (§5.2.2): 30 % selectivity, concurrency sweep",
        run: fig12,
    },
    Figure {
        id: "fig13",
        title: "Figure 13 (§5.2.3): scale-factor sweep, 8 queries, disk-resident",
        run: fig13,
    },
    Figure {
        id: "fig14",
        title: "Figure 14 (§5.2.4): 16 possible plans, disk-resident, concurrency sweep",
        run: fig14,
    },
    Figure {
        id: "fig15",
        title: "Figure 15 (§5.2.4): plan-count sweep, 128 queries, pool = 10 % of the DB",
        run: fig15,
    },
    Figure {
        id: "fig16",
        title: "Figure 16 (§5.3): SSB mix Q1.1 / Q2.1 / Q3.2, disk-resident",
        run: fig16,
    },
    Figure {
        id: "table01",
        title: "Table 1: rules of thumb, derived from measurements",
        run: table01,
    },
    Figure {
        id: "wop_study",
        title: "Figure 2b (§2.2): interarrival delay vs Windows of Opportunity",
        run: wop_study,
    },
    Figure {
        id: "ablation_prediction",
        title: "Ablation (§1.3, §4): prediction model for push-based SP vs SPL",
        run: ablation_prediction,
    },
    Figure {
        id: "ablation_fabric",
        title: "Ablation (§3.2): one admission fabric for two fact stages vs per-stage pools",
        run: ablation_fabric,
    },
    Figure {
        id: "ablation_governor",
        title: "Ablation (Table 1): the sharing governor vs its two static routes",
        run: ablation_governor,
    },
    Figure {
        id: "overload",
        title: "Service loop: bounded vs unbounded admission past saturation, and under faults",
        run: overload,
    },
];

/// A table of a figure: its name, what its cells measure, and the unit.
#[derive(Clone, Copy)]
struct Panel(&'static str, &'static str, &'static str);

const RESPONSE: Panel = Panel("response time", "mean_latency", "ms");
const CORES: Panel = Panel("avg cores used", "avg_cores_used", "cores");
const READ_RATE: Panel = Panel("avg read rate", "read_rate", "MB/s");
const ADMISSION: Panel = Panel("CJOIN admission", "admission", "ms");
const JOIN_SHARES: Panel = Panel("QPipe-SP join shares", "shares", "count");
const SP_BREAKDOWN: Panel = Panel("CPU breakdown: QPipe-SP", "cpu", "ms");
const CJOIN_BREAKDOWN: Panel = Panel("CPU breakdown: CJOIN", "cpu", "ms");

/// The rows of one figure, under construction.
struct Rows {
    figure: &'static str,
    rows: Vec<Row>,
}

impl Rows {
    fn of(figure: &'static str) -> Rows {
        let rows = Vec::new();
        Rows { figure, rows }
    }

    fn put(&mut self, panel: Panel, x: impl ToString, series: impl ToString, value: f64) {
        let (figure, Panel(panel, metric, unit)) = (self.figure, panel);
        let (x, series) = (x.to_string(), series.to_string());
        let row = Row {
            figure,
            panel,
            x,
            series,
            metric,
            value,
            unit,
        };
        self.rows.push(row);
    }

    /// The paper's CPU breakdown (`Hashing/Joins/Aggreg./Scans/Locks/Misc`),
    /// virtual CPU ms summed over all cores.
    fn breakdown(&mut self, panel: Panel, x: impl ToString, cpu: &CpuBreakdown) {
        use CostKind::*;
        let parts: [(&str, &[CostKind]); 6] = [
            ("Hashing", &[Hashing]),
            ("Joins", &[Join]),
            ("Aggreg.", &[Aggregation]),
            ("Scans", &[Scan]),
            ("Locks", &[Locks]),
            ("Misc", &[Misc, Select, Copy, Routing, Sort, Admission]),
        ];
        for (name, kinds) in parts {
            let secs: f64 = kinds.iter().map(|k| cpu.secs(*k)).sum();
            self.put(panel, x.to_string(), name, secs * 1e3);
        }
    }

    /// QPipe-SP's join-stage shares per hash-join level (1st/2nd/3rd).
    fn join_shares(&mut self, panel: Panel, x: impl ToString, rep: &RunReport) {
        let sharing = rep.qpipe_sharing.as_ref().expect("QPipe-SP reports it");
        let mut levels = sharing.join_satellites_by_level.clone();
        levels.resize(3, 0);
        for (level, shares) in ["1st", "2nd", "3rd"].iter().zip(levels) {
            self.put(panel, x.to_string(), level, shares as f64);
        }
    }

    /// CJOIN-SP's identical packets that rode on another query's.
    fn packet_shares(&mut self, x: impl ToString, rep: &RunReport) {
        let shares = rep.cjoin.as_ref().expect("CJOIN-SP reports it").sp_shares;
        let panel = Panel("CJOIN-SP packet shares", "shares", "count");
        self.put(panel, x, "CJOIN-SP", shares as f64);
    }

    /// Submissions of a service run that ended as none of completed, late,
    /// shed or error: 0 when the report is conserved.
    fn unaccounted(&mut self, x: impl ToString, series: &str, rep: &ThroughputReport) {
        let ended = rep.completed + rep.completed_late + rep.errors;
        let shed = rep.shed_queue_full + rep.shed_deadline;
        let unaccounted = rep.submitted as f64 - (ended + shed) as f64;
        let panel = Panel("unaccounted submissions", "unaccounted", "count");
        self.put(panel, x, series, unaccounted);
    }
}

/// Mean response time of the batch, virtual ms.
fn ms(rep: &RunReport) -> f64 {
    rep.mean_latency_secs() * 1e3
}

/// `queries` as one simultaneous batch (paper §5.1).
fn run(dataset: &Dataset, cfg: RunConfig, queries: &[StarQuery]) -> RunReport {
    run_batch_on(dataset, &cfg, &queries[0].fact, queries, false)
}

fn on(engine: NamedConfig, io_mode: IoMode) -> RunConfig {
    let mut cfg = RunConfig::named(engine);
    cfg.io_mode = io_mode;
    cfg
}

/// Paper-faithful CJOIN of Figs. 11–12: their admission component is the
/// *serial* per-query admission of §3.2 (the default engine shares the
/// dimension scans across the batch: their `shared scan` series).
fn cjoin_serial() -> RunConfig {
    let mut cfg = RunConfig::named(Cjoin);
    cfg.cjoin_serial_admission = true;
    cfg
}

fn q1_batch(n: usize) -> Vec<StarQuery> {
    (0..n).map(|i| workload::tpch_q1(i as u64)).collect()
}

fn q3_2_batch(n: usize, seed: u64) -> Vec<StarQuery> {
    let mut r = workload::rng(seed);
    let query = |i| workload::ssb_q3_2(i as u64, &mut r);
    (0..n).map(query).collect()
}

/// `n` modified Q3.2 with `nc` customer and `ns` supplier nations: fact
/// selectivity `nc · ns / 625`.
fn q3_2_wide_batch(n: usize, seed: u64, nc: usize, ns: usize) -> Vec<StarQuery> {
    let mut r = workload::rng(seed);
    let query = |i| workload::ssb_q3_2_wide(i as u64, &mut r, nc, ns);
    (0..n).map(query).collect()
}

fn fig06(scale: Scale) -> Vec<Row> {
    let mut out = Rows::of("fig06");
    let dataset = Dataset::tpch(scale.pick(0.5, 1.0), 42);
    let variants = [
        ("No SP (FIFO)", Qpipe, ExchangeKind::Fifo),
        ("CS (FIFO)", QpipeCs, ExchangeKind::Fifo),
        ("No SP (SPL)", Qpipe, ExchangeKind::Spl),
        ("CS (SPL)", QpipeSp, ExchangeKind::Spl),
    ];
    for n in pow2_sweep(64) {
        let mut t = Vec::new();
        for (label, engine, exchange) in variants {
            let mut cfg = RunConfig::named(engine);
            cfg.exchange = exchange;
            let rep = run(&dataset, cfg, &q1_batch(n));
            out.put(RESPONSE, n, label, ms(&rep));
            if engine != Qpipe {
                out.put(CORES, n, label, rep.avg_cores_used);
            }
            t.push(ms(&rep));
        }
        if n <= 16 {
            let speedup = Panel("speedup of CS over No SP", "speedup", "x");
            out.put(speedup, n, "FIFO", t[0] / t[1]);
            out.put(speedup, n, "SPL", t[2] / t[3]);
        }
        if n == 64 {
            let cut = Panel("CS (SPL) vs CS (FIFO)", "reduction", "%");
            out.put(cut, n, "reduction", 100.0 * (1.0 - t[3] / t[1]));
        }
    }
    out.rows
}

fn fig10(scale: Scale) -> Vec<Row> {
    let mut out = Rows::of("fig10");
    let dataset = Dataset::ssb(1.0, 42);
    let sweep = pow2_sweep(scale.pick(128, 256));
    let top = *sweep.last().unwrap();
    let memory = [
        Panel("memory-resident: response time", "mean_latency", "ms"),
        Panel("memory-resident: avg cores used", "avg_cores_used", "cores"),
        Panel("memory-resident: QPipe-SP join shares", "shares", "count"),
    ];
    let disk = [
        Panel("disk-resident: response time", "mean_latency", "ms"),
        Panel("disk-resident: avg cores used", "avg_cores_used", "cores"),
        Panel("disk-resident: QPipe-SP join shares", "shares", "count"),
    ];
    let residencies = [(IoMode::Memory, memory), (IoMode::BufferedDisk, disk)];
    for (io, [response, cores, shares]) in residencies {
        for &n in &sweep {
            let queries = q3_2_batch(n, 7);
            for engine in [Qpipe, QpipeCs, QpipeSp, Cjoin] {
                let rep = run(&dataset, on(engine, io), &queries);
                out.put(response, n, engine.label(), ms(&rep));
                if n < top {
                    continue;
                }
                out.put(cores, n, engine.label(), rep.avg_cores_used);
                if io != IoMode::Memory {
                    out.put(READ_RATE, n, engine.label(), rep.read_rate_mbps);
                }
                if engine == QpipeSp {
                    out.join_shares(shares, n, &rep);
                }
            }
        }
    }
    out.rows
}

fn fig11(scale: Scale) -> Vec<Row> {
    let mut out = Rows::of("fig11");
    let dataset = Dataset::ssb(scale.pick(2.0, 10.0), 42);
    // (fact selectivity, customer nations, supplier nations)
    let points = [
        ("0.16%", 1, 1),
        ("0.96%", 2, 3),
        ("10.2%", 8, 8),
        ("19.4%", 11, 11),
        ("29.1%", 14, 13),
    ];
    for (sel, nc, ns) in points {
        let queries = q3_2_wide_batch(8, 11, nc, ns);
        let sp = run(&dataset, RunConfig::named(QpipeSp), &queries);
        let cj = run(&dataset, cjoin_serial(), &queries);
        let shared = run(&dataset, RunConfig::named(Cjoin), &queries);
        out.put(RESPONSE, sel, "QPipe-SP", ms(&sp));
        out.put(RESPONSE, sel, "CJOIN", ms(&cj));
        out.put(ADMISSION, sel, "serial", cj.admission_secs() * 1e3);
        out.put(ADMISSION, sel, "shared scan", shared.admission_secs() * 1e3);
        out.breakdown(SP_BREAKDOWN, sel, &sp.cpu);
        out.breakdown(CJOIN_BREAKDOWN, sel, &cj.cpu);
        if sel == "29.1%" {
            out.put(CORES, sel, "QPipe-SP", sp.avg_cores_used);
            out.put(CORES, sel, "CJOIN", cj.avg_cores_used);
        }
    }
    out.rows
}

fn fig12(scale: Scale) -> Vec<Row> {
    let mut out = Rows::of("fig12");
    let dataset = Dataset::ssb(scale.pick(2.0, 10.0), 42);
    let sweep = &[16, 32, 64, 128, 256][..scale.pick(4, 5)];
    let top = *sweep.last().unwrap();
    for &n in sweep {
        let queries = q3_2_wide_batch(n, 13, 14, 13);
        let sp = run(&dataset, RunConfig::named(QpipeSp), &queries);
        let cj = run(&dataset, cjoin_serial(), &queries);
        let shared = run(&dataset, RunConfig::named(Cjoin), &queries);
        out.put(ADMISSION, n, "serial", cj.admission_secs() * 1e3);
        out.put(ADMISSION, n, "shared scan", shared.admission_secs() * 1e3);
        for (series, rep) in [("QPipe-SP", &sp), ("CJOIN", &cj)] {
            out.put(RESPONSE, n, series, ms(rep));
            let hashing = Panel("hashing CPU", "cpu", "ms");
            out.put(hashing, n, series, rep.cpu.secs(CostKind::Hashing) * 1e3);
            if n == top {
                out.put(CORES, n, series, rep.avg_cores_used);
            }
        }
        if n == top {
            out.breakdown(SP_BREAKDOWN, n, &sp.cpu);
            out.breakdown(CJOIN_BREAKDOWN, n, &cj.cpu);
        }
    }
    out.rows
}

fn fig13(scale: Scale) -> Vec<Row> {
    let mut out = Rows::of("fig13");
    let sfs: &[f64] = scale.pick(&[0.5, 1.0, 2.0, 4.0], &[1.0, 10.0, 30.0, 50.0, 100.0]);
    let top = *sfs.last().unwrap();
    let io_modes = [
        (IoMode::BufferedDisk, ""),
        (IoMode::DirectDisk, " (Direct I/O)"),
    ];
    for &sf in sfs {
        let dataset = Dataset::ssb(sf, 42);
        for (io, suffix) in io_modes {
            for engine in [QpipeSp, Cjoin] {
                let series = format!("{}{suffix}", engine.label());
                let rep = run(&dataset, on(engine, io), &q3_2_batch(8, 17));
                out.put(RESPONSE, sf, &series, ms(&rep));
                if sf == top {
                    out.put(CORES, sf, &series, rep.avg_cores_used);
                    out.put(READ_RATE, sf, &series, rep.read_rate_mbps);
                }
            }
        }
    }
    out.rows
}

fn fig14(scale: Scale) -> Vec<Row> {
    let mut out = Rows::of("fig14");
    let dataset = Dataset::ssb(1.0, 42);
    let sweep = pow2_sweep(scale.pick(128, 256));
    let top = *sweep.last().unwrap();
    for &n in &sweep {
        let queries = workload::limited_plans(n, 16, 23, workload::ssb_q3_2_narrow);
        for engine in [QpipeCs, QpipeSp, Cjoin, CjoinSp] {
            let rep = run(&dataset, on(engine, IoMode::BufferedDisk), &queries);
            out.put(RESPONSE, n, engine.label(), ms(&rep));
            if n < top {
                continue;
            }
            out.put(CORES, n, engine.label(), rep.avg_cores_used);
            out.put(READ_RATE, n, engine.label(), rep.read_rate_mbps);
            match engine {
                QpipeSp => out.join_shares(JOIN_SHARES, n, &rep),
                CjoinSp => out.packet_shares(n, &rep),
                _ => {}
            }
        }
    }
    out.rows
}

fn fig15(scale: Scale) -> Vec<Row> {
    let mut out = Rows::of("fig15");
    let (n_queries, sf) = scale.pick((128, 4.0), (512, 10.0));
    let dataset = Dataset::ssb(sf, 42);
    let pool_pages = (dataset.total_pages() / 10).max(64);
    let plan_counts = scale.pick([1, 32, 64, 128], [1, 128, 256, 512]);
    for plans in plan_counts.into_iter().map(Some).chain([None]) {
        let x = plans.map_or("random".to_string(), |k| k.to_string());
        let queries = match plans {
            Some(k) => workload::limited_plans(n_queries, k, 31, workload::ssb_q3_2),
            None => q3_2_batch(n_queries, 31),
        };
        for engine in [QpipeSp, Cjoin, CjoinSp] {
            let mut cfg = on(engine, IoMode::BufferedDisk);
            cfg.buffer_pool_pages = Some(pool_pages);
            let rep = run(&dataset, cfg, &queries);
            out.put(RESPONSE, &x, engine.label(), ms(&rep));
            match engine {
                QpipeSp => out.join_shares(JOIN_SHARES, &x, &rep),
                CjoinSp => out.packet_shares(&x, &rep),
                _ => {}
            }
        }
    }
    out.rows
}

fn fig16(scale: Scale) -> Vec<Row> {
    let mut out = Rows::of("fig16");
    let dataset = Dataset::ssb(scale.pick(3.0, 30.0), 42);
    let engines = [QpipeSp, CjoinSp, Volcano];
    let sweep = pow2_sweep(scale.pick(64, 256));
    let top = *sweep.last().unwrap();
    for &n in &sweep {
        let queries = workload::ssb_mix(n, 37);
        for engine in engines {
            let rep = run(&dataset, on(engine, IoMode::BufferedDisk), &queries);
            out.put(RESPONSE, n, engine.label(), ms(&rep));
            if n == top {
                out.put(CORES, n, engine.label(), rep.avg_cores_used);
                out.put(READ_RATE, n, engine.label(), rep.read_rate_mbps);
            }
        }
    }
    let throughput = Panel("throughput (closed loop)", "throughput", "q/h");
    let client_counts: &[usize] = scale.pick(&[1, 4, 8], &[1, 4, 16, 64, 128, 256]);
    for &clients in client_counts {
        for engine in engines {
            let window_secs = scale.pick(3.0, 30.0);
            let load = ServiceLoad {
                clients,
                arrivals_per_sec: None,
                tenants: 1,
                window_secs,
                seed: 91,
            };
            let cfg = on(engine, IoMode::BufferedDisk);
            let rep = run_service(&dataset, &cfg, "lineorder", load, |id, rng| match id % 3 {
                0 => workload::ssb_q1_1(id, rng),
                1 => workload::ssb_q2_1(id, rng),
                _ => workload::ssb_q3_2(id, rng),
            });
            out.put(throughput, clients, engine.label(), rep.queries_per_hour);
        }
    }
    out.rows
}

fn table01(scale: Scale) -> Vec<Row> {
    let mut out = Rows::of("table01");
    let dataset = Dataset::ssb(1.0, 42);
    let sweep = pow2_sweep(scale.pick(128, 256));
    let top = *sweep.last().unwrap();
    let engine_row = Panel("execution engine: response time", "mean_latency", "ms");
    for &n in &sweep {
        let queries = q3_2_wide_batch(n, 23, 14, 13);
        for engine in [QpipeSp, CjoinSp] {
            let rep = run(&dataset, RunConfig::named(engine), &queries);
            out.put(engine_row, n, engine.label(), ms(&rep));
        }
    }
    let io_row = Panel(
        "I/O layer: disk-resident response time",
        "mean_latency",
        "ms",
    );
    for n in [4, top] {
        for engine in [Qpipe, QpipeCs] {
            let cfg = on(engine, IoMode::BufferedDisk);
            let rep = run(&dataset, cfg, &q3_2_batch(n, 5));
            out.put(io_row, n, engine.label(), ms(&rep));
        }
    }
    out.rows
}

fn wop_study(_: Scale) -> Vec<Row> {
    let mut out = Rows::of("wop_study");
    let dataset = Dataset::ssb(1.0, 42);
    let pair = workload::limited_plans(2, 1, 3, workload::ssb_q3_2);
    let cfg = RunConfig::named(QpipeSp);
    let solo = run_staggered(&dataset, &cfg, "lineorder", &pair[..1], 0.0, false);
    let t = solo.latencies_secs[0];
    let shares = Panel("shares, by delay in T", "shares", "count");
    let latency = Panel("response time, by delay in T", "latency", "ms");
    for delay in [0.0, 0.1, 0.25, 0.5, 0.9, 1.5] {
        let x = format!("{delay:.2}");
        let rep = run_staggered(&dataset, &cfg, "lineorder", &pair, t * delay, false);
        let sharing = rep.qpipe_sharing.as_ref().expect("QPipe-SP reports it");
        let joins: u64 = sharing.join_satellites_by_level.iter().sum();
        out.put(shares, &x, "join shares", joins as f64);
        let scans = sharing.scan_satellites;
        out.put(shares, &x, "scan satellites", scans as f64);
        out.put(latency, &x, "Q1 alone (T)", t * 1e3);
        out.put(latency, &x, "Q2", rep.latencies_secs[1] * 1e3);
    }
    out.rows
}

fn ablation_prediction(_: Scale) -> Vec<Row> {
    let mut out = Rows::of("ablation_prediction");
    let dataset = Dataset::tpch(0.5, 42);
    let variants = [
        ("No SP (FIFO)", Qpipe, ExchangeKind::Fifo, false),
        ("CS (FIFO)", QpipeCs, ExchangeKind::Fifo, false),
        ("Predict (FIFO)", QpipeCs, ExchangeKind::Fifo, true),
        ("CS (SPL)", QpipeCs, ExchangeKind::Spl, false),
    ];
    for n in pow2_sweep(64) {
        for (label, engine, exchange, cs_prediction) in variants {
            let mut cfg = RunConfig::named(engine);
            (cfg.exchange, cfg.cs_prediction) = (exchange, cs_prediction);
            out.put(RESPONSE, n, label, ms(&run(&dataset, cfg, &q1_batch(n))));
        }
    }
    out.rows
}

fn ablation_fabric(_: Scale) -> Vec<Row> {
    let mut out = Rows::of("ablation_fabric");
    // At SF 2 the dimension scan, the part the fabric shares, outweighs the
    // per-query admission charges. Narrow Q3.2 alternate between the facts.
    let dataset = Dataset::ssb_two_facts(2.0, 42);
    let pages = Panel("dimension pages read", "pages", "count");
    for n in [8, 32] {
        let mut queries = q3_2_wide_batch(n, 11 + n as u64, 1, 1);
        for q in queries.iter_mut().skip(1).step_by(2) {
            q.fact = "lineorder2".into();
        }
        for (series, fabric) in [("fabric", true), ("per-stage pools", false)] {
            let mut cfg = RunConfig::governed(ExecPolicy::Shared);
            cfg.admission_fabric = fabric;
            let rep = run(&dataset, cfg, &queries);
            out.put(ADMISSION, n, series, rep.admission_secs() * 1e3);
            let cjoin = rep.cjoin.as_ref().expect("the shared route reports it");
            out.put(pages, n, series, cjoin.admission_dim_pages as f64);
        }
    }
    out.rows
}

fn ablation_governor(_: Scale) -> Vec<Row> {
    let mut out = Rows::of("ablation_governor");
    let routed = Panel("Adaptive: routed query-centric", "routed", "count");
    let memory = Panel("memory-resident: response time", "mean_latency", "ms");
    let disk = Panel("disk-resident: response time", "mean_latency", "ms");
    let regimes = [
        ("memory", memory, 0.1, IoMode::Memory),
        ("disk", disk, 3.0, IoMode::BufferedDisk),
    ];
    let policies = [
        ("Gov-QC", ExecPolicy::QueryCentric),
        ("Gov-Shared", ExecPolicy::Shared),
        ("Adaptive", ExecPolicy::Adaptive),
    ];
    for (regime, response, sf, io) in regimes {
        let dataset = Dataset::ssb(sf, 42);
        for n in [1, 4, 16, 64, 256] {
            let queries = q3_2_batch(n, 7 + n as u64);
            for (series, policy) in policies {
                let mut cfg = RunConfig::governed(policy);
                cfg.io_mode = io;
                let rep = run(&dataset, cfg, &queries);
                out.put(response, n, series, ms(&rep));
                if policy == ExecPolicy::Adaptive {
                    let gov = rep.governor.expect("a governed run reports it");
                    out.put(routed, n, regime, gov.routed_query_centric as f64);
                }
            }
        }
    }
    // The count panel after both response-time panels.
    out.rows.sort_by_key(|r| r.panel == routed.0);
    out.rows
}

fn overload(_: Scale) -> Vec<Row> {
    let mut out = Rows::of("overload");
    let p99 = Panel("admitted p99, by offered load", "p99_latency", "ms");
    let goodput = Panel("goodput, by offered load", "goodput", "q/h");
    let sheds = Panel("bounded sheds, by offered load", "shed", "count");
    let faulted_p99 = Panel("faulted p99", "p99_latency", "ms");
    let faulted_goodput = Panel("faulted goodput", "goodput", "q/h");
    let actions = Panel("recovery actions", "actions", "count");
    // A 2 s window of wide Q3.2 (12 × 12 nations) from six clients on 4
    // cores, where aggregation the shared path cannot amortise saturates the
    // CPUs: open loop at `rate` queries per second, closed loop if `None`.
    let dataset = Dataset::ssb(0.05, 11);
    let window_secs = 2.0;
    let serve = |mut cfg: RunConfig, service, rate| {
        (cfg.cores, cfg.service) = (4, service);
        let load = ServiceLoad {
            clients: 6,
            arrivals_per_sec: rate,
            tenants: 1,
            window_secs,
            seed: 77,
        };
        let wide = |id, rng: &mut _| workload::ssb_q3_2_wide(id, rng, 12, 12);
        run_service(&dataset, &cfg, "lineorder", load, wide)
    };
    let adaptive = RunConfig::governed(ExecPolicy::Adaptive);
    // A queue cap small enough that queueing alone cannot push admitted
    // queries past twice the pre-saturation p99.
    let cap_only = ServiceConfig {
        queue_cap: Some(8),
        ..ServiceConfig::default()
    };

    // Calibration: the closed loop's completions per second are the capacity
    // C; an open loop at 0.5 C, the cap armed but idle, the pre-saturation p99.
    let closed = serve(adaptive, ServiceConfig::default(), None);
    let capacity = closed.completed as f64 / window_secs;
    let capacity_row = Panel("at-capacity throughput (closed loop)", "throughput", "q/s");
    out.put(capacity_row, "6 clients", "capacity", capacity);
    out.unaccounted("closed loop", "unbounded", &closed);
    let pre = serve(adaptive, cap_only, Some(0.5 * capacity));
    out.put(p99, 0.5, "cap only", pre.p99_latency_secs * 1e3);
    out.unaccounted(0.5, "cap only", &pre);

    // Past it, the bounded loop sheds on a full queue or a predicted miss of
    // twice the pre-saturation p99; the unbounded engine admits everything
    // and counts goodput against the same deadline without enforcing it.
    let deadline = 2.0 * pre.p99_latency_secs;
    let bounded_cfg = ServiceConfig {
        deadline_secs: Some(deadline),
        ..cap_only
    };
    let unbounded_cfg = ServiceConfig {
        slo_p99_secs: Some(deadline),
        ..ServiceConfig::default()
    };
    for mult in [0.75, 2.0, 4.0] {
        let rate = Some(mult * capacity);
        let bounded = serve(adaptive, bounded_cfg, rate);
        let unbounded = serve(adaptive, unbounded_cfg, rate);
        for (series, rep) in [("bounded", &bounded), ("unbounded", &unbounded)] {
            out.put(p99, mult, series, rep.p99_latency_secs * 1e3);
            out.put(goodput, mult, series, rep.goodput_per_hour);
            out.unaccounted(mult, series, rep);
        }
        out.put(p99, mult, "2× pre-saturation", deadline * 1e3);
        out.put(sheds, mult, "queue full", bounded.shed_queue_full as f64);
        out.put(sheds, mult, "deadline", bounded.shed_deadline as f64);
    }

    // Faults on the fabric path (docs/FAULTS.md), so the route is pinned to
    // Shared. Healed: transient page faults retried, and a fabric worker
    // that wedges after two windows, demoted, reclaimed and respawned. No
    // recovery: the same page faults with healing off, and no wedge — a
    // wedged fabric without its monitor holds its queue forever by design.
    let faulted = |faults| {
        let mut cfg = RunConfig::governed(ExecPolicy::Shared);
        cfg.faults = faults;
        serve(cfg, cap_only, None)
    };
    let page_faults = FaultPlan {
        seed: 1337,
        transient_page_stride: Some(9),
        ..FaultPlan::default()
    };
    let clean = faulted(FaultPlan::default());
    let healed = faulted(FaultPlan {
        fabric_wedge_after: Some(2),
        ..page_faults
    });
    let no_recovery = faulted(FaultPlan {
        self_heal: false,
        ..page_faults
    });
    let plan = "seed 1337";
    out.put(faulted_p99, plan, "clean", clean.p99_latency_secs * 1e3);
    out.put(faulted_p99, plan, "healed", healed.p99_latency_secs * 1e3);
    out.put(faulted_goodput, plan, "healed", healed.goodput_per_hour);
    let lost = no_recovery.goodput_per_hour;
    out.put(faulted_goodput, plan, "no recovery", lost);
    let (storage, admission) = (&healed.health.storage, &healed.health.admission);
    out.put(actions, plan, "retries", storage.retries as f64);
    out.put(actions, plan, "wedges", admission.injected_wedges as f64);
    out.put(actions, plan, "demotions", admission.demotions as f64);
    out.put(actions, plan, "respawns", admission.fabric_respawns as f64);
    let errors = no_recovery.errors as f64;
    out.put(actions, plan, "no-recovery errors", errors);
    out.unaccounted(plan, "clean", &clean);
    out.unaccounted(plan, "healed", &healed);
    out.unaccounted(plan, "no recovery", &no_recovery);
    // The accounting of every run after the panels it accounts for.
    out.rows.sort_by_key(|r| r.metric == "unaccounted");
    out.rows
}
