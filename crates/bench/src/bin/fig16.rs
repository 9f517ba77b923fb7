//! Figure 16 — SSB query-mix evaluation: Q1.1 / Q2.1 / Q3.2 round-robin,
//! random predicates, disk-resident SF 30 (scaled), QPipe-SP vs CJOIN-SP vs
//! the Postgres-substitute Volcano baseline.
//!
//! Left panel: batch response time, 1–256 queries. Right panel: closed-loop
//! throughput, 1–256 clients.
//!
//! Paper: Postgres wins at low concurrency (mature query-centric executor)
//! but contends at high concurrency (15.9 MB/s read rate at 256);
//! QPipe-SP improves via circular scans + SP; CJOIN-SP best. Postgres and
//! QPipe-SP throughput ultimately degrades with clients; CJOIN-SP keeps
//! rising.

use workshare_bench::{banner, f2, full_scale, pow2_sweep, secs, TextTable};
use workshare_core::{
    harness::{run_batch, run_service, ServiceLoad},
    workload, Dataset, IoMode, NamedConfig, RunConfig,
};

fn main() {
    banner(
        "Figure 16 — SSB mix (Q1.1/Q2.1/Q3.2), disk-resident",
        "Postgres* best at 1-4 queries, collapses at high concurrency; \
         CJOIN-SP best at scale; throughput: CJOIN-SP keeps rising",
    );
    let sf = if full_scale() { 30.0 } else { 3.0 };
    let dataset = Dataset::ssb(sf, 42);
    let engines = [
        NamedConfig::QpipeSp,
        NamedConfig::CjoinSp,
        NamedConfig::Volcano,
    ];
    let max_q = if full_scale() { 256 } else { 64 };
    let sweep = pow2_sweep(max_q);

    // ---- response-time panel ------------------------------------------
    let mut table = TextTable::new(&["queries", "QPipe-SP", "CJOIN-SP", "Postgres*"]);
    let mut final_reps = Vec::new();
    for &n in &sweep {
        let queries = workload::ssb_mix(n, 37);
        let mut cells = vec![n.to_string()];
        for engine in engines {
            let mut cfg = RunConfig::named(engine);
            cfg.io_mode = IoMode::BufferedDisk;
            let rep = run_batch(&dataset, &cfg, &queries, false);
            cells.push(secs(rep.mean_latency_secs()));
            if n == *sweep.last().unwrap() {
                final_reps.push(rep);
            }
        }
        table.row(cells);
    }
    println!("\nResponse time (virtual seconds):");
    table.print();
    println!("\nAt {} queries:", sweep.last().unwrap());
    let mut mt = TextTable::new(&["metric", "QPipe-SP", "CJOIN-SP", "Postgres*"]);
    mt.row(
        std::iter::once("Avg # Cores Used".to_string())
            .chain(final_reps.iter().map(|r| f2(r.avg_cores_used)))
            .collect(),
    );
    mt.row(
        std::iter::once("Avg Read Rate (MB/s)".to_string())
            .chain(final_reps.iter().map(|r| f2(r.read_rate_mbps)))
            .collect(),
    );
    mt.print();
    println!("(paper at 256: cores 19.07/19.11/18.56, read 85/110/16 MB/s)");

    // ---- throughput panel ----------------------------------------------
    let client_sweep: Vec<usize> = if full_scale() {
        vec![1, 4, 16, 64, 128, 256]
    } else {
        vec![1, 4, 8]
    };
    let window = if full_scale() { 30.0 } else { 3.0 };
    println!("\nThroughput (queries per virtual hour), {window}s window:");
    let mut tt = TextTable::new(&["clients", "QPipe-SP", "CJOIN-SP", "Postgres*"]);
    for &c in &client_sweep {
        let mut cells = vec![c.to_string()];
        for engine in engines {
            let mut cfg = RunConfig::named(engine);
            cfg.io_mode = IoMode::BufferedDisk;
            let load = ServiceLoad {
                clients: c,
                arrivals_per_sec: None,
                tenants: 1,
                window_secs: window,
                seed: 91,
            };
            let rep = run_service(&dataset, &cfg, "lineorder", load, |id, rng| {
                match id % 3 {
                    0 => workload::ssb_q1_1(id, rng),
                    1 => workload::ssb_q2_1(id, rng),
                    _ => workload::ssb_q3_2(id, rng),
                }
            });
            cells.push(format!("{:.0}", rep.queries_per_hour));
        }
        tt.row(cells);
    }
    tt.print();
}
