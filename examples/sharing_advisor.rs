//! Sharing advisor: the sharing governor's cost model applied to *your*
//! workload shape, checked against measurement.
//!
//! Give it a concurrency level, a similarity level and a residency and it
//! (a) prints the governor's a-priori routing analysis — predicted
//! query-centric vs shared response times and the route it would pick —
//! then (b) measures the three execution policies (always query-centric,
//! always shared, adaptive) on a matching synthetic workload plus the
//! paper's named configurations, and compares.
//!
//! ```sh
//! cargo run --release --example sharing_advisor -- 64 high disk
//! cargo run --release --example sharing_advisor -- 4 low mem
//! ```

use workshare::harness::run_batch;
use workshare::{
    workload, Dataset, ExecPolicy, GovernorConfig, IoMode, NamedConfig, Route, RunConfig,
    SharingGovernor, StarQuery,
};
use workshare_common::SharingSignals;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let concurrency: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let similarity = args.get(2).map(|s| s.as_str()).unwrap_or("high").to_string();
    let disk = args.get(3).map(|s| s.as_str()).unwrap_or("disk") != "mem";

    let queries: Vec<StarQuery> = match similarity.as_str() {
        "high" => workload::limited_plans(concurrency, 4, 7, workload::ssb_q3_2_narrow),
        "mid" => workload::limited_plans(concurrency, 16, 7, workload::ssb_q3_2),
        _ => {
            let mut r = workload::rng(7);
            (0..concurrency)
                .map(|i| workload::ssb_q3_2(i as u64, &mut r))
                .collect()
        }
    };
    let distinct: std::collections::HashSet<u64> =
        queries.iter().map(|q| q.full_signature()).collect();
    println!(
        "Advisor input: {concurrency} concurrent queries, similarity='{similarity}', \
         {} ({} distinct plans)\n",
        if disk { "disk-resident" } else { "memory-resident" },
        distinct.len()
    );

    let dataset = Dataset::ssb(0.5, 42);
    let mut cfg = RunConfig::governed(ExecPolicy::Adaptive);
    if disk {
        cfg.io_mode = IoMode::BufferedDisk;
    }

    // ---- a-priori: the governor's own analysis ------------------------
    // Catalog-derived signals for the workload's star shape (the engine
    // derives the same ones per submission at run time).
    let storage = dataset.instantiate(cfg.storage_config(), cfg.cost);
    let fact = storage.table("lineorder");
    let dim_tuples: usize = queries[0]
        .dims
        .iter()
        .map(|d| storage.row_count(storage.table(&d.dim)))
        .sum();
    let signals = SharingSignals {
        concurrency: concurrency.saturating_sub(1) as f64,
        fact_bytes: storage.table_bytes(fact) as f64,
        disk_bandwidth_bytes_per_sec: if disk {
            cfg.disk.bandwidth_bytes_per_sec
        } else {
            0.0
        },
        ..SharingSignals::cold(
            storage.row_count(fact) as f64,
            dim_tuples as f64,
            queries[0].dims.len(),
        )
    };
    let governor = SharingGovernor::new(cfg.cost, GovernorConfig::default());
    let shape = queries[0].shape_signature();
    let qc_pred = governor.predicted_ns_keyed(shape, Route::QueryCentric, &signals) / 1e9;
    let sh_pred = governor.predicted_ns_keyed(shape, Route::Shared, &signals) / 1e9;
    println!("Governor a-priori at {concurrency} concurrent queries:");
    println!("  predicted query-centric response: {qc_pred:.4}s");
    println!("  predicted shared response:        {sh_pred:.4}s");
    println!(
        "  a-priori route:                   {:?}\n",
        governor.decide_keyed(shape, &signals)
    );

    // ---- measured: the three policies + the paper's configs -----------
    println!("{:<12} {:>12} {:>8}  routing", "config", "mean (s)", "cores");
    let mut best: Option<(&'static str, f64)> = None;
    for policy in [
        ExecPolicy::QueryCentric,
        ExecPolicy::Shared,
        ExecPolicy::Adaptive,
    ] {
        let mut pc = cfg;
        pc.policy = Some(policy);
        let rep = run_batch(&dataset, &pc, &queries, false);
        let mean = rep.mean_latency_secs();
        let routing = rep
            .governor
            .map(|g| {
                format!(
                    "qc={} shared={} flips={}",
                    g.routed_query_centric, g.routed_shared, g.flips
                )
            })
            .unwrap_or_default();
        println!(
            "{:<12} {:>12.4} {:>8.2}  {}",
            rep.config, mean, rep.avg_cores_used, routing
        );
        if best.is_none_or(|(_, b)| mean < b) {
            best = Some((rep.config, mean));
        }
    }
    for engine in NamedConfig::all() {
        let mut ec = RunConfig::named(engine);
        ec.io_mode = cfg.io_mode;
        let rep = run_batch(&dataset, &ec, &queries, false);
        let mean = rep.mean_latency_secs();
        println!("{:<12} {:>12.4} {:>8.2}", rep.config, mean, rep.avg_cores_used);
        if best.is_none_or(|(_, b)| mean < b) {
            best = Some((rep.config, mean));
        }
    }
    let (winner, secs) = best.unwrap();
    println!("\nMeasured recommendation: {winner} ({secs:.4}s mean response).");
    println!(
        "Governor verdict: the adaptive policy routes this workload without \
         being told its regime; static configs are only right on their own \
         side of the crossover."
    );
}
