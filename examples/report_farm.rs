//! Report farm: a closed-loop reporting cluster — every client runs an
//! ad-hoc SSB query, waits for the answer, and immediately submits the
//! next (the paper's Figure 16 throughput setting, low similarity).
//!
//! Shows the throughput trade-off: the query-centric baseline saturates and
//! then *degrades* as clients are added, while the GQP keeps absorbing
//! clients with near-constant marginal cost.
//!
//! ```sh
//! cargo run --release --example report_farm
//! ```

use workshare::harness::{run_service, ServiceLoad};
use workshare::{workload, Dataset, IoMode, NamedConfig, RunConfig};

fn main() {
    let dataset = Dataset::ssb(0.5, 42);
    let window_secs = 5.0; // virtual measurement window
    println!(
        "Report farm: closed-loop clients over a disk-resident SSB database, \
         {window_secs}s virtual window\n"
    );
    println!(
        "{:<12} {:>8} {:>14} {:>14} {:>10}",
        "config", "clients", "queries/hour", "latency (s)", "cores"
    );
    for engine in [
        NamedConfig::Volcano,
        NamedConfig::QpipeSp,
        NamedConfig::CjoinSp,
    ] {
        for clients in [2usize, 8, 32] {
            let mut cfg = RunConfig::named(engine);
            cfg.io_mode = IoMode::BufferedDisk;
            let load = ServiceLoad {
                clients,
                arrivals_per_sec: None,
                tenants: 1,
                window_secs,
                seed: 17,
            };
            let rep = run_service(&dataset, &cfg, "lineorder", load, |id, rng| match id % 3 {
                0 => workload::ssb_q1_1(id, rng),
                1 => workload::ssb_q2_1(id, rng),
                _ => workload::ssb_q3_2(id, rng),
            });
            println!(
                "{:<12} {:>8} {:>14.0} {:>14.4} {:>10.2}",
                rep.config,
                clients,
                rep.queries_per_hour,
                rep.mean_latency_secs,
                rep.avg_cores_used
            );
        }
        println!();
    }
    println!(
        "Expected shape (paper Fig. 16): the query-centric engines' \
         throughput flattens or degrades with clients; CJOIN-SP keeps rising."
    );
}
