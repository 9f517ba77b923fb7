//! Macro-benchmark: the sharing governor vs the two static policies across
//! the concurrency axis.
//!
//! For each concurrency level the same SSB Q3.2 batch is run under three
//! governed configurations — always query-centric (`Gov-QC`), always shared
//! (`Gov-Shared`), and the cost-driven `Adaptive` router — in **two
//! regimes** whose crossovers point in opposite directions:
//!
//! * `disk` (SF 3, buffered disk): the paper's headline regime — one
//!   circular scan feeds everyone while private scans split the device, so
//!   sharing wins and the margin grows with concurrency.
//! * `mem` (SF 0.1, memory-resident): the scan amortizes almost nothing
//!   and every admission serializes in the preprocessor, so private plans
//!   win back the crowds while the pipelined shared plan still takes the
//!   low end.
//!
//! Mean virtual response times are printed as JSON lines:
//!
//! ```text
//! {"bench":"adaptive_router/disk/mean_latency/64","query_centric_secs":…,
//!  "shared_secs":…,"adaptive_secs":…,"best":"Gov-Shared",
//!  "adaptive_vs_best":1.00,"routed_shared":64,"routed_query_centric":0,
//!  "flips":0}
//! ```
//!
//! Acceptance (checked by this binary, non-zero exit on failure): in each
//! regime the adaptive policy lands within 10 % of the *better* static
//! policy at both ends of the sweep (1 and 64 concurrent queries) — the
//! governor must match whichever execution model wins, without being told
//! which regime it is in.

use workshare_bench::json::Json;
use workshare_bench::{bench_line, count, gate, rounded};
use workshare_core::harness::run_batch;
use workshare_core::{workload, Dataset, ExecPolicy, IoMode, RunConfig, StarQuery};

fn batch(n: usize, seed: u64) -> Vec<StarQuery> {
    let mut r = workload::rng(seed);
    (0..n).map(|i| workload::ssb_q3_2(i as u64, &mut r)).collect()
}

fn sweep_regime(
    regime: &str,
    dataset: &Dataset,
    io_mode: IoMode,
    sweep: &[usize],
    gate: &[usize],
    failures: &mut Vec<String>,
) {
    for &n in sweep {
        let queries = batch(n, 7 + n as u64);
        let mut means = Vec::new();
        for policy in [
            ExecPolicy::QueryCentric,
            ExecPolicy::Shared,
            ExecPolicy::Adaptive,
        ] {
            let mut cfg = RunConfig::governed(policy);
            cfg.io_mode = io_mode;
            let rep = run_batch(dataset, &cfg, &queries, false);
            means.push((policy, rep.mean_latency_secs(), rep.governor));
        }
        let (qc, sh, ad) = (means[0].1, means[1].1, means[2].1);
        let (best_label, best) = if qc <= sh {
            ("Gov-QC", qc)
        } else {
            ("Gov-Shared", sh)
        };
        let ratio = ad / best;
        let gov = means[2].2.expect("adaptive run reports governor stats");
        bench_line(
            &format!("adaptive_router/{regime}/mean_latency/{n}"),
            [
                ("query_centric_secs", rounded(qc, 6)),
                ("shared_secs", rounded(sh, 6)),
                ("adaptive_secs", rounded(ad, 6)),
                ("best", Json::Str(best_label.into())),
                ("adaptive_vs_best", rounded(ratio, 3)),
                ("routed_shared", count(gov.routed_shared)),
                ("routed_query_centric", count(gov.routed_query_centric)),
                ("flips", count(gov.flips)),
            ],
        );
        if gate.contains(&n) && ratio > 1.10 {
            failures.push(format!(
                "[{regime}] adaptive {ratio:.3}x of best ({best_label}) at {n} queries exceeds 1.10x"
            ));
        }
    }
}

fn main() {
    let gated = [1usize, 64];
    let mut failures = Vec::new();
    // The paper's headline regime: disk-resident, sharing wins at scale.
    sweep_regime(
        "disk",
        &Dataset::ssb(3.0, 42),
        IoMode::BufferedDisk,
        &[1, 4, 16, 64, 256],
        &gated,
        &mut failures,
    );
    // The inverted regime: memory-resident tiny fact, admission-bound —
    // private plans win back the crowds.
    sweep_regime(
        "mem",
        &Dataset::ssb(0.1, 42),
        IoMode::Memory,
        &[1, 4, 16, 64, 256],
        &gated,
        &mut failures,
    );
    gate(&failures);
}
