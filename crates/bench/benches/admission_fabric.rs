//! Macro-benchmark: the engine-level **cross-stage admission fabric** vs
//! per-stage admission pools on a two-fact crowd whose star queries filter
//! the *same* dimension tables.
//!
//! Both runs use the governed engine pinned to the shared path with sharded
//! per-fact stages, so the *only* difference is who runs the admission
//! scans:
//!
//! * **fabric** (`RunConfig::admission_fabric = true`, the default): every
//!   stage hands its pending batch to one engine-level pool; a batching
//!   window merges the stages' batches and scans each distinct dimension
//!   table **once for both facts**.
//! * **per-stage** (`admission_fabric = false`, the pre-fabric behavior):
//!   each stage's own worker scans customer/supplier/date for its half of
//!   the crowd — every shared dimension is read twice per burst.
//!
//! Virtual admission seconds are printed as JSON lines:
//!
//! ```text
//! {"bench":"speedup_admission_fabric/32","fabric_secs":…,
//!  "perstage_secs":…,"ratio":…,"fabric_pages":…,"perstage_pages":…}
//! ```
//!
//! Acceptance (checked by this binary, non-zero exit on failure) at 32
//! queued queries over shared dimensions:
//!
//! * the fabric admits with ≥ 1.3× lower mean virtual admission time than
//!   the per-stage pools, and
//! * the physical scan count proves each shared dimension was scanned once
//!   per batch window: `admission_dim_pages` equals the distinct dimension
//!   page count × windows, and undercuts the per-stage pools' reads.

use workshare_bench::{bench_line, count, gate, rounded};
use workshare_core::harness::run_batch;
use workshare_core::{workload, Dataset, ExecPolicy, RunConfig, StarQuery};

/// Mixed two-fact batch of plan-diverse narrow Q3.2 instances (w = 1:
/// admission cost is dominated by the physical dimension scan, the part
/// the fabric shares; predicate evaluation stays per query on both sides).
fn mixed_batch(n: usize, seed: u64) -> Vec<StarQuery> {
    let mut r = workload::rng(seed);
    (0..n)
        .map(|i| {
            let mut q = workload::ssb_q3_2_wide(i as u64, &mut r, 1, 1);
            if i % 2 == 1 {
                q.fact = "lineorder2".into();
            }
            q
        })
        .collect()
}

fn main() {
    // SF 2: large enough that the physical dimension scan (the part the
    // fabric shares) dominates the per-query fixed admission charges.
    let dataset = Dataset::ssb_two_facts(2.0, 42);
    let gate_n = 32usize;
    let gate_ratio = 1.3;
    // Distinct dimension pages of the star schema: what one shared scan
    // pass over all three dimensions costs physically.
    let cfg = RunConfig::governed(ExecPolicy::Shared);
    let sm = dataset.instantiate(cfg.storage_config(), cfg.cost);
    let pages_once: u64 = ["customer", "supplier", "date"]
        .iter()
        .map(|t| sm.page_count(sm.table(t)) as u64)
        .sum();
    let mut failures = Vec::new();
    for n in [8usize, 32] {
        let queries = mixed_batch(n, 11 + n as u64);
        let fabric_run = run_batch(&dataset, &cfg, &queries, false);
        let mut perstage_cfg = cfg;
        perstage_cfg.admission_fabric = false;
        let perstage_run = run_batch(&dataset, &perstage_cfg, &queries, false);
        let ratio = perstage_run.admission_secs() / fabric_run.admission_secs();
        let fs = fabric_run.fabric.expect("fabric run reports FabricStats");
        let fabric_pages = fabric_run.cjoin.clone().unwrap().admission_dim_pages;
        let perstage_pages = perstage_run.cjoin.clone().unwrap().admission_dim_pages;
        bench_line(
            &format!("speedup_admission_fabric/{n}"),
            [
                ("fabric_secs", rounded(fabric_run.admission_secs(), 6)),
                ("perstage_secs", rounded(perstage_run.admission_secs(), 6)),
                ("ratio", rounded(ratio, 3)),
                ("fabric_pages", count(fabric_pages)),
                ("perstage_pages", count(perstage_pages)),
                ("windows", count(fs.batches)),
                ("cross_stage_windows", count(fs.cross_stage_batches)),
            ],
        );
        // Shared-scan invariant: each distinct dimension scanned once per
        // batching window, counted once (fabric-attributed), strictly
        // fewer physical reads than the per-stage pools.
        if fabric_pages != pages_once * fs.batches {
            failures.push(format!(
                "fabric read {fabric_pages} pages over {} windows; expected {} per window",
                fs.batches, pages_once
            ));
        }
        if fs.cross_stage_batches == 0 {
            failures.push(format!(
                "no batching window merged the two stages at {n} queries: {fs:?}"
            ));
        }
        if fabric_pages >= perstage_pages {
            failures.push(format!(
                "fabric pages {fabric_pages} not below per-stage pages {perstage_pages} at {n} queries"
            ));
        }
        if n == gate_n && ratio < gate_ratio {
            failures.push(format!(
                "fabric admission only {ratio:.3}x cheaper than per-stage pools at {n} queued queries (need >={gate_ratio}x)"
            ));
        }
    }
    gate(&failures);
}
