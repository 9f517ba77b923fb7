//! Micro-benchmark: CJOIN admission cost (virtual time) — the retained
//! per-query **serial** admission path vs the default **shared-scan**
//! pipeline-overlapped path (§3.1/§5.2.2: "the cost of the admission phase
//! of CJOIN is increased as more tuples are selected").
//!
//! The serial path scans every dimension table once per pending query on
//! the preprocessor thread; the shared path groups the batch by distinct
//! `(dim, fk, pk)` filter core, scans each dimension **once per batch**
//! evaluating all pending predicates per decoded page, and runs the scans
//! on admission workers that overlap fact-page production.
//!
//! Speedups are printed as `speedup_shared_dims/N` JSON lines over the
//! **virtual** admission seconds of the same batch under both paths.
//! **Self-gating** (non-zero exit on failure): the shared-scan path must be
//! ≥2× cheaper at 32 queued queries over shared dimensions. Virtual time
//! makes the measurement deterministic up to admission batch interleaving;
//! a median over a few runs absorbs that.

use workshare_bench::{bench_line, gate, rounded};
use workshare_core::{harness::run_batch, workload, Dataset, NamedConfig, RunConfig};

/// Virtual admission seconds for `n` queries at nation-disjunction width
/// `w`, under serial or shared-scan admission.
fn admission_secs(dataset: &Dataset, n: usize, w: usize, serial: bool) -> f64 {
    let mut r = workload::rng(9);
    let queries: Vec<_> = (0..n)
        .map(|i| workload::ssb_q3_2_wide(i as u64, &mut r, w, w))
        .collect();
    let mut cfg = RunConfig::named(NamedConfig::Cjoin);
    cfg.cjoin_serial_admission = serial;
    run_batch(dataset, &cfg, &queries, false).admission_secs()
}

/// Measure and print one serial/shared virtual-time ratio; gate the
/// 32-query shared-dimension points at ≥2×.
fn report_speedup(dataset: &Dataset, n: usize, w: usize, failures: &mut Vec<String>) {
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let serial = median((0..3).map(|_| admission_secs(dataset, n, w, true)).collect());
    let shared = median((0..3).map(|_| admission_secs(dataset, n, w, false)).collect());
    let ratio = serial / shared;
    bench_line(
        &format!("cjoin_admission/speedup_shared_dims/{n}q_w{w}"),
        [
            ("serial_secs", rounded(serial, 6)),
            ("shared_secs", rounded(shared, 6)),
            ("ratio", rounded(ratio, 2)),
        ],
    );
    // Acceptance bar: ≥2× at 32 queued queries over shared dimensions with
    // narrow predicates (w=1). Wide disjunctions are reported for
    // transparency but not gated: per-query predicate evaluation is the
    // part that cannot be shared, so the ratio honestly shrinks with
    // predicate width (≈2.4× at w=12).
    if n >= 32 && w == 1 && ratio < 2.0 {
        failures.push(format!(
            "shared-scan admission only {ratio:.2}x of serial at {n} queries (w={w}); bar is 2.0x"
        ));
    }
}

fn main() {
    let dataset = Dataset::ssb(0.5, 42);
    let mut failures = Vec::new();
    for (n, w) in [(4usize, 1usize), (8, 1), (32, 1), (32, 12)] {
        report_speedup(&dataset, n, w, &mut failures);
    }
    gate(&failures);
}
