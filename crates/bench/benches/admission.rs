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
//! Speedups are printed as `speedup_shared_dims/N` JSON lines (the
//! `filter_vectorized` convention) over the **virtual** admission seconds
//! of the same batch under both paths. **Self-gating** (non-zero exit on
//! failure): the shared-scan path must be ≥2× cheaper at 32 queued queries
//! over shared dimensions. Virtual time makes the measurement
//! deterministic up to admission batch interleaving; a median over a few
//! runs absorbs that.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};

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

fn bench(c: &mut Criterion) {
    let dataset = Dataset::ssb(0.5, 42);
    let mut g = c.benchmark_group("cjoin_admission_virtual_time");
    g.sample_size(10);
    g.measurement_time(Duration::from_millis(1200));
    g.warm_up_time(Duration::from_millis(300));
    for (label, n, w) in [("narrow_8q", 8usize, 1usize), ("wide_8q", 8, 12), ("narrow_32q", 32, 1)]
    {
        for (mode, serial) in [("serial", true), ("shared", false)] {
            g.bench_with_input(
                BenchmarkId::new(mode, label),
                &(n, w, serial),
                |b, &(n, w, serial)| {
                    b.iter_custom(|iters| {
                        let mut total = 0.0;
                        for _ in 0..iters {
                            total += admission_secs(&dataset, n, w, serial) * 1e9;
                        }
                        Duration::from_nanos(total as u64)
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench
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
    println!(
        "{{\"bench\":\"cjoin_admission/speedup_shared_dims/{}q_w{}\",\"serial_secs\":{:.6},\"shared_secs\":{:.6},\"ratio\":{:.2}}}",
        n, w, serial, shared, ratio
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
    benches();
    let dataset = Dataset::ssb(0.5, 42);
    let mut failures = Vec::new();
    for (n, w) in [(4usize, 1usize), (8, 1), (32, 1), (32, 12)] {
        report_speedup(&dataset, n, w, &mut failures);
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
