//! Engine-level tests of the sharing governor: the three [`ExecPolicy`]
//! variants must agree on results, the adaptive router must pick the sane
//! path at both ends of the concurrency spectrum, its per-shape hysteresis
//! must survive alternating workload shapes.

use workshare::harness::run_batch;
use workshare::{
    workload, Dataset, ExecPolicy, GovernorConfig, NamedConfig, Route, RunConfig,
    SharingGovernor, StarQuery,
};
use workshare_common::value::Row;
use workshare_common::{AggSpec, ColRef, CostModel, Predicate, SharingSignals};

fn dataset() -> Dataset {
    Dataset::ssb(0.05, 11)
}

fn q32_batch(n: usize, seed: u64) -> Vec<StarQuery> {
    let mut r = workload::rng(seed);
    (0..n).map(|i| workload::ssb_q3_2(i as u64, &mut r)).collect()
}

#[test]
fn all_policies_agree_on_results() {
    let d = dataset();
    let queries = q32_batch(4, 5);
    let baseline = run_batch(&d, &RunConfig::named(NamedConfig::Volcano), &queries, true);
    let expect: Vec<Vec<Row>> = baseline
        .results
        .unwrap()
        .iter()
        .map(|r| (**r).clone())
        .collect();
    for policy in [
        ExecPolicy::QueryCentric,
        ExecPolicy::Shared,
        ExecPolicy::Adaptive,
    ] {
        let rep = run_batch(&d, &RunConfig::governed(policy), &queries, true);
        let got: Vec<Vec<Row>> = rep
            .results
            .unwrap()
            .iter()
            .map(|r| (**r).clone())
            .collect();
        assert_eq!(got, expect, "{policy:?} diverged from Volcano");
    }
}

#[test]
fn adaptive_cold_start_completes_and_records_one_route() {
    // `active_queries == 0`, no incumbent: the governor must
    // still produce a correct result and coherent stats.
    let d = dataset();
    let mut r = workload::rng(3);
    let queries = vec![workload::ssb_q1_1(1, &mut r)];
    let baseline = run_batch(&d, &RunConfig::named(NamedConfig::Volcano), &queries, true);
    let rep = run_batch(
        &d,
        &RunConfig::governed(ExecPolicy::Adaptive),
        &queries,
        true,
    );
    assert_eq!(rep.results.unwrap()[0], baseline.results.unwrap()[0]);
    let gov = rep.governor.expect("governed run must report stats");
    assert_eq!(gov.routed_query_centric + gov.routed_shared, 1, "{gov:?}");
    assert_eq!(gov.flips, 0, "{gov:?}");
    // With worker-tier page decode, even a lone scan-heavy star runs
    // cheaper on the pipelined shared plan than on a serial private one,
    // so the cold start routes Shared. (The admission-bound query-centric
    // cold start is covered at the governor level, where the shape is
    // controlled directly.)
    assert_eq!(gov.routed_shared, 1, "{gov:?}");
}

#[test]
fn adaptive_routes_memory_crowd_shared_since_admission_deserialized() {
    // Memory-resident crowd: before the admission de-serialization this
    // batch leaned query-centric, because every admission serialized in
    // the preprocessor and the queue term dominated the shared estimate.
    // With shared-scan admission (one dimension scan per batch, run off
    // the scan thread) the crowd amortizes admission too, so the governor
    // keeps it on the shared path.
    let d = dataset();
    let rep = run_batch(
        &d,
        &RunConfig::governed(ExecPolicy::Adaptive),
        &q32_batch(32, 7),
        false,
    );
    let gov = rep.governor.expect("governed run must report stats");
    assert!(
        gov.routed_shared > gov.routed_query_centric,
        "32-query batch should lean shared with de-serialized admission: {gov:?}"
    );
    assert!(gov.flips <= 2, "routing flapped: {gov:?}");
    // The shared queries really entered the GQP via batched admission
    // (exact page sharing is asserted deterministically in the stage
    // tests; batch composition here depends on arrival interleaving).
    let cj = rep.cjoin.expect("governed run reports CJOIN stats");
    assert!(cj.admitted > 0 && cj.admission_dim_pages > 0, "{cj:?}");
}

#[test]
fn adaptive_routes_disk_crowd_shared() {
    // Disk-resident: one circular scan feeds everyone while private scans
    // split the device — the crowd must go shared.
    let d = Dataset::ssb(0.3, 11);
    let mut cfg = RunConfig::governed(ExecPolicy::Adaptive);
    cfg.io_mode = workshare::IoMode::BufferedDisk;
    let rep = run_batch(&d, &cfg, &q32_batch(12, 7), false);
    let gov = rep.governor.expect("governed run must report stats");
    assert!(
        gov.routed_shared > gov.routed_query_centric,
        "disk-resident 12-query batch should lean shared: {gov:?}"
    );
    assert!(gov.flips <= 1, "routing flapped: {gov:?}");
    // The shared queries really entered the GQP.
    assert!(rep.cjoin.unwrap().admitted > 0);
}

#[test]
fn governed_shared_runs_dimension_less_queries_on_the_stage() {
    let d = dataset();
    // A dimension-less scan-aggregate is the degenerate star: the governed
    // engine's shared route admits it to its fact's stage like any other
    // query, and builds no second scanner of the table for it.
    let q = StarQuery {
        id: 1,
        fact: "lineorder".into(),
        fact_pred: Predicate::True,
        dims: vec![],
        group_by: vec![],
        aggs: vec![AggSpec::sum(ColRef::fact("lo_revenue"))],
        order_by: vec![],
    };
    let queries = vec![q];
    let baseline = run_batch(&d, &RunConfig::named(NamedConfig::Volcano), &queries, true);
    let rep = run_batch(
        &d,
        &RunConfig::governed(ExecPolicy::Shared),
        &queries,
        true,
    );
    assert_eq!(
        rep.results.unwrap()[0],
        baseline.results.unwrap()[0],
        "stage result diverged"
    );
    assert_eq!(rep.cjoin.unwrap().admitted, 1, "must enter the GQP");
    assert!(
        rep.qpipe_sharing.is_none(),
        "the governed engine has no QPipe"
    );
}

/// Regression for the per-shape hysteresis ROADMAP item: a stream
/// alternating two workload shapes with opposite route preferences must not
/// flip-count an incumbent on every alternation. With the former single
/// global incumbent this stream either flapped ~40 times or routed one
/// shape by the other's incumbent; with state keyed per plan-shape
/// signature each shape keeps its own stable route.
#[test]
fn alternating_shapes_keep_independent_incumbents() {
    let g = SharingGovernor::new(CostModel::default(), GovernorConfig::default());
    // Shape A: memory-resident scan-heavy — decisively Shared.
    let shared_shape = SharingSignals {
        dim_selectivity: 0.1,
        ..SharingSignals::cold(30_000.0, 4_000.0, 3)
    }
    .with_crowd(4.0);
    // Shape B: tiny tables, admission-fixed-cost-dominated — decisively
    // QueryCentric.
    let qc_shape = SharingSignals {
        dim_selectivity: 0.1,
        ..SharingSignals::cold(100.0, 100.0, 1)
    }
    .with_crowd(4.0);
    let (sig_a, sig_b) = (0xA11CE, 0xB0B);
    for _ in 0..20 {
        assert_eq!(g.decide_keyed(sig_a, &shared_shape), Route::Shared);
        assert_eq!(g.decide_keyed(sig_b, &qc_shape), Route::QueryCentric);
    }
    let st = g.stats();
    assert_eq!(st.flips, 0, "alternating shapes flip-counted: {st:?}");
    assert_eq!(st.shapes, 2);
    assert_eq!(st.routed_shared, 20);
    assert_eq!(st.routed_query_centric, 20);
}

/// The engine keys governor state by `StarQuery::shape_signature`: a batch
/// alternating two query templates routes each template consistently
/// without flapping a shared incumbent.
#[test]
fn engine_routes_alternating_templates_without_flapping() {
    let d = dataset();
    let mut r = workload::rng(23);
    let queries: Vec<StarQuery> = (0..16)
        .map(|i| {
            if i % 2 == 0 {
                // Admission-bound single-dim star: leans query-centric.
                workload::ssb_q1_1(i as u64, &mut r)
            } else {
                // Scan-heavy three-dim star: leans shared once crowded.
                workload::ssb_q3_2(i as u64, &mut r)
            }
        })
        .collect();
    let rep = run_batch(&d, &RunConfig::governed(ExecPolicy::Adaptive), &queries, false);
    let gov = rep.governor.expect("governed run must report stats");
    // Each shape may settle once (≤ 1 flip per shape); alternation itself
    // must contribute nothing.
    assert!(gov.flips <= 2, "alternating templates flapped: {gov:?}");
    assert!(gov.shapes >= 2, "shapes not keyed separately: {gov:?}");
}

#[test]
fn policy_labels_flow_into_reports() {
    let d = dataset();
    let rep = run_batch(
        &d,
        &RunConfig::governed(ExecPolicy::Adaptive),
        &q32_batch(2, 9),
        false,
    );
    assert_eq!(rep.config, "Adaptive");
    let rep = run_batch(&d, &RunConfig::named(NamedConfig::QpipeSp), &q32_batch(2, 9), false);
    assert_eq!(rep.config, "QPipe-SP");
    assert!(rep.governor.is_none());
}
