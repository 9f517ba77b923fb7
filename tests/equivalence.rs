//! Master correctness property: every engine configuration returns the same
//! result set for the same workload. This is what makes the performance
//! comparisons meaningful — all six configurations compute identical
//! answers; only *how* they share differs.

use std::sync::OnceLock;

use workshare::harness::{run_batch, run_batch_on};
use workshare::{
    workload, Dataset, ExchangeKind, ExecPolicy, IoMode, NamedConfig, RunConfig, StarQuery,
};
use workshare_common::value::Row;
use workshare_common::{AggSpec, ColRef, Predicate};

fn ssb() -> &'static Dataset {
    static D: OnceLock<Dataset> = OnceLock::new();
    D.get_or_init(|| Dataset::ssb(0.05, 1234))
}

fn tpch() -> &'static Dataset {
    static D: OnceLock<Dataset> = OnceLock::new();
    D.get_or_init(|| Dataset::tpch(0.05, 1234))
}

fn results_for(
    dataset: &Dataset,
    fact: &str,
    cfg: &RunConfig,
    queries: &[StarQuery],
) -> Vec<Vec<Row>> {
    let rep = run_batch_on(dataset, cfg, fact, queries, true);
    rep.results
        .unwrap()
        .iter()
        .map(|r| (**r).clone())
        .collect()
}

fn assert_all_engines_agree(dataset: &Dataset, fact: &str, queries: &[StarQuery]) {
    let mut baseline: Option<Vec<Vec<Row>>> = None;
    for engine in NamedConfig::all() {
        let cfg = RunConfig::named(engine);
        let got = results_for(dataset, fact, &cfg, queries);
        assert_eq!(got.len(), queries.len(), "{engine:?} lost queries");
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(&got, b, "{engine:?} diverged from baseline"),
        }
    }
}

#[test]
fn q3_2_random_batch_all_engines() {
    let mut r = workload::rng(77);
    let queries: Vec<_> = (0..5)
        .map(|i| workload::ssb_q3_2(i as u64, &mut r))
        .collect();
    assert_all_engines_agree(ssb(), "lineorder", &queries);
}

#[test]
fn mixed_templates_all_engines() {
    let queries = workload::ssb_mix(6, 3);
    assert_all_engines_agree(ssb(), "lineorder", &queries);
}

#[test]
fn high_similarity_batch_all_engines() {
    // 12 queries, only 2 distinct plans: maximal sharing activity.
    let queries = workload::limited_plans(12, 2, 5, workload::ssb_q3_2_narrow);
    assert_all_engines_agree(ssb(), "lineorder", &queries);
}

#[test]
fn tpch_q1_identical_batch_qpipe_variants() {
    let queries: Vec<_> = (0..6).map(|i| workload::tpch_q1(i as u64)).collect();
    // CJOIN needs the lineorder star schema; Q1 has no joins, so compare
    // the QPipe variants and Volcano.
    let mut baseline: Option<Vec<Vec<Row>>> = None;
    for engine in [
        NamedConfig::Qpipe,
        NamedConfig::QpipeCs,
        NamedConfig::QpipeSp,
        NamedConfig::Volcano,
    ] {
        for kind in [ExchangeKind::Spl, ExchangeKind::Fifo] {
            let mut cfg = RunConfig::named(engine);
            cfg.exchange = kind;
            let got = results_for(tpch(), "lineitem", &cfg, &queries);
            match &baseline {
                None => baseline = Some(got),
                Some(b) => assert_eq!(&got, b, "{engine:?}/{kind:?} diverged"),
            }
        }
    }
    // The aggregate must be non-trivial.
    let rows = &baseline.unwrap()[0];
    assert!(!rows.is_empty(), "Q1 must return groups");
}

/// A query with no dimension join is the degenerate star: a CJOIN stage
/// routes it on its fact predicate alone. Every engine that admits such
/// queries to a stage — the named CJOIN engines and the governed ones —
/// must answer them exactly as Volcano does. Returns Volcano's rows.
fn assert_stage_engines_match_volcano(
    dataset: &Dataset,
    fact: &str,
    queries: &[StarQuery],
) -> Vec<Vec<Row>> {
    let want = results_for(
        dataset,
        fact,
        &RunConfig::named(NamedConfig::Volcano),
        queries,
    );
    for cfg in [
        RunConfig::named(NamedConfig::Cjoin),
        RunConfig::named(NamedConfig::CjoinSp),
        RunConfig::governed(ExecPolicy::Shared),
        RunConfig::governed(ExecPolicy::Adaptive),
    ] {
        let got = results_for(dataset, fact, &cfg, queries);
        assert_eq!(got, want, "{} diverged from Volcano", cfg.label());
    }
    want
}

#[test]
fn dimension_less_sums_on_every_stage_engine() {
    let quantity = workshare_datagen::lineorder_schema().col("lo_quantity");
    let sum_revenue = |id, fact_pred| StarQuery {
        id,
        fact: "lineorder".into(),
        fact_pred,
        dims: vec![],
        group_by: vec![],
        aggs: vec![AggSpec::sum(ColRef::fact("lo_revenue"))],
        order_by: vec![],
    };
    let queries = [
        sum_revenue(0, Predicate::True),
        sum_revenue(1, Predicate::between(quantity, 1i64, 24i64)),
    ];
    let want = assert_stage_engines_match_volcano(ssb(), "lineorder", &queries);
    assert_ne!(want[0], want[1], "the quantity predicate must filter");
}

#[test]
fn tpch_q1_on_every_stage_engine() {
    let queries: Vec<_> = (0..3).map(workload::tpch_q1).collect();
    let want = assert_stage_engines_match_volcano(tpch(), "lineitem", &queries);
    assert!(!want[0].is_empty(), "Q1 must return groups");
}

#[test]
fn disk_modes_do_not_change_answers() {
    let mut r = workload::rng(12);
    let queries: Vec<_> = (0..3)
        .map(|i| workload::ssb_q3_2(i as u64, &mut r))
        .collect();
    let mut baseline: Option<Vec<Vec<Row>>> = None;
    for io in [IoMode::Memory, IoMode::BufferedDisk, IoMode::DirectDisk] {
        for engine in [NamedConfig::QpipeSp, NamedConfig::CjoinSp] {
            let mut cfg = RunConfig::named(engine);
            cfg.io_mode = io;
            let got = results_for(ssb(), "lineorder", &cfg, &queries);
            match &baseline {
                None => baseline = Some(got),
                Some(b) => assert_eq!(&got, b, "{engine:?}/{io:?} diverged"),
            }
        }
    }
}

#[test]
fn fifo_and_spl_exchanges_agree_under_sharing() {
    let queries = workload::limited_plans(8, 2, 9, workload::ssb_q3_2_narrow);
    let mut baseline: Option<Vec<Vec<Row>>> = None;
    for kind in [ExchangeKind::Spl, ExchangeKind::Fifo] {
        let mut cfg = RunConfig::named(NamedConfig::QpipeSp);
        cfg.exchange = kind;
        let got = results_for(ssb(), "lineorder", &cfg, &queries);
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(&got, b, "{kind:?} diverged"),
        }
    }
}

#[test]
fn empty_and_singleton_batches() {
    let rep = run_batch(ssb(), &RunConfig::named(NamedConfig::QpipeSp), &[], false);
    assert_eq!(rep.queries, 0);
    let mut r = workload::rng(1);
    let one = vec![workload::ssb_q1_1(0, &mut r)];
    assert_all_engines_agree(ssb(), "lineorder", &one);
}
