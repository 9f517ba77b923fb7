//! Tests of the extension features: the prediction model and staggered
//! arrivals (WoP semantics end-to-end).

use std::sync::OnceLock;

use workshare::harness::{run_batch, run_staggered};
use workshare::{workload, Dataset, NamedConfig, RunConfig};
use workshare_common::value::Row;

fn ssb() -> &'static Dataset {
    static D: OnceLock<Dataset> = OnceLock::new();
    D.get_or_init(|| Dataset::ssb(0.05, 555))
}

fn results(cfg: &RunConfig, queries: &[workshare::StarQuery]) -> Vec<Vec<Row>> {
    run_batch(ssb(), cfg, queries, true)
        .results
        .unwrap()
        .iter()
        .map(|r| (**r).clone())
        .collect()
}

#[test]
fn prediction_model_skips_sharing_below_saturation() {
    let mut r = workload::rng(71);
    let small: Vec<_> = (0..4)
        .map(|i| workload::ssb_q3_2(i as u64, &mut r))
        .collect();
    let mut cfg = RunConfig::named(NamedConfig::QpipeCs);
    cfg.cs_prediction = true;
    let rep = run_batch(ssb(), &cfg, &small, false);
    let sharing = rep.qpipe_sharing.unwrap();
    assert_eq!(
        sharing.scan_satellites, 0,
        "4 queries on 24 cores must not trigger sharing: {sharing:?}"
    );
}

#[test]
fn prediction_model_shares_at_saturation() {
    let mut r = workload::rng(72);
    let big: Vec<_> = (0..40)
        .map(|i| workload::ssb_q3_2(i as u64, &mut r))
        .collect();
    let mut cfg = RunConfig::named(NamedConfig::QpipeCs);
    cfg.cs_prediction = true;
    let rep = run_batch(ssb(), &cfg, &big, false);
    let sharing = rep.qpipe_sharing.unwrap();
    assert!(
        sharing.scan_satellites > 0,
        "40 queries on 24 cores must share: {sharing:?}"
    );
    // Correctness unchanged.
    let reference = results(&RunConfig::named(NamedConfig::Qpipe), &big[..3]);
    let got = results(&cfg, &big[..3]);
    assert_eq!(got, reference);
}

#[test]
fn staggered_arrivals_close_step_wop_but_not_linear() {
    let pair = workload::limited_plans(2, 1, 9, workload::ssb_q3_2);
    let cfg = RunConfig::named(NamedConfig::QpipeSp);

    // Simultaneous: both windows open → join sharing happens.
    let together = run_staggered(ssb(), &cfg, "lineorder", &pair, 0.0, true);
    let s = together.qpipe_sharing.clone().unwrap();
    assert!(
        s.join_satellites_by_level.iter().sum::<u64>() >= 1,
        "simultaneous identical queries must share joins: {s:?}"
    );

    // Large delay (past completion): nothing shares, results still correct.
    let solo = run_staggered(ssb(), &cfg, "lineorder", &pair[..1], 0.0, false);
    let t1 = solo.latencies_secs[0];
    let apart = run_staggered(ssb(), &cfg, "lineorder", &pair, t1 * 3.0, true);
    let s2 = apart.qpipe_sharing.clone().unwrap();
    assert_eq!(
        s2.join_satellites_by_level.iter().sum::<u64>(),
        0,
        "step WoP must be closed after the host finished: {s2:?}"
    );
    assert_eq!(
        together.results.unwrap()[1],
        apart.results.unwrap()[1],
        "sharing must not change answers"
    );
}

#[test]
fn mid_flight_arrival_attaches_to_linear_wop_scan() {
    let pair = workload::limited_plans(2, 1, 9, workload::ssb_q3_2);
    let cfg = RunConfig::named(NamedConfig::QpipeCs);
    let solo = run_staggered(ssb(), &cfg, "lineorder", &pair[..1], 0.0, false);
    let t1 = solo.latencies_secs[0];
    // Arrive at ~40% of the host's scan: the circular scan accepts it.
    let rep = run_staggered(ssb(), &cfg, "lineorder", &pair, t1 * 0.4, true);
    let s = rep.qpipe_sharing.clone().unwrap();
    assert!(
        s.scan_satellites > 0,
        "linear WoP must accept mid-flight arrivals: {s:?}"
    );
    let rows = rep.results.unwrap();
    assert_eq!(rows[0], rows[1], "wrap-around must yield the full answer");
}
