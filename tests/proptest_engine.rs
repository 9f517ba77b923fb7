//! Property-based end-to-end tests: random star queries over a fixed small
//! SSB database must produce identical results on the sharing engines and
//! the Volcano reference, under randomized batch composition.

use std::sync::OnceLock;

use proptest::prelude::*;

use workshare::harness::run_batch;
use workshare::{workload, Dataset, NamedConfig, RunConfig, StarQuery};
use workshare_common::value::Row;
use workshare_common::{
    AggSpec, ColRef, DimJoin, OrderKey, Predicate, Value,
};
use workshare_datagen::{customer_schema, date_schema, supplier_schema, NATIONS};

fn ssb() -> &'static Dataset {
    static D: OnceLock<Dataset> = OnceLock::new();
    D.get_or_init(|| Dataset::ssb(0.05, 4321))
}

/// A random star query: subset of dimensions, random predicates.
fn arb_query() -> impl Strategy<Value = StarQuery> {
    (
        proptest::bool::ANY, // include customer dim
        proptest::bool::ANY, // include supplier dim
        0usize..25,          // customer nation
        0usize..25,          // supplier nation
        1992i64..=1998,      // year lo
        0i64..4,             // year span
        proptest::bool::ANY, // fact predicate on/off
    )
        .prop_map(|(with_cust, with_supp, cn, sn, y0, span, fact_pred)| {
            let cs = customer_schema();
            let ss = supplier_schema();
            let ds = date_schema();
            let mut dims = Vec::new();
            let mut group_by = Vec::new();
            if with_cust {
                dims.push(DimJoin {
                    dim: "customer".into(),
                    fact_fk: "lo_custkey".into(),
                    dim_pk: "c_custkey".into(),
                    pred: Predicate::eq(cs.col("c_nation"), Value::str(NATIONS[cn])),
                    payload: vec!["c_city".into()],
                });
                group_by.push(ColRef::dim(dims.len() - 1, "c_city"));
            }
            if with_supp {
                dims.push(DimJoin {
                    dim: "supplier".into(),
                    fact_fk: "lo_suppkey".into(),
                    dim_pk: "s_suppkey".into(),
                    pred: Predicate::eq(ss.col("s_nation"), Value::str(NATIONS[sn])),
                    payload: vec!["s_city".into()],
                });
                group_by.push(ColRef::dim(dims.len() - 1, "s_city"));
            }
            // Always join date so every query has >= 1 dim (CJOIN stage
            // evaluates star joins).
            dims.push(DimJoin {
                dim: "date".into(),
                fact_fk: "lo_orderdate".into(),
                dim_pk: "d_datekey".into(),
                pred: Predicate::between(ds.col("d_year"), y0, (y0 + span).min(1998)),
                payload: vec!["d_year".into()],
            });
            group_by.push(ColRef::dim(dims.len() - 1, "d_year"));
            let fact_pred = if fact_pred {
                let ls = workshare_datagen::lineorder_schema();
                Predicate::between(ls.col("lo_discount"), 0i64, 5i64)
            } else {
                Predicate::True
            };
            let order: Vec<OrderKey> = (0..group_by.len())
                .map(|i| OrderKey {
                    output_idx: i,
                    desc: false,
                })
                .collect();
            StarQuery {
                id: 0,
                fact: "lineorder".into(),
                fact_pred,
                dims,
                group_by,
                aggs: vec![AggSpec::sum(ColRef::fact("lo_revenue"))],
                order_by: order,
            }
        })
}

fn run(engine: NamedConfig, queries: &[StarQuery]) -> Vec<Vec<Row>> {
    let cfg = RunConfig::named(engine);
    run_batch(ssb(), &cfg, queries, true)
        .results
        .unwrap()
        .iter()
        .map(|r| (**r).clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_batches_agree_across_engines(
        mut queries in proptest::collection::vec(arb_query(), 1..4),
        dup in proptest::bool::ANY,
    ) {
        // Optionally duplicate a query to exercise identical-plan sharing.
        if dup {
            let q = queries[0].clone();
            queries.push(q);
        }
        for (i, q) in queries.iter_mut().enumerate() {
            q.id = i as u64;
        }
        let reference = run(NamedConfig::Volcano, &queries);
        for engine in [NamedConfig::QpipeSp, NamedConfig::CjoinSp] {
            let got = run(engine, &queries);
            prop_assert_eq!(&got, &reference, "{:?} diverged", engine);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn similarity_knob_never_changes_results(
        n_plans in 1usize..5,
        n_queries in 2usize..8,
        seed in any::<u64>(),
    ) {
        let queries = workload::limited_plans(n_queries, n_plans, seed, workload::ssb_q3_2_narrow);
        let reference = run(NamedConfig::Volcano, &queries);
        let shared = run(NamedConfig::CjoinSp, &queries);
        prop_assert_eq!(shared, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The shared-scan admission path (dimension tables scanned once per
    /// admission batch by off-thread workers) must be indistinguishable
    /// from the retained per-query serial path: row-identical output and
    /// identical logical `CjoinStats`, across random star queries and SP
    /// duplicates. Only the physical read counters
    /// (`admission_batches`, `admission_dim_pages`) may differ — that is
    /// the optimization being tested.
    #[test]
    fn shared_scan_admission_matches_serial_reference(
        mut queries in proptest::collection::vec(arb_query(), 1..5),
        dup in proptest::bool::ANY,
    ) {
        if dup {
            let q = queries[0].clone();
            queries.push(q);
        }
        for (i, q) in queries.iter_mut().enumerate() {
            q.id = i as u64;
        }
        let shared_cfg = RunConfig::named(NamedConfig::CjoinSp);
        let mut serial_cfg = shared_cfg;
        serial_cfg.cjoin_serial_admission = true;
        let shared_run = run_batch(ssb(), &shared_cfg, &queries, true);
        let serial_run = run_batch(ssb(), &serial_cfg, &queries, true);
        prop_assert_eq!(
            shared_run.results.as_ref().unwrap(),
            serial_run.results.as_ref().unwrap(),
            "admission paths diverged"
        );
        let mut sh = shared_run.cjoin.unwrap();
        let mut se = serial_run.cjoin.unwrap();
        sh.admission_batches = 0;
        se.admission_batches = 0;
        sh.admission_dim_pages = 0;
        se.admission_dim_pages = 0;
        prop_assert_eq!(sh, se, "logical admission stats diverged");
    }
}
