//! Property-based tests of the **sharded multi-fact** shared path: random
//! mixed workloads over two fact tables must produce identical joined rows
//! and aggregates on the sharded governed engine — under the cross-stage
//! admission fabric and under per-stage admission pools — and the per-query
//! Volcano oracle, mirroring the `scalar_filter` / `serial_admission`
//! oracle pattern.

use std::sync::OnceLock;

use proptest::prelude::*;

use workshare::harness::run_batch;
use workshare::{ExecPolicy, NamedConfig, RunConfig, StarQuery};
use workshare_common::value::Row;
use workshare_common::{AggSpec, ColRef, DimJoin, OrderKey, Predicate, Value};
use workshare_datagen::{customer_schema, date_schema, supplier_schema, NATIONS};

fn ssb2() -> &'static workshare::Dataset {
    static D: OnceLock<workshare::Dataset> = OnceLock::new();
    D.get_or_init(|| workshare::Dataset::ssb_two_facts(0.05, 4321))
}

/// A random star query over one of the two fact tables: subset of
/// dimensions, random predicates. Both facts share the dimension tables,
/// so the same join structure lands on whichever stage the fact selects.
fn arb_query() -> impl Strategy<Value = StarQuery> {
    (
        proptest::bool::ANY, // fact table: lineorder / lineorder2
        proptest::bool::ANY, // include customer dim
        proptest::bool::ANY, // include supplier dim
        0usize..25,          // customer nation
        0usize..25,          // supplier nation
        1992i64..=1998,      // year lo
        0i64..4,             // year span
    )
        .prop_map(|(second_fact, with_cust, with_supp, cn, sn, y0, span)| {
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
            // Always join date so every query is a star (CJOIN-eligible).
            dims.push(DimJoin {
                dim: "date".into(),
                fact_fk: "lo_orderdate".into(),
                dim_pk: "d_datekey".into(),
                pred: Predicate::between(ds.col("d_year"), y0, (y0 + span).min(1998)),
                payload: vec!["d_year".into()],
            });
            group_by.push(ColRef::dim(dims.len() - 1, "d_year"));
            let order: Vec<OrderKey> = (0..group_by.len())
                .map(|i| OrderKey {
                    output_idx: i,
                    desc: false,
                })
                .collect();
            StarQuery {
                id: 0,
                fact: if second_fact {
                    "lineorder2".into()
                } else {
                    "lineorder".into()
                },
                fact_pred: Predicate::True,
                dims,
                group_by,
                aggs: vec![AggSpec::sum(ColRef::fact("lo_revenue"))],
                order_by: order,
            }
        })
}

fn results_of(cfg: &RunConfig, queries: &[StarQuery]) -> Vec<Vec<Row>> {
    run_batch(ssb2(), cfg, queries, true)
        .results
        .unwrap()
        .iter()
        .map(|r| (**r).clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharded per-fact stages vs. the per-query Volcano oracle: identical
    /// joined rows and aggregates for every query of a random two-fact
    /// mix, and the sharded run really builds one stage per referenced
    /// fact.
    #[test]
    fn sharded_stages_match_the_query_centric_oracle(
        mut queries in proptest::collection::vec(arb_query(), 1..6),
        dup in proptest::bool::ANY,
    ) {
        // Optionally duplicate a query to exercise identical-plan sharing
        // (SP satellites inside one stage).
        if dup {
            let q = queries[0].clone();
            queries.push(q);
        }
        for (i, q) in queries.iter_mut().enumerate() {
            q.id = i as u64;
        }
        let reference = results_of(&RunConfig::named(NamedConfig::Volcano), &queries);

        let sharded_cfg = RunConfig::governed(ExecPolicy::Shared);
        let sharded = run_batch(ssb2(), &sharded_cfg, &queries, true);
        let got: Vec<Vec<Row>> = sharded
            .results
            .as_ref()
            .unwrap()
            .iter()
            .map(|r| (**r).clone())
            .collect();
        prop_assert_eq!(&got, &reference, "sharded stages diverged from Volcano");

        // Fabric-vs-per-stage-pool oracle: the sharded run above used the
        // engine-level admission fabric (the default); the same mix on
        // per-stage admission pools must produce identical joined rows and
        // identical logical admission stats — only the physical read
        // counters may differ, and the fabric's must not exceed the
        // per-stage pools' (it scans shared dimensions once per window
        // across stages).
        let mut perstage_cfg = RunConfig::governed(ExecPolicy::Shared);
        perstage_cfg.admission_fabric = false;
        let perstage = run_batch(ssb2(), &perstage_cfg, &queries, true);
        let perstage_rows: Vec<Vec<Row>> = perstage
            .results
            .as_ref()
            .unwrap()
            .iter()
            .map(|r| (**r).clone())
            .collect();
        prop_assert_eq!(&perstage_rows, &reference, "per-stage pools diverged");
        let fabric_cj = sharded.cjoin.clone().unwrap();
        let perstage_cj = perstage.cjoin.clone().unwrap();
        prop_assert_eq!(fabric_cj.admitted, perstage_cj.admitted);
        prop_assert_eq!(fabric_cj.sp_shares, perstage_cj.sp_shares);
        prop_assert_eq!(
            fabric_cj.admission_dim_rows, perstage_cj.admission_dim_rows,
            "logical per-query scan volume must be pool-invariant"
        );
        prop_assert!(
            fabric_cj.admission_dim_pages <= perstage_cj.admission_dim_pages,
            "fabric read more pages ({}) than per-stage pools ({})",
            fabric_cj.admission_dim_pages,
            perstage_cj.admission_dim_pages
        );
        let fs = sharded.fabric.expect("sharded run reports fabric stats");
        prop_assert_eq!(fabric_cj.admission_dim_pages, fs.admission_dim_pages);

        // Stage accounting: one row per referenced fact, labels carry the
        // fact, served counts cover every star query of that fact.
        let mut facts: Vec<&str> = queries.iter().map(|q| q.fact.as_str()).collect();
        facts.sort();
        facts.dedup();
        let rows = &sharded.stages;
        prop_assert_eq!(
            rows.iter().map(|r| r.fact.as_str()).collect::<Vec<_>>(),
            facts,
            "one stage row per referenced fact table"
        );
        for row in rows {
            prop_assert_eq!(&row.label, &format!("Shared({})", row.fact));
            let expect = queries.iter().filter(|q| q.fact == row.fact).count() as u64;
            prop_assert_eq!(row.shared_queries, expect, "served count for {}", row.fact);
        }
        // Every query entered a GQP (SP satellites skip admission, so
        // admitted can undercut the query count but never exceed it).
        let total: u64 = rows.iter().map(|r| r.stats.admitted + r.stats.sp_shares).sum();
        prop_assert_eq!(total, queries.len() as u64);
    }
}
