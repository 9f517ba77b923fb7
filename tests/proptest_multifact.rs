//! Property-based tests of the **sharded multi-fact** shared path: random
//! mixed workloads over two fact tables must produce identical joined rows
//! and aggregates on the sharded governed engine — under the cross-stage
//! admission fabric and under per-stage admission pools — and the per-query
//! Volcano oracle, mirroring the `serial_admission` oracle pattern. The same holds for an engine that stays up while queries
//! come and go, where the fabric's admission memo — filled by a window of
//! either stage — stands in for most dimension scans.

use std::sync::OnceLock;

use proptest::prelude::*;

use workshare::harness::run_batch;
use workshare::{Engine, ExecPolicy, FabricStats, NamedConfig, RunConfig, StarQuery};
use workshare_cjoin::CjoinStats;
use workshare_common::value::Row;
use workshare_common::{AggSpec, ColRef, DimJoin, OrderKey, Predicate, Value};
use workshare_datagen::{customer_schema, date_schema, supplier_schema, NATIONS};
use workshare_sim::Machine;

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

/// Run `queries` on one governed engine from `clients` closed-loop clients
/// (query `i` is client `i % clients`'s, each client one query at a time):
/// rows in query order, the stages' summed counters, the fabric's.
fn drive(
    cfg: &RunConfig,
    queries: &[StarQuery],
    clients: usize,
) -> (Vec<Vec<Row>>, CjoinStats, Option<FabricStats>) {
    let machine = Machine::new(cfg.machine_config());
    let storage = ssb2().instantiate(cfg.storage_config(), cfg.cost);
    let engine = Engine::new(&machine, &storage, cfg, "lineorder");
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let engine = engine.clone();
            let mine: Vec<(usize, StarQuery)> = queries
                .iter()
                .cloned()
                .enumerate()
                .skip(c)
                .step_by(clients)
                .collect();
            machine.spawn(&format!("client-{c}"), move |_| {
                mine.into_iter()
                    .map(|(i, q)| {
                        let ticket = engine.submit(&q);
                        let rows = (*ticket.wait()).clone();
                        assert_eq!(ticket.error(), None, "query {i}");
                        (i, rows)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut rows: Vec<(usize, Vec<Row>)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client vthread panicked"))
        .collect();
    rows.sort_by_key(|(i, _)| *i);
    let stats = engine.cjoin_stats().expect("a governed engine has stages");
    let fabric = engine.fabric_stats();
    engine.shutdown();
    (rows.into_iter().map(|(_, r)| r).collect(), stats, fabric)
}

fn customer_nation(nation: &str, fact: &str, fk: &str) -> StarQuery {
    StarQuery {
        id: 0,
        fact: fact.into(),
        fact_pred: Predicate::True,
        dims: vec![DimJoin {
            dim: "customer".into(),
            fact_fk: fk.into(),
            dim_pk: "c_custkey".into(),
            pred: Predicate::eq(customer_schema().col("c_nation"), Value::str(nation)),
            payload: vec!["c_city".into()],
        }],
        group_by: vec![ColRef::dim(0, "c_city")],
        aggs: vec![AggSpec::sum(ColRef::fact("lo_revenue"))],
        order_by: vec![OrderKey {
            output_idx: 0,
            desc: false,
        }],
    }
}

/// The memo is keyed on the predicate's value, its table and its key
/// column — and on nothing else. Warm it with `c_nation = 'FRANCE'`; then
/// another nation, the same predicate over `supplier` (`s_nation` sits at
/// `c_nation`'s column index, so the `Predicate`s are equal), the warm
/// predicate through a second foreign key, and on the second fact table.
#[test]
fn the_memo_is_keyed_on_table_key_column_and_predicate_value() {
    let france = customer_nation("FRANCE", "lineorder", "lo_custkey");
    let mut supplier = customer_nation("FRANCE", "lineorder", "lo_suppkey");
    supplier.dims[0].dim = "supplier".into();
    supplier.dims[0].dim_pk = "s_suppkey".into();
    supplier.dims[0].payload = vec!["s_city".into()];
    supplier.group_by = vec![ColRef::dim(0, "s_city")];
    assert_eq!(supplier.dims[0].pred, france.dims[0].pred);
    let mut queries = vec![
        france.clone(),
        customer_nation("GERMANY", "lineorder", "lo_custkey"),
        supplier,
        // Supplier keys are customer keys too (there are fewer suppliers).
        customer_nation("FRANCE", "lineorder", "lo_suppkey"),
        customer_nation("FRANCE", "lineorder2", "lo_custkey"),
        france,
    ];
    for (i, q) in queries.iter_mut().enumerate() {
        q.id = i as u64;
    }
    let reference = results_of(&RunConfig::named(NamedConfig::Volcano), &queries);
    let (rows, _, fabric) = drive(&RunConfig::governed(ExecPolicy::Shared), &queries, 1);
    for (i, (got, want)) in rows.iter().zip(&reference).enumerate() {
        assert_eq!(got, want, "query {i} diverged from Volcano");
    }
    // Second foreign key, second fact table (an entry a `lineorder` window
    // filled serves `lineorder2`'s stage) and the repeat hit; the rest miss.
    let fs = fabric.expect("a governed engine runs a fabric");
    assert_eq!((fs.memo_misses, fs.memo_hits), (3, 3), "{fs:?}");
    assert!(fs.memo_bytes > 0 && fs.memo_evicted_bytes == 0, "{fs:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An engine that stays up: a random two-fact sequence with repeats,
    /// one query at a time and from 8 concurrent clients, equals Volcano
    /// row for row while the memo serves every repeated `(dimension,
    /// predicate)` — whichever stage's window filled it — and the stages'
    /// logical counters are the serial oracle's.
    #[test]
    fn a_warm_memo_serves_both_stages_like_the_oracle(
        distinct in proptest::collection::vec(arb_query(), 1..5),
        picks in proptest::collection::vec(0usize..5, 2..10),
    ) {
        let mut queries: Vec<StarQuery> =
            picks.iter().map(|&p| distinct[p % distinct.len()].clone()).collect();
        for (i, q) in queries.iter_mut().enumerate() {
            q.id = i as u64;
        }
        let reference = results_of(&RunConfig::named(NamedConfig::Volcano), &queries);
        let cfg = RunConfig::governed(ExecPolicy::Shared);
        let (rows, stats, fabric) = drive(&cfg, &queries, 1);
        prop_assert_eq!(&rows, &reference, "one at a time");
        let fs = fabric.expect("a governed engine runs a fabric");
        let mut keys: Vec<(&str, &Predicate)> = queries
            .iter()
            .flat_map(|q| q.dims.iter().map(|d| (d.dim.as_str(), &d.pred)))
            .collect();
        let parts = keys.len() as u64;
        keys.sort_by_key(|(dim, pred)| (*dim, format!("{pred:?}")));
        keys.dedup();
        prop_assert_eq!((fs.memo_misses, fs.memo_hits), (keys.len() as u64, parts - keys.len() as u64));

        let mut serial_cfg = cfg;
        serial_cfg.cjoin_serial_admission = true;
        let (serial_rows, serial_stats, _) = drive(&serial_cfg, &queries, 1);
        prop_assert_eq!(&serial_rows, &reference, "serial oracle");
        prop_assert_eq!(
            (stats.admitted, stats.admission_dim_rows),
            (serial_stats.admitted, serial_stats.admission_dim_rows),
            "logical admission counters are memo-invariant"
        );

        let (rows, _, _) = drive(&cfg, &queries, 8);
        prop_assert_eq!(&rows, &reference, "8 concurrent clients");
    }

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
