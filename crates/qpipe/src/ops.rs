//! Operator packet bodies: selection/projection, hash-join, aggregation.
//!
//! Each body runs inside one packet vthread, pulls pages from an input
//! exchange, performs the real data work, charges the corresponding virtual
//! CPU categories, and pushes page-sized batches downstream.

use workshare_common::agg::Aggregator;
use workshare_common::bind::BoundQuery;
use workshare_common::fxhash::FxHashMap;
use workshare_common::value::Row;
use workshare_common::{CostModel, OrderKey, Predicate, SelVec};
use workshare_sim::{CostKind, SimCtx};

use crate::batch::BatchBuilder;
use crate::exchange::{Exchange, ExchangeReader};

/// Fact-side select/project: applies the fact predicate to full scan rows
/// and projects them to the working layout `[fks… | fact payload…]`.
pub fn run_fact_select(
    ctx: &SimCtx,
    mut input: ExchangeReader,
    out: Exchange,
    pred: &Predicate,
    bound: &BoundQuery,
    cost: &CostModel,
) {
    let terms = pred.term_count();
    let mut builder = BatchBuilder::new();
    let mut sel = SelVec::new();
    while let Some(batch) = input.next(ctx) {
        // Batch-at-a-time: one vectorized predicate pass produces the
        // selection bitmap; only survivors are projected.
        ctx.charge(CostKind::Select, cost.select_batch_cost(terms, batch.len()));
        pred.eval_batch_into(&batch.rows, &mut sel);
        for row in batch.selected_rows(&sel) {
            if let Some(full) = builder.push(bound.project_fact(row)) {
                out.emit(ctx, full);
            }
        }
    }
    if let Some(rest) = builder.flush() {
        out.emit(ctx, rest);
    }
    out.close();
}

/// Dimension-side select/project: applies the dimension predicate and emits
/// build rows `[pk | payload…]`.
pub fn run_dim_select(
    ctx: &SimCtx,
    mut input: ExchangeReader,
    out: Exchange,
    pred: &Predicate,
    pk_idx: usize,
    payload_idx: &[usize],
    cost: &CostModel,
) {
    let terms = pred.term_count();
    let mut builder = BatchBuilder::new();
    let mut sel = SelVec::new();
    while let Some(batch) = input.next(ctx) {
        ctx.charge(CostKind::Select, cost.select_batch_cost(terms, batch.len()));
        pred.eval_batch_into(&batch.rows, &mut sel);
        for row in batch.selected_rows(&sel) {
            let mut projected = Row::with_capacity(1 + payload_idx.len());
            projected.push(row[pk_idx].clone());
            for &i in payload_idx {
                projected.push(row[i].clone());
            }
            if let Some(full) = builder.push(projected) {
                out.emit(ctx, full);
            }
        }
    }
    if let Some(rest) = builder.flush() {
        out.emit(ctx, rest);
    }
    out.close();
}

/// Query-centric hash join: consumes the build side fully (rows
/// `[pk | payload…]`), then probes the stream side on column
/// `probe_key_idx`, emitting `probe_row ++ payload`.
pub fn run_hash_join(
    ctx: &SimCtx,
    mut build: ExchangeReader,
    mut probe: ExchangeReader,
    out: Exchange,
    probe_key_idx: usize,
    cost: &CostModel,
) {
    // Build phase.
    let mut table: FxHashMap<i64, Row> = FxHashMap::default();
    while let Some(batch) = build.next(ctx) {
        ctx.charge(
            CostKind::Hashing,
            cost.hash_build_tuple_ns * batch.len() as f64,
        );
        for row in &batch.rows {
            let key = row[0].as_int();
            table.insert(key, row[1..].to_vec());
        }
    }
    // Probe phase.
    let mut builder = BatchBuilder::new();
    while let Some(batch) = probe.next(ctx) {
        ctx.charge(
            CostKind::Hashing,
            cost.hash_probe_tuple_ns * batch.len() as f64,
        );
        let mut matches = 0usize;
        for row in &batch.rows {
            if let Some(payload) = table.get(&row[probe_key_idx].as_int()) {
                matches += 1;
                let mut joined = row.clone();
                joined.extend(payload.iter().cloned());
                if let Some(full) = builder.push(joined) {
                    out.emit(ctx, full);
                }
            }
        }
        if matches > 0 {
            ctx.charge(
                CostKind::Join,
                cost.join_output_tuple_ns * matches as f64,
            );
        }
    }
    if let Some(rest) = builder.flush() {
        out.emit(ctx, rest);
    }
    out.close();
}

/// Aggregate + sort tail: folds the joined stream, finalizes groups, sorts
/// by the query's order keys, and returns the result rows.
pub fn run_aggregate(
    ctx: &SimCtx,
    mut input: ExchangeReader,
    bound: &BoundQuery,
    order: &[OrderKey],
    cost: &CostModel,
) -> Vec<Row> {
    let mut agg = Aggregator::new(bound);
    while let Some(batch) = input.next(ctx) {
        ctx.charge(
            CostKind::Aggregation,
            cost.agg_update_tuple_ns * batch.len() as f64,
        );
        for row in &batch.rows {
            agg.update(row);
        }
    }
    finish_aggregate(ctx, agg, order, cost)
}

/// The end of every aggregate, wherever its tuples were folded (the packet
/// above, CJOIN's distributor, Volcano's private plan): charge the group
/// output and the sort, then finalize and order the rows.
pub fn finish_aggregate(
    ctx: &SimCtx,
    agg: Aggregator,
    order: &[OrderKey],
    cost: &CostModel,
) -> Vec<Row> {
    let groups = agg.group_count();
    ctx.charge(
        CostKind::Aggregation,
        cost.agg_group_output_ns * groups as f64,
    );
    if !order.is_empty() {
        ctx.charge(CostKind::Sort, cost.sort_cost(groups));
    }
    agg.finish(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use crate::batch::TupleBatch;
    use crate::exchange::ExchangeKind;
    use workshare_common::bind::{bind, BoundQuery};
    use workshare_common::{
        AggSpec, ColRef, ColType, Column, DimJoin, OrderKey, Schema, StarQuery, Value,
    };
    use workshare_sim::{Machine, MachineConfig};

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            cores: 8,
            ..Default::default()
        })
    }

    fn fact_schema() -> Schema {
        Schema::new(vec![
            Column::new("fk", ColType::Int),
            Column::new("m", ColType::Int),
        ])
    }

    fn dim_schema() -> Schema {
        Schema::new(vec![
            Column::new("pk", ColType::Int),
            Column::new("tag", ColType::Str(4)),
        ])
    }

    fn query() -> StarQuery {
        StarQuery {
            id: 0,
            fact: "f".into(),
            fact_pred: Predicate::between(1, 0i64, 1_000i64),
            dims: vec![DimJoin {
                dim: "d".into(),
                fact_fk: "fk".into(),
                dim_pk: "pk".into(),
                pred: Predicate::True,
                payload: vec!["tag".into()],
            }],
            group_by: vec![ColRef::dim(0, "tag")],
            aggs: vec![AggSpec::sum(ColRef::fact("m"))],
            order_by: vec![OrderKey {
                output_idx: 0,
                desc: false,
            }],
        }
    }

    fn bound() -> BoundQuery {
        bind(&fact_schema(), &[&dim_schema()], &query())
    }

    fn feed(m: &Machine, rows: Vec<Row>) -> (Exchange, ExchangeReader) {
        let ex = Exchange::new(ExchangeKind::Spl, m, CostModel::default(), 8);
        let r = ex.attach(None);
        let exp = ex.clone();
        m.spawn("feeder", move |ctx| {
            exp.emit(ctx, Arc::new(TupleBatch::new(rows)));
            exp.close();
        });
        (ex, r)
    }

    #[test]
    fn select_filters_and_projects() {
        let m = machine();
        let q = query();
        let b = bound();
        let rows: Vec<Row> = (0..10)
            .map(|i| vec![Value::Int(i % 3), Value::Int(i * 200)])
            .collect();
        let cost = CostModel::default();
        let out = m
            .spawn("coord", move |ctx| {
                let (_fex, fr) = feed(ctx.machine(), rows);
                let out_ex =
                    Exchange::new(ExchangeKind::Spl, ctx.machine(), cost, 8);
                let mut out_r = out_ex.attach(None);
                run_fact_select(ctx, fr, out_ex, &q.fact_pred, &b, &cost);
                let mut got = Vec::new();
                while let Some(batch) = out_r.next(ctx) {
                    got.extend(batch.rows.clone());
                }
                got
            })
            .join()
            .unwrap();
        // m <= 1000 keeps i*200 for i in 0..=5 → 6 rows, layout [fk, m].
        assert_eq!(out.len(), 6);
        for r in &out {
            assert!(r[1].as_int() <= 1000);
            assert_eq!(r.len(), 2);
        }
    }

    #[test]
    fn join_matches_and_appends_payload() {
        let m = machine();
        let cost = CostModel::default();
        let out = m
            .spawn("coord", move |ctx| {
                let build_rows: Vec<Row> = (0..3)
                    .map(|i| vec![Value::Int(i), Value::str(&format!("t{i}"))])
                    .collect();
                let probe_rows: Vec<Row> = (0..10)
                    .map(|i| vec![Value::Int(i % 5), Value::Int(i)])
                    .collect();
                let (_bex, br) = feed(ctx.machine(), build_rows);
                let (_pex, pr) = feed(ctx.machine(), probe_rows);
                let out_ex = Exchange::new(ExchangeKind::Spl, ctx.machine(), cost, 8);
                let mut out_r = out_ex.attach(None);
                run_hash_join(ctx, br, pr, out_ex, 0, &cost);
                let mut got = Vec::new();
                while let Some(b) = out_r.next(ctx) {
                    got.extend(b.rows.clone());
                }
                got
            })
            .join()
            .unwrap();
        // keys 0,1,2 of i%5 match → i ∈ {0,1,2,5,6,7} → 6 rows of arity 3.
        assert_eq!(out.len(), 6);
        for r in &out {
            assert_eq!(r.len(), 3);
            let key = r[0].as_int();
            assert_eq!(r[2].as_str(), format!("t{key}"));
        }
    }

    #[test]
    fn aggregate_groups_and_sorts() {
        let m = machine();
        let cost = CostModel::default();
        let b = bound();
        let order = query().order_by;
        // Joined layout: [fk, m, tag]
        let rows: Vec<Row> = vec![
            vec![Value::Int(0), Value::Int(10), Value::str("b")],
            vec![Value::Int(1), Value::Int(5), Value::str("a")],
            vec![Value::Int(0), Value::Int(7), Value::str("b")],
        ];
        let out = m
            .spawn("coord", move |ctx| {
                let (_ex, r) = feed(ctx.machine(), rows);
                run_aggregate(ctx, r, &b, &order, &cost)
            })
            .join()
            .unwrap();
        assert_eq!(
            out,
            vec![
                vec![Value::str("a"), Value::Float(5.0)],
                vec![Value::str("b"), Value::Float(17.0)],
            ]
        );
    }

    #[test]
    fn full_mini_pipeline_end_to_end() {
        // scan rows → fact select → join → aggregate, all as packets.
        let m = machine();
        let cost = CostModel::default();
        let q = query();
        let b = bound();
        let out = m
            .spawn("coord", move |ctx| {
                let fact_rows: Vec<Row> = (0..100)
                    .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
                    .collect();
                let dim_rows: Vec<Row> = (0..4)
                    .map(|i| vec![Value::Int(i), Value::str(if i % 2 == 0 { "ev" } else { "od" })])
                    .collect();
                let (_fex, fr) = feed(ctx.machine(), fact_rows);
                let (_dex, dr) = feed(ctx.machine(), dim_rows);

                let sel_out = Exchange::new(ExchangeKind::Spl, ctx.machine(), cost, 8);
                let sel_r = sel_out.attach(None);
                let q2 = q.clone();
                let b2 = b.clone();
                let sel_out2 = sel_out.clone();
                let sel = ctx.machine().spawn("sel", move |ctx| {
                    run_fact_select(ctx, fr, sel_out2, &q2.fact_pred, &b2, &cost)
                });

                let join_out = Exchange::new(ExchangeKind::Spl, ctx.machine(), cost, 8);
                let join_r = join_out.attach(None);
                let join_out2 = join_out.clone();
                let join = ctx.machine().spawn("join", move |ctx| {
                    run_hash_join(ctx, dr, sel_r, join_out2, 0, &cost)
                });

                let res = run_aggregate(ctx, join_r, &b, &q.order_by, &cost);
                sel.join().unwrap();
                join.join().unwrap();
                res
            })
            .join()
            .unwrap();
        // Groups "ev" (fk 0,2) and "od" (fk 1,3); all m ≤ 1000 pass.
        assert_eq!(out.len(), 2);
        let ev: f64 = (0..100).filter(|i| i % 4 % 2 == 0).map(|i| i as f64).sum();
        let od: f64 = (0..100).filter(|i| i % 4 % 2 == 1).map(|i| i as f64).sum();
        assert_eq!(out[0], vec![Value::str("ev"), Value::Float(ev)]);
        assert_eq!(out[1], vec![Value::str("od"), Value::Float(od)]);
    }
}
