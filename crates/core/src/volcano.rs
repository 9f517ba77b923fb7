//! Volcano-style query-centric engine — the Postgres substitute.
//!
//! The paper's Figure 16 compares against PostgreSQL 9.1.4 as "another
//! example of a query-centric execution engine that does not share among
//! concurrent queries". The property that matters is *no inter-query
//! sharing*: each query scans, joins and aggregates privately, one thread
//! per query, tuple at a time. Contention appears exactly where it does for
//! Postgres: the buffer pool, the disk, and the CPUs.
//!
//! No exchange/queue overheads are charged (a mature single-threaded
//! executor has none), so a single Volcano query is *cheaper* than a single
//! staged-engine query — reproducing the paper's observation that Postgres
//! wins at low concurrency while collapsing at high concurrency.

use std::sync::Arc;

use workshare_common::agg::Aggregator;
use workshare_common::bind::BoundQuery;
use workshare_common::fxhash::FxHashMap;
use workshare_common::value::Row;
use workshare_common::{CostModel, StarQuery};
use workshare_qpipe::ops::finish_aggregate;
use workshare_sim::{CostKind, SimCtx};
use workshare_storage::{StorageError, StorageManager};

/// Bind `q` and execute it start-to-finish on the calling vthread; returns
/// result rows. Panics on a bind error or an unrecoverable page read — the
/// engine's submission path binds once in its driver and calls
/// [`try_run_volcano_query`], which reports a failed read as a typed error.
pub fn run_volcano_query(
    ctx: &SimCtx,
    storage: &StorageManager,
    q: &StarQuery,
    cost: &CostModel,
) -> Vec<Row> {
    let bound = storage
        .bind_query(q)
        .unwrap_or_else(|e| panic!("bind failed for query {}: {e}", q.id));
    match try_run_volcano_query(ctx, storage, q, &bound, cost) {
        Ok(rows) => rows,
        Err(e) => panic!("volcano query {}: {e}", q.id),
    }
}

/// Execute `q`, already bound to `bound`, with unrecoverable page reads
/// surfaced as typed [`StorageError`]s instead of panics (transient faults
/// are already retried with backoff inside the storage manager).
pub fn try_run_volcano_query(
    ctx: &SimCtx,
    storage: &StorageManager,
    q: &StarQuery,
    bound: &BoundQuery,
    cost: &CostModel,
) -> Result<Vec<Row>, StorageError> {
    let fact_t = storage.table(&q.fact);
    let fact_schema = storage.schema(fact_t);
    let dim_ts: Vec<_> = q.dims.iter().map(|d| storage.table(&d.dim)).collect();
    let dim_schemas: Vec<_> = dim_ts.iter().map(|&t| storage.schema(t)).collect();

    // Build one private hash table per dimension (sequentially, as a
    // single-threaded executor would).
    let mut tables: Vec<FxHashMap<i64, Row>> = Vec::with_capacity(q.dims.len());
    for (k, dj) in q.dims.iter().enumerate() {
        let t = dim_ts[k];
        let schema = &dim_schemas[k];
        let stream = storage.new_stream();
        let terms = dj.pred.term_count();
        let pk = bound.dim_pk_idx[k];
        let payload = &bound.dim_payload_idx[k];
        let mut table = FxHashMap::default();
        for p in 0..storage.page_count(t) {
            let page = storage.try_read_page(ctx, t, p, stream)?;
            let rows = page.decode_all(schema);
            ctx.charge(
                CostKind::Scan,
                cost.scan_page_fixed_ns
                    + (cost.scan_tuple_ns + cost.volcano_tuple_overhead_ns)
                        * rows.len() as f64,
            );
            // A mature executor evaluates quals with dispatch amortized per
            // page; its tuple-at-a-time identity cost is
            // `volcano_tuple_overhead_ns`, charged with the scan above.
            ctx.charge(CostKind::Select, cost.select_batch_cost(terms, rows.len()));
            let mut built = 0usize;
            for row in rows {
                if dj.pred.eval(&row) {
                    built += 1;
                    let mut v = Row::with_capacity(payload.len());
                    for &ci in payload {
                        v.push(row[ci].clone());
                    }
                    table.insert(row[pk].as_int(), v);
                }
            }
            ctx.charge(CostKind::Hashing, cost.hash_build_tuple_ns * built as f64);
        }
        tables.push(table);
    }

    // Scan the fact table, filter, probe every dimension, aggregate.
    let mut agg = Aggregator::new(bound);
    let stream = storage.new_stream();
    let fact_terms = q.fact_pred.term_count();
    for p in 0..storage.page_count(fact_t) {
        let page = storage.try_read_page(ctx, fact_t, p, stream)?;
        let rows = page.decode_all(&fact_schema);
        ctx.charge(
            CostKind::Scan,
            cost.scan_page_fixed_ns
                + (cost.scan_tuple_ns + cost.volcano_tuple_overhead_ns)
                    * rows.len() as f64,
        );
        ctx.charge(
            CostKind::Select,
            cost.select_batch_cost(fact_terms, rows.len()),
        );
        let mut probes = 0usize;
        let mut joined_rows = 0usize;
        'row: for row in rows {
            if !q.fact_pred.eval(&row) {
                continue;
            }
            let mut joined = bound.project_fact(&row);
            for (k, table) in tables.iter().enumerate() {
                probes += 1;
                match table.get(&row[bound.fact_fk_idx[k]].as_int()) {
                    Some(payload) => joined.extend(payload.iter().cloned()),
                    None => continue 'row,
                }
            }
            joined_rows += 1;
            agg.update(&joined);
        }
        ctx.charge(CostKind::Hashing, cost.hash_probe_tuple_ns * probes as f64);
        ctx.charge(
            CostKind::Join,
            cost.join_output_tuple_ns * joined_rows as f64,
        );
        ctx.charge(
            CostKind::Aggregation,
            cost.agg_update_tuple_ns * joined_rows as f64,
        );
    }
    Ok(finish_aggregate(ctx, agg, &q.order_by, cost))
}

/// Convenience wrapper: run a Volcano query to completion and return an
/// `Arc` of the rows (for result-equivalence tests).
pub fn volcano_reference(
    ctx: &SimCtx,
    storage: &StorageManager,
    q: &StarQuery,
    cost: &CostModel,
) -> Arc<Vec<Row>> {
    Arc::new(run_volcano_query(ctx, storage, q, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::workload;
    use workshare_sim::{Machine, MachineConfig};
    use workshare_storage::{IoMode, StorageConfig};

    #[test]
    fn volcano_q3_2_produces_plausible_output() {
        let d = Dataset::ssb(0.05, 7);
        let sm = d.instantiate(
            StorageConfig {
                io_mode: IoMode::Memory,
                ..Default::default()
            },
            CostModel::default(),
        );
        let m = Machine::new(MachineConfig {
            cores: 4,
            ..Default::default()
        });
        let mut rng = workload::rng(1);
        let q = workload::ssb_q3_2(1, &mut rng);
        let cost = CostModel::default();
        let rows = m
            .spawn("vq", move |ctx| run_volcano_query(ctx, &sm, &q, &cost))
            .join()
            .unwrap();
        // Output arity: c_city, s_city, d_year, revenue.
        for r in &rows {
            assert_eq!(r.len(), 4);
        }
        assert!(m.now_ns() > 0.0, "work was charged");
    }

    #[test]
    fn volcano_is_deterministic() {
        let d = Dataset::ssb(0.05, 7);
        let sm = d.instantiate(StorageConfig::default(), CostModel::default());
        let m = Machine::new(MachineConfig::default());
        let mut rng = workload::rng(3);
        let q = workload::ssb_q1_1(1, &mut rng);
        let cost = CostModel::default();
        let sm2 = sm.clone();
        let q2 = q.clone();
        let r1 = m
            .spawn("a", move |ctx| run_volcano_query(ctx, &sm2, &q2, &cost))
            .join()
            .unwrap();
        let r2 = m
            .spawn("b", move |ctx| run_volcano_query(ctx, &sm, &q, &cost))
            .join()
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 1, "Q1.1 is a global aggregate");
    }
}
