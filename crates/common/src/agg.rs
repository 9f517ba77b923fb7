//! Hash aggregation shared by all engines.
//!
//! QPipe's aggregate stage, CJOIN's query-centric tail and the Volcano
//! baseline all aggregate identically; only their *cost charging* differs
//! (done by the callers). A row's group key is hashed in place, straight
//! from the row's group-by columns, and compared against the stored keys of
//! the groups with that hash: a key is cloned only when it opens a new
//! group, so folding a row into a group already seen allocates nothing.
//! Keys and accumulators are stored flat, one slice per group.

use std::hash::{Hash, Hasher};

use crate::bind::{BoundAgg, BoundAggExpr, BoundQuery};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::plan::{AggFn, OrderKey};
use crate::value::{Row, Value};

#[derive(Debug, Clone, Copy)]
enum Acc {
    Sum(f64),
    Count(u64),
    Min(f64),
    Max(f64),
    Avg { sum: f64, n: u64 },
}

impl Acc {
    fn new(f: AggFn) -> Acc {
        match f {
            AggFn::Sum => Acc::Sum(0.0),
            AggFn::Count => Acc::Count(0),
            AggFn::Min => Acc::Min(f64::INFINITY),
            AggFn::Max => Acc::Max(f64::NEG_INFINITY),
            AggFn::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, v: f64) {
        match self {
            Acc::Sum(s) => *s += v,
            Acc::Count(c) => *c += 1,
            Acc::Min(m) => *m = m.min(v),
            Acc::Max(m) => *m = m.max(v),
            Acc::Avg { sum, n } => {
                *sum += v;
                *n += 1;
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            Acc::Sum(s) => Value::Float(s),
            Acc::Count(c) => Value::Int(c as i64),
            Acc::Min(m) | Acc::Max(m) => Value::Float(m),
            Acc::Avg { sum, n } => Value::Float(if n == 0 { 0.0 } else { sum / n as f64 }),
        }
    }
}

fn eval_expr(e: &BoundAggExpr, row: &[Value]) -> f64 {
    match e {
        BoundAggExpr::Col(i) => row[*i].as_f64(),
        BoundAggExpr::Mul(a, b) => row[*a].as_f64() * row[*b].as_f64(),
    }
}

/// The key hash as the group table sees it. The unit tests swap in a seam
/// that can narrow every hash to a few values, to force collisions.
#[cfg(not(test))]
#[inline(always)]
fn seam(hash: u64) -> u64 {
    hash
}
#[cfg(test)]
use tests::seam;

/// End of a collision chain in [`Aggregator::next`].
const NO_GROUP: u32 = u32::MAX;

/// Streaming hash aggregator over joined rows.
pub struct Aggregator {
    group_idx: Vec<usize>,
    aggs: Vec<BoundAgg>,
    /// Group keys, flat: group `g`'s key is
    /// `keys[g * group_idx.len()..][..group_idx.len()]`.
    keys: Vec<Value>,
    /// Accumulators, flat: group `g`'s are `accs[g * aggs.len()..][..aggs.len()]`.
    accs: Vec<Acc>,
    /// Key hash → the newest group with that hash.
    heads: FxHashMap<u64, u32>,
    /// Per group, the next older group with the same key hash (or
    /// [`NO_GROUP`]): distinct keys that collide chain here.
    next: Vec<u32>,
}

impl Aggregator {
    /// Aggregator for a bound query.
    pub fn new(bound: &BoundQuery) -> Aggregator {
        Aggregator {
            group_idx: bound.group_idx.clone(),
            aggs: bound.aggs.clone(),
            keys: Vec::new(),
            accs: Vec::new(),
            heads: FxHashMap::default(),
            next: Vec::new(),
        }
    }

    /// Fold one joined row into the accumulator table.
    pub fn update(&mut self, row: &[Value]) {
        let hash = self.key_hash(row);
        let g = match self.find(hash, row) {
            Some(g) => g,
            None => self.open_group(hash, row),
        };
        let width = self.aggs.len();
        let accs = &mut self.accs[g * width..][..width];
        for (acc, spec) in accs.iter_mut().zip(&self.aggs) {
            match &spec.expr {
                Some(e) => acc.update(eval_expr(e, row)),
                None => acc.update(0.0), // Count ignores the value
            }
        }
    }

    /// Hash of `row`'s group key, read from the row in place.
    fn key_hash(&self, row: &[Value]) -> u64 {
        let mut h = FxHasher::default();
        for &i in &self.group_idx {
            row[i].hash(&mut h);
        }
        seam(h.finish())
    }

    /// The group whose key equals `row`'s group columns, among those with
    /// key hash `hash`.
    fn find(&self, hash: u64, row: &[Value]) -> Option<usize> {
        let k = self.group_idx.len();
        let mut g = *self.heads.get(&hash)?;
        while g != NO_GROUP {
            let key = &self.keys[g as usize * k..][..k];
            if key.iter().zip(&self.group_idx).all(|(v, &i)| *v == row[i]) {
                return Some(g as usize);
            }
            g = self.next[g as usize];
        }
        None
    }

    /// Open a group for `row`'s key: the only place a key is cloned.
    fn open_group(&mut self, hash: u64, row: &[Value]) -> usize {
        let g = self.next.len();
        self.keys.extend(self.group_idx.iter().map(|&i| row[i].clone()));
        self.accs.extend(self.aggs.iter().map(|a| Acc::new(a.func)));
        let head = self.heads.entry(hash).or_insert(NO_GROUP);
        self.next.push(*head);
        *head = u32::try_from(g).expect("fewer than 2^32 - 1 groups");
        g
    }

    /// Current group count.
    pub fn group_count(&self) -> usize {
        self.next.len()
    }

    /// Produce output rows `[group_by… | aggs…]`, sorted by `order` (then by
    /// the full row for determinism).
    pub fn finish(self, order: &[OrderKey]) -> Vec<Row> {
        let (k, width) = (self.group_idx.len(), self.aggs.len());
        let mut keys = self.keys.into_iter();
        let mut out: Vec<Row> = (0..self.next.len())
            .map(|g| {
                let mut row = Vec::with_capacity(k + width);
                row.extend(keys.by_ref().take(k));
                row.extend(self.accs[g * width..][..width].iter().map(|a| a.finish()));
                row
            })
            .collect();
        out.sort_by(|a, b| {
            for k in order {
                let ord = a[k.output_idx].cmp(&b[k.output_idx]);
                let ord = if k.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(b)
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::BoundQuery;
    use std::cell::Cell;

    thread_local! {
        /// ANDed into every key hash of this thread's aggregators: 0 makes
        /// every key collide, a small mask a few buckets' worth.
        static HASH_MASK: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    pub(super) fn seam(hash: u64) -> u64 {
        hash & HASH_MASK.with(Cell::get)
    }

    fn bound(group_idx: Vec<usize>, aggs: Vec<BoundAgg>) -> BoundQuery {
        BoundQuery {
            fact_fk_idx: vec![],
            fact_payload_idx: vec![],
            dim_pk_idx: vec![],
            dim_payload_idx: vec![],
            group_idx,
            aggs,
            joined_arity: 2,
        }
    }

    fn sum_col(i: usize) -> BoundAgg {
        BoundAgg {
            func: AggFn::Sum,
            expr: Some(BoundAggExpr::Col(i)),
        }
    }

    #[test]
    fn grouped_sum_and_count() {
        let b = bound(
            vec![0],
            vec![
                sum_col(1),
                BoundAgg {
                    func: AggFn::Count,
                    expr: None,
                },
            ],
        );
        let mut a = Aggregator::new(&b);
        for (g, v) in [(1, 10.0), (2, 5.0), (1, 2.5), (2, 5.0)] {
            a.update(&[Value::Int(g), Value::Float(v)]);
        }
        assert_eq!(a.group_count(), 2);
        let out = a.finish(&[OrderKey {
            output_idx: 0,
            desc: false,
        }]);
        assert_eq!(
            out,
            vec![
                vec![Value::Int(1), Value::Float(12.5), Value::Int(2)],
                vec![Value::Int(2), Value::Float(10.0), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn global_aggregate_single_group() {
        let b = bound(vec![], vec![sum_col(0)]);
        let mut a = Aggregator::new(&b);
        for i in 1..=4 {
            a.update(&[Value::Int(i), Value::Int(0)]);
        }
        let out = a.finish(&[]);
        assert_eq!(out, vec![vec![Value::Float(10.0)]]);
    }

    #[test]
    fn min_max_avg() {
        let b = bound(
            vec![],
            vec![
                BoundAgg {
                    func: AggFn::Min,
                    expr: Some(BoundAggExpr::Col(0)),
                },
                BoundAgg {
                    func: AggFn::Max,
                    expr: Some(BoundAggExpr::Col(0)),
                },
                BoundAgg {
                    func: AggFn::Avg,
                    expr: Some(BoundAggExpr::Col(0)),
                },
            ],
        );
        let mut a = Aggregator::new(&b);
        for v in [2.0, 8.0, 5.0] {
            a.update(&[Value::Float(v), Value::Int(0)]);
        }
        let out = a.finish(&[]);
        assert_eq!(
            out,
            vec![vec![Value::Float(2.0), Value::Float(8.0), Value::Float(5.0)]]
        );
    }

    #[test]
    fn product_expression() {
        let b = bound(
            vec![],
            vec![BoundAgg {
                func: AggFn::Sum,
                expr: Some(BoundAggExpr::Mul(0, 1)),
            }],
        );
        let mut a = Aggregator::new(&b);
        a.update(&[Value::Int(3), Value::Int(4)]);
        a.update(&[Value::Int(2), Value::Int(5)]);
        assert_eq!(a.finish(&[]), vec![vec![Value::Float(22.0)]]);
    }

    #[test]
    fn descending_order_and_tiebreak() {
        let b = bound(vec![0], vec![sum_col(1)]);
        let mut a = Aggregator::new(&b);
        a.update(&[Value::Int(1), Value::Float(5.0)]);
        a.update(&[Value::Int(2), Value::Float(5.0)]);
        a.update(&[Value::Int(3), Value::Float(1.0)]);
        let out = a.finish(&[OrderKey {
            output_idx: 1,
            desc: true,
        }]);
        // Equal sums tie-break on the full row ascending.
        assert_eq!(out[0][0], Value::Int(1));
        assert_eq!(out[1][0], Value::Int(2));
        assert_eq!(out[2][0], Value::Int(3));
    }

    #[test]
    fn empty_input_produces_no_groups_when_grouped() {
        let b = bound(vec![0], vec![sum_col(1)]);
        let a = Aggregator::new(&b);
        assert!(a.finish(&[]).is_empty());
    }

    #[test]
    fn colliding_keys_stay_distinct_groups() {
        HASH_MASK.with(|m| m.set(0));
        let b = bound(vec![0, 1], vec![sum_col(2)]);
        let mut a = Aggregator::new(&b);
        for (g, s, v) in [(1, "x", 1.0), (2, "x", 2.0), (1, "y", 4.0), (1, "x", 8.0)] {
            a.update(&[Value::Int(g), Value::str(s), Value::Float(v)]);
        }
        HASH_MASK.with(|m| m.set(u64::MAX));
        assert_eq!(a.group_count(), 3);
        let row = |g, s, v| vec![Value::Int(g), Value::str(s), Value::Float(v)];
        assert_eq!(a.finish(&[]), vec![row(1, "x", 9.0), row(1, "y", 4.0), row(2, "x", 2.0)]);
    }

    /// The aggregator against a reference fold keyed by a `BTreeMap` of
    /// cloned group keys, over random `Int` / `Float` / `Str` group
    /// columns, with every hash distinct, narrowed to four values, or all
    /// equal (every key collides).
    mod reference_fold {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// A value of column type `ty` (0 `Int`, 1 `Float`, 2 `Str`) from a
        /// small domain, so groups repeat. Floats include both zeros and a
        /// NaN (distinct keys under `total_cmp`), strings one longer than a
        /// hash word.
        fn value(ty: u8, pick: u8) -> Value {
            match ty {
                0 => Value::Int(pick as i64 % 4 - 1),
                1 => Value::Float([0.0, -0.0, 1.5, f64::NAN][pick as usize % 4]),
                _ => Value::str(["", "a", "ab", "a longer string"][pick as usize % 4]),
            }
        }

        fn func(f: u8) -> AggFn {
            [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max, AggFn::Avg][f as usize % 5]
        }

        /// The reference: per key, each aggregate's inputs in arrival order,
        /// folded the way [`Acc`] folds them.
        fn reference(b: &BoundQuery, rows: &[Row]) -> Vec<Row> {
            let mut groups: BTreeMap<Vec<Value>, Vec<Vec<f64>>> = BTreeMap::new();
            for row in rows {
                let key = b.group_idx.iter().map(|&i| row[i].clone()).collect();
                let inputs = groups.entry(key).or_insert_with(|| vec![Vec::new(); b.aggs.len()]);
                for (input, spec) in inputs.iter_mut().zip(&b.aggs) {
                    input.push(spec.expr.as_ref().map_or(0.0, |e| eval_expr(e, row)));
                }
            }
            groups
                .into_iter()
                .map(|(mut key, inputs)| {
                    for (input, spec) in inputs.iter().zip(&b.aggs) {
                        let sum = input.iter().fold(0.0, |s, v| s + v);
                        let min = input.iter().fold(f64::INFINITY, |m, v| m.min(*v));
                        let max = input.iter().fold(f64::NEG_INFINITY, |m, v| m.max(*v));
                        key.push(match spec.func {
                            AggFn::Sum => Value::Float(sum),
                            AggFn::Count => Value::Int(input.len() as i64),
                            AggFn::Min => Value::Float(min),
                            AggFn::Max => Value::Float(max),
                            AggFn::Avg => Value::Float(sum / input.len() as f64),
                        });
                    }
                    key
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn the_aggregator_folds_as_a_btreemap_of_cloned_keys(
                types in vec(0u8..3, 1..5),
                group_cols in vec(0usize..8, 0..4),
                specs in vec((0u8..5, 0u8..3), 0..4),
                mask in prop_oneof![Just(u64::MAX), Just(3u64), Just(0u64)],
                cells in vec((vec(any::<u8>(), 5..6), -50i64..50), 0..200),
            ) {
                // Key columns of the drawn types, then an `Int` and a
                // `Float` measure.
                let ncols = types.len() + 2;
                let rows: Vec<Row> = cells
                    .iter()
                    .map(|(picks, m)| {
                        let mut row: Row =
                            types.iter().zip(picks).map(|(&t, &p)| value(t, p)).collect();
                        row.push(Value::Int(*m));
                        row.push(Value::Float(*m as f64 / 4.0));
                        row
                    })
                    .collect();
                let (int_m, float_m) = (ncols - 2, ncols - 1);
                let mut group_idx: Vec<usize> = group_cols.iter().map(|c| c % ncols).collect();
                group_idx.dedup();
                let aggs = specs
                    .iter()
                    .map(|&(f, e)| BoundAgg {
                        func: func(f),
                        expr: match e {
                            0 => Some(BoundAggExpr::Col(int_m)),
                            1 => Some(BoundAggExpr::Col(float_m)),
                            _ => Some(BoundAggExpr::Mul(int_m, float_m)),
                        },
                    })
                    .collect();
                let b = BoundQuery { joined_arity: ncols, ..bound(group_idx, aggs) };
                HASH_MASK.with(|m| m.set(mask));
                let mut a = Aggregator::new(&b);
                rows.iter().for_each(|r| a.update(r));
                HASH_MASK.with(|m| m.set(u64::MAX));
                let want = reference(&b, &rows);
                prop_assert_eq!(a.group_count(), want.len());
                prop_assert_eq!(a.finish(&[]), want);
            }
        }
    }
}
