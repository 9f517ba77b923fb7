//! Hash aggregation shared by all engines.
//!
//! QPipe's aggregate stage, CJOIN's query-centric tail and the Volcano
//! baseline all aggregate identically; only their *cost charging* differs
//! (done by the callers). The accumulator is deliberately simple: group key =
//! vector of group-by values, accumulators per [`AggFn`].

use crate::bind::{BoundAgg, BoundAggExpr, BoundQuery};
use crate::fxhash::FxHashMap;
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

/// Streaming hash aggregator over joined rows.
pub struct Aggregator {
    group_idx: Vec<usize>,
    aggs: Vec<BoundAgg>,
    groups: FxHashMap<Vec<Value>, Vec<Acc>>,
}

impl Aggregator {
    /// Aggregator for a bound query.
    pub fn new(bound: &BoundQuery) -> Aggregator {
        Aggregator {
            group_idx: bound.group_idx.clone(),
            aggs: bound.aggs.clone(),
            groups: FxHashMap::default(),
        }
    }

    /// Fold one joined row into the accumulator table.
    pub fn update(&mut self, row: &[Value]) {
        let key: Vec<Value> = self.group_idx.iter().map(|&i| row[i].clone()).collect();
        let aggs = &self.aggs;
        let accs = self
            .groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|a| Acc::new(a.func)).collect());
        for (acc, spec) in accs.iter_mut().zip(aggs) {
            match &spec.expr {
                Some(e) => acc.update(eval_expr(e, row)),
                None => acc.update(0.0), // Count ignores the value
            }
        }
    }

    /// Current group count.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Produce output rows `[group_by… | aggs…]`, sorted by `order` (then by
    /// the full row for determinism).
    pub fn finish(self, order: &[OrderKey]) -> Vec<Row> {
        let mut out: Vec<Row> = self
            .groups
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.into_iter().map(Acc::finish));
                key
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
}
