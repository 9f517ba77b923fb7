//! Query specifications and structural signatures.
//!
//! Every engine configuration consumes the same [`StarQuery`] spec: a fact
//! table, a chain of dimension equi-joins with per-dimension selection
//! predicates (the CJOIN-supported shape), optional fact predicates, and a
//! query-centric aggregation/sort tail. A star query with zero dimensions
//! degenerates to a scan-aggregate query, which is how TPC-H Q1 is expressed.
//!
//! Structural **signatures** (stable hashes that exclude the query id) are
//! what SP matches on: two packets with equal signatures are the *identical
//! sub-plans* of paper §2.2.

use std::hash::Hash;

use crate::fxhash;
use crate::predicate::Predicate;

/// Which relation a column reference addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColSource {
    /// The fact table.
    Fact,
    /// The `i`-th dimension join of the query (0-based).
    Dim(usize),
}

/// A column reference in projection / grouping / aggregation lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Source relation.
    pub source: ColSource,
    /// Column name within that relation.
    pub col: String,
}

impl ColRef {
    /// Reference a fact-table column.
    pub fn fact(col: &str) -> ColRef {
        ColRef {
            source: ColSource::Fact,
            col: col.to_string(),
        }
    }

    /// Reference a column of the `i`-th dimension join.
    pub fn dim(i: usize, col: &str) -> ColRef {
        ColRef {
            source: ColSource::Dim(i),
            col: col.to_string(),
        }
    }
}

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Sum of a numeric column.
    Sum,
    /// Row count (column ignored).
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Avg,
}

/// Aggregate input expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggExpr {
    /// A single column.
    Col(ColRef),
    /// Product of two numeric columns (SSB Q1.x revenue:
    /// `SUM(lo_extendedprice * lo_discount)`).
    Mul(ColRef, ColRef),
}

/// One aggregate output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Function to apply.
    pub func: AggFn,
    /// Input expression (`None` only for `Count`).
    pub expr: Option<AggExpr>,
}

impl AggSpec {
    /// `SUM(col)`
    pub fn sum(col: ColRef) -> AggSpec {
        AggSpec {
            func: AggFn::Sum,
            expr: Some(AggExpr::Col(col)),
        }
    }

    /// `SUM(a * b)`
    pub fn sum_product(a: ColRef, b: ColRef) -> AggSpec {
        AggSpec {
            func: AggFn::Sum,
            expr: Some(AggExpr::Mul(a, b)),
        }
    }

    /// `COUNT(*)`
    pub fn count() -> AggSpec {
        AggSpec {
            func: AggFn::Count,
            expr: None,
        }
    }
}

/// Sort key over the aggregate output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrderKey {
    /// Index into the aggregate output row (group-by columns first, then
    /// aggregates).
    pub output_idx: usize,
    /// Descending order if set.
    pub desc: bool,
}

/// One dimension equi-join of a star query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DimJoin {
    /// Dimension table name.
    pub dim: String,
    /// Foreign-key column on the fact table.
    pub fact_fk: String,
    /// Primary-key column on the dimension table.
    pub dim_pk: String,
    /// Selection predicate over the dimension table (bound to its schema).
    pub pred: Predicate,
    /// Dimension columns needed downstream (projection payload).
    pub payload: Vec<String>,
}

/// A star (or scan-aggregate) query specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StarQuery {
    /// Unique submission id (excluded from signatures).
    pub id: u64,
    /// Fact table name.
    pub fact: String,
    /// Predicate over fact columns (bound to the fact schema). Evaluated at
    /// the scan by query-centric plans and on CJOIN's output by the GQP
    /// (paper §3.2: CJOIN does not push fact predicates into the pipeline).
    pub fact_pred: Predicate,
    /// Dimension joins in plan order.
    pub dims: Vec<DimJoin>,
    /// Group-by columns (empty ⇒ a single global group).
    pub group_by: Vec<ColRef>,
    /// Aggregates computed per group.
    pub aggs: Vec<AggSpec>,
    /// Ordering over the aggregate output.
    pub order_by: Vec<OrderKey>,
}

impl StarQuery {
    /// Structural signature of the *whole* plan minus the id. Two queries
    /// with equal full signatures are identical for SP purposes.
    pub fn full_signature(&self) -> u64 {
        fxhash::hash_one(&(
            &self.fact,
            &self.fact_pred,
            &self.dims,
            &self.group_by,
            &self.aggs,
            &self.order_by,
        ))
    }

    /// Signature of the join sub-plan up to and including the `k`-th
    /// dimension join (scan + fact predicate + joins `0..=k`). This is the
    /// pivot-operator identity QPipe-SP matches at the join stage.
    pub fn join_prefix_signature(&self, k: usize) -> u64 {
        assert!(k < self.dims.len(), "join index out of range");
        fxhash::hash_one(&(&self.fact, &self.fact_pred, &self.dims[..=k]))
    }

    /// Signature CJOIN-SP matches on: the star-query part evaluated by the
    /// CJOIN stage — fact table, dimension joins and their predicates, and
    /// the projection implied by payloads. Fact predicates are applied on
    /// CJOIN output per packet, so they are part of the packet identity too.
    pub fn cjoin_signature(&self) -> u64 {
        fxhash::hash_one(&(&self.fact, &self.fact_pred, &self.dims))
    }

    /// Workload-**shape** signature: the structural plan minus predicate
    /// constants — fact table, join structure (dimension tables, key
    /// columns, payloads), the **skeleton** of every predicate (column,
    /// operator kind, term arity — but not the literals), grouping,
    /// aggregates and ordering. Two instances of the same query template
    /// with different parameter values (e.g. two SSB Q3.2 draws with
    /// different nations) share a shape; structurally different templates —
    /// including ones differing only in predicate *form*, like an equality
    /// vs. a wide `IN` disjunction with its very different selectivity and
    /// evaluation cost — do not. This is the key the sharing governor's
    /// per-shape hysteresis incumbent is kept under: a stream
    /// alternating two shapes routes each by its own incumbent instead of
    /// flip-counting a global one.
    pub fn shape_signature(&self) -> u64 {
        let dim_shape: Vec<(&str, &str, &str, &[String], u64)> = self
            .dims
            .iter()
            .map(|d| {
                (
                    d.dim.as_str(),
                    d.fact_fk.as_str(),
                    d.dim_pk.as_str(),
                    d.payload.as_slice(),
                    predicate_skeleton(&d.pred),
                )
            })
            .collect();
        fxhash::hash_one(&(
            &self.fact,
            predicate_skeleton(&self.fact_pred),
            dim_shape,
            &self.group_by,
            &self.aggs,
            &self.order_by,
        ))
    }

    /// Output arity of the aggregate (group-by columns + aggregates).
    pub fn output_arity(&self) -> usize {
        self.group_by.len() + self.aggs.len()
    }
}

/// Structural hash of a predicate with its literals erased: variant,
/// column, comparison operator, and term arity (an 8-way `IN` differs from
/// a 2-way one — their evaluation cost and selectivity profile differ),
/// recursing through the boolean connectives.
fn predicate_skeleton(p: &Predicate) -> u64 {
    use crate::predicate::Predicate as P;
    match p {
        P::True => fxhash::hash_one(&0u8),
        P::Cmp { col, op, .. } => fxhash::hash_one(&(1u8, *col, *op as u8)),
        P::InSet { col, vals } => fxhash::hash_one(&(2u8, *col, vals.len())),
        P::Between { col, .. } => fxhash::hash_one(&(3u8, *col)),
        P::And(ps) => fxhash::hash_one(&(
            4u8,
            ps.iter().map(predicate_skeleton).collect::<Vec<u64>>(),
        )),
        P::Or(ps) => fxhash::hash_one(&(
            5u8,
            ps.iter().map(predicate_skeleton).collect::<Vec<u64>>(),
        )),
        P::Not(inner) => fxhash::hash_one(&(6u8, predicate_skeleton(inner))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::value::Value;

    fn q(id: u64, nation: &str) -> StarQuery {
        StarQuery {
            id,
            fact: "lineorder".into(),
            fact_pred: Predicate::True,
            dims: vec![
                DimJoin {
                    dim: "customer".into(),
                    fact_fk: "lo_custkey".into(),
                    dim_pk: "c_custkey".into(),
                    pred: Predicate::eq(2, Value::str(nation)),
                    payload: vec!["c_city".into()],
                },
                DimJoin {
                    dim: "supplier".into(),
                    fact_fk: "lo_suppkey".into(),
                    dim_pk: "s_suppkey".into(),
                    pred: Predicate::True,
                    payload: vec!["s_city".into()],
                },
            ],
            group_by: vec![ColRef::dim(0, "c_city")],
            aggs: vec![AggSpec::sum(ColRef::fact("lo_revenue"))],
            order_by: vec![OrderKey {
                output_idx: 1,
                desc: true,
            }],
        }
    }

    #[test]
    fn id_does_not_affect_signatures() {
        let a = q(1, "FRANCE");
        let b = q(2, "FRANCE");
        assert_eq!(a.full_signature(), b.full_signature());
        assert_eq!(a.cjoin_signature(), b.cjoin_signature());
    }

    #[test]
    fn predicate_changes_signatures() {
        let a = q(1, "FRANCE");
        let b = q(1, "GERMANY");
        assert_ne!(a.full_signature(), b.full_signature());
        assert_ne!(a.join_prefix_signature(0), b.join_prefix_signature(0));
    }

    #[test]
    fn prefix_signatures_distinguish_depth() {
        let a = q(1, "FRANCE");
        assert_ne!(a.join_prefix_signature(0), a.join_prefix_signature(1));
    }

    #[test]
    fn queries_differing_only_in_agg_share_joins_signature() {
        let a = q(1, "FRANCE");
        let mut b = q(2, "FRANCE");
        b.aggs = vec![AggSpec::count()];
        assert_ne!(a.full_signature(), b.full_signature());
        assert_eq!(a.cjoin_signature(), b.cjoin_signature());
    }

    #[test]
    #[should_panic(expected = "join index out of range")]
    fn prefix_bounds_checked() {
        q(1, "FRANCE").join_prefix_signature(5);
    }

    #[test]
    fn output_arity_counts_groups_and_aggs() {
        assert_eq!(q(1, "X").output_arity(), 2);
    }

    #[test]
    fn shape_signature_ignores_predicate_constants_only() {
        // Same template, different parameter: same shape, different plans.
        let a = q(1, "FRANCE");
        let b = q(2, "GERMANY");
        assert_eq!(a.shape_signature(), b.shape_signature());
        assert_ne!(a.full_signature(), b.full_signature());
        // Predicate *structure* is part of the shape: an equality and a
        // wide IN disjunction on the same column are different workload
        // shapes (different selectivity and evaluation-cost profiles)…
        let mut wide = q(1, "FRANCE");
        wide.dims[0].pred = Predicate::in_set(
            2,
            (0..8).map(|i| Value::str(&format!("N{i}"))).collect(),
        );
        assert_ne!(a.shape_signature(), wide.shape_signature());
        // …and so is IN-arity and the fact predicate's skeleton.
        let mut wider = wide.clone();
        wider.dims[0].pred = Predicate::in_set(
            2,
            (0..12).map(|i| Value::str(&format!("N{i}"))).collect(),
        );
        assert_ne!(wide.shape_signature(), wider.shape_signature());
        let mut fp = q(1, "FRANCE");
        fp.fact_pred = Predicate::between(0, 1i64, 3i64);
        assert_ne!(a.shape_signature(), fp.shape_signature());
        // IN literals themselves still don't matter, only the arity.
        let mut same_arity = wide.clone();
        same_arity.dims[0].pred = Predicate::in_set(
            2,
            (10..18).map(|i| Value::str(&format!("N{i}"))).collect(),
        );
        assert_eq!(wide.shape_signature(), same_arity.shape_signature());
        // Structural changes break the shape: fact table…
        let mut c = q(1, "FRANCE");
        c.fact = "lineorder2".into();
        assert_ne!(a.shape_signature(), c.shape_signature());
        // …join structure…
        let mut d = q(1, "FRANCE");
        d.dims.pop();
        assert_ne!(a.shape_signature(), d.shape_signature());
        // …and aggregation tail.
        let mut e = q(1, "FRANCE");
        e.aggs = vec![AggSpec::count()];
        assert_ne!(a.shape_signature(), e.shape_signature());
    }
}
