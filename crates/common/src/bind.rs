//! Binding a [`StarQuery`] to physical schemas.
//!
//! All engines share the same physical convention for the joined row:
//!
//! ```text
//! [ fk_0 … fk_{d-1} | fact payload cols … | dim_0 payload … | dim_{d-1} payload ]
//! ```
//!
//! The fact's foreign keys are kept in front (each join probes its own),
//! followed by fact columns referenced by grouping/aggregation, followed by
//! each dimension's payload columns in join order. [`bind`] computes every
//! index needed to execute the query against this layout.

use crate::plan::{AggExpr, AggFn, AggSpec, ColRef, ColSource, StarQuery};
use crate::schema::Schema;
use crate::value::{OneRow, Row, Tuples, Value};

/// A fully resolved aggregate input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundAggExpr {
    /// Joined-row column index.
    Col(usize),
    /// Product of two joined-row columns.
    Mul(usize, usize),
}

/// A fully resolved aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundAgg {
    /// Function.
    pub func: AggFn,
    /// Input (absent only for `Count`).
    pub expr: Option<BoundAggExpr>,
}

/// Physical binding of a [`StarQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundQuery {
    /// Fact-schema indices of the join foreign keys, in join order.
    pub fact_fk_idx: Vec<usize>,
    /// Fact-schema indices of payload columns carried past the scan.
    pub fact_payload_idx: Vec<usize>,
    /// Dim-schema index of each join's primary key.
    pub dim_pk_idx: Vec<usize>,
    /// Dim-schema indices of each join's payload columns.
    pub dim_payload_idx: Vec<Vec<usize>>,
    /// Joined-row indices of the group-by columns.
    pub group_idx: Vec<usize>,
    /// Resolved aggregates.
    pub aggs: Vec<BoundAgg>,
    /// Arity of the joined row.
    pub joined_arity: usize,
}

impl BoundQuery {
    /// Project a full fact row to the working prefix
    /// `[fks… | fact payload…]`.
    pub fn project_fact(&self, fact_row: &[Value]) -> Row {
        self.project_fact_at(&OneRow(fact_row), 0)
    }

    /// Project tuple `i` of `rows` to the working prefix
    /// `[fks… | fact payload…]`, reading only the columns it carries.
    pub fn project_fact_at<T: Tuples + ?Sized>(&self, rows: &T, i: usize) -> Row {
        let mut out = Row::with_capacity(self.joined_arity);
        for &c in self.fact_fk_idx.iter().chain(&self.fact_payload_idx) {
            out.push(rows.with_value(i, c, Value::clone));
        }
        out
    }
}

/// Why a [`StarQuery`] could not be bound to its physical schemas. Carried
/// to the harness as a per-query **error outcome** (instead of the former
/// `panic!`, which poisoned whichever thread happened to bind — a malformed
/// query must fail alone, not take a worker down with it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// A grouping/aggregation column references the fact table but is not
    /// in the fact payload carried past the scan.
    FactColumnNotInPayload {
        /// The unresolvable column name.
        col: String,
    },
    /// A grouping/aggregation column references dimension `dim_index` but
    /// is not in that join's payload list.
    DimColumnNotInPayload {
        /// Join index of the dimension.
        dim_index: usize,
        /// The dimension table's name.
        dim: String,
        /// The unresolvable column name.
        col: String,
    },
    /// A grouping/aggregation column references a dimension index beyond
    /// the query's join list.
    DimIndexOutOfRange {
        /// The out-of-range join index.
        dim_index: usize,
        /// Number of dimension joins in the query.
        n_dims: usize,
    },
    /// A referenced column does not exist in the named table's schema.
    NoSuchColumn {
        /// The table whose schema was probed.
        table: String,
        /// The missing column name.
        col: String,
    },
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::FactColumnNotInPayload { col } => {
                write!(f, "fact column '{col}' not in payload")
            }
            BindError::DimColumnNotInPayload { dim_index, dim, col } => {
                write!(f, "dim {dim_index} column '{col}' not in payload of {dim}")
            }
            BindError::DimIndexOutOfRange { dim_index, n_dims } => {
                write!(f, "dim index {dim_index} out of range ({n_dims} joins)")
            }
            BindError::NoSuchColumn { table, col } => {
                write!(f, "no column '{col}' in schema of {table}")
            }
        }
    }
}

impl std::error::Error for BindError {}

fn resolve(q: &StarQuery, fact_payload: &[String], c: &ColRef) -> Result<usize, BindError> {
    match c.source {
        ColSource::Fact => {
            let pos = fact_payload.iter().position(|n| *n == c.col).ok_or_else(|| {
                BindError::FactColumnNotInPayload { col: c.col.clone() }
            })?;
            Ok(q.dims.len() + pos)
        }
        ColSource::Dim(k) => {
            let d = q.dims.get(k).ok_or(BindError::DimIndexOutOfRange {
                dim_index: k,
                n_dims: q.dims.len(),
            })?;
            let pos = d.payload.iter().position(|n| *n == c.col).ok_or_else(|| {
                BindError::DimColumnNotInPayload {
                    dim_index: k,
                    dim: d.dim.clone(),
                    col: c.col.clone(),
                }
            })?;
            let before: usize = q.dims[..k].iter().map(|d| d.payload.len()).sum();
            Ok(q.dims.len() + fact_payload.len() + before + pos)
        }
    }
}

/// Fact columns referenced by grouping/aggregation, deduplicated in first-use
/// order. These are the columns the scan projection must carry.
pub fn fact_payload_columns(q: &StarQuery) -> Vec<String> {
    let mut cols: Vec<String> = Vec::new();
    let mut add = |c: &ColRef| {
        if c.source == ColSource::Fact && !cols.contains(&c.col) {
            cols.push(c.col.clone());
        }
    };
    for g in &q.group_by {
        add(g);
    }
    for a in &q.aggs {
        match &a.expr {
            Some(AggExpr::Col(c)) => add(c),
            Some(AggExpr::Mul(a, b)) => {
                add(a);
                add(b);
            }
            None => {}
        }
    }
    cols
}

/// Bind `q` against the fact schema and its dimension schemas (in join
/// order), surfacing unresolvable columns as a typed [`BindError`] so the
/// caller can turn a malformed query into a per-query error outcome.
pub fn try_bind(fact: &Schema, dims: &[&Schema], q: &StarQuery) -> Result<BoundQuery, BindError> {
    assert_eq!(dims.len(), q.dims.len(), "schema count mismatch");
    let col_in = |s: &Schema, table: &str, name: &str| -> Result<usize, BindError> {
        s.try_col(name).ok_or_else(|| BindError::NoSuchColumn {
            table: table.to_string(),
            col: name.to_string(),
        })
    };
    let fact_payload = fact_payload_columns(q);
    let fact_fk_idx = q
        .dims
        .iter()
        .map(|d| col_in(fact, &q.fact, &d.fact_fk))
        .collect::<Result<_, _>>()?;
    let fact_payload_idx = fact_payload
        .iter()
        .map(|n| col_in(fact, &q.fact, n))
        .collect::<Result<_, _>>()?;
    let dim_pk_idx = q
        .dims
        .iter()
        .zip(dims)
        .map(|(d, s)| col_in(s, &d.dim, &d.dim_pk))
        .collect::<Result<_, _>>()?;
    let dim_payload_idx: Vec<Vec<usize>> = q
        .dims
        .iter()
        .zip(dims)
        .map(|(d, s)| {
            d.payload
                .iter()
                .map(|n| col_in(s, &d.dim, n))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    let group_idx = q
        .group_by
        .iter()
        .map(|c| resolve(q, &fact_payload, c))
        .collect::<Result<_, _>>()?;
    let aggs = q
        .aggs
        .iter()
        .map(|a: &AggSpec| {
            let expr = match &a.expr {
                Some(AggExpr::Col(c)) => Some(BoundAggExpr::Col(resolve(q, &fact_payload, c)?)),
                Some(AggExpr::Mul(x, y)) => Some(BoundAggExpr::Mul(
                    resolve(q, &fact_payload, x)?,
                    resolve(q, &fact_payload, y)?,
                )),
                None => None,
            };
            Ok(BoundAgg { func: a.func, expr })
        })
        .collect::<Result<_, BindError>>()?;
    let joined_arity = q.dims.len()
        + fact_payload.len()
        + q.dims.iter().map(|d| d.payload.len()).sum::<usize>();
    Ok(BoundQuery {
        fact_fk_idx,
        fact_payload_idx,
        dim_pk_idx,
        dim_payload_idx,
        group_idx,
        aggs,
        joined_arity,
    })
}

/// Bind `q` against the fact schema and its dimension schemas (in join
/// order). Panics on unresolvable columns — for call sites whose plans are
/// machine-generated, where failures are template bugs. Service-loop call
/// sites use [`try_bind`] and shed the query instead.
pub fn bind(fact: &Schema, dims: &[&Schema], q: &StarQuery) -> BoundQuery {
    try_bind(fact, dims, q).unwrap_or_else(|e| panic!("bind failed for query {}: {e}", q.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggSpec, DimJoin, OrderKey};
    use crate::predicate::Predicate;
    use crate::schema::{ColType, Column};

    fn fact_schema() -> Schema {
        Schema::new(vec![
            Column::new("fk_a", ColType::Int),
            Column::new("fk_b", ColType::Int),
            Column::new("m1", ColType::Int),
            Column::new("m2", ColType::Int),
        ])
    }

    fn dim_schema(pk: &str, payload: &str) -> Schema {
        Schema::new(vec![
            Column::new(pk, ColType::Int),
            Column::new(payload, ColType::Str(8)),
        ])
    }

    fn query() -> StarQuery {
        StarQuery {
            id: 1,
            fact: "f".into(),
            fact_pred: Predicate::True,
            dims: vec![
                DimJoin {
                    dim: "a".into(),
                    fact_fk: "fk_a".into(),
                    dim_pk: "a_pk".into(),
                    pred: Predicate::True,
                    payload: vec!["a_val".into()],
                },
                DimJoin {
                    dim: "b".into(),
                    fact_fk: "fk_b".into(),
                    dim_pk: "b_pk".into(),
                    pred: Predicate::True,
                    payload: vec!["b_val".into()],
                },
            ],
            group_by: vec![ColRef::dim(1, "b_val")],
            aggs: vec![
                AggSpec::sum(ColRef::fact("m1")),
                AggSpec::sum_product(ColRef::fact("m1"), ColRef::fact("m2")),
            ],
            order_by: vec![OrderKey {
                output_idx: 0,
                desc: false,
            }],
        }
    }

    #[test]
    fn layout_indices_are_consistent() {
        let f = fact_schema();
        let da = dim_schema("a_pk", "a_val");
        let db = dim_schema("b_pk", "b_val");
        let b = bind(&f, &[&da, &db], &query());
        assert_eq!(b.fact_fk_idx, vec![0, 1]);
        assert_eq!(b.fact_payload_idx, vec![2, 3]); // m1, m2
        assert_eq!(b.dim_pk_idx, vec![0, 0]);
        // joined row: [fk_a, fk_b, m1, m2, a_val, b_val]
        assert_eq!(b.joined_arity, 6);
        assert_eq!(b.group_idx, vec![5]);
        assert_eq!(
            b.aggs[0].expr,
            Some(BoundAggExpr::Col(2)),
            "m1 at joined idx 2"
        );
        assert_eq!(b.aggs[1].expr, Some(BoundAggExpr::Mul(2, 3)));
    }

    #[test]
    fn project_fact_carries_fks_then_payload() {
        let f = fact_schema();
        let da = dim_schema("a_pk", "a_val");
        let db = dim_schema("b_pk", "b_val");
        let b = bind(&f, &[&da, &db], &query());
        let row = vec![
            Value::Int(7),
            Value::Int(8),
            Value::Int(100),
            Value::Int(200),
        ];
        assert_eq!(
            b.project_fact(&row),
            vec![
                Value::Int(7),
                Value::Int(8),
                Value::Int(100),
                Value::Int(200)
            ]
        );
    }

    #[test]
    fn fact_payload_dedups_in_first_use_order() {
        let q = query();
        assert_eq!(fact_payload_columns(&q), vec!["m1", "m2"]);
    }

    #[test]
    #[should_panic(expected = "not in payload")]
    fn unresolvable_dim_column_panics() {
        let mut q = query();
        q.group_by = vec![ColRef::dim(0, "nonexistent")];
        let f = fact_schema();
        let da = dim_schema("a_pk", "a_val");
        let db = dim_schema("b_pk", "b_val");
        bind(&f, &[&da, &db], &q);
    }

    #[test]
    fn try_bind_surfaces_typed_errors() {
        let f = fact_schema();
        let da = dim_schema("a_pk", "a_val");
        let db = dim_schema("b_pk", "b_val");

        let mut q = query();
        q.group_by = vec![ColRef::dim(0, "nonexistent")];
        assert_eq!(
            try_bind(&f, &[&da, &db], &q),
            Err(BindError::DimColumnNotInPayload {
                dim_index: 0,
                dim: "a".into(),
                col: "nonexistent".into(),
            })
        );

        let mut q = query();
        q.aggs = vec![AggSpec::sum(ColRef::fact("no_such_measure"))];
        assert_eq!(
            try_bind(&f, &[&da, &db], &q),
            Err(BindError::NoSuchColumn {
                table: "f".into(),
                col: "no_such_measure".into(),
            }),
            "a fact agg column absent from the schema fails at payload lookup"
        );

        let mut q = query();
        q.dims[1].dim_pk = "missing_pk".into();
        assert_eq!(
            try_bind(&f, &[&da, &db], &q),
            Err(BindError::NoSuchColumn {
                table: "b".into(),
                col: "missing_pk".into(),
            })
        );

        let ok = try_bind(&f, &[&da, &db], &query()).expect("well-formed query binds");
        assert_eq!(ok.joined_arity, 6);
    }
}
