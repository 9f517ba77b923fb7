//! Runtime values and rows.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single column value.
///
/// `Float` uses total ordering (`f64::total_cmp`) so values can serve as
/// group-by and join keys; strings are reference-counted since dimension
/// payloads are copied into many join outputs.
#[derive(Clone, Debug)]
pub enum Value {
    /// 64-bit signed integer (also used for keys and dates as `yyyymmdd`).
    Int(i64),
    /// 64-bit float (revenues, prices).
    Float(f64),
    /// Variable-length string with a schema-declared maximum width.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Integer content, panicking on type mismatch (used on key paths where
    /// the schema guarantees the type).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// Float content; integers widen losslessly enough for aggregation.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Float(v) => *v,
            other => panic!("expected numeric, got {other:?}"),
        }
    }

    /// String content, panicking on type mismatch.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, got {other:?}"),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Cross-type comparisons only arise in heterogeneous sort keys,
            // which the planner never produces; order by type rank for a
            // deterministic total order anyway.
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(v) => {
                state.write_u8(0);
                state.write_i64(*v);
            }
            Value::Float(v) => {
                state.write_u8(1);
                state.write_u64(v.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(2);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.4}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

/// A tuple: one value per schema column.
pub type Row = Vec<Value>;

/// A batch of tuples read one column of one tuple at a time: decoded rows
/// (`[Row]`) or a storage page read in place
/// ([`PageRows`](crate::codec::PageRows)). The batch evaluators of
/// [`Predicate`](crate::Predicate), the projection
/// [`BoundQuery::project_fact_at`](crate::bind::BoundQuery::project_fact_at)
/// and the CJOIN filter kernel are written once over it.
pub trait Tuples {
    /// Number of tuples.
    fn len(&self) -> usize;

    /// Whether the batch holds no tuple.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The integer at column `col` of tuple `i`; panics unless the column
    /// holds integers (key columns, where the schema guarantees it).
    fn int(&self, i: usize, col: usize) -> i64;

    /// `f` of the value at column `col` of tuple `i`. Decoded rows lend
    /// theirs; a page builds it, allocating only for a string.
    fn with_value<R>(&self, i: usize, col: usize, f: impl FnOnce(&Value) -> R) -> R;
}

impl Tuples for [Row] {
    fn len(&self) -> usize {
        <[Row]>::len(self)
    }

    #[inline]
    fn int(&self, i: usize, col: usize) -> i64 {
        self[i][col].as_int()
    }

    fn with_value<R>(&self, i: usize, col: usize, f: impl FnOnce(&Value) -> R) -> R {
        f(&self[i][col])
    }
}

/// Forwards to `[Row]`, so a `&Vec<Row>` argument needs no slicing.
impl Tuples for Vec<Row> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    #[inline]
    fn int(&self, i: usize, col: usize) -> i64 {
        self[..].int(i, col)
    }

    fn with_value<R>(&self, i: usize, col: usize, f: impl FnOnce(&Value) -> R) -> R {
        self[..].with_value(i, col, f)
    }
}

/// One row as a batch of one: how the row-at-a-time entry points reach the
/// evaluators written over [`Tuples`].
pub(crate) struct OneRow<'a>(pub(crate) &'a [Value]);

impl Tuples for OneRow<'_> {
    fn len(&self) -> usize {
        1
    }

    fn int(&self, _: usize, col: usize) -> i64 {
        self.0[col].as_int()
    }

    fn with_value<R>(&self, _: usize, col: usize, f: impl FnOnce(&Value) -> R) -> R {
        f(&self.0[col])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn equality_and_hash_are_consistent() {
        let a = Value::Int(5);
        let b = Value::Int(5);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
        let s1 = Value::str("hello");
        let s2 = Value::str("hello");
        assert_eq!(s1, s2);
        assert_eq!(h(&s1), h(&s2));
    }

    #[test]
    fn float_total_ordering_handles_nan() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        assert_eq!(nan, Value::Float(f64::NAN));
        assert_ne!(nan, one);
        assert!(nan > one); // NaN sorts last under total_cmp
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::Float(1.5) < Value::Float(2.5));
    }

    #[test]
    fn accessors_extract_contents() {
        assert_eq!(Value::Int(7).as_int(), 7);
        assert_eq!(Value::Int(7).as_f64(), 7.0);
        assert_eq!(Value::Float(2.5).as_f64(), 2.5);
        assert_eq!(Value::str("x").as_str(), "x");
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn as_int_panics_on_mismatch() {
        Value::str("x").as_int();
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("abc").to_string(), "abc");
    }
}
