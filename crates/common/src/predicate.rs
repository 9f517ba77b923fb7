//! Selection predicate AST.
//!
//! Predicates are structural data (not closures) so that SP can hash and
//! compare them when detecting identical sub-plans, and so that CJOIN can
//! store them per query slot inside shared selection operators.

use std::hash::{Hash, Hasher};

use crate::bitmap::{BitmapBank, SelVec};
use crate::value::{OneRow, Row, Tuples, Value};

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn apply(self, l: &Value, r: &Value) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

/// A predicate over a row; columns are referenced by index into the schema
/// the predicate is bound to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Always true (no selection).
    True,
    /// `col <op> literal`
    Cmp {
        /// Column index.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        val: Value,
    },
    /// `col IN (v1, v2, …)` — the disjunctions the Fig. 11 selectivity
    /// experiment builds over nation attributes.
    InSet {
        /// Column index.
        col: usize,
        /// Membership list (kept sorted for canonical signatures).
        vals: Vec<Value>,
    },
    /// `lo <= col AND col <= hi` (the SSB year-range predicate).
    Between {
        /// Column index.
        col: usize,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Build a canonical `IN` predicate (sorts the value list).
    pub fn in_set(col: usize, mut vals: Vec<Value>) -> Predicate {
        vals.sort();
        vals.dedup();
        Predicate::InSet { col, vals }
    }

    /// Build an equality predicate.
    pub fn eq(col: usize, val: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            col,
            op: CmpOp::Eq,
            val: val.into(),
        }
    }

    /// Build a between predicate.
    pub fn between(col: usize, lo: impl Into<Value>, hi: impl Into<Value>) -> Predicate {
        Predicate::Between {
            col,
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Conjunction of `preds`, flattening nested `And`s and dropping `True`s.
    pub fn and(preds: Vec<Predicate>) -> Predicate {
        let mut flat = Vec::new();
        for p in preds {
            match p {
                Predicate::True => {}
                Predicate::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Predicate::True,
            1 => flat.pop().unwrap(),
            _ => Predicate::And(flat),
        }
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> bool {
        self.eval_at(&OneRow(row), 0)
    }

    /// Evaluate against tuple `i` of `rows` — the one row-at-a-time
    /// evaluator, behind [`Predicate::eval`] and the `Or` / `Not` arm of
    /// the batch paths.
    fn eval_at<T: Tuples + ?Sized>(&self, rows: &T, i: usize) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { col, op, val } => rows.with_value(i, *col, |v| op.apply(v, val)),
            Predicate::InSet { col, vals } => {
                rows.with_value(i, *col, |v| vals.binary_search(v).is_ok())
            }
            Predicate::Between { col, lo, hi } => {
                rows.with_value(i, *col, |v| v >= lo && v <= hi)
            }
            Predicate::And(ps) => ps.iter().all(|p| p.eval_at(rows, i)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval_at(rows, i)),
            Predicate::Not(p) => !p.eval_at(rows, i),
        }
    }

    /// Batch evaluation: returns the selection bitmap of rows satisfying the
    /// predicate. Convenience wrapper over [`Predicate::eval_batch_into`].
    pub fn eval_batch<T: Tuples + ?Sized>(&self, rows: &T) -> SelVec {
        let mut sel = SelVec::new();
        self.eval_batch_into(rows, &mut sel);
        sel
    }

    /// Batch evaluation into a reusable selection bitmap (zero allocations
    /// once `sel`'s capacity has grown to the batch size, and none per
    /// tuple on a page read in place unless a string column is read).
    ///
    /// The common shapes take vectorized fast paths: `True` is a bulk fill,
    /// `Cmp` dispatches the operator once and runs a tight loop over the
    /// still-selected rows, and `And` narrows the selection term by term
    /// (rows deselected by an earlier conjunct are never touched again —
    /// word-level skipping makes low-selectivity conjunctions cheap).
    pub fn eval_batch_into<T: Tuples + ?Sized>(&self, rows: &T, sel: &mut SelVec) {
        sel.reset(rows.len(), true);
        self.restrict(rows, |i| i, sel);
    }

    /// Evaluate **many predicates** over one batch in a single pass,
    /// producing a per-query selection bank: bit `q` of tuple `i` is set iff
    /// `preds[q]` selects `rows[i]`. The bank is word-strided
    /// ([`BitmapBank`]), so a row selected by several queries carries all
    /// their bits side by side — the CJOIN shared admission scan reads one
    /// row's bits, maps them to query slots, and performs a **single**
    /// dimension-entry insert for the whole pending batch instead of one
    /// scan per query.
    ///
    /// Each predicate still takes its vectorized fast path
    /// ([`Predicate::eval_batch_into`] via `scratch`); the sharing is in the
    /// page decode and the row-major insert that follow, not in the
    /// predicate arithmetic itself. `hit_counts` is filled with each
    /// predicate's selected-row count (the admission selectivity signal,
    /// free here vs re-scanning the bank column per query).
    pub fn eval_batch_multi(
        preds: &[&Predicate],
        rows: &[Row],
        bank: &mut BitmapBank,
        scratch: &mut SelVec,
        hit_counts: &mut Vec<usize>,
    ) {
        bank.reset_zeros(rows.len(), preds.len().max(1));
        hit_counts.clear();
        for (q, p) in preds.iter().enumerate() {
            p.eval_batch_into(rows, scratch);
            hit_counts.push(scratch.count());
            for i in scratch.iter_ones() {
                bank.set(i, q);
            }
        }
    }

    /// Narrow an existing selection over a gathered subset: position `j` of
    /// `sel` corresponds to tuple `idx[j]` of `rows`; tuples already
    /// deselected are never evaluated. This is how the CJOIN distributor
    /// applies per-query fact predicates to exactly the tuples in the
    /// query's routing column, on the fact page read in place.
    pub fn restrict_batch_gather<T: Tuples + ?Sized>(
        &self,
        rows: &T,
        idx: &[u32],
        sel: &mut SelVec,
    ) {
        debug_assert_eq!(sel.len(), idx.len());
        self.restrict(rows, |j| idx[j] as usize, sel);
    }

    /// Narrow `sel` to the positions whose tuple (`at` maps a position to a
    /// tuple of `rows`) satisfies `self`.
    fn restrict<T, A>(&self, rows: &T, at: A, sel: &mut SelVec)
    where
        T: Tuples + ?Sized,
        A: Fn(usize) -> usize + Copy,
    {
        match self {
            Predicate::True => {}
            Predicate::Cmp { col, op, val } => {
                let col = *col;
                // Dispatch the operator once per batch, not once per tuple.
                if let Value::Int(k) = val {
                    let k = *k;
                    let f: fn(i64, i64) -> bool = match op {
                        CmpOp::Eq => |a, b| a == b,
                        CmpOp::Ne => |a, b| a != b,
                        CmpOp::Lt => |a, b| a < b,
                        CmpOp::Le => |a, b| a <= b,
                        CmpOp::Gt => |a, b| a > b,
                        CmpOp::Ge => |a, b| a >= b,
                    };
                    sel.retain(|j| {
                        rows.with_value(at(j), col, |v| match v {
                            Value::Int(v) => f(*v, k),
                            other => op.apply(other, val),
                        })
                    });
                } else {
                    let op = *op;
                    sel.retain(|j| rows.with_value(at(j), col, |v| op.apply(v, val)));
                }
            }
            Predicate::Between { col, lo, hi } => {
                let col = *col;
                if let (Value::Int(lo), Value::Int(hi)) = (lo, hi) {
                    let (lo, hi) = (*lo, *hi);
                    sel.retain(|j| {
                        rows.with_value(at(j), col, |v| match v {
                            Value::Int(v) => (lo..=hi).contains(v),
                            other => other >= &Value::Int(lo) && other <= &Value::Int(hi),
                        })
                    });
                } else {
                    sel.retain(|j| rows.with_value(at(j), col, |v| v >= lo && v <= hi));
                }
            }
            Predicate::InSet { col, vals } => {
                let col = *col;
                sel.retain(|j| rows.with_value(at(j), col, |v| vals.binary_search(v).is_ok()));
            }
            Predicate::And(ps) => {
                for p in ps {
                    if !sel.any() {
                        break;
                    }
                    p.restrict(rows, at, sel);
                }
            }
            other => {
                // Or / Not: fall back to row-at-a-time over the survivors.
                sel.retain(|j| other.eval_at(rows, at(j)));
            }
        }
    }

    /// Number of atomic comparison terms — used by the cost model to charge
    /// predicate evaluation.
    pub fn term_count(&self) -> usize {
        match self {
            Predicate::True => 0,
            Predicate::Cmp { .. } => 1,
            Predicate::InSet { vals, .. } => {
                // Binary search: log2 cost, at least one term.
                (vals.len().max(2) as f64).log2().ceil() as usize
            }
            Predicate::Between { .. } => 2,
            Predicate::And(ps) | Predicate::Or(ps) => {
                ps.iter().map(|p| p.term_count()).sum()
            }
            Predicate::Not(p) => p.term_count(),
        }
    }

    /// Structural 64-bit signature (SP identity matching).
    pub fn signature(&self) -> u64 {
        let mut h = crate::fxhash::FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![Value::Int(10), Value::str("FRANCE"), Value::Float(2.5)]
    }

    #[test]
    fn cmp_ops_all_work() {
        let r = row();
        for (op, expect) in [
            (CmpOp::Eq, false),
            (CmpOp::Ne, true),
            (CmpOp::Lt, true),
            (CmpOp::Le, true),
            (CmpOp::Gt, false),
            (CmpOp::Ge, false),
        ] {
            let p = Predicate::Cmp {
                col: 0,
                op,
                val: Value::Int(11),
            };
            assert_eq!(p.eval(&r), expect, "{op:?}");
        }
    }

    #[test]
    fn in_set_is_sorted_and_binary_searched() {
        let p = Predicate::in_set(
            1,
            vec![Value::str("GERMANY"), Value::str("FRANCE"), Value::str("FRANCE")],
        );
        assert!(p.eval(&row()));
        if let Predicate::InSet { vals, .. } = &p {
            assert_eq!(vals.len(), 2, "dedup");
            assert!(vals.windows(2).all(|w| w[0] < w[1]), "sorted");
        } else {
            unreachable!()
        }
    }

    #[test]
    fn between_inclusive_bounds() {
        let p = Predicate::between(0, 10i64, 12i64);
        assert!(p.eval(&row()));
        let p = Predicate::between(0, 11i64, 12i64);
        assert!(!p.eval(&row()));
    }

    #[test]
    fn and_flattens_and_simplifies() {
        let p = Predicate::and(vec![
            Predicate::True,
            Predicate::and(vec![Predicate::eq(0, 10i64), Predicate::True]),
        ]);
        assert_eq!(p, Predicate::eq(0, 10i64));
        assert!(p.eval(&row()));
        assert_eq!(Predicate::and(vec![]), Predicate::True);
    }

    #[test]
    fn or_and_not() {
        let p = Predicate::Or(vec![
            Predicate::eq(0, 99i64),
            Predicate::eq(1, Value::str("FRANCE")),
        ]);
        assert!(p.eval(&row()));
        assert!(!Predicate::Not(Box::new(p)).eval(&row()));
    }

    #[test]
    fn identical_predicates_share_signature() {
        let a = Predicate::in_set(1, vec![Value::str("A"), Value::str("B")]);
        let b = Predicate::in_set(1, vec![Value::str("B"), Value::str("A")]);
        assert_eq!(a.signature(), b.signature(), "canonical order");
        let c = Predicate::in_set(1, vec![Value::str("C")]);
        assert_ne!(a.signature(), c.signature());
    }

    fn batch_rows() -> Vec<Vec<Value>> {
        (0..200i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 3 == 0 { "FRANCE" } else { "GERMANY" }),
                    Value::Float(i as f64 / 2.0),
                ]
            })
            .collect()
    }

    #[test]
    fn eval_batch_agrees_with_scalar_eval() {
        let rows = batch_rows();
        let preds = vec![
            Predicate::True,
            Predicate::eq(0, 7i64),
            Predicate::Cmp {
                col: 0,
                op: CmpOp::Ge,
                val: Value::Int(150),
            },
            Predicate::eq(1, Value::str("FRANCE")),
            Predicate::between(0, 20i64, 90i64),
            Predicate::in_set(0, (0..40).step_by(3).map(Value::Int).collect()),
            Predicate::And(vec![
                Predicate::between(0, 10i64, 180i64),
                Predicate::eq(1, Value::str("GERMANY")),
            ]),
            Predicate::Or(vec![
                Predicate::eq(0, 3i64),
                Predicate::Cmp {
                    col: 2,
                    op: CmpOp::Gt,
                    val: Value::Float(90.0),
                },
            ]),
            Predicate::Not(Box::new(Predicate::between(0, 50i64, 150i64))),
        ];
        for p in &preds {
            let sel = p.eval_batch(&rows);
            let expect: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| p.eval(r))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(sel.iter_ones().collect::<Vec<_>>(), expect, "{p:?}");
            assert_eq!(sel.count(), expect.len());
        }
    }

    #[test]
    fn restrict_batch_gather_maps_positions_and_narrows() {
        let rows = batch_rows();
        let idx: Vec<u32> = [5u32, 21, 60, 150, 199].into();
        let p = Predicate::between(0, 20i64, 160i64);
        let mut sel = crate::bitmap::SelVec::new();
        sel.reset(idx.len(), true);
        p.restrict_batch_gather(&rows, &idx, &mut sel);
        let expect: Vec<usize> = idx
            .iter()
            .enumerate()
            .filter(|(_, &ri)| p.eval(&rows[ri as usize]))
            .map(|(j, _)| j)
            .collect();
        assert_eq!(sel.iter_ones().collect::<Vec<_>>(), expect);
        assert_eq!(sel.len(), idx.len());
        // Pre-deselected positions stay deselected and are never revived.
        let mut narrowed = crate::bitmap::SelVec::new();
        narrowed.reset(idx.len(), true);
        narrowed.clear(expect[0]);
        p.restrict_batch_gather(&rows, &idx, &mut narrowed);
        assert_eq!(
            narrowed.iter_ones().collect::<Vec<_>>(),
            expect[1..].to_vec()
        );
    }

    #[test]
    fn eval_batch_multi_matches_per_predicate_eval() {
        let rows = batch_rows();
        let preds = [
            Predicate::eq(1, Value::str("FRANCE")),
            Predicate::between(0, 20i64, 90i64),
            Predicate::True,
            Predicate::Not(Box::new(Predicate::between(0, 50i64, 150i64))),
        ];
        let refs: Vec<&Predicate> = preds.iter().collect();
        let mut bank = crate::bitmap::BitmapBank::new();
        let mut scratch = crate::bitmap::SelVec::new();
        let mut hits = Vec::new();
        Predicate::eval_batch_multi(&refs, &rows, &mut bank, &mut scratch, &mut hits);
        assert_eq!(bank.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            for (q, p) in preds.iter().enumerate() {
                assert_eq!(bank.get(i, q), p.eval(row), "row {i} pred {q}");
            }
        }
        for (q, p) in preds.iter().enumerate() {
            let expect = rows.iter().filter(|r| p.eval(r)).count();
            assert_eq!(bank.count_column(q), expect, "pred {q}");
            assert_eq!(hits[q], expect, "hit count of pred {q}");
        }
        // Reuse across batches of different sizes must not leak stale bits.
        Predicate::eval_batch_multi(&refs[..1], &rows[..7], &mut bank, &mut scratch, &mut hits);
        assert_eq!(bank.len(), 7);
        assert_eq!(bank.stride(), 1);
        assert_eq!(hits.len(), 1, "hit counts cover only this call's predicates");
        for (i, row) in rows[..7].iter().enumerate() {
            assert_eq!(bank.get(i, 0), preds[0].eval(row));
            assert!(!bank.get(i, 1), "only predicate 0 was evaluated");
        }
        // Zero predicates: a well-formed all-zero bank.
        Predicate::eval_batch_multi(&[], &rows[..3], &mut bank, &mut scratch, &mut hits);
        assert_eq!(bank.len(), 3);
        assert!(hits.is_empty());
        assert!(!bank.any_alive());
    }

    #[test]
    fn eval_batch_reuses_capacity() {
        let rows = batch_rows();
        let p = Predicate::eq(1, Value::str("FRANCE"));
        let mut sel = crate::bitmap::SelVec::new();
        p.eval_batch_into(&rows, &mut sel);
        let first = sel.count();
        // Second run over a smaller batch reuses the buffer and must not
        // leak stale bits past the new length.
        p.eval_batch_into(&rows[..10], &mut sel);
        assert_eq!(sel.len(), 10);
        assert!(sel.count() <= 10);
        p.eval_batch_into(&rows, &mut sel);
        assert_eq!(sel.count(), first);
    }

    #[test]
    fn term_counts() {
        assert_eq!(Predicate::True.term_count(), 0);
        assert_eq!(Predicate::eq(0, 1i64).term_count(), 1);
        assert_eq!(Predicate::between(0, 1i64, 2i64).term_count(), 2);
        let big = Predicate::in_set(0, (0..16).map(Value::Int).collect());
        assert_eq!(big.term_count(), 4); // log2(16)
    }
}
