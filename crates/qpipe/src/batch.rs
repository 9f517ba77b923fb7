//! Pages of tuples flowing between packets.

use std::sync::Arc;

use workshare_common::value::{Row, Value};
use workshare_common::{SelVec, PAGE_SIZE};

/// A page worth of decoded tuples. Exchanged by `Arc` so SPL consumers share
/// one copy; push-based FIFOs deep-clone per satellite (the copy the paper's
/// serialization point pays for).
#[derive(Debug, Clone, PartialEq)]
pub struct TupleBatch {
    /// The rows.
    pub rows: Vec<Row>,
    /// Approximate encoded size in bytes (drives copy costs and batching).
    pub bytes: usize,
}

fn approx_row_bytes(row: &Row) -> usize {
    row.iter()
        .map(|v| match v {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 2 + s.len(),
        })
        .sum()
}

impl TupleBatch {
    /// Build a batch, computing its approximate byte size.
    pub fn new(rows: Vec<Row>) -> TupleBatch {
        let bytes = rows.iter().map(approx_row_bytes).sum();
        TupleBatch { rows, bytes }
    }

    /// Build a batch with a pre-computed byte size (scan pages know theirs).
    pub fn with_bytes(rows: Vec<Row>, bytes: usize) -> TupleBatch {
        TupleBatch { rows, bytes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Deep copy (what push-based SP physically does per satellite).
    pub fn deep_clone(&self) -> TupleBatch {
        TupleBatch {
            rows: self.rows.clone(),
            bytes: self.bytes,
        }
    }

    /// Iterate the rows a selection bitmap keeps (the batch-at-a-time
    /// contract: operators produce a [`SelVec`] with
    /// `Predicate::eval_batch_into` and consumers walk only the survivors).
    pub fn selected_rows<'a>(&'a self, sel: &'a SelVec) -> impl Iterator<Item = &'a Row> {
        debug_assert_eq!(sel.len(), self.rows.len());
        sel.iter_ones().map(|i| &self.rows[i])
    }
}

/// Accumulates output rows and emits page-sized batches through a closure.
pub struct BatchBuilder {
    rows: Vec<Row>,
    bytes: usize,
    target_bytes: usize,
}

impl BatchBuilder {
    /// Builder targeting the standard page size.
    pub fn new() -> BatchBuilder {
        BatchBuilder {
            rows: Vec::new(),
            bytes: 0,
            target_bytes: PAGE_SIZE,
        }
    }

    /// Builder with a custom flush threshold (tests).
    pub fn with_target(target_bytes: usize) -> BatchBuilder {
        BatchBuilder {
            rows: Vec::new(),
            bytes: 0,
            target_bytes: target_bytes.max(1),
        }
    }

    /// Append a row; returns a full batch when the page fills.
    #[must_use]
    pub fn push(&mut self, row: Row) -> Option<Arc<TupleBatch>> {
        self.bytes += approx_row_bytes(&row);
        self.rows.push(row);
        if self.bytes >= self.target_bytes {
            return self.flush();
        }
        None
    }

    /// Emit whatever is buffered, if anything.
    #[must_use]
    pub fn flush(&mut self) -> Option<Arc<TupleBatch>> {
        if self.rows.is_empty() {
            return None;
        }
        let rows = std::mem::take(&mut self.rows);
        let bytes = std::mem::replace(&mut self.bytes, 0);
        Some(Arc::new(TupleBatch::with_bytes(rows, bytes)))
    }
}

impl Default for BatchBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::str("abc")]
    }

    #[test]
    fn batch_byte_accounting() {
        let b = TupleBatch::new(vec![row(1), row(2)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.bytes, 2 * (8 + 2 + 3));
        assert!(!b.is_empty());
    }

    #[test]
    fn deep_clone_is_equal_but_independent() {
        let b = TupleBatch::new(vec![row(1)]);
        let c = b.deep_clone();
        assert_eq!(b, c);
    }

    #[test]
    fn builder_flushes_at_target() {
        let mut bb = BatchBuilder::with_target(30);
        assert!(bb.push(row(1)).is_none()); // 13 bytes
        assert!(bb.push(row(2)).is_none()); // 26
        let full = bb.push(row(3)); // 39 >= 30
        assert!(full.is_some());
        assert_eq!(full.unwrap().len(), 3);
        assert!(bb.flush().is_none(), "builder drained");
    }

    #[test]
    fn final_flush_returns_partial() {
        let mut bb = BatchBuilder::with_target(1000);
        let _ = bb.push(row(1));
        let out = bb.flush().unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn selected_rows_walks_survivors_only() {
        let b = TupleBatch::new((0..10).map(row).collect());
        let mut sel = SelVec::new();
        sel.reset(10, true);
        sel.retain(|i| i % 4 == 0);
        let got: Vec<i64> = b.selected_rows(&sel).map(|r| r[0].as_int()).collect();
        assert_eq!(got, vec![0, 4, 8]);
    }
}
