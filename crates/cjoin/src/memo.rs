//! The fabric's **admission memo**: `(dimension table, pk column,
//! predicate)` → the `(key, row)` pairs that predicate selects, in page
//! order. Dimension tables are immutable, so an answer the fabric has
//! computed once never needs a second scan (the move the paper makes for
//! identical *packets* — SP on the CJOIN stage, §3.2 — applied one level
//! down, to identical dimension predicates).
//!
//! The memo lives **beside** the stage's filter state, never inside it: a stage's
//! filter list is still emptied when its last referencing query finishes
//! (`release_slot`), so no stale entry is ever probed; a later query with a
//! remembered predicate has its entries staged from here instead of from a
//! scan. The key is the predicate *value* — a 64-bit signature could collide
//! into a silently wrong answer that conservation cannot see.
//!
//! Rows are interned once per `(dimension, key)`: predicates over one
//! dimension select overlapping rows, and an entry holds `Arc`s into the
//! shared table. Bounded in (estimated) bytes, least recently used *window*
//! evicted first, so eviction order is a function of virtual time only.

use std::sync::Arc;

use workshare_common::fxhash::FxHashMap;
use workshare_common::value::{Row, Value};
use workshare_common::Predicate;
use workshare_storage::TableId;

/// The `(pk, row)` pairs one predicate selects from one dimension, in page
/// order.
pub(crate) type Selected = Vec<(i64, Arc<Row>)>;

/// Byte bound of a fabric's memo (estimated: pairs + interned rows). Sized
/// from the ledger's `lone1` working set — 116 entries over 5 357 interned
/// rows, 2.06 MB by this estimate (`closed16`: 128 entries, 2.32 MB) — at
/// four times that.
pub(crate) const ADMISSION_MEMO_BUDGET_BYTES: u64 = 8 << 20;

/// A remembered selection, as handed to a window that asked for it.
#[derive(Clone)]
pub(crate) struct MemoHit {
    pub selected: Arc<[(i64, Arc<Row>)]>,
    /// Rows of the dimension the selection was computed over — what the
    /// scan it replaces would have added to `admission_dim_rows`.
    pub dim_rows: u64,
}

struct MemoEntry {
    hit: MemoHit,
    /// Sequence number of the last window that filled or hit this entry.
    last_window: u64,
    /// Insertion ordinal: the LRU tie-break among entries of one window.
    ordinal: u64,
}

impl MemoEntry {
    fn bytes(&self) -> u64 {
        (size_of::<MemoEntry>() + size_of::<Predicate>() + size_of_val(&*self.hit.selected)) as u64
    }
}

/// One `(dimension, pk column)`'s entries and the rows they share.
#[derive(Default)]
struct DimMemo {
    entries: FxHashMap<Predicate, MemoEntry>,
    /// Interned rows by primary key, with the number of entries holding each.
    rows: FxHashMap<i64, (Arc<Row>, u32)>,
}

fn row_bytes(row: &Row) -> u64 {
    let strings: usize = row
        .iter()
        .map(|v| match v {
            Value::Str(s) => 2 * size_of::<usize>() + s.len(),
            _ => 0,
        })
        .sum();
    (2 * size_of::<usize>() + size_of::<Row>() + size_of_val(row.as_slice()) + strings) as u64
}

pub(crate) struct AdmissionMemo {
    budget: u64,
    dims: FxHashMap<(TableId, usize), DimMemo>,
    next_ordinal: u64,
    pub hits: u64,
    pub misses: u64,
    pub bytes: u64,
    pub evicted_bytes: u64,
    /// Mutation switch of the memo oracle test: fill from a scan with its
    /// last page range withheld.
    #[cfg(test)]
    pub withhold_last_range: bool,
}

impl AdmissionMemo {
    pub fn new(budget: u64) -> AdmissionMemo {
        AdmissionMemo {
            budget,
            dims: FxHashMap::default(),
            next_ordinal: 0,
            hits: 0,
            misses: 0,
            bytes: 0,
            evicted_bytes: 0,
            #[cfg(test)]
            withhold_last_range: false,
        }
    }

    /// How many of a unit's `n` page ranges a fill concatenates: all of them
    /// (the mutation test withholds the last).
    pub fn usable_ranges(&self, n: usize) -> usize {
        #[cfg(test)]
        if self.withhold_last_range && n > 1 {
            return n - 1;
        }
        n
    }

    #[cfg(test)]
    pub fn entries(&self) -> usize {
        self.dims.values().map(|d| d.entries.len()).sum()
    }

    /// The selection remembered for `pred` over `(dim, pk_idx)`, counted as
    /// a hit or a miss of window `window`.
    pub fn lookup(
        &mut self,
        dim: TableId,
        pk_idx: usize,
        pred: &Predicate,
        window: u64,
    ) -> Option<MemoHit> {
        let entry = self
            .dims
            .get_mut(&(dim, pk_idx))
            .and_then(|d| d.entries.get_mut(pred));
        let Some(entry) = entry else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        entry.last_window = window;
        Some(entry.hit.clone())
    }

    /// Remember what a complete scan of `dim` (`dim_rows` rows) selected for
    /// `pred`, then evict down to the budget. A predicate already present
    /// (two equal parts missed in one window) is left as it is.
    pub fn fill(
        &mut self,
        dim: TableId,
        pk_idx: usize,
        pred: &Predicate,
        mut selected: Selected,
        dim_rows: u64,
        window: u64,
    ) {
        let dm = self.dims.entry((dim, pk_idx)).or_default();
        if dm.entries.contains_key(pred) {
            return;
        }
        for (key, row) in &mut selected {
            let (interned, refs) = dm.rows.entry(*key).or_insert_with(|| {
                self.bytes += row_bytes(row);
                (Arc::clone(row), 0)
            });
            *row = Arc::clone(interned);
            *refs += 1;
        }
        let entry = MemoEntry {
            hit: MemoHit {
                selected: selected.into(),
                dim_rows,
            },
            last_window: window,
            ordinal: self.next_ordinal,
        };
        self.next_ordinal += 1;
        self.bytes += entry.bytes();
        dm.entries.insert(pred.clone(), entry);
        while self.bytes > self.budget {
            self.evict_lru();
        }
    }

    /// Drop the entry of the oldest window, and every interned row only it
    /// still held.
    fn evict_lru(&mut self) {
        let (dim_key, pred) = self
            .dims
            .iter()
            .flat_map(|(k, d)| d.entries.iter().map(move |(p, e)| (k, p, e)))
            .min_by_key(|(_, _, e)| (e.last_window, e.ordinal))
            .map(|(k, p, _)| (*k, p.clone()))
            .expect("memo over budget holds an entry");
        let dm = self.dims.get_mut(&dim_key).expect("key just found");
        let entry = dm.entries.remove(&pred).expect("key just found");
        let before = self.bytes;
        self.bytes -= entry.bytes();
        for (key, _) in entry.hit.selected.iter() {
            let (row, refs) = dm.rows.get_mut(key).expect("entry rows are interned");
            *refs -= 1;
            if *refs == 0 {
                self.bytes -= row_bytes(row);
                dm.rows.remove(key);
            }
        }
        self.evicted_bytes += before - self.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(key: i64) -> Arc<Row> {
        Arc::new(vec![Value::Int(key), Value::str("payload")])
    }

    fn pred(tag: &str) -> Predicate {
        Predicate::eq(1, Value::str(tag))
    }

    fn interned(memo: &AdmissionMemo) -> usize {
        memo.dims.values().map(|d| d.rows.len()).sum()
    }

    #[test]
    fn rows_are_interned_and_eviction_is_lru_by_window() {
        let t = TableId(3);
        let one = (size_of::<MemoEntry>() + size_of::<Predicate>()) as u64
            + 2 * 16
            + 2 * row_bytes(&row(0));
        // Room for two two-row entries sharing nothing, not for three.
        let mut memo = AdmissionMemo::new(2 * one + one / 2);
        memo.fill(t, 0, &pred("a"), vec![(1, row(1)), (2, row(2))], 10, 1);
        memo.fill(t, 0, &pred("b"), vec![(2, row(2)), (3, row(3))], 10, 2);
        assert_eq!(interned(&memo), 3, "key 2 is shared, not copied");
        let (a, b) = (
            memo.lookup(t, 0, &pred("a"), 3).expect("a is remembered"),
            memo.lookup(t, 0, &pred("b"), 2).expect("b is remembered"),
        );
        assert!(Arc::ptr_eq(&a.selected[1].1, &b.selected[0].1));
        assert_eq!((memo.hits, memo.misses, memo.evicted_bytes), (2, 0, 0));
        // A second fill of a present predicate changes nothing.
        let bytes = memo.bytes;
        memo.fill(t, 0, &pred("a"), vec![(9, row(9))], 10, 3);
        assert_eq!((memo.bytes, interned(&memo)), (bytes, 3));
        // `b` was last used by window 2, `a` by window 3: `b` goes, and with
        // it key 3 — key 2 stays for `a`.
        memo.fill(t, 0, &pred("c"), vec![(4, row(4)), (5, row(5))], 10, 4);
        assert!(memo.lookup(t, 0, &pred("b"), 5).is_none());
        assert!(memo.lookup(t, 0, &pred("a"), 5).is_some());
        assert!(memo.lookup(t, 0, &pred("c"), 5).is_some());
        assert_eq!(interned(&memo), 4);
        assert!(memo.evicted_bytes > 0 && memo.bytes <= 2 * one + one / 2);
        // The same predicate over another table or key column is another key.
        assert!(memo.lookup(TableId(4), 0, &pred("a"), 5).is_none());
        assert!(memo.lookup(t, 1, &pred("a"), 5).is_none());
    }
}
