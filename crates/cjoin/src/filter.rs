//! Batch-at-a-time shared-filter kernels.
//!
//! The CJOIN hot path is the shared filter/route loop: every fact tuple
//! carries a query-membership bitmap that each shared filter ANDs down
//! (`bits &= entry | ¬referencing`, §2.4) before the distributor routes on
//! the surviving bits. The seed implementation was strictly tuple-at-a-time:
//! per tuple it heap-cloned a [`QueryBitmap`], allocated a dimension-match
//! vector, and enum-dispatched the probe — exactly the interpretation
//! overhead that makes shared operators lose to query-centric plans at low
//! concurrency (§5.2.2).
//!
//! This module provides two interchangeable kernels over the same
//! [`FilterCore`] state:
//!
//! * [`filter_page_survivors`] — the production path. Tuple bitmaps live in
//!   one word-strided [`BitmapBank`]; filters are applied filter-major
//!   (outer loop over filters, inner over the still-alive tuples of the
//!   batch), probing the dimension hash once per *key run* (consecutive
//!   equal FKs — clustered fact data and join-product skew both collapse
//!   into long runs) and folding bitmap updates as whole-word ANDs. All
//!   working state lives in a per-worker [`FilterScratch`], so the
//!   steady-state loop performs **zero heap allocations per tuple**. It
//!   probes only for a query that is still listening: a tuple none of
//!   whose surviving bits references the filter passes it unprobed, and a
//!   filter no member of the page references is not visited at all. The
//!   stage probes the filters most queries reference first.
//! * [`filter_page_scalar`] — the retained tuple-at-a-time reference
//!   kernel. No engine path runs it: it is the oracle the property test
//!   below compares the vectorized kernel against, and the baseline the
//!   `filter_vectorized` bench measures. It probes every pair.
//!
//! The production kernel produces [`Survivors`]: survivor indices and a
//! survivor-aligned bitmap bank, and no dimension row. As in the paper's
//! pipeline, a surviving tuple's foreign keys are its pointers to the
//! dimension tuples it joins: the distributor looks a payload row up
//! ([`FilterCore::match_of`]) only for an output row it emits, and only at
//! a dimension whose payload the query reads. [`filter_page_vectorized`]
//! is that kernel plus the same lookup for every (survivor, filter) pair a
//! surviving query reads, into a [`FilteredPage`] that reads like the
//! scalar oracle's: equal survivors and bitmaps, and equal matches at
//! every pair a surviving query reads.
//!
//! The production kernel reads one foreign key per (tuple, filter) through
//! [`Tuples::int`], so it runs on decoded rows or on a fact page read in
//! place ([`workshare_common::codec::PageRows`]). The stage's filter
//! workers hand it the page in place and decode no row; the scalar oracle
//! reads decoded rows.

use std::sync::Arc;

use workshare_common::fxhash::FxHashMap;
use workshare_common::value::Row;
use workshare_common::{BitmapBank, QueryBitmap, SelVec, Tuples};
use workshare_storage::TableId;

/// One dimension tuple admitted into a shared filter: the row payload plus
/// the bitmap of queries whose dimension predicate selected it (inline up
/// to 64 query slots).
pub struct DimEntry {
    /// The dimension row (shared with every joined output).
    pub row: Arc<Row>,
    /// Queries selecting this dimension tuple.
    pub bits: QueryBitmap,
}

/// One shared filter (shared selection + shared hash-join pair over one
/// `(dimension, fk, pk)` triple): identity plus probe-side state. The
/// kernels only read `fact_fk_idx` / `hash` / `referencing`; the identity
/// fields let admission deduplicate filters without a parallel metadata
/// vector. The stage holds each core as the only reference to an
/// `Arc<FilterCore>` and edits it in place; a core is never copied, so it
/// is not `Clone`.
pub struct FilterCore {
    /// The dimension table this filter joins.
    pub dim: TableId,
    /// Fact-schema column index of the foreign key this filter probes with.
    pub fact_fk_idx: usize,
    /// Dimension-schema column index of the primary key.
    pub dim_pk_idx: usize,
    /// Dimension hash table: pk → selected row + query bitmap.
    pub hash: FxHashMap<i64, DimEntry>,
    /// Queries referencing this filter's dimension; non-referencing queries
    /// pass through untouched.
    pub referencing: QueryBitmap,
}

impl FilterCore {
    /// The dimension row tuple `i` of `rows` joins at this filter, if any:
    /// one probe of `hash` with the tuple's foreign key, read in place. The
    /// distributor's payload lookup and [`filter_page_vectorized`]'s
    /// resolve step both go through here.
    pub fn match_of<T: Tuples + ?Sized>(&self, rows: &T, i: usize) -> Option<&Arc<Row>> {
        self.hash.get(&rows.int(i, self.fact_fk_idx)).map(|e| &e.row)
    }

    /// Drop query `slot` from this filter, in place: clear its
    /// `referencing` bit and its bit in every entry, dropping the entries
    /// that go empty. When `slot` is the filter's only reference every
    /// entry goes (an entry's bits are a subset of `referencing`), so the
    /// table is swapped for an empty one without walking it: the result
    /// `retain` would leave.
    pub fn release(&mut self, slot: usize) {
        if !self.referencing.get(slot) {
            return;
        }
        let last = self.referencing.count_ones() == 1;
        self.referencing.clear(slot);
        if last {
            debug_assert!(self.hash.values().all(|e| e.bits.iter_ones().all(|q| q == slot)));
            self.hash = FxHashMap::default();
            return;
        }
        self.hash.retain(|_, entry| {
            entry.bits.clear(slot);
            entry.bits.any()
        });
    }
}

/// Per-worker reusable working state of the vectorized kernel. Allocations
/// grow to the high-water batch size and are then reused batch after batch —
/// the zero-alloc invariant of the steady-state filter loop.
#[derive(Default)]
pub struct FilterScratch {
    /// One membership bitmap per tuple of the page, ANDed down in place.
    bank: BitmapBank,
    /// The tuples still alive.
    alive: SelVec,
    /// `!referencing` of the current filter, zero-extended to the bank
    /// stride.
    notref: Vec<u64>,
    /// `entry | !referencing` of the current key run.
    mask: Vec<u64>,
}

/// What the production kernel ([`filter_page_survivors`]) hands the
/// distributor: the indices of surviving tuples (into the source page) and
/// their bitmaps, compacted into a survivor-aligned bank. It holds no
/// dimension row; the page's foreign keys point at them.
pub struct Survivors {
    /// Indices of surviving tuples into the source page's rows.
    pub selected: Vec<u32>,
    /// One membership bitmap per survivor, aligned with `selected`.
    pub bank: BitmapBank,
}

/// A filtered page with its dimension matches resolved: survivors and
/// bitmaps as in [`Survivors`], plus the matched dimension row of each
/// (survivor, filter) pair — what the scalar oracle builds, and what
/// [`filter_page_vectorized`] builds for the pairs a surviving query reads.
pub struct FilteredPage {
    /// Indices of surviving tuples into the source page's rows.
    pub selected: Vec<u32>,
    /// One membership bitmap per survivor, aligned with `selected`.
    pub bank: BitmapBank,
    /// Survivor-major matched rows (`j * nfilters + fi`).
    matches: Vec<Option<Arc<Row>>>,
    /// Number of filters the page was probed through.
    pub nfilters: usize,
}

impl FilteredPage {
    /// Matched dimension row of survivor `j` at filter `fi`.
    pub fn dim_match(&self, j: usize, fi: usize) -> Option<&Arc<Row>> {
        self.matches[j * self.nfilters + fi].as_ref()
    }
}

/// Work counters the cost model charges from (virtual nanoseconds are
/// charged outside the kernel so no virtual-time operation happens while the
/// GQP state lock is held).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterCounters {
    /// Tuples actually probed, summed over filters: a tuple the kernel
    /// skipped at a filter is not counted there.
    pub probes: u64,
    /// Distinct key runs actually probed into a dimension hash table.
    pub key_runs: u64,
    /// 64-bit bitmap words read: the still-alive tuples of every visited
    /// filter × the bank stride, probed or skipped.
    pub bitmap_words: u64,
}

/// Tuple-at-a-time reference kernel (the seed's semantics, verbatim): clone
/// the page bitmap per tuple, probe every filter per tuple, AND via
/// [`QueryBitmap::and_filtered`].
pub fn filter_page_scalar(
    filters: &[Arc<FilterCore>],
    rows: &[Row],
    members: &QueryBitmap,
) -> (FilteredPage, FilterCounters) {
    let nfilters = filters.len();
    let mut counters = FilterCounters::default();
    let mut selected = Vec::new();
    let mut bank = BitmapBank::new();
    bank.reset_empty(members.word_count());
    let mut matches: Vec<Option<Arc<Row>>> = Vec::new();
    let mut row_matches: Vec<Option<Arc<Row>>> = vec![None; nfilters];
    for (i, row) in rows.iter().enumerate() {
        let mut bits = members.clone();
        row_matches.fill(None);
        let mut alive = bits.any();
        for (fi, f) in filters.iter().enumerate() {
            if !alive {
                break;
            }
            let key = row[f.fact_fk_idx].as_int();
            let entry = f.hash.get(&key);
            counters.probes += 1;
            counters.key_runs += 1;
            counters.bitmap_words += bits.word_count() as u64;
            alive = bits.and_filtered(entry.map(|e| &e.bits), &f.referencing);
            if let Some(e) = entry {
                row_matches[fi] = Some(Arc::clone(&e.row));
            }
        }
        if alive {
            selected.push(i as u32);
            bank.push_bitmap(&bits);
            matches.extend(row_matches.iter_mut().map(Option::take));
        }
    }
    (
        FilteredPage {
            selected,
            bank,
            matches,
            nfilters,
        },
        counters,
    )
}

/// [`filter_page_survivors`] in insertion order, then every (survivor `j`,
/// filter `fi`) pair that one of `j`'s surviving queries references
/// resolved through [`FilterCore::match_of`]. The stage runs the kernel
/// alone; this is for readers that want the oracle's page (the ledger's
/// layer sweep and the tests), and it clones one `Arc` per resolved match.
///
/// **Reader contract.** [`FilteredPage::dim_match`]`(j, fi)` equals the
/// oracle's wherever a query `q` in survivor `j`'s bitmap references
/// filter `fi`, and is `None` elsewhere. That covers every reader: the
/// ledger's layer sweep reads `dim_match(j, fi)` only for a `q` in `j`'s
/// final bits with `fi` among `q`'s own filters, and the stage's
/// distributor makes the same lookup for the same pairs.
pub fn filter_page_vectorized<T: Tuples + ?Sized>(
    filters: &[Arc<FilterCore>],
    rows: &T,
    members: &QueryBitmap,
    scratch: &mut FilterScratch,
) -> (FilteredPage, FilterCounters) {
    let (survivors, counters) =
        filter_page_survivors(filters, 0..filters.len(), rows, members, scratch);
    (resolve(filters, rows, survivors), counters)
}

/// `survivors` of `rows` with the match of every pair a surviving query
/// reads looked up (see [`filter_page_vectorized`]).
fn resolve<T: Tuples + ?Sized>(
    filters: &[Arc<FilterCore>],
    rows: &T,
    Survivors { selected, bank }: Survivors,
) -> FilteredPage {
    let nfilters = filters.len();
    let mut matches = Vec::with_capacity(selected.len() * nfilters);
    for (j, &i) in selected.iter().enumerate() {
        let bits = bank.row(j);
        matches.extend(filters.iter().map(|f| {
            let read = bits.iter().zip(f.referencing.words()).any(|(b, r)| b & r != 0);
            read.then(|| f.match_of(rows, i as usize).cloned()).flatten()
        }));
    }
    FilteredPage {
        selected,
        bank,
        matches,
        nfilters,
    }
}

/// Probe order of `filters`: descending population count of `referencing`,
/// ties in insertion order. A filter every query joins goes first and
/// clears the bits that would otherwise make the narrower filters after it
/// probe; with one query, or any set of queries referencing every filter,
/// this is insertion order. The stage writes it into `order` after every
/// mutation of its filter state.
pub(crate) fn probe_order(filters: &[Arc<FilterCore>], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..filters.len());
    order.sort_by_key(|&fi| std::cmp::Reverse(filters[fi].referencing.count_ones()));
}

/// The production kernel, probing the filters in `order` (a permutation of
/// their indices): the survivors of `rows` and their bitmaps. See the
/// module docs for the loop structure.
///
/// Inner-loop discipline: the AND mask `entry | !referencing` is computed
/// once per *key run*, so the per-tuple work is one FK extraction, one key
/// compare and `stride` word ANDs. The kernel keeps no dimension row and
/// touches no entry's `Arc`: a page whose runs a later filter kills costs
/// nothing at compaction, and a dropped page frees two vectors.
///
/// **Skip rule.** A tuple whose bitmap shares no bit with a filter's
/// `referencing` is not probed there, since the AND would be the identity:
/// it stays alive, and the key-run state carries across it (the mask
/// depends only on the key, so `key_runs` counts exactly the runs
/// probed). A filter whose `referencing` shares no bit with `members` is
/// not visited at all, and one every member references runs no per-tuple
/// test, since no tuple can be skipped there. Survivors and bitmaps
/// therefore equal [`filter_page_scalar`]'s, in any probe order.
pub fn filter_page_survivors<T: Tuples + ?Sized>(
    filters: &[Arc<FilterCore>],
    order: impl IntoIterator<Item = usize>,
    rows: &T,
    members: &QueryBitmap,
    scratch: &mut FilterScratch,
) -> (Survivors, FilterCounters) {
    let n = rows.len();
    let mut counters = FilterCounters::default();
    // Split-borrow the scratch fields so the retain closure can mutate the
    // bank and masks while the selection vector drives iteration.
    let FilterScratch {
        bank,
        alive,
        notref,
        mask,
    } = scratch;
    bank.reset(n, members);
    alive.reset(n, members.any());
    let stride = bank.stride();
    let mw = members.words();
    for fi in order {
        let f = &filters[fi];
        if !alive.any() {
            break;
        }
        // No member of the page references this filter: nothing to probe.
        let refs = f.referencing.words();
        if mw.iter().zip(refs).all(|(m, r)| m & r == 0) {
            continue;
        }
        // `!referencing`, extended to the bank stride, fixed per filter.
        notref.clear();
        notref.extend((0..stride).map(|j| !refs.get(j).copied().unwrap_or(0)));
        // Only a member that does not reference the filter can leave a
        // tuple with nothing to probe for.
        let may_skip = mw.iter().zip(&notref[..]).any(|(m, n)| m & n != 0);
        // Probe once per run of equal consecutive keys: clustered fact
        // pages and join-product skew both collapse into long runs, so the
        // hash lookup and mask construction amortize across the run.
        let mut run_key = 0i64;
        let mut in_run = false;
        let fk = f.fact_fk_idx;
        // Every still-alive tuple is visited exactly once by this pass and
        // its bitmap words read, by the skip test or the AND; only tuples
        // that some referencing query still needs count as probes.
        let visited = alive.count() as u64;
        counters.bitmap_words += visited * stride as u64;
        let mut skipped = 0u64;
        if stride == 1 {
            // Up to 64 query slots: the whole mask is one word.
            let notref0 = notref[0];
            let mut mask0 = 0u64;
            alive.retain(|i| {
                if may_skip && bank.word(i) & !notref0 == 0 {
                    skipped += 1;
                    return true;
                }
                let key = rows.int(i, fk);
                if !in_run || key != run_key {
                    run_key = key;
                    in_run = true;
                    counters.key_runs += 1;
                    let hit = f.hash.get(&key).and_then(|e| e.bits.words().first());
                    mask0 = notref0 | hit.copied().unwrap_or(0);
                }
                bank.and_word(i, mask0)
            });
        } else {
            alive.retain(|i| {
                if may_skip && bank.row(i).iter().zip(refs).all(|(w, r)| w & r == 0) {
                    skipped += 1;
                    return true;
                }
                let key = rows.int(i, fk);
                if !in_run || key != run_key {
                    run_key = key;
                    in_run = true;
                    counters.key_runs += 1;
                    let ew = f.hash.get(&key).map(|e| e.bits.words()).unwrap_or(&[]);
                    mask.clear();
                    mask.extend(
                        notref
                            .iter()
                            .enumerate()
                            .map(|(j, nr)| nr | ew.get(j).copied().unwrap_or(0)),
                    );
                }
                bank.and_mask_row(i, mask)
            });
        }
        counters.probes += visited - skipped;
    }
    // Compact survivors out of the scratch: the page's two allocations.
    let mut selected = Vec::with_capacity(alive.count());
    selected.extend(alive.iter_ones().map(|i| i as u32));
    let mut out_bank = BitmapBank::new();
    bank.compact_into(alive, &mut out_bank);
    (
        Survivors {
            selected,
            bank: out_bank,
        },
        counters,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use workshare_common::Value;

    /// Build a filter over `dim_size` keys where a key is selected by query
    /// `q` iff `key % (q + 2) == 0`.
    fn mk_filter(fact_fk_idx: usize, dim_size: i64, queries: &[usize]) -> Arc<FilterCore> {
        let mut hash = FxHashMap::default();
        let mut referencing = QueryBitmap::zeros(64);
        for &q in queries {
            referencing.set(q);
        }
        for key in 0..dim_size {
            let mut bits = QueryBitmap::zeros(64);
            let mut any = false;
            for &q in queries {
                if key % (q as i64 + 2) == 0 {
                    bits.set(q);
                    any = true;
                }
            }
            if any {
                hash.insert(
                    key,
                    DimEntry {
                        row: Arc::new(vec![Value::Int(key), Value::Int(key * 10)]),
                        bits,
                    },
                );
            }
        }
        Arc::new(FilterCore {
            dim: TableId(0),
            fact_fk_idx,
            dim_pk_idx: 0,
            hash,
            referencing,
        })
    }

    fn mk_rows(n: i64) -> Vec<Row> {
        // Clustered first FK (runs of 4), scattered second FK.
        (0..n)
            .map(|i| vec![Value::Int((i / 4) % 13), Value::Int((i * 7) % 11), Value::Int(i)])
            .collect()
    }

    /// `page` shows a reader what `oracle` does: the same survivors and
    /// bitmaps, and the same match of survivor `j` at filter `fi` wherever
    /// one of `j`'s surviving queries references `fi`. Elsewhere no reader
    /// looks, and the resolve step leaves `None`.
    fn pages_equal(filters: &[Arc<FilterCore>], oracle: &FilteredPage, page: &FilteredPage) {
        assert_eq!(oracle.selected, page.selected);
        assert_eq!(oracle.nfilters, page.nfilters);
        for j in 0..page.selected.len() {
            let bits = page.bank.to_query_bitmap(j);
            assert_eq!(oracle.bank.to_query_bitmap(j), bits, "survivor {j}");
            for (fi, f) in filters.iter().enumerate() {
                let want = oracle.dim_match(j, fi).map(|r| r.as_slice());
                let got = page.dim_match(j, fi).map(|r| r.as_slice());
                if bits.iter_ones().any(|q| f.referencing.get(q)) {
                    assert_eq!(want, got, "match of survivor {j} filter {fi}");
                } else {
                    assert!(got.is_none(), "survivor {j} filter {fi}");
                }
            }
        }
    }

    #[test]
    fn vectorized_matches_scalar_reference() {
        let filters = vec![mk_filter(0, 13, &[0, 1, 2]), mk_filter(1, 11, &[1, 3])];
        let rows = mk_rows(500);
        let mut members = QueryBitmap::zeros(64);
        for q in [0, 1, 2, 3] {
            members.set(q);
        }
        let (sp, sc) = filter_page_scalar(&filters, &rows, &members);
        let mut scratch = FilterScratch::default();
        let (vp, vc) = filter_page_vectorized(&filters, &rows, &members, &mut scratch);
        pages_equal(&filters, &sp, &vp);
        assert!(!vp.selected.is_empty(), "test must exercise survivors");
        assert!(vp.selected.len() < rows.len(), "and deaths");
        // The vectorized path probes strictly less: runs ≤ probes.
        assert!(vc.key_runs <= vc.probes);
        assert!(vc.key_runs < sc.key_runs, "clustered FK collapses runs");
    }

    #[test]
    fn non_referencing_query_keeps_every_tuple_alive() {
        let filters = vec![mk_filter(0, 13, &[0, 1, 2]), mk_filter(1, 11, &[1, 3])];
        let rows = mk_rows(200);
        let mut members = QueryBitmap::zeros(64);
        for q in [0, 1, 2, 3, 5] {
            members.set(q); // query 5 references no filter: passes through
        }
        let (sp, _) = filter_page_scalar(&filters, &rows, &members);
        let mut scratch = FilterScratch::default();
        let (vp, _) = filter_page_vectorized(&filters, &rows, &members, &mut scratch);
        pages_equal(&filters, &sp, &vp);
        assert_eq!(vp.selected.len(), rows.len(), "bit 5 shields every tuple");
        for j in 0..vp.selected.len() {
            assert!(vp.bank.get(j, 5));
        }
    }

    #[test]
    fn empty_members_kill_everything_without_probing_all_filters() {
        let filters = vec![mk_filter(0, 13, &[0])];
        let rows = mk_rows(50);
        let members = QueryBitmap::zeros(64);
        let mut scratch = FilterScratch::default();
        let (vp, vc) = filter_page_vectorized(&filters, &rows, &members, &mut scratch);
        assert!(vp.selected.is_empty());
        assert_eq!(vc.probes, 0, "dead batch short-circuits");
        let (sp, _) = filter_page_scalar(&filters, &rows, &members);
        assert!(sp.selected.is_empty());
    }

    #[test]
    fn no_filters_pass_batch_through() {
        let rows = mk_rows(20);
        let mut members = QueryBitmap::zeros(64);
        members.set(4);
        let mut scratch = FilterScratch::default();
        let (vp, _) = filter_page_vectorized(&[], &rows, &members, &mut scratch);
        assert_eq!(vp.selected.len(), rows.len());
        assert_eq!(vp.nfilters, 0);
        for j in 0..vp.selected.len() {
            assert_eq!(vp.bank.to_query_bitmap(j), members);
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_across_batches() {
        let filters = vec![mk_filter(0, 13, &[0, 1]), mk_filter(1, 11, &[0])];
        let mut members = QueryBitmap::zeros(64);
        members.set(0);
        members.set(1);
        let mut scratch = FilterScratch::default();
        // Large batch first, then a small one: stale large-batch state must
        // not bleed into the small batch's result.
        let big = mk_rows(400);
        let _ = filter_page_vectorized(&filters, &big, &members, &mut scratch);
        let small = mk_rows(30);
        let (vp, _) = filter_page_vectorized(&filters, &small, &members, &mut scratch);
        let (sp, _) = filter_page_scalar(&filters, &small, &members);
        pages_equal(&filters, &sp, &vp);
    }

    #[test]
    fn a_filter_probes_only_the_tuples_a_referencing_query_still_needs() {
        // A is referenced by {0, 1}, B by {1}: B probes exactly the tuples
        // whose bit 1 survived A; a tuple carrying only bit 0 passes B
        // untouched.
        let a = mk_filter(0, 13, &[0, 1]);
        let b = mk_filter(1, 11, &[1]);
        let rows = mk_rows(500);
        let mut members = QueryBitmap::zeros(64);
        members.set(0);
        members.set(1);
        let mut scratch = FilterScratch::default();
        let (after_a, ac) =
            filter_page_vectorized(&[Arc::clone(&a)], &rows, &members, &mut scratch);
        let bit1_after_a = after_a.bank.count_column(1) as u64;
        let alive_after_a = after_a.selected.len() as u64;
        assert_eq!(ac.probes, rows.len() as u64, "every member references A");
        assert!(bit1_after_a < alive_after_a, "the skip must fire");
        let filters = vec![a, b];
        let (vp, vc) = filter_page_vectorized(&filters, &rows, &members, &mut scratch);
        assert_eq!(vc.probes - ac.probes, bit1_after_a);
        assert_eq!(vc.bitmap_words - ac.bitmap_words, alive_after_a);
        assert!(vc.key_runs <= vc.probes);
        let (sp, _) = filter_page_scalar(&filters, &rows, &members);
        pages_equal(&filters, &sp, &vp);
    }

    #[test]
    fn members_referencing_every_filter_probe_as_before_the_skip() {
        // One word and two words of members, each referencing both filters:
        // the skip never fires, so the page is the oracle's pair for pair
        // (every survivor's bits reference every filter, which makes
        // `pages_equal` compare every pair) and the counters are the ones
        // the kernel reported before it had a skip (pinned).
        let pin = |probes, key_runs, bitmap_words| FilterCounters {
            probes,
            key_runs,
            bitmap_words,
        };
        for (slots, want) in [([0, 1], pin(844, 469, 844)), ([0, 70], pin(768, 393, 1536))] {
            let filters = vec![mk_filter(0, 13, &slots), mk_filter(1, 11, &slots)];
            let rows = mk_rows(500);
            let mut members = QueryBitmap::zeros(64);
            for q in slots {
                members.set(q);
            }
            let (sp, sc) = filter_page_scalar(&filters, &rows, &members);
            let mut scratch = FilterScratch::default();
            let (vp, vc) = filter_page_vectorized(&filters, &rows, &members, &mut scratch);
            pages_equal(&filters, &sp, &vp);
            assert_eq!((vc.probes, vc.bitmap_words), (sc.probes, sc.bitmap_words));
            assert_eq!(vc, want, "members {slots:?}");
        }
    }

    #[test]
    fn probe_order_puts_the_most_referenced_filter_first_and_keeps_ties() {
        let filters = vec![
            mk_filter(0, 13, &[0]),
            mk_filter(0, 13, &[0, 1, 2]),
            mk_filter(1, 11, &[1, 2]),
            mk_filter(1, 11, &[0, 1, 3]),
        ];
        let mut order = vec![7; 9];
        probe_order(&filters, &mut order);
        assert_eq!(order, [1, 3, 2, 0]);
        let one_query: Vec<_> = (0..3).map(|c| mk_filter(c, 13, &[4])).collect();
        probe_order(&one_query, &mut order);
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn a_filter_no_member_references_costs_nothing() {
        let a = mk_filter(0, 13, &[0, 1]);
        let rows = mk_rows(500);
        let mut members = QueryBitmap::zeros(64);
        members.set(0);
        members.set(1);
        let mut scratch = FilterScratch::default();
        let (alone, want) =
            filter_page_vectorized(&[Arc::clone(&a)], &rows, &members, &mut scratch);
        // C is referenced only by slot 5, which is not a member of the page.
        let filters = vec![a, mk_filter(1, 11, &[5])];
        let (vp, vc) = filter_page_vectorized(&filters, &rows, &members, &mut scratch);
        assert_eq!(vc, want, "C adds no probe, run or word");
        assert_eq!(vp.selected, alone.selected);
        for j in 0..vp.selected.len() {
            assert_eq!(vp.bank.to_query_bitmap(j), alone.bank.to_query_bitmap(j));
            assert!(vp.dim_match(j, 1).is_none());
        }
    }

    /// The kernel-level oracle: over random filter sets, query key sets,
    /// batch members, FK shapes and probe orders the vectorized kernel shows
    /// a reader the page [`filter_page_scalar`] builds, and never probes
    /// more runs than tuples — on decoded rows, and on the same tuples
    /// encoded into a page it reads in place while the oracle reads the
    /// page's `decode_all`.
    mod scalar_oracle {
        use super::*;
        use workshare_common::codec::PageBuilder;
        use workshare_common::{ColType, Column, Schema};
        use proptest::collection::vec;
        use proptest::prelude::*;
        use std::cell::RefCell;

        /// FK values range over `0..KEYS`; filters cover at most `0..40`,
        /// so some keys are absent from every hash.
        const KEYS: i64 = 48;

        thread_local! {
            // One scratch for every case: stale state from a larger earlier
            // batch must never leak into a later one.
            static SCRATCH: RefCell<FilterScratch> = RefCell::new(FilterScratch::default());
        }

        /// A query slot, biased to both sides of the first and second
        /// 64-bit word boundaries (taken modulo the members' width).
        fn slot() -> impl Strategy<Value = usize> {
            prop_oneof![0usize..8, 56usize..72, 120usize..136, 0usize..192]
        }

        /// `(fk column, key space, [(referencing slot, key mask)])`: slot
        /// `q` selects key `k` iff bit `k` of its mask is set.
        fn arb_filter() -> impl Strategy<Value = (usize, i64, Vec<(usize, u64)>)> {
            (0usize..3, 1i64..40, vec((slot(), any::<u64>()), 0..5))
        }

        fn build_filter(
            ncols: usize,
            width: usize,
            (col, keys, refs): (usize, i64, Vec<(usize, u64)>),
        ) -> Arc<FilterCore> {
            let mut referencing = QueryBitmap::zeros(64);
            let mut hash = FxHashMap::default();
            for (q, mask) in refs.into_iter().map(|(q, mask)| (q % width, mask)) {
                referencing.set(q);
                for key in (0..keys).filter(|k| mask >> k & 1 == 1) {
                    hash.entry(key)
                        .or_insert_with(|| DimEntry {
                            row: Arc::new(vec![Value::Int(key), Value::Int(-key)]),
                            bits: QueryBitmap::zeros(64),
                        })
                        .bits
                        .set(q);
                }
            }
            Arc::new(FilterCore {
                dim: TableId(0),
                fact_fk_idx: 1 + col % ncols,
                dim_pk_idx: 0,
                hash,
                referencing,
            })
        }

        /// The fact schema of a case: a string tag ahead of `ncols` key
        /// columns, so a key's byte offset in the page is not a multiple of
        /// the key width.
        fn fact_schema(ncols: usize) -> Schema {
            let tag = std::iter::once(Column::new("tag", ColType::Str(3)));
            let keys = (0..ncols).map(|c| Column::new(&format!("fk{c}"), ColType::Int));
            Schema::new(tag.chain(keys).collect())
        }

        /// An FK of row `i` under shape `(kind, param, hot)`: kind 0 is
        /// clustered (runs of `param` equal keys), 1 a single hot key with
        /// every `param`-th row scattered, 2 scattered.
        fn fk(shape: (u8, usize, i64), i: usize, scattered: i64) -> i64 {
            match shape {
                (0, run, hot) => ((i / run) as i64 + hot) % KEYS,
                (1, every, hot) if !i.is_multiple_of(every) => hot,
                _ => scattered,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn vectorized_kernel_matches_the_scalar_oracle(
                ncols in 2usize..4,
                words in 1usize..4,
                filters in vec(arb_filter(), 0..5),
                // Bit `j` makes the `j`-th referencing slot a member; the
                // free slots mostly reference no filter. Both can be empty.
                member_refs in prop_oneof![Just(0u64), any::<u64>(), any::<u64>()],
                free_slots in vec(slot(), 0..3),
                shapes in vec((0u8..3, 1usize..16, 0i64..KEYS), 3..4),
                scattered in vec((0i64..KEYS, 0i64..KEYS, 0i64..KEYS), 0..300),
            ) {
                let width = 64 * words;
                let mut members = QueryBitmap::zeros(width);
                let refs = filters.iter().flat_map(|(_, _, refs)| refs.iter().map(|r| r.0));
                for (j, q) in refs.enumerate() {
                    if member_refs >> j & 1 == 1 {
                        members.set(q % width);
                    }
                }
                for q in free_slots {
                    members.set(q % width);
                }
                let filters: Vec<_> =
                    filters.into_iter().map(|f| build_filter(ncols, width, f)).collect();
                let rows: Vec<Row> = scattered
                    .iter()
                    .enumerate()
                    .map(|(i, &(a, b, c))| {
                        let tag = Value::str(&"t".repeat(i % 4));
                        let keys = [a, b, c]
                            .into_iter()
                            .take(ncols)
                            .zip(&shapes)
                            .map(|(s, &shape)| Value::Int(fk(shape, i, s)));
                        std::iter::once(tag).chain(keys).collect()
                    })
                    .collect();
                let (sp, _) = filter_page_scalar(&filters, &rows, &members);
                let (vp, vc) = SCRATCH.with(|s| {
                    filter_page_vectorized(&filters, &rows, &members, &mut s.borrow_mut())
                });
                pages_equal(&filters, &sp, &vp);
                prop_assert!(vc.key_runs <= vc.probes, "{vc:?}");
                // The same tuples as an encoded page: the kernel reads it in
                // place, the oracle reads what it decodes to.
                let schema = fact_schema(ncols);
                let mut builder = PageBuilder::new(&schema);
                rows.iter().for_each(|r| builder.push(r));
                for page in builder.finish() {
                    let (sp, _) = filter_page_scalar(&filters, &page.decode_all(&schema), &members);
                    let (pp, pc) = SCRATCH.with(|s| {
                        let rows = page.rows(&schema);
                        filter_page_vectorized(&filters, &rows, &members, &mut s.borrow_mut())
                    });
                    pages_equal(&filters, &sp, &pp);
                    prop_assert_eq!(pc, vc);
                }
                // Any probe order is observably the same page.
                let mut by_reference = Vec::new();
                probe_order(&filters, &mut by_reference);
                for order in [by_reference, (0..filters.len()).rev().collect()] {
                    let (survivors, oc) = SCRATCH.with(|s| {
                        filter_page_survivors(&filters, order, &rows, &members, &mut s.borrow_mut())
                    });
                    pages_equal(&filters, &sp, &resolve(&filters, &rows, survivors));
                    prop_assert!(oc.key_runs <= oc.probes, "{oc:?}");
                }
            }
        }
    }

    /// Everything a filter holds, in comparable form.
    type FilterView = (TableId, usize, usize, QueryBitmap, Vec<(i64, Row, QueryBitmap)>);

    fn view(f: &FilterCore) -> FilterView {
        let mut entries: Vec<_> =
            f.hash.iter().map(|(k, e)| (*k, (*e.row).clone(), e.bits.clone())).collect();
        entries.sort_by_key(|e| e.0);
        (f.dim, f.fact_fk_idx, f.dim_pk_idx, f.referencing.clone(), entries)
    }

    /// What `release` replaced: clear the slot everywhere, drop empty entries.
    fn retained(f: &FilterCore, slot: usize) -> FilterView {
        let (dim, fk, pk, mut referencing, mut entries) = view(f);
        referencing.clear(slot);
        entries.retain_mut(|(_, _, bits)| {
            bits.clear(slot);
            bits.any()
        });
        (dim, fk, pk, referencing, entries)
    }

    #[test]
    fn a_release_leaves_the_filter_retain_would_have_left() {
        // Slot 70 makes the bitmaps two words wide; [3, 4] releases one of
        // two references, the others the last one.
        for (slots, slot) in [(&[3][..], 3), (&[70], 70), (&[3, 70], 70), (&[3, 4], 3)] {
            let mut f = mk_filter(1, 13, slots);
            let f = Arc::get_mut(&mut f).expect("the only reference");
            f.dim_pk_idx = 2;
            let want = retained(f, slot);
            f.release(slot);
            assert_eq!(view(f), want, "slots {slots:?} releasing {slot}");
            assert_eq!(f.hash.is_empty(), slots.len() == 1);
            f.release(slot);
            assert_eq!(view(f), want, "releasing an unreferenced slot changes nothing");
        }
    }

    #[test]
    fn key_runs_amortize_on_skewed_batches() {
        // Heavy skew: one hot key dominating the page (the Afrati et al.
        // join-product-skew shape) probes the hash only a handful of times.
        let filters = vec![mk_filter(0, 13, &[0])];
        let mut members = QueryBitmap::zeros(64);
        members.set(0);
        let rows: Vec<Row> = (0..1000)
            .map(|i| vec![Value::Int(if i % 100 == 0 { i % 13 } else { 6 }), Value::Int(i)])
            .collect();
        let mut scratch = FilterScratch::default();
        let (_, vc) = filter_page_vectorized(&filters, &rows, &members, &mut scratch);
        assert_eq!(vc.probes, 1000);
        assert!(vc.key_runs <= 21, "got {} runs", vc.key_runs);
    }
}
