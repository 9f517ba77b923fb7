//! Heap allocations on the shared filter's release and probe paths,
//! counted by a counting global allocator. The counts are per thread, so
//! tests running in parallel do not see each other's allocations.
//!
//! What is held: releasing a query from a filter edits the core in place
//! and allocates nothing, whether it was the filter's last reference or
//! not; a steady-state page through the vectorized kernel allocates a small
//! constant, not one per tuple (the zero-alloc invariant); the stage's
//! kernel allocates only its survivors and their bitmaps and touches no
//! dimension row's reference count; a fact page read in place is filtered
//! and restricted without decoding a row; the
//! distributor routes a filtered page to its member queries, and the
//! aggregator folds a row into a group it has seen, without allocating.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use workshare_cjoin::{
    filter_page_survivors, filter_page_vectorized, DimEntry, FilterCore, FilterScratch,
    WrapLedger,
};
use workshare_common::fxhash::FxHashMap;
use workshare_common::value::Row;
use workshare_common::codec::{Page, PageBuilder};
use workshare_common::agg::Aggregator;
use workshare_common::bind::{BoundAgg, BoundAggExpr, BoundQuery};
use workshare_common::{
    AggFn, CmpOp, ColType, Column, Predicate, QueryBitmap, RouteColumns, Schema, SelVec, Value,
};
use workshare_storage::TableId;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's allocations during its own teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are ours; counting touches only a
// const-initialised thread-local `Cell`, which never allocates. The default
// `alloc_zeroed` and `realloc` go through `alloc`, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// A filter on fact column `fk` over `entries` dimension keys, every one
/// selected by `slot`, which is the filter's only reference.
fn filter(fk: usize, entries: i64, slot: usize) -> FilterCore {
    let mut referencing = QueryBitmap::zeros(64);
    referencing.set(slot);
    let hash: FxHashMap<i64, DimEntry> = (0..entries)
        .map(|key| {
            let row: Row = vec![Value::Int(key), Value::Int(key * 3)];
            (key, DimEntry { row: Arc::new(row), bits: referencing.clone() })
        })
        .collect();
    FilterCore { dim: TableId(1), fact_fk_idx: fk, dim_pk_idx: 0, hash, referencing }
}

#[test]
fn releasing_a_filters_last_reference_copies_no_entry() {
    let mut core = filter(0, 2_000, 5);
    let ((), n) = allocations(|| core.release(5));
    assert!(core.hash.is_empty() && !core.referencing.any());
    assert_eq!(n, 0, "{n} allocations to release a 2 000-entry filter");
}

#[test]
fn releasing_one_of_two_references_edits_the_filter_in_place() {
    let mut core = filter(0, 2_000, 5);
    core.referencing.set(9);
    for (key, entry) in core.hash.iter_mut() {
        if key % 2 == 0 {
            entry.bits.set(9);
        }
    }
    let ((), n) = allocations(|| core.release(5));
    assert_eq!(core.referencing.iter_ones().collect::<Vec<_>>(), [9]);
    assert_eq!(core.hash.len(), 1_000, "the entries only slot 5 selected go");
    assert_eq!(n, 0, "{n} allocations to release one of two references");
}

#[test]
fn a_steady_state_page_allocates_a_constant_not_one_per_tuple() {
    // Four filters over 64 members, each referenced by every member, on a
    // 366-row page of scattered keys (no key runs to amortise over).
    let filters: Vec<Arc<FilterCore>> = (0..4)
        .map(|fk| {
            let mut f = filter(fk, 40, 0);
            f.referencing = QueryBitmap::ones(64);
            for e in f.hash.values_mut() {
                e.bits = QueryBitmap::ones(64);
            }
            Arc::new(f)
        })
        .collect();
    let rows: Vec<Row> = (0..366i64)
        .map(|i| (0..4).map(|c| Value::Int((i * (7 + 2 * c) + c) % 48)).collect())
        .collect();
    let members = QueryBitmap::ones(64);
    let mut scratch = FilterScratch::default();
    // The first page grows the scratch to its high-water mark.
    filter_page_vectorized(&filters, &rows, &members, &mut scratch);
    let ((page, counters), n) =
        allocations(|| filter_page_vectorized(&filters, &rows, &members, &mut scratch));
    assert!(!page.selected.is_empty() && counters.probes >= rows.len() as u64);
    assert!(n < 40, "{n} allocations for a {}-row page", rows.len());
}

/// A 366-row page of an 11-integer-column fact table shaped like SSB's
/// `lineorder`: keys in columns 2–5, scattered over 48 values.
fn lineorder_page() -> (Schema, Page) {
    let names = [
        "orderkey", "linenumber", "custkey", "partkey", "suppkey", "orderdate", "quantity",
        "extendedprice", "discount", "revenue", "supplycost",
    ];
    let schema = Schema::new(names.iter().map(|n| Column::new(n, ColType::Int)).collect());
    let mut builder = PageBuilder::new(&schema);
    for i in 0..366i64 {
        let row: Row = (0..11i64).map(|c| Value::Int((i * (7 + 2 * c) + c) % 48)).collect();
        builder.push(&row);
    }
    let mut pages = builder.finish();
    assert_eq!((pages.len(), pages[0].row_count()), (1, 366));
    (schema, pages.remove(0))
}

#[test]
fn a_page_read_in_place_is_filtered_and_restricted_without_decoding_a_row() {
    let (schema, page) = lineorder_page();
    let filters = lineorder_filters();
    let members = QueryBitmap::ones(64);
    let mut scratch = FilterScratch::default();
    filter_page_vectorized(&filters, &page.rows(&schema), &members, &mut scratch);
    let ((filtered, counters), n) = allocations(|| {
        let rows = page.rows(&schema);
        filter_page_vectorized(&filters, &rows, &members, &mut scratch)
    });
    assert!(!filtered.selected.is_empty() && counters.probes >= page.row_count() as u64);
    assert!(n < 40, "{n} allocations to read and filter a 366-row page in place");

    // A distributor's fact predicate over the survivors, on the page.
    let pred = Predicate::and(vec![
        Predicate::between(8, 1i64, 30i64),
        Predicate::Cmp { col: 6, op: CmpOp::Lt, val: Value::Int(40) },
        Predicate::Not(Box::new(Predicate::in_set(9, vec![Value::Int(3), Value::Int(5)]))),
    ]);
    let mut sel = SelVec::new();
    sel.reset(filtered.selected.len(), true);
    let ((), n) = allocations(|| {
        pred.restrict_batch_gather(&page.rows(&schema), &filtered.selected, &mut sel)
    });
    assert!(sel.any() && sel.count() < filtered.selected.len(), "the test must select");
    assert_eq!(n, 0);

    // What the filter worker paid before it read pages in place.
    let (rows, n) = allocations(|| page.decode_all(&schema));
    assert_eq!(rows.len(), 366);
    assert!(n >= 367, "{n} allocations to decode a 366-row page");
}

/// Four filters on `lineorder_page`'s key columns, every entry selected by
/// all 64 members.
fn lineorder_filters() -> Vec<Arc<FilterCore>> {
    (2..6)
        .map(|fk| {
            let mut f = filter(fk, 40, 0);
            f.referencing = QueryBitmap::ones(64);
            for e in f.hash.values_mut() {
                e.bits = QueryBitmap::ones(64);
            }
            Arc::new(f)
        })
        .collect()
}

#[test]
fn the_stages_kernel_allocates_survivors_and_bitmaps_and_clones_no_row() {
    let (schema, page) = lineorder_page();
    let filters = lineorder_filters();
    let members = QueryBitmap::ones(64);
    let strong_counts = || -> Vec<usize> {
        filters.iter().flat_map(|f| f.hash.values().map(|e| Arc::strong_count(&e.row))).collect()
    };
    let before = strong_counts();
    assert!(before.iter().all(|&c| c == 1));
    let mut scratch = FilterScratch::default();
    let rows = page.rows(&schema);
    filter_page_survivors(&filters, 0..filters.len(), &rows, &members, &mut scratch);
    let ((survivors, counters), n) = allocations(|| {
        filter_page_survivors(&filters, 0..filters.len(), &rows, &members, &mut scratch)
    });
    assert!(!survivors.selected.is_empty() && counters.probes >= page.row_count() as u64);
    assert!(n <= 2, "{n} allocations for the stage's kernel on a 366-row page");
    assert_eq!(strong_counts(), before, "the kernel holds no dimension row");
    drop(survivors);
    assert_eq!(strong_counts(), before, "dropping its page releases no dimension row");
}

#[test]
fn one_word_member_stamps_stay_off_the_heap() {
    let ledger = WrapLedger::new(64);
    ledger.activate(3, 10);
    ledger.activate(60, 10);
    let (stamp, n) = allocations(|| {
        let stamp = ledger.snapshot();
        let mut staged = QueryBitmap::zeros(64);
        staged.set(9);
        staged.or_assign(&stamp);
        (stamp.clone(), staged)
    });
    assert_eq!(stamp.0.iter_ones().collect::<Vec<_>>(), [3, 60]);
    assert_eq!(stamp.1.count_ones(), 3);
    assert_eq!(n, 0);
}

#[test]
fn routing_a_warmed_page_allocates_nothing() {
    let (schema, page) = lineorder_page();
    let filters: Vec<Arc<FilterCore>> = (2..4)
        .map(|fk| {
            let mut f = filter(fk, 40, 0);
            f.referencing = QueryBitmap::ones(64);
            for (key, e) in f.hash.iter_mut() {
                // Entry `key` keeps three slots of every four.
                let bits = 0x7777_7777_7777_7777u64.rotate_left(*key as u32);
                e.bits = QueryBitmap::from_words([bits]);
            }
            Arc::new(f)
        })
        .collect();
    let mut scratch = FilterScratch::default();
    let members = QueryBitmap::ones(64);
    let rows = page.rows(&schema);
    let (filtered, _) = filter_page_vectorized(&filters, &rows, &members, &mut scratch);
    let mut routes = RouteColumns::new();
    for slots in [(0..64).collect::<Vec<usize>>(), vec![17]] {
        routes.route(&filtered.bank, &slots);
        let (routed, n) = allocations(|| {
            let cols = routes.route(&filtered.bank, &slots);
            cols.iter().map(SelVec::count).sum::<usize>()
        });
        assert!(routed > 0 && routed < filtered.selected.len() * slots.len(), "{routed}");
        assert_eq!(n, 0, "{n} allocations to route a warmed page to {} queries", slots.len());
    }
}

#[test]
fn folding_a_row_into_a_group_already_seen_allocates_nothing() {
    // Grouped by a string and an integer, summing and counting.
    let bound = BoundQuery {
        fact_fk_idx: vec![],
        fact_payload_idx: vec![],
        dim_pk_idx: vec![],
        dim_payload_idx: vec![],
        group_idx: vec![2, 0],
        aggs: vec![
            BoundAgg { func: AggFn::Sum, expr: Some(BoundAggExpr::Mul(1, 0)) },
            BoundAgg { func: AggFn::Count, expr: None },
        ],
        joined_arity: 3,
    };
    let tags = ["ASIA", "EUROPE", "AMERICA"].map(Value::str);
    let rows: Vec<Row> = (0..600i64)
        .map(|i| vec![Value::Int(i % 7), Value::Float(i as f64), tags[i as usize % 3].clone()])
        .collect();
    let mut agg = Aggregator::new(&bound);
    rows.iter().for_each(|r| agg.update(r));
    assert_eq!(agg.group_count(), 21);
    let ((), n) = allocations(|| rows.iter().for_each(|r| agg.update(r)));
    assert_eq!(agg.group_count(), 21);
    assert_eq!(n, 0, "{n} allocations to fold {} rows into existing groups", rows.len());
}
