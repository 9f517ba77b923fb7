//! CJOIN admission: slot allocation, shared-filter registration, and the
//! dimension scans that seed filter state for newly admitted queries.
//!
//! Three execution paths share one phase structure (**prepare → scan →
//! activate**). On the fabric path an **admission memo** ([`crate::memo`])
//! sits between prepare and scan: a part whose `(dimension, pk column,
//! predicate)` the fabric has selected before is staged from the memo
//! ([`stage_memo_hits`]) and leaves its unit, only the remaining parts are
//! scanned, and a scan that completed fills the memo before activation.
//! The serial oracle and the per-stage pool never consult it.
//!
//! * [`admit_batch_serial`] — the retained per-query oracle (the paper's
//!   §3.2 behavior), run inline on the preprocessor thread.
//! * [`admit_batch_shared`] — the per-stage pool: one batch of pending
//!   queries of **one** stage, scanned by the stage's own admission
//!   workers.
//! * [`crate::fabric::AdmissionFabric`] — the engine-level pool: pending
//!   batches of **every** live fact stage merged per batching window, so a
//!   dimension table filtered by star queries over different fact tables is
//!   physically scanned once for all of them.
//!
//! The shared-scan unit is a [`ScanUnit`]: all pending predicates — from
//! however many stages — over one `(dimension table, pk column)` pair. The
//! unit scans the dimension once, evaluates every predicate per decoded
//! page via [`Predicate::eval_batch_multi`], and stages one merged
//! [`DimEntry`] insert per selected row **per stage filter**, merged into
//! the stage's filters in one in-place mutation per stage.

// Atomics come through the swappable sync layer: `run_scan_unit` shares
// page counters with the fabric, whose `--cfg interleave` build swaps the
// atomics for model-checked ones (see `workshare_common::sync`).
use workshare_common::sync::{Arc, AtomicU64, Ordering};

use std::panic::{catch_unwind, AssertUnwindSafe};

use workshare_common::fxhash::FxHashMap;
use workshare_common::value::Row;
use workshare_common::{BitmapBank, FaultSite, Predicate, QueryBitmap, SelVec};

use workshare_sim::{CostKind, SimCtx};
use workshare_storage::{StorageError, TableId};

use crate::filter::DimEntry;
use crate::memo::{MemoHit, Selected};
use crate::stage::{activate_query, Admission, StageInner};
use crate::window::ScanAttempt;

/// One pending query's participation in a shared admission scan.
pub(crate) struct LocalPart {
    /// Index of the stage filter this part registers into.
    pub fi: usize,
    /// Dimension table scanned.
    pub dim: TableId,
    /// Dimension-schema primary-key column index.
    pub pk_idx: usize,
    /// The query's slot in its stage.
    pub slot: u32,
    /// The query's dimension predicate.
    pub pred: Predicate,
    /// Atomic term count of `pred` (cost accounting).
    pub terms: usize,
}

/// Phase-1 output for one stage's pending batch: allocated slots,
/// per-query `(filter, payload columns)` bindings, and the flat list of
/// scan parts to be grouped into [`ScanUnit`]s.
pub(crate) struct PreparedBatch {
    /// The pending admissions (consumed by [`activate_batch`]).
    pub pending: Vec<Admission>,
    /// Slot allocated per admission (parallel to `pending`).
    pub slots: Vec<u32>,
    /// `(filter index, dim payload columns)` per admission per dim.
    pub dim_filters: Vec<Vec<(usize, Vec<usize>)>>,
    /// Every `(query, dim join)` pair of the batch as a scan part.
    pub parts: Vec<LocalPart>,
}

/// One part of a [`ScanUnit`]: a pending predicate plus where its selected
/// rows land (`stage_idx` into the unit's stage slice, filter `fi`, slot
/// bit).
pub(crate) struct UnitPart {
    pub stage_idx: usize,
    pub fi: usize,
    pub slot: u32,
    pub pred: Predicate,
    pub terms: usize,
}

/// All pending predicates of one admission window over one
/// `(dimension table, pk column)` pair — the unit of physical scan
/// sharing, possibly spanning several fact stages.
pub(crate) struct ScanUnit {
    pub dim: TableId,
    pub pk_idx: usize,
    pub parts: Vec<UnitPart>,
    /// Whether the scan returns each part's selection for the fabric's
    /// admission memo (set by the fabric on the units it may fill from).
    pub memoize: bool,
}

/// A [`UnitPart`] whose selection the admission memo already holds.
pub(crate) struct MemoPart {
    pub dim: TableId,
    pub part: UnitPart,
    pub hit: MemoHit,
}

/// Fold `sample` into the stage's per-dimension admission-selectivity EWMA
/// map (smoothing factor 0.2, matching the former global cell).
pub(crate) fn fold_dim_selectivity(inner: &StageInner, dim: TableId, sample: f64) {
    let mut map = inner.dim_sel_ewma.lock();
    map.entry(dim)
        .and_modify(|prev| *prev = 0.8 * *prev + 0.2 * sample)
        .or_insert(sample);
}

/// Phase 1 of a shared admission batch: slots, shared-filter registration
/// and `referencing` bits for the whole batch in one state mutation, plus
/// the batch-fixed and per-query bookkeeping charges. `referencing` is
/// idempotent per scan; the slots are not active yet, so no in-flight page
/// carries their bits.
pub(crate) fn prepare_batch(
    inner: &StageInner,
    ctx: &SimCtx,
    pending: Vec<Admission>,
) -> PreparedBatch {
    inner.admission_batches.fetch_add(1, Ordering::Relaxed);
    ctx.charge(CostKind::Admission, inner.cost.admission_query_fixed_ns);
    ctx.charge(
        CostKind::Admission,
        inner.cost.admission_query_fixed_ns / 10.0 * pending.len() as f64,
    );
    let fact_schema = inner.storage.schema(inner.fact);
    // Catalog metadata resolved outside the state lock.
    let metas: Vec<Vec<(TableId, usize, usize)>> = pending
        .iter()
        .map(|adm| {
            adm.query
                .dims
                .iter()
                .map(|dj| {
                    let dim_t = inner.storage.table(&dj.dim);
                    (
                        dim_t,
                        fact_schema.col(&dj.fact_fk),
                        inner.storage.schema(dim_t).col(&dj.dim_pk),
                    )
                })
                .collect()
        })
        .collect();
    let mut slots = Vec::with_capacity(pending.len());
    let mut dim_filters: Vec<Vec<(usize, Vec<usize>)>> = Vec::with_capacity(pending.len());
    let mut parts: Vec<LocalPart> = Vec::new();
    inner.mutate_state(|state| {
        for (qi, adm) in pending.iter().enumerate() {
            let slot = state.alloc_slot(&inner.wrap);
            let mut dfs = Vec::with_capacity(adm.query.dims.len());
            for (k, dj) in adm.query.dims.iter().enumerate() {
                let (dim_t, fk_idx, pk_idx) = metas[qi][k];
                let fi = state.locate_filter(dim_t, fk_idx, pk_idx);
                state.filter_mut(fi).referencing.set(slot as usize);
                parts.push(LocalPart {
                    fi,
                    dim: dim_t,
                    pk_idx,
                    slot,
                    pred: dj.pred.clone(),
                    terms: dj.pred.term_count(),
                });
                dfs.push((fi, adm.bound.dim_payload_idx[k].clone()));
            }
            slots.push(slot);
            dim_filters.push(dfs);
        }
    });
    PreparedBatch {
        pending,
        slots,
        dim_filters,
        parts,
    }
}

/// Group the prepared batches of one admission window (one per stage,
/// `stage_idx` = slice position) into [`ScanUnit`]s keyed by
/// `(dimension table, pk column)` — parts from different stages, and from
/// different filter cores of one stage (same dimension joined via
/// different foreign keys), merge into one physical scan.
pub(crate) fn build_units(prepared: &[PreparedBatch]) -> Vec<ScanUnit> {
    let mut units: Vec<ScanUnit> = Vec::new();
    let mut index: FxHashMap<(TableId, usize), usize> = FxHashMap::default();
    for (si, prep) in prepared.iter().enumerate() {
        for p in &prep.parts {
            let ui = *index.entry((p.dim, p.pk_idx)).or_insert_with(|| {
                units.push(ScanUnit {
                    dim: p.dim,
                    pk_idx: p.pk_idx,
                    parts: Vec::new(),
                    memoize: false,
                });
                units.len() - 1
            });
            units[ui].parts.push(UnitPart {
                stage_idx: si,
                fi: p.fi,
                slot: p.slot,
                pred: p.pred.clone(),
                terms: p.terms,
            });
        }
    }
    units
}

/// How long an injected scan stall sleeps (virtual ns). Comfortably exceeds
/// the fabric's re-dispatch deadline
/// ([`crate::fabric::UNIT_REDISPATCH_DEADLINE_NS`]).
pub(crate) const SCAN_STALL_NS: f64 = 8_000_000.0;

/// Phase 2: scan `unit.dim` **once** for every pending query in the unit.
/// Each page is decoded once, all predicates are evaluated over it in one
/// pass into a per-query selection bank, and each selected row is staged as
/// one merged insert per `(stage, filter)` carrying every selecting query's
/// slot bit. Staged inserts are merged into each stage's live filters in
/// one state mutation per stage at the end of the scan (no virtual-time
/// operation happens while the state lock is held).
///
/// `pages` restricts the scan to a page subrange: the fabric partitions a
/// large unit across parallel subscans (dimension primary keys are unique,
/// so subranges stage disjoint filter entries and merge without conflict);
/// `None` scans the whole table — the per-stage pool path.
///
/// Physical-read attribution: each page increments `fabric_pages` when the
/// scan runs on the engine-level fabric (the page is read once *for several
/// stages*, so charging any one stage would misattribute it), or the owning
/// stage's `admission_dim_pages` on the per-stage pool path. The logical
/// per-query volume (`admission_dim_rows`) is always attributed per stage
/// and is batching-invariant.
///
/// **Fault sites** 4–5 ([`FaultSite::ScanStall`], [`FaultSite::ScanPanic`]
/// of the stage's plan, default off): with `inject` true each call draws
/// one tick of the primary stage's counter and may stall or panic before
/// scanning. The pool calls this once per unit; the fabric once per
/// page-range subscan, so it draws up to `UNIT_SCAN_PARALLELISM` times per
/// unit. Page reads go through the storage layer's fault-aware
/// [`try_read_page`](workshare_storage::StorageManager::try_read_page),
/// surfacing typed [`StorageError`]s to the caller.
///
/// **Re-dispatch claim**: with an `attempt` handle (every fabric subscan
/// passes one), every side effect visible outside this call — EWMA folds,
/// page/row counters, filter-entry merges — happens only after winning the
/// [`ScanAttempt::try_claim`] race, so a straggler and its re-dispatched
/// replacement publish exactly once between them (the protocol
/// model-checked by `tests/interleave_core.rs`).
///
/// Returns, for a [`ScanUnit::memoize`] unit, what each part selected from
/// the scanned pages (parallel to `unit.parts`, page order) — the `bank`
/// bits the staging loop walks anyway; empty otherwise.
pub(crate) fn run_scan_unit(
    ctx: &SimCtx,
    stages: &[&StageInner],
    unit: &ScanUnit,
    fabric_pages: Option<&AtomicU64>,
    pages: Option<(usize, usize)>,
    attempt: Option<&ScanAttempt>,
    inject: bool,
) -> Result<Vec<Selected>, StorageError> {
    let primary = stages[unit.parts[0].stage_idx];
    let plan = &primary.config.faults;
    if inject && plan.is_armed() {
        let tick = primary.scan_tick();
        if plan.fires(FaultSite::ScanPanic, tick) {
            if let Some(h) = &primary.health {
                h.count_panic();
            }
            panic!("injected fault: scan unit over {:?} panicked", unit.dim);
        }
        if plan.fires(FaultSite::ScanStall, tick) {
            if let Some(h) = &primary.health {
                h.count_stall();
            }
            ctx.sleep(SCAN_STALL_NS);
        }
    }
    let dim_schema = primary.storage.schema(unit.dim);
    let stream = primary.storage.new_stream();
    let (page_lo, page_hi) =
        pages.unwrap_or((0, primary.storage.page_count(unit.dim)));
    let nq = unit.parts.len();
    let total_terms: usize = unit.parts.iter().map(|p| p.terms.max(1)).sum();
    let preds: Vec<&Predicate> = unit.parts.iter().map(|p| &p.pred).collect();
    let mut bank = BitmapBank::new();
    let mut scratch = SelVec::new();
    let mut hits = Vec::new();
    // Staged inserts per (stage, filter) bucket, discovery-ordered so the
    // merge below is deterministic.
    type StagedEntries = Vec<(i64, Arc<Row>, QueryBitmap)>;
    let mut buckets: Vec<((usize, usize), StagedEntries)> = Vec::new();
    let mut bucket_of: FxHashMap<(usize, usize), usize> = FxHashMap::default();
    let mut rows_scanned = 0u64;
    let mut pages_read = 0u64;
    // Selectivity samples staged per (stage, sample): folded into the
    // per-dimension EWMAs only at publish time, behind the claim, so a
    // re-dispatched straggler never double-folds the governor signal.
    let mut sel_samples: Vec<(usize, f64)> = Vec::new();
    let mut selections: Vec<Selected> = Vec::new();
    if unit.memoize {
        selections.resize_with(nq, Vec::new);
    }
    for p in page_lo..page_hi {
        let page = primary.storage.try_read_page(ctx, unit.dim, p, stream)?;
        let rows = page.decode_all(&dim_schema);
        rows_scanned += rows.len() as u64;
        pages_read += 1;
        // The page is decoded/hashed once for however many stages and
        // pending queries share it; each query pays only its predicate
        // evaluation at the batch rate.
        ctx.charge(
            CostKind::Admission,
            primary.cost.admission_batch_cost(rows.len(), nq, total_terms),
        );
        Predicate::eval_batch_multi(&preds, &rows, &mut bank, &mut scratch, &mut hits);
        if !rows.is_empty() {
            // Per-(page, query) selectivity signal for the per-dimension
            // EWMA of the part's own stage (as in the serial path).
            for (q, part) in unit.parts.iter().enumerate() {
                sel_samples.push((part.stage_idx, hits[q] as f64 / rows.len() as f64));
            }
        }
        for (i, row) in rows.into_iter().enumerate() {
            if !bank.row_any(i) {
                continue;
            }
            let key = row[unit.pk_idx].as_int();
            let arc = Arc::new(row);
            for q in bank.row_ones(i) {
                if unit.memoize {
                    selections[q].push((key, Arc::clone(&arc)));
                }
                let part = &unit.parts[q];
                let bkey = (part.stage_idx, part.fi);
                let bi = *bucket_of.entry(bkey).or_insert_with(|| {
                    buckets.push((bkey, Vec::new()));
                    buckets.len() - 1
                });
                let entries = &mut buckets[bi].1;
                // Parts land row-major: if this bucket's tail entry is the
                // current row, merge the slot bit instead of re-staging.
                if let Some(last) = entries.last_mut() {
                    if Arc::ptr_eq(&last.1, &arc) {
                        last.2.set(part.slot as usize);
                        continue;
                    }
                }
                let mut bits = QueryBitmap::zeros(64);
                bits.set(part.slot as usize);
                entries.push((key, Arc::clone(&arc), bits));
            }
        }
    }
    // ---- publish: everything below is externally visible ----
    // Under fabric supervision both the original attempt and a straggler
    // re-dispatch may reach this point; the single-CAS claim picks exactly
    // one publisher. The loser's staged entries are discarded wholesale —
    // the scan above only read pages and charged costs.
    if let Some(att) = attempt {
        if !att.try_claim() {
            return Ok(selections);
        }
    }
    for (si, sample) in sel_samples {
        fold_dim_selectivity(stages[si], unit.dim, sample);
    }
    match fabric_pages {
        Some(counter) => counter.fetch_add(pages_read, Ordering::Relaxed),
        None => primary
            .admission_dim_pages
            .fetch_add(pages_read, Ordering::Relaxed),
    };
    // Logical per-query scan volume, attributed per stage: each of a
    // stage's parts evaluated every row of the dimension.
    let mut parts_per_stage = vec![0u64; stages.len()];
    for part in &unit.parts {
        parts_per_stage[part.stage_idx] += 1;
    }
    for (si, count) in parts_per_stage.iter().enumerate() {
        if *count > 0 {
            stages[si]
                .admission_dim_rows
                .fetch_add(rows_scanned * count, Ordering::Relaxed);
        }
    }
    // One state mutation per participating stage: merge its staged
    // entries into the live filters in place. Entries merge *before* the
    // batch's slots activate (`activate_batch` sets the scan-visible bits
    // afterwards): entries-then-activate.
    for (si, stage) in stages.iter().enumerate() {
        if !buckets.iter().any(|((s, _), _)| *s == si) {
            continue;
        }
        stage.mutate_state(|state| {
            for ((bs, fi), entries) in
                buckets.iter_mut().filter(|((s, _), _)| *s == si)
            {
                debug_assert_eq!(*bs, si);
                let filter = state.filter_mut(*fi);
                for (key, row, bits) in entries.drain(..) {
                    match filter.hash.entry(key) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            e.get_mut().bits.or_assign(&bits);
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(DimEntry { row, bits });
                        }
                    }
                }
            }
        });
    }
    if let Some(att) = attempt {
        att.mark_done();
    }
    Ok(selections)
}

/// Stage the memo's answer for every part of a window that hit it: the
/// entry merge a scan of the dimension would have ended in, without the
/// scan. One charge on the window's worker — the filter writer lock plus the
/// hash insert / bit-extend of each selected row, per part — then, per
/// stage, the logical counters a scan keeps (`admission_dim_rows`, one
/// `selected ÷ rows` selectivity sample per part) and **one** state mutation.
/// Runs before [`activate_batch`], like any scan's merge.
pub(crate) fn stage_memo_hits(ctx: &SimCtx, stages: &[&StageInner], hits: &[MemoPart]) {
    let cost = &stages[hits[0].part.stage_idx].cost;
    let selected: usize = hits.iter().map(|h| h.hit.selected.len()).sum();
    ctx.charge(
        CostKind::Admission,
        cost.lock_acquire_ns * hits.len() as f64 + cost.admission_tuple_ns * selected as f64,
    );
    for (si, stage) in stages.iter().enumerate() {
        let mine = || hits.iter().filter(|h| h.part.stage_idx == si);
        if mine().next().is_none() {
            continue;
        }
        for h in mine() {
            stage
                .admission_dim_rows
                .fetch_add(h.hit.dim_rows, Ordering::Relaxed);
            if h.hit.dim_rows > 0 {
                let sample = h.hit.selected.len() as f64 / h.hit.dim_rows as f64;
                fold_dim_selectivity(stage, h.dim, sample);
            }
        }
        stage.mutate_state(|state| {
            for h in mine() {
                let filter = state.filter_mut(h.part.fi);
                for (key, row) in h.hit.selected.iter() {
                    let entry = filter.hash.entry(*key).or_insert_with(|| DimEntry {
                        row: Arc::clone(row),
                        bits: QueryBitmap::zeros(64),
                    });
                    entry.bits.set(h.part.slot as usize);
                }
            }
        });
    }
}

/// Phase 3: activate the whole batch — build each query's sink/runtime and
/// make it visible to the preprocessor, distributor, and wrap bookkeeping.
/// Must run strictly after [`run_scan_unit`] has merged the batch's staged
/// filter entries: activation is what lets in-flight pages route rows to
/// these slots, so activating first would let a page probe a filter whose
/// entries aren't merged yet, and the query would lose those rows.
pub(crate) fn activate_batch(inner: &StageInner, prepared: PreparedBatch) {
    let PreparedBatch {
        pending,
        slots,
        dim_filters,
        ..
    } = prepared;
    for ((adm, slot), dfs) in pending.iter().zip(slots).zip(dim_filters) {
        activate_query(inner, adm, slot, dfs);
        inner.admitted.fetch_add(1, Ordering::Relaxed);
    }
}

/// The **shared-scan** admission path of one stage (the per-stage pool
/// default), run by the stage's admission workers off the circular-scan
/// thread:
///
/// 1. Slot allocation and shared-filter registration for the whole batch
///    in one state mutation ([`prepare_batch`]).
/// 2. One physical scan per distinct dimension table referenced by the
///    batch, evaluating *all* pending predicates against each decoded page
///    ([`run_scan_unit`]).
/// 3. Batch-wide activation ([`activate_batch`]).
///
/// The preprocessor keeps producing fact pages for already-active queries
/// throughout; admission no longer pauses the pipeline. The engine-level
/// [`crate::fabric::AdmissionFabric`] runs the same three phases over the
/// merged batches of several stages.
pub(crate) fn admit_batch_shared(inner: &StageInner, ctx: &SimCtx, pending: Vec<Admission>) {
    let prepared = prepare_batch(inner, ctx, pending);
    let units = build_units(std::slice::from_ref(&prepared));
    let mut failure: Option<String> = None;
    for unit in &units {
        // A scan-unit panic, injected or a genuine bug, fails the batch: its
        // slots roll back and every query of it ends in a typed error that
        // carries the panic's message. Left to unwind, it would end this
        // vthread alone, in a handle nobody joins, and the batch's queries
        // would wait forever.
        let outcome = match catch_unwind(AssertUnwindSafe(|| {
            run_scan_unit(ctx, &[inner], unit, None, None, None, true)
        })) {
            Ok(r) => r.map(drop).map_err(|e| e.to_string()),
            Err(panic) => Err(scan_panic_error(&*panic)),
        };
        if let Err(msg) = outcome {
            failure = Some(msg);
            break;
        }
    }
    match failure {
        None => activate_batch(inner, prepared),
        Some(msg) => fail_batch(inner, prepared, &msg),
    }
}

/// The error a scan unit's panic fails its batch with, pool and fabric
/// alike: the message the panic was raised with (`panic!` with a literal or
/// with format arguments), or a placeholder for any other payload.
pub(crate) fn scan_panic_error(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = match payload.downcast_ref::<&str>() {
        Some(s) => s,
        None => payload.downcast_ref::<String>().map_or("a non-string payload", String::as_str),
    };
    format!("admission scan unit panicked: {msg}")
}

/// Roll back a prepared-but-unactivatable batch and surface one typed error
/// per pending query. Mirrors `finalize_query`'s GQP cleanup for slots that
/// never activated: clear the slot's bit from every filter (`referencing`
/// and entry bitmaps, dropping entries that go empty), release the slot,
/// drop the SP-registry host entry, and fail each query's sink so waiters
/// wake with an error outcome instead of hanging — a faulted admission is
/// an *error*, never an abort or a stuck ticket.
pub(crate) fn fail_batch(inner: &StageInner, prepared: PreparedBatch, msg: &str) {
    let PreparedBatch { pending, slots, .. } = prepared;
    inner.mutate_state(|state| {
        for &slot in &slots {
            state.release_slot(slot);
        }
    });
    if let Some(h) = &inner.health {
        h.count_batch_failed(pending.len() as u64);
    }
    for adm in &pending {
        adm.fail(inner, msg);
    }
}

/// The retained **serial** admission path (the seed's semantics, kept as
/// the behavioral oracle behind [`crate::CjoinConfig::serial_admission`]):
/// runs on the preprocessor thread in one pipeline pause, scanning every
/// dimension table once **per pending query**.
pub(crate) fn admit_batch_serial(inner: &StageInner, ctx: &SimCtx, pending: Vec<Admission>) {
    inner.admission_batches.fetch_add(1, Ordering::Relaxed);
    // One pipeline pause per batch ("in one pause of the pipeline, the
    // admission phase adapts the filters for all queries in the batch",
    // §3.2); per-query work is the slot/bitmap bookkeeping plus the
    // dimension scans charged below.
    ctx.charge(CostKind::Admission, inner.cost.admission_query_fixed_ns);
    for adm in pending {
        ctx.charge(
            CostKind::Admission,
            inner.cost.admission_query_fixed_ns / 10.0,
        );
        let q = &adm.query;
        let slot = inner.mutate_state(|state| state.alloc_slot(&inner.wrap));
        let mut dim_filters = Vec::with_capacity(q.dims.len());
        // A typed storage fault mid-scan fails *this* query (the serial
        // path's blast radius is one query): its partial filter
        // registration is rolled back and the error surfaces on its sink.
        let mut failed: Option<String> = None;
        'dims: for (k, dj) in q.dims.iter().enumerate() {
            let dim_t = inner.storage.table(&dj.dim);
            let dim_schema = inner.storage.schema(dim_t);
            let fact_schema = inner.storage.schema(inner.fact);
            let fk_idx = fact_schema.col(&dj.fact_fk);
            let pk_idx = dim_schema.col(&dj.dim_pk);
            let fi = inner.mutate_state(|state| {
                let fi = state.locate_filter(dim_t, fk_idx, pk_idx);
                // `referencing` is idempotent per scan: set once up front
                // instead of once per page. The slot is not active yet, so
                // no in-flight page carries its bit.
                state.filter_mut(fi).referencing.set(slot as usize);
                fi
            });
            // Scan the dimension table, evaluate this query's predicate,
            // extend entry bitmaps (the admission cost SP avoids, §3.1).
            let stream = inner.storage.new_stream();
            let npages = inner.storage.page_count(dim_t);
            let terms = dj.pred.term_count();
            let mut scanned = 0u64;
            let mut sel = SelVec::new();
            let mut staged: Vec<(i64, Row)> = Vec::new();
            for p in 0..npages {
                let page = match inner.storage.try_read_page(ctx, dim_t, p, stream) {
                    Ok(page) => page,
                    Err(e) => {
                        failed = Some(e.to_string());
                        break 'dims;
                    }
                };
                let rows = page.decode_all(&dim_schema);
                scanned += rows.len() as u64;
                // Decode + per-row hash/bit work, then batch-evaluated like
                // every other selection in the system (and charged the same
                // amortized rate, so engine comparisons are not skewed by
                // admission accounting).
                ctx.charge(
                    CostKind::Admission,
                    (inner.cost.scan_tuple_ns + inner.cost.admission_tuple_ns)
                        * rows.len() as f64
                        + inner.cost.select_batch_cost(terms, rows.len()),
                );
                dj.pred.eval_batch_into(&rows, &mut sel);
                if !rows.is_empty() {
                    fold_dim_selectivity(
                        inner,
                        dim_t,
                        sel.count() as f64 / rows.len() as f64,
                    );
                }
                for (i, row) in rows.into_iter().enumerate() {
                    if sel.get(i) {
                        staged.push((row[pk_idx].as_int(), row));
                    }
                }
            }
            inner
                .admission_dim_rows
                .fetch_add(scanned, Ordering::Relaxed);
            inner
                .admission_dim_pages
                .fetch_add(npages as u64, Ordering::Relaxed);
            // One state mutation per scan: merge the staged entries instead
            // of once per page.
            inner.mutate_state(|state| {
                let filter = state.filter_mut(fi);
                for (key, row) in staged {
                    let entry = filter.hash.entry(key).or_insert_with(|| DimEntry {
                        row: Arc::new(row),
                        bits: QueryBitmap::zeros(64),
                    });
                    entry.bits.set(slot as usize);
                }
            });
            dim_filters.push((fi, adm.bound.dim_payload_idx[k].clone()));
        }
        if let Some(msg) = failed {
            inner.mutate_state(|state| state.release_slot(slot));
            if let Some(h) = &inner.health {
                h.count_batch_failed(1);
            }
            adm.fail(inner, &msg);
            continue;
        }
        activate_query(inner, &adm, slot, dim_filters);
        inner.admitted.fetch_add(1, Ordering::Relaxed);
    }
}
