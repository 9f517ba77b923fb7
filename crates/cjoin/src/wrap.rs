//! Atomic circular-scan wrap bookkeeping: the active-query mask and the
//! per-slot remaining-page budgets, kept in plain atomic words so the
//! preprocessor's page loop (`crate::stage`) touches **no lock** at
//! steady state — the seed design took a `GqpState` write lock on every
//! fact page just to decrement `emit_left`.
//!
//! Protocol invariants, checked by the model (`tests/interleave_core.rs`):
//!
//! * **Budget-then-activate.** [`WrapLedger::activate`] stores the slot's
//!   page budget before raising its active bit (`Release`), paired with
//!   the `Acquire` mask loads in [`WrapLedger::snapshot`] /
//!   [`WrapLedger::record_page`]: a scan that observes the bit always
//!   sees an initialized budget — a freshly admitted query is never
//!   completed on a stale zero.
//! * **Decrements are single RMWs.** Each stamped page consumes exactly
//!   one unit of each member's budget via one atomic `fetch_update`; the
//!   slot whose decrement reaches zero is completed (bit cleared) by
//!   exactly that decrementer. A load-then-store decrement loses units
//!   under concurrent recording (fault re-dispatch racing the scan) and
//!   strands the query active forever — the
//!   `WrapMutation::LostDecrement` mutation (compiled only under
//!   `--cfg interleave`).
//! * **Checked, never wrapping.** The decrement is `checked_sub`: a slot
//!   re-seen after its wrap completed (e.g. a re-dispatched page carrying
//!   a stale member stamp) is ignored — flagged by a debug assertion —
//!   instead of wrapping the counter to `u64::MAX` and resurrecting the
//!   slot for 2⁶⁴ pages.
//!
//! Built on [`workshare_common::sync`], so an `--cfg interleave` build
//! swaps the primitives for the model-checked shim.

use workshare_common::sync::{Arc, AtomicU64, AtomicUsize, Ordering};
use workshare_common::QueryBitmap;

/// Test-only protocol mutations, compiled only under `--cfg interleave`.
#[cfg(interleave)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WrapMutation {
    /// The faithful protocol.
    #[default]
    None,
    /// Decrement with a load-then-store instead of one atomic RMW: two
    /// concurrent recorders can both observe the same budget and one
    /// page's consumption is silently lost.
    LostDecrement,
}

/// Lock-free active mask + per-slot remaining-page budgets for one stage's
/// circular scan. Slot ids come from the stage's control plane
/// (`alloc_slot`), which recycles them and never exceeds
/// [`WrapLedger::capacity`].
pub struct WrapLedger {
    /// One bit per slot, `Release`-set after the budget store and
    /// `Acquire`-read by the scan: see the module invariants.
    active: Vec<AtomicU64>,
    /// Remaining fact pages each slot must still see; meaningful only
    /// while the slot's active bit is set.
    emit_left: Vec<AtomicU64>,
    /// High-water mark of activated words + 1: the scan bound for every
    /// per-page walk ([`WrapLedger::any`], [`WrapLedger::snapshot`],
    /// [`WrapLedger::snapshot_cached`]) and the width floor of member
    /// bitmaps, mirroring the seed's grow-only `active_bits` so the filter
    /// bank stride never shrinks mid-run (and stays one word for ≤64-slot
    /// workloads). Bounding by the mark keeps the per-page cost
    /// proportional to the *live* high-water slot, not the ledger
    /// capacity. `Relaxed` suffices: a scan that loads a stale mark
    /// misses at most a just-activated bit, which only defers that slot's
    /// wrap window by a page (the circular scan serves it the full budget
    /// starting from the next snapshot), and the parked path cannot miss
    /// it at all — the activation's mark store is sequenced before the
    /// wait-set notify, whose mutex orders it before the woken
    /// predicate's reload.
    words_hi: AtomicUsize,
    #[cfg(interleave)]
    mutation: WrapMutation,
}

impl WrapLedger {
    /// Ledger for `capacity` slots (rounded up to whole 64-bit words),
    /// all inactive.
    pub fn new(capacity: usize) -> WrapLedger {
        let words = capacity.div_ceil(64).max(1);
        WrapLedger {
            active: (0..words).map(|_| AtomicU64::new(0)).collect(),
            emit_left: (0..words * 64).map(|_| AtomicU64::new(0)).collect(),
            words_hi: AtomicUsize::new(1),
            #[cfg(interleave)]
            mutation: WrapMutation::None,
        }
    }

    /// Test-only constructor selecting a deliberately broken protocol
    /// variant (see [`WrapMutation`]).
    #[cfg(interleave)]
    pub fn with_mutation(capacity: usize, mutation: WrapMutation) -> WrapLedger {
        let mut ledger = WrapLedger::new(capacity);
        ledger.mutation = mutation;
        ledger
    }

    /// Slots this ledger can track.
    pub fn capacity(&self) -> usize {
        self.emit_left.len()
    }

    /// Activate `slot` with a budget of `pages`: budget store first, then
    /// the `Release` bit-set (budget-then-activate; the caller merges the
    /// slot's filter entries even earlier — entries-then-activate).
    pub fn activate(&self, slot: usize, pages: u64) {
        self.words_hi
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |hi| {
                Some(hi.max(slot / 64 + 1))
            })
            .unwrap();
        self.emit_left[slot].store(pages, Ordering::Relaxed);
        // `Release` on the bit: an `Acquire` mask read that observes it
        // also observes the budget store above (and, transitively, the
        // filter-entry merge sequenced before this call).
        self.active[slot / 64]
            .fetch_update(Ordering::Release, Ordering::Relaxed, |w| {
                Some(w | 1u64 << (slot % 64))
            })
            .unwrap();
    }

    /// Whether any slot is active (`Acquire`, the preprocessor's park
    /// predicate). Bounded by the high-water mark; a bit racing in past a
    /// stale mark is missed for this evaluation only (see `words_hi` for
    /// why that is safe, parked path included).
    pub fn any(&self) -> bool {
        let hi = self.words_hi.load(Ordering::Relaxed).max(1).min(self.active.len());
        self.active[..hi].iter().any(|w| w.load(Ordering::Acquire) != 0)
    }

    /// Whether `slot` is active (`Acquire`).
    pub fn is_active(&self, slot: usize) -> bool {
        self.active[slot / 64].load(Ordering::Acquire) & (1u64 << (slot % 64)) != 0
    }

    /// Remaining page budget of `slot` (advisory outside the slot's active
    /// window; tests and the model scenario).
    pub fn emit_left(&self, slot: usize) -> u64 {
        self.emit_left[slot].load(Ordering::Acquire)
    }

    /// The active mask as a member bitmap: the stamp the preprocessor
    /// attaches to a fact page. `Acquire` per word — a slot observed here
    /// has its budget and filter entries visible.
    pub fn snapshot(&self) -> QueryBitmap {
        // The high-water mark bounds the walk, so a stamp costs what the
        // live slot range costs, not the ledger capacity. A bit set past
        // a stale mark is left out of *this* stamp only — the slot's wrap
        // window starts at a later page, exactly as if it had activated a
        // moment later (see `words_hi`).
        let hi = self.words_hi.load(Ordering::Relaxed).max(1).min(self.active.len());
        // Word-wise copy — this runs on every mask change, so it must
        // cost what the seed's mask clone cost, not a per-bit rebuild.
        QueryBitmap::from_words(self.active[..hi].iter().map(|w| w.load(Ordering::Acquire)))
    }

    /// Per-page stamp with allocation reuse: reload the mask words
    /// (`Acquire`, same visibility as [`WrapLedger::snapshot`]) and keep
    /// `cache` when they are unchanged — the common case, since the mask
    /// only moves on admission and completion — rebuilding via
    /// [`WrapLedger::snapshot`] otherwise. The preprocessor stamps every
    /// fact page, so the steady-state cost is a handful of loads instead
    /// of a bitmap allocation per page.
    pub fn snapshot_cached(&self, cache: &mut Arc<QueryBitmap>) {
        let hi = self.words_hi.load(Ordering::Relaxed).max(1).min(self.active.len());
        let cached = cache.words();
        for (wi, word) in self.active[..hi].iter().enumerate() {
            if word.load(Ordering::Acquire) != cached.get(wi).copied().unwrap_or(0) {
                *cache = Arc::new(self.snapshot());
                return;
            }
        }
    }

    /// Record one scanned fact page stamped with `members`: consume one
    /// unit of each member's budget, completing (bit-clearing) every slot
    /// whose budget reaches zero. Returns the completed slots. Lock-free:
    /// one `fetch_update` per member, no write lock — the replacement for
    /// the seed's per-page `state.write()` wrap block.
    pub fn record_page(&self, members: &QueryBitmap) -> Vec<u32> {
        let mut done = Vec::new();
        // Word-direct bit walk (not `iter_ones`): this runs once per fact
        // page, and the flattened loop keeps the per-member cost at the
        // decrement itself.
        for (wi, &word) in members.words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                #[cfg(interleave)]
                if self.mutation == WrapMutation::LostDecrement {
                    // Torn: observe-then-store in two operations; a
                    // concurrent recorder between them consumes a page that
                    // is never subtracted.
                    let seen = self.emit_left[slot].load(Ordering::Acquire);
                    let Some(next) = seen.checked_sub(1) else {
                        continue;
                    };
                    self.emit_left[slot].store(next, Ordering::Release);
                    if next == 0 {
                        self.deactivate(slot);
                        done.push(slot as u32);
                    }
                    continue;
                }
                // Checked decrement: a slot re-seen after its wrap
                // completed (stale member stamp on a re-dispatched page)
                // must not wrap the budget and resurrect the slot.
                match self.emit_left[slot]
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |left| left.checked_sub(1))
                {
                    Ok(1) => {
                        // This decrement consumed the last page: exactly
                        // one recorder observes the 1→0 edge, so the
                        // completion below fires once.
                        self.deactivate(slot);
                        done.push(slot as u32);
                    }
                    Ok(_) => {}
                    Err(_) => {
                        debug_assert!(
                            false,
                            "emit_left underflow: slot {slot} re-seen after its wrap completed"
                        );
                    }
                }
            }
        }
        done
    }

    /// Clear `slot`'s active bit (`Release`: the completing decrement
    /// happens-before a scan that no longer stamps the slot).
    fn deactivate(&self, slot: usize) {
        self.active[slot / 64]
            .fetch_update(Ordering::Release, Ordering::Relaxed, |w| {
                Some(w & !(1u64 << (slot % 64)))
            })
            .unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(slots: &[usize], capacity: usize) -> QueryBitmap {
        let mut b = QueryBitmap::zeros(capacity);
        for &s in slots {
            b.set(s);
        }
        b
    }

    #[test]
    fn budget_counts_down_and_completes_once() {
        let ledger = WrapLedger::new(64);
        ledger.activate(3, 2);
        assert!(ledger.any() && ledger.is_active(3));
        let m = members(&[3], 64);
        assert!(ledger.record_page(&m).is_empty(), "one page left");
        assert_eq!(ledger.emit_left(3), 1);
        assert_eq!(ledger.record_page(&m), vec![3], "second page completes");
        assert!(!ledger.is_active(3) && !ledger.any());
    }

    #[test]
    fn non_members_are_untouched() {
        let ledger = WrapLedger::new(64);
        ledger.activate(0, 1);
        ledger.activate(9, 5);
        assert_eq!(ledger.record_page(&members(&[0], 64)), vec![0]);
        assert_eq!(ledger.emit_left(9), 5);
        assert!(ledger.is_active(9));
    }

    #[test]
    fn slots_recycle_with_fresh_budgets() {
        let ledger = WrapLedger::new(64);
        ledger.activate(1, 1);
        assert_eq!(ledger.record_page(&members(&[1], 64)), vec![1]);
        ledger.activate(1, 3);
        assert!(ledger.is_active(1));
        assert_eq!(ledger.emit_left(1), 3, "reuse starts from the new budget");
    }

    #[test]
    fn capacity_rounds_to_words() {
        assert_eq!(WrapLedger::new(1).capacity(), 64);
        assert_eq!(WrapLedger::new(65).capacity(), 128);
        let ledger = WrapLedger::new(256);
        ledger.activate(200, 1);
        assert_eq!(ledger.record_page(&members(&[200], 256)), vec![200]);
    }
}
