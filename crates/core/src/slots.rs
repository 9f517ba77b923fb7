//! Bounded-admission slot accounting: the compare-and-swap behind
//! [`Engine::try_submit`](crate::Engine::try_submit)'s queue cap, extracted
//! so the deterministic interleaving checker (`tests/interleave_core.rs`)
//! can explore it exhaustively. The engine claims one slot in the
//! engine-wide outstanding count, and the RAII [`SlotPermit`] releases it.
//!
//! Built on [`workshare_common::sync`], so an `--cfg interleave` build swaps
//! the atomics for the model-checked shim.

use workshare_common::sync::{Arc, AtomicU64, Ordering};

/// Test-only protocol mutations, compiled only under `--cfg interleave`.
/// Each deliberately breaks one step of the claim/release protocol so the
/// model checker can prove it would catch the regression.
#[cfg(interleave)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotMutation {
    /// The faithful protocol.
    #[default]
    None,
    /// Claim the engine-wide slot with a blind `fetch_add` instead of the
    /// guarded `fetch_update`: concurrent submitters overshoot the cap.
    BlindIncrement,
}

/// The bounded admission queue's occupancy: the engine-wide outstanding
/// count.
pub struct ServiceSlots {
    /// Queries admitted and not yet completed, engine-wide. The queue cap
    /// is enforced by CAS on this counter ([`ServiceSlots::try_claim`]).
    outstanding: AtomicU64,
    #[cfg(interleave)]
    mutation: SlotMutation,
}

impl ServiceSlots {
    /// Fresh, empty occupancy counter.
    pub fn new() -> Arc<ServiceSlots> {
        Arc::new(ServiceSlots {
            outstanding: AtomicU64::new(0),
            #[cfg(interleave)]
            mutation: SlotMutation::None,
        })
    }

    /// Test-only constructor selecting a deliberately broken protocol
    /// variant (see [`SlotMutation`]).
    #[cfg(interleave)]
    pub fn with_mutation(mutation: SlotMutation) -> Arc<ServiceSlots> {
        Arc::new(ServiceSlots {
            outstanding: AtomicU64::new(0),
            mutation,
        })
    }

    /// Current engine-wide occupancy.
    pub fn outstanding(&self) -> u64 {
        // Acquire pairs with the AcqRel RMWs below so a reader that
        // observes a count also observes the claims it summarizes; the
        // count itself is only advisory (reports, tests).
        self.outstanding.load(Ordering::Acquire)
    }

    /// Claim one slot, or `None` when the cap is full (the
    /// `SimQueue::try_push` shape: reserve-or-reject, never block).
    ///
    /// Ordering invariants, checked by `tests/interleave_core.rs`:
    ///
    /// * The claim is a guarded `fetch_update` CAS loop (AcqRel on success,
    ///   Acquire on the read): concurrent claimants cannot overshoot the
    ///   cap, because every increment re-validates against the latest
    ///   value — a blind `fetch_add` would admit `cap + N - 1` queries
    ///   under N racing submitters.
    /// * AcqRel on the release pairs the decrement with the claim it
    ///   undoes, so a subsequent claimant that observes the freed slot
    ///   also observes everything the releasing thread did before freeing
    ///   it.
    pub fn try_claim(self: &Arc<Self>, cap: u64) -> Option<SlotPermit> {
        #[cfg(interleave)]
        if self.mutation == SlotMutation::BlindIncrement {
            if self.outstanding.fetch_add(1, Ordering::AcqRel) >= cap {
                self.outstanding.fetch_sub(1, Ordering::AcqRel);
                return None;
            }
            return Some(SlotPermit {
                slots: Arc::clone(self),
            });
        }
        self.outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |o| {
                (o < cap).then_some(o + 1)
            })
            .ok()
            .map(|_| SlotPermit {
                slots: Arc::clone(self),
            })
    }
}

/// RAII claim on the bounded admission queue: one admitted query's slot in
/// the engine-wide outstanding count. Released on drop — the permit rides
/// inside the query's completion closure, so normal completion, error
/// completion, and a panicking producer (vthread closures unwind) all free
/// the slot.
pub struct SlotPermit {
    slots: Arc<ServiceSlots>,
}

impl Drop for SlotPermit {
    fn drop(&mut self) {
        // AcqRel: pairs with the claim CAS (see `try_claim` invariants).
        self.slots.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_up_to_cap_then_rejects() {
        let slots = ServiceSlots::new();
        let a = slots.try_claim(2).expect("first slot");
        let _b = slots.try_claim(2).expect("second slot");
        assert!(slots.try_claim(2).is_none(), "cap reached");
        assert_eq!(slots.outstanding(), 2, "a rejected claim takes nothing");
        drop(a);
        assert_eq!(slots.outstanding(), 1);
        let _c = slots.try_claim(2).expect("slot freed by drop");
    }
}
