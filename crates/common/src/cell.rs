//! One-shot completion cell: the publish-then-flag protocol behind every
//! engine's result slot (`workshare_qpipe::SlotResult`, which the core
//! `Ticket` is a struct over whichever route ran the query), extracted so
//! the deterministic interleaving checker
//! (`tests/interleave_core.rs`) can race a completing producer, a poisoning
//! error path (the slot's `CompletionGuard` dropping), and a polling waiter
//! exhaustively.
//!
//! Protocol invariants, checked by the model:
//!
//! * First write wins: exactly one of `complete` / `complete_error` claims
//!   the cell; the loser is a no-op. (This is slightly stronger than the
//!   pre-extraction `SlotResult`, whose `complete` overwrote blindly — the
//!   hardening closes a complete-vs-complete-error overwrite window that
//!   production call sites never exercised but the model flags.)
//! * The outcome is published *before* the `done` flag is released, so a
//!   waiter that observes `done == true` (Acquire) always finds the value
//!   or the error — never an empty claimed cell.
//!
//! Built on [`crate::sync`], so an `--cfg interleave` build swaps the
//! primitives for the model-checked shim.

use crate::sync::{AtomicBool, Mutex, Ordering};

/// Test-only protocol mutations, compiled only under `--cfg interleave`.
/// Each deliberately breaks one step of the completion protocol so the
/// model checker can prove it would catch the regression.
#[cfg(interleave)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellMutation {
    /// The faithful protocol.
    #[default]
    None,
    /// Release the `done` flag *before* publishing the value: a waiter can
    /// observe a claimed-but-empty cell.
    FlagBeforeValue,
    /// `complete_error` skips the claim and writes blindly: a racing error
    /// path (e.g. a completion guard dropping) poisons a result that was
    /// already published successfully.
    BlindErrorOverwrite,
}

/// A write-once result cell. `T` is the success payload; errors carry a
/// message. All methods take `&self`; share it behind an `Arc`.
pub struct CompletionCell<T> {
    /// Writer election: CAS'd false→true by the winning completer.
    claimed: AtomicBool,
    value: Mutex<Option<T>>,
    error: Mutex<Option<String>>,
    /// Publication flag: released only after the outcome is in place.
    done: AtomicBool,
    #[cfg(interleave)]
    mutation: CellMutation,
}

impl<T> CompletionCell<T> {
    /// New pending cell.
    pub fn new() -> Self {
        CompletionCell {
            claimed: AtomicBool::new(false),
            value: Mutex::new(None),
            error: Mutex::new(None),
            done: AtomicBool::new(false),
            #[cfg(interleave)]
            mutation: CellMutation::None,
        }
    }

    /// Test-only constructor selecting a deliberately broken protocol
    /// variant (see [`CellMutation`]).
    #[cfg(interleave)]
    pub fn with_mutation(mutation: CellMutation) -> Self {
        CompletionCell {
            claimed: AtomicBool::new(false),
            value: Mutex::new(None),
            error: Mutex::new(None),
            done: AtomicBool::new(false),
            mutation,
        }
    }

    /// CAS claim of the single completion. AcqRel success: the winner's
    /// subsequent value publish happens-after any prior state it must see;
    /// the loser's Acquire failure load pairs with the winner's release so
    /// a losing error path can rely on the outcome being (or becoming)
    /// visible.
    fn claim(&self) -> bool {
        self.claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Publish the success value. Returns whether this call won the cell
    /// (a `false` means another completion got there first and this value
    /// was discarded).
    pub fn complete(&self, value: T) -> bool {
        if !self.claim() {
            return false;
        }
        #[cfg(interleave)]
        if self.mutation == CellMutation::FlagBeforeValue {
            self.done.store(true, Ordering::Release);
            *self.value.lock() = Some(value);
            return true;
        }
        *self.value.lock() = Some(value);
        // Release: pairs with the waiter's Acquire load of `done`, making
        // the value publish above visible before "done" is observable.
        self.done.store(true, Ordering::Release);
        true
    }

    /// Poison the cell with an error. Returns whether this call won the
    /// cell. Used when a producer sheds, fails to bind, or abandons the
    /// cell by panicking (the completion guard's drop).
    pub fn complete_error(&self, msg: impl Into<String>) -> bool {
        #[cfg(interleave)]
        if self.mutation == CellMutation::BlindErrorOverwrite {
            *self.error.lock() = Some(msg.into());
            self.done.store(true, Ordering::Release);
            return true;
        }
        if !self.claim() {
            return false;
        }
        *self.error.lock() = Some(msg.into());
        self.done.store(true, Ordering::Release);
        true
    }

    /// Whether an outcome has been published.
    pub fn is_done(&self) -> bool {
        // Acquire: pairs with the completer's Release store, so a `true`
        // here guarantees `try_outcome` finds the published outcome.
        self.done.load(Ordering::Acquire)
    }

    /// The poisoning error, if the cell was completed with one.
    pub fn error(&self) -> Option<String> {
        self.error.lock().clone()
    }
}

impl<T: Clone> CompletionCell<T> {
    /// The published outcome: `None` while pending, then `Ok(value)` or
    /// `Err(message)` forever after.
    ///
    /// Panics if the `done` flag is set with neither a value nor an error
    /// published — the broken-protocol state the publish-before-flag
    /// invariant exists to rule out (production code reaches this as
    /// `expect("done without rows")`).
    pub fn try_outcome(&self) -> Option<Result<T, String>> {
        if !self.is_done() {
            return None;
        }
        if let Some(msg) = self.error.lock().clone() {
            return Some(Err(msg));
        }
        let value = self
            .value
            .lock()
            .clone()
            .expect("completion flag set without a published outcome");
        Some(Ok(value))
    }
}

impl<T> Default for CompletionCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_then_value() {
        let cell: CompletionCell<u64> = CompletionCell::new();
        assert!(!cell.is_done());
        assert_eq!(cell.try_outcome(), None);
        assert!(cell.complete(42));
        assert!(cell.is_done());
        assert_eq!(cell.try_outcome(), Some(Ok(42)));
        assert!(cell.error().is_none());
    }

    #[test]
    fn first_write_wins_value_then_error() {
        let cell: CompletionCell<u64> = CompletionCell::new();
        assert!(cell.complete(7));
        assert!(!cell.complete_error("late poison"), "loser is a no-op");
        assert_eq!(cell.try_outcome(), Some(Ok(7)));
        assert!(cell.error().is_none());
    }

    #[test]
    fn first_write_wins_error_then_value() {
        let cell: CompletionCell<u64> = CompletionCell::new();
        assert!(cell.complete_error("bind failed"));
        assert!(!cell.complete(7));
        assert_eq!(cell.try_outcome(), Some(Err("bind failed".to_string())));
    }
}
