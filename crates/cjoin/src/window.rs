//! Pending-admission window plumbing: the pending-set drain used by the
//! stage admission workers and the fabric's merged batching windows
//! ([`crate::fabric`]), plus the fabric's pending-depth ledger — extracted
//! so the deterministic interleaving checker (`tests/interleave_core.rs`)
//! can race a window merge against concurrent submissions exhaustively.
//!
//! Protocol invariants, checked by the model:
//!
//! * Draining a pending set is one atomic take per shard under a single
//!   lock acquisition: every submission either rides the window that
//!   drained it or stays pending for the next — none is lost, none runs
//!   twice. (A size-then-take drain in two lock acquisitions loses
//!   submissions that land between the two; that is the
//!   `ShardMutation::TornDrain` mutation.)
//! * The depth ledger's add happens *before* the request is visible to a
//!   window, and the failed-submit rollback restores it exactly, so the
//!   governor's cross-stage pending signal never undercounts work a window
//!   is about to absorb.
//!
//! Built on [`workshare_common::sync`], so an `--cfg interleave` build swaps
//! the primitives for the model-checked shim.

use workshare_common::sync::{AtomicBool, AtomicU64, Mutex, Ordering};

/// Test-only mutations of the sharded pending protocol, compiled only
/// under `--cfg interleave`.
#[cfg(interleave)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMutation {
    /// The faithful protocol.
    #[default]
    None,
    /// Drain each shard with a size-then-take in two lock acquisitions
    /// instead of one atomic take per shard: a submission landing in the
    /// gap is silently dropped.
    TornDrain,
}

/// An MPMC **sharded** pending set: submissions spread over `n` independent
/// lock shards by an atomic ticket, so concurrent producers (submitting
/// queries, re-queued reclaims) do not serialize on one mutex. Used for the
/// stages' pending-admission sets.
///
/// Protocol invariant, checked by the model: **per-shard drains are atomic
/// takes.** The drain visits every shard once and takes each shard's
/// contents in one lock acquisition: cross-shard ordering is free (windows
/// merge whatever they drain), but within a shard every submission either
/// rides the draining window or stays for the next — none is lost, none
/// runs twice (the interleave-only `ShardMutation::TornDrain`
/// re-introduces the torn variant).
pub struct ShardedSlot<A> {
    shards: Box<[Mutex<Vec<A>>]>,
    /// Round-robin ticket spreading producers over shards; `Relaxed` — it
    /// only picks a shard, the shard lock orders the items.
    tickets: AtomicU64,
    #[cfg(interleave)]
    mutation: ShardMutation,
}

impl<A> ShardedSlot<A> {
    /// Empty sharded pending set with `n_shards` lock shards (min 1).
    pub fn new(n_shards: usize) -> Self {
        ShardedSlot {
            shards: (0..n_shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            tickets: AtomicU64::new(0),
            #[cfg(interleave)]
            mutation: ShardMutation::None,
        }
    }

    /// Test-only constructor selecting a deliberately broken protocol
    /// variant (see [`ShardMutation`]).
    #[cfg(interleave)]
    pub fn with_mutation(n_shards: usize, mutation: ShardMutation) -> Self {
        ShardedSlot {
            shards: (0..n_shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            tickets: AtomicU64::new(0),
            mutation,
        }
    }

    fn next_shard(&self) -> usize {
        (self.tickets.fetch_add(1, Ordering::Relaxed) % self.shards.len() as u64) as usize
    }

    /// Queue one submission for the next window.
    pub fn push(&self, item: A) {
        self.shards[self.next_shard()].lock().push(item);
    }

    /// Queue a batch of submissions. One ticket — the batch lands on one
    /// shard, so a single drain takes it whole.
    pub fn extend(&self, items: impl IntoIterator<Item = A>) {
        self.shards[self.next_shard()].lock().extend(items);
    }

    /// Take everything pending: one atomic take per shard, in shard order.
    pub fn drain(&self) -> Vec<A> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            #[cfg(interleave)]
            if self.mutation == ShardMutation::TornDrain {
                // Torn: the shard lock is released between sizing and
                // taking, so a submission landing in the gap is dropped.
                let snapshot = shard.lock().len();
                let mut items = shard.lock();
                out.extend(items.drain(..).take(snapshot));
                continue;
            }
            out.append(&mut shard.lock());
        }
        out
    }

    /// Submissions currently pending (sum over shards; advisory under
    /// concurrent pushes).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether nothing is pending (advisory under concurrent pushes).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }
}

/// The fabric's pending-depth ledger: queries queued across all stages and
/// not yet activated.
#[derive(Default)]
pub struct WindowLedger {
    pending: AtomicU64,
}

impl WindowLedger {
    /// Record `n` queries entering the pending queue. Call *before* making
    /// the request visible to a window, so the signal never undercounts.
    pub fn add(&self, n: u64) {
        self.pending.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` queries leaving (activated by a window, or rolled back by
    /// a failed submit).
    pub fn sub(&self, n: u64) {
        self.pending.fetch_sub(n, Ordering::Relaxed);
    }

    /// Queries currently pending — advisory (governor signal, reports).
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }
}

/// Test-only mutations of the re-dispatch claim protocol, compiled only
/// under `--cfg interleave`.
#[cfg(interleave)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RedispatchMutation {
    /// The faithful protocol.
    #[default]
    None,
    /// Claim with a load-then-store instead of one CAS: two attempts can
    /// both observe `claimed == false` and both publish — the
    /// duplicate-dispatch race.
    TornClaim,
}

/// The fabric's straggler re-dispatch handshake for one scan-unit task.
///
/// When a subscan outlives its deadline (stalled, wedged, or dead), the
/// window supervisor spawns a second attempt over the same unit. Both
/// attempts race to **claim** the task before publishing their staged
/// entries; the single-CAS claim guarantees exactly one publisher, so
/// neither the filter entries nor the admission counters are applied twice
/// (duplicate-dispatch), and the supervisor's wait on `done` guarantees the
/// unit is never silently dropped (lost-unit). Protocol invariants, checked
/// by `tests/interleave_core.rs`:
///
/// * `try_claim` succeeds exactly once across all attempts: one atomic
///   compare-exchange, not a load-then-store (that is the
///   `RedispatchMutation::TornClaim` mutation, compiled only under
///   `--cfg interleave`).
/// * `mark_done` is a `Release` store after the publish, paired with the
///   supervisor's `Acquire` load in [`ScanAttempt::is_done`], so when the
///   supervisor observes completion the published entries are visible.
pub struct ScanAttempt {
    claimed: AtomicBool,
    done: AtomicBool,
    #[cfg(interleave)]
    mutation: RedispatchMutation,
}

impl ScanAttempt {
    /// Fresh unclaimed task.
    pub fn new() -> ScanAttempt {
        ScanAttempt {
            claimed: AtomicBool::new(false),
            done: AtomicBool::new(false),
            #[cfg(interleave)]
            mutation: RedispatchMutation::None,
        }
    }

    /// Test-only constructor selecting a deliberately broken protocol
    /// variant (see [`RedispatchMutation`]).
    #[cfg(interleave)]
    pub fn with_mutation(mutation: RedispatchMutation) -> ScanAttempt {
        ScanAttempt {
            claimed: AtomicBool::new(false),
            done: AtomicBool::new(false),
            mutation,
        }
    }

    /// Race for the right to publish this task's results. Exactly one
    /// attempt wins; losers must discard their staged entries.
    pub fn try_claim(&self) -> bool {
        #[cfg(interleave)]
        if self.mutation == RedispatchMutation::TornClaim {
            // Torn: check-then-set in two operations; a second attempt
            // between them also "wins".
            if self.claimed.load(Ordering::Acquire) {
                return false;
            }
            self.claimed.store(true, Ordering::Release);
            return true;
        }
        self.claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Mark the task published. `Release`: everything the winning attempt
    /// wrote (staged entries, counters) happens-before a supervisor that
    /// observes `is_done`.
    pub fn mark_done(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// Whether some attempt has published (supervisor side, `Acquire`).
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

impl Default for ScanAttempt {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_drain_takes_everything_once() {
        let slot: ShardedSlot<u32> = ShardedSlot::new(4);
        for i in 0..10 {
            slot.push(i);
        }
        slot.extend([10, 11]);
        assert_eq!(slot.len(), 12);
        let mut drained = slot.drain();
        drained.sort_unstable();
        assert_eq!(drained, (0..12).collect::<Vec<_>>());
        assert!(slot.is_empty());
        assert!(slot.drain().is_empty(), "second drain finds nothing");
    }

    #[test]
    fn ledger_balances_and_caps() {
        // The ledger only counts; the engine's queue cap is the one limit.
        let ledger = WindowLedger::default();
        ledger.add(2);
        assert_eq!(ledger.pending(), 2);
        ledger.sub(1);
        assert_eq!(ledger.pending(), 1);
        ledger.sub(1);
        assert_eq!(ledger.pending(), 0);
    }

    #[test]
    fn unbounded_ledger_always_has_capacity() {
        // No depth cap: any pending count is recorded as it is.
        let ledger = WindowLedger::default();
        ledger.add(1 << 40);
        assert_eq!(ledger.pending(), 1 << 40);
    }

    #[test]
    fn scan_attempt_claim_is_exactly_once() {
        let a = ScanAttempt::new();
        assert!(!a.is_done());
        assert!(a.try_claim(), "first attempt wins");
        assert!(!a.try_claim(), "second attempt loses");
        a.mark_done();
        assert!(a.is_done());
    }
}
