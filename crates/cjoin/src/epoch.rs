//! Epoch-published shared state: the lock-free publication protocol behind
//! the stage's filter state (`crate::stage`).
//!
//! An [`EpochCell`] holds the current immutable snapshot (an `Arc<T>`)
//! plus a version word. Writers build the next snapshot off-line and
//! publish it as **one pointer swap** (the slot replacement and the
//! version bump happen in a single critical section, so the pair is never
//! observed torn). Readers keep a cached `Arc` in an [`EpochReader`] and
//! pay exactly **one `Acquire` load** per probe at steady state — the
//! slot mutex is touched only on a version change, which on the stage
//! happens once per admission/finalize, not per page.
//!
//! Protocol invariants, checked by the model (`tests/interleave_core.rs`
//! drives [`EpochFilterSpec`], a minimal-state spec of the admission
//! publish in `admission.rs`/`stage.rs`):
//!
//! * **Publish is atomic.** Slot and version move together under one lock
//!   acquisition; a reader that refreshes therefore always caches a
//!   `(value, version)` pair that was current together. Splitting them —
//!   bumping the version in one critical section and swapping the value in
//!   another — lets a refresh cache the *new* version with the *old* value
//!   and never refresh again (the `EpochMutation::TornSwap` mutation,
//!   compiled only under `--cfg interleave`).
//! * **Entries-then-activate** (the discipline [`EpochFilterSpec`]
//!   models): an admission publishes the epoch carrying a
//!   query's filter entries *before* it raises the query's active bit
//!   (`Release`). A probe gates on the active mask (`Acquire`) first, so
//!   observing the bit happens-after the entries epoch was published, and
//!   the reader's version probe is then guaranteed to trigger the refresh
//!   that covers those entries: a probe never observes an active slot
//!   whose keys are missing. Raising the bit first is the
//!   `EpochMutation::ActivateBeforePublish` mutation.
//!
//! Built on [`workshare_common::sync`], so an `--cfg interleave` build
//! swaps the primitives for the model-checked shim.

use workshare_common::fxhash::FxHashMap;
use workshare_common::sync::{Arc, AtomicU64, Mutex, Ordering};

/// Test-only protocol mutations, compiled only under `--cfg interleave`.
#[cfg(interleave)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EpochMutation {
    /// The faithful protocol.
    #[default]
    None,
    /// Publish with the version bump and the value swap in two separate
    /// critical sections: a reader refreshing between them caches the new
    /// version with the stale value and never refreshes again.
    TornSwap,
    /// Raise the active bit before publishing the entries epoch: a probe
    /// can observe an active slot whose keys are missing.
    ActivateBeforePublish,
}

/// A published, versioned snapshot. See the module docs for the protocol.
pub struct EpochCell<T> {
    /// Bumped (`Release`) in the same critical section that replaces the
    /// slot, paired with the reader's `Acquire` probe in
    /// [`EpochReader::current`]: an observed version implies the slot
    /// holding (at least) that version's value is visible.
    version: AtomicU64,
    slot: Mutex<Arc<T>>,
    #[cfg(interleave)]
    mutation: EpochMutation,
}

impl<T> EpochCell<T> {
    /// Cell holding `initial` as epoch 0.
    pub fn new(initial: T) -> EpochCell<T> {
        EpochCell {
            version: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(initial)),
            #[cfg(interleave)]
            mutation: EpochMutation::None,
        }
    }

    /// Test-only constructor selecting a deliberately broken protocol
    /// variant (see [`EpochMutation`]).
    #[cfg(interleave)]
    pub fn with_mutation(initial: T, mutation: EpochMutation) -> EpochCell<T> {
        EpochCell {
            version: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(initial)),
            mutation,
        }
    }

    /// Publish `next` as the new epoch: one pointer swap. The version bump
    /// and the slot replacement share a single critical section so no
    /// refresh can pair a version with the wrong value; the bump is
    /// `Release` so everything the writer built into `next`
    /// happens-before a reader that observes the new version.
    ///
    /// Writers that derive `next` from the current epoch (read-copy-
    /// publish) must serialize among themselves — on the stage that is the
    /// control mutex (`StageInner::mutate_epoch`) — or concurrent copies
    /// would lose each other's updates. Readers are never blocked by that:
    /// they only touch the slot lock for the duration of an `Arc` clone.
    pub fn publish(&self, next: Arc<T>) {
        #[cfg(interleave)]
        if self.mutation == EpochMutation::TornSwap {
            // Torn: version first, value later, in separate critical
            // sections — the bug this protocol exists to exclude.
            {
                let _slot = self.slot.lock();
                self.version.fetch_add(1, Ordering::Release);
            }
            *self.slot.lock() = next;
            return;
        }
        let mut slot = self.slot.lock();
        *slot = next;
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The current epoch's value (cold path: takes the slot lock for one
    /// `Arc` clone). Hot paths hold an [`EpochReader`] instead.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&*self.slot.lock())
    }

    /// The current version (`Acquire`).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// A reader caching the current epoch.
    pub fn reader(&self) -> EpochReader<T> {
        let slot = self.slot.lock();
        EpochReader {
            cached: Arc::clone(&slot),
            version: self.version.load(Ordering::Acquire),
        }
    }
}

/// A per-thread cached view of an [`EpochCell`]: the steady-state probe is
/// one `Acquire` version load; the slot lock is taken only when the
/// version moved.
pub struct EpochReader<T> {
    cached: Arc<T>,
    version: u64,
}

impl<T> EpochReader<T> {
    /// The freshest epoch this reader can see. `Acquire` on the version
    /// probe pairs with the publisher's `Release` bump: an observed bump
    /// forces the refresh, and the refresh re-reads the version inside the
    /// slot critical section so the cached pair is always consistent.
    pub fn current(&mut self, cell: &EpochCell<T>) -> &Arc<T> {
        if cell.version.load(Ordering::Acquire) != self.version {
            let slot = cell.slot.lock();
            self.cached = Arc::clone(&slot);
            self.version = cell.version.load(Ordering::Acquire);
        }
        &self.cached
    }
}

/// Minimal-state spec of the stage's epoch-published filter state, driven
/// exhaustively by `tests/interleave_core.rs`: a key→member-mask map
/// published through an [`EpochCell`] plus an atomic active mask, with the
/// entries-then-activate discipline of `admission.rs`. Production
/// equivalents: the map is `FilterEpoch`'s filter entries, the mask is the
/// `WrapLedger`'s active word, the writer mutex is the stage's control
/// mutex.
pub struct EpochFilterSpec {
    entries: EpochCell<FxHashMap<i64, u64>>,
    active: AtomicU64,
    /// Serializes read-copy-publish admissions (see [`EpochCell::publish`]).
    writer: Mutex<()>,
    #[cfg(interleave)]
    mutation: EpochMutation,
}

impl EpochFilterSpec {
    /// Empty filter state: no entries, no active slots.
    pub fn new() -> EpochFilterSpec {
        EpochFilterSpec {
            entries: EpochCell::new(FxHashMap::default()),
            active: AtomicU64::new(0),
            writer: Mutex::new(()),
            #[cfg(interleave)]
            mutation: EpochMutation::None,
        }
    }

    /// Test-only constructor selecting a deliberately broken protocol
    /// variant (see [`EpochMutation`]).
    #[cfg(interleave)]
    pub fn with_mutation(mutation: EpochMutation) -> EpochFilterSpec {
        EpochFilterSpec {
            entries: EpochCell::with_mutation(FxHashMap::default(), mutation),
            active: AtomicU64::new(0),
            writer: Mutex::new(()),
            mutation,
        }
    }

    /// Admit `slot` selecting `keys`: publish the entries epoch, then
    /// raise the active bit (`Release`) — entries-then-activate.
    pub fn admit(&self, slot: u32, keys: &[i64]) {
        let bit = 1u64 << slot;
        let _writer = self.writer.lock();
        #[cfg(interleave)]
        if self.mutation == EpochMutation::ActivateBeforePublish {
            // Mutated: the slot goes live before its keys are published.
            self.active
                .fetch_update(Ordering::Release, Ordering::Relaxed, |m| Some(m | bit))
                .unwrap();
            let mut next = (*self.entries.load()).clone();
            for &k in keys {
                *next.entry(k).or_insert(0) |= bit;
            }
            self.entries.publish(Arc::new(next));
            return;
        }
        let mut next = (*self.entries.load()).clone();
        for &k in keys {
            *next.entry(k).or_insert(0) |= bit;
        }
        self.entries.publish(Arc::new(next));
        self.active
            .fetch_update(Ordering::Release, Ordering::Relaxed, |m| Some(m | bit))
            .unwrap();
    }

    /// A cached reader for [`EpochFilterSpec::probe_if_active`].
    pub fn reader(&self) -> EpochReader<FxHashMap<i64, u64>> {
        self.entries.reader()
    }

    /// Probe `key` on behalf of `slot` if the slot is active: `None` while
    /// inactive, else whether the slot selects the key. `Acquire` on the
    /// mask pairs with `admit`'s `Release` bit-set: an observed bit
    /// happens-after the entries epoch was published, so the reader's
    /// version probe refreshes past it — an active slot's keys are never
    /// missing.
    pub fn probe_if_active(
        &self,
        reader: &mut EpochReader<FxHashMap<i64, u64>>,
        slot: u32,
        key: i64,
    ) -> Option<bool> {
        let bit = 1u64 << slot;
        if self.active.load(Ordering::Acquire) & bit == 0 {
            return None;
        }
        let map = reader.current(&self.entries);
        Some(map.get(&key).is_some_and(|m| m & bit != 0))
    }
}

impl Default for EpochFilterSpec {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_advances_version_and_value() {
        let cell = EpochCell::new(1u32);
        assert_eq!(cell.version(), 0);
        let mut reader = cell.reader();
        assert_eq!(**reader.current(&cell), 1);
        cell.publish(Arc::new(2));
        assert_eq!(cell.version(), 1);
        assert_eq!(**reader.current(&cell), 2, "reader refreshes on a bump");
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn reader_caches_between_publishes() {
        let cell = EpochCell::new(7u32);
        let mut reader = cell.reader();
        let a = Arc::clone(reader.current(&cell));
        let b = Arc::clone(reader.current(&cell));
        assert!(Arc::ptr_eq(&a, &b), "no refresh without a version change");
    }

    #[test]
    fn spec_gates_probes_on_activation() {
        let spec = EpochFilterSpec::new();
        let mut r = spec.reader();
        assert_eq!(spec.probe_if_active(&mut r, 0, 10), None, "inactive");
        spec.admit(0, &[10]);
        assert_eq!(spec.probe_if_active(&mut r, 0, 10), Some(true));
        assert_eq!(spec.probe_if_active(&mut r, 0, 11), Some(false));
        spec.admit(1, &[11]);
        assert_eq!(spec.probe_if_active(&mut r, 1, 11), Some(true));
        assert_eq!(spec.probe_if_active(&mut r, 0, 10), Some(true), "old entries survive");
    }
}
