//! Admission health counters and the degradation ladder.
//!
//! One shared [`AdmissionHealth`] is created by the governed engine when the
//! fault plan is armed and handed to every stage and the fabric. It carries
//! the **degradation ladder** — which of the three admission paths the
//! preprocessor hands pending batches to — plus the counters the engine's
//! health monitor and `HealthStats` read:
//!
//! ```text
//! rung 0  Fabric   cross-stage window merge (fastest, shared blast radius)
//! rung 1  Pool     per-stage admission workers (isolated, still batched)
//! rung 2  Serial   inline on the preprocessor (slowest, minimal machinery)
//! ```
//!
//! The monitor demotes one rung per observed fault/stall burst and promotes
//! one rung back per clean window. When no health handle is installed
//! (faults off) every stage keeps its statically-configured path, preserving
//! legacy behavior bit-for-bit.

// Std atomics directly, not the swappable `workshare_common::sync` layer:
// the interleave shim has no `AtomicU8`, and nothing here participates in a
// model-checked protocol — the rung is a routing knob and the counters are
// monotone tallies (orderings documented per site below).
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The degradation ladder's rungs, fastest to most conservative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// Engine-level cross-stage admission fabric.
    Fabric = 0,
    /// Per-stage admission worker pools.
    Pool = 1,
    /// Serial admission inline on each stage's preprocessor.
    Serial = 2,
}

impl LadderRung {
    fn from_u8(v: u8) -> LadderRung {
        match v {
            0 => LadderRung::Fabric,
            1 => LadderRung::Pool,
            _ => LadderRung::Serial,
        }
    }

    /// One rung more conservative (saturates at [`LadderRung::Serial`]).
    pub fn down(self) -> LadderRung {
        LadderRung::from_u8((self as u8 + 1).min(2))
    }

    /// One rung less conservative, bounded by `top` (an engine without a
    /// fabric cannot promote past [`LadderRung::Pool`]).
    pub fn up(self, top: LadderRung) -> LadderRung {
        LadderRung::from_u8((self as u8).saturating_sub(1).max(top as u8))
    }
}

/// Shared admission-health state: the live ladder rung plus every fault and
/// recovery counter the monitor and reports read. All methods are lock-free.
pub struct AdmissionHealth {
    rung: AtomicU8,
    injected_stalls: AtomicU64,
    injected_panics: AtomicU64,
    injected_wedges: AtomicU64,
    redispatches: AtomicU64,
    batches_failed: AtomicU64,
    queries_failed: AtomicU64,
    requeued: AtomicU64,
    demotions: AtomicU64,
    promotions: AtomicU64,
    fabric_respawns: AtomicU64,
}

impl AdmissionHealth {
    /// Fresh health state starting at `initial`.
    pub fn new(initial: LadderRung) -> AdmissionHealth {
        AdmissionHealth {
            rung: AtomicU8::new(initial as u8),
            injected_stalls: AtomicU64::new(0),
            injected_panics: AtomicU64::new(0),
            injected_wedges: AtomicU64::new(0),
            redispatches: AtomicU64::new(0),
            batches_failed: AtomicU64::new(0),
            queries_failed: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            fabric_respawns: AtomicU64::new(0),
        }
    }

    /// The admission path the preprocessor should hand batches to now.
    /// `Relaxed`: a momentarily stale rung routes one batch through the
    /// previous path, and every path is correct — the ladder trades speed,
    /// not safety.
    pub fn rung(&self) -> LadderRung {
        LadderRung::from_u8(self.rung.load(Ordering::Relaxed))
    }

    /// Step one rung down (more conservative); counts a demotion if it
    /// actually moved. Returns the new rung.
    ///
    /// One CAS loop, not load-then-store: concurrent demoters (or a racing
    /// promoter) each move the rung by exactly one step and tally exactly
    /// the moves that happened — the former split read/write could both
    /// lose a step and over-count it. `AcqRel` on the winning exchange
    /// pairs the movers with each other so the steps serialize.
    pub fn demote(&self) -> LadderRung {
        self.step(LadderRung::down, &self.demotions)
    }

    /// Step one rung up (less conservative), bounded by `top`; counts a
    /// promotion if it actually moved. Returns the new rung. Same CAS
    /// protocol as [`AdmissionHealth::demote`].
    pub fn promote(&self, top: LadderRung) -> LadderRung {
        self.step(|r| r.up(top), &self.promotions)
    }

    fn step(&self, next_of: impl Fn(LadderRung) -> LadderRung, moves: &AtomicU64) -> LadderRung {
        match self
            .rung
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                let next = next_of(LadderRung::from_u8(cur)) as u8;
                (next != cur).then_some(next)
            }) {
            Ok(prev) => {
                moves.fetch_add(1, Ordering::Relaxed);
                next_of(LadderRung::from_u8(prev))
            }
            // The closure returned `None`: already saturated, no move.
            Err(cur) => LadderRung::from_u8(cur),
        }
    }

    // The count_* tallies below are all `Relaxed`: each is a monotone
    // counter bumped on its own, read only by snapshot observers that
    // tolerate staleness; no decision reads one counter expecting to see
    // writes published through another.

    /// Count an injected scan-unit stall.
    pub fn count_stall(&self) {
        self.injected_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an injected scan-unit panic.
    pub fn count_panic(&self) {
        self.injected_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an injected fabric-worker wedge.
    pub fn count_wedge(&self) {
        self.injected_wedges.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a straggler subscan re-dispatched by the fabric.
    pub fn count_redispatch(&self) {
        self.redispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an admission batch failed with `n` typed per-query errors.
    pub fn count_batch_failed(&self, n: u64) {
        self.batches_failed.fetch_add(1, Ordering::Relaxed);
        self.queries_failed.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` pending queries reclaimed from a dark fabric and requeued
    /// onto their stages.
    pub fn count_requeued(&self, n: u64) {
        self.requeued.fetch_add(n, Ordering::Relaxed);
    }

    /// Count a replacement fabric worker spawned by the monitor.
    pub fn count_respawn(&self) {
        self.fabric_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot every counter (rung, then the counters in declaration
    /// order). Used by the engine to assemble `HealthStats`.
    #[allow(clippy::type_complexity)]
    pub fn snapshot(&self) -> AdmissionHealthSnapshot {
        AdmissionHealthSnapshot {
            rung: self.rung() as u8,
            injected_stalls: self.injected_stalls.load(Ordering::Relaxed),
            injected_panics: self.injected_panics.load(Ordering::Relaxed),
            injected_wedges: self.injected_wedges.load(Ordering::Relaxed),
            redispatches: self.redispatches.load(Ordering::Relaxed),
            batches_failed: self.batches_failed.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            requeued: self.requeued.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            fabric_respawns: self.fabric_respawns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`AdmissionHealth`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionHealthSnapshot {
    /// Current ladder rung (0 = fabric, 1 = pool, 2 = serial).
    pub rung: u8,
    /// Injected scan-unit stalls.
    pub injected_stalls: u64,
    /// Injected scan-unit panics.
    pub injected_panics: u64,
    /// Injected fabric-worker wedges.
    pub injected_wedges: u64,
    /// Straggler subscans re-dispatched.
    pub redispatches: u64,
    /// Admission batches failed with typed errors.
    pub batches_failed: u64,
    /// Queries that received a typed admission error.
    pub queries_failed: u64,
    /// Pending queries reclaimed from a dark fabric and requeued.
    pub requeued: u64,
    /// Ladder demotions.
    pub demotions: u64,
    /// Ladder promotions.
    pub promotions: u64,
    /// Replacement fabric workers spawned.
    pub fabric_respawns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_saturates_both_ends() {
        assert_eq!(LadderRung::Serial.down(), LadderRung::Serial);
        assert_eq!(LadderRung::Fabric.up(LadderRung::Fabric), LadderRung::Fabric);
        assert_eq!(LadderRung::Fabric.down(), LadderRung::Pool);
        assert_eq!(LadderRung::Serial.up(LadderRung::Fabric), LadderRung::Pool);
        // Without a fabric the ladder cannot promote past Pool.
        assert_eq!(LadderRung::Pool.up(LadderRung::Pool), LadderRung::Pool);
    }

    #[test]
    fn demote_promote_count_only_real_moves() {
        let h = AdmissionHealth::new(LadderRung::Fabric);
        assert_eq!(h.demote(), LadderRung::Pool);
        assert_eq!(h.demote(), LadderRung::Serial);
        assert_eq!(h.demote(), LadderRung::Serial, "saturated");
        assert_eq!(h.promote(LadderRung::Fabric), LadderRung::Pool);
        assert_eq!(h.promote(LadderRung::Fabric), LadderRung::Fabric);
        assert_eq!(h.promote(LadderRung::Fabric), LadderRung::Fabric, "saturated");
        let s = h.snapshot();
        assert_eq!(s.demotions, 2);
        assert_eq!(s.promotions, 2);
        assert_eq!(s.rung, 0);
    }
}
