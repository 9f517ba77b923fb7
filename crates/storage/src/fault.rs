//! Typed storage errors and the seeded page-fault injection state.
//!
//! The fault sites here model the media failures a shared-scan engine must
//! survive without stalling the whole crowd (ISSUE 8): **transient** read
//! errors (recovered by bounded retry with exponential backoff inside
//! [`crate::StorageManager::try_read_page`]), **permanent** read errors
//! (surface as a typed [`StorageError`] after retries are exhausted), and
//! **torn pages** caught by the per-page checksum verify (the page is
//! quarantined; the next read rebuilds it from the pristine heap copy,
//! modeling a replica re-fetch).
//!
//! Injection is seeded and counter-driven: every logical page read draws one
//! tick from a global counter, and each site fires when its hash of
//! `(seed, site, tick)` lands on the configured stride. Everything is pure
//! virtual time — no wall clocks — so a failing schedule replays from its
//! seed (see `docs/FAULTS.md`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// A typed page-read failure. Never a panic: callers turn these into
/// per-query error outcomes (`Ticket::error`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The page could not be read after bounded retries.
    PageUnreadable {
        /// Table the page belongs to.
        table: u32,
        /// Page number within the table.
        page: u32,
        /// Read attempts made before giving up.
        attempts: u32,
    },
    /// The per-page checksum did not match: a torn write. The page is
    /// quarantined; the next read rebuilds it.
    TornPage {
        /// Table the page belongs to.
        table: u32,
        /// Page number within the table.
        page: u32,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::PageUnreadable {
                table,
                page,
                attempts,
            } => write!(
                f,
                "page {page} of table {table} unreadable after {attempts} attempts"
            ),
            StorageError::TornPage { table, page } => {
                write!(f, "torn page {page} of table {table} (checksum mismatch)")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Seeded fault schedule for the storage layer. Default: fully off — the
/// read path is bit-for-bit the legacy one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaultPlan {
    /// Seed mixed into every site's fire decision.
    pub seed: u64,
    /// Every ~`stride`-th read fails transiently (recovered by retry).
    pub transient_stride: Option<u64>,
    /// Every ~`stride`-th read fails on every attempt (typed error).
    pub permanent_stride: Option<u64>,
    /// Every ~`stride`-th read returns a torn page (checksum mismatch).
    pub torn_stride: Option<u64>,
    /// Whether the recovery machinery (retry/backoff) runs. `false` models
    /// the no-recovery baseline: the first failed attempt is final.
    pub retry: bool,
}

impl Default for StorageFaultPlan {
    fn default() -> Self {
        StorageFaultPlan {
            seed: 0,
            transient_stride: None,
            permanent_stride: None,
            torn_stride: None,
            retry: true,
        }
    }
}

impl StorageFaultPlan {
    /// Whether any storage fault site is armed.
    pub fn is_armed(&self) -> bool {
        self.transient_stride.is_some()
            || self.permanent_stride.is_some()
            || self.torn_stride.is_some()
    }
}

/// Counters the health monitor and `HealthStats` read off the storage layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageFaultStats {
    /// Transient faults injected.
    pub injected_transient: u64,
    /// Permanent faults injected.
    pub injected_permanent: u64,
    /// Torn pages injected.
    pub injected_torn: u64,
    /// Failed attempts that were retried (with backoff).
    pub retries: u64,
    /// Pages quarantined after a checksum mismatch.
    pub pages_quarantined: u64,
    /// Quarantined pages rebuilt on a later read.
    pub pages_rebuilt: u64,
}

impl StorageFaultStats {
    /// Total injected faults across all sites.
    pub fn injected(&self) -> u64 {
        self.injected_transient + self.injected_permanent + self.injected_torn
    }
}

/// Shared injection + quarantine state on the storage manager.
pub(crate) struct FaultState {
    reads: AtomicU64,
    quarantine: Mutex<HashSet<(u32, u32)>>,
    injected_transient: AtomicU64,
    injected_permanent: AtomicU64,
    injected_torn: AtomicU64,
    retries: AtomicU64,
    pages_quarantined: AtomicU64,
    pages_rebuilt: AtomicU64,
}

/// Distinct salts so the sites fire on unrelated read ticks.
#[derive(Clone, Copy)]
pub(crate) enum FaultSite {
    Transient = 1,
    Permanent = 2,
    Torn = 3,
}

fn mix(seed: u64, site: u64, tick: u64) -> u64 {
    // splitmix64-style finalizer: decorrelates the per-site schedules.
    let mut x = tick
        .wrapping_add(seed.rotate_left(17))
        .wrapping_add(site.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultState {
    pub(crate) fn new() -> FaultState {
        FaultState {
            reads: AtomicU64::new(0),
            quarantine: Mutex::new(HashSet::new()),
            injected_transient: AtomicU64::new(0),
            injected_permanent: AtomicU64::new(0),
            injected_torn: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            pages_quarantined: AtomicU64::new(0),
            pages_rebuilt: AtomicU64::new(0),
        }
    }

    /// Draw this read's injection tick.
    pub(crate) fn tick(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether `site` fires on `tick` under `plan`.
    pub(crate) fn fires(plan: &StorageFaultPlan, site: FaultSite, tick: u64) -> bool {
        let stride = match site {
            FaultSite::Transient => plan.transient_stride,
            FaultSite::Permanent => plan.permanent_stride,
            FaultSite::Torn => plan.torn_stride,
        };
        stride.is_some_and(|s| s > 0 && mix(plan.seed, site as u64, tick).is_multiple_of(s))
    }

    pub(crate) fn count_injected(&self, site: FaultSite) {
        match site {
            FaultSite::Transient => &self.injected_transient,
            FaultSite::Permanent => &self.injected_permanent,
            FaultSite::Torn => &self.injected_torn,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Quarantine a page; returns `false` if it was already quarantined.
    pub(crate) fn quarantine(&self, key: (u32, u32)) -> bool {
        let fresh = self.quarantine.lock().insert(key);
        if fresh {
            self.pages_quarantined.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Take a page out of quarantine (the rebuild path); returns whether it
    /// was quarantined.
    pub(crate) fn rebuild(&self, key: (u32, u32)) -> bool {
        let was = self.quarantine.lock().remove(&key);
        if was {
            self.pages_rebuilt.fetch_add(1, Ordering::Relaxed);
        }
        was
    }

    pub(crate) fn stats(&self) -> StorageFaultStats {
        StorageFaultStats {
            injected_transient: self.injected_transient.load(Ordering::Relaxed),
            injected_permanent: self.injected_permanent.load(Ordering::Relaxed),
            injected_torn: self.injected_torn.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            pages_quarantined: self.pages_quarantined.load(Ordering::Relaxed),
            pages_rebuilt: self.pages_rebuilt.load(Ordering::Relaxed),
        }
    }
}

/// FNV-1a over the encoded page bytes: the per-page checksum verified on
/// every read when faults are armed.
pub(crate) fn page_checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_off() {
        let p = StorageFaultPlan::default();
        assert!(!p.is_armed());
        assert!(p.retry);
    }

    #[test]
    fn stride_one_always_fires() {
        let p = StorageFaultPlan {
            transient_stride: Some(1),
            ..Default::default()
        };
        for tick in 0..32 {
            assert!(FaultState::fires(&p, FaultSite::Transient, tick));
        }
        assert!(!FaultState::fires(&p, FaultSite::Permanent, 0));
    }

    #[test]
    fn sites_fire_on_decorrelated_ticks() {
        let p = StorageFaultPlan {
            transient_stride: Some(5),
            permanent_stride: Some(5),
            ..Default::default()
        };
        let (mut t, mut q, mut both) = (0u32, 0u32, 0u32);
        for tick in 0..10_000 {
            let a = FaultState::fires(&p, FaultSite::Transient, tick);
            let b = FaultState::fires(&p, FaultSite::Permanent, tick);
            t += a as u32;
            q += b as u32;
            both += (a && b) as u32;
        }
        // Each site hits ~1/5 of ticks, but not the same ticks.
        assert!((1500..2500).contains(&t), "{t}");
        assert!((1500..2500).contains(&q), "{q}");
        assert!(both < t.min(q) / 2, "sites overlap too much: {both}");
    }

    #[test]
    fn quarantine_roundtrip() {
        let st = FaultState::new();
        assert!(st.quarantine((1, 2)));
        assert!(!st.quarantine((1, 2)), "already quarantined");
        assert!(st.rebuild((1, 2)));
        assert!(!st.rebuild((1, 2)), "already rebuilt");
        let s = st.stats();
        assert_eq!(s.pages_quarantined, 1);
        assert_eq!(s.pages_rebuilt, 1);
    }

    #[test]
    fn checksum_detects_flips() {
        let a = page_checksum(b"hello world");
        let b = page_checksum(b"hello worle");
        assert_ne!(a, b);
    }
}
