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
//! tick from the manager's counter, and each page site fires where
//! [`FaultPlan::fires`](workshare_common::FaultPlan::fires) says — the one
//! schedule every layer reads (`workshare_common::fault`). Everything is
//! pure virtual time — no wall clocks (see `docs/FAULTS.md`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use workshare_common::FaultSite;

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

    pub(crate) fn count_injected(&self, site: FaultSite) {
        match site {
            FaultSite::Transient => &self.injected_transient,
            FaultSite::Permanent => &self.injected_permanent,
            FaultSite::Torn => &self.injected_torn,
            other => unreachable!("{other:?} is not a page-read site"),
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
