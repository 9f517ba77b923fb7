//! # workshare-storage — storage manager over the simulated disk
//!
//! The paper runs on Shore-MT; this crate provides the equivalent substrate:
//! heap tables of fixed-width rows in 32 KB pages, read through a **buffer
//! pool** (clock eviction) that sits above a simulated disk. Three I/O modes
//! reproduce the paper's experimental settings:
//!
//! * [`IoMode::Memory`] — the database is RAM-resident (Fig. 10 left,
//!   Figs. 11/12): reads never touch the disk model.
//! * [`IoMode::BufferedDisk`] — disk-resident behind an **FS cache** with
//!   extent-granular read-ahead, which coalesces sequential I/O and masks
//!   CJOIN's preprocessor overhead exactly as the Linux page cache does in
//!   the paper (Fig. 13).
//! * [`IoMode::DirectDisk`] — direct I/O: every buffer-pool miss issues a
//!   per-page disk request, exposing seek and per-request costs (Fig. 13's
//!   `Direct I/O` series).
//!
//! All methods take the calling vthread's `SimCtx` so CPU costs (latching)
//! and I/O waits land on the virtual timeline.

//!
//! Page reads are fallible ([`StorageManager::try_read_page`]): transient
//! faults recover via bounded retry with exponential backoff, torn pages are
//! caught by per-page checksums and quarantined, and unrecoverable faults
//! surface as a typed [`StorageError`] — never a panic on query paths. The
//! seeded [`FaultPlan`](workshare_common::FaultPlan)'s page-read sites
//! (default off) drive fault injection for the chaos tests (`docs/FAULTS.md`).

// Query-path code must surface typed errors, not unwrap; tests may unwrap.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod bufferpool;
mod fault;
mod fscache;
mod manager;

pub use bufferpool::BufferPool;
pub use fault::{StorageError, StorageFaultStats};
pub use fscache::FsCache;
pub use manager::{
    IoMode, StorageConfig, StorageManager, TableId, MAX_PAGE_ATTEMPTS,
    PAGE_RETRY_BACKOFF_NS,
};
