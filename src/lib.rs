//! # workshare
//!
//! Reproduction of *“Sharing Data and Work Across Concurrent Analytical
//! Queries”* (Psaroudakis, Athanassoulis, Ailamaki — VLDB 2013).
//!
//! This root crate re-exports the public facade from [`workshare_core`]; the
//! individual subsystems live in their own crates:
//!
//! * `workshare-sim` — virtual-time multicore machine and simulated disk.
//! * `workshare-common` — values, schemas, predicates, plans, bitmaps.
//! * `workshare-storage` — paged storage manager, buffer pool, FS cache.
//! * `workshare-datagen` — SSB / TPC-H data generators.
//! * `workshare-qpipe` — staged engine with Simultaneous Pipelining (SP).
//! * `workshare-cjoin` — CJOIN Global Query Plan with shared operators.
//! * [`workshare_core`] — engine configurations, planner, harness, workloads.
//!
//! See `README.md` for a quickstart and `docs/FIGURES.md` for the paper's
//! figures, their predicates and today's verdicts.

pub use workshare_core::*;

/// Crate-level smoke check used by documentation tests.
///
/// ```
/// assert_eq!(workshare::paper(), "VLDB 2013");
/// ```
pub fn paper() -> &'static str {
    "VLDB 2013"
}
