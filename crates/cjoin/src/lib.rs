//! # workshare-cjoin — Global Query Plans with shared operators
//!
//! A from-scratch implementation of the CJOIN operator (paper §2.5,
//! Candea et al. VLDB'09/'11) integrated as a stage of the QPipe engine
//! (paper §3.2):
//!
//! ```text
//!            ┌────────┐   ┌────────┐        ┌─────────────┐
//! fact table │ pre-   │ → │ filter │ → … →  │ distributor │ → per-query
//! (circular  │processor│  │workers │        │   parts     │   exchanges
//!  scan)     └────────┘   └────────┘        └─────────────┘
//! ```
//!
//! * The **preprocessor** drives a circular scan of the fact table, stamps
//!   each page with the set of active queries, picks up new queries in
//!   **batches** at page boundaries — handing each batch to an admission
//!   worker (the engine-level [`fabric`] or the stage's own) so the
//!   dimension scans overlap fact-page production; only the retained serial
//!   oracle ([`CjoinConfig::serial_admission`]) admits inline, pausing the
//!   pipeline as in §3.2 — and marks each query's completion when the scan
//!   wraps to its point of entry.
//! * **Filters** are shared selection + shared hash-join pairs: one per
//!   dimension table, holding the union of dimension tuples selected by any
//!   active query, each tagged with a
//!   [`QueryBitmap`](workshare_common::QueryBitmap). Probing ANDs bitmaps
//!   (`bits &= entry | ¬referencing`), so queries that do not join a
//!   dimension pass through it untouched. Filtering runs **batch-at-a-time**
//!   ([`filter`]): tuple bitmaps live in a word-strided
//!   [`workshare_common::BitmapBank`], dimension hashes are probed once per
//!   key run, and a per-worker scratch keeps the steady-state loop free of
//!   per-tuple heap allocations (the tuple-at-a-time [`filter_page_scalar`]
//!   is the kernel-level oracle; no engine path runs it). The workers read
//!   each fact page in place, decode no row, and hand the distributor
//!   survivors and bitmaps only ([`filter_page_survivors`]).
//! * **Distributor parts** (the paper's fix for the single-threaded
//!   distributor bottleneck) route surviving tuples to the queries whose bit
//!   is set, applying per-query fact predicates (evaluated on CJOIN output,
//!   §3.2) and per-query projections — on the fact page in place, looking
//!   a dimension payload up by foreign key and building a row only for a
//!   joined output tuple.
//! * **SP over CJOIN packets** (§3.3): a new query identical to an in-flight
//!   one attaches to the host packet's output exchange instead of being
//!   admitted — skipping admission, bitmap extension, and all per-query
//!   bitwise work.
//!
//! The stage is an **always-on** operator (§2.4): queries come and go —
//! admission sets a bit, finalisation clears it — the pipeline does not.
//! With no active query the preprocessor parks (zero virtual cost) until
//! the next submission, and when the last query referencing any filter
//! finishes the filter list is emptied, so a stage nobody references is
//! indistinguishable from a freshly built one. The governed engine builds
//! one per fact table and keeps it until engine shutdown.

mod admission;
pub mod fabric;
pub mod filter;
pub mod health;
mod memo;
mod stage;
pub mod window;
pub mod wrap;

pub use fabric::{AdmissionFabric, FabricStats, UNIT_REDISPATCH_DEADLINE_NS};
pub use filter::{
    filter_page_scalar, filter_page_survivors, filter_page_vectorized, DimEntry, FilterCore,
    FilterCounters, FilterScratch, FilteredPage, Survivors,
};
pub use health::{AdmissionHealth, AdmissionHealthSnapshot, LadderRung};
pub use stage::{
    CjoinConfig, CjoinOutput, CjoinRuntimeStats, CjoinStage, CjoinStats, N_FILTER_WORKERS,
};
pub use wrap::WrapLedger;
