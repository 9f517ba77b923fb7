//! # workshare-common — shared data-plane types
//!
//! Types shared by every layer of the reproduction:
//!
//! * [`Value`] / [`Row`] — the runtime tuple representation.
//! * [`Schema`] / [`ColType`] — table layouts with fixed-width encoding.
//! * [`codec`] — row ⇄ bytes page codec (32 KB pages, as in the paper),
//!   and [`codec::PageRows`], which reads a page's columns in place.
//! * [`Tuples`] — a batch read column by column, decoded rows or a page in
//!   place; the batch predicate paths and the projection are written over it.
//! * [`Predicate`] — selection predicate AST with evaluation and structural
//!   hashing (the basis of SP's identical-sub-plan detection).
//! * [`StarQuery`] — the query spec every engine configuration consumes
//!   (SSB star queries and scan-aggregate queries like TPC-H Q1).
//! * [`QueryBitmap`] — the per-tuple query-membership bitmap that shared
//!   operators AND together (CJOIN's core mechanism).
//! * [`CostModel`] — calibrated virtual CPU cost constants.
//! * [`FaultPlan`] / [`FaultSite`] — the seeded fault-injection schedule
//!   every layer reads ([`fault`]).
//! * [`fxhash`] — a fast non-cryptographic hasher for hot join paths.
//! * [`sync`] — the swappable synchronization layer: `parking_lot`/`std`
//!   in production, the deterministic `loom` shim under `--cfg interleave`.
//! * [`cell`] — the write-once completion cell under every engine's result
//!   slot (model-checked through [`sync`]).

#![warn(missing_docs)]

pub mod agg;
pub mod bind;
pub mod bitmap;
pub mod cell;
pub mod codec;
pub mod costs;
pub mod fault;
pub mod fxhash;
pub mod plan;
pub mod predicate;
pub mod schema;
pub mod sync;
pub mod value;

pub use bitmap::{BitmapBank, QueryBitmap, RouteColumns, SelVec};
pub use costs::{CostModel, SharingSignals};
pub use fault::{FaultPlan, FaultSite};
pub use plan::{AggExpr, AggFn, AggSpec, ColRef, ColSource, DimJoin, OrderKey, StarQuery};
pub use predicate::{CmpOp, Predicate};
pub use schema::{ColType, Column, Schema};
pub use value::{Row, Tuples, Value};

/// Page size used throughout the system (the paper uses 32 KB pages for both
/// storage and exchange buffers).
pub const PAGE_SIZE: usize = 32 * 1024;
