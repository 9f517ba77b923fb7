//! # workshare-qpipe — staged execution engine with Simultaneous Pipelining
//!
//! A QPipe-style engine (paper §2.3): each relational operator is a *stage*;
//! a query plan becomes a tree of *packets* connected by page-based
//! exchanges; stages detect identical in-flight sub-plans and let a new
//! (*satellite*) packet reuse the results of an in-progress (*host*) packet.
//!
//! The two exchange implementations are the paper's §4 protagonists:
//!
//! * [`exchange::FifoExchange`] — **push-based**: the producer copies every
//!   page into each satellite's FIFO (charging real copy cost), which is the
//!   serialization point of the original QPipe design.
//! * [`exchange::SplExchange`] — **pull-based Shared Pages List**: a bounded
//!   single-producer/multi-consumer list of pages; consumers read
//!   independently, the producer never forwards. Implements the full §4.1 /
//!   §4.2 protocol: per-consumer points of entry, page reference counts,
//!   finishing-packet bookkeeping for linear WoPs, max-size back-pressure.
//!
//! Sharing windows ([`wop`]) follow Figure 2b: *step* (joins, aggregates —
//! reuse only before the first output) and *linear* (scans — reuse from
//! arrival, realized as circular scans in [`scan`]).

pub mod batch;
pub mod engine;
pub mod exchange;
pub mod ops;
pub mod registry;
pub mod scan;
pub mod wop;

pub use batch::TupleBatch;
pub use engine::{
    CompletionGuard, QpipeConfig, QpipeEngine, QpipeStream, SharingStats, SlotResult,
};
pub use exchange::{Exchange, ExchangeKind, ExchangeReader};
pub use wop::Wop;
