//! # workshare-core — public facade
//!
//! Ties the substrates together into the paper's five engine configurations
//! plus the Postgres-substitute baseline (§5.1):
//!
//! | Config      | Scans            | Joins                     | SP |
//! |-------------|------------------|---------------------------|----|
//! | `QPipe`     | independent      | query-centric             | —  |
//! | `QPipe-CS`  | circular (shared)| query-centric             | scans only |
//! | `QPipe-SP`  | circular         | query-centric             | scans + joins |
//! | `CJOIN`     | circular fact    | GQP shared hash-joins     | —  |
//! | `CJOIN-SP`  | circular fact    | GQP shared hash-joins     | CJOIN packets |
//! | `Volcano`   | independent      | query-centric, 1 thread   | —  |
//!
//! On top of the static configurations sits the **sharing governor**
//! ([`governor`]): with [`RunConfig::policy`] set to
//! [`ExecPolicy::Adaptive`], the engine builds *both* paths and routes each
//! submission between a private query-centric plan and the shared plan from
//! cost-model estimates parameterized by live signals (in-flight queries,
//! observed admission selectivity, filter key-run length), with hysteresis
//! so routes don't flap at the crossover. [`ExecPolicy::QueryCentric`] and
//! [`ExecPolicy::Shared`] pin the governed engine to one path (the bench
//! baselines).
//!
//! Entry points:
//!
//! * [`Dataset`] — generate SSB / TPC-H data once, instantiate per run.
//! * [`RunConfig`] / [`NamedConfig`] — select engine, cores, I/O mode.
//! * [`ExecPolicy`] / [`SharingGovernor`] — adaptive routing between
//!   query-centric and shared execution.
//! * [`Engine`] — submit [`StarQuery`]s, receive [`Ticket`]s.
//! * [`harness`] — batch & closed-loop client runs with paper-style reports.
//! * [`workload`] — SSB Q1.1 / Q2.1 / Q3.2 and TPC-H Q1 templates with
//!   similarity control.

pub mod config;
pub mod dataset;
pub mod engine;
pub mod governor;
pub mod harness;
pub mod health;
pub mod slots;
pub mod ticket;
pub mod volcano;
pub mod workload;

pub use config::{ExecPolicy, FaultPlan, NamedConfig, RunConfig, ServiceConfig};
pub use dataset::Dataset;
pub use engine::{Engine, Outcome, ShedReason, StageRow};
pub use governor::{GovernorConfig, GovernorStats, Route, SharingGovernor, SloDecision};
pub use harness::{
    run_batch, run_service, run_staggered, RunReport, ServiceLoad, TenantCounts,
    ThroughputReport,
};
pub use health::HealthStats;
pub use ticket::Ticket;

pub use workshare_cjoin::{AdmissionHealthSnapshot, FabricStats, LadderRung};
pub use workshare_common::{CostModel, StarQuery};
pub use workshare_qpipe::ExchangeKind;
pub use workshare_storage::{IoMode, StorageError, StorageFaultStats};
