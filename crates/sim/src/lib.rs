//! # workshare-sim — virtual-time multicore machine
//!
//! The paper's evaluation ran on a 24-core Sun Fire X4470. This reproduction
//! targets containers with as little as **one** physical core, so wall-clock
//! timing cannot exhibit the multi-core contention/parallelism trade-offs the
//! paper measures. Instead, the execution engine runs on a *virtual-time*
//! machine:
//!
//! * Engine threads are real OS threads (*vthreads*) that perform their data
//!   work (hash joins, predicate evaluation, page copies) **for real**, and
//!   account for it by *charging* calibrated virtual CPU cost
//!   ([`SimCtx::charge`]).
//! * A **processor-sharing scheduler** advances a virtual clock: when `J`
//!   vthreads have outstanding CPU demand on a machine with `C` cores, each
//!   progresses at rate `min(1, C/J)`. This is the classic fluid approximation
//!   of an OS time-slicing scheduler and reproduces CPU saturation, the
//!   push-based-SP serialization point, and shared-operator amortization.
//! * Blocking coordination (bounded queues, condition waits, joins) goes
//!   through simulated primitives ([`WaitSet`], [`SimQueue`]) so that waiting
//!   threads do not consume virtual cores.
//! * A **simulated disk** ([`disk`]) models sequential bandwidth, per-request
//!   overhead and stream-switch seek penalties, driving the paper's
//!   memory-resident vs disk-resident vs direct-I/O comparisons.
//!
//! Virtual time only advances when every live vthread is parked (charging,
//! sleeping, doing I/O, or blocked on a [`WaitSet`] or [`SimQueue`]); the
//! last thread to park drives the event loop. All per-category CPU charges
//! are accumulated in [`CpuBreakdown`], which is also the source for the
//! paper's Figure 11/12 CPU-time breakdowns.
//!
//! ## Blocking protocol
//!
//! Two primitives block a vthread outside the scheduler's own events, and
//! they share one mechanism: a waiter lists its thread id where the notifier
//! will find it, then parks; the notifier hands the ids to the scheduler,
//! which unparks those that are parked and leaves the others a *token* that
//! makes their next park return at once. The token belongs to the thread,
//! not to what it waits on, and ids are reused after a vthread exits — so a
//! park may end early, and every wait loops on its condition.
//!
//! * [`WaitSet`] — predicate waits. The list is the wait set's;
//!   `notify_all` wakes everyone on it. Right where at most one thread waits.
//! * [`SimQueue`] — item waits. The lists (parked poppers, parked pushers)
//!   live under the queue's own mutex; an operation wakes the one oldest
//!   waiter it made progress possible for, `close` wakes all.
//!
//! What each handoff costs the host, and how [`SimCtx::charge_many`] avoids
//! some without moving the virtual clock, is in the `machine` module docs;
//! [`Machine::handoff_counts`] counts them.
//!
//! ```
//! use workshare_sim::{Machine, MachineConfig, CostKind};
//!
//! let m = Machine::new(MachineConfig { cores: 4, ..Default::default() });
//! let h = m.spawn("worker", |ctx| {
//!     ctx.charge(CostKind::Misc, 1_000_000.0); // 1 virtual millisecond
//!     42
//! });
//! assert_eq!(h.join().unwrap(), 42);
//! assert!((m.now_secs() - 0.001).abs() < 1e-9);
//! ```

pub mod disk;
mod machine;
mod queue;
mod stats;
mod waitset;

pub use disk::{DiskConfig, DiskStats};
pub use machine::{HandoffCounts, JoinHandle, Machine, MachineConfig, SimCtx, ThreadState};
pub use queue::{QueueClosed, SimQueue};
pub use stats::{CostKind, CpuBreakdown, LatencyHistogram, COST_KINDS};
pub use waitset::WaitSet;
