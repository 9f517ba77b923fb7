//! The workspace's swappable synchronization layer.
//!
//! Production builds re-export `parking_lot` locks and `std` atomics —
//! exactly what the concurrent core (`engine.rs`, `stage.rs`, `fabric.rs`
//! and the protocol modules extracted from them) used before this layer
//! existed, so the production binary is unchanged. Compiling with
//! `RUSTFLAGS="--cfg interleave"` swaps every primitive for the
//! deterministic-model shim (`loom`), under which `tests/interleave_core.rs`
//! explores bounded-exhaustive thread interleavings of the load-bearing
//! protocols. See `docs/TESTING.md`.
//!
//! Only code that is meant to be model-checked should import from here;
//! everything else keeps using `parking_lot` / `std::sync` directly.
//! (Conversely, model-checked protocols — e.g. the lock-free wrap ledger
//! and sharded pending sets in `workshare_cjoin` — must take *every*
//! primitive from this layer: a std atomic mixed into a shimmed protocol is
//! invisible to the checker's happens-before tracking and silently weakens
//! the model.)

#[cfg(not(interleave))]
pub use parking_lot::{Mutex, MutexGuard};

#[cfg(not(interleave))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(interleave)]
pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(interleave)]
pub use loom::sync::{Mutex, MutexGuard};

pub use std::sync::Arc;
