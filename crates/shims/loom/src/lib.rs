//! Offline shim of [loom](https://github.com/tokio-rs/loom): a deterministic
//! concurrency checker for the API subset this workspace needs.
//!
//! [`model`] runs a closure under *every* (bounded) thread interleaving: the
//! threads it spawns through [`thread::spawn`] are real OS threads, but a
//! scheduler baton serializes them so exactly one runs at a time, and every
//! operation on the [`sync`] primitives is a schedule point where the
//! explorer may switch threads. Schedules are enumerated by DFS over the
//! recorded choice path; [`Builder::preemption_bound`] restricts the search
//! to schedules with at most N preemptions (exponentially smaller, and in
//! practice where the bugs are), and [`Builder::max_schedules`] caps the
//! total. Happens-before is tracked with vector clocks (`Synchronize` /
//! `VersionVec`, after upstream loom), so relaxed atomics really do expose
//! stale values: a load may observe any store not superseded by one the
//! loading thread has synchronized with, and the explorer branches on the
//! choice.
//!
//! Divergences from upstream loom, deliberate for this workspace:
//!
//! - [`model`] returns a [`Report`] with the explored-schedule count, so
//!   tests can assert coverage (`report.schedules >= 1000`).
//! - `sync::Mutex` mirrors the `parking_lot` API (guard from `lock()`
//!   directly, no poisoning) — that is what production code here is written
//!   against. There is no reader-writer lock: nothing model-checked takes
//!   one.
//! - Outside a model run every primitive degrades to its `std::sync`
//!   behavior, so a whole binary can be compiled against the shim (via
//!   `workshare_common::sync`) and still run normally; only code inside
//!   `model` closures is explored.
//! - SeqCst is approximated: SeqCst loads observe the newest store in
//!   modification order (plus the global SeqCst clock join). This is sound
//!   for the flag/counter protocols checked here but does not model every
//!   exotic SC fence idiom.

mod rt;

pub mod sync;
pub mod thread;

pub use rt::{Builder, Report};

/// Check `f` under every (bounded) interleaving with the default
/// [`Builder`]; panics on the first failing schedule.
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::default().check(f)
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use super::sync::{Arc, Mutex};
    use super::*;

    fn catches<F: Fn() + Send + Sync + 'static>(f: F) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model(f))).is_err()
    }

    #[test]
    fn counts_two_thread_schedules_exhaustively() {
        // Two threads with two schedule-visible ops each (increment = one
        // RMW, join adds sync points): the space is small and must be
        // explored completely.
        let report = model(|| {
            let a = Arc::new(AtomicU64::new(0));
            let t = {
                let a = Arc::clone(&a);
                thread::spawn(move || {
                    a.fetch_add(1, Ordering::AcqRel);
                })
            };
            a.fetch_add(1, Ordering::AcqRel);
            t.join().unwrap();
            assert_eq!(a.load(Ordering::Acquire), 2);
        });
        assert!(report.complete, "tiny space must be exhausted");
        assert!(report.schedules >= 2, "got {}", report.schedules);
    }

    #[test]
    fn mutex_protects_a_plain_counter() {
        let report = model(|| {
            let c = Arc::new(Mutex::new(0u64));
            let ts: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    thread::spawn(move || {
                        let mut g = c.lock();
                        *g += 1;
                    })
                })
                .collect();
            for t in ts {
                t.join().unwrap();
            }
            assert_eq!(*c.lock(), 2);
        });
        assert!(report.complete);
    }

    #[test]
    fn catches_unsynchronized_counter_race() {
        // Classic lost update: load + store instead of an RMW. The checker
        // must find the interleaving where both threads read 0.
        assert!(catches(|| {
            let c = Arc::new(AtomicU64::new(0));
            let ts: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    thread::spawn(move || {
                        let v = c.load(Ordering::Acquire);
                        c.store(v + 1, Ordering::Release);
                    })
                })
                .collect();
            for t in ts {
                t.join().unwrap();
            }
            assert_eq!(c.load(Ordering::Acquire), 2, "lost update");
        }));
    }

    #[test]
    fn catches_relaxed_message_passing() {
        // data is published Relaxed: the flag read may observe the flag
        // store without the data store — the checker must branch into the
        // stale-read schedule and fail the assert.
        assert!(catches(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicBool::new(false));
            let t = {
                let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
                thread::spawn(move || {
                    data.store(42, Ordering::Relaxed);
                    flag.store(true, Ordering::Relaxed);
                })
            };
            if flag.load(Ordering::Relaxed) {
                assert_eq!(data.load(Ordering::Relaxed), 42, "saw flag without data");
            }
            t.join().unwrap();
        }));
    }

    #[test]
    fn release_acquire_message_passing_holds() {
        // Same shape with Release/Acquire: must pass under every schedule.
        let report = model(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicBool::new(false));
            let t = {
                let (data, flag) = (Arc::clone(&data), Arc::clone(&flag));
                thread::spawn(move || {
                    data.store(42, Ordering::Relaxed);
                    flag.store(true, Ordering::Release);
                })
            };
            if flag.load(Ordering::Acquire) {
                assert_eq!(data.load(Ordering::Relaxed), 42);
            }
            t.join().unwrap();
        });
        assert!(report.complete);
    }

    #[test]
    fn detects_deadlock() {
        assert!(catches(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let t = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    let _ga = a.lock();
                    let _gb = b.lock();
                })
            };
            let _gb = b.lock();
            let _ga = a.lock();
            drop((_gb, _ga));
            t.join().unwrap();
        }));
    }

    #[test]
    fn preemption_bound_caps_the_search() {
        let mut bounded = Builder::new();
        bounded.preemption_bound = Some(1);
        let count = |b: &Builder| {
            b.check(|| {
                let a = Arc::new(AtomicU64::new(0));
                let t = {
                    let a = Arc::clone(&a);
                    thread::spawn(move || {
                        for _ in 0..3 {
                            a.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                };
                for _ in 0..3 {
                    a.fetch_add(1, Ordering::Relaxed);
                }
                t.join().unwrap();
            })
            .schedules
        };
        let full = count(&Builder::new());
        let capped = count(&bounded);
        assert!(
            capped < full,
            "preemption bound must shrink the space ({capped} vs {full})"
        );
    }

    #[test]
    fn cas_rollback_pair_is_exact_under_contention() {
        // The engine's claim/rollback shape: claim a global slot, try the
        // tenant slot, roll back on failure. Under every schedule of three
        // claimants with cap 2 the counter must end balanced.
        let mut b = Builder::new();
        b.max_schedules = 10_000;
        let report = b.check(|| {
            let outstanding = Arc::new(AtomicU64::new(0));
            let ts: Vec<_> = (0..3)
                .map(|_| {
                    let o = Arc::clone(&outstanding);
                    thread::spawn(move || {
                        let claimed = o
                            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                                (v < 2).then_some(v + 1)
                            })
                            .is_ok();
                        if claimed {
                            o.fetch_sub(1, Ordering::AcqRel);
                        }
                        claimed
                    })
                })
                .collect();
            let mut claims = 0;
            for t in ts {
                claims += t.join().unwrap() as u64;
            }
            assert!(claims >= 2, "cap 2 admits at least two of three");
            assert_eq!(outstanding.load(Ordering::Acquire), 0);
        });
        assert!(report.schedules >= 10);
    }

    #[test]
    fn fallback_outside_model_behaves_like_std() {
        // No model active: primitives must work as real ones across real
        // threads.
        let c = Arc::new(AtomicU64::new(0));
        let m = Arc::new(Mutex::new(Vec::new()));
        let ts: Vec<_> = (0..4)
            .map(|i| {
                let (c, m) = (Arc::clone(&c), Arc::clone(&m));
                thread::spawn(move || {
                    c.fetch_add(i, Ordering::AcqRel);
                    m.lock().push(i);
                })
            })
            .collect();
        for t in ts {
            t.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Acquire), 6);
        let mut v = m.lock().clone();
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }
}
