//! Virtual-time condition waiting.
//!
//! A [`WaitSet`] is the machine's blocking primitive for **predicate**
//! waits: vthreads wait until a caller-supplied predicate holds; any state
//! change that could make a predicate true is announced with
//! [`WaitSet::notify_all`]. It wakes everyone registered, which is the right
//! cost where at most one thread waits — a join, a result slot, a stage's
//! wake-up flag. Where a pool of workers waits for items, use
//! [`SimQueue`](crate::SimQueue), which keeps its own waiters and wakes one.
//!
//! ## Protocol (vthreads)
//!
//! 1. Check the predicate; if satisfied, return.
//! 2. Register the thread id in the wait list.
//! 3. Re-check the predicate (a notifier that ran between 1 and 2 saw no
//!    registration); if satisfied, return — the stale registration at worst
//!    earns a harmless pre-posted token later.
//! 4. Park. `notify_all` drains the list under the scheduler lock: threads in
//!    `Waiting` state are woken; threads still running get a *token* that
//!    makes their next park return immediately, closing the register→park
//!    race. Then start over at 1.
//!
//! ## Token tolerance
//!
//! The token is a flag of the *thread*, not of the wait set it was posted
//! through, and thread ids are reused once a vthread exits. A park can
//! therefore end for a reason that has nothing to do with the wait at hand:
//! a token earned by a stale registration from step 3, possibly one the
//! slot's previous owner left behind. That is why step 4 loops, why the queue
//! does the same, and why nothing in this crate may treat "woken" as "my
//! condition holds".
//!
//! External (non-vthread) callers fall back to a real condition variable with
//! a generation counter, so harness code can block on simulation progress.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::machine::{Machine, MachineInner, Tid};

struct WaitSetShared {
    machine: Arc<MachineInner>,
    list: Mutex<Vec<Tid>>,
    ext_gen: Mutex<u64>,
    ext_cv: Condvar,
}

/// A shareable virtual-time condition variable. Cheap to clone.
#[derive(Clone)]
pub struct WaitSet {
    shared: Arc<WaitSetShared>,
}

impl std::fmt::Debug for WaitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitSet")
            .field("waiters", &self.shared.list.lock().len())
            .finish()
    }
}

impl WaitSet {
    /// Create a wait set bound to `machine`.
    pub fn new(machine: &Machine) -> WaitSet {
        WaitSet {
            shared: Arc::new(WaitSetShared {
                machine: Arc::clone(&machine.inner),
                list: Mutex::new(Vec::new()),
                ext_gen: Mutex::new(0),
                ext_cv: Condvar::new(),
            }),
        }
    }

    /// Wake all waiters (and pre-post tokens for registrants that have not
    /// parked yet). Call after any state change a predicate may observe.
    pub fn notify_all(&self) {
        {
            let mut g = self.shared.ext_gen.lock();
            *g = g.wrapping_add(1);
            self.shared.ext_cv.notify_all();
        }
        let tids: Vec<Tid> = {
            let mut l = self.shared.list.lock();
            std::mem::take(&mut *l)
        };
        self.shared.machine.notify_tids(&tids);
    }

    /// Block until `f` returns `Some`, re-evaluating after every
    /// notification; returns the produced value.
    pub fn wait_for<T>(&self, mut f: impl FnMut() -> Option<T>) -> T {
        // Fast path.
        if let Some(v) = f() {
            return v;
        }
        match self.shared.machine.current_tid() {
            Some(tid) => loop {
                if let Some(v) = f() {
                    return v;
                }
                self.shared.list.lock().push(tid);
                if let Some(v) = f() {
                    return v;
                }
                self.shared.machine.park_waiting(tid);
            },
            None => loop {
                let gen = *self.shared.ext_gen.lock();
                if let Some(v) = f() {
                    return v;
                }
                let mut g = self.shared.ext_gen.lock();
                while *g == gen {
                    self.shared.ext_cv.wait(&mut g);
                }
            },
        }
    }

    /// Block until `pred` returns true.
    pub fn wait_until(&self, mut pred: impl FnMut() -> bool) {
        self.wait_for(|| if pred() { Some(()) } else { None });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostKind, Machine, MachineConfig};
    use parking_lot::Mutex as PMutex;
    use std::sync::Arc;

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            cores: 2,
            ..Default::default()
        })
    }

    #[test]
    fn pingpong_between_vthreads() {
        let m = machine();
        let state = Arc::new(PMutex::new(0u32));
        let ws = WaitSet::new(&m);

        let s1 = Arc::clone(&state);
        let w1 = ws.clone();
        let a = m.spawn("a", move |ctx| {
            for _ in 0..100 {
                w1.wait_until(|| s1.lock().is_multiple_of(2));
                ctx.charge(CostKind::Misc, 100.0);
                *s1.lock() += 1;
                w1.notify_all();
            }
        });
        let s2 = Arc::clone(&state);
        let w2 = ws.clone();
        let b = m.spawn("b", move |ctx| {
            for _ in 0..100 {
                w2.wait_until(|| *s2.lock() % 2 == 1);
                ctx.charge(CostKind::Misc, 100.0);
                *s2.lock() += 1;
                w2.notify_all();
            }
        });
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(*state.lock(), 200);
    }

    #[test]
    fn external_thread_can_wait_on_vthread_progress() {
        let m = machine();
        let flag = Arc::new(PMutex::new(false));
        let ws = WaitSet::new(&m);
        let f2 = Arc::clone(&flag);
        let w2 = ws.clone();
        let _h = m.spawn("setter", move |ctx| {
            ctx.charge(CostKind::Misc, 1e6);
            *f2.lock() = true;
            w2.notify_all();
        });
        // Called from the (external) test thread.
        ws.wait_until(|| *flag.lock());
        assert!(*flag.lock());
    }

    #[test]
    fn vthread_waits_for_external_notify() {
        let m = machine();
        let flag = Arc::new(PMutex::new(false));
        let ws = WaitSet::new(&m);
        let f2 = Arc::clone(&flag);
        let w2 = ws.clone();
        let h = m.spawn("waiter", move |_| {
            w2.wait_until(|| *f2.lock());
            123
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        *flag.lock() = true;
        ws.notify_all();
        assert_eq!(h.join().unwrap(), 123);
    }

    #[test]
    fn wait_for_returns_value() {
        let m = machine();
        let ws = WaitSet::new(&m);
        let v = ws.wait_for(|| Some(5));
        assert_eq!(v, 5);
    }

    #[test]
    fn many_waiters_all_wake() {
        let m = machine();
        let flag = Arc::new(PMutex::new(false));
        let ws = WaitSet::new(&m);
        let hs: Vec<_> = (0..32)
            .map(|i| {
                let f = Arc::clone(&flag);
                let w = ws.clone();
                m.spawn(&format!("w{i}"), move |_| w.wait_until(|| *f.lock()))
            })
            .collect();
        let f = Arc::clone(&flag);
        let w = ws.clone();
        let setter = m.spawn("setter", move |ctx| {
            ctx.sleep(1e6);
            *f.lock() = true;
            w.notify_all();
        });
        setter.join().unwrap();
        for h in hs {
            h.join().unwrap();
        }
    }
}
