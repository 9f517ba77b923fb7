//! Bounded multi-producer / multi-consumer queue in virtual time.
//!
//! [`SimQueue`] is the workhorse channel of the engine: stage work queues,
//! push-based FIFO exchanges and the CJOIN pipeline are all built on it.
//! Capacity-bounded pushes model the paper's flow control ("a parent packet
//! may need to wait for incoming pages of a child and, conversely, a child
//! packet may wait for a parent packet to consume its pages").
//!
//! ## Protocol: wake one
//!
//! A stage parks a pool of workers on one queue, so an operation must not
//! wake them all for one item. The queue keeps its own waiters: the ids of
//! vthreads parked in `pop` on an empty queue and in `push` on a full one,
//! oldest first, **inside the state the queue's mutex guards**.
//!
//! * A blocking operation locks the state and tries to complete. If it
//!   cannot, it appends its id to the matching deque (unless already there),
//!   unlocks and parks; woken, it starts over. On *every* exit — item taken,
//!   item stored, queue closed — it removes its id under the same lock, so a
//!   listed id always belongs to a vthread that is inside the operation and
//!   will look at the state again, and a vthread cannot exit while listed.
//! * An operation that stores an item removes the oldest parked popper from
//!   its deque and wakes exactly that one; one that takes an item does the
//!   same for the oldest parked pusher. [`close`](SimQueue::close) empties
//!   both deques and wakes everyone.
//! * No wake-up is lost: registration and the state change are ordered by the
//!   queue mutex, and the wake-up itself goes through
//!   `MachineInner::notify_tids`, which under the scheduler lock either
//!   makes a parked waiter ready or leaves it a token that makes its next park
//!   return at once (the register → park race of `waitset.rs`).
//! * A woken waiter may find nothing to do — a `try_pop` or a later arrival
//!   got there first, or the token that ended its park was posted for an
//!   earlier wait of the same thread (tokens are per thread). It then parks
//!   again, at the back if it was removed, in place if it was not. While any
//!   waiter is listed, items in the queue never outnumber the removed waiters
//!   that have yet to look, so an item is never left beside a sleeper.
//!
//! Threads that are not vthreads of the queue's machine block on a real
//! condition variable ([`WaitSet`]'s external path); the state counts them so
//! that traffic between vthreads never touches it.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::machine::{Machine, MachineInner, Tid};
use crate::waitset::WaitSet;

/// Error returned when pushing to a closed queue; carries the item back.
#[derive(Debug, PartialEq, Eq)]
pub struct QueueClosed<T>(pub T);

struct QState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Vthreads parked in `pop` on an empty queue, oldest first.
    poppers: VecDeque<Tid>,
    /// Vthreads parked in `push` on a full queue, oldest first.
    pushers: VecDeque<Tid>,
    /// External threads blocked on `ext` in either direction.
    ext_waiting: usize,
}

/// Whom a completed operation must wake once the state lock is released
/// (by default nobody: the operation changed nothing others wait for).
#[derive(Default)]
struct Wake {
    tid: Option<Tid>,
    ext: bool,
}

impl<T> QState<T> {
    /// Store `item` if there is room; the oldest parked popper gets it.
    fn store(&mut self, item: T, cap: usize) -> Result<Wake, T> {
        if self.closed || self.items.len() >= cap {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(Wake {
            tid: self.poppers.pop_front(),
            ext: self.ext_waiting > 0,
        })
    }

    /// Take the front item; the oldest parked pusher gets the freed place.
    fn take(&mut self) -> Option<(T, Wake)> {
        let item = self.items.pop_front()?;
        let wake = Wake {
            tid: self.pushers.pop_front(),
            ext: self.ext_waiting > 0,
        };
        Some((item, wake))
    }
}

struct QShared<T> {
    machine: Arc<MachineInner>,
    state: Mutex<QState<T>>,
    /// Where external (non-vthread) callers block.
    ext: WaitSet,
    cap: usize,
}

impl<T> QShared<T> {
    /// Deliver a wake-up computed under the state lock; call without it.
    fn wake(&self, wake: Wake) {
        if let Some(tid) = wake.tid {
            self.machine.notify_tids(&[tid]);
        }
        if wake.ext {
            self.ext.notify_all();
        }
    }

    /// Run `attempt` under the state lock until it yields a result, parking
    /// the caller in between as a waiter of the deque `side` selects (the
    /// module docs give the protocol).
    fn block_on<R>(
        &self,
        side: fn(&mut QState<T>) -> &mut VecDeque<Tid>,
        mut attempt: impl FnMut(&mut QState<T>) -> Option<(R, Wake)>,
    ) -> R {
        let (result, wake) = match self.machine.current_tid() {
            Some(tid) => loop {
                let mut s = self.state.lock();
                let done = attempt(&mut s);
                let waiters = side(&mut s);
                let listed = waiters.iter().position(|&t| t == tid);
                match done {
                    Some(done) => {
                        if let Some(i) = listed {
                            waiters.remove(i);
                        }
                        break done;
                    }
                    None => {
                        if listed.is_none() {
                            waiters.push_back(tid);
                        }
                        drop(s);
                        self.machine.park_waiting(tid);
                    }
                }
            },
            None => {
                // Counted before the first look at the state, so whoever
                // changes the state after that look sees the count and
                // signals `ext`.
                self.state.lock().ext_waiting += 1;
                let done = self.ext.wait_for(|| attempt(&mut self.state.lock()));
                self.state.lock().ext_waiting -= 1;
                done
            }
        };
        self.wake(wake);
        result
    }
}

/// Bounded MPMC queue whose blocking operations suspend vthreads in virtual
/// time. Cheap to clone (all clones address the same queue).
pub struct SimQueue<T> {
    shared: Arc<QShared<T>>,
}

impl<T> Clone for SimQueue<T> {
    fn clone(&self) -> Self {
        SimQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for SimQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.state.lock();
        f.debug_struct("SimQueue")
            .field("len", &s.items.len())
            .field("cap", &self.shared.cap)
            .field("closed", &s.closed)
            .field("parked_poppers", &s.poppers.len())
            .field("parked_pushers", &s.pushers.len())
            .finish()
    }
}

impl<T: Send + 'static> SimQueue<T> {
    /// Create a queue with capacity `cap` (use [`SimQueue::unbounded`] for no
    /// limit). `cap` must be at least 1.
    pub fn bounded(machine: &Machine, cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be >= 1");
        SimQueue {
            shared: Arc::new(QShared {
                machine: Arc::clone(&machine.inner),
                state: Mutex::new(QState {
                    items: VecDeque::new(),
                    closed: false,
                    poppers: VecDeque::new(),
                    pushers: VecDeque::new(),
                    ext_waiting: 0,
                }),
                ext: WaitSet::new(machine),
                cap,
            }),
        }
    }

    /// Create a queue without a capacity bound.
    pub fn unbounded(machine: &Machine) -> Self {
        Self::bounded(machine, usize::MAX)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.shared.state.lock().items.len()
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.shared.state.lock().closed
    }

    /// Close the queue: pending and future `pop`s drain remaining items then
    /// return `None`; pending and future `push`es fail.
    pub fn close(&self) {
        let (tids, ext) = {
            let mut s = self.shared.state.lock();
            s.closed = true;
            let mut tids: Vec<Tid> = s.poppers.drain(..).collect();
            tids.extend(s.pushers.drain(..));
            (tids, s.ext_waiting > 0)
        };
        self.shared.machine.notify_tids(&tids);
        if ext {
            self.shared.ext.notify_all();
        }
    }

    /// Push, blocking in virtual time while the queue is full.
    pub fn push(&self, item: T) -> Result<(), QueueClosed<T>> {
        let mut item = Some(item);
        let cap = self.shared.cap;
        self.shared.block_on(
            |s| &mut s.pushers,
            |s| match s.store(item.take().expect("item consumed twice"), cap) {
                Ok(wake) => Some((Ok(()), wake)),
                Err(back) if s.closed => Some((Err(QueueClosed(back)), Wake::default())),
                Err(back) => {
                    item = Some(back);
                    None
                }
            },
        )
    }

    /// Push without blocking; returns the item back if the queue is full or
    /// closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let wake = self.shared.state.lock().store(item, self.shared.cap)?;
        self.shared.wake(wake);
        Ok(())
    }

    /// Pop, blocking in virtual time while the queue is empty. Returns `None`
    /// once the queue is closed and drained.
    pub fn pop(&self) -> Option<T> {
        self.shared.block_on(
            |s| &mut s.poppers,
            |s| match s.take() {
                Some((item, wake)) => Some((Some(item), wake)),
                None if s.closed => Some((None, Wake::default())),
                None => None,
            },
        )
    }

    /// Pop without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let (item, wake) = self.shared.state.lock().take()?;
        self.shared.wake(wake);
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostKind, Machine, MachineConfig};

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            cores: 2,
            ..Default::default()
        })
    }

    #[test]
    fn fifo_order_single_producer_consumer() {
        let m = machine();
        let q = SimQueue::bounded(&m, 4);
        let qp = q.clone();
        let p = m.spawn("prod", move |ctx| {
            for i in 0..100 {
                ctx.charge(CostKind::Misc, 10.0);
                qp.push(i).unwrap();
            }
            qp.close();
        });
        let qc = q.clone();
        let c = m.spawn("cons", move |ctx| {
            let mut seen = Vec::new();
            while let Some(x) = qc.pop() {
                ctx.charge(CostKind::Misc, 10.0);
                seen.push(x);
            }
            seen
        });
        p.join().unwrap();
        let seen = c.join().unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_capacity_blocks_producer() {
        let m = machine();
        let q = SimQueue::bounded(&m, 2);
        let qp = q.clone();
        let p = m.spawn("prod", move |_| {
            for i in 0..10 {
                qp.push(i).unwrap();
            }
            qp.close();
        });
        let qc = q.clone();
        let c = m.spawn("cons", move |ctx| {
            let mut n = 0;
            while let Some(_x) = qc.pop() {
                // Consumer is slower; producer must block at cap 2.
                ctx.charge(CostKind::Misc, 1000.0);
                n += 1;
            }
            n
        });
        p.join().unwrap();
        assert_eq!(c.join().unwrap(), 10);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let m = machine();
        let q: SimQueue<u32> = SimQueue::bounded(&m, 2);
        let qc = q.clone();
        let c = m.spawn("cons", move |_| qc.pop());
        let qx = q.clone();
        let closer = m.spawn("closer", move |ctx| {
            ctx.sleep(1e6);
            qx.close();
        });
        closer.join().unwrap();
        assert_eq!(c.join().unwrap(), None);
    }

    #[test]
    fn push_after_close_returns_item() {
        let m = machine();
        let q: SimQueue<u32> = SimQueue::bounded(&m, 2);
        q.close();
        let h = m.spawn("p", move |_| q.push(9));
        assert_eq!(h.join().unwrap(), Err(QueueClosed(9)));
    }

    #[test]
    fn close_drains_remaining_items() {
        let m = machine();
        let q = SimQueue::bounded(&m, 8);
        let qp = q.clone();
        m.spawn("p", move |_| {
            qp.push(1).unwrap();
            qp.push(2).unwrap();
            qp.close();
        })
        .join()
        .unwrap();
        let qc = q.clone();
        let c = m.spawn("c", move |_| {
            let a = qc.pop();
            let b = qc.pop();
            let end = qc.pop();
            (a, b, end)
        });
        assert_eq!(c.join().unwrap(), (Some(1), Some(2), None));
    }

    #[test]
    fn mpmc_delivers_every_item_once() {
        let m = machine();
        let q = SimQueue::bounded(&m, 16);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                m.spawn(&format!("p{p}"), move |ctx| {
                    for i in 0..50 {
                        ctx.charge(CostKind::Misc, 5.0);
                        q.push(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|c| {
                let q = q.clone();
                m.spawn(&format!("c{c}"), move |ctx| {
                    let mut got = Vec::new();
                    while let Some(x) = q.pop() {
                        ctx.charge(CostKind::Misc, 5.0);
                        got.push(x);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expect: Vec<i32> = (0..4)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    /// Lost wake-ups depend on the schedule: run a scenario often enough for
    /// the spawns from the test thread to meet the carrier at different
    /// points.
    const SCHEDULE_RUNS: usize = 200;

    fn wait_until(mut cond: impl FnMut() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn one_push_wakes_exactly_one_of_sixteen_parked_poppers() {
        let m = machine();
        let q: SimQueue<u32> = SimQueue::unbounded(&m);
        let poppers: Vec<_> = (0..16)
            .map(|i| {
                let q = q.clone();
                m.spawn(&format!("c{i}"), move |_| q.pop())
            })
            .collect();
        wait_until(|| m.handoff_counts().parks == 16);
        let parked = m.handoff_counts();
        assert_eq!(parked.spawns, 16);
        assert_eq!(parked.wakes, 0);

        q.push(7).unwrap();
        wait_until(|| poppers.iter().any(|h| h.is_finished()));
        wait_until(|| m.live_threads() == 15);
        let after = m.handoff_counts();
        assert_eq!(after.wakes - parked.wakes, 1, "one item, one wake-up");
        assert_eq!(after.parks, parked.parks, "nobody woke to find nothing");
        let still_parked = m
            .dump_threads()
            .iter()
            .filter(|(_, state)| *state == crate::ThreadState::Waiting)
            .count();
        assert_eq!(still_parked, 15);

        q.close();
        let got: Vec<Option<u32>> = poppers.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got.iter().filter(|x| **x == Some(7)).count(), 1);
        assert_eq!(got.iter().filter(|x| x.is_none()).count(), 15);
        assert_eq!(
            m.handoff_counts().wakes - parked.wakes,
            16,
            "close wakes the rest"
        );
    }

    #[test]
    fn mpmc_with_stealers_delivers_every_item_once() {
        for run in 0..SCHEDULE_RUNS {
            let m = machine();
            let q = SimQueue::bounded(&m, 3);
            let producers: Vec<_> = (0..3)
                .map(|p| {
                    let q = q.clone();
                    m.spawn(&format!("p{p}"), move |ctx| {
                        for i in 0..30 {
                            ctx.charge(CostKind::Misc, 5.0 + p as f64);
                            q.push(p * 1000 + i).unwrap();
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..4)
                .map(|c| {
                    let q = q.clone();
                    m.spawn(&format!("c{c}"), move |ctx| {
                        let mut got = Vec::new();
                        while let Some(x) = q.pop() {
                            ctx.charge(CostKind::Misc, 11.0);
                            got.push(x);
                        }
                        got
                    })
                })
                .collect();
            // Stealers never park on the queue: they take items from under
            // poppers that a push has already chosen and woken.
            let stealers: Vec<_> = (0..2)
                .map(|t| {
                    let q = q.clone();
                    m.spawn(&format!("t{t}"), move |ctx| {
                        let mut got = Vec::new();
                        loop {
                            let closed = q.is_closed();
                            match q.try_pop() {
                                Some(x) => got.push(x),
                                None if closed => break got,
                                None => {}
                            }
                            ctx.charge(CostKind::Misc, 7.0);
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            let mut all: Vec<i32> = consumers
                .into_iter()
                .chain(stealers)
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            let mut expect: Vec<i32> = (0..3)
                .flat_map(|p| (0..30).map(move |i| p * 1000 + i))
                .collect();
            expect.sort_unstable();
            assert_eq!(all, expect, "run {run}");
        }
    }

    #[test]
    fn parked_pushers_each_get_their_turn() {
        for run in 0..SCHEDULE_RUNS {
            let m = machine();
            let q = SimQueue::bounded(&m, 1);
            let pushers: Vec<_> = (0..8)
                .map(|p| {
                    let q = q.clone();
                    m.spawn(&format!("p{p}"), move |_| {
                        for i in 0..10 {
                            q.push(p * 100 + i).unwrap();
                        }
                    })
                })
                .collect();
            let qc = q.clone();
            let consumer = m.spawn("cons", move |ctx| {
                let mut got = Vec::new();
                while let Some(x) = qc.pop() {
                    // Slower than the pushers, so seven of them are parked
                    // on the full queue at any time.
                    ctx.charge(CostKind::Misc, 100.0);
                    got.push(x);
                }
                got
            });
            for p in pushers {
                p.join().unwrap();
            }
            q.close();
            let mut got = consumer.join().unwrap();
            got.sort_unstable();
            let mut expect: Vec<i32> = (0..8)
                .flat_map(|p| (0..10).map(move |i| p * 100 + i))
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "run {run}");
        }
    }

    #[test]
    fn close_mid_wait_strands_nobody() {
        for run in 0..SCHEDULE_RUNS {
            let m = machine();
            // Poppers parked on an empty queue.
            let empty: SimQueue<u32> = SimQueue::bounded(&m, 2);
            let poppers: Vec<_> = (0..4)
                .map(|i| {
                    let q = empty.clone();
                    m.spawn(&format!("c{i}"), move |_| q.pop())
                })
                .collect();
            // Pushers parked on a full one.
            let full: SimQueue<u32> = SimQueue::bounded(&m, 2);
            full.try_push(100).unwrap();
            full.try_push(101).unwrap();
            let pushers: Vec<_> = (0..4)
                .map(|i| {
                    let q = full.clone();
                    m.spawn(&format!("p{i}"), move |_| q.push(i))
                })
                .collect();
            let (e2, f2) = (empty.clone(), full.clone());
            m.spawn("closer", move |ctx| {
                ctx.sleep(1e3);
                e2.close();
                f2.close();
            })
            .join()
            .unwrap();
            for h in poppers {
                assert_eq!(h.join().unwrap(), None, "run {run}");
            }
            for (i, h) in pushers.into_iter().enumerate() {
                assert_eq!(h.join().unwrap(), Err(QueueClosed(i as u32)), "run {run}");
            }
            // What was queued before the close still drains.
            assert_eq!(full.try_pop(), Some(100));
            assert_eq!(full.try_pop(), Some(101));
            assert_eq!(full.try_pop(), None);
        }
    }

    #[test]
    fn external_threads_can_push_and_pop() {
        let m = machine();
        let requests = SimQueue::bounded(&m, 1);
        let replies = SimQueue::bounded(&m, 1);
        let (rq, rp) = (requests.clone(), replies.clone());
        let echo = m.spawn("echo", move |ctx| {
            let mut served = 0;
            while let Some(x) = rq.pop() {
                ctx.charge(CostKind::Misc, 1e3);
                rp.push(2 * x).unwrap();
                served += 1;
            }
            served
        });
        // This test thread is no vthread: its pops wait for the echo's
        // charge, its pushes for room in a queue of one.
        let feeder = {
            let requests = requests.clone();
            std::thread::spawn(move || {
                for i in 0..50u32 {
                    requests.push(i).unwrap();
                }
            })
        };
        for i in 0..50u32 {
            assert_eq!(replies.pop(), Some(2 * i));
        }
        feeder.join().unwrap();
        requests.close();
        assert_eq!(echo.join().unwrap(), 50);
        assert_eq!(replies.try_pop(), None);
    }

    #[test]
    fn try_ops_do_not_block() {
        let m = machine();
        let q = SimQueue::bounded(&m, 1);
        assert_eq!(q.try_pop(), None::<u32>);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Err(2));
        assert_eq!(q.try_pop(), Some(1));
        assert!(q.is_empty());
    }
}
