//! The virtual-time machine: processor-sharing CPU scheduler and vthreads.
//!
//! ## Execution model
//!
//! Every vthread is a stackful coroutine (`coro.rs`), and all vthreads of a
//! machine run on one OS thread, its *carrier*, **one at a time**. Virtual
//! time is **frozen while a vthread executes user code** and advances only
//! when every one is parked (charging CPU cost, sleeping, waiting for disk
//! I/O, or blocked on a [`WaitSet`](crate::WaitSet) or a
//! [`SimQueue`](crate::SimQueue)). The last vthread to park *drives* the
//! event loop: it advances the clock to the next completion, makes the
//! affected vthreads ready, and repeats until one is.
//!
//! The carrier is started by a spawn that finds none and exits when the last
//! live vthread has; the next spawn starts another. It pops the next ready
//! vthread, resumes it, and when that one parks or exits takes the next.
//! With nothing ready and nothing pending in virtual time (every live
//! vthread waits for input from outside the machine) it sleeps on a condition
//! variable until a thread that is no vthread of the machine spawns,
//! notifies, pushes or closes.
//!
//! **Ready order.** Vthreads run in the order they were made ready: FIFO in
//! wake order, and events due at one virtual instant wake in the order of
//! the scheduler's heaps (finish credit or due time, then thread id). Given
//! the same spawns and the same input from outside, a machine therefore
//! runs the same schedule every time — one seed, one schedule.
//!
//! **The blocking rule.** Because one carrier runs them all, a vthread must
//! never block on an OS primitive (a lock held across a park, a channel, a
//! condition variable, a spin) that only another vthread of the *same*
//! machine can release: that vthread cannot run while the carrier is
//! blocked, so the machine deadlocks. Short critical sections are fine — no
//! other vthread of the machine can hold the lock meanwhile — and so is
//! blocking on a thread outside the machine: the harness, or a vthread of
//! another machine, which has its own carrier (its join from here is a real
//! wait, as for any outside thread). The rule held before too: a lock held
//! across a park deadlocked the OS-thread scheduler, whose blocked thread
//! counted as running and froze the clock.
//!
//! Threads that are not vthreads (tests, the ledger's load thread,
//! `Ticket::wait`) never run vthread code: they block on real condition
//! variables inside [`WaitSet`](crate::WaitSet),
//! [`SimQueue`](crate::SimQueue) and [`JoinHandle::join`].
//!
//! ## Processor sharing
//!
//! Outstanding CPU charges are served processor-sharing style: with `J` jobs
//! and `C` cores every job progresses at rate `min(1, C/J)`. Because all jobs
//! share one rate, each job can be keyed by the cumulative per-job *service
//! credit* at which it completes; a binary heap over finish credits yields
//! O(log n) scheduling. This fluid model reproduces the contention phenomena
//! the paper measures (saturation beyond `C` runnable workers) without
//! simulating individual time slices.
//!
//! ## Handoffs
//!
//! A park is a switch from the vthread's stack to its carrier's, a wake-up a
//! push onto the ready queue: no futex, no OS context switch. What is left
//! costs a scheduler-lock pass and two stack switches, and three things
//! keep the count down; [`Machine::handoff_counts`] reports it.
//!
//! * **One job per burst of work.** [`SimCtx::charge_many`] enters several
//!   kinds of CPU work as one processor-sharing job. It returns at the
//!   virtual instant the separate charges would have: a vthread that charges
//!   again the moment a charge completes never leaves the job set in between
//!   (no virtual time passes while it runs), so `J`, and with it everyone's
//!   rate, is the same at every instant either way.
//! * **No switch to resume oneself.** A vthread whose park drove the clock
//!   and made itself the first ready vthread goes on without leaving its
//!   stack: the carrier would have resumed it next anyway, so the order is
//!   the same.
//! * **Wake one.** Blocking queues keep their own waiters and wake exactly
//!   the vthread an item is for (`queue.rs`).
//!
//! ## Thread slots
//!
//! A vthread's scheduler state lives in a slot indexed by its id. When it
//! exits the slot goes onto a free list and the next spawn takes it over, so
//! the table is as large as the peak number of concurrent vthreads, not the
//! number ever spawned (a lone closed-loop client spawns two dozen per query).
//! An id can therefore outlive its thread inside a [`WaitSet`](crate::WaitSet)
//! list; notifying it gives the slot's new owner a token or a wake-up it did
//! not ask for, which every wait tolerates by re-checking its condition.
//! Queue waiter lists never hold a dead id: a waiter removes itself before it
//! leaves the operation.

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::coro::{self, Body};
use crate::disk::{DiskConfig, DiskCounters, DiskState, DiskStats, StreamId};
use crate::stats::{CostKind, CpuBreakdown, CpuCounters};
use crate::waitset::WaitSet;

/// Index of a vthread within its machine.
pub(crate) type Tid = usize;

/// Completion-credit epsilon (virtual nanoseconds). Charges are page-granular
/// (microseconds), so treating sub-nanosecond residues as complete is safe
/// and avoids float-precision micro-stepping.
const EPS_NS: f64 = 1.0;

/// Static machine parameters.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Number of virtual CPU cores (the paper's server has 24).
    pub cores: u32,
    /// Simulated disk parameters.
    pub disk: DiskConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 24,
            disk: DiskConfig::default(),
        }
    }
}

/// Lifecycle state of a vthread (exposed for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Executing user code, or ready to; virtual time is frozen.
    Running,
    /// Parked with an outstanding CPU charge.
    Charging,
    /// Parked on a timer.
    Sleeping,
    /// Parked on a disk request.
    Io,
    /// Parked on a [`WaitSet`](crate::WaitSet).
    Waiting,
    /// Finished.
    Exited,
}

struct ThreadSlot {
    name: String,
    state: ThreadState,
    /// Pre-posted wake-up for the thread's next [`MachineInner::park_waiting`]
    /// (see `waitset.rs` for the protocol). Per thread, not per wait set.
    ws_token: bool,
    /// The vthread's body until the carrier first resumes it.
    start: Option<Body>,
}

/// Whether the machine has a carrier thread, and whether it is blocked on
/// [`MachineInner::input`] waiting for a thread that is no vthread to give
/// it something to run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CarrierState {
    Absent,
    Busy,
    Idle,
}

/// CPU job keyed by the service credit at which it completes.
struct CpuJob {
    finish_credit: f64,
    tid: Tid,
}

impl PartialEq for CpuJob {
    fn eq(&self, other: &Self) -> bool {
        self.finish_credit == other.finish_credit && self.tid == other.tid
    }
}
impl Eq for CpuJob {}
impl PartialOrd for CpuJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CpuJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish_credit
            .total_cmp(&other.finish_credit)
            .then(self.tid.cmp(&other.tid))
    }
}

/// Timer (or disk-completion) event.
struct Timer {
    at: f64,
    tid: Tid,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tid == other.tid
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.total_cmp(&other.at).then(self.tid.cmp(&other.tid))
    }
}

struct Sched {
    now_ns: f64,
    /// Cumulative per-job processor-sharing service credit.
    credit: f64,
    cpu_jobs: BinaryHeap<Reverse<CpuJob>>,
    timers: BinaryHeap<Reverse<Timer>>,
    disk_done: BinaryHeap<Reverse<Timer>>,
    disk: DiskState,
    /// One slot per vthread, indexed by [`Tid`]; slots of exited vthreads
    /// are listed in `free` and reused by later spawns.
    threads: Vec<ThreadSlot>,
    free: Vec<Tid>,
    /// Vthreads ready to run, in the order the carrier resumes them.
    ready: VecDeque<Tid>,
    /// Vthreads ready or running: `ready.len()`, plus one while a vthread
    /// executes user code.
    running_real: usize,
    /// Vthreads not yet exited.
    live: usize,
    /// ∫ min(runnable CPU jobs, cores) dt — total core-busy virtual ns.
    busy_core_ns: f64,
    carrier: CarrierState,
}

/// Simulator handoffs since the machine was created
/// ([`Machine::handoff_counts`]): the host-side work the virtual clock never
/// sees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandoffCounts {
    /// CPU jobs entered into the processor-sharing scheduler (one per
    /// [`SimCtx::charge`] or [`SimCtx::charge_many`] with a positive total).
    pub charges: u64,
    /// Times a vthread blocked on a [`WaitSet`] or a
    /// [`SimQueue`](crate::SimQueue) (a wait that found a pre-posted token
    /// and returned at once is not counted).
    pub parks: u64,
    /// Vthreads made ready to run again, for any reason: a finished charge,
    /// timer or disk request, or a notification.
    pub wakes: u64,
    /// Vthreads spawned.
    pub spawns: u64,
}

#[derive(Default)]
struct HandoffCounters {
    charges: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
    spawns: AtomicU64,
}

pub(crate) struct MachineInner {
    cores: u32,
    sched: Mutex<Sched>,
    /// Where an idle carrier waits for a spawn or a wake-up from a thread
    /// that is no vthread of this machine.
    input: Condvar,
    pub(crate) cpu: CpuCounters,
    pub(crate) io: DiskCounters,
    handoffs: HandoffCounters,
}

impl MachineInner {
    /// Advance virtual time while no vthread runs user code.
    /// Must be called with the scheduler lock held.
    fn drive(&self, s: &mut Sched) {
        while s.running_real == 0 {
            let jobs = s.cpu_jobs.len();
            let rate = if jobs == 0 {
                1.0
            } else {
                (self.cores as f64 / jobs as f64).min(1.0)
            };
            let mut next: Option<f64> = None;
            if let Some(Reverse(j)) = s.cpu_jobs.peek() {
                let dt = ((j.finish_credit - s.credit).max(0.0)) / rate;
                next = Some(s.now_ns + dt);
            }
            if let Some(Reverse(t)) = s.timers.peek() {
                next = Some(next.map_or(t.at, |n| n.min(t.at)));
            }
            if let Some(Reverse(t)) = s.disk_done.peek() {
                next = Some(next.map_or(t.at, |n| n.min(t.at)));
            }
            let Some(target) = next else {
                // Nothing pending: either the machine is idle or all live
                // threads wait on WaitSets for external input.
                return;
            };
            let dt = (target - s.now_ns).max(0.0);
            s.busy_core_ns += (jobs.min(self.cores as usize)) as f64 * dt;
            if jobs > 0 {
                s.credit += rate * dt;
            }
            s.now_ns = target;
            // Pop all events due at the new instant.
            while let Some(Reverse(j)) = s.cpu_jobs.peek() {
                if j.finish_credit <= s.credit + EPS_NS {
                    let tid = s.cpu_jobs.pop().unwrap().0.tid;
                    self.wake(s, tid);
                } else {
                    break;
                }
            }
            while let Some(Reverse(t)) = s.timers.peek() {
                if t.at <= s.now_ns + EPS_NS {
                    let tid = s.timers.pop().unwrap().0.tid;
                    self.wake(s, tid);
                } else {
                    break;
                }
            }
            while let Some(Reverse(t)) = s.disk_done.peek() {
                if t.at <= s.now_ns + EPS_NS {
                    let tid = s.disk_done.pop().unwrap().0.tid;
                    self.wake(s, tid);
                } else {
                    break;
                }
            }
        }
    }

    fn wake(&self, s: &mut Sched, tid: Tid) {
        let slot = &mut s.threads[tid];
        debug_assert!(
            !matches!(slot.state, ThreadState::Running | ThreadState::Exited),
            "woke thread '{}' in state {:?}",
            slot.name,
            slot.state
        );
        slot.state = ThreadState::Running;
        s.running_real += 1;
        s.ready.push_back(tid);
        self.rouse_carrier(s);
        self.handoffs.wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// Something was made ready: an idle carrier must look again.
    fn rouse_carrier(&self, s: &mut Sched) {
        if s.carrier == CarrierState::Idle {
            s.carrier = CarrierState::Busy;
            self.input.notify_one();
        }
    }

    /// Stop running the calling vthread `tid`, whose state already says what
    /// it waits for, and return once it has been woken. The last vthread to
    /// stop drives the clock; if that leaves `tid` itself first in `ready`,
    /// the carrier would resume it next anyway and it simply goes on.
    /// Otherwise it gives the carrier back.
    fn park(&self, mut s: MutexGuard<'_, Sched>, tid: Tid) {
        s.running_real -= 1;
        if s.running_real == 0 {
            self.drive(&mut s);
            if s.ready.front() == Some(&tid) {
                s.ready.pop_front();
                return;
            }
        }
        drop(s);
        coro::suspend();
    }

    /// Park the calling vthread with `park_state` after running `enqueue`
    /// under the scheduler lock (to register the completion event).
    fn park_with(
        &self,
        tid: Tid,
        park_state: ThreadState,
        enqueue: impl FnOnce(&mut Sched),
    ) {
        let mut s = self.sched.lock();
        enqueue(&mut s);
        s.threads[tid].state = park_state;
        self.park(s, tid);
    }

    /// Park until notified: consumes a pre-posted token instead of parking
    /// if one exists (see `waitset.rs`). May return without the caller's
    /// condition holding — tokens are per thread, so one posted for an
    /// earlier wait (or for a previous owner of a reused slot) ends this one;
    /// every caller re-checks and parks again.
    pub(crate) fn park_waiting(&self, tid: Tid) {
        let mut s = self.sched.lock();
        let slot = &mut s.threads[tid];
        if slot.ws_token {
            slot.ws_token = false;
            return;
        }
        slot.state = ThreadState::Waiting;
        self.handoffs.parks.fetch_add(1, Ordering::Relaxed);
        self.park(s, tid);
    }

    /// Wake every tid in `tids` that is parked in
    /// [`park_waiting`](Self::park_waiting); pre-post a token for those
    /// currently running or parked on something else (they will re-check
    /// their condition at their next wait).
    pub(crate) fn notify_tids(&self, tids: &[Tid]) {
        if tids.is_empty() {
            return;
        }
        let mut s = self.sched.lock();
        for &tid in tids {
            match s.threads[tid].state {
                ThreadState::Waiting => self.wake(&mut s, tid),
                ThreadState::Exited => {}
                _ => s.threads[tid].ws_token = true,
            }
        }
    }
}

/// Handle to a virtual-time machine. Cheap to clone.
#[derive(Clone)]
pub struct Machine {
    pub(crate) inner: Arc<MachineInner>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.inner.cores)
            .field("now_secs", &self.now_secs())
            .finish()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<SimCtx>> = const { RefCell::new(None) };
}

/// Return the [`SimCtx`] of the calling vthread, if any.
pub(crate) fn current_ctx() -> Option<SimCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

impl MachineInner {
    /// The calling thread's id if it is a vthread of *this* machine. Anyone
    /// else — a plain OS thread, a vthread of another machine — blocks on
    /// this machine's primitives as an external thread.
    pub(crate) fn current_tid(self: &Arc<Self>) -> Option<Tid> {
        current_ctx()
            .filter(|ctx| Arc::ptr_eq(&ctx.machine.inner, self))
            .map(|ctx| ctx.tid)
    }
}

impl Machine {
    /// Create a machine with the given core count and disk model.
    pub fn new(config: MachineConfig) -> Machine {
        assert!(config.cores >= 1, "a machine needs at least one core");
        Machine {
            inner: Arc::new(MachineInner {
                cores: config.cores,
                sched: Mutex::new(Sched {
                    now_ns: 0.0,
                    credit: 0.0,
                    cpu_jobs: BinaryHeap::new(),
                    timers: BinaryHeap::new(),
                    disk_done: BinaryHeap::new(),
                    disk: DiskState::new(config.disk),
                    threads: Vec::new(),
                    free: Vec::new(),
                    ready: VecDeque::new(),
                    running_real: 0,
                    live: 0,
                    busy_core_ns: 0.0,
                    carrier: CarrierState::Absent,
                }),
                input: Condvar::new(),
                cpu: CpuCounters::default(),
                io: DiskCounters::default(),
                handoffs: HandoffCounters::default(),
            }),
        }
    }

    /// Number of virtual cores.
    pub fn cores(&self) -> u32 {
        self.inner.cores
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.inner.sched.lock().now_ns
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() / 1e9
    }

    /// Total core-busy virtual time (∫ active cores dt), seconds.
    /// `busy_core_secs / makespan` is the paper's "Avg. # Cores Used".
    pub fn busy_core_secs(&self) -> f64 {
        self.inner.sched.lock().busy_core_ns / 1e9
    }

    /// Snapshot of per-category charged CPU time.
    pub fn cpu_breakdown(&self) -> CpuBreakdown {
        self.inner.cpu.snapshot()
    }

    /// Snapshot of disk counters.
    pub fn disk_stats(&self) -> DiskStats {
        self.inner.io.snapshot()
    }

    /// Simulator handoff counts since the machine was created.
    pub fn handoff_counts(&self) -> HandoffCounts {
        let h = &self.inner.handoffs;
        HandoffCounts {
            charges: h.charges.load(Ordering::Relaxed),
            parks: h.parks.load(Ordering::Relaxed),
            wakes: h.wakes.load(Ordering::Relaxed),
            spawns: h.spawns.load(Ordering::Relaxed),
        }
    }

    /// Names and states of the machine's thread slots (diagnostics): every
    /// live vthread, plus each exited one whose slot no later spawn has
    /// reused yet. Slots are recycled, so this is bounded by the peak number
    /// of concurrent vthreads, not by the number ever spawned.
    pub fn dump_threads(&self) -> Vec<(String, ThreadState)> {
        let s = self.inner.sched.lock();
        s.threads
            .iter()
            .map(|t| (t.name.clone(), t.state))
            .collect()
    }

    /// Number of vthreads that have not yet exited.
    pub fn live_threads(&self) -> usize {
        self.inner.sched.lock().live
    }

    /// Spawn a vthread. The closure receives the thread's [`SimCtx`]; the
    /// same context is also installed thread-locally so blocking primitives
    /// ([`WaitSet`](crate::WaitSet), [`SimQueue`](crate::SimQueue), joins)
    /// integrate automatically. The vthread is ready at once and runs when
    /// the machine's carrier gets to it; a spawn that finds no carrier
    /// starts one.
    pub fn spawn<T, F>(&self, name: &str, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&SimCtx) -> T + Send + 'static,
    {
        let shared = Arc::new(JoinShared {
            result: Mutex::new(None),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
            ws: WaitSet::new(self),
        });
        let joined = Arc::clone(&shared);
        let machine = self.clone();
        let start_carrier = {
            let mut s = self.inner.sched.lock();
            // Reuse the slot of an exited vthread when there is one. A tid
            // the previous owner left behind in some wait list can then only
            // earn the new owner a token or a wake-up it did not need, and
            // every wait re-checks its condition.
            let tid = s.free.pop().unwrap_or(s.threads.len());
            let slot = ThreadSlot {
                name: name.to_string(),
                state: ThreadState::Running,
                ws_token: false,
                start: Some(Box::new(move || {
                    vthread_main(SimCtx { machine, tid }, f, &joined)
                })),
            };
            if tid == s.threads.len() {
                s.threads.push(slot);
            } else {
                s.threads[tid] = slot;
            }
            s.running_real += 1;
            s.live += 1;
            s.ready.push_back(tid);
            let absent = s.carrier == CarrierState::Absent;
            if absent {
                s.carrier = CarrierState::Busy;
            } else {
                self.inner.rouse_carrier(&mut s);
            }
            absent
        };
        self.inner.handoffs.spawns.fetch_add(1, Ordering::Relaxed);
        if start_carrier {
            let inner = Arc::clone(&self.inner);
            // Detached: the carrier exits by itself once no vthread is live,
            // and its own code panics only on a broken scheduler invariant
            // (a vthread's panic is caught on the vthread's stack).
            std::thread::Builder::new()
                .name("vt-carrier".to_string())
                .spawn(move || carrier_main(&inner))
                .expect("failed to start a carrier thread");
        }
        JoinHandle { shared }
    }
}

/// A vthread's whole life on its coroutine: the user closure, the result
/// handed to the joiner, and leaving the scheduler.
fn vthread_main<T, F>(ctx: SimCtx, f: F, shared: &JoinShared<T>)
where
    F: FnOnce(&SimCtx) -> T,
{
    let result = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
    *shared.result.lock() = Some(result);
    shared.done.store(true, Ordering::Release);
    shared.cv.notify_all();
    shared.ws.notify_all();
    let inner = &ctx.machine.inner;
    let mut s = inner.sched.lock();
    s.threads[ctx.tid].state = ThreadState::Exited;
    s.free.push(ctx.tid);
    s.running_real -= 1;
    s.live -= 1;
    if s.running_real == 0 {
        inner.drive(&mut s);
    }
}

/// The carrier thread: resumes ready vthreads one at a time, in `ready`
/// order, until none is live. The vthread that stops last (parks or exits)
/// has already driven the clock, so with nothing ready nothing is pending in
/// virtual time either: every live vthread waits for input from outside the
/// machine, and the carrier sleeps on `input` until it comes.
fn carrier_main(inner: &Arc<MachineInner>) {
    let mut coros = coro::Carrier::default();
    let mut s = inner.sched.lock();
    loop {
        let Some(tid) = s.ready.pop_front() else {
            if s.live == 0 {
                s.carrier = CarrierState::Absent;
                return;
            }
            debug_assert_eq!(s.running_real, 0, "nothing ready, nothing running");
            s.carrier = CarrierState::Idle;
            inner.input.wait(&mut s);
            s.carrier = CarrierState::Busy;
            continue;
        };
        let start = s.threads[tid].start.take();
        drop(s);
        let ctx = SimCtx {
            machine: Machine {
                inner: Arc::clone(inner),
            },
            tid,
        };
        CURRENT.with(|c| *c.borrow_mut() = Some(ctx));
        coros.run(tid, start);
        s = inner.sched.lock();
    }
}

/// Per-vthread execution context.
#[derive(Clone)]
pub struct SimCtx {
    machine: Machine,
    pub(crate) tid: Tid,
}

impl SimCtx {
    /// The machine this vthread runs on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Charge `cost_ns` virtual nanoseconds of CPU work in category `kind`.
    /// Returns when the work completes in virtual time (processor sharing).
    pub fn charge(&self, kind: CostKind, cost_ns: f64) {
        self.charge_many(&[(kind, cost_ns)]);
    }

    /// Charge several categories of CPU work done back to back, as **one**
    /// processor-sharing job for their sum; each part is still accounted
    /// under its own kind. Returns at the virtual instant at which the same
    /// charges issued one after another would: between two consecutive
    /// charges a vthread runs no virtual time (the clock is frozen while it
    /// executes), so it would never leave the set of CPU jobs, and the
    /// sharing rate every other job sees is the same at every instant either
    /// way. What it saves is the park, the wake-up and the scheduler pass per
    /// part — host time only.
    pub fn charge_many(&self, parts: &[(CostKind, f64)]) {
        let inner = &self.machine.inner;
        let mut total_ns = 0.0;
        for &(kind, cost_ns) in parts {
            debug_assert!(cost_ns >= 0.0, "negative charge");
            if cost_ns > 0.0 {
                inner.cpu.add(kind, cost_ns);
                total_ns += cost_ns;
            }
        }
        if total_ns <= 0.0 {
            return;
        }
        inner.handoffs.charges.fetch_add(1, Ordering::Relaxed);
        inner.park_with(self.tid, ThreadState::Charging, |s| {
            s.cpu_jobs.push(Reverse(CpuJob {
                finish_credit: s.credit + total_ns,
                tid: self.tid,
            }));
        });
    }

    /// Sleep for `dur_ns` virtual nanoseconds.
    pub fn sleep(&self, dur_ns: f64) {
        if dur_ns <= 0.0 {
            return;
        }
        let inner = &self.machine.inner;
        inner.park_with(self.tid, ThreadState::Sleeping, |s| {
            let at = s.now_ns + dur_ns;
            s.timers.push(Reverse(Timer { at, tid: self.tid }));
        });
    }

    /// Blocking disk read of `bytes` on logical `stream`. Returns when the
    /// simulated device completes the transfer.
    pub fn io_read(&self, stream: StreamId, bytes: u64) {
        let inner = &self.machine.inner;
        inner.park_with(self.tid, ThreadState::Io, |s| {
            let done = s
                .disk
                .schedule_read(s.now_ns, stream, bytes, &inner.io);
            s.disk_done.push(Reverse(Timer {
                at: done,
                tid: self.tid,
            }));
        });
    }
}

struct JoinShared<T> {
    result: Mutex<Option<std::thread::Result<T>>>,
    cv: Condvar,
    done: AtomicBool,
    ws: WaitSet,
}

/// Handle for awaiting a vthread's completion from either another vthread
/// (virtual-time blocking) or an external OS thread (real blocking).
pub struct JoinHandle<T> {
    shared: Arc<JoinShared<T>>,
}

impl<T> JoinHandle<T> {
    /// Whether the vthread has finished.
    pub fn is_finished(&self) -> bool {
        self.shared.done.load(Ordering::Acquire)
    }

    /// Wait for the vthread and return its result (`Err` carries the panic
    /// payload, mirroring [`std::thread::JoinHandle::join`]).
    pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
        if current_ctx().is_some() {
            let shared = Arc::clone(&self.shared);
            self.shared
                .ws
                .wait_until(move || shared.done.load(Ordering::Acquire));
        } else {
            let mut g = self.shared.result.lock();
            while g.is_none() {
                self.shared.cv.wait(&mut g);
            }
            drop(g);
        }
        self.shared
            .result
            .lock()
            .take()
            .expect("vthread result already taken")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostKind, MachineConfig};

    fn machine(cores: u32) -> Machine {
        Machine::new(MachineConfig {
            cores,
            ..Default::default()
        })
    }

    /// Spawn `n` workers from a parent vthread (so virtual time cannot
    /// advance between spawns) and return their results.
    fn spawn_batch<T, F>(m: &Machine, n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize, &SimCtx) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        m.spawn("parent", move |ctx| {
            let hs: Vec<_> = (0..n)
                .map(|i| {
                    let f = Arc::clone(&f);
                    ctx.machine()
                        .spawn(&format!("w{i}"), move |c| f(i, c))
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .join()
        .unwrap()
    }

    #[test]
    fn single_charge_advances_clock_exactly() {
        let m = machine(4);
        let h = m.spawn("a", |ctx| ctx.charge(CostKind::Misc, 5e6));
        h.join().unwrap();
        assert!((m.now_ns() - 5e6).abs() < 10.0, "now={}", m.now_ns());
    }

    #[test]
    fn two_equal_jobs_one_core_take_double() {
        let m = machine(1);
        spawn_batch(&m, 2, |_, ctx| ctx.charge(CostKind::Misc, 1e6));
        assert!((m.now_ns() - 2e6).abs() < 10.0, "now={}", m.now_ns());
        // Work conservation: the single core was busy the whole time.
        assert!((m.busy_core_secs() * 1e9 - 2e6).abs() < 10.0);
    }

    #[test]
    fn two_equal_jobs_two_cores_run_in_parallel() {
        let m = machine(2);
        spawn_batch(&m, 2, |_, ctx| ctx.charge(CostKind::Misc, 1e6));
        assert!((m.now_ns() - 1e6).abs() < 10.0, "now={}", m.now_ns());
        assert!((m.busy_core_secs() * 1e9 - 2e6).abs() < 10.0);
    }

    #[test]
    fn three_equal_jobs_two_cores_processor_share() {
        // Total work 3c on 2 cores, all jobs identical → all finish at 1.5c.
        let m = machine(2);
        spawn_batch(&m, 3, |_, ctx| ctx.charge(CostKind::Misc, 1e6));
        assert!((m.now_ns() - 1.5e6).abs() < 10.0, "now={}", m.now_ns());
    }

    #[test]
    fn staggered_arrival_processor_sharing() {
        // 1 core. A charges 10 at t=0. B sleeps 5 then charges 10.
        // [0,5): A alone (progress 5). [5,15): both at rate 1/2 (A finishes
        // its remaining 5 at t=15). [15,20): B alone finishes remaining 5.
        let m = machine(1);
        let times = spawn_batch(&m, 2, |i, ctx| {
            if i == 1 {
                ctx.sleep(5e6);
            }
            ctx.charge(CostKind::Misc, 10e6);
            ctx.machine().now_ns()
        });
        assert!((times[0] - 15e6).abs() < 10.0, "ta={}", times[0]);
        assert!((times[1] - 20e6).abs() < 10.0, "tb={}", times[1]);
    }

    #[test]
    fn io_overlaps_with_cpu() {
        let m = machine(1);
        // Spawn both workers from a parent vthread: the parent counts as
        // running, so virtual time cannot advance between the two spawns
        // (an external thread gives no such guarantee).
        let parent = m.spawn("parent", |ctx| {
            let a = ctx.machine().spawn("cpu", |ctx| {
                ctx.charge(CostKind::Misc, 50e6);
                ctx.machine().now_ns()
            });
            let b = ctx.machine().spawn("io", |ctx| {
                ctx.io_read(1, 1024 * 1024);
                ctx.machine().now_ns()
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        let (ta, tb) = parent.join().unwrap();
        // The 1 MB read takes ~4 ms seek + ~4.5 ms transfer ≪ 50 ms of CPU;
        // it must complete while the CPU job is still in progress.
        assert!(tb < ta, "io at {tb}, cpu at {ta}");
        assert!((ta - 50e6).abs() < 10.0);
    }

    #[test]
    fn join_returns_value_and_propagates_panic() {
        let m = machine(2);
        let h = m.spawn("v", |_| 7usize);
        assert_eq!(h.join().unwrap(), 7);
        let p = m.spawn("p", |_| panic!("boom"));
        assert!(p.join().is_err());
    }

    #[test]
    fn vthread_can_join_vthread() {
        let m = machine(2);
        let outer = m.spawn("outer", |ctx| {
            let inner = ctx.machine().spawn("inner", |c| {
                c.charge(CostKind::Misc, 1e6);
                41
            });
            inner.join().unwrap() + 1
        });
        assert_eq!(outer.join().unwrap(), 42);
    }

    #[test]
    fn many_threads_random_charges_terminate() {
        let m = machine(4);
        let hs: Vec<_> = (0..64)
            .map(|i| {
                m.spawn(&format!("w{i}"), move |ctx| {
                    for k in 0..10 {
                        ctx.charge(CostKind::Misc, 1e4 * ((i + k) % 7 + 1) as f64);
                        if k % 3 == 0 {
                            ctx.sleep(5e3);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        // Total work = Σ charges; busy integral must equal it (no idle gaps
        // while jobs pending, no over-counting).
        let charged = m.cpu_breakdown().total_ns();
        assert!(charged > 0.0);
        assert!(m.busy_core_secs() * 1e9 <= charged + 1.0);
    }

    #[test]
    fn zero_and_negative_duration_ops_are_noops() {
        let m = machine(1);
        let h = m.spawn("z", |ctx| {
            ctx.charge(CostKind::Misc, 0.0);
            ctx.sleep(0.0);
        });
        h.join().unwrap();
        assert_eq!(m.now_ns(), 0.0);
    }

    /// One worker charges `parts` — coalesced or one by one — on a single
    /// core, alone or beside a competitor's 5 ms job. Returns the worker's
    /// finish time, the final clock, the busy integral and the breakdown.
    fn run_parts(coalesced: bool, competitor: bool) -> (f64, f64, f64, CpuBreakdown) {
        const PARTS: [(CostKind, f64); 4] = [
            (CostKind::Scan, 1e6),
            (CostKind::Hashing, 2e6),
            (CostKind::Join, 0.0),
            (CostKind::Routing, 3e6),
        ];
        let m = machine(1);
        let n = if competitor { 2 } else { 1 };
        let times = spawn_batch(&m, n, move |i, ctx| {
            if i == 1 {
                ctx.charge(CostKind::Misc, 5e6);
            } else if coalesced {
                ctx.charge_many(&PARTS);
            } else {
                for (kind, ns) in PARTS {
                    ctx.charge(kind, ns);
                }
            }
            ctx.machine().now_ns()
        });
        (times[0], m.now_ns(), m.busy_core_secs(), m.cpu_breakdown())
    }

    #[test]
    fn charge_many_equals_the_same_charges_in_sequence() {
        for competitor in [false, true] {
            let (t_seq, end_seq, busy_seq, cpu_seq) = run_parts(false, competitor);
            let (t_many, end_many, busy_many, cpu_many) = run_parts(true, competitor);
            // Alone: 6 ms. Sharing one core with a 5 ms job: both at half
            // rate until the competitor ends at 10 ms, the last 1 ms alone.
            let expect = if competitor { 11e6 } else { 6e6 };
            assert!((t_seq - expect).abs() < 10.0, "sequential ended at {t_seq}");
            assert!((t_many - t_seq).abs() < 10.0, "{t_many} vs {t_seq}");
            assert!((end_many - end_seq).abs() < 10.0, "{end_many} vs {end_seq}");
            assert!(
                (busy_many - busy_seq).abs() < 1e-8,
                "{busy_many} vs {busy_seq}"
            );
            assert_eq!(cpu_many, cpu_seq, "per-kind accounting must not change");
            assert_eq!(cpu_many.get(CostKind::Hashing), 2e6);
        }
    }

    #[test]
    fn charge_many_is_one_handoff() {
        let m = machine(1);
        m.spawn("w", |ctx| {
            ctx.charge_many(&[(CostKind::Scan, 10.0), (CostKind::Join, 20.0)]);
            ctx.charge_many(&[(CostKind::Scan, 0.0)]);
        })
        .join()
        .unwrap();
        let h = m.handoff_counts();
        assert_eq!((h.charges, h.wakes, h.spawns), (1, 1, 1));
    }

    #[test]
    fn exited_vthreads_give_their_slots_back() {
        let m = machine(2);
        for i in 0..100 {
            m.spawn(&format!("w{i}"), |ctx| ctx.charge(CostKind::Misc, 10.0))
                .join()
                .unwrap();
            // The slot is freed in the vthread's last step, after the result
            // is published: wait for it so the next spawn finds it.
            while m.live_threads() > 0 {
                std::thread::yield_now();
            }
        }
        assert_eq!(m.handoff_counts().spawns, 100);
        let dump = m.dump_threads();
        assert_eq!(dump.len(), 1, "{dump:?}");
        assert_eq!(dump[0], ("w99".to_string(), ThreadState::Exited));
    }

    #[test]
    fn a_reused_slot_survives_its_previous_owners_wait_list_entry() {
        // `first` registers on the wait set and returns without parking (the
        // predicate holds on the re-check), leaving its tid behind. `second`
        // inherits the slot and with it, at the next notify, a wake-up it
        // did not ask for: it must neither miss its own nor end early.
        let m = machine(2);
        let ws = WaitSet::new(&m);
        let calls = Arc::new(Mutex::new(0u32));
        let (w1, c1) = (ws.clone(), Arc::clone(&calls));
        m.spawn("first", move |_| {
            w1.wait_until(|| {
                let mut n = c1.lock();
                *n += 1;
                *n >= 3 // false on the fast path and the first check
            })
        })
        .join()
        .unwrap();
        while m.live_threads() > 0 {
            std::thread::yield_now();
        }
        let go = Arc::new(AtomicBool::new(false));
        let (w2, g2) = (WaitSet::new(&m), Arc::clone(&go));
        let w2n = w2.clone();
        let second = m.spawn("second", move |_| w2.wait_until(|| g2.load(Ordering::Acquire)));
        assert_eq!(m.dump_threads().len(), 1, "the slot was reused");
        ws.notify_all(); // the stale entry: a token or a spurious wake-up
        assert!(!second.is_finished());
        go.store(true, Ordering::Release);
        w2n.notify_all();
        second.join().unwrap();
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    fn carrier_is(m: &Machine, state: CarrierState) -> bool {
        m.inner.sched.lock().carrier == state
    }

    #[test]
    fn an_external_spawn_rouses_an_idle_carrier() {
        let m = machine(1);
        let ws = WaitSet::new(&m);
        let go = Arc::new(AtomicBool::new(false));
        let (w, g) = (ws.clone(), Arc::clone(&go));
        let waiter = m.spawn("waiter", move |_| {
            w.wait_until(|| g.load(Ordering::Acquire))
        });
        // The waiter is parked and nothing is pending: the carrier sleeps
        // until a thread outside the machine gives it work.
        wait_until(|| carrier_is(&m, CarrierState::Idle));
        let late = m.spawn("late", |ctx| {
            ctx.charge(CostKind::Misc, 1e3);
            5
        });
        assert_eq!(late.join().unwrap(), 5);
        assert!(!waiter.is_finished());
        go.store(true, Ordering::Release);
        ws.notify_all();
        waiter.join().unwrap();
    }

    #[test]
    fn the_carrier_exits_with_its_last_vthread_and_a_spawn_starts_another() {
        let m = machine(2);
        let carrier_of = |m: &Machine| {
            m.spawn("w", |ctx| {
                ctx.charge(CostKind::Misc, 1e3);
                std::thread::current().id()
            })
            .join()
            .unwrap()
        };
        let first = carrier_of(&m);
        wait_until(|| carrier_is(&m, CarrierState::Absent));
        assert_eq!(m.live_threads(), 0);
        let second = carrier_of(&m);
        assert_ne!(first, second, "a new carrier thread");
        // Vthreads spawned while a carrier runs share it.
        let outer = m.spawn("outer", |ctx| {
            let inner = ctx
                .machine()
                .spawn("inner", |_| std::thread::current().id());
            (std::thread::current().id(), inner.join().unwrap())
        });
        let (a, b) = outer.join().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ten_thousand_concurrent_vthreads_reuse_their_stacks() {
        const N: usize = 10_000;
        let m = machine(8);
        // One parent runs both rounds, so one carrier does and keeps the
        // first round's stacks for the second.
        let rounds = spawn_batch(&m, 1, |_, ctx| {
            (0..2)
                .map(|_| {
                    // All N are live at once: the parent spawns them without
                    // parking, and each parks on its charge before any ends.
                    let hs: Vec<_> = (0..N)
                        .map(|i| {
                            ctx.machine().spawn(&format!("w{i}"), move |c| {
                                c.charge(CostKind::Misc, 1e3 + (i % 7) as f64);
                                // Where this frame sits: the same offset into
                                // whichever stack the vthread got.
                                let probe = 0u8;
                                std::hint::black_box(&probe) as *const u8 as usize
                            })
                        })
                        .collect();
                    let mut frames: Vec<usize> =
                        hs.into_iter().map(|h| h.join().unwrap()).collect();
                    frames.sort_unstable();
                    frames
                })
                .collect::<Vec<_>>()
        })
        .remove(0);
        let distinct = |f: &[usize]| f.windows(2).filter(|w| w[0] != w[1]).count() + 1;
        assert_eq!(distinct(&rounds[0]), N, "one stack each");
        assert_eq!(
            rounds[0], rounds[1],
            "the second round ran on the first round's stacks"
        );
        let gap = rounds[0].windows(2).map(|w| w[1] - w[0]).min().unwrap();
        assert!(gap >= coro::STACK_SIZE, "stacks {gap} bytes apart");
    }

    #[test]
    fn a_deep_panic_reaches_join_and_the_machine_runs_on() {
        fn dive(ctx: &SimCtx, depth: u32) -> u32 {
            if depth == 0 {
                ctx.charge(CostKind::Misc, 1e3);
                panic!("bottom of the stack");
            }
            let mut pad = [depth; 64];
            pad[depth as usize % 64] += dive(ctx, depth - 1);
            std::hint::black_box(pad)[0]
        }
        let m = machine(2);
        let ws = WaitSet::new(&m);
        let go = Arc::new(AtomicBool::new(false));
        let (w, g) = (ws.clone(), Arc::clone(&go));
        let sibling = m.spawn("sibling", move |ctx| {
            w.wait_until(|| g.load(Ordering::Acquire));
            ctx.charge(CostKind::Misc, 1e3);
            7
        });
        let err = m.spawn("diver", |ctx| dive(ctx, 200)).join().unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"bottom of the stack"));
        go.store(true, Ordering::Release);
        ws.notify_all();
        assert_eq!(sibling.join().unwrap(), 7);
        assert_eq!(m.spawn("after", |_| 8).join().unwrap(), 8);
    }

    #[test]
    fn a_vthread_joins_a_vthread_of_another_machine() {
        let (a, b) = (machine(1), machine(1));
        let b2 = b.clone();
        let outer = a.spawn("outer", move |ctx| {
            let inner = b2.spawn("inner", |c| {
                c.charge(CostKind::Misc, 1e6);
                41
            });
            // Another machine's vthread is external to this one: the join
            // blocks this carrier in real time, and this clock stays put.
            let v = inner.join().unwrap() + 1;
            (v, ctx.machine().now_ns())
        });
        assert_eq!(outer.join().unwrap(), (42, 0.0));
        assert!((b.now_ns() - 1e6).abs() < 10.0);
    }

    #[test]
    fn vthreads_woken_at_one_instant_run_in_the_same_order_every_time() {
        let order = || {
            let m = machine(4);
            let ws = WaitSet::new(&m);
            let log = Arc::new(Mutex::new(Vec::new()));
            let (w, l) = (ws.clone(), Arc::clone(&log));
            spawn_batch(&m, 65, move |i, ctx| {
                if i == 64 {
                    // Notify once every waiter has registered, all at one
                    // instant.
                    ctx.sleep(1e6);
                    w.notify_all();
                    return;
                }
                // Register in an order no tid gives away.
                ctx.charge(CostKind::Misc, 1e3 * ((i * 37) % 64 + 1) as f64);
                let mut woken = false;
                w.wait_until(|| std::mem::replace(&mut woken, true));
                l.lock().push(i);
                // Ties inside the processor-sharing heap, too.
                ctx.charge(CostKind::Misc, 1e3);
                l.lock().push(100 + i);
            });
            let log = log.lock().clone();
            log
        };
        let first = order();
        assert_eq!(first.len(), 128);
        for run in 1..5 {
            assert_eq!(order(), first, "run {run}");
        }
    }

    #[test]
    fn external_notifies_and_pushes_land_while_the_carrier_is_busy() {
        let m = machine(2);
        let q = crate::SimQueue::unbounded(&m);
        let ws = WaitSet::new(&m);
        let flag = Arc::new(AtomicBool::new(false));
        let q2 = q.clone();
        let popper = m.spawn("popper", move |_| q2.pop());
        let (w, f) = (ws.clone(), Arc::clone(&flag));
        let waiter = m.spawn("waiter", move |_| {
            w.wait_until(|| f.load(Ordering::Acquire))
        });
        wait_until(|| m.handoff_counts().parks == 2);
        // A vthread that runs until this thread says so: the carrier is busy
        // for as long as the push and the notify take.
        let (spinning, released) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let (s, r) = (Arc::clone(&spinning), Arc::clone(&released));
        let spinner = m.spawn("spinner", move |_| {
            s.store(true, Ordering::Release);
            while !r.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        });
        wait_until(|| spinning.load(Ordering::Acquire));
        assert!(carrier_is(&m, CarrierState::Busy));
        q.push(7u32).unwrap();
        flag.store(true, Ordering::Release);
        ws.notify_all();
        assert_eq!(m.inner.sched.lock().ready.len(), 2, "both made ready");
        released.store(true, Ordering::Release);
        spinner.join().unwrap();
        assert_eq!(popper.join().unwrap(), Some(7));
        waiter.join().unwrap();
    }

    #[test]
    fn dump_threads_reports_states() {
        let m = machine(1);
        let h = m.spawn("worker", |ctx| ctx.charge(CostKind::Misc, 1e3));
        h.join().unwrap();
        // join() returns when the result is published; the state flips to
        // Exited in the vthread's final step immediately after — poll
        // briefly to avoid racing that last transition.
        for _ in 0..200 {
            if m.live_threads() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let dump = m.dump_threads();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].0, "worker");
        assert_eq!(dump[0].1, ThreadState::Exited);
        assert_eq!(m.live_threads(), 0);
    }
}
