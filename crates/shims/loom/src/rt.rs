//! The deterministic execution core: one OS thread per model thread, all
//! serialized through a scheduler baton so exactly one runs at a time, with
//! every synchronization operation a *schedule point* where the explorer may
//! switch threads. Schedules are enumerated by depth-first search over the
//! recorded choice path ([`Path`]), optionally restricted by a preemption
//! bound. Happens-before is tracked with vector clocks ([`VersionVec`] /
//! [`Synchronize`], after tokio-rs/loom), which drive the weak-memory
//! visibility rule for atomics: a load may observe any store not already
//! superseded by one the loading thread has synchronized with.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once};

pub(crate) use std::sync::atomic::Ordering;

/// Maximum model threads per execution (the vector-clock width).
pub(crate) const MAX_THREADS: usize = 8;

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A vector clock: one logical-time slot per model thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct VersionVec {
    slots: [u64; MAX_THREADS],
}

impl VersionVec {
    pub(crate) fn join(&mut self, other: &VersionVec) {
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            *a = (*a).max(*b);
        }
    }

    pub(crate) fn increment(&mut self, tid: usize) {
        self.slots[tid] += 1;
    }

    pub(crate) fn get(&self, tid: usize) -> u64 {
        self.slots[tid]
    }
}

/// The happens-before clock attached to one synchronization point (a lock,
/// an individual atomic store, or the global SeqCst order). Release-flavored
/// writes publish the writer's causality into it; acquire-flavored reads
/// join it into the reader's causality.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Synchronize {
    happens_before: VersionVec,
}

impl Synchronize {
    /// Acquire side: an acquire-or-stronger load joins the published clock
    /// into the loading thread's causality. Relaxed and Release loads
    /// establish nothing.
    fn sync_load(&self, causality: &mut VersionVec, order: Ordering) {
        match order {
            Ordering::Relaxed | Ordering::Release => {}
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst => {
                causality.join(&self.happens_before)
            }
            _ => causality.join(&self.happens_before),
        }
    }

    /// Release side: a release-or-stronger store publishes the storing
    /// thread's causality. Relaxed and Acquire stores publish nothing.
    fn sync_store(&mut self, causality: &VersionVec, order: Ordering) {
        match order {
            Ordering::Relaxed | Ordering::Acquire => {}
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst => {
                self.happens_before.join(causality)
            }
            _ => self.happens_before.join(causality),
        }
    }
}

// ---------------------------------------------------------------------------
// The DFS choice path
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Choice {
    chosen: usize,
    total: usize,
}

/// The recorded sequence of scheduler/value choices of one execution. The
/// next execution replays the prefix and the DFS `step` advances the last
/// non-exhausted choice — bounded exhaustive exploration of schedule
/// prefixes.
#[derive(Default)]
pub(crate) struct Path {
    choices: Vec<Choice>,
    pos: usize,
}

impl Path {
    /// Take (replaying) or record the next choice among `total` options.
    fn branch(&mut self, total: usize) -> usize {
        debug_assert!(total >= 1);
        if total == 1 {
            // Forced choices are not recorded: they cannot be stepped and
            // would only deepen the DFS stack.
            return 0;
        }
        if self.pos < self.choices.len() {
            let c = self.choices[self.pos];
            self.pos += 1;
            // A mismatching `total` would mean the modeled closure is
            // non-deterministic; clamp defensively rather than index OOB.
            c.chosen.min(total - 1)
        } else {
            self.choices.push(Choice { chosen: 0, total });
            self.pos += 1;
            0
        }
    }

    /// Advance to the next unexplored schedule. `false` when the space is
    /// exhausted.
    pub(crate) fn step(&mut self) -> bool {
        self.choices.truncate(self.pos);
        self.pos = 0;
        while let Some(last) = self.choices.last_mut() {
            if last.chosen + 1 < last.total {
                last.chosen += 1;
                return true;
            }
            self.choices.pop();
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Per-execution state
// ---------------------------------------------------------------------------

/// What a non-runnable thread is waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Blocker {
    Lock(usize),
    Join(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Run {
    Runnable,
    Blocked(Blocker),
    Finished,
}

struct ThreadState {
    run: Run,
    causality: VersionVec,
}

/// One atomic store in an atomic object's modification order.
#[derive(Clone, Copy)]
pub(crate) struct StoreEntry {
    bits: u64,
    sync: Synchronize,
    /// Storing thread and its own clock at the store: a reader that has
    /// synchronized past this point must not read anything older.
    by: usize,
    clock: u64,
}

/// Model state of one synchronization object, indexed by its per-execution
/// object id.
pub(crate) enum ObjState {
    Lock {
        owner: Option<usize>,
        sync: Synchronize,
    },
    Atomic {
        stores: Vec<StoreEntry>,
        /// Per-thread coherence floor: index of the newest store each
        /// thread has read (reads may never go backwards).
        last_read: [usize; MAX_THREADS],
    },
}

impl ObjState {
    pub(crate) fn lock() -> ObjState {
        ObjState::Lock {
            owner: None,
            sync: Synchronize::default(),
        }
    }

    pub(crate) fn atomic(init: u64) -> ObjState {
        ObjState::Atomic {
            stores: vec![StoreEntry {
                bits: init,
                sync: Synchronize::default(),
                by: 0,
                clock: 0,
            }],
            last_read: [0; MAX_THREADS],
        }
    }
}

pub(crate) struct Failure {
    pub(crate) msg: String,
    pub(crate) payload: Option<Box<dyn Any + Send + 'static>>,
}

struct ExecState {
    threads: Vec<ThreadState>,
    active: usize,
    path: Path,
    preemptions: usize,
    bound: Option<usize>,
    objects: Vec<ObjState>,
    /// The single total SeqCst order: every SeqCst op acquires and releases
    /// through this clock.
    seq_cst: Synchronize,
    failure: Option<Failure>,
}

impl ExecState {
    fn runnable(&self, tid: usize) -> bool {
        matches!(self.threads[tid].run, Run::Runnable)
    }

    fn all_finished(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.run, Run::Finished))
    }
}

/// One model execution: shared by its model threads and the controller.
pub(crate) struct Execution {
    pub(crate) id: u64,
    state: StdMutex<ExecState>,
    cv: Condvar,
    os_handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

// ---------------------------------------------------------------------------
// Thread-local context and panic plumbing
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Sentinel payload used to unwind model threads of a failed execution
/// without reporting a second panic.
pub(crate) struct Abort;

fn abort() -> ! {
    std::panic::panic_any(Abort)
}

/// Install (once, process-wide) a panic hook that silences panics on model
/// threads: the controller reports the first real failure itself, with the
/// schedule count attached, and sentinel unwinds are not failures at all.
fn install_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET.with(|q| q.get()) {
                return;
            }
            prev(info);
        }));
    });
}

fn current() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// How a synchronization op should behave on the calling thread.
enum Mode {
    /// No model execution on this thread: behave like the real primitive.
    Fallback,
    /// Model thread that is unwinding (sentinel or real panic): apply state
    /// changes best-effort but never schedule or panic — drop impls run in
    /// this mode.
    Degraded(Arc<Execution>, usize),
    /// Model thread in normal operation.
    Model(Arc<Execution>, usize),
}

fn mode() -> Mode {
    match current() {
        None => Mode::Fallback,
        Some((e, me)) => {
            if std::thread::panicking() {
                Mode::Degraded(e, me)
            } else {
                Mode::Model(e, me)
            }
        }
    }
}

fn panic_msg(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

impl Execution {
    fn new(id: u64, path: Path, bound: Option<usize>) -> Execution {
        Execution {
            id,
            state: StdMutex::new(ExecState {
                threads: Vec::new(),
                active: 0,
                path,
                preemptions: 0,
                bound,
                objects: Vec::new(),
                seq_cst: Synchronize::default(),
                failure: None,
            }),
            cv: Condvar::new(),
            os_handles: StdMutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fail(&self, st: &mut ExecState, msg: String, payload: Option<Box<dyn Any + Send>>) {
        if st.failure.is_none() {
            st.failure = Some(Failure { msg, payload });
        }
        self.cv.notify_all();
    }

    /// Block until this thread holds the baton (is active and runnable), or
    /// unwind if the execution has failed.
    fn wait_active<'a>(
        &'a self,
        me: usize,
        mut st: StdMutexGuard<'a, ExecState>,
    ) -> StdMutexGuard<'a, ExecState> {
        loop {
            if st.failure.is_some() {
                drop(st);
                if std::thread::panicking() {
                    // Reached from a drop during unwind; pretend-resume so
                    // the unwind can finish.
                    return self.lock();
                }
                abort();
            }
            if st.active == me && st.runnable(me) {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A schedule point: the explorer picks the next thread to run among
    /// all runnable threads (restricted to the current one once the
    /// preemption budget is spent). Returns with `me` active again.
    fn schedule(&self, me: usize) {
        if std::thread::panicking() {
            return;
        }
        let mut st = self.lock();
        if st.failure.is_some() {
            drop(st);
            abort();
        }
        debug_assert!(st.runnable(me), "schedule() from a non-runnable thread");
        let mut options = Vec::with_capacity(st.threads.len());
        options.push(me);
        for t in 0..st.threads.len() {
            if t != me && st.runnable(t) {
                options.push(t);
            }
        }
        let bounded = st.bound.is_some_and(|b| st.preemptions >= b);
        let n = if bounded { 1 } else { options.len() };
        let idx = st.path.branch(n);
        let next = options[idx];
        if next != me {
            st.preemptions += 1;
            st.active = next;
            self.cv.notify_all();
            let st = self.wait_active(me, st);
            drop(st);
        }
    }

    /// Hand the baton off after `me` blocked (not a preemption: the switch
    /// is forced). Fails the execution with a deadlock report when no
    /// thread is runnable. Returns once `me` is runnable and active again.
    fn yield_blocked(&self, me: usize, mut st: StdMutexGuard<'_, ExecState>) {
        if std::thread::panicking() {
            return;
        }
        let options: Vec<usize> = (0..st.threads.len()).filter(|&t| st.runnable(t)).collect();
        if options.is_empty() {
            let blockers: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter_map(|(t, ts)| match ts.run {
                    Run::Blocked(b) => Some(format!("thread {t} on {b:?}")),
                    _ => None,
                })
                .collect();
            self.fail(
                &mut st,
                format!("deadlock: every live thread is blocked ({})", blockers.join(", ")),
                None,
            );
            drop(st);
            abort();
        }
        let idx = st.path.branch(options.len());
        st.active = options[idx];
        self.cv.notify_all();
        let st = self.wait_active(me, st);
        drop(st);
    }

    /// An extra (non-scheduling) choice point, e.g. which visible store a
    /// relaxed load observes.
    fn choose(&self, st: &mut ExecState, total: usize) -> usize {
        st.path.branch(total)
    }

    fn register_thread(&self, parent: Option<usize>) -> usize {
        let mut st = self.lock();
        let tid = st.threads.len();
        assert!(
            tid < MAX_THREADS,
            "loom shim supports at most {MAX_THREADS} threads per execution"
        );
        let causality = match parent {
            Some(p) => {
                // Spawn is a release/acquire edge from parent to child.
                st.threads[p].causality.increment(p);
                st.threads[p].causality
            }
            None => VersionVec::default(),
        };
        st.threads.push(ThreadState {
            run: Run::Runnable,
            causality,
        });
        tid
    }

    fn track_os_handle(&self, h: std::thread::JoinHandle<()>) {
        self.os_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
    }

    /// First wait of a freshly spawned model thread, before any user code.
    fn wait_started(&self, me: usize) {
        let st = self.lock();
        let st = self.wait_active(me, st);
        drop(st);
    }

    /// Terminal bookkeeping of a model thread: records a real panic as the
    /// execution failure, wakes joiners, and hands the baton on (or
    /// declares completion / deadlock).
    fn thread_done(&self, me: usize, panic_payload: Option<Box<dyn Any + Send>>) {
        let mut st = self.lock();
        st.threads[me].causality.increment(me);
        st.threads[me].run = Run::Finished;
        for t in 0..st.threads.len() {
            if st.threads[t].run == Run::Blocked(Blocker::Join(me)) {
                st.threads[t].run = Run::Runnable;
            }
        }
        if let Some(p) = panic_payload {
            let msg = format!("model thread panicked: {}", panic_msg(p.as_ref()));
            self.fail(&mut st, msg, Some(p));
            return;
        }
        if st.failure.is_some() {
            self.cv.notify_all();
            return;
        }
        let options: Vec<usize> = (0..st.threads.len()).filter(|&t| st.runnable(t)).collect();
        if options.is_empty() {
            if !st.all_finished() {
                self.fail(&mut st, "deadlock: finished thread leaves only blocked threads".into(), None);
            }
            self.cv.notify_all();
            return;
        }
        let idx = st.path.branch(options.len());
        st.active = options[idx];
        self.cv.notify_all();
    }

    /// Controller side: wait for every model thread to finish, then join
    /// the OS threads so the iteration is fully quiescent.
    fn wait_complete(&self) -> Option<Failure> {
        {
            let mut st = self.lock();
            while !st.all_finished() {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        let handles: Vec<_> = std::mem::take(&mut *self.os_handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
        self.lock().failure.take()
    }

    fn take_path(&self) -> Path {
        std::mem::take(&mut self.lock().path)
    }
}

// ---------------------------------------------------------------------------
// Lazily registered object handles
// ---------------------------------------------------------------------------

/// Maps a shim object (which may outlive many executions) to its model
/// state in the current execution, registering it on first touch. Objects
/// created inside the modeled closure are registered from their pristine
/// initial value, which keeps executions deterministic; objects created
/// outside and mutated across iterations are the caller's responsibility.
pub(crate) struct ModelRef {
    slot: StdMutex<(u64, usize)>,
}

impl ModelRef {
    pub(crate) const fn new() -> ModelRef {
        ModelRef {
            slot: StdMutex::new((0, 0)),
        }
    }

    fn get(&self, exec: &Execution, init: impl FnOnce() -> ObjState) -> usize {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        if slot.0 != exec.id {
            let mut st = exec.lock();
            st.objects.push(init());
            *slot = (exec.id, st.objects.len() - 1);
        }
        slot.1
    }
}

// ---------------------------------------------------------------------------
// Model operations called by the sync shims
// ---------------------------------------------------------------------------

/// Model-mode mutex lock. `true` when the model protocol ran (the caller's
/// paired unlock must run it too); `false` in fallback/degraded mode.
pub(crate) fn mutex_lock(cell: &ModelRef) -> bool {
    let (exec, me) = match mode() {
        Mode::Model(e, me) => (e, me),
        _ => return false,
    };
    let obj = cell.get(&exec, ObjState::lock);
    loop {
        exec.schedule(me);
        let mut st = exec.lock();
        let ObjState::Lock { owner, sync } = &mut st.objects[obj] else {
            unreachable!("object {obj} is not a lock");
        };
        if owner.is_none() {
            *owner = Some(me);
            let hb = *sync;
            hb.sync_load(&mut st.threads[me].causality, Ordering::Acquire);
            return true;
        }
        st.threads[me].run = Run::Blocked(Blocker::Lock(obj));
        exec.yield_blocked(me, st);
    }
}

/// Model-mode mutex try_lock; `None` in fallback/degraded mode, else
/// whether the lock was taken.
pub(crate) fn mutex_try_lock(cell: &ModelRef) -> Option<bool> {
    let (exec, me) = match mode() {
        Mode::Model(e, me) => (e, me),
        _ => return None,
    };
    let obj = cell.get(&exec, ObjState::lock);
    exec.schedule(me);
    let mut st = exec.lock();
    let ObjState::Lock { owner, sync } = &mut st.objects[obj] else {
        unreachable!("object {obj} is not a lock");
    };
    if owner.is_none() {
        *owner = Some(me);
        let hb = *sync;
        hb.sync_load(&mut st.threads[me].causality, Ordering::Acquire);
        Some(true)
    } else {
        Some(false)
    }
}

pub(crate) fn mutex_unlock(cell: &ModelRef) {
    let (exec, me, degraded) = match mode() {
        Mode::Model(e, me) => (e, me, false),
        Mode::Degraded(e, me) => (e, me, true),
        Mode::Fallback => return,
    };
    let obj = cell.get(&exec, ObjState::lock);
    if !degraded {
        exec.schedule(me);
    }
    let mut st = exec.lock();
    let causality = st.threads[me].causality;
    let ObjState::Lock { owner, sync } = &mut st.objects[obj] else {
        unreachable!("object {obj} is not a lock");
    };
    *owner = None;
    sync.sync_store(&causality, Ordering::Release);
    for t in 0..st.threads.len() {
        if st.threads[t].run == Run::Blocked(Blocker::Lock(obj)) {
            st.threads[t].run = Run::Runnable;
        }
    }
}

/// Model-mode atomic load; `None` in fallback/degraded mode. The returned
/// value is one of the stores visible to this thread under the
/// happens-before/coherence rule, chosen by the explorer (newest first).
pub(crate) fn atomic_load(
    cell: &ModelRef,
    init: impl FnOnce() -> u64,
    order: Ordering,
) -> Option<u64> {
    let (exec, me) = match mode() {
        Mode::Model(e, me) => (e, me),
        _ => return None,
    };
    let obj = cell.get(&exec, || ObjState::atomic(init()));
    exec.schedule(me);
    let mut st = exec.lock();
    let causality = st.threads[me].causality;
    let (floor, len) = {
        let ObjState::Atomic { stores, last_read } = &st.objects[obj] else {
            unreachable!("object {obj} is not an atomic");
        };
        // The newest store this thread is already aware of, through its own
        // reads (coherence) or through happens-before: nothing older may be
        // observed.
        let mut floor = last_read[me];
        for (j, s) in stores.iter().enumerate().skip(floor + 1) {
            if causality.get(s.by) >= s.clock {
                floor = j;
            }
        }
        (floor, stores.len())
    };
    // SeqCst loads participate in the single total order: observe the
    // newest store (a sound over-approximation of C++ SC semantics for the
    // flag/counter patterns this shim targets).
    let idx = if order == Ordering::SeqCst || floor + 1 == len {
        len - 1
    } else {
        let pick = exec.choose(&mut st, len - floor);
        len - 1 - pick
    };
    let ObjState::Atomic { stores, last_read } = &mut st.objects[obj] else {
        unreachable!();
    };
    let store = stores[idx];
    last_read[me] = last_read[me].max(idx);
    store
        .sync
        .sync_load(&mut st.threads[me].causality, order);
    if order == Ordering::SeqCst {
        let g = st.seq_cst;
        g.sync_load(&mut st.threads[me].causality, Ordering::Acquire);
    }
    Some(store.bits)
}

/// Model-mode atomic store; `false` in fallback/degraded mode.
pub(crate) fn atomic_store(
    cell: &ModelRef,
    init: impl FnOnce() -> u64,
    bits: u64,
    order: Ordering,
) -> bool {
    let (exec, me, degraded) = match mode() {
        Mode::Model(e, me) => (e, me, false),
        Mode::Degraded(e, me) => (e, me, true),
        Mode::Fallback => return false,
    };
    let obj = cell.get(&exec, || ObjState::atomic(init()));
    if !degraded {
        exec.schedule(me);
    }
    let mut st = exec.lock();
    st.threads[me].causality.increment(me);
    let causality = st.threads[me].causality;
    // A plain store starts a fresh release sequence: it does NOT carry the
    // clocks of earlier stores it overwrites.
    let mut sync = Synchronize::default();
    sync.sync_store(&causality, order);
    if order == Ordering::SeqCst {
        st.seq_cst.sync_store(&causality, Ordering::Release);
    }
    let clock = causality.get(me);
    let ObjState::Atomic { stores, last_read } = &mut st.objects[obj] else {
        unreachable!("object {obj} is not an atomic");
    };
    stores.push(StoreEntry {
        bits,
        sync,
        by: me,
        clock,
    });
    last_read[me] = stores.len() - 1;
    true
}

/// Model-mode read-modify-write; `None` in fallback/degraded mode, else
/// `(previous, wrote)`. RMWs always read the newest store (atomicity) and a
/// successful write *extends* that store's release sequence (its clock is
/// carried forward), per the C++ model.
pub(crate) fn atomic_rmw(
    cell: &ModelRef,
    init: impl FnOnce() -> u64,
    success: Ordering,
    failure: Ordering,
    f: &mut dyn FnMut(u64) -> Option<u64>,
) -> Option<(u64, bool)> {
    let (exec, me, degraded) = match mode() {
        Mode::Model(e, me) => (e, me, false),
        Mode::Degraded(e, me) => (e, me, true),
        Mode::Fallback => return None,
    };
    let obj = cell.get(&exec, || ObjState::atomic(init()));
    if !degraded {
        exec.schedule(me);
    }
    let mut st = exec.lock();
    let (old, prior_sync, last) = {
        let ObjState::Atomic { stores, .. } = &st.objects[obj] else {
            unreachable!("object {obj} is not an atomic");
        };
        let last = stores.len() - 1;
        (stores[last].bits, stores[last].sync, last)
    };
    match f(old) {
        None => {
            prior_sync.sync_load(&mut st.threads[me].causality, failure);
            if failure == Ordering::SeqCst {
                let g = st.seq_cst;
                g.sync_load(&mut st.threads[me].causality, Ordering::Acquire);
            }
            let ObjState::Atomic { last_read, .. } = &mut st.objects[obj] else {
                unreachable!();
            };
            last_read[me] = last_read[me].max(last);
            Some((old, false))
        }
        Some(new) => {
            prior_sync.sync_load(&mut st.threads[me].causality, success);
            st.threads[me].causality.increment(me);
            let causality = st.threads[me].causality;
            let mut sync = prior_sync;
            sync.sync_store(&causality, success);
            if success == Ordering::SeqCst {
                let g = st.seq_cst;
                g.sync_load(&mut st.threads[me].causality, Ordering::Acquire);
                st.seq_cst.sync_store(&causality, Ordering::Release);
            }
            let clock = causality.get(me);
            let ObjState::Atomic { stores, last_read } = &mut st.objects[obj] else {
                unreachable!();
            };
            stores.push(StoreEntry {
                bits: new,
                sync,
                by: me,
                clock,
            });
            last_read[me] = stores.len() - 1;
            Some((old, true))
        }
    }
}

/// A plain scheduling point with no memory effect (`thread::yield_now`).
pub(crate) fn yield_point() -> bool {
    match mode() {
        Mode::Model(exec, me) => {
            exec.schedule(me);
            true
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

pub(crate) enum JoinInner<T> {
    Std(std::thread::JoinHandle<T>),
    Model {
        exec: Arc<Execution>,
        tid: usize,
        result: Arc<StdMutex<Option<T>>>,
    },
}

/// Spawn a model (or fallback) thread running `f`.
pub(crate) fn spawn_thread<F, T>(f: F) -> JoinInner<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (exec, me) = match mode() {
        Mode::Model(e, me) => (e, me),
        _ => return JoinInner::Std(std::thread::spawn(f)),
    };
    let tid = exec.register_thread(Some(me));
    let result: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
    let os = {
        let exec = Arc::clone(&exec);
        let result = Arc::clone(&result);
        std::thread::Builder::new()
            .name(format!("loom-{}-{tid}", exec.id))
            .spawn(move || run_model_thread(exec, tid, result, f))
            .expect("spawn model thread")
    };
    exec.track_os_handle(os);
    // Spawning is itself a schedule point: the child may run immediately.
    exec.schedule(me);
    JoinInner::Model { exec, tid, result }
}

fn run_model_thread<F, T>(
    exec: Arc<Execution>,
    tid: usize,
    result: Arc<StdMutex<Option<T>>>,
    f: F,
) where
    F: FnOnce() -> T,
{
    QUIET.with(|q| q.set(true));
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
    let out = catch_unwind(AssertUnwindSafe(|| {
        exec.wait_started(tid);
        f()
    }));
    match out {
        Ok(v) => {
            *result.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
            exec.thread_done(tid, None);
        }
        Err(p) if p.is::<Abort>() => exec.thread_done(tid, None),
        Err(p) => exec.thread_done(tid, Some(p)),
    }
    CURRENT.with(|c| *c.borrow_mut() = None);
    QUIET.with(|q| q.set(false));
}

/// Join a model thread: blocks (in model time) until it finishes, and
/// establishes the join happens-before edge.
pub(crate) fn join_thread<T>(inner: JoinInner<T>) -> std::thread::Result<T> {
    match inner {
        JoinInner::Std(h) => h.join(),
        JoinInner::Model { exec, tid, result } => {
            if let Mode::Model(e, me) = mode() {
                debug_assert!(Arc::ptr_eq(&e, &exec), "join across executions");
                loop {
                    e.schedule(me);
                    let mut st = e.lock();
                    if matches!(st.threads[tid].run, Run::Finished) {
                        let c = st.threads[tid].causality;
                        st.threads[me].causality.join(&c);
                        break;
                    }
                    st.threads[me].run = Run::Blocked(Blocker::Join(tid));
                    e.yield_blocked(me, st);
                }
            }
            match result.lock().unwrap_or_else(|e| e.into_inner()).take() {
                Some(v) => Ok(v),
                None => Err(Box::new(Abort)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The explorer driver
// ---------------------------------------------------------------------------

static NEXT_EXEC_ID: StdAtomicU64 = StdAtomicU64::new(1);

/// Outcome of a [`crate::model`] run: how much of the schedule space was
/// explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Distinct schedules (complete executions) explored.
    pub schedules: u64,
    /// Whether the (bounded) schedule space was exhausted, as opposed to
    /// stopping at [`crate::Builder::max_schedules`].
    pub complete: bool,
}

/// Exploration configuration; see [`crate::model`] for the defaults.
#[derive(Debug, Clone)]
pub struct Builder {
    /// Maximum context switches at points where the running thread could
    /// have continued (Musuvathi/Qadeer-style preemption bounding). `None`
    /// explores every interleaving.
    pub preemption_bound: Option<usize>,
    /// Stop after this many schedules even if the space is not exhausted.
    pub max_schedules: u64,
}

impl Default for Builder {
    fn default() -> Builder {
        Builder {
            preemption_bound: None,
            max_schedules: 100_000,
        }
    }
}

impl Builder {
    /// Construct the default builder.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Run `f` under every (bounded) schedule; panics on the first failing
    /// one with the schedule count attached.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_hook();
        let f = Arc::new(f);
        let mut path = Path::default();
        let mut schedules: u64 = 0;
        loop {
            let exec = Arc::new(Execution::new(
                NEXT_EXEC_ID.fetch_add(1, StdOrdering::Relaxed),
                path,
                self.preemption_bound,
            ));
            let root = exec.register_thread(None);
            debug_assert_eq!(root, 0);
            {
                let exec2 = Arc::clone(&exec);
                let f = Arc::clone(&f);
                let os = std::thread::Builder::new()
                    .name(format!("loom-{}-root", exec.id))
                    .spawn(move || {
                        run_model_thread(exec2, root, Arc::new(StdMutex::new(None)), move || f())
                    })
                    .expect("spawn model root thread");
                exec.track_os_handle(os);
            }
            let failure = exec.wait_complete();
            schedules += 1;
            if let Some(fail) = failure {
                let msg = format!(
                    "deterministic model check failed on schedule #{schedules}: {}",
                    fail.msg
                );
                match fail.payload {
                    Some(p) => {
                        eprintln!("{msg}");
                        std::panic::resume_unwind(p);
                    }
                    None => panic!("{msg}"),
                }
            }
            path = exec.take_path();
            if !path.step() {
                return Report {
                    schedules,
                    complete: true,
                };
            }
            if schedules >= self.max_schedules {
                return Report {
                    schedules,
                    complete: false,
                };
            }
        }
    }
}
