//! Stackful coroutines: the stacks vthreads run on and the switch between
//! them and their machine's carrier thread.
//!
//! A coroutine is a stack plus the stack pointer it was suspended at. The
//! switch ([`switch`]) pushes the callee-saved registers onto the running
//! stack, stores the stack pointer, loads the other one and pops that
//! stack's registers — a function call's worth of host time, where a futex
//! wait, a futex wake and an OS context switch used to be. A coroutine only
//! ever switches to its carrier and the carrier only to a coroutine, and a
//! coroutine never moves to another OS thread (it lives and dies on the
//! carrier that first resumed it), so thread-locals read inside one are the
//! carrier's throughout.
//!
//! Stacks are [`STACK_SIZE`] bytes of anonymous memory with a `PROT_NONE`
//! guard region below them (an overflow faults instead of writing into the
//! neighbouring stack). Each [`Carrier`] keeps the stacks of finished
//! coroutines for the next ones it starts, and an exiting carrier leaves
//! them in a process-wide pool for the next carrier instead of unmapping
//! them: a harness that builds and drops one engine per run otherwise pays
//! a `munmap` per vthread each time a machine empties, which was nearly all
//! an engine's shutdown cost.

use std::cell::Cell;
use std::ptr;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("vthread stacks are switched by x86_64 and aarch64 Linux code only");

/// Usable bytes of one vthread stack.
pub(crate) const STACK_SIZE: usize = 256 * 1024;

/// Bytes of the `PROT_NONE` region below each stack: 64 KiB, the largest
/// page size Linux uses on either architecture, so it is at least a page.
const GUARD_SIZE: usize = 64 * 1024;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// Most stacks [`POOL`] keeps; an exiting carrier unmaps the rest.
const POOL_CAP: usize = 256;

/// Stacks no carrier holds, for the next carrier that needs one.
static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

/// One coroutine stack and its guard region, unmapped on drop.
struct Stack {
    base: *mut u8,
}

// SAFETY: a `Stack` owns its mapping outright. It changes threads only
// through `POOL`, between two carriers, when no coroutine runs on it.
unsafe impl Send for Stack {}

/// The pool, also after a panic elsewhere while it was held: every update
/// of the vector leaves it valid.
fn pool() -> MutexGuard<'static, Vec<Stack>> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Stack {
    fn new() -> Stack {
        let len = GUARD_SIZE + STACK_SIZE;
        // SAFETY: an anonymous private mapping at an address of the kernel's
        // choosing aliases no memory of this process.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a vthread stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the guard region is the page-aligned bottom of the mapping
        // just made, which nothing references yet.
        let rc = unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a stack guard failed");
        Stack { base }
    }

    /// One past the highest usable byte (16-byte aligned).
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(GUARD_SIZE + STACK_SIZE)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping was made in `Stack::new` with this length, and
        // no coroutine runs on it any more (a stack is dropped only by its
        // carrier, between resumes).
        unsafe { munmap(self.base, GUARD_SIZE + STACK_SIZE) };
    }
}

/// What a coroutine runs: its vthread's whole life, from the user closure to
/// the exit bookkeeping.
pub(crate) type Body = Box<dyn FnOnce() + Send>;

thread_local! {
    /// The carrier's stack pointer while one of its coroutines runs.
    static CARRIER_SP: Cell<*mut u8> = const { Cell::new(ptr::null_mut()) };
    /// Where the running coroutine saves its stack pointer on suspending.
    static RUNNING_SP: Cell<*mut *mut u8> = const { Cell::new(ptr::null_mut()) };
    /// The body of a coroutine resumed for the first time, until
    /// [`coro_main`] takes it.
    static START: Cell<Option<Body>> = const { Cell::new(None) };
    /// Set by a coroutine whose body has returned, as its last act.
    static FINISHED: Cell<bool> = const { Cell::new(false) };
}

/// Suspend the running coroutine and return to its carrier; returns when the
/// carrier resumes it. Must be called on a coroutine stack.
pub(crate) fn suspend() {
    let to = CARRIER_SP.get();
    let save = RUNNING_SP.get();
    // A `SimCtx` is `Send`: a thread that is no vthread can reach here
    // through one, and must not switch to a null stack.
    assert!(!save.is_null(), "a vthread's context used outside its vthread");
    // SAFETY: `save` points at the running coroutine's own saved-pointer
    // slot in its carrier, and `to` is where the carrier suspended itself in
    // `Carrier::run`, which is waiting for exactly this switch.
    unsafe { switch(save, to) };
}

/// First frame of every coroutine stack: runs the body the carrier left in
/// `START`, reports it finished and leaves for good.
extern "C" fn coro_main() -> ! {
    let body = START.take().expect("a fresh coroutine has a body");
    body();
    FINISHED.set(true);
    suspend();
    unreachable!("a finished coroutine was resumed");
}

struct Coro {
    stack: Stack,
    /// The stack pointer it is suspended at.
    sp: *mut u8,
}

/// The coroutines of one carrier thread, indexed by vthread id, and the
/// stacks of finished ones kept for reuse.
#[derive(Default)]
pub(crate) struct Carrier {
    coros: Vec<Option<Coro>>,
    free: Vec<Stack>,
}

impl Carrier {
    /// Run coroutine `id` until it suspends or finishes. `start` is the body
    /// of a vthread resumed for the first time, `None` for one that has
    /// suspended before. A finished coroutine's stack goes to the free list.
    pub(crate) fn run(&mut self, id: usize, start: Option<Body>) {
        if self.coros.len() <= id {
            self.coros.resize_with(id + 1, || None);
        }
        if let Some(body) = start {
            debug_assert!(self.coros[id].is_none(), "coroutine {id} started twice");
            let stack = self
                .free
                .pop()
                .or_else(|| pool().pop())
                .unwrap_or_else(Stack::new);
            let sp = initial_frame(stack.top());
            self.coros[id] = Some(Coro { stack, sp });
            START.set(Some(body));
        }
        let coro = self.coros[id]
            .as_mut()
            .expect("resumed a coroutine that never started");
        let to = coro.sp;
        RUNNING_SP.set(&mut coro.sp);
        // SAFETY: `to` is either the frame `initial_frame` built on a stack
        // nothing else uses, or where this coroutine suspended itself; it
        // comes back here through `suspend`, which saves into `coro.sp` (the
        // vector is not touched until then).
        unsafe { switch(CARRIER_SP.with(Cell::as_ptr), to) };
        RUNNING_SP.set(ptr::null_mut());
        if FINISHED.replace(false) {
            let coro = self.coros[id].take().expect("a finished coroutine existed");
            self.free.push(coro.stack);
        }
    }
}

impl Drop for Carrier {
    /// Runs when the carrier exits, after its last coroutine finished.
    fn drop(&mut self) {
        let mut pool = pool();
        let keep = POOL_CAP.saturating_sub(pool.len()).min(self.free.len());
        pool.extend(self.free.drain(..keep));
    }
}

/// Save the callee-saved registers on the current stack and its stack
/// pointer at `*save`, then switch to the stack suspended at `to` and
/// restore the registers saved there.
///
/// # Safety
///
/// `to` must be a stack pointer a previous `switch` saved, or one
/// [`initial_frame`] built, on a stack no other code is running on.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    // System V: rbx, rbp and r12–r15 are callee-saved (MXCSR and the x87
    // control word are too, but nothing here changes them).
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Lay out on a fresh stack what [`switch`] pops: six zeroed registers
/// (`rbp` 0 ends frame-pointer walks), then `coro_main` as the return
/// address, then a zero return address for `coro_main` itself, which ends
/// unwinder walks. `coro_main` starts with the stack aligned as after a
/// call.
#[cfg(target_arch = "x86_64")]
fn initial_frame(top: *mut u8) -> *mut u8 {
    let words = top.cast::<usize>();
    // SAFETY: the eight words below `top` are inside the stack's usable
    // region, which nothing else references.
    unsafe {
        words.sub(1).write(0);
        words.sub(2).write(coro_main as *const () as usize);
        for i in 3..=8 {
            words.sub(i).write(0);
        }
        words.sub(8).cast()
    }
}

/// See the x86_64 version. AAPCS64: x19–x29, the link register x30 and the
/// low halves of d8–d15 are callee-saved.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    std::arch::naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x2, sp",
        "str x2, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

/// Entered by [`switch`]'s `ret` on a fresh stack: clears the link register
/// (a zero return address ends unwinder walks) and jumps to `coro_main`,
/// whose address [`initial_frame`] left in x19.
///
/// # Safety
///
/// Never called: only [`switch`] enters it, on a frame [`initial_frame`]
/// built.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn coro_trampoline() {
    std::arch::naked_asm!("mov x30, xzr", "br x19")
}

/// Lay out on a fresh stack the 160 bytes [`switch`] restores: zeroes
/// (x29 0 ends frame-pointer walks), `coro_main` in x19 and the trampoline
/// as the return address.
#[cfg(target_arch = "aarch64")]
fn initial_frame(top: *mut u8) -> *mut u8 {
    // SAFETY: the 160 bytes below `top` are inside the stack's usable
    // region, which nothing else references.
    unsafe {
        let frame = top.sub(160).cast::<usize>();
        for i in 0..20 {
            frame.add(i).write(0);
        }
        frame.write(coro_main as *const () as usize);
        frame.add(11).write(coro_trampoline as *const () as usize);
        frame.cast()
    }
}
