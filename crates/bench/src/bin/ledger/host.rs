//! Two settings of the benchmark's own process, made before it starts a
//! thread, without which its host-side numbers do not repeat on a small
//! shared host. Both were measured over ten seeds (README.md has the numbers).
//!
//! - **One CPU.** The simulator runs one vthread at a time and hands over
//!   through a futex. When the two threads sit on different CPUs of a virtual
//!   machine the wake-up is an inter-processor interrupt to a halted CPU, whose
//!   cost is the hypervisor's to decide: throughput was 1.6 times lower than on
//!   one CPU and its quartiles three times as far apart.
//! - **One allocator arena.** glibc gives threads arenas of their own as they
//!   contend; which thread gets which depends on timing, and peak resident
//!   memory came out at 54 or at 65 MB for the same work. With one arena it is
//!   39 MB to within 3 %.
//!
//! Neither is available in `std`, so this is the one place with foreign calls.

/// What was set, one line each, for the run's report.
pub fn steady() -> Vec<String> {
    imp::steady()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod imp {
    /// Words of a CPU mask: room for 1024 CPUs, glibc's own `cpu_set_t`.
    const MASK_WORDS: usize = 16;
    /// `M_ARENA_MAX` of glibc's `malloc.h`.
    const M_ARENA_MAX: i32 = -8;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn mallopt(param: i32, value: i32) -> i32;
    }

    /// Pin the calling thread, and so every thread it starts from now on, to
    /// the highest-numbered CPU it may run on (the lowest takes most
    /// interrupts).
    fn pin_to_one_cpu() -> Option<usize> {
        let mut allowed = [0u64; MASK_WORDS];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is live, writable and `bytes` long, which is the
        // size the call is told; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = allowed.iter().rposition(|w| *w != 0)?;
        let bit = 63 - allowed[word].leading_zeros() as usize;
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is live and `bytes` long, and the call only reads it.
        (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }

    pub fn steady() -> Vec<String> {
        let pinned = match pin_to_one_cpu() {
            Some(cpu) => format!("pinned to CPU {cpu}"),
            None => "not pinned: the CPU mask could not be read or set".into(),
        };
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's own settings; no other thread exists yet.
        let arenas = match unsafe { mallopt(M_ARENA_MAX, 1) } {
            1 => "one allocator arena",
            _ => "allocator arenas left at their default",
        };
        vec![format!("  host: {pinned}, {arenas}")]
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod imp {
    pub fn steady() -> Vec<String> {
        vec!["  host: not Linux with glibc, so neither pinned nor held to one arena".into()]
    }
}
