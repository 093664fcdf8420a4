//! Confining a phase to one CPU.
//!
//! On the virtual machines this benchmark was built on, each virtual CPU's
//! speed changes for seconds at a time with the load other tenants put on
//! its physical core, and a wake-up sent to an idle virtual CPU costs a
//! bimodal tens of microseconds. A phase confined to one CPU hands work
//! between its threads by same-CPU context switches, and alternating the
//! CPU from cycle to cycle samples every CPU's state over the run.

/// Run `f` with the calling thread, and every thread it spawns, confined
/// to the `turn`-th CPU (modulo the CPUs the thread may use), then restore
/// the thread's CPU set. Runs `f` unconfined where CPU sets are
/// unavailable.
#[cfg(target_os = "linux")]
pub fn on_cpu<T>(turn: usize, f: impl FnOnce() -> T) -> T {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `size` bytes;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return f();
    }
    let cpus: Vec<usize> = (0..size * 8)
        .filter(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return f();
    }
    let cpu = cpus[turn % cpus.len()];
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `size` bytes naming one CPU the
    // thread is already allowed to run on.
    let pinned = unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0;
    let out = f();
    if pinned {
        // SAFETY: `allowed` is the live `size`-byte mask read above.
        unsafe { sched_setaffinity(0, size, allowed.as_ptr()) };
    }
    out
}

#[cfg(not(target_os = "linux"))]
pub fn on_cpu<T>(_turn: usize, f: impl FnOnce() -> T) -> T {
    f()
}
