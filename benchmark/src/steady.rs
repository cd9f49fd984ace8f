//! Two process-wide settings that take scheduling luck out of a run:
//! every thread on one CPU, and one allocator arena.
//!
//! **One CPU.** On this two-CPU virtual machine the cost of waking a thread on the
//! other CPU swings between runs: the cached-read round trip of
//! `serve_mixed` measured 0.24 ms in one process and 1.04 ms in the
//! next (spread 122 % over ten runs), and the two-thread pipelines of
//! `sim_run` and `archive_ingest` spread 12–13 %. With every thread on
//! one CPU the same runs spread 1.4 % and 4 %. Wall time then measures
//! the CPU work of all threads together; how well threads overlap is not
//! measured, and on a box that a neighbour can halve at any moment it
//! could not be.
//!
//! **One arena.** glibc gives a thread a malloc arena of its own when it
//! finds another thread holding the lock, which depends on where the
//! scheduler happened to preempt: `serve_mixed` peaked at 37.6 MiB in
//! some runs and 46.0 MiB in others (spread 16 %), and at 34.8–35.3 MiB
//! with a single arena. On one CPU threads never allocate at the same
//! instant, so a single arena costs nothing.

/// `cpu_set_t` is 1024 bits.
const MASK_WORDS: usize = 16;

/// The mask the process started with, kept by [`pin_to_one_cpu`].
static STARTED_WITH: std::sync::OnceLock<[u64; MASK_WORDS]> = std::sync::OnceLock::new();

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: i32 = -8;

/// Limits glibc malloc to one arena; `false` where that is not the
/// allocator or it refuses.
#[must_use]
pub fn single_arena() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: `mallopt` takes two integers by value and only sets a
        // tunable of the allocator; it is called before any other thread
        // exists.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it starts afterwards,
/// which inherit the mask — to the lowest-numbered CPU it may run on.
/// Returns that CPU, or `None` where the mask cannot be read or set
/// (another OS, a sandbox that forbids it): the run goes on unpinned and
/// the envelope says so.
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
        // bytes, which is what the call is told; pid 0 is the caller.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        STARTED_WITH.get_or_init(|| mask);
        let cpu = mask
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)?;
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly `bytes` bytes that
        // the call only reads; pid 0 is the caller.
        (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = MASK_WORDS;
        None
    }
}

/// Runs `work` with the calling thread — and the threads it starts —
/// back on every CPU the process started with, then pins the caller
/// again. Without an earlier [`pin_to_one_cpu`] it just runs `work`.
pub fn on_all_cpus<T>(work: impl FnOnce() -> T) -> T {
    #[cfg(target_os = "linux")]
    if let Some(all) = STARTED_WITH.get() {
        // SAFETY: `all` is a live buffer of exactly the size the call is
        // told, which it only reads; pid 0 is the caller.
        let widened =
            unsafe { sched_setaffinity(0, std::mem::size_of_val(all), all.as_ptr()) } == 0;
        let out = work();
        if widened {
            let _ = pin_to_one_cpu();
        }
        return out;
    }
    work()
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_and_its_children_stay_on_one_cpu() {
        // On a thread of its own: the mask is per thread, and the other
        // tests of this process should keep theirs.
        std::thread::spawn(|| {
            let Some(cpu) = pin_to_one_cpu() else {
                return; // a sandbox that forbids it
            };
            let allowed = || {
                let mut mask = [0u64; MASK_WORDS];
                // SAFETY: as in `pin_to_one_cpu`.
                let rc = unsafe {
                    sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr())
                };
                assert_eq!(rc, 0);
                mask.iter().map(|w| w.count_ones()).sum::<u32>()
            };
            assert_eq!(allowed(), 1);
            assert_eq!(std::thread::spawn(allowed).join().unwrap(), 1);
            assert_eq!(pin_to_one_cpu(), Some(cpu), "pinning twice is harmless");
            let started_with = STARTED_WITH.get().expect("kept by the first pin");
            let all: u32 = started_with.iter().map(|w| w.count_ones()).sum();
            assert_eq!(on_all_cpus(|| std::thread::spawn(allowed).join().unwrap()), all);
            assert_eq!(allowed(), 1, "pinned again afterwards");
        })
        .join()
        .unwrap();
    }
}
