//! A counting global allocator behind a gate.
//!
//! With the gate closed (the timed pass) an allocation costs one relaxed
//! load on top of the system allocator; with it open (the counted and
//! traced passes) every request adds to two process-wide counters. The
//! counts are of bytes *requested*, which depend on the program and its
//! input and not on the box's speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator `main.rs` installs as `#[global_allocator]`.
pub struct CountingAlloc;

#[inline]
fn note(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow requests the added bytes; a shrink requests none.
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Opens or closes the gate.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation requests and bytes requested while the gate was open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// `alloc`/`alloc_zeroed`/`realloc` calls.
    pub calls: u64,
    /// Bytes requested by them.
    pub bytes: u64,
}

impl AllocCounts {
    /// The counters now.
    #[must_use]
    pub fn now() -> Self {
        AllocCounts {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was requested since `earlier`.
    #[must_use]
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The gate is process-wide and tests run on parallel threads.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn the_gate_decides_whether_requests_are_counted() {
        let _g = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_counting(false);
        let closed = AllocCounts::now();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
        drop(v);
        // Other test threads allocate too, but with the gate closed
        // nothing is counted for anyone.
        assert_eq!(AllocCounts::now(), closed);

        set_counting(true);
        let before = AllocCounts::now();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(10_000));
        let after = AllocCounts::now().since(before);
        set_counting(false);
        drop(v);
        assert!(after.calls >= 1);
        assert!(after.bytes >= 10_000);
    }
}
