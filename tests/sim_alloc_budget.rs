//! Allocation budget of the simulator's hot path: the paper-1996 pack for
//! six simulated hours of one day, through the streaming runner into a
//! recorded chain and a live store, counted by a global allocator that
//! tallies every `alloc`, `alloc_zeroed` and `realloc` call.
//!
//! The simulator's event loop owns its effect and FSM-action buffers, the
//! pending flush windows keep their capacity, and received UPDATEs are
//! borrowed rather than copied, so heap traffic is dominated by the
//! tables' own copies. The budget is 1.1 × the calls per committed event
//! measured on that code, so a per-event copy that comes back trips it.
//! Sabotage that trips it: in `Router::handle_message`, hand
//! `process_update` a deep copy of the received UPDATE (`&update.clone()`):
//! 135.9 calls per event against a budget of 134.6.

use iri_scenario::{ChainMode, RunnerOptions, ScenarioPack, ScenarioRunner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

/// Allocation calls so far; a statistic that publishes no other data.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls per committed event, measured on the paper-1996 pack
/// at six hours (2 654 events); debug and release builds count the same.
const MEASURED_CALLS_PER_EVENT: f64 = 122.4;

#[test]
fn paper_1996_allocation_calls_per_event_stay_within_budget() {
    let mut pack =
        ScenarioPack::parse_str(include_str!("../packs/paper_1996.toml")).expect("pack parses");
    pack.run.days = 1;
    let dir = std::env::temp_dir().join(format!("iri-sim-alloc-{}", std::process::id()));
    let chain_dir = iri_scenario::chain_dir_for(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&chain_dir);
    let runner = ScenarioRunner::new(
        pack,
        RunnerOptions {
            jobs: 1,
            hours: Some(6),
            chain: ChainMode::Record,
            ..RunnerOptions::default()
        },
    );
    let before = CALLS.load(Ordering::Relaxed);
    let report = runner.run(&dir).expect("scenario run");
    let calls = CALLS.load(Ordering::Relaxed) - before;
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&chain_dir);

    assert_eq!(report.events_written, 2654, "the golden run changed");
    let per_event = calls as f64 / report.events_written as f64;
    eprintln!("allocation calls per committed event: {per_event:.1}");
    let budget = 1.1 * MEASURED_CALLS_PER_EVENT;
    assert!(
        per_event <= budget,
        "{per_event:.1} allocation calls per committed event, budget {budget:.1} \
         (1.1 × the measured {MEASURED_CALLS_PER_EVENT})"
    );
}
