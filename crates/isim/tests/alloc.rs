//! Asserts the executor's allocation contract: a traced-off run performs
//! **zero heap allocations after setup**.
//!
//! The test installs a counting global allocator and snapshots the
//! allocation count around `IntermittentExecutor::run` (which drives the
//! tick loop against the no-op `NullSink`).  It is deliberately the only
//! test in this binary, and only the measuring thread's allocations count:
//! the harness's main thread may allocate while it waits for the test (its
//! channel wait sets up per-thread state on first block), which must not
//! read as a hot-loop allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ehsim::schedule::Schedule;
use isim::executor::IntermittentExecutor;
use isim::fsm::FsmConfig;
use tech45::units::Seconds;

/// Counts every allocation and reallocation the measuring thread routes
/// through the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count (const-initialised, no
    /// destructor: reading it never allocates).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn an_untraced_run_allocates_nothing_after_setup() {
    // Setup: schedule → piecewise source (allocates), FSM, capacitor.
    let mut exec = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::fig4());

    COUNTED.with(|counted| counted.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let stats = exec.run(Seconds::new(4000.0), Seconds::new(0.05));
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTED.with(|counted| counted.set(false));

    assert_eq!(
        after - before,
        0,
        "the untraced executor hot loop must not touch the heap ({} allocations observed)",
        after - before
    );
    // The run actually exercised the interesting paths, not a no-op.
    assert!(stats.backups >= 1, "{stats}");
    assert!(stats.off_events >= 1, "{stats}");
    assert!(stats.samples_sensed >= 1, "{stats}");
}
