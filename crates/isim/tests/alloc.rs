//! Asserts the executors' allocation contracts: a traced-off run performs
//! **zero heap allocations after setup**, and a batch job's sibling forks
//! share its source's storage instead of copying it.
//!
//! The tests install a counting global allocator and snapshot the
//! allocation count around the call under test.  Counts are kept per
//! thread, so each test sees only its own thread's allocations: the
//! harness's main thread may allocate while it waits for the tests (its
//! channel wait sets up per-thread state on first block), and neither that
//! nor a test running alongside must read as a hot-loop allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ehsim::schedule::Schedule;
use ehsim::source::{HarvestSource, SolarSource, SunTable};
use isim::backup::BackupUnit;
use isim::batch::{BatchExecutor, BatchJob};
use isim::executor::IntermittentExecutor;
use isim::fsm::FsmConfig;
use tech45::nvm::NvmTechnology;
use tech45::units::{Power, Seconds};

/// Counts every allocation and reallocation the measuring thread routes
/// through the system allocator.
struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations count, and how many it made
    /// (const-initialised, no destructors: touching them never allocates).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// The allocations the calling thread has made while counted.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
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
    let before = allocations();
    let stats = exec.run(Seconds::new(4000.0), Seconds::new(0.05));
    let after = allocations();
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

/// The allocations of `run_to_completion` for one job over `source` with
/// `siblings` siblings, which it forks at its first backup.
fn forking_job_allocations<S: HarvestSource + Clone>(source: S, siblings: usize) -> u64 {
    let (duration, dt) = (Seconds::new(2600.0), Seconds::new(0.5));
    let job = BatchJob::new(FsmConfig::paper_default(), source, duration, dt);
    let units = (0..siblings).map(|i| BackupUnit::from_state_bits(16 << i, NvmTechnology::Mram));
    let mut batch = BatchExecutor::new(1);
    batch.enqueue_with_siblings(job, units);

    COUNTED.with(|counted| counted.set(true));
    let before = allocations();
    let stats = batch.run_to_completion();
    let after = allocations();
    COUNTED.with(|counted| counted.set(false));

    // The job read its unit, so every sibling forked, not copied.
    assert_eq!(batch.telemetry().forks, siblings as u64);
    assert_eq!(stats.len(), siblings + 1);
    after - before
}

#[test]
fn sibling_forks_share_the_piecewise_segment_table() {
    // A fork clones its lane's source; a piecewise source's clone shares
    // the table, so six more forks allocate nothing more.
    let fig4 = || Schedule::fig4().to_source();
    assert_eq!(forking_job_allocations(fig4(), 1), forking_job_allocations(fig4(), 7));
}

#[test]
fn sibling_forks_share_the_solar_sun_table() {
    // A 1 000 s day at 0.8 mW backs up within the run (the paper grid's
    // solar points never do in a campaign lifetime), so the siblings fork.
    let (day, dt) = (Seconds::new(1000.0), Seconds::new(0.5));
    let bare = || SolarSource::new(Power::from_milliwatts(0.8), day, 0.3, 3);
    let tables = [SunTable::new(day, dt, 5_200)];
    let tabled = || {
        let mut source = bare();
        source.attach_sun_table(&tables, dt);
        source
    };
    // Reading the shared table allocates nothing a tableless job does not,
    // and six more forks share it rather than copy it.
    for siblings in [1, 7] {
        assert_eq!(
            forking_job_allocations(tabled(), siblings),
            forking_job_allocations(bare(), siblings),
            "{siblings} siblings"
        );
    }
    assert_eq!(forking_job_allocations(tabled(), 1), forking_job_allocations(tabled(), 7));
}
