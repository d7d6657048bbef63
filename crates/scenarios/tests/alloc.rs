//! Asserts that a shard costs O(shard), not O(campaign): fingerprinting the
//! campaign, probing a shard's checkpoint and running a one-scenario shard
//! together allocate a bounded number of bytes, however many scenarios the
//! campaign expands to — and so does running that shard batched.  Also
//! asserts that schedule-driven scenarios share their schedule's segment
//! table instead of copying it.
//!
//! The tests install a counting global allocator that sums the bytes and
//! the allocations the measuring thread requests.  Counts are kept per
//! thread, so each test sees only its own thread's allocations, not the
//! harness's main thread's nor a test running alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use diac_core::replacement::ReplacementSummary;
use scenarios::{
    BackupSizing, CampaignConfig, Execution, ParallelRunner, ScenarioSpace, ShardSpec,
    SourceFamily, DEFAULT_BATCH_WIDTH,
};
use tech45::units::{Energy, Seconds};

/// Counts the bytes of every allocation and reallocation the measuring
/// thread routes through the system allocator, and their number.
struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations count, and their bytes and number
    /// (const-initialised, no destructors: touching them never allocates).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// The bytes the calling thread has requested while counted.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// The allocations the calling thread has made while counted.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What one shard's fingerprint, checkpoint probe and run may allocate.  A
/// scenario needs a few hundred bytes, so a campaign-sized expansion of the
/// 2 160 000 scenarios below would cost hundreds of megabytes.
const SHARD_BYTES: u64 = 1 << 20;

/// The paper grid with a baseline and a replacement-shaped DIAC sizing.
fn paper_grid() -> ScenarioSpace {
    let summary = ReplacementSummary {
        boundaries: 4,
        total_boundary_bits: 48,
        average_boundary_bits: 12.0,
        energy_budget: Energy::from_millijoules(1.0),
        max_unsaved_energy: Energy::from_millijoules(1.0),
        backup_energy: Energy::ZERO,
        backup_latency: Seconds::ZERO,
        restore_energy: Energy::ZERO,
        restore_latency: Seconds::ZERO,
    };
    ScenarioSpace::paper_grid(vec![
        BackupSizing::BaselineBits(64),
        BackupSizing::DiacReplacement(summary),
    ])
}

#[test]
fn a_one_scenario_shard_of_a_huge_campaign_allocates_only_for_itself() {
    // The paper grid, with a replacement-shaped DIAC sizing, at 10 000
    // replicates.
    let mut space = paper_grid();
    space.replicates = 10_000;
    let config = CampaignConfig::new(space, 0xD1AC);
    assert_eq!(config.space.len(), 2_160_000);
    let spec = ShardSpec::new(config.clone(), 0, config.space.len());
    assert_eq!(spec.range(), 0..1);
    let dir = std::env::temp_dir().join(format!("diac-alloc-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("empty checkpoint directory");
    let runner = ParallelRunner::serial();

    COUNTED.with(|counted| counted.set(true));
    let before = bytes();
    let fingerprint = config.fingerprint();
    let resumed = spec.load_checkpoint(&dir);
    let shard = spec.run_with(&runner, Execution::Scalar);
    let after = bytes();
    // The batched engine groups the shard's scenarios into sibling groups;
    // that too must cost O(shard), with no table over the whole space.
    let batched = spec.run_with(&runner, Execution::Batched { width: DEFAULT_BATCH_WIDTH });
    let after_batched = bytes();
    COUNTED.with(|counted| counted.set(false));
    let _ = std::fs::remove_dir_all(&dir);

    let bytes = after - before;
    assert!(
        bytes < SHARD_BYTES,
        "one shard of {} scenarios allocated {bytes} bytes (bound {SHARD_BYTES})",
        config.space.len()
    );
    let batched_bytes = after_batched - after;
    assert!(
        batched_bytes < SHARD_BYTES,
        "one batched shard of {} scenarios allocated {batched_bytes} bytes (bound {SHARD_BYTES})",
        config.space.len()
    );
    // The calls did their work, not a no-op.
    assert!(resumed.is_none(), "the directory holds no checkpoint");
    assert_eq!(shard.runs(), 1);
    assert_eq!(shard.fingerprint(), fingerprint);
    assert_eq!(batched, shard, "the batched shard matches the scalar one");
}

#[test]
fn expanding_schedule_scenarios_allocates_only_the_scenario_list() {
    // The sources are the outermost axis and the paper grid lists its two
    // schedules last, so its last sources' blocks of ids are all
    // schedule-driven.
    let mut space = paper_grid();
    space.replicates = 4;
    let per_source = space.len() / space.sources.len();
    let first = space.sources.iter().position(|s| s.family() == SourceFamily::Schedule);
    let range = first.expect("the paper grid has schedules") * per_source..space.len();

    COUNTED.with(|counted| counted.set(true));
    let before = allocations();
    let scenarios = space.scenarios_in(0xD1AC, range.clone());
    let after = allocations();
    COUNTED.with(|counted| counted.set(false));

    assert_eq!(after - before, 1, "the Vec<Scenario> and nothing per scenario");
    assert_eq!(scenarios.len(), range.len());
    assert!(scenarios.iter().all(|s| s.source.family() == SourceFamily::Schedule));
}
