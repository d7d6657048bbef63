//! Asserts that a shard costs O(shard), not O(campaign): fingerprinting the
//! campaign, probing a shard's checkpoint and running a one-scenario shard
//! together allocate a bounded number of bytes, however many scenarios the
//! campaign expands to — and so does running that shard batched.
//!
//! The test installs a counting global allocator and sums the bytes the
//! measuring thread requests.  It is deliberately the only test in this
//! binary, and only the measuring thread's allocations count: the
//! harness's main thread may allocate while it waits for the test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use diac_core::replacement::ReplacementSummary;
use scenarios::{
    BackupSizing, CampaignConfig, Execution, ParallelRunner, ScenarioSpace, ShardSpec,
    DEFAULT_BATCH_WIDTH,
};
use tech45::units::{Energy, Seconds};

/// Counts the bytes of every allocation and reallocation the measuring
/// thread routes through the system allocator.
struct CountingAllocator;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count (const-initialised, no
    /// destructor: reading it never allocates).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
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

#[test]
fn a_one_scenario_shard_of_a_huge_campaign_allocates_only_for_itself() {
    // The paper grid, with a replacement-shaped DIAC sizing, at 10 000
    // replicates.
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
    let mut space = ScenarioSpace::paper_grid(vec![
        BackupSizing::BaselineBits(64),
        BackupSizing::DiacReplacement(summary),
    ]);
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
    let before = BYTES.load(Ordering::SeqCst);
    let fingerprint = config.fingerprint();
    let resumed = spec.load_checkpoint(&dir);
    let shard = spec.run_with(&runner, Execution::Scalar);
    let after = BYTES.load(Ordering::SeqCst);
    // The batched engine groups the shard's scenarios into sibling groups;
    // that too must cost O(shard), with no table over the whole space.
    let batched = spec.run_with(&runner, Execution::Batched { width: DEFAULT_BATCH_WIDTH });
    let after_batched = BYTES.load(Ordering::SeqCst);
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
