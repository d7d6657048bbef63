//! Asserts that the synthesis front allocates per design, not per gate:
//! materializing `b15` (19 738 gates) and rewriting it into its replaced
//! design each make a bounded number of allocations, however many gates
//! and names the design holds.  Gate names live in one arena per netlist
//! and the replaced design copies its original's, so neither step
//! allocates per name.
//!
//! The tests install a counting global allocator that counts the
//! allocations the measuring thread requests.  Counts are kept per thread,
//! so each test sees only its own thread's allocations, not the harness's
//! main thread's nor a test running alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use diac_core::replacement::{insert_nvm_boundaries, ReplacementConfig};
use diac_core::tree::OperandTree;
use diac_core::verify::replaced_netlist;
use netlist::suite::BenchmarkSuite;

/// Counts every allocation and reallocation the measuring thread routes
/// through the system allocator.
struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations count, and their number
    /// (const-initialised, no destructors: touching them never allocates).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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

/// The allocations `work` makes on the calling thread, and its result.
fn allocations<T>(work: impl FnOnce() -> T) -> (u64, T) {
    COUNTED.with(|counted| counted.set(true));
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    let after = ALLOCATIONS.with(Cell::get);
    COUNTED.with(|counted| counted.set(false));
    (after - before, result)
}

/// What materializing or rewriting one design may allocate.  Both made
/// two to three allocations per gate while every gate owned its name.
const PER_DESIGN: u64 = 64;

#[test]
fn materializing_b15_allocates_per_design_not_per_gate() {
    let suite = BenchmarkSuite::diac_paper();
    let spec = suite.find("b15").expect("b15 is registered");
    let (made, netlist) = allocations(|| spec.materialize());
    let netlist = netlist.expect("b15 materializes");
    assert_eq!(netlist.gate_count(), 19_738);
    assert!(made <= PER_DESIGN, "materializing b15 made {made} allocations (bound {PER_DESIGN})");
}

#[test]
fn rewriting_b15_allocates_per_design_not_per_gate() {
    let netlist = BenchmarkSuite::diac_paper().materialize("b15").expect("b15 materializes");
    let tree = OperandTree::from_netlist(&netlist).expect("b15 clusters");
    let config = ReplacementConfig::default();
    let enhanced = insert_nvm_boundaries(tree, &config).expect("replacement succeeds");
    let tree = enhanced.tree();
    let (made, replaced) = allocations(|| replaced_netlist(&netlist, tree));
    let replaced = replaced.expect("b15 is rewritten");
    assert!(replaced.gate_count() > netlist.gate_count(), "the rewrite inserts buffers");
    assert!(made <= PER_DESIGN, "rewriting b15 made {made} allocations (bound {PER_DESIGN})");
}
