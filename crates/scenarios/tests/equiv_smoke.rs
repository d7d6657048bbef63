//! Equivalence smoke: the seeded functional-equivalence pass over the
//! full 24-circuit evaluation suite.
//!
//! Every circuit is materialised, run through the DIAC replacement
//! procedure, rewritten with NV-boundary buffers, and driven against its
//! original with common-random-number vectors through the 64-lane bit
//! simulator.  Any mismatch fails with the exact counterexample pattern.

use scenarios::{run_equivalence_axis, EquivalenceAxis, ParallelRunner};

#[test]
fn the_full_suite_survives_replacement_functionally() {
    let axis = EquivalenceAxis::paper_suite(0xD1AC_2024);
    let smoke = run_equivalence_axis(&ParallelRunner::new(), &axis)
        .expect("every registry circuit must materialise and replace");
    println!("{smoke}");
    assert_eq!(smoke.outcomes.len(), 24);
    assert!(
        smoke.all_equivalent(),
        "replaced designs diverged on: {:?}\n{smoke}",
        smoke.failures()
    );
    // Every circuit actually received NV boundaries (an empty rewrite would
    // make the check vacuous).
    for outcome in &smoke.outcomes {
        assert!(outcome.nv_buffers > 0, "{} received no NV buffers", outcome.circuit);
        assert_eq!(outcome.vectors, axis.equiv_config(0).vectors());
    }
}

#[test]
fn the_pass_is_reproducible_from_its_seed() {
    let axis = EquivalenceAxis::small_suite(7);
    let a = run_equivalence_axis(&ParallelRunner::serial(), &axis).unwrap();
    let b = run_equivalence_axis(&ParallelRunner::with_threads(8), &axis).unwrap();
    assert_eq!(a, b, "serial and parallel sweeps must agree bit-for-bit");
}
