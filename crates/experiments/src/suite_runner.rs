//! Parallel evaluation harness for the benchmark-suite experiments.
//!
//! Every figure-level experiment walks the same outer loop — materialise a
//! circuit, run the scheme-independent synthesis front, evaluate — and the
//! 24 circuits of the registry are completely independent, so the sweep
//! parallelises embarrassingly well.  [`SuiteRunner`] is the generic
//! order-preserving work-queue [`scenarios::runner::ParallelRunner`], shared
//! with the scenario campaign engine; [`run_suite`] adds the suite-specific
//! plumbing on top of it: circuit materialisation and the shared
//! [`SynthesisPipeline`] front.
//!
//! Results always come back in item order regardless of which worker
//! finished first, so parallel runs are byte-identical to serial ones
//! (`runner::tests::serial_and_parallel_results_are_identical` in
//! `scenarios` and `fig5::tests::serial_and_parallel_sweeps_are_identical`
//! pin it).

use diac_core::pipeline::{CircuitArtifacts, SynthesisPipeline};
use diac_core::schemes::SchemeContext;
use diac_core::DiacError;
use netlist::suite::{BenchmarkSuite, CircuitSpec};

/// The runner that fans the circuit sweeps out across OS threads.
pub use scenarios::ParallelRunner as SuiteRunner;

/// Fans one benchmark suite out across the runner's workers: every circuit
/// is materialised and run through the scheme-independent
/// [`SynthesisPipeline::prepare`] front exactly once, then handed to `f`
/// together with the pipeline.  Results come back in registry order.
///
/// # Errors
///
/// Propagates materialisation, preparation and evaluation failures.
pub fn run_suite<T, F>(
    runner: &SuiteRunner,
    suite: &BenchmarkSuite,
    ctx: &SchemeContext,
    f: F,
) -> Result<Vec<T>, DiacError>
where
    T: Send,
    F: Fn(&CircuitSpec, &SynthesisPipeline, &CircuitArtifacts<'_>) -> Result<T, DiacError> + Sync,
{
    let pipeline = SynthesisPipeline::new(ctx.clone());
    runner.try_map(suite.circuits(), |_, spec| {
        let netlist = spec.materialize()?;
        let artifacts = pipeline.prepare(&netlist)?;
        f(spec, &pipeline, &artifacts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_suite_compares_the_whole_registry_in_order() {
        let suite = BenchmarkSuite::diac_paper_small();
        let comparisons =
            run_suite(&SuiteRunner::new(), &suite, &SchemeContext::default(), |_, p, a| {
                p.compare_all(a)
            })
            .unwrap();
        assert_eq!(comparisons.len(), suite.len());
        for (comparison, spec) in comparisons.iter().zip(suite.iter()) {
            assert_eq!(comparison.circuit, spec.name);
            assert_eq!(comparison.results.len(), 4);
        }
    }
}
