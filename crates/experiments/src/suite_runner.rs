//! Parallel evaluation harness for the benchmark-suite experiments.
//!
//! Every figure-level experiment walks the same outer loop — materialise a
//! circuit, run the scheme-independent synthesis front, evaluate — and the
//! 24 circuits of the registry are completely independent, so the sweep
//! parallelises embarrassingly well.  [`SuiteRunner`] fans that loop out
//! across cores on the generic order-preserving work-queue of
//! [`scenarios::runner::ParallelRunner`] (where the pattern introduced here
//! in PR 1 now lives, shared with the scenario campaign engine) and adds the
//! suite-specific plumbing: circuit materialisation and the shared
//! [`SynthesisPipeline`] front.
//!
//! Results always come back in item order regardless of which worker
//! finished first, so parallel runs are byte-identical to serial ones
//! (`serial_and_parallel_runners_agree` here and
//! `fig5::tests::serial_and_parallel_sweeps_are_identical` pin it).

use diac_core::pipeline::{CircuitArtifacts, SynthesisPipeline};
use diac_core::schemes::SchemeContext;
use diac_core::DiacError;
use netlist::suite::{BenchmarkSuite, CircuitSpec};
use scenarios::runner::ParallelRunner;

/// Fans independent evaluation work out across OS threads.
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    inner: ParallelRunner,
}

impl Default for SuiteRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SuiteRunner {
    /// A runner using every available core.
    #[must_use]
    pub fn new() -> Self {
        Self { inner: ParallelRunner::new() }
    }

    /// A runner that stays on the calling thread (the serial baseline).
    #[must_use]
    pub fn serial() -> Self {
        Self { inner: ParallelRunner::serial() }
    }

    /// A runner with an explicit worker count (at least one).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { inner: ParallelRunner::with_threads(threads) }
    }

    /// Number of worker threads the runner will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.inner.threads()
    }

    /// Maps `f` over `items` in parallel, preserving item order in the
    /// result.  `f` receives the item index alongside the item.
    ///
    /// # Panics
    ///
    /// Panics if `f` panics on any item (the panic is propagated once all
    /// workers have stopped).
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.inner.map(items, f)
    }

    /// Maps a fallible `f` over `items` in parallel; on failure, the
    /// lowest-indexed error among the items that ran is returned.  Workers
    /// stop claiming new items once any item has failed, so — like the
    /// serial loop this replaces — a failing sweep does not pay for the
    /// whole registry (in-flight items still run to completion).
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed error produced by `f`.
    pub fn try_map<I, T, F>(&self, items: &[I], f: F) -> Result<Vec<T>, DiacError>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> Result<T, DiacError> + Sync,
    {
        self.inner.try_map(items, f)
    }

    /// Fans one benchmark suite out across the workers: every circuit is
    /// materialised and run through the scheme-independent
    /// [`SynthesisPipeline::prepare`] front exactly once, then handed to `f`
    /// together with the pipeline.  Results come back in registry order.
    ///
    /// # Errors
    ///
    /// Propagates materialisation, preparation and evaluation failures.
    pub fn run_suite<T, F>(
        &self,
        suite: &BenchmarkSuite,
        ctx: &SchemeContext,
        f: F,
    ) -> Result<Vec<T>, DiacError>
    where
        T: Send,
        F: Fn(&CircuitSpec, &SynthesisPipeline, &CircuitArtifacts<'_>) -> Result<T, DiacError>
            + Sync,
    {
        let pipeline = SynthesisPipeline::new(ctx.clone());
        self.try_map(suite.circuits(), |_, spec| {
            let netlist = spec.materialize()?;
            let artifacts = pipeline.prepare(&netlist)?;
            f(spec, &pipeline, &artifacts)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let runner = SuiteRunner::with_threads(8);
        let doubled = runner.map(&items, |index, &item| {
            assert_eq!(index, item);
            item * 2
        });
        assert_eq!(doubled, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_uses_every_worker_exactly_once_per_item() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u32> = (0..33).collect();
        SuiteRunner::with_threads(4).map(&items, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn serial_and_parallel_runners_agree() {
        let items: Vec<f64> = (1..=20).map(f64::from).collect();
        let serial = SuiteRunner::serial().map(&items, |_, &x| (x.sqrt() * 1e6).to_bits());
        let parallel = SuiteRunner::with_threads(6).map(&items, |_, &x| (x.sqrt() * 1e6).to_bits());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn try_map_reports_the_earliest_error() {
        let items: Vec<usize> = (0..16).collect();
        let result = SuiteRunner::with_threads(4).try_map(&items, |_, &item| {
            if item % 5 == 3 {
                Err(DiacError::InvalidConfig { message: format!("item {item}") })
            } else {
                Ok(item)
            }
        });
        assert_eq!(result.unwrap_err(), DiacError::InvalidConfig { message: "item 3".to_string() });
    }

    #[test]
    fn a_failure_stops_workers_from_claiming_further_items() {
        // Serial: the claim is exact — nothing after the failing item runs.
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..16).collect();
        let result = SuiteRunner::serial().try_map(&items, |_, &item| {
            calls.fetch_add(1, Ordering::Relaxed);
            if item == 3 {
                Err(DiacError::InvalidConfig { message: "stop".to_string() })
            } else {
                Ok(item)
            }
        });
        assert!(result.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 4);

        // Parallel: in-flight items may still finish, but a failing first
        // item must prevent the tail of a long sweep from being claimed.
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10_000).collect();
        let result = SuiteRunner::with_threads(4).try_map(&items, |_, &item| {
            calls.fetch_add(1, Ordering::Relaxed);
            if item == 0 {
                Err(DiacError::InvalidConfig { message: "stop".to_string() })
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok(item)
            }
        });
        assert!(result.is_err());
        assert!(
            calls.load(Ordering::Relaxed) < items.len(),
            "the sweep should abort early, ran {} of {} items",
            calls.load(Ordering::Relaxed),
            items.len()
        );
    }

    #[test]
    fn thread_counts_are_clamped_to_at_least_one() {
        assert_eq!(SuiteRunner::with_threads(0).threads(), 1);
        assert_eq!(SuiteRunner::serial().threads(), 1);
        assert!(SuiteRunner::new().threads() >= 1);
    }

    #[test]
    fn run_suite_compares_the_whole_registry_in_order() {
        let suite = BenchmarkSuite::diac_paper_small();
        let comparisons = SuiteRunner::new()
            .run_suite(&suite, &SchemeContext::default(), |_, p, a| p.compare_all(a))
            .unwrap();
        assert_eq!(comparisons.len(), suite.len());
        for (comparison, spec) in comparisons.iter().zip(suite.iter()) {
            assert_eq!(comparison.circuit, spec.name);
            assert_eq!(comparison.results.len(), 4);
        }
    }
}
