//! The generic order-preserving parallel work-queue.
//!
//! PR 1 introduced this pattern inside `experiments::SuiteRunner` for the
//! circuit sweeps; scenario campaigns need the identical shape — hundreds of
//! independent `(config, seed)` runs fanned out across cores with results
//! returned in item order — so the queue now lives here, generic over the
//! item, result and error types, and `SuiteRunner` delegates to it.
//!
//! Workers claim item indices from one atomic counter and park each result
//! in its own slot, so results always come back in item order regardless of
//! which worker finished first: parallel runs are byte-identical to serial
//! ones.  The implementation is plain `std::thread::scope` because the build
//! environment has no access to `rayon`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Fans independent work out across OS threads, preserving item order.
#[derive(Debug, Clone)]
pub struct ParallelRunner {
    threads: usize,
}

impl Default for ParallelRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelRunner {
    /// A runner using every available core.
    #[must_use]
    pub fn new() -> Self {
        let threads = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self { threads }
    }

    /// A runner that stays on the calling thread (the serial baseline).
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// A runner with an explicit worker count (at least one).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// Number of worker threads the runner will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
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
        self.try_map(items, |index, item| Ok::<T, std::convert::Infallible>(f(index, item)))
            .unwrap_or_else(|e| match e {})
    }

    /// Maps a fallible `f` over `items` in parallel; on failure, the
    /// lowest-indexed error among the items that ran is returned.  Workers
    /// stop claiming new items once any item has failed, so a failing sweep
    /// does not pay for the whole space (in-flight items still run to
    /// completion).
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed error produced by `f`.
    pub fn try_map<I, T, E, F>(&self, items: &[I], f: F) -> Result<Vec<T>, E>
    where
        I: Sync,
        T: Send,
        E: Send,
        F: Fn(usize, &I) -> Result<T, E> + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<Result<T, E>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for _ in 0..self.threads.min(items.len()) {
                scope.spawn(|| loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else { break };
                    let value = f(index, item);
                    if value.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    *slots[index].lock().expect("result slot lock") = Some(value);
                });
            }
        });
        let mut values = Vec::with_capacity(items.len());
        let mut first_error = None;
        for slot in slots {
            match slot.into_inner().expect("result slot lock") {
                Some(Ok(value)) => values.push(value),
                Some(Err(error)) => {
                    first_error.get_or_insert(error);
                }
                // Unclaimed slots only exist after a failure stopped the
                // workers early.
                None => {}
            }
        }
        match first_error {
            Some(error) => Err(error),
            None => {
                assert_eq!(values.len(), items.len(), "every index was claimed");
                Ok(values)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..128).collect();
        let runner = ParallelRunner::with_threads(8);
        let doubled = runner.map(&items, |index, &item| {
            assert_eq!(index, item);
            item * 2
        });
        assert_eq!(doubled, (0..128).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let items: Vec<f64> = (1..=50).map(f64::from).collect();
        let serial = ParallelRunner::serial().map(&items, |_, &x| (x.ln() * 1e9).to_bits());
        let parallel =
            ParallelRunner::with_threads(7).map(&items, |_, &x| (x.ln() * 1e9).to_bits());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn try_map_reports_the_earliest_error() {
        let items: Vec<usize> = (0..32).collect();
        let result = ParallelRunner::with_threads(4).try_map(&items, |_, &item| {
            if item % 7 == 5 {
                Err(format!("item {item}"))
            } else {
                Ok(item)
            }
        });
        assert_eq!(result.unwrap_err(), "item 5");
    }

    #[test]
    fn a_failure_stops_workers_from_claiming_further_items() {
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10_000).collect();
        let result = ParallelRunner::with_threads(4).try_map(&items, |_, &item| {
            calls.fetch_add(1, Ordering::Relaxed);
            if item == 0 {
                Err("stop")
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
        assert_eq!(ParallelRunner::with_threads(0).threads(), 1);
        assert_eq!(ParallelRunner::serial().threads(), 1);
        assert!(ParallelRunner::new().threads() >= 1);
        assert!(ParallelRunner::default().threads() >= 1);
    }
}
