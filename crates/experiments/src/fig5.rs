//! Fig. 5 — normalized PDP of the four schemes over the benchmark circuits.
//!
//! For every circuit of the ISCAS-89 / ITC-99 / MCNC registry the four
//! schemes (NV-based, NV-Clustering, DIAC, Optimized DIAC) are evaluated with
//! the shared PDP model and normalised against the NV-based baseline — the
//! exact quantity plotted in the paper's Fig. 5.

use diac_core::schemes::{SchemeComparison, SchemeContext, SchemeKind};
use diac_core::DiacError;
use netlist::suite::{BenchmarkSuite, SuiteKind};

use crate::report::{norm, Table};
use crate::suite_runner::{run_suite, SuiteRunner};

/// One row of the Fig. 5 data: one circuit, four normalized PDP values.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Circuit name.
    pub circuit: String,
    /// Benchmark family.
    pub suite: SuiteKind,
    /// Combinational gate count (as listed in the figure's table).
    pub gates: usize,
    /// Normalized PDP per scheme, in [`SchemeKind::ALL`] order
    /// (NV-based is 1.0 by construction).
    pub normalized: [f64; 4],
    /// Absolute PDP per scheme (joule-seconds).
    pub pdp: [f64; 4],
}

impl Fig5Row {
    /// Normalized PDP of one scheme.
    #[must_use]
    pub fn normalized_of(&self, kind: SchemeKind) -> f64 {
        let idx = SchemeKind::ALL.iter().position(|&k| k == kind).expect("kind in ALL");
        self.normalized[idx]
    }
}

/// The full Fig. 5 dataset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fig5Result {
    /// One row per circuit, in registry order.
    pub rows: Vec<Fig5Row>,
}

impl Fig5Result {
    /// Rows belonging to one benchmark family.
    pub fn of_suite(&self, suite: SuiteKind) -> impl Iterator<Item = &Fig5Row> {
        self.rows.iter().filter(move |r| r.suite == suite)
    }

    /// Average PDP improvement (percent) of scheme `a` over scheme `b` across
    /// one family.
    #[must_use]
    pub fn average_improvement(&self, suite: SuiteKind, a: SchemeKind, b: SchemeKind) -> f64 {
        let values: Vec<f64> = self
            .of_suite(suite)
            .map(|r| (1.0 - r.normalized_of(a) / r.normalized_of(b)) * 100.0)
            .collect();
        if values.is_empty() {
            return 0.0;
        }
        values.iter().sum::<f64>() / values.len() as f64
    }

    /// The figure as a table (one row per circuit).
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Fig. 5 — normalized PDP (NV-based = 1.00)",
            &["circuit", "suite", "gates", "NV-based", "NV-Clustering", "DIAC", "Optimized DIAC"],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.circuit.clone(),
                row.suite.to_string(),
                row.gates.to_string(),
                norm(row.normalized[0]),
                norm(row.normalized[1]),
                norm(row.normalized[2]),
                norm(row.normalized[3]),
            ]);
        }
        table
    }
}

/// Converts a per-circuit comparison into a Fig. 5 row.
fn row_from(comparison: &SchemeComparison, suite: SuiteKind, gates: usize) -> Fig5Row {
    let mut normalized = [0.0; 4];
    let mut pdp = [0.0; 4];
    for (i, kind) in SchemeKind::ALL.iter().enumerate() {
        normalized[i] = comparison.normalized_pdp(*kind);
        pdp[i] = comparison.result(*kind).map_or(0.0, |r| r.pdp());
    }
    Fig5Row { circuit: comparison.circuit.clone(), suite, gates, normalized, pdp }
}

/// Runs Fig. 5 over an explicit benchmark suite with an explicit runner —
/// every circuit goes through the shared synthesis pipeline once, fanned out
/// across the runner's workers, and rows come back in registry order.
///
/// # Errors
///
/// Propagates circuit materialisation and scheme-evaluation failures.
pub fn run_on_with(
    runner: &SuiteRunner,
    suite: &BenchmarkSuite,
    ctx: &SchemeContext,
) -> Result<Fig5Result, DiacError> {
    let rows = run_suite(runner, suite, ctx, |spec, pipeline, artifacts| {
        let comparison = pipeline.compare_all(artifacts)?;
        Ok(row_from(&comparison, spec.suite, spec.gates))
    })?;
    Ok(Fig5Result { rows })
}

/// Runs Fig. 5 over an explicit benchmark suite on all cores.
///
/// # Errors
///
/// Propagates circuit materialisation and scheme-evaluation failures.
pub fn run_on(suite: &BenchmarkSuite, ctx: &SchemeContext) -> Result<Fig5Result, DiacError> {
    run_on_with(&SuiteRunner::new(), suite, ctx)
}

/// Runs Fig. 5 over the full 24-circuit registry with the measured
/// intermittency profile, fanned out across all cores by the parallel
/// [`SuiteRunner`].
///
/// # Errors
///
/// Propagates circuit materialisation and scheme-evaluation failures.
pub fn run() -> Result<Fig5Result, DiacError> {
    run_on(&BenchmarkSuite::diac_paper(), &crate::default_context())
}

/// Runs Fig. 5 over the trimmed (≤ 1000 gate) registry — used by tests and
/// benches where rebuilding the multi-thousand-gate trees on every iteration
/// would dominate the run time.
///
/// # Errors
///
/// Propagates circuit materialisation and scheme-evaluation failures.
pub fn run_small() -> Result<Fig5Result, DiacError> {
    run_on(&BenchmarkSuite::diac_paper_small(), &crate::default_context())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_circuit_gets_a_row_and_the_baseline_is_one() {
        let result = run_small().unwrap();
        assert!(result.rows.len() >= 15);
        for row in &result.rows {
            assert!((row.normalized_of(SchemeKind::NvBased) - 1.0).abs() < 1e-9, "{}", row.circuit);
            assert!(row.pdp.iter().all(|&p| p > 0.0), "{}", row.circuit);
        }
    }

    #[test]
    fn the_paper_ordering_holds_for_every_circuit() {
        let result = run_small().unwrap();
        for row in &result.rows {
            let nv = row.normalized_of(SchemeKind::NvBased);
            let cl = row.normalized_of(SchemeKind::NvClustering);
            let diac = row.normalized_of(SchemeKind::Diac);
            let opt = row.normalized_of(SchemeKind::DiacOptimized);
            assert!(opt <= diac + 1e-9, "{}: opt {} vs diac {}", row.circuit, opt, diac);
            assert!(diac < cl, "{}: diac {} vs clustering {}", row.circuit, diac, cl);
            assert!(cl < nv, "{}: clustering {} vs nv {}", row.circuit, cl, nv);
        }
    }

    #[test]
    fn per_suite_averages_are_in_a_plausible_band() {
        let result = run_small().unwrap();
        for suite in [SuiteKind::Iscas89, SuiteKind::Mcnc] {
            let diac: Vec<f64> =
                result.of_suite(suite).map(|r| r.normalized_of(SchemeKind::Diac)).collect();
            let avg_diac = diac.iter().sum::<f64>() / diac.len() as f64;
            assert!(
                avg_diac > 0.3 && avg_diac < 0.95,
                "{suite}: average normalized DIAC PDP {avg_diac}"
            );
            let improvement =
                result.average_improvement(suite, SchemeKind::Diac, SchemeKind::NvBased);
            assert!(
                improvement > 10.0 && improvement < 70.0,
                "{suite}: DIAC vs NV-based improvement {improvement}"
            );
        }
    }

    #[test]
    fn serial_and_parallel_sweeps_are_identical() {
        let suite = BenchmarkSuite::diac_paper_small();
        let ctx = SchemeContext::default();
        let serial = run_on_with(&SuiteRunner::serial(), &suite, &ctx).unwrap();
        let parallel = run_on_with(&SuiteRunner::new(), &suite, &ctx).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn the_table_has_one_row_per_circuit() {
        let result = run_small().unwrap();
        let table = result.to_table();
        assert_eq!(table.len(), result.rows.len());
        assert!(table.to_markdown().contains("Optimized DIAC"));
    }
}
