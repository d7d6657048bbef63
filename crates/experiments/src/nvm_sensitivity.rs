//! Section IV.C — sensitivity of the improvement to the NVM technology.
//!
//! The paper argues that "although varying NVM technology changes the
//! enhancement, the overall improvement trend remains relatively stable",
//! and that a write-hungrier technology such as ReRAM (≈ 4.4× the MRAM write
//! energy) makes the optimized DIAC *more* attractive because it performs the
//! fewest NVM writes.  This experiment re-runs the Fig. 5 pipeline on a
//! subset of circuits for each technology.

use diac_core::schemes::{SchemeContext, SchemeKind};
use diac_core::DiacError;
use netlist::suite::BenchmarkSuite;
use tech45::nvm::NvmTechnology;

use crate::report::Table;
use crate::suite_runner::{run_suite, SuiteRunner};

/// Result for one NVM technology.
#[derive(Debug, Clone, PartialEq)]
pub struct TechnologyRow {
    /// The NVM technology.
    pub technology: NvmTechnology,
    /// Average normalized PDP of optimized DIAC (NV-based = 1.0).
    pub optimized_normalized: f64,
    /// Average improvement of optimized DIAC over NV-based (percent).
    pub improvement_vs_nv_based: f64,
    /// Average improvement of optimized DIAC over plain DIAC (percent).
    pub improvement_vs_diac: f64,
}

/// The sensitivity study result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NvmSensitivity {
    /// One row per technology, in [`NvmTechnology::ALL`] order.
    pub rows: Vec<TechnologyRow>,
}

impl NvmSensitivity {
    /// Looks up one technology's row.
    #[must_use]
    pub fn row(&self, technology: NvmTechnology) -> Option<&TechnologyRow> {
        self.rows.iter().find(|r| r.technology == technology)
    }

    /// The study as a table.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Section IV.C — NVM technology sensitivity (averages over the trimmed suite)",
            &["technology", "optimized DIAC normalized PDP", "vs NV-based (%)", "vs DIAC (%)"],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.technology.to_string(),
                format!("{:.2}", row.optimized_normalized),
                format!("{:.1}", row.improvement_vs_nv_based),
                format!("{:.1}", row.improvement_vs_diac),
            ]);
        }
        table
    }
}

/// Runs the sensitivity study on an explicit suite/context/runner.
///
/// The suite is fanned out across the runner's workers, and every circuit is
/// clustered into its operand tree **once**: only the NVM replacement and
/// the PDP accounting depend on the technology, so all four technologies
/// share one set of [`diac_core::pipeline::CircuitArtifacts`] per circuit.
///
/// # Errors
///
/// Propagates circuit materialisation and scheme-evaluation failures.
pub fn run_on(
    runner: &SuiteRunner,
    suite: &BenchmarkSuite,
    base: &SchemeContext,
) -> Result<NvmSensitivity, DiacError> {
    // Per circuit: normalized (optimized, plain) DIAC PDP for each technology.
    let per_circuit = run_suite(runner, suite, base, |_, pipeline, artifacts| {
        NvmTechnology::ALL
            .iter()
            .map(|&technology| {
                let ctx = pipeline.context().clone().with_nvm(technology);
                let nv = pipeline.evaluate_in(artifacts, &ctx, SchemeKind::NvBased)?;
                let diac = pipeline.evaluate_in(artifacts, &ctx, SchemeKind::Diac)?;
                let opt = pipeline.evaluate_in(artifacts, &ctx, SchemeKind::DiacOptimized)?;
                Ok((
                    opt.breakdown.normalized_pdp(&nv.breakdown),
                    diac.breakdown.normalized_pdp(&nv.breakdown),
                ))
            })
            .collect::<Result<Vec<_>, DiacError>>()
    })?;

    let n = per_circuit.len().max(1) as f64;
    let rows = NvmTechnology::ALL
        .iter()
        .enumerate()
        .map(|(tech_idx, &technology)| {
            let mut norm_sum = 0.0;
            let mut nv_sum = 0.0;
            let mut diac_sum = 0.0;
            for circuit in &per_circuit {
                let (opt, diac) = circuit[tech_idx];
                norm_sum += opt;
                nv_sum += (1.0 - opt) * 100.0;
                diac_sum += (1.0 - opt / diac) * 100.0;
            }
            TechnologyRow {
                technology,
                optimized_normalized: norm_sum / n,
                improvement_vs_nv_based: nv_sum / n,
                improvement_vs_diac: diac_sum / n,
            }
        })
        .collect();
    Ok(NvmSensitivity { rows })
}

/// Runs the sensitivity study over the trimmed benchmark suite for all four
/// technologies, in parallel over the circuits.
///
/// # Errors
///
/// Propagates circuit materialisation and scheme-evaluation failures.
pub fn run() -> Result<NvmSensitivity, DiacError> {
    run_on(&SuiteRunner::new(), &BenchmarkSuite::diac_paper_small(), &crate::default_context())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_technology_keeps_the_improvement_trend() {
        let study = run().unwrap();
        assert_eq!(study.rows.len(), 4);
        for row in &study.rows {
            assert!(
                row.improvement_vs_nv_based > 10.0,
                "{}: optimized DIAC should clearly beat NV-based ({:.1} %)",
                row.technology,
                row.improvement_vs_nv_based
            );
            assert!(row.optimized_normalized < 1.0);
        }
    }

    #[test]
    fn write_hungrier_technologies_widen_the_gap() {
        let study = run().unwrap();
        let mram = study.row(NvmTechnology::Mram).unwrap();
        let reram = study.row(NvmTechnology::Reram).unwrap();
        let pcm = study.row(NvmTechnology::Pcm).unwrap();
        assert!(
            reram.improvement_vs_nv_based > mram.improvement_vs_nv_based,
            "ReRAM {:.1} % vs MRAM {:.1} %",
            reram.improvement_vs_nv_based,
            mram.improvement_vs_nv_based
        );
        assert!(pcm.improvement_vs_nv_based > mram.improvement_vs_nv_based);
    }

    #[test]
    fn the_table_lists_all_four_technologies() {
        let study = run().unwrap();
        let text = study.to_table().to_string();
        for tech in NvmTechnology::ALL {
            assert!(text.contains(tech.name()), "{tech}");
        }
    }
}
