//! `synthesis_suite`: the 24 registry circuits through the whole Fig. 5
//! flow, with the replacement verified on every circuit.

use std::time::Instant;

use diac_core::pipeline::SynthesisPipeline;
use diac_core::schemes::SchemeKind;
use diac_core::DiacError;
use experiments::improvements::ImprovementSummary;
use experiments::SuiteRunner;
use netlist::equiv::{EquivConfig, EquivReport};
use netlist::suite::{BenchmarkSuite, SuiteKind};

use crate::measure::Checks;
use crate::trace::Recorder;
use crate::workloads::suite_label;
use crate::Workload;

/// What one circuit's pass produces.
#[derive(Debug, PartialEq)]
pub struct CircuitOutcome {
    name: &'static str,
    /// PDP of every scheme in `SchemeKind::ALL` order, as bits.
    pdp_bits: [u64; 4],
    report: EquivReport,
}

/// The registry, the evaluation context and the equivalence configuration.
pub struct SynthesisSuite {
    suite: BenchmarkSuite,
    pipeline: SynthesisPipeline,
    equiv: EquivConfig,
}

impl Workload for SynthesisSuite {
    type Output = Vec<CircuitOutcome>;

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(Self {
            suite: BenchmarkSuite::diac_paper(),
            pipeline: SynthesisPipeline::new(experiments::default_context()),
            equiv: EquivConfig { seed, ..EquivConfig::default() },
        })
    }

    fn units(&self) -> usize {
        self.suite.len()
    }

    fn workers(&self) -> usize {
        1
    }

    fn pass(
        &self,
        rec: &mut Recorder,
        latencies_ms: &mut Vec<f64>,
    ) -> Result<Vec<CircuitOutcome>, String> {
        let ctx = self.pipeline.context();
        let mut outcomes = Vec::with_capacity(self.suite.len());
        for spec in self.suite.circuits() {
            let start = Instant::now();
            let suite = suite_label(spec.suite);
            let outcome = rec
                .span("circuit", |rec| -> Result<CircuitOutcome, DiacError> {
                    let netlist =
                        rec.span(format!("netlist.materialize_s.{suite}"), |_| spec.materialize())?;
                    let artifacts = rec.span(format!("core.prepare_s.{suite}"), |_| {
                        self.pipeline.prepare(&netlist)
                    })?;
                    let comparison = rec.span(format!("core.compare_s.{suite}"), |_| {
                        self.pipeline.compare_all(&artifacts)
                    })?;
                    // Cached here, so the span below times only the
                    // equivalence check.
                    rec.span(format!("core.replace_s.{suite}"), |_| {
                        artifacts.replaced_netlist(ctx)
                    })?;
                    let report = rec.span(format!("netlist.equiv_s.{suite}"), |_| {
                        artifacts.verify_replacement(ctx, &self.equiv)
                    })?;
                    rec.count("netlist.gates", netlist.gate_count() as u64);
                    rec.count("netlist.equiv_vectors", report.vectors);
                    let pdp_bits = SchemeKind::ALL
                        .map(|k| comparison.result(k).map_or(0, |r| r.pdp().to_bits()));
                    Ok(CircuitOutcome { name: spec.name, pdp_bits, report })
                })
                .map_err(|e| format!("{}: {e}", spec.name))?;
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    fn verify(&self, reference: &Vec<CircuitOutcome>, checks: &mut Checks) -> Result<(), String> {
        for outcome in reference {
            checks.expect(outcome.report.equivalent(), || outcome.report.to_string());
        }
        let ctx = self.pipeline.context();
        let fig5 = experiments::fig5::run_on_with(&SuiteRunner::serial(), &self.suite, ctx)
            .map_err(|e| e.to_string())?;
        checks.expect(fig5.rows.len() == reference.len(), || {
            format!("Fig. 5 has {} rows for {} circuits", fig5.rows.len(), reference.len())
        });
        for (row, outcome) in fig5.rows.iter().zip(reference) {
            checks.expect(
                row.circuit == outcome.name && row.pdp.map(f64::to_bits) == outcome.pdp_bits,
                || format!("{}: PDPs differ from fig5::run_on_with", outcome.name),
            );
        }
        let summary = ImprovementSummary::from_fig5(&fig5);
        let pairs: Vec<String> = [SchemeKind::NvBased, SchemeKind::NvClustering, SchemeKind::Diac]
            .into_iter()
            .filter_map(|base| summary.row(SuiteKind::Mcnc, SchemeKind::DiacOptimized, base))
            .map(|row| {
                let paper =
                    row.paper_percent.map_or_else(|| "-".to_string(), |p| format!("{p:.0}"));
                format!("vs {} {:.1} % (paper {paper} %)", row.reference, row.measured_percent)
            })
            .collect();
        checks.note(format!(
            "model error (informational): MCNC Optimized-DIAC PDP improvement {}",
            pairs.join(", ")
        ));
        Ok(())
    }
}
