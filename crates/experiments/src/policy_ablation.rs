//! Ablation — Policy1 vs Policy2 vs Policy3.
//!
//! The paper positions Policy3 as the compromise ("offers better performance
//! and resiliency than Policies 1 and 2, respectively") and uses it for the
//! whole evaluation.  This ablation re-runs the DIAC flow under each policy
//! on a handful of circuits and reports the operand count, the number of NVM
//! boundaries (resiliency proxy) and the optimized-DIAC PDP (efficiency).

use diac_core::pipeline::SynthesisPipeline;
use diac_core::policy::Policy;
use diac_core::schemes::{SchemeContext, SchemeKind};
use diac_core::DiacError;
use netlist::suite::BenchmarkSuite;

use crate::report::Table;
use crate::suite_runner::SuiteRunner;

/// Result of one (circuit, policy) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Circuit name.
    pub circuit: String,
    /// The policy applied.
    pub policy: Policy,
    /// NVM boundaries inserted by the replacement step.
    pub boundaries: usize,
    /// Optimized-DIAC PDP (joule-seconds).
    pub pdp: f64,
    /// Optimized-DIAC PDP normalized to the NV-based baseline.
    pub normalized_pdp: f64,
}

/// The whole ablation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyAblation {
    /// One row per (circuit, policy).
    pub rows: Vec<PolicyRow>,
}

impl PolicyAblation {
    /// The ablation as a table.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Ablation — restructuring policy vs. boundaries and PDP",
            &["circuit", "policy", "boundaries", "normalized PDP"],
        );
        for row in &self.rows {
            table.push_row(vec![
                row.circuit.clone(),
                row.policy.to_string(),
                row.boundaries.to_string(),
                format!("{:.3}", row.normalized_pdp),
            ]);
        }
        table
    }
}

/// Default circuit selection for the ablation: one small, one medium and one
/// larger circuit per family flavour.
#[must_use]
pub fn default_circuits() -> Vec<&'static str> {
    vec!["s298", "s400", "s510", "mcnc_scramble", "mcnc_bus_ctrl"]
}

/// Runs the ablation on the given circuits with an explicit runner.
///
/// Circuits are fanned out across the runner's workers; within one circuit
/// all three policies share the clustered operand tree through one set of
/// [`diac_core::pipeline::CircuitArtifacts`].
///
/// # Errors
///
/// Propagates circuit materialisation and scheme-evaluation failures.
pub fn run_with(
    runner: &SuiteRunner,
    circuits: &[&str],
    base: &SchemeContext,
) -> Result<PolicyAblation, DiacError> {
    let suite = BenchmarkSuite::diac_paper();
    let pipeline = SynthesisPipeline::new(base.clone());
    let per_circuit = runner.try_map(circuits, |_, &name| {
        let netlist = suite.materialize(name)?;
        let artifacts = pipeline.prepare(&netlist)?;
        Policy::ALL
            .iter()
            .map(|&policy| {
                let ctx = base.clone().with_policy(policy);
                let comparison = pipeline.compare_all_in(&artifacts, &ctx)?;
                let opt = comparison
                    .result(SchemeKind::DiacOptimized)
                    .expect("optimized DIAC result present");
                Ok(PolicyRow {
                    circuit: name.to_string(),
                    policy,
                    boundaries: opt.replacement.map_or(0, |r| r.boundaries),
                    pdp: opt.pdp(),
                    normalized_pdp: comparison.normalized_pdp(SchemeKind::DiacOptimized),
                })
            })
            .collect::<Result<Vec<_>, DiacError>>()
    })?;
    Ok(PolicyAblation { rows: per_circuit.into_iter().flatten().collect() })
}

/// Runs the ablation on the given circuits, in parallel over the circuits.
///
/// # Errors
///
/// Propagates circuit materialisation and scheme-evaluation failures.
pub fn run_on(circuits: &[&str], base: &SchemeContext) -> Result<PolicyAblation, DiacError> {
    run_with(&SuiteRunner::new(), circuits, base)
}

/// Runs the ablation on the default circuit selection with the measured
/// intermittency profile.
///
/// # Errors
///
/// Propagates circuit materialisation and scheme-evaluation failures.
pub fn run() -> Result<PolicyAblation, DiacError> {
    run_on(&default_circuits(), &crate::default_context())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean of `field` over one policy's rows.
    fn average(
        ablation: &PolicyAblation,
        policy: Policy,
        field: impl Fn(&PolicyRow) -> f64,
    ) -> f64 {
        let values: Vec<f64> =
            ablation.rows.iter().filter(|r| r.policy == policy).map(field).collect();
        values.iter().sum::<f64>() / values.len() as f64
    }

    #[test]
    fn every_circuit_policy_pair_is_evaluated() {
        let circuits = ["s298", "s400"];
        let ablation = run_on(&circuits, &SchemeContext::default()).unwrap();
        assert_eq!(ablation.rows.len(), circuits.len() * Policy::ALL.len());
        for row in &ablation.rows {
            assert!(row.pdp > 0.0);
            assert!(row.normalized_pdp > 0.0 && row.normalized_pdp < 1.0);
            assert!(row.boundaries > 0);
        }
    }

    #[test]
    fn policy1_does_not_lose_boundaries_compared_to_policy2() {
        // Policy1 only splits operands and Policy2 only merges them, so the
        // split-first policy should never end up with noticeably fewer NVM
        // boundaries than the merge-first one (small ties are fine because
        // the budget is a fraction of the unchanged total energy).
        let ablation = run_on(&["s400", "s510"], &SchemeContext::default()).unwrap();
        let p1 = average(&ablation, Policy::Policy1, |r| r.boundaries as f64);
        let p2 = average(&ablation, Policy::Policy2, |r| r.boundaries as f64);
        assert!(p1 + 1.5 >= p2, "Policy1 {p1} vs Policy2 {p2}");
        assert!(p1 > 0.0 && p2 > 0.0);
    }

    #[test]
    fn all_policies_beat_the_nv_baseline() {
        let ablation = run_on(&["s344"], &SchemeContext::default()).unwrap();
        for policy in Policy::ALL {
            let avg = average(&ablation, policy, |r| r.normalized_pdp);
            assert!(avg < 1.0, "{policy}: {avg}");
        }
    }

    #[test]
    fn table_lists_every_row() {
        let ablation = run_on(&["s298"], &SchemeContext::default()).unwrap();
        assert_eq!(ablation.to_table().len(), 3);
    }
}
