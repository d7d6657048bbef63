//! Design-space exploration driver.
//!
//! The paper notes that "incorporating tree-based representations, different
//! designs, and power failure scenarios will exponentially expand the design
//! space", motivating an automated tool.  The [`Explorer`] sweeps the knobs
//! that matter — restructuring policy, replacement budget, NVM technology —
//! evaluates the optimized DIAC scheme for every combination, and reports the
//! efficiency/resiliency Pareto front.

use std::fmt;

use netlist::Netlist;
use tech45::nvm::NvmTechnology;

use crate::error::DiacError;
use crate::pipeline::{CircuitArtifacts, SynthesisPipeline};
use crate::policy::Policy;
use crate::schemes::{SchemeContext, SchemeKind};

/// One evaluated point of the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Restructuring policy used.
    pub policy: Policy,
    /// Replacement budget fraction used.
    pub budget_fraction: f64,
    /// NVM technology used.
    pub nvm: NvmTechnology,
    /// Power-delay product of the optimized DIAC design at this point.
    pub pdp: f64,
    /// Number of NVM boundaries inserted (a proxy for resiliency: more
    /// boundaries mean finer-grained forward progress).
    pub boundaries: usize,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Total delay in seconds.
    pub delay_s: f64,
}

impl DesignPoint {
    /// Whether this point dominates `other` (no worse in both objectives and
    /// strictly better in at least one): lower PDP, more boundaries.
    #[must_use]
    pub fn dominates(&self, other: &Self) -> bool {
        let no_worse = self.pdp <= other.pdp && self.boundaries >= other.boundaries;
        let strictly_better = self.pdp < other.pdp || self.boundaries > other.boundaries;
        no_worse && strictly_better
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | budget {:.2} | {} | PDP {:.3e} | {} boundaries",
            self.policy, self.budget_fraction, self.nvm, self.pdp, self.boundaries
        )
    }
}

/// What to sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationConfig {
    /// Policies to try.
    pub policies: Vec<Policy>,
    /// Replacement budget fractions to try.
    pub budget_fractions: Vec<f64>,
    /// NVM technologies to try.
    pub technologies: Vec<NvmTechnology>,
}

impl Default for ExplorationConfig {
    fn default() -> Self {
        Self {
            policies: Policy::ALL.to_vec(),
            budget_fractions: vec![0.05, 0.10, 0.15, 0.25, 0.40],
            technologies: vec![NvmTechnology::Mram],
        }
    }
}

impl ExplorationConfig {
    /// Number of design points the sweep will evaluate.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.policies.len() * self.budget_fractions.len() * self.technologies.len()
    }
}

/// The exploration driver.
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    config: ExplorationConfig,
}

impl Explorer {
    /// Creates an explorer with the given sweep configuration.
    #[must_use]
    pub fn new(config: ExplorationConfig) -> Self {
        Self { config }
    }

    /// The sweep configuration.
    #[must_use]
    pub fn config(&self) -> &ExplorationConfig {
        &self.config
    }

    /// Evaluates every point of the sweep on `netlist`, starting from `base`
    /// as the common context.
    ///
    /// The netlist is clustered into its operand tree exactly once; every
    /// sweep point reuses those [`CircuitArtifacts`], and points sharing a
    /// policy additionally reuse the restructured tree.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (invalid configurations or netlists).
    pub fn explore(
        &self,
        netlist: &Netlist,
        base: &SchemeContext,
    ) -> Result<Vec<DesignPoint>, DiacError> {
        let pipeline = SynthesisPipeline::new(base.clone());
        let artifacts = pipeline.prepare(netlist)?;
        self.explore_prepared(&pipeline, &artifacts)
    }

    /// Evaluates every point of the sweep against already-prepared circuit
    /// artifacts (so callers sweeping several circuits can share the
    /// preparation work with other experiments).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (invalid configurations).
    pub fn explore_prepared(
        &self,
        pipeline: &SynthesisPipeline,
        artifacts: &CircuitArtifacts<'_>,
    ) -> Result<Vec<DesignPoint>, DiacError> {
        let base = pipeline.context();
        let mut points = Vec::with_capacity(self.config.point_count());
        for &policy in &self.config.policies {
            for &budget in &self.config.budget_fractions {
                for &nvm in &self.config.technologies {
                    let mut ctx = base.clone().with_policy(policy).with_nvm(nvm);
                    ctx.replacement.budget_fraction = budget;
                    let result =
                        pipeline.evaluate_in(artifacts, &ctx, SchemeKind::DiacOptimized)?;
                    points.push(DesignPoint {
                        policy,
                        budget_fraction: budget,
                        nvm,
                        pdp: result.breakdown.pdp(),
                        boundaries: result.replacement.map_or(0, |r| r.boundaries),
                        energy_j: result.breakdown.total_energy().as_joules(),
                        delay_s: result.breakdown.total_delay().as_seconds(),
                    });
                }
            }
        }
        Ok(points)
    }

    /// Filters a set of design points down to its Pareto front
    /// (efficiency = low PDP vs. resiliency = many boundaries).
    #[must_use]
    pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
        points.iter().filter(|p| !points.iter().any(|q| q.dominates(p))).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::suite::BenchmarkSuite;

    fn netlist() -> Netlist {
        BenchmarkSuite::diac_paper().materialize("s298").unwrap()
    }

    #[test]
    fn sweep_evaluates_every_point() {
        let config = ExplorationConfig {
            policies: vec![Policy::Policy3],
            budget_fractions: vec![0.1, 0.3],
            technologies: vec![NvmTechnology::Mram, NvmTechnology::Reram],
        };
        assert_eq!(config.point_count(), 4);
        let explorer = Explorer::new(config);
        let points = explorer.explore(&netlist(), &SchemeContext::default()).unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.pdp > 0.0);
            assert!(p.boundaries > 0);
        }
    }

    #[test]
    fn tighter_budgets_trade_pdp_for_boundaries() {
        let config = ExplorationConfig {
            policies: vec![Policy::Policy3],
            budget_fractions: vec![0.05, 0.5],
            technologies: vec![NvmTechnology::Mram],
        };
        let points = Explorer::new(config).explore(&netlist(), &SchemeContext::default()).unwrap();
        let tight = &points[0];
        let loose = &points[1];
        assert!(tight.boundaries > loose.boundaries);
    }

    #[test]
    fn pareto_front_is_nonempty_and_mutually_nondominated() {
        let explorer = Explorer::default();
        let points = explorer.explore(&netlist(), &SchemeContext::default()).unwrap();
        let front = Explorer::pareto_front(&points);
        assert!(!front.is_empty());
        assert!(front.len() <= points.len());
        for a in &front {
            for b in &front {
                assert!(!a.dominates(b) || a == b);
            }
        }
    }

    #[test]
    fn dominance_is_irreflexive_and_sensible() {
        let base = DesignPoint {
            policy: Policy::Policy3,
            budget_fraction: 0.1,
            nvm: NvmTechnology::Mram,
            pdp: 1.0,
            boundaries: 5,
            energy_j: 0.03,
            delay_s: 30.0,
        };
        let better = DesignPoint { pdp: 0.5, boundaries: 6, ..base.clone() };
        let worse = DesignPoint { pdp: 2.0, boundaries: 4, ..base.clone() };
        assert!(!base.dominates(&base));
        assert!(better.dominates(&base));
        assert!(base.dominates(&worse));
        assert!(!worse.dominates(&base));
    }

    #[test]
    fn default_config_covers_all_policies() {
        let config = ExplorationConfig::default();
        assert_eq!(config.policies.len(), 3);
        assert!(config.point_count() >= 15);
    }

    #[test]
    fn design_point_display_mentions_the_policy_and_technology() {
        let p = DesignPoint {
            policy: Policy::Policy1,
            budget_fraction: 0.2,
            nvm: NvmTechnology::Feram,
            pdp: 1.5,
            boundaries: 3,
            energy_j: 0.03,
            delay_s: 20.0,
        };
        let text = p.to_string();
        assert!(text.contains("Policy1") && text.contains("FeRAM"));
    }
}
