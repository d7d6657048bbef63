//! The shared synthesis pipeline: parse → levelize → figures → tree, once
//! per circuit.
//!
//! The paper motivates DIAC by noting that trees, designs, and power-failure
//! scenarios "exponentially expand the design space".  Exploring that space
//! efficiently means not recomputing the expensive, *scheme-independent*
//! parts of the flow for every scheme or sweep point:
//!
//! * the levelization and circuit-level energy figures (the levels also
//!   compile the original design for the equivalence check, and the
//!   replaced design's levels derive from them),
//! * the operand tree clustered from the netlist, and
//! * the NV-enhanced tree of one replacement run (identical for every
//!   evaluation sharing a policy, technology and budget — in particular for
//!   DIAC and optimized DIAC, which differ only in their backup *schedule*).
//!   Both the replacement summary the schemes price and the replaced
//!   netlist the equivalence check reads derive from that one run.  A
//!   second run under the same policy starts from the first run's tree
//!   instead of restructuring the base tree again.
//!
//! [`CircuitArtifacts`] holds those shared products for one circuit;
//! [`SynthesisPipeline`] builds artifacts and evaluates schemes against
//! them.  The cached path is bit-identical to evaluating each scheme from
//! scratch (asserted by the `pipeline_equivalence` integration test) because
//! every cached product is a pure function of its inputs — including the
//! restructuring edits (see [`crate::tree`]), whose append-only id
//! assignment keeps the policy/replacement tie-breaks deterministic, so
//! cached restructured trees and fresh ones are interchangeable.  The cost
//! of the prepare/compare/replacement stages is measured per circuit suite
//! by the repository benchmark's `synthesis_suite` workload (`DESIGN.md`,
//! "Measuring performance").
//!
//! # Example
//!
//! ```
//! use diac_core::pipeline::SynthesisPipeline;
//! use diac_core::schemes::{SchemeContext, SchemeKind};
//! use netlist::parser::parse_bench;
//!
//! let nl = parse_bench("s27", netlist::embedded::S27_BENCH)?;
//! let pipeline = SynthesisPipeline::new(SchemeContext::default());
//! let artifacts = pipeline.prepare(&nl)?;
//! let comparison = pipeline.compare_all(&artifacts)?;
//! assert_eq!(comparison.results.len(), 4);
//! # Ok::<(), diac_core::DiacError>(())
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use netlist::bitsim::BitSim;
use netlist::equiv::{check_equivalence, EquivConfig, EquivReport};
use netlist::levelize::{levelize, Levels};
use netlist::Netlist;
use tech45::nvm::NvmTechnology;

use crate::error::DiacError;
use crate::policy::{apply_policy, Policy, PolicyBounds};
use crate::replacement::{
    insert_nvm_boundaries, NvEnhancedTree, ReplacementConfig, ReplacementSummary,
};
use crate::schemes::{
    circuit_figures, compare_with, evaluate_scheme_with, CircuitFigures, SchemeComparison,
    SchemeContext, SchemeKind, SchemeResult,
};
use crate::tree::OperandTree;
use crate::verify;

/// The relative bounds steering the restructuring policies, as used by the
/// paper's evaluation (split above 25 % of the tree energy, merge below 2 %).
const POLICY_UPPER_FRACTION: f64 = 0.25;
const POLICY_LOWER_FRACTION: f64 = 0.02;

/// Cache key of one replacement run: the policy that shaped the tree plus
/// every [`ReplacementConfig`] field that steers the traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReplacementKey {
    policy: Policy,
    technology: NvmTechnology,
    budget_bits: u64,
}

impl ReplacementKey {
    fn new(policy: Policy, config: &ReplacementConfig) -> Self {
        Self {
            policy,
            technology: config.technology,
            budget_bits: config.budget_fraction.to_bits(),
        }
    }
}

/// Scheme-independent synthesis products of one circuit, computed once and
/// shared across all scheme evaluations and design-space sweep points.
///
/// The figures and the tree depend on the netlist alone (gates are priced
/// with the one surrogate cell table, see [`tech45::energy_model`]), so one
/// set of artifacts serves every [`SchemeContext`]: the restructuring
/// policy, the NVM technology, the replacement budget and the intermittency
/// profile are all read at evaluation time.
///
/// The artifacts borrow the netlist they were built from (the caller keeps
/// it alive), for the replaced netlist and the opt-in functional-equivalence
/// pass ([`Self::verify_replacement`]).
#[derive(Debug)]
pub struct CircuitArtifacts<'n> {
    netlist: &'n Netlist,
    /// The netlist's levels, kept for compiling it and its replaced
    /// designs in [`Self::verify_replacement`].
    levels: Levels,
    figures: CircuitFigures,
    base_tree: OperandTree,
    // Lazily-filled caches.  Interior mutability keeps the evaluation API
    // `&self`, so one set of artifacts can be shared across sweep points.
    replacements: Mutex<HashMap<ReplacementKey, Arc<NvEnhancedTree>>>,
    replaced: Mutex<HashMap<ReplacementKey, Arc<Netlist>>>,
}

impl<'n> CircuitArtifacts<'n> {
    /// Runs the scheme-independent front of the flow once: levelization and
    /// circuit figures, plus the operand-tree clustering.
    ///
    /// # Errors
    ///
    /// Propagates netlist analysis and tree-construction failures.
    pub fn build(netlist: &'n Netlist) -> Result<Self, DiacError> {
        let levels = levelize(netlist)?;
        let figures = circuit_figures(netlist, &levels);
        let base_tree = OperandTree::from_levels(netlist, &levels)?;
        Ok(Self {
            netlist,
            levels,
            figures,
            base_tree,
            replacements: Mutex::new(HashMap::new()),
            replaced: Mutex::new(HashMap::new()),
        })
    }

    /// Circuit name.
    #[must_use]
    pub fn name(&self) -> &'n str {
        self.netlist.name()
    }

    /// The operand tree clustered from the netlist, before any policy.
    #[must_use]
    pub fn operand_tree(&self) -> &OperandTree {
        &self.base_tree
    }

    /// The source netlist these artifacts were built from.
    #[must_use]
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Number of replacement runs currently cached (diagnostic).
    #[must_use]
    pub fn cached_replacements(&self) -> usize {
        self.replacements.lock().expect("replacement cache lock").len()
    }

    /// Number of replaced netlists currently cached (diagnostic).
    #[must_use]
    pub fn cached_replaced_netlists(&self) -> usize {
        self.replaced.lock().expect("replaced cache lock").len()
    }

    pub(crate) fn figures(&self) -> &CircuitFigures {
        &self.figures
    }

    /// A copy of the tree after `policy`: one copy either way.  A cached
    /// replacement run under `policy` holds that tree with its boundary
    /// annotations, which every replacement run rewrites for every live
    /// operand, so its tree serves as well as a fresh one.  Without such a
    /// run the policy restructures a copy of the base tree.
    fn restructured_tree(&self, policy: Policy) -> Result<OperandTree, DiacError> {
        let cached = self.replacements.lock().expect("replacement cache lock");
        if let Some((_, enhanced)) = cached.iter().find(|(key, _)| key.policy == policy) {
            return Ok(enhanced.tree().clone());
        }
        drop(cached);
        let mut tree = self.base_tree.clone();
        let bounds = PolicyBounds::relative_to(&tree, POLICY_UPPER_FRACTION, POLICY_LOWER_FRACTION);
        apply_policy(&mut tree, policy, &bounds)?;
        Ok(tree)
    }

    /// The NV-enhanced tree for `ctx`'s policy / technology / budget and its
    /// cache key, running the replacement on first use.
    fn replacement(
        &self,
        ctx: &SchemeContext,
    ) -> Result<(ReplacementKey, Arc<NvEnhancedTree>), DiacError> {
        let key = ReplacementKey::new(ctx.policy, &ctx.replacement);
        if let Some(enhanced) = self.replacements.lock().expect("replacement cache lock").get(&key)
        {
            return Ok((key, Arc::clone(enhanced)));
        }
        let tree = self.restructured_tree(ctx.policy)?;
        let enhanced = Arc::new(insert_nvm_boundaries(tree, &ctx.replacement)?);
        self.replacements
            .lock()
            .expect("replacement cache lock")
            .insert(key, Arc::clone(&enhanced));
        Ok((key, enhanced))
    }

    /// The replacement summary for `ctx`'s policy / technology / budget.
    pub(crate) fn replacement_summary(
        &self,
        ctx: &SchemeContext,
    ) -> Result<ReplacementSummary, DiacError> {
        Ok(*self.replacement(ctx)?.1.summary())
    }

    /// The DIAC-replaced netlist under `ctx`'s policy / technology / budget
    /// (NV buffers at every boundary operand's external outputs, see
    /// [`crate::verify::replaced_netlist`]), rewritten once per replacement
    /// coordinate from the cached replacement run and shared from the cache
    /// afterwards (`Arc`, no deep copies on hits).
    ///
    /// # Errors
    ///
    /// Propagates replacement and rewrite failures.
    pub fn replaced_netlist(&self, ctx: &SchemeContext) -> Result<Arc<Netlist>, DiacError> {
        let (key, enhanced) = self.replacement(ctx)?;
        if let Some(replaced) = self.replaced.lock().expect("replaced cache lock").get(&key) {
            return Ok(Arc::clone(replaced));
        }
        let replaced = Arc::new(verify::replaced_netlist(self.netlist, enhanced.tree())?);
        self.replaced.lock().expect("replaced cache lock").insert(key, Arc::clone(&replaced));
        Ok(replaced)
    }

    /// Opt-in functional verification of the DIAC replacement under `ctx`:
    /// checks the replaced netlist ([`Self::replaced_netlist`]) against the
    /// original with seeded random vectors.  The original is compiled from
    /// the levels the artifacts kept, and the replaced design from levels
    /// derived from them ([`Levels::with_buffers`]), so neither is levelized
    /// again.  The report itself is not cached; re-verifying repeats only
    /// compiling the two designs and the vector comparison — never the
    /// restructuring, replacement, or netlist rewrite.
    ///
    /// # Errors
    ///
    /// Propagates replacement and equivalence failures.
    pub fn verify_replacement(
        &self,
        ctx: &SchemeContext,
        equiv: &EquivConfig,
    ) -> Result<EquivReport, DiacError> {
        let replaced = self.replaced_netlist(ctx)?;
        let original = BitSim::from_levels(self.netlist, &self.levels)?;
        let replaced_levels = self.levels.with_buffers(&replaced);
        let replaced = BitSim::from_levels(&replaced, &replaced_levels)?;
        Ok(check_equivalence(&original, &replaced, equiv)?)
    }
}

/// Builds [`CircuitArtifacts`] and evaluates the four schemes against them.
#[derive(Debug, Clone, Default)]
pub struct SynthesisPipeline {
    ctx: SchemeContext,
}

impl SynthesisPipeline {
    /// Creates a pipeline evaluating under `ctx`.
    #[must_use]
    pub fn new(ctx: SchemeContext) -> Self {
        Self { ctx }
    }

    /// The pipeline's evaluation context.
    #[must_use]
    pub fn context(&self) -> &SchemeContext {
        &self.ctx
    }

    /// Runs the scheme-independent front of the flow for one circuit.
    ///
    /// # Errors
    ///
    /// Propagates netlist analysis and tree-construction failures.
    pub fn prepare<'n>(&self, netlist: &'n Netlist) -> Result<CircuitArtifacts<'n>, DiacError> {
        CircuitArtifacts::build(netlist)
    }

    /// Evaluates one scheme against prepared artifacts.
    ///
    /// # Errors
    ///
    /// Propagates configuration and evaluation failures.
    pub fn evaluate(
        &self,
        artifacts: &CircuitArtifacts<'_>,
        kind: SchemeKind,
    ) -> Result<SchemeResult, DiacError> {
        self.evaluate_in(artifacts, &self.ctx, kind)
    }

    /// Evaluates one scheme under a sweep context that may differ from the
    /// pipeline's in policy, NVM technology, replacement budget or profile —
    /// the knobs [`crate::explore::Explorer`] varies.
    ///
    /// # Errors
    ///
    /// Propagates configuration and evaluation failures.
    pub fn evaluate_in(
        &self,
        artifacts: &CircuitArtifacts<'_>,
        ctx: &SchemeContext,
        kind: SchemeKind,
    ) -> Result<SchemeResult, DiacError> {
        evaluate_scheme_with(artifacts, ctx, kind)
    }

    /// Evaluates all four schemes against prepared artifacts.
    ///
    /// # Errors
    ///
    /// Propagates configuration and evaluation failures.
    pub fn compare_all(
        &self,
        artifacts: &CircuitArtifacts<'_>,
    ) -> Result<SchemeComparison, DiacError> {
        self.compare_all_in(artifacts, &self.ctx)
    }

    /// Evaluates all four schemes under a sweep context (see
    /// [`Self::evaluate_in`]).
    ///
    /// # Errors
    ///
    /// Propagates configuration and evaluation failures.
    pub fn compare_all_in(
        &self,
        artifacts: &CircuitArtifacts<'_>,
        ctx: &SchemeContext,
    ) -> Result<SchemeComparison, DiacError> {
        compare_with(artifacts, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::suite::BenchmarkSuite;

    fn circuit(name: &str) -> Netlist {
        BenchmarkSuite::diac_paper().materialize(name).unwrap()
    }

    #[test]
    fn prepared_artifacts_evaluate_all_schemes() {
        let pipeline = SynthesisPipeline::default();
        let netlist = circuit("s298");
        let artifacts = pipeline.prepare(&netlist).unwrap();
        for kind in SchemeKind::ALL {
            let result = pipeline.evaluate(&artifacts, kind).unwrap();
            assert_eq!(result.kind, kind);
            assert!(result.breakdown.pdp() > 0.0);
        }
    }

    #[test]
    fn the_two_diac_schemes_share_one_replacement_run() {
        let pipeline = SynthesisPipeline::default();
        let netlist = circuit("s344");
        let artifacts = pipeline.prepare(&netlist).unwrap();
        let comparison = pipeline.compare_all(&artifacts).unwrap();
        assert_eq!(comparison.results.len(), 4);
        // DIAC and optimized DIAC share (policy, technology, budget), so the
        // full comparison performs exactly one replacement run, and the
        // replaced netlist is rewritten from that same run.
        assert_eq!(artifacts.cached_replacements(), 1);
        artifacts.replaced_netlist(pipeline.context()).unwrap();
        assert_eq!(artifacts.cached_replacements(), 1);
        assert_eq!(artifacts.cached_replaced_netlists(), 1);
        let diac = comparison.result(SchemeKind::Diac).unwrap();
        let opt = comparison.result(SchemeKind::DiacOptimized).unwrap();
        assert_eq!(diac.replacement, opt.replacement);
    }

    #[test]
    fn sweeping_the_technology_reuses_the_tree_but_not_the_summary() {
        let pipeline = SynthesisPipeline::default();
        let netlist = circuit("s386");
        let artifacts = pipeline.prepare(&netlist).unwrap();
        for technology in NvmTechnology::ALL {
            let ctx = pipeline.context().clone().with_nvm(technology);
            let result = pipeline.evaluate_in(&artifacts, &ctx, SchemeKind::DiacOptimized).unwrap();
            assert!(result.replacement.is_some(), "{technology}");
        }
        assert_eq!(artifacts.cached_replacements(), NvmTechnology::ALL.len());
    }

    #[test]
    fn verify_replacement_passes_and_caches() {
        let pipeline = SynthesisPipeline::default();
        let netlist = circuit("s298");
        let artifacts = pipeline.prepare(&netlist).unwrap();
        let equiv = EquivConfig { rounds: 2, cycles_per_round: 4, ..EquivConfig::default() };
        let first = artifacts.verify_replacement(pipeline.context(), &equiv).unwrap();
        assert!(first.equivalent(), "{first}");
        assert_eq!(first.vectors, equiv.vectors());
        // Re-verifying the same coordinates reproduces the report.
        let again = artifacts.verify_replacement(pipeline.context(), &equiv).unwrap();
        assert_eq!(first, again);
        // A different seed is a different verification, but the replaced
        // netlist is rebuilt only once per replacement coordinate.
        let reseeded = EquivConfig { seed: equiv.seed + 1, ..equiv };
        let other = artifacts.verify_replacement(pipeline.context(), &reseeded).unwrap();
        assert!(other.equivalent());
        assert_eq!(artifacts.cached_replacements(), 1);
        assert_eq!(artifacts.cached_replaced_netlists(), 1);
        // The replaced netlist itself is exposed (and cache-cloned).
        let replaced = artifacts.replaced_netlist(pipeline.context()).unwrap();
        assert!(crate::verify::nv_buffer_count(&replaced) > 0);
    }

    #[test]
    fn artifacts_expose_the_clustered_tree() {
        let pipeline = SynthesisPipeline::default();
        let netlist = circuit("s27");
        let artifacts = pipeline.prepare(&netlist).unwrap();
        assert_eq!(artifacts.name(), "s27");
        assert!(!artifacts.operand_tree().is_empty());
        assert!(artifacts.operand_tree().validate().is_ok());
    }
}
