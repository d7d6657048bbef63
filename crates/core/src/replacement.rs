//! The replacement procedure: NVM boundary insertion.
//!
//! Given the (policy-restructured) operand tree, a power budget, and the NVM
//! device features, the replacement procedure of the paper (Fig. 1, steps
//! 4a/4b/5) walks the tree **from the leaves towards the roots**, keeping a
//! running total of the energy spent since the last non-volatile commit.
//! When that accumulated energy would exceed the budget — i.e. a power
//! failure at this point would lose more work than one harvesting burst can
//! re-do — an NVM boundary is inserted at the current node, "the previous
//! power values are set to zero", and traversal continues.
//!
//! The rule is a threshold, not a ranking.  A node's unsaved energy is its
//! own activation energy plus the largest unsaved energy any child passes
//! up (a child that committed a boundary passes up none).  A boundary is
//! committed at every node whose unsaved energy exceeds the budget
//! (`budget_fraction` of the tree's total energy), and at every root, which
//! commits the final result.  The paper's node-preference criteria — nodes
//! closer to the outputs (I), protecting a higher accumulated power (II),
//! or with a larger fan-in/fan-out (III) — are not modelled: no score ranks
//! the nodes of a level, so the boundary falls on the node where the
//! threshold is crossed.

use std::fmt;

use tech45::array::NvmArray;
use tech45::nvm::NvmTechnology;
use tech45::units::{Energy, Seconds};

use crate::error::DiacError;
use crate::feature::FeatureDict;
use crate::tree::OperandTree;

/// Word width of the backup array in bits.
const WORD_BITS: u32 = 32;
/// Width in bits of one signal crossing an operand boundary.
const BITS_PER_SIGNAL: u64 = 1;

/// Configuration of the replacement procedure: the NVM technology and the
/// budget, the two values a design-space sweep varies.  The backup array's
/// word width (32 bits) and the width of a boundary signal (1 bit) are
/// constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplacementConfig {
    /// NVM technology used for the backup arrays.  Inside a
    /// [`SchemeContext`](crate::schemes::SchemeContext) it is the context's
    /// one technology: the baselines' NV-FF and LE-FF state elements use it
    /// too ([`SchemeContext::with_nvm`](crate::schemes::SchemeContext::with_nvm)
    /// sets it).
    pub technology: NvmTechnology,
    /// Fraction of the whole tree's per-activation energy that may remain
    /// unsaved between two NVM boundaries.  Smaller fractions mean more
    /// boundaries (more resiliency, more write overhead).
    pub budget_fraction: f64,
}

impl Default for ReplacementConfig {
    fn default() -> Self {
        Self { technology: NvmTechnology::Mram, budget_fraction: 0.15 }
    }
}

impl ReplacementConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DiacError::InvalidConfig`] for a budget fraction outside
    /// `(0, 1]`.
    pub fn validate(&self) -> Result<(), DiacError> {
        if !(0.0..=1.0).contains(&self.budget_fraction) || self.budget_fraction == 0.0 {
            return Err(DiacError::InvalidConfig {
                message: format!("budget_fraction must be in (0, 1], got {}", self.budget_fraction),
            });
        }
        Ok(())
    }
}

/// Summary of one replacement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplacementSummary {
    /// Number of NVM boundaries inserted.
    pub boundaries: usize,
    /// Total number of bits stored across all boundaries.
    pub total_boundary_bits: u64,
    /// Average bits per boundary (zero when there are no boundaries).
    pub average_boundary_bits: f64,
    /// The absolute energy budget used during the traversal.
    pub energy_budget: Energy,
    /// Largest accumulated (unsaved) energy observed at any node.
    pub max_unsaved_energy: Energy,
    /// Energy of one backup of the average boundary through the NVM array.
    pub backup_energy: Energy,
    /// Latency of one backup of the average boundary.
    pub backup_latency: Seconds,
    /// Energy of restoring the average boundary after a power failure.
    pub restore_energy: Energy,
    /// Latency of restoring the average boundary.
    pub restore_latency: Seconds,
}

impl fmt::Display for ReplacementSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} NVM boundaries, {} bits total ({:.1} avg), budget {:.3e} J, backup {:.3e} J / {:.3e} s",
            self.boundaries,
            self.total_boundary_bits,
            self.average_boundary_bits,
            self.energy_budget.as_joules(),
            self.backup_energy.as_joules(),
            self.backup_latency.as_seconds()
        )
    }
}

/// An operand tree annotated with NVM boundaries plus the run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct NvEnhancedTree {
    tree: OperandTree,
    summary: ReplacementSummary,
    config: ReplacementConfig,
}

impl NvEnhancedTree {
    /// The annotated tree.
    #[must_use]
    pub fn tree(&self) -> &OperandTree {
        &self.tree
    }

    /// The replacement summary.
    #[must_use]
    pub fn summary(&self) -> &ReplacementSummary {
        &self.summary
    }

    /// The configuration that produced this tree.
    #[must_use]
    pub fn config(&self) -> &ReplacementConfig {
        &self.config
    }
}

/// Runs the replacement procedure on `tree`.
///
/// The tree is consumed, annotated in place, and returned inside the
/// [`NvEnhancedTree`] wrapper together with the summary.
///
/// # Errors
///
/// Returns [`DiacError::InvalidConfig`] for invalid configurations and
/// [`DiacError::InvalidTree`] if the tree fails validation.
pub fn insert_nvm_boundaries(
    mut tree: OperandTree,
    config: &ReplacementConfig,
) -> Result<NvEnhancedTree, DiacError> {
    config.validate()?;
    tree.validate()?;

    let total_energy = tree.total_energy();
    let budget = total_energy * config.budget_fraction;

    // Leaves-to-roots traversal accumulating unsaved energy.  The accumulated
    // figure tracks the worst chain of unsaved work below a node (maximum over
    // its children) so that the invariant "no node ever protects more than one
    // budget's worth of work plus its own energy" holds by construction.
    //
    // The per-node state lives in a flat slot-indexed table (the arena makes
    // `OperandId` a dense index); unvisited slots stay at zero, the fold
    // identity, so no liveness filtering is needed.  Each node is visited
    // exactly once, so stale boundary decisions from a previous run are
    // cleared in the same pass.
    let order = tree.topological_order();
    let mut accumulated = vec![Energy::ZERO; tree.slots()];
    let mut max_unsaved = Energy::ZERO;
    let mut boundaries = 0_usize;
    let mut total_bits = 0_u64;

    for id in order {
        let (unsaved, fan_out, is_root) = {
            let op = tree.operand(id);
            let inherited =
                op.children.iter().map(|c| accumulated[c.index()]).fold(Energy::ZERO, Energy::max);
            (inherited + op.dict.energy(), op.dict.fan_out, op.is_root())
        };
        max_unsaved = max_unsaved.max(unsaved);

        let dict: &mut FeatureDict = &mut tree.operand_mut(id).dict;
        dict.nvm_boundary = false;
        dict.boundary_bits = 0;
        dict.accumulated = unsaved;

        // Criterion: commit when a failure here would lose more than one
        // harvesting burst can re-do.  Roots always commit the final result.
        let over_budget = unsaved > budget;
        if over_budget || is_root {
            let bits = (fan_out as u64).max(1) * BITS_PER_SIGNAL;
            dict.mark_boundary(bits);
            accumulated[id.index()] = Energy::ZERO;
            boundaries += 1;
            total_bits += bits;
        } else {
            accumulated[id.index()] = unsaved;
        }
    }

    let average_boundary_bits =
        if boundaries == 0 { 0.0 } else { total_bits as f64 / boundaries as f64 };
    let array = NvmArray::new(config.technology, total_bits.max(u64::from(WORD_BITS)), WORD_BITS);
    let avg_bits = average_boundary_bits.ceil() as u64;
    let summary = ReplacementSummary {
        boundaries,
        total_boundary_bits: total_bits,
        average_boundary_bits,
        energy_budget: budget,
        max_unsaved_energy: max_unsaved,
        backup_energy: array.backup_energy(avg_bits),
        backup_latency: array.backup_latency(avg_bits),
        restore_energy: array.restore_energy(avg_bits),
        restore_latency: array.restore_latency(avg_bits),
    };

    Ok(NvEnhancedTree { tree, summary, config: *config })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{apply_policy, Policy, PolicyBounds};
    use crate::tree::OperandTree;
    use netlist::suite::BenchmarkSuite;

    fn tree_of(circuit: &str) -> OperandTree {
        let nl = BenchmarkSuite::diac_paper().materialize(circuit).unwrap();
        OperandTree::from_netlist(&nl).unwrap()
    }

    /// Operands flagged as NVM boundaries.
    fn boundary_operands(tree: &OperandTree) -> Vec<crate::tree::OperandId> {
        tree.iter().filter(|o| o.dict.nvm_boundary).map(|o| o.id).collect()
    }

    #[test]
    fn default_config_is_valid() {
        assert!(ReplacementConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_configs_are_rejected() {
        let c = ReplacementConfig { budget_fraction: 0.0, ..ReplacementConfig::default() };
        assert!(c.validate().is_err());
        let c = ReplacementConfig { budget_fraction: 1.5, ..ReplacementConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn every_root_gets_a_boundary() {
        let tree = tree_of("s298");
        let enhanced = insert_nvm_boundaries(tree, &ReplacementConfig::default()).unwrap();
        for root in enhanced.tree().roots() {
            assert!(
                enhanced.tree().operand(root).dict.nvm_boundary,
                "root {root} must hold the final result non-volatilely"
            );
        }
        assert!(enhanced.summary().boundaries >= enhanced.tree().roots().len());
    }

    #[test]
    fn accumulated_energy_never_exceeds_budget_plus_one_operand() {
        let tree = tree_of("s344");
        let config = ReplacementConfig { budget_fraction: 0.10, ..ReplacementConfig::default() };
        let enhanced = insert_nvm_boundaries(tree, &config).unwrap();
        let budget = enhanced.summary().energy_budget;
        let biggest_operand: Energy =
            enhanced.tree().iter().map(|o| o.dict.energy()).fold(Energy::ZERO, Energy::max);
        // A boundary is inserted as soon as the budget is exceeded, so no node
        // can accumulate more than budget + its own energy.
        assert!(enhanced.summary().max_unsaved_energy <= budget + biggest_operand * 2.0);
    }

    #[test]
    fn tighter_budgets_insert_more_boundaries() {
        let loose = insert_nvm_boundaries(
            tree_of("s400"),
            &ReplacementConfig { budget_fraction: 0.5, ..ReplacementConfig::default() },
        )
        .unwrap();
        let tight = insert_nvm_boundaries(
            tree_of("s400"),
            &ReplacementConfig { budget_fraction: 0.05, ..ReplacementConfig::default() },
        )
        .unwrap();
        assert!(
            tight.summary().boundaries > loose.summary().boundaries,
            "tight {} vs loose {}",
            tight.summary().boundaries,
            loose.summary().boundaries
        );
    }

    #[test]
    fn boundary_bits_match_the_flagged_operands() {
        let enhanced =
            insert_nvm_boundaries(tree_of("s298"), &ReplacementConfig::default()).unwrap();
        let bits_from_tree: u64 = boundary_operands(enhanced.tree())
            .iter()
            .map(|&id| enhanced.tree().operand(id).dict.boundary_bits)
            .sum();
        assert_eq!(bits_from_tree, enhanced.summary().total_boundary_bits);
        assert_eq!(boundary_operands(enhanced.tree()).len(), enhanced.summary().boundaries);
    }

    #[test]
    fn reram_backups_cost_more_than_mram() {
        let mram = insert_nvm_boundaries(
            tree_of("s344"),
            &ReplacementConfig { technology: NvmTechnology::Mram, ..ReplacementConfig::default() },
        )
        .unwrap();
        let reram = insert_nvm_boundaries(
            tree_of("s344"),
            &ReplacementConfig { technology: NvmTechnology::Reram, ..ReplacementConfig::default() },
        )
        .unwrap();
        assert_eq!(mram.summary().boundaries, reram.summary().boundaries);
        assert!(reram.summary().backup_energy > mram.summary().backup_energy);
    }

    #[test]
    fn replacement_after_policy3_still_works() {
        let mut tree = tree_of("s382");
        let bounds = PolicyBounds::relative_to(&tree, 0.2, 0.02);
        apply_policy(&mut tree, Policy::Policy3, &bounds).unwrap();
        let enhanced = insert_nvm_boundaries(tree, &ReplacementConfig::default()).unwrap();
        assert!(enhanced.summary().boundaries > 0);
        assert!(enhanced.tree().validate().is_ok());
    }

    #[test]
    fn rerunning_replacement_is_idempotent() {
        let enhanced =
            insert_nvm_boundaries(tree_of("s298"), &ReplacementConfig::default()).unwrap();
        let first = *enhanced.summary();
        let again =
            insert_nvm_boundaries(enhanced.tree().clone(), &ReplacementConfig::default()).unwrap();
        assert_eq!(first.boundaries, again.summary().boundaries);
        assert_eq!(first.total_boundary_bits, again.summary().total_boundary_bits);
    }

    #[test]
    fn summary_display_mentions_boundaries() {
        let enhanced =
            insert_nvm_boundaries(tree_of("s27"), &ReplacementConfig::default()).unwrap();
        assert!(enhanced.summary().to_string().contains("boundaries"));
        assert!(enhanced.config().budget_fraction > 0.0);
    }

    #[test]
    fn fig2_scale_tree_gets_boundaries_where_energy_piles_up() {
        use tech45::units::Seconds;
        let mj = Energy::from_millijoules;
        let ms = Seconds::from_millis;
        let tree = OperandTree::builder("fig2")
            .node("F1", mj(10.0), ms(1.0), &[])
            .node("F2", mj(12.0), ms(1.0), &[])
            .node("F5", mj(8.0), ms(1.0), &["F1", "F2"])
            .node("F8", mj(9.0), ms(1.0), &["F5"])
            .build()
            .unwrap();
        let config = ReplacementConfig { budget_fraction: 0.4, ..ReplacementConfig::default() };
        let enhanced = insert_nvm_boundaries(tree, &config).unwrap();
        // 39 mJ total, budget 15.6 mJ: the worst unsaved chain crosses the
        // budget at F5 (12 mJ inherited + 8 mJ own = 20 mJ), so F5 commits;
        // the root F8 always commits the final result.
        let names: Vec<&str> = boundary_operands(enhanced.tree())
            .iter()
            .map(|&id| enhanced.tree().operand(id).name.as_str())
            .collect();
        assert!(names.contains(&"F5"), "boundaries: {names:?}");
        assert!(names.contains(&"F8"), "boundaries: {names:?}");
    }
}
