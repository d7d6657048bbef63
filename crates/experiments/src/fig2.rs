//! Fig. 2 — tree illustrations of an 8-input/1-output design.
//!
//! The paper's worked example characterises eight operands `F1..F8` in
//! millijoules, sets the split bound at 25 mJ and the merge bound at 20 mJ,
//! and shows the resulting trees under the original structure and the three
//! policies: `F2` is broken into `F9..F11` (too big) and `F5..F8` are merged
//! into `F13` (too small).  This module rebuilds those four trees and renders
//! them as text.

use diac_core::policy::{apply_policy, Policy, PolicyBounds, PolicyOutcome};
use diac_core::tree::OperandTree;
use diac_core::DiacError;
use tech45::units::{Energy, Seconds};

use crate::report::Table;

/// The original tree and its three policy restructurings.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// The tree before any restructuring (Fig. 2a).
    pub original: OperandTree,
    /// Policy1: everything oversized split (Fig. 2b).
    pub policy1: OperandTree,
    /// Policy2: everything undersized merged (Fig. 2c).
    pub policy2: OperandTree,
    /// Policy3: the hybrid used in the evaluation (Fig. 2d).
    pub policy3: OperandTree,
    /// What each policy did (splits / merges).
    pub outcomes: [PolicyOutcome; 3],
}

impl Fig2Result {
    /// Renders all four trees plus a summary table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("(a) original\n");
        out.push_str(&self.original.render_ascii());
        out.push_str("\n(b) Policy1 — split oversized operands\n");
        out.push_str(&self.policy1.render_ascii());
        out.push_str("\n(c) Policy2 — merge undersized operands\n");
        out.push_str(&self.policy2.render_ascii());
        out.push_str("\n(d) Policy3 — hybrid (used in the evaluation)\n");
        out.push_str(&self.policy3.render_ascii());
        out.push('\n');
        out.push_str(&self.summary_table().to_string());
        out
    }

    /// Summary table: operands, levels, total energy per variant.
    #[must_use]
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(
            "Fig. 2 — tree variants of the 8-input/1-output example",
            &["variant", "operands", "levels", "total energy (mJ)", "splits", "merges"],
        );
        let variants = [
            ("original", &self.original, None),
            ("Policy1", &self.policy1, Some(self.outcomes[0])),
            ("Policy2", &self.policy2, Some(self.outcomes[1])),
            ("Policy3", &self.policy3, Some(self.outcomes[2])),
        ];
        for (name, tree, outcome) in variants {
            table.push_row(vec![
                name.to_string(),
                tree.len().to_string(),
                (tree.max_level() + 1).to_string(),
                format!("{:.1}", tree.total_energy().as_millijoules()),
                outcome.map_or_else(|| "-".to_string(), |o| o.splits.to_string()),
                outcome.map_or_else(|| "-".to_string(), |o| o.merges.to_string()),
            ]);
        }
        table
    }
}

/// The 8-input/1-output example tree with the paper's millijoule-scale
/// operand energies: `F2` exceeds the 25 mJ split bound, `F5..F8` fall below
/// the 20 mJ merge bound.
///
/// # Errors
///
/// Never fails for the built-in node list; the `Result` propagates the tree
/// builder's validation.
pub fn example_tree() -> Result<OperandTree, DiacError> {
    let mj = Energy::from_millijoules;
    let ms = Seconds::from_millis;
    OperandTree::builder("fig2_example")
        .node("F1", mj(22.0), ms(2.2), &[])
        .node("F2", mj(62.0), ms(6.0), &[])
        .node("F3", mj(23.0), ms(2.3), &[])
        .node("F4", mj(24.0), ms(2.4), &[])
        .node("F5", mj(9.0), ms(0.9), &["F1", "F2"])
        .node("F6", mj(8.0), ms(0.8), &["F3", "F4"])
        .node("F7", mj(6.0), ms(0.6), &["F5", "F6"])
        .node("F8", mj(5.0), ms(0.5), &["F7"])
        .build()
}

/// Builds the Fig. 2 artifact: the original tree and its three restructured
/// variants under the paper's 25 mJ / 20 mJ bounds.
///
/// # Errors
///
/// Propagates tree-construction or policy failures (none are expected for the
/// built-in example).
pub fn run() -> Result<Fig2Result, DiacError> {
    let bounds = PolicyBounds::paper_example();
    let original = example_tree()?;

    let mut policy1 = original.clone();
    let o1 = apply_policy(&mut policy1, Policy::Policy1, &bounds)?;
    let mut policy2 = original.clone();
    let o2 = apply_policy(&mut policy2, Policy::Policy2, &bounds)?;
    let mut policy3 = original.clone();
    let o3 = apply_policy(&mut policy3, Policy::Policy3, &bounds)?;

    Ok(Fig2Result { original, policy1, policy2, policy3, outcomes: [o1, o2, o3] })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_example_tree_matches_the_papers_shape() {
        let tree = example_tree().unwrap();
        assert_eq!(tree.len(), 8);
        assert_eq!(tree.leaves().len(), 4);
        assert_eq!(tree.roots().len(), 1);
    }

    #[test]
    fn policy1_splits_f2_and_policy2_merges_the_small_chain() {
        let result = run().unwrap();
        // Policy1 splits at least F2 (62 mJ > 25 mJ), growing the tree.
        assert!(result.outcomes[0].splits >= 1);
        assert!(result.policy1.len() > result.original.len());
        // Policy2 merges the sub-20 mJ chain F5..F8, shrinking the tree.
        assert!(result.outcomes[1].merges >= 2);
        assert!(result.policy2.len() < result.original.len());
        // Policy3 does both.
        assert!(result.outcomes[2].splits >= 1);
        assert!(result.outcomes[2].merges >= 1);
    }

    #[test]
    fn all_variants_preserve_the_total_energy() {
        let result = run().unwrap();
        let reference = result.original.total_energy().as_millijoules();
        for tree in [&result.policy1, &result.policy2, &result.policy3] {
            assert!((tree.total_energy().as_millijoules() - reference).abs() < 1e-6);
        }
    }

    #[test]
    fn after_policy3_no_operand_exceeds_the_split_bound() {
        let result = run().unwrap();
        for op in result.policy3.iter() {
            assert!(
                op.dict.energy().as_millijoules() <= 25.0 + 1e-9,
                "{} = {:.1} mJ",
                op.name,
                op.dict.energy().as_millijoules()
            );
        }
    }

    #[test]
    fn render_mentions_all_four_variants() {
        let result = run().unwrap();
        let text = result.render();
        for label in ["(a) original", "(b) Policy1", "(c) Policy2", "(d) Policy3"] {
            assert!(text.contains(label));
        }
        assert_eq!(result.summary_table().len(), 4);
    }
}
