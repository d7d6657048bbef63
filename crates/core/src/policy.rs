//! The three granularity policies of the tree illustration step.
//!
//! Fig. 2 of the paper shows the same 8-input/1-output design under three
//! restructurings:
//!
//! * **Policy1** — large components are broken into smaller tasks so that
//!   `avg(F_power) < V_th ≪ V_peak`: best resiliency, worst performance.
//! * **Policy2** — small components are merged into larger ones so that
//!   `max(F_power) ≪ V_th` and `min(F_power) = n % Max`: best performance,
//!   lowest resiliency.
//! * **Policy3** — the compromise applied in the evaluation: operands above
//!   the upper bound are split, operands below the lower bound are merged
//!   (the paper's example uses 25 mJ and 20 mJ per operand).

use std::fmt;

use tech45::units::Energy;

use crate::error::DiacError;
use crate::tree::{OperandId, OperandTree};

/// Which restructuring policy to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Split everything above the upper bound (resiliency first).
    Policy1,
    /// Merge everything below the lower bound (efficiency first).
    Policy2,
    /// Split above the upper bound and merge below the lower bound.
    Policy3,
}

impl Policy {
    /// All policies in paper order.
    pub const ALL: [Policy; 3] = [Policy::Policy1, Policy::Policy2, Policy::Policy3];
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Policy1 => write!(f, "Policy1 (split)"),
            Policy::Policy2 => write!(f, "Policy2 (merge)"),
            Policy::Policy3 => write!(f, "Policy3 (hybrid)"),
        }
    }
}

/// The energy bounds steering the policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyBounds {
    /// Operands above this per-activation energy are split.
    pub split_above: Energy,
    /// Operands below this per-activation energy are merged.
    pub merge_below: Energy,
}

impl PolicyBounds {
    /// The bounds of the paper's Fig. 2 example: split above 25 mJ, merge
    /// below 20 mJ per operand.
    #[must_use]
    pub fn paper_example() -> Self {
        Self {
            split_above: Energy::from_millijoules(25.0),
            merge_below: Energy::from_millijoules(20.0),
        }
    }

    /// Bounds derived from a tree's own energy distribution: the upper bound
    /// is `upper_fraction` of the total tree energy, the lower bound
    /// `lower_fraction`.  This is how netlist-scale trees (whose operands are
    /// picojoule-scale) are restructured with the same machinery as the
    /// millijoule-scale Fig. 2 example.
    #[must_use]
    pub fn relative_to(tree: &OperandTree, upper_fraction: f64, lower_fraction: f64) -> Self {
        let total = tree.total_energy();
        Self {
            split_above: total * upper_fraction.max(0.0),
            merge_below: total * lower_fraction.max(0.0),
        }
    }

    /// Checks that the bounds are ordered (`merge_below <= split_above`).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.merge_below <= self.split_above
    }
}

impl Default for PolicyBounds {
    fn default() -> Self {
        Self::paper_example()
    }
}

/// Outcome of applying a policy to a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicyOutcome {
    /// How many operands were split.
    pub splits: usize,
    /// How many merges were performed.
    pub merges: usize,
}

/// Applies `policy` with `bounds` to `tree` in place.
///
/// Splitting divides an oversized operand into the smallest number of chained
/// parts whose energy falls below the upper bound; merging folds an
/// undersized operand into its lowest-energy neighbour as long as the result
/// stays below the upper bound.
///
/// # Errors
///
/// Returns [`DiacError::InvalidConfig`] when the bounds are inconsistent.
pub fn apply_policy(
    tree: &mut OperandTree,
    policy: Policy,
    bounds: &PolicyBounds,
) -> Result<PolicyOutcome, DiacError> {
    if !bounds.is_consistent() {
        return Err(DiacError::InvalidConfig {
            message: format!(
                "policy bounds are inconsistent: merge_below ({}) > split_above ({})",
                bounds.merge_below, bounds.split_above
            ),
        });
    }
    let mut outcome = PolicyOutcome::default();
    if matches!(policy, Policy::Policy1 | Policy::Policy3) {
        outcome.splits = split_pass(tree, bounds)?;
    }
    if matches!(policy, Policy::Policy2 | Policy::Policy3) {
        outcome.merges = merge_pass(tree, bounds)?;
    }
    tree.validate()?;
    Ok(outcome)
}

/// Splits every operand whose energy exceeds the upper bound.
fn split_pass(tree: &mut OperandTree, bounds: &PolicyBounds) -> Result<usize, DiacError> {
    let mut splits = 0;
    let candidates: Vec<OperandId> =
        tree.iter().filter(|o| o.dict.energy() > bounds.split_above).map(|o| o.id).collect();
    for id in candidates {
        let Some(op) = tree.try_operand(id) else { continue };
        let energy = op.dict.energy();
        if energy <= bounds.split_above || bounds.split_above.is_non_positive() {
            continue;
        }
        let mut parts = (energy.ratio(bounds.split_above)).ceil() as usize;
        parts = parts.max(2);
        if !op.gates.is_empty() {
            parts = parts.min(op.gates.len());
        }
        if parts < 2 {
            continue;
        }
        tree.split_operand(id, parts)?;
        splits += 1;
    }
    Ok(splits)
}

/// Merges every operand whose energy falls below the lower bound into its
/// cheapest neighbour, as long as the merged operand stays below the upper
/// bound.
fn merge_pass(tree: &mut OperandTree, bounds: &PolicyBounds) -> Result<usize, DiacError> {
    let mut merges = 0;
    // Every round merges the first candidate in slot order.  The scan
    // resumes at `resume`: every live operand below it was no candidate
    // when last scanned, and no merge since has changed that (see below).
    let mut resume = 0;
    // Iterate until a fixed point (each pass may enable further merges), with
    // a hard cap to guarantee termination even for adversarial inputs.
    let max_rounds = tree.len().max(32);
    for _round in 0..max_rounds {
        let candidate = (resume..tree.slots())
            .filter_map(|slot| tree.try_operand(OperandId(slot as u32)))
            .filter(|o| o.dict.energy() < bounds.merge_below)
            .filter_map(|o| {
                // Each neighbour comes tagged with its side: `true` for a
                // parent of `o`.  Children come first, so ties keep going to
                // the first child.
                let neighbours = (o.children.iter().map(|&n| (n, false)))
                    .chain(o.parents.iter().map(|&n| (n, true)));
                let best = neighbours
                    .filter_map(|(n, is_parent)| Some((tree.try_operand(n)?, is_parent)))
                    .filter(|(n, _)| n.dict.energy() + o.dict.energy() <= bounds.split_above)
                    // Contracting an edge of a DAG is only cycle-free when one
                    // endpoint has no other connection on that side: either
                    // the child end has a single parent or the parent end has
                    // a single child.  Reject any other pair.
                    .filter(|&(n, is_parent)| {
                        let (child, parent) = if is_parent { (o, n) } else { (n, o) };
                        child.parents.len() == 1 || parent.children.len() == 1
                    })
                    .map(|(n, _)| n)
                    .min_by(|a, b| {
                        a.dict.energy().partial_cmp(&b.dict.energy()).expect("finite energies")
                    })?;
                Some((o.id, best.id))
            })
            .next();
        match candidate {
            Some((small, neighbour)) => {
                tree.merge_operands(neighbour, small)?;
                merges += 1;
                // Candidacy reads an operand's energy and edges and its
                // neighbours' energies and edge counts.  The merge changed
                // the survivor's energy and edges, retired `small` and
                // re-pointed `small`'s neighbours at the survivor, so only
                // the survivor and its neighbours can have become
                // candidates.  (A neighbour's neighbour can only see an
                // edge count fall from three or more to two or more, which
                // admits no new pair.)  Everything below `small` was no
                // candidate before.
                let survivor = tree.operand(neighbour);
                resume = (survivor.children.iter().chain(&survivor.parents))
                    .chain([&neighbour, &small])
                    .map(|id| id.index())
                    .min()
                    .expect("the survivor and the merged operand have slots");
            }
            None => break,
        }
    }
    Ok(merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::parser::parse_bench;
    use tech45::units::Seconds;

    /// The Fig. 2 tree: eight leaf operands F1..F8 reduced towards one output,
    /// with F2 oversized (must be split) and F5..F8 undersized (must merge).
    fn fig2_tree() -> OperandTree {
        let mj = Energy::from_millijoules;
        let ms = Seconds::from_millis;
        OperandTree::builder("fig2")
            .node("F1", mj(22.0), ms(2.0), &[])
            .node("F2", mj(60.0), ms(6.0), &[])
            .node("F3", mj(23.0), ms(2.0), &[])
            .node("F4", mj(24.0), ms(2.0), &[])
            .node("F5", mj(6.0), ms(1.0), &["F1", "F2"])
            .node("F6", mj(5.0), ms(1.0), &["F3", "F4"])
            .node("F7", mj(4.0), ms(1.0), &["F5", "F6"])
            .node("F8", mj(3.0), ms(1.0), &["F7"])
            .build()
            .unwrap()
    }

    #[test]
    fn paper_bounds_are_25_and_20_mj() {
        let b = PolicyBounds::paper_example();
        assert!((b.split_above.as_millijoules() - 25.0).abs() < 1e-12);
        assert!((b.merge_below.as_millijoules() - 20.0).abs() < 1e-12);
        assert!(b.is_consistent());
    }

    #[test]
    fn inconsistent_bounds_are_rejected() {
        let mut tree = fig2_tree();
        let bad = PolicyBounds {
            split_above: Energy::from_millijoules(10.0),
            merge_below: Energy::from_millijoules(20.0),
        };
        let err = apply_policy(&mut tree, Policy::Policy3, &bad).unwrap_err();
        assert!(matches!(err, DiacError::InvalidConfig { .. }));
    }

    #[test]
    fn policy1_splits_the_oversized_operand() {
        let mut tree = fig2_tree();
        let before = tree.len();
        let outcome =
            apply_policy(&mut tree, Policy::Policy1, &PolicyBounds::paper_example()).unwrap();
        assert!(outcome.splits >= 1);
        assert_eq!(outcome.merges, 0);
        assert!(tree.len() > before);
        // After splitting, no operand exceeds the upper bound.
        for op in tree.iter() {
            assert!(
                op.dict.energy() <= Energy::from_millijoules(25.0 + 1e-9),
                "{} still too big: {}",
                op.name,
                op.dict.energy()
            );
        }
    }

    #[test]
    fn policy2_merges_the_undersized_operands() {
        let mut tree = fig2_tree();
        let before = tree.len();
        let outcome =
            apply_policy(&mut tree, Policy::Policy2, &PolicyBounds::paper_example()).unwrap();
        assert!(outcome.merges >= 1);
        assert_eq!(outcome.splits, 0);
        assert!(tree.len() < before);
    }

    #[test]
    fn policy3_does_both_and_preserves_total_energy() {
        let mut tree = fig2_tree();
        let total_before = tree.total_energy();
        let outcome =
            apply_policy(&mut tree, Policy::Policy3, &PolicyBounds::paper_example()).unwrap();
        assert!(outcome.splits >= 1);
        assert!(outcome.merges >= 1);
        assert!(
            (tree.total_energy().as_millijoules() - total_before.as_millijoules()).abs() < 1e-9
        );
        assert!(tree.validate().is_ok());
    }

    #[test]
    fn policy3_is_between_the_two_extremes_in_operand_count() {
        let mut p1 = fig2_tree();
        let mut p2 = fig2_tree();
        let mut p3 = fig2_tree();
        let bounds = PolicyBounds::paper_example();
        apply_policy(&mut p1, Policy::Policy1, &bounds).unwrap();
        apply_policy(&mut p2, Policy::Policy2, &bounds).unwrap();
        apply_policy(&mut p3, Policy::Policy3, &bounds).unwrap();
        // Policy1 only adds nodes, Policy2 only removes them, Policy3 lands
        // in between.
        assert!(p1.len() >= p3.len());
        assert!(p3.len() >= p2.len() || p3.len() >= 2);
    }

    #[test]
    fn relative_bounds_scale_with_the_tree() {
        let nl = parse_bench("s27", netlist::embedded::S27_BENCH).unwrap();
        let tree = OperandTree::from_netlist(&nl).unwrap();
        let bounds = PolicyBounds::relative_to(&tree, 0.4, 0.05);
        assert!(bounds.is_consistent());
        assert!(bounds.split_above < tree.total_energy());
        assert!(bounds.merge_below.value() > 0.0);
    }

    #[test]
    fn policies_keep_netlist_trees_valid() {
        // At these bounds Policy3 both splits and merges s382's operands.
        let nl = netlist::suite::BenchmarkSuite::diac_paper().materialize("s382").unwrap();
        for policy in Policy::ALL {
            let mut tree = OperandTree::from_netlist(&nl).unwrap();
            let bounds = PolicyBounds::relative_to(&tree, 0.05, 0.01);
            let outcome = apply_policy(&mut tree, policy, &bounds).unwrap();
            assert!(tree.validate().is_ok(), "{policy}");
            assert!(!tree.is_empty());
            if policy == Policy::Policy3 {
                assert!(outcome.splits >= 1 && outcome.merges >= 1, "{outcome:?}");
            }
        }
    }

    #[test]
    fn display_names_are_descriptive() {
        assert!(Policy::Policy1.to_string().contains("split"));
        assert!(Policy::Policy2.to_string().contains("merge"));
        assert!(Policy::Policy3.to_string().contains("hybrid"));
    }
}
