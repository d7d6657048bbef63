//! `OperandTree::validate` against a copy of the scan it replaced.
//!
//! The check compares edge lists as sets in time linear in the edges.  The
//! scan below is the quadratic original: for every edge entry it searches
//! the other endpoint's list.  Both must return the same result, message
//! included, on the hand-made trees (each inconsistency the check reports,
//! and the list shapes it must accept) and on registry trees driven through
//! random split/merge sequences and then corrupted at random.  The scan's
//! cycle check runs on a copy with each edge entry kept once, because the
//! check counts edges as sets in the cycle check as well.

use std::sync::OnceLock;

use diac_core::tree::{OperandId, OperandTree};
use diac_core::DiacError;
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use tech45::units::{Energy, Seconds};

/// The scan `validate` replaced: a `contains` search per edge entry.
fn scan_validate(tree: &OperandTree) -> Result<(), DiacError> {
    for op in tree.iter() {
        for &child in &op.children {
            let c = tree.try_operand(child).ok_or_else(|| DiacError::InvalidTree {
                message: format!("{} references retired child {child}", op.name),
            })?;
            if !c.parents.contains(&op.id) {
                return Err(DiacError::InvalidTree {
                    message: format!("edge {} -> {} is not symmetric", child, op.id),
                });
            }
        }
        for &parent in &op.parents {
            let p = tree.try_operand(parent).ok_or_else(|| DiacError::InvalidTree {
                message: format!("{} references retired parent {parent}", op.name),
            })?;
            if !p.children.contains(&op.id) {
                return Err(DiacError::InvalidTree {
                    message: format!("edge {} -> {} is not symmetric", op.id, parent),
                });
            }
        }
    }
    // The cycle check runs on a copy whose edge lists hold each entry once,
    // so an edge counts once however often a list repeats it, as in the
    // symmetry checks above.
    let mut sets = tree.clone();
    for id in tree.iter().map(|o| o.id) {
        let op = sets.operand_mut(id);
        for list in [&mut op.children, &mut op.parents] {
            let mut seen = Vec::new();
            list.retain(|entry| {
                let first = !seen.contains(entry);
                seen.push(*entry);
                first
            });
        }
    }
    if sets.topological_order().len() != sets.len() {
        return Err(DiacError::InvalidTree {
            message: "operand graph contains a cycle".to_string(),
        });
    }
    Ok(())
}

/// The check's result, after asserting that the old scan agrees with it.
fn checked(tree: &OperandTree) -> Result<(), DiacError> {
    let verdict = tree.validate();
    assert_eq!(verdict, scan_validate(tree), "validate and the old scan disagree");
    verdict
}

fn invalid(message: &str) -> Result<(), DiacError> {
    Err(DiacError::InvalidTree { message: message.to_string() })
}

/// `A` feeds `B` and `C`; `D` reads `B` and `C`.
fn diamond() -> OperandTree {
    let mj = Energy::from_millijoules;
    let ms = Seconds::from_millis;
    OperandTree::builder("diamond")
        .node("A", mj(10.0), ms(1.0), &[])
        .node("B", mj(10.0), ms(1.0), &["A"])
        .node("C", mj(10.0), ms(1.0), &["A"])
        .node("D", mj(10.0), ms(1.0), &["B", "C"])
        .build()
        .unwrap()
}

/// The diamond with `C` merged into `D`, so slot 2 is a tombstone.
fn diamond_with_a_retired_slot() -> OperandTree {
    let mut tree = diamond();
    tree.merge_operands(OperandId(3), OperandId(2)).unwrap();
    assert!(tree.try_operand(OperandId(2)).is_none());
    assert_eq!(checked(&tree), Ok(()));
    tree
}

#[test]
fn a_retired_child_is_reported() {
    let mut tree = diamond_with_a_retired_slot();
    tree.operand_mut(OperandId(1)).children.push(OperandId(2));
    assert_eq!(checked(&tree), invalid("B references retired child op2"));
}

#[test]
fn a_retired_parent_is_reported() {
    let mut tree = diamond_with_a_retired_slot();
    tree.operand_mut(OperandId(0)).parents.push(OperandId(2));
    assert_eq!(checked(&tree), invalid("A references retired parent op2"));
}

#[test]
fn an_out_of_range_reference_counts_as_retired() {
    let mut tree = diamond();
    tree.operand_mut(OperandId(3)).children.push(OperandId(9));
    assert_eq!(checked(&tree), invalid("D references retired child op9"));
}

#[test]
fn a_child_entry_without_its_parent_entry_is_reported() {
    let mut tree = diamond();
    // D lists A as a child, but A does not list D as a parent.
    tree.operand_mut(OperandId(3)).children.push(OperandId(0));
    assert_eq!(checked(&tree), invalid("edge op0 -> op3 is not symmetric"));
}

#[test]
fn a_parent_entry_without_its_child_entry_is_reported() {
    let mut tree = diamond();
    // A lists D as a parent, but D does not list A as a child.
    tree.operand_mut(OperandId(0)).parents.push(OperandId(3));
    assert_eq!(checked(&tree), invalid("edge op0 -> op3 is not symmetric"));
}

#[test]
fn a_duplicated_child_entry_passes_the_symmetry_check() {
    let mut tree = diamond();
    tree.operand_mut(OperandId(3)).children.push(OperandId(1));
    assert_eq!(tree.operand(OperandId(3)).children, [OperandId(1), OperandId(2), OperandId(1)]);
    // The edges match as sets, and the cycle check counts them as sets
    // too: D's in-degree is two, not three, so the acyclic tree passes.
    // (It was reported as a cycle while the check counted entries.)
    assert_eq!(checked(&tree), Ok(()));
    // Mirrored in B's parent list, the duplicate is accepted as well.
    tree.operand_mut(OperandId(1)).parents.push(OperandId(3));
    assert_eq!(checked(&tree), Ok(()));
}

#[test]
fn a_duplicated_parent_entry_is_accepted() {
    let mut tree = diamond();
    // A lists B twice, so popping A lowers B's in-degree of 1 twice.  That
    // used to underflow (a panic in debug builds, a wrapped count that
    // passed in release builds); the second entry is now skipped.
    tree.operand_mut(OperandId(0)).parents.push(OperandId(1));
    assert_eq!(checked(&tree), Ok(()));
}

#[test]
fn the_unsorted_parent_list_a_split_leaves_is_accepted() {
    let mut tree = diamond();
    // B (op1) becomes op4 -> op5, and A's parent entry op1 becomes op4 in
    // place, ahead of op2.
    tree.split_operand(OperandId(1), 2).unwrap();
    assert_eq!(tree.operand(OperandId(0)).parents, [OperandId(4), OperandId(2)]);
    assert_eq!(checked(&tree), Ok(()));
}

#[test]
fn a_cycle_is_reported() {
    let mut tree = diamond();
    // A symmetric edge D -> A closes the cycle A -> B -> D -> A.
    tree.operand_mut(OperandId(0)).children.push(OperandId(3));
    tree.operand_mut(OperandId(3)).parents.push(OperandId(0));
    assert_eq!(checked(&tree), invalid("operand graph contains a cycle"));
}

// --- random restructurings of registry trees --------------------------------

/// Base trees of the registry's smaller circuits.
fn registry_trees() -> &'static [OperandTree] {
    static TREES: OnceLock<Vec<OperandTree>> = OnceLock::new();
    TREES.get_or_init(|| {
        let suite = netlist::suite::BenchmarkSuite::diac_paper();
        ["s27", "s298", "s344", "s386", "mcnc_bcd_fsm", "mcnc_s2s_converter", "mcnc_voting"]
            .iter()
            .map(|name| {
                let nl = suite.materialize(name).unwrap();
                OperandTree::from_netlist(&nl).unwrap()
            })
            .collect()
    })
}

fn live_ids(tree: &OperandTree) -> Vec<OperandId> {
    tree.iter().map(|o| o.id).collect()
}

/// Splits or merges a random live operand; merges only contract edges the
/// policy's cycle-safety condition allows, so the tree stays valid.
fn restructure(tree: &mut OperandTree, rng: &mut StdRng) {
    let ids = live_ids(tree);
    let id = ids[rng.gen_range(0..ids.len())];
    let op = tree.operand(id);
    if rng.gen_bool(0.3) && op.gates.len() >= 2 {
        let parts = rng.gen_range(2..op.gates.len().min(4) + 1);
        tree.split_operand(id, parts).unwrap();
        return;
    }
    let contractible = op
        .children
        .iter()
        .copied()
        .find(|&c| tree.operand(c).parents.len() == 1 || op.children.len() == 1);
    if let Some(child) = contractible {
        tree.merge_operands(id, child).unwrap();
    }
}

/// One random edit of one edge list; any id of `0..slots + 2` may appear,
/// so retired and out-of-range references come up as well.
fn corrupt(tree: &mut OperandTree, rng: &mut StdRng) {
    let ids = live_ids(tree);
    let id = ids[rng.gen_range(0..ids.len())];
    let any = OperandId(rng.gen_range(0..tree.slots() as u32 + 2));
    let neighbour = ids[rng.gen_range(0..ids.len())];
    let op = tree.operand_mut(id);
    let list = if rng.gen_bool(0.5) { &mut op.children } else { &mut op.parents };
    match rng.gen_range(0_u32..6) {
        0 => list.push(any),
        1 if !list.is_empty() => {
            let at = rng.gen_range(0..list.len());
            list.remove(at);
        }
        2 if !list.is_empty() => {
            let at = rng.gen_range(0..list.len());
            list.push(list[at]);
        }
        3 => list.reverse(),
        4 => {
            // A symmetric edge id -> neighbour: valid unless it closes a
            // cycle or loops on itself.
            tree.operand_mut(id).parents.push(neighbour);
            tree.operand_mut(neighbour).children.push(id);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random restructurings stay valid, and random edge edits get the old
    /// scan's verdict and message.
    #[test]
    fn the_linear_check_matches_the_scan(
        tree_index in 0_usize..7,
        edits in 0_u64..12,
        corruptions in 0_u64..4,
        seed in 0_u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = registry_trees()[tree_index].clone();
        for _ in 0..edits {
            restructure(&mut tree, &mut rng);
            prop_assert_eq!(checked(&tree), Ok(()));
        }
        for _ in 0..corruptions {
            corrupt(&mut tree, &mut rng);
            checked(&tree).ok();
        }
    }
}
