//! Property test of the arena-backed `OperandTree` against a boxed
//! pointer-chasing reference model.
//!
//! The seed implementation stored operand edges behind owned collections per
//! node; the arena replaced that with one append-only slot vector in which
//! retired operands stay behind as tombstones.  This test pins the arena to
//! the old semantics: a boxed reference model (nodes as `Box`ed records
//! addressed by name) implements `split`/`merge` exactly as specified, a
//! random build→split→merge sequence is applied to both representations,
//! and after every step both must canonicalise to the same form (names,
//! energies, fan-in/out, sorted edges, levels).

use std::collections::HashMap;

use diac_core::tree::{OperandId, OperandTree};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use tech45::units::{Energy, Seconds};

// --- the boxed reference model ---------------------------------------------

/// One reference node, heap-boxed and addressed by name (the "chase pointers
/// through owned records" shape the arena replaced).
#[derive(Debug, Clone)]
struct ModelNode {
    name: String,
    dynamic_j: f64,
    static_j: f64,
    critical_path_s: f64,
    gate_count: usize,
    fan_in: usize,
    fan_out: usize,
    children: Vec<String>,
    parents: Vec<String>,
}

#[derive(Debug, Default)]
struct BoxedModel {
    // The boxing is the point: this reference model deliberately keeps each
    // node as a separate heap allocation, the shape the arena replaced.
    #[allow(clippy::vec_box)]
    nodes: Vec<Box<ModelNode>>,
}

impl BoxedModel {
    fn find(&self, name: &str) -> usize {
        self.nodes.iter().position(|n| n.name == name).expect("model node exists")
    }

    fn add_explicit(&mut self, name: &str, energy_mj: f64, delay_ms: f64, children: &[String]) {
        for child in children {
            let idx = self.find(child);
            self.nodes[idx].parents.push(name.to_string());
        }
        self.nodes.push(Box::new(ModelNode {
            name: name.to_string(),
            dynamic_j: Energy::from_millijoules(energy_mj).value(),
            static_j: 0.0,
            critical_path_s: Seconds::from_millis(delay_ms).value(),
            gate_count: 1,
            fan_in: children.len().max(1),
            fan_out: 1,
            children: children.to_vec(),
            parents: Vec::new(),
        }));
    }

    /// Mirrors `OperandTree::split_operand` for explicit (gate-free) nodes.
    fn split(&mut self, name: &str, parts: usize) {
        let idx = self.find(name);
        let original = *self.nodes.remove(idx);
        let part_name = |i: usize| format!("{}_{i}", original.name);
        for i in 0..parts {
            let children = if i == 0 { original.children.clone() } else { vec![part_name(i - 1)] };
            let parents =
                if i + 1 == parts { original.parents.clone() } else { vec![part_name(i + 1)] };
            self.nodes.push(Box::new(ModelNode {
                name: part_name(i),
                dynamic_j: original.dynamic_j / parts as f64,
                static_j: original.static_j / parts as f64,
                critical_path_s: original.critical_path_s / parts as f64,
                gate_count: (original.gate_count / parts).max(1),
                fan_in: if i == 0 { original.fan_in } else { 1 },
                fan_out: if i + 1 == parts { original.fan_out } else { 1 },
                children,
                parents,
            }));
        }
        for child in &original.children {
            let idx = self.find(child);
            for p in &mut self.nodes[idx].parents {
                if *p == original.name {
                    *p = part_name(0);
                }
            }
        }
        for parent in &original.parents {
            let idx = self.find(parent);
            for c in &mut self.nodes[idx].children {
                if *c == original.name {
                    *c = part_name(parts - 1);
                }
            }
        }
    }

    /// Mirrors `OperandTree::merge_operands`: `b` is folded into `a`.
    fn merge(&mut self, a: &str, b: &str) {
        let b_idx = self.find(b);
        let b_node = *self.nodes.remove(b_idx);
        let a_idx = self.find(a);
        {
            let a_node = &mut self.nodes[a_idx];
            a_node.dynamic_j += b_node.dynamic_j;
            a_node.static_j += b_node.static_j;
            a_node.critical_path_s += b_node.critical_path_s;
            a_node.gate_count += b_node.gate_count;
            a_node.fan_in += b_node.fan_in;
            a_node.fan_out = (a_node.fan_out + b_node.fan_out).saturating_sub(1);
            a_node.children.extend(b_node.children.iter().cloned());
            a_node.children.retain(|c| c != a && c != b);
            a_node.children.sort_unstable();
            a_node.children.dedup();
            a_node.parents.extend(b_node.parents.iter().cloned());
            a_node.parents.retain(|p| p != a && p != b);
            a_node.parents.sort_unstable();
            a_node.parents.dedup();
        }
        for neighbour in b_node.children.iter().chain(b_node.parents.iter()) {
            if neighbour == a {
                continue;
            }
            let Some(idx) = self.nodes.iter().position(|n| n.name == *neighbour) else { continue };
            let node = &mut self.nodes[idx];
            for c in &mut node.children {
                if c == b {
                    *c = a.to_string();
                }
            }
            for p in &mut node.parents {
                if p == b {
                    *p = a.to_string();
                }
            }
            node.children.sort_unstable();
            node.children.dedup();
            node.parents.sort_unstable();
            node.parents.dedup();
        }
    }

    /// Longest-path levels (leaves = 0), memoised by name.
    fn levels(&self) -> HashMap<String, u32> {
        fn level(model: &BoxedModel, name: &str, memo: &mut HashMap<String, u32>) -> u32 {
            if let Some(&l) = memo.get(name) {
                return l;
            }
            let idx = model.find(name);
            let children = model.nodes[idx].children.clone();
            let l = children.iter().map(|c| level(model, c, memo) + 1).max().unwrap_or(0);
            memo.insert(name.to_string(), l);
            l
        }
        let mut memo = HashMap::new();
        for node in &self.nodes {
            level(self, &node.name, &mut memo);
        }
        memo
    }
}

// --- canonical forms --------------------------------------------------------

/// Canonical per-node record: name, bit-exact energies, structural features,
/// sorted edge names, level.  Representation order is erased by sorting.
type Canonical = Vec<(String, u64, u64, u64, usize, usize, usize, Vec<String>, Vec<String>, u32)>;

fn canonical_of_tree(tree: &OperandTree) -> Canonical {
    let name_of = |id: OperandId| -> String { tree.operand(id).name.clone() };
    let mut rows: Canonical = tree
        .iter()
        .map(|op| {
            let mut children: Vec<String> = op.children.iter().map(|&c| name_of(c)).collect();
            children.sort_unstable();
            let mut parents: Vec<String> = op.parents.iter().map(|&p| name_of(p)).collect();
            parents.sort_unstable();
            (
                op.name.clone(),
                op.dict.estimate.dynamic.value().to_bits(),
                op.dict.estimate.static_.value().to_bits(),
                op.dict.estimate.critical_path.value().to_bits(),
                op.dict.estimate.gate_count,
                op.dict.fan_in,
                op.dict.fan_out,
                children,
                parents,
                op.dict.level,
            )
        })
        .collect();
    rows.sort();
    rows
}

fn canonical_of_model(model: &BoxedModel) -> Canonical {
    let levels = model.levels();
    let mut rows: Canonical = model
        .nodes
        .iter()
        .map(|node| {
            let mut children = node.children.clone();
            children.sort_unstable();
            let mut parents = node.parents.clone();
            parents.sort_unstable();
            (
                node.name.clone(),
                node.dynamic_j.to_bits(),
                node.static_j.to_bits(),
                node.critical_path_s.to_bits(),
                node.gate_count,
                node.fan_in,
                node.fan_out,
                children,
                parents,
                levels[&node.name],
            )
        })
        .collect();
    rows.sort();
    rows
}

// --- the random driver ------------------------------------------------------

fn id_of(tree: &OperandTree, name: &str) -> OperandId {
    tree.iter().find(|o| o.name == name).expect("arena node exists").id
}

/// Contractible edges as `(survivor parent, retired child)` name pairs: the
/// policy's cycle-safety condition (the child end has a single parent or the
/// parent end has a single child), sorted for deterministic choice.
fn mergeable_pairs(tree: &OperandTree) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    for op in tree.iter() {
        for &child in &op.children {
            let child_op = tree.operand(child);
            if child_op.parents.len() == 1 || op.children.len() == 1 {
                pairs.push((op.name.clone(), child_op.name.clone()));
            }
        }
    }
    pairs.sort();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random explicit DAGs driven through random split/merge sequences stay
    /// canonically identical to the boxed reference model.
    #[test]
    fn arena_and_boxed_model_agree_on_random_restructurings(
        node_count in 3_u64..10,
        op_count in 1_u64..8,
        seed in 0_u64..2_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);

        // Build the same random layered DAG in both representations.
        let mut builder = OperandTree::builder("model");
        let mut model = BoxedModel::default();
        let mut names: Vec<String> = Vec::new();
        for i in 0..node_count {
            let name = format!("N{i}");
            let mut children: Vec<String> = Vec::new();
            for earlier in &names {
                if rng.gen::<f64>() < 0.4 {
                    children.push(earlier.clone());
                }
            }
            let energy_mj = rng.gen_range(1.0_f64..50.0);
            let delay_ms = rng.gen_range(0.5_f64..5.0);
            let child_refs: Vec<&str> = children.iter().map(String::as_str).collect();
            builder = builder.node(
                &name,
                Energy::from_millijoules(energy_mj),
                Seconds::from_millis(delay_ms),
                &child_refs,
            );
            model.add_explicit(&name, energy_mj, delay_ms, &children);
            names.push(name);
        }
        let mut tree = builder.build().expect("random DAG builds");
        prop_assert_eq!(canonical_of_tree(&tree), canonical_of_model(&model));

        // Drive both through the same random restructuring sequence.
        for _ in 0..op_count {
            if rng.gen::<f64>() < 0.5 {
                // Split a random live node.
                let mut live: Vec<String> = tree.iter().map(|o| o.name.clone()).collect();
                live.sort();
                let name = live[rng.gen_range(0..live.len() as u64) as usize].clone();
                let parts = rng.gen_range(2_u64..5) as usize;
                let id = id_of(&tree, &name);
                tree.split_operand(id, parts).expect("explicit split");
                model.split(&name, parts);
            } else {
                // Contract a random safe edge (skip if none).
                let pairs = mergeable_pairs(&tree);
                if pairs.is_empty() {
                    continue;
                }
                let (parent, child) =
                    pairs[rng.gen_range(0..pairs.len() as u64) as usize].clone();
                let a = id_of(&tree, &parent);
                let b = id_of(&tree, &child);
                tree.merge_operands(a, b).expect("safe merge");
                model.merge(&parent, &child);
            }
            prop_assert!(tree.validate().is_ok());
            prop_assert_eq!(canonical_of_tree(&tree), canonical_of_model(&model));
        }
    }
}
