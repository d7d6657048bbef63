//! The operand tree: DIAC's working representation of a design.
//!
//! The tree generator (Fig. 1, steps 1–3) clusters the gates of a synthesized
//! netlist into *operands* (the paper's "functions"), connects them following
//! the netlist's combinational dependencies, and attaches a feature
//! dictionary to every node.  Leaves sit near the primary inputs, roots drive
//! the primary outputs, and the replacement procedure later walks the levels
//! from the leaves upwards.
//!
//! Trees can also be built directly from explicit node energies (see
//! [`OperandTree::builder`]) — that is how the Fig. 2 example of the paper,
//! whose operands are characterised in millijoules, is reproduced.
//!
//! # Arena representation
//!
//! The tree is an index-based arena: one append-only `Vec<Operand>` of slots
//! addressed by `u32` [`OperandId`]s, with parent/child edges stored as id
//! lists — no pointer chasing, no per-node boxing.
//!
//! * [`OperandTree::split_operand`] appends its parts as new slots, and
//!   [`OperandTree::merge_operands`] folds its second operand into the first.
//!   The node either edit retires stays in its slot as a tombstone: a slot
//!   is never reused and ids are never renumbered, so
//!   [`OperandTree::slots`] bounds every slot-indexed side table.
//! * Every edit leaves the levels current.  A split ends in
//!   [`OperandTree::recompute_levels`], one pass over the topological order,
//!   which Kahn's algorithm builds on a flat slot-indexed in-degree table —
//!   no hash maps.  A merge changes only the survivor's children, so it
//!   updates the survivor and the operands above it, and stops wherever a
//!   level does not move.
//!
//! Append-only id assignment is part of the deterministic contract: the
//! policy and replacement tie-breaks walk ids, and the golden reports and the
//! pipeline-equivalence tests depend on them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::mem;

use netlist::levelize::{levelize, Levels};
use netlist::{GateId, Netlist};
use tech45::energy_model::{self, EnergyEstimate};
use tech45::units::{Energy, Seconds};

use crate::error::DiacError;
use crate::feature::FeatureDict;

/// Identifier of an operand node inside one [`OperandTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperandId(pub u32);

impl OperandId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OperandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// One node of the operand tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Operand {
    /// Identifier of the node.
    pub id: OperandId,
    /// Human-readable name (`F13`, `op4_2`, …).
    pub name: String,
    /// Netlist gates clustered into this operand (empty for explicit nodes).
    pub gates: Vec<GateId>,
    /// Operands feeding this one (towards the inputs).
    pub children: Vec<OperandId>,
    /// Operands fed by this one (towards the outputs).
    pub parents: Vec<OperandId>,
    /// Feature dictionary.
    pub dict: FeatureDict,
    alive: bool,
}

impl Operand {
    /// Whether the node is still part of the tree (merges retire nodes).
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Whether this node drives no other operand (a root of the tree).
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.parents.is_empty()
    }

    /// Whether this node has no operand children (a leaf of the tree).
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// Number of netlist gates the clustering puts in one operand (the last
/// operand of a level takes the remainder).
const GATES_PER_OPERAND: usize = 8;

/// The operand tree.
///
/// See the [module docs](self) for the arena representation.
#[derive(Debug, Clone, PartialEq)]
pub struct OperandTree {
    name: String,
    operands: Vec<Operand>,
    /// Total number of architectural state bits of the underlying design
    /// (flip-flops plus primary outputs); carried along for the schemes.
    state_bits: u64,
    /// Live-node count, maintained incrementally (slots minus retired).
    live: usize,
}

impl OperandTree {
    // --- construction -------------------------------------------------------

    /// Clusters `netlist` into an operand tree, eight gates of one level
    /// per operand, each estimated with [`energy_model::estimate`].
    ///
    /// # Errors
    ///
    /// Returns [`DiacError::Netlist`] if the netlist cannot be levelized and
    /// [`DiacError::InvalidTree`] if it has no combinational gate.
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, DiacError> {
        Self::from_levels(netlist, &levelize(netlist)?)
    }

    /// [`Self::from_netlist`] over levels the caller already computed, so a
    /// caller that needs them too levelizes once.
    pub(crate) fn from_levels(netlist: &Netlist, levels: &Levels) -> Result<Self, DiacError> {
        // 1. chunk the combinational gates of every level into operands.
        let mut operands: Vec<Operand> = Vec::new();
        let mut operand_of: Vec<Option<OperandId>> = vec![None; netlist.gate_count()];
        let mut comb: Vec<GateId> = Vec::new();
        for (level_idx, level_gates) in levels.by_level().iter().enumerate() {
            comb.clear();
            comb.extend(level_gates.iter().filter(|&&g| netlist.gate(g).kind.is_combinational()));
            for (chunk_idx, chunk) in comb.chunks(GATES_PER_OPERAND).enumerate() {
                let id = OperandId(operands.len() as u32);
                for &g in chunk {
                    operand_of[g.index()] = Some(id);
                }
                operands.push(Operand {
                    id,
                    name: format!("op{}_{}", level_idx, chunk_idx),
                    gates: chunk.to_vec(),
                    children: Vec::new(),
                    parents: Vec::new(),
                    dict: FeatureDict::default(),
                    alive: true,
                });
            }
        }
        if operands.is_empty() {
            return Err(DiacError::InvalidTree {
                message: format!("netlist `{}` has no combinational gates", netlist.name()),
            });
        }

        // 2. connect operands following gate-level dependencies.  A stamp
        // vector (the operand that last listed each child) drops duplicate
        // children before the sort, and each parent list is sized by a
        // counting pass before it is filled.  Children are sorted, and parents
        // come out sorted because the operands are visited in id order.
        let mut listed_by = vec![u32::MAX; operands.len()];
        let mut parent_count = vec![0_usize; operands.len()];
        let mut children: Vec<OperandId> = Vec::new();
        for operand in &mut operands {
            let id = operand.id;
            children.clear();
            for &g in &operand.gates {
                for f in netlist.fanin(g) {
                    let Some(child) = operand_of[f.index()] else { continue };
                    if child != id && listed_by[child.index()] != id.0 {
                        listed_by[child.index()] = id.0;
                        children.push(child);
                    }
                }
            }
            children.sort_unstable();
            for child in &children {
                parent_count[child.index()] += 1;
            }
            operand.children = children.clone();
        }
        let mut parents: Vec<Vec<OperandId>> =
            parent_count.iter().map(|&count| Vec::with_capacity(count)).collect();
        for operand in &operands {
            for child in &operand.children {
                parents[child.index()].push(operand.id);
            }
        }
        for (operand, parents) in operands.iter_mut().zip(parents) {
            operand.parents = parents;
        }

        // 3. feature dictionaries.  Each chunk sits on one netlist level, so
        // an operand is one gate level deep.  Flip-flops belong to no
        // operand, so a gate feeding one is read outside its operand.
        let mut is_output = vec![false; netlist.gate_count()];
        for &po in netlist.primary_outputs() {
            is_output[po.index()] = true;
        }
        // The operand that last counted each gate as an external input.
        let mut counted_by: Vec<Option<OperandId>> = vec![None; netlist.gate_count()];
        let mut cells = Vec::new();
        for operand in &mut operands {
            let id = Some(operand.id);
            let mut external_inputs = 0;
            let mut external_outputs = 0;
            for &g in &operand.gates {
                for &f in netlist.fanin(g) {
                    if operand_of[f.index()] != id && counted_by[f.index()] != id {
                        counted_by[f.index()] = id;
                        external_inputs += 1;
                    }
                }
                if is_output[g.index()]
                    || netlist.fanout(g).iter().any(|r| operand_of[r.index()] != id)
                {
                    external_outputs += 1;
                }
            }
            cells.clear();
            for &g in &operand.gates {
                let gate = netlist.gate(g);
                gate.kind.decompose_into(gate.fanin_count(), &mut cells);
            }
            let estimate = energy_model::estimate(&cells, Some(1));
            operand.dict = FeatureDict::new(external_inputs, external_outputs.max(1), 0, estimate);
        }

        let mut tree = Self::from_parts(
            netlist.name().to_string(),
            operands,
            netlist.architectural_state_bits(),
        );
        tree.recompute_levels();
        tree.validate()?;
        Ok(tree)
    }

    /// Assembles a tree around a freshly built (all-alive) operand arena.
    fn from_parts(name: String, operands: Vec<Operand>, state_bits: u64) -> Self {
        let live = operands.len();
        Self { name, operands, state_bits, live }
    }

    /// Starts building a tree from explicit nodes (energies given directly),
    /// as needed for the paper's Fig. 2 example.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> OperandTreeBuilder {
        OperandTreeBuilder { name: name.into(), nodes: Vec::new() }
    }

    // --- accessors ----------------------------------------------------------

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live operands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Total number of arena slots, including retired ones — the bound for
    /// slot-indexed side tables (see e.g. the replacement traversal).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.operands.len()
    }

    /// Whether the tree has no live operands.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Architectural state bits of the underlying design.
    #[must_use]
    pub fn state_bits(&self) -> u64 {
        self.state_bits
    }

    /// Iterates over the live operands.
    pub fn iter(&self) -> impl Iterator<Item = &Operand> {
        self.operands.iter().filter(|o| o.alive)
    }

    /// Access to one live operand.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or refers to a retired operand.
    #[must_use]
    pub fn operand(&self, id: OperandId) -> &Operand {
        let op = &self.operands[id.index()];
        assert!(op.alive, "operand {id} has been retired by a merge");
        op
    }

    /// Fallible access to an operand (returns `None` for retired nodes).
    #[must_use]
    pub fn try_operand(&self, id: OperandId) -> Option<&Operand> {
        self.operands.get(id.index()).filter(|o| o.alive)
    }

    /// Mutable access to one live operand.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or refers to a retired operand.
    pub fn operand_mut(&mut self, id: OperandId) -> &mut Operand {
        let op = &mut self.operands[id.index()];
        assert!(op.alive, "operand {id} has been retired by a merge");
        op
    }

    /// Live operands that drive no other operand (the tree roots / outputs).
    #[must_use]
    pub fn roots(&self) -> Vec<OperandId> {
        self.iter().filter(|o| o.is_root()).map(|o| o.id).collect()
    }

    /// Live operands with no operand children (the tree leaves / inputs).
    #[must_use]
    pub fn leaves(&self) -> Vec<OperandId> {
        self.iter().filter(|o| o.is_leaf()).map(|o| o.id).collect()
    }

    /// The deepest level in the tree.
    #[must_use]
    pub fn max_level(&self) -> u32 {
        self.iter().map(|o| o.dict.level).max().unwrap_or(0)
    }

    /// Live operands grouped by level (index 0 = leaves).
    #[must_use]
    pub fn by_level(&self) -> Vec<Vec<OperandId>> {
        let max = self.max_level();
        let mut levels: Vec<Vec<OperandId>> = vec![Vec::new(); max as usize + 1];
        for op in self.iter() {
            levels[op.dict.level as usize].push(op.id);
        }
        levels
    }

    /// Sum of the per-activation energies of all live operands.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.iter().map(|o| o.dict.energy()).sum()
    }

    /// Critical-path delay through the tree: the longest chain of operand
    /// delays from any leaf to any root.
    #[must_use]
    pub fn critical_path(&self) -> Seconds {
        let order = self.topological_order();
        // Slot-indexed arrival times; unvisited slots stay at zero, which is
        // the fold identity, so no liveness filtering is needed.
        let mut arrival = vec![Seconds::ZERO; self.operands.len()];
        let mut worst = Seconds::ZERO;
        for id in order {
            let op = self.operand(id);
            let start =
                op.children.iter().map(|c| arrival[c.index()]).fold(Seconds::ZERO, Seconds::max);
            let t = start + op.dict.delay();
            worst = worst.max(t);
            arrival[id.index()] = t;
        }
        worst
    }

    /// Operands currently flagged as NVM boundaries.
    #[must_use]
    pub fn boundary_operands(&self) -> Vec<OperandId> {
        self.iter().filter(|o| o.dict.nvm_boundary).map(|o| o.id).collect()
    }

    /// Live operands in a topological order (children before parents).
    ///
    /// Kahn's algorithm on a slot-indexed in-degree table.  The ready set is
    /// kept sorted ascending and popped from the back, so the node picked at
    /// every step is the highest ready id.
    #[must_use]
    pub fn topological_order(&self) -> Vec<OperandId> {
        let mut indegree = vec![0_u32; self.operands.len()];
        let mut ready = Vec::new();
        for op in self.iter() {
            let degree = op.children.iter().filter(|c| self.is_alive(**c)).count() as u32;
            indegree[op.id.index()] = degree;
            if degree == 0 {
                // Slot scan order is ascending, so `ready` starts sorted.
                ready.push(op.id);
            }
        }
        let mut order = Vec::with_capacity(self.len());
        while let Some(id) = ready.pop() {
            order.push(id);
            for &parent in &self.operands[id.index()].parents {
                if !self.is_alive(parent) {
                    continue;
                }
                let degree = &mut indegree[parent.index()];
                // An entry the parent does not mirror in its child list (a
                // parent listed twice, say) would count past zero; the
                // parent is then already ready, so the entry is skipped.
                if *degree == 0 {
                    continue;
                }
                *degree -= 1;
                if *degree == 0 {
                    let pos = ready.binary_search(&parent).unwrap_or_else(|p| p);
                    ready.insert(pos, parent);
                }
            }
        }
        order
    }

    fn is_alive(&self, id: OperandId) -> bool {
        self.operands.get(id.index()).is_some_and(|o| o.alive)
    }

    // --- structural edits ---------------------------------------------------

    /// Recomputes every live operand's level from the DAG (leaves = 0).
    pub fn recompute_levels(&mut self) {
        // Children precede parents in topological order, so every live
        // child's level is already final when its parent reads it.
        for id in self.topological_order() {
            self.operands[id.index()].dict.level = self.level_from_children(id);
        }
    }

    /// Splits a live operand into `parts` chained sub-operands (Policy1).
    ///
    /// The first part keeps the original children, each subsequent part reads
    /// the previous one, and the last part inherits the original parents.
    /// The parts are appended as new slots; the original stays behind as a
    /// retired slot.  Returns the ids of the new operands in chain order.
    ///
    /// # Errors
    ///
    /// Returns [`DiacError::InvalidConfig`] when `parts < 2` or the operand
    /// cannot be split that finely; the tree is then unchanged.
    pub fn split_operand(
        &mut self,
        id: OperandId,
        parts: usize,
    ) -> Result<Vec<OperandId>, DiacError> {
        if parts < 2 {
            return Err(DiacError::InvalidConfig {
                message: "splitting requires at least two parts".to_string(),
            });
        }
        let original = self.operand(id);
        let original_dict = original.dict;
        let gate_count = original.gates.len();
        let gate_based = gate_count != 0;
        if gate_based && gate_count < parts {
            return Err(DiacError::InvalidConfig {
                message: format!(
                    "operand {} has only {gate_count} gates, cannot split into {parts} parts",
                    original.name,
                ),
            });
        }
        // Retire the original, taking the pieces the chain redistributes.
        let node = &mut self.operands[id.index()];
        let original_name = node.name.clone();
        let original_gates = mem::take(&mut node.gates);
        let mut original_children = mem::take(&mut node.children);
        let mut original_parents = mem::take(&mut node.parents);
        node.alive = false;
        self.live -= 1;

        let base = self.operands.len() as u32;
        let new_ids: Vec<OperandId> = (0..parts as u32).map(|i| OperandId(base + i)).collect();
        let first = new_ids[0];
        let last = new_ids[parts - 1];
        // Re-point the surrounding operands at the chain ends.
        for &child in &original_children {
            if let Some(op) = self.operands.get_mut(child.index()) {
                for p in &mut op.parents {
                    if *p == id {
                        *p = first;
                    }
                }
            }
        }
        for &parent in &original_parents {
            if let Some(op) = self.operands.get_mut(parent.index()) {
                for c in &mut op.children {
                    if *c == id {
                        *c = last;
                    }
                }
            }
        }

        // Gate-based parts take `chunk` consecutive gates each, the last part
        // absorbing the remainder; they get a placeholder estimate here and
        // are re-estimated from their gates below.  Explicit parts share the
        // original's estimate evenly.
        let chunk = if gate_based { gate_count.div_ceil(parts) } else { 0 };
        let estimate = if gate_based {
            EnergyEstimate::default()
        } else {
            let e = original_dict.estimate;
            EnergyEstimate {
                dynamic: e.dynamic / parts as f64,
                static_: e.static_ / parts as f64,
                critical_path: e.critical_path / parts as f64,
                leakage_power: e.leakage_power,
                gate_count: (e.gate_count / parts).max(1),
            }
        };
        for (i, &new_id) in new_ids.iter().enumerate() {
            let gates = if gate_based {
                let start = (i * chunk).min(gate_count);
                let end =
                    if i + 1 == parts { gate_count } else { ((i + 1) * chunk).min(gate_count) };
                original_gates[start..end].to_vec()
            } else {
                Vec::new()
            };
            let children =
                if i == 0 { mem::take(&mut original_children) } else { vec![new_ids[i - 1]] };
            let parents = if i + 1 == parts {
                mem::take(&mut original_parents)
            } else {
                vec![new_ids[i + 1]]
            };
            let fan_in = if i == 0 { original_dict.fan_in } else { 1 };
            let fan_out = if i + 1 == parts { original_dict.fan_out } else { 1 };
            self.operands.push(Operand {
                id: new_id,
                name: format!("{original_name}_{i}"),
                gates,
                children,
                parents,
                dict: FeatureDict::new(fan_in, fan_out, original_dict.level, estimate),
                alive: true,
            });
            self.live += 1;
            if gate_based {
                self.reestimate(new_id);
            }
        }
        self.recompute_levels();
        Ok(new_ids)
    }

    /// Merges two adjacent live operands into one (Policy2).  The survivor is
    /// `a`; `b` is retired and its gates, children and parents are folded
    /// into `a`.
    ///
    /// # Errors
    ///
    /// Returns [`DiacError::InvalidConfig`] when `a == b` or either operand
    /// has been retired already.
    pub fn merge_operands(&mut self, a: OperandId, b: OperandId) -> Result<OperandId, DiacError> {
        if a == b {
            return Err(DiacError::InvalidConfig {
                message: "cannot merge an operand with itself".to_string(),
            });
        }
        if !self.is_alive(a) || !self.is_alive(b) {
            return Err(DiacError::InvalidConfig {
                message: "cannot merge retired operands".to_string(),
            });
        }
        // Retire b, taking the pieces that are folded into a.
        let b_dict = self.operands[b.index()].dict;
        let mut b_gates = mem::take(&mut self.operands[b.index()].gates);
        let mut b_children = mem::take(&mut self.operands[b.index()].children);
        let mut b_parents = mem::take(&mut self.operands[b.index()].parents);
        self.operands[b.index()].alive = false;
        self.live -= 1;

        // Re-point the operands that referenced b.  Edges are symmetric, so
        // only b's former neighbours can hold such references — no need to
        // scan the whole operand table.  (This only touches nodes other than
        // a, so it commutes with the fold below.)
        for &neighbour in b_children.iter().chain(b_parents.iter()) {
            let Some(op) = self.operands.get_mut(neighbour.index()) else { continue };
            if !op.alive || op.id == a {
                continue;
            }
            let mut touched = false;
            for c in &mut op.children {
                if *c == b {
                    *c = a;
                    touched = true;
                }
            }
            for p in &mut op.parents {
                if *p == b {
                    *p = a;
                    touched = true;
                }
            }
            if touched {
                op.children.sort_unstable();
                op.children.dedup();
                op.parents.sort_unstable();
                op.parents.dedup();
            }
        }
        // Fold b's structure into a: in-place union of the edge lists
        // (extend, drop self-loops, sort, dedup — the same sorted unique
        // result the previous set-based implementation produced).
        let gate_based;
        {
            let a_node = &mut self.operands[a.index()];
            gate_based = !a_node.gates.is_empty() || !b_gates.is_empty();
            a_node.gates.append(&mut b_gates);
            a_node.dict.fan_in += b_dict.fan_in;
            a_node.dict.fan_out = (a_node.dict.fan_out + b_dict.fan_out).saturating_sub(1);
            // Gate-based survivors are re-estimated from their gates below;
            // only explicit (gate-less) operands sum their estimates.
            if !gate_based {
                a_node.dict.estimate = a_node.dict.estimate.merged_with(&b_dict.estimate);
            }
            a_node.children.append(&mut b_children);
            a_node.children.retain(|&c| c != a && c != b);
            a_node.children.sort_unstable();
            a_node.children.dedup();
            a_node.parents.append(&mut b_parents);
            a_node.parents.retain(|&p| p != a && p != b);
            a_node.parents.sort_unstable();
            a_node.parents.dedup();
        }
        if gate_based {
            self.reestimate(a);
        }
        self.update_levels_above(a);
        Ok(a)
    }

    /// The level `id` takes from its live children (leaves = 0).
    fn level_from_children(&self, id: OperandId) -> u32 {
        self.operands[id.index()]
            .children
            .iter()
            .filter_map(|&c| self.try_operand(c))
            .map(|c| c.dict.level + 1)
            .max()
            .unwrap_or(0)
    }

    /// Brings levels up to date after an edit that changed the children of
    /// `id` only (and re-pointed its new parents at it): only `id` and the
    /// operands above it can move, since a level depends on the children
    /// alone.
    ///
    /// The operands are visited in increasing order of their level before
    /// the edit, `id` first.  Outside `id`, every edge joins a lower level
    /// to a higher one, so that order is topological and each operand is
    /// visited once, after all of its moved children.  An operand whose
    /// level does not move stops the walk on its side.  An edit that closed
    /// a cycle (which [`Self::validate`] rejects) can send the walk round
    /// it; after more visits than live operands the walk hands over to
    /// [`Self::recompute_levels`].
    fn update_levels_above(&mut self, id: OperandId) {
        let mut pending = BinaryHeap::from([Reverse((0, id))]);
        let mut last = None;
        let mut visits = 0;
        while let Some(Reverse((_, next))) = pending.pop() {
            // An operand's entries share one key, so they pop in a row.
            if last.replace(next) == Some(next) {
                continue;
            }
            visits += 1;
            if visits > self.live {
                self.recompute_levels();
                return;
            }
            let level = self.level_from_children(next);
            let op = &mut self.operands[next.index()];
            if level == op.dict.level && next != id {
                continue;
            }
            op.dict.level = level;
            for &parent in &self.operands[next.index()].parents {
                if let Some(p) = self.try_operand(parent) {
                    pending.push(Reverse((p.dict.level, parent)));
                }
            }
        }
    }

    fn reestimate(&mut self, id: OperandId) {
        // Gate kinds are not stored per operand, so the re-estimate treats
        // every clustered gate as an average 2-input cell; the original
        // netlist-accurate estimate is preserved for unmodified operands.
        let op = &mut self.operands[id.index()];
        if op.gates.is_empty() {
            return;
        }
        let cells = vec![tech45::cells::CellKind::Nand2; op.gates.len()];
        op.dict.estimate = energy_model::estimate(&cells, None);
    }

    // --- validation & rendering ---------------------------------------------

    /// Checks structural consistency: symmetric edges, no dangling or retired
    /// references, acyclicity.
    ///
    /// Edges are compared as sets, by the symmetry check and the cycle check
    /// alike: a list may hold an entry twice or out of order.  The check is
    /// linear in slots plus edge entries.  The transpose of the live
    /// children lists (bucketed by child slot with a counting sort) is
    /// compared with each operand's `parents` through a stamp vector, so no
    /// edge list is ever scanned for a member.
    ///
    /// # Errors
    ///
    /// Returns [`DiacError::InvalidTree`] describing the first inconsistency
    /// in slot order: a live operand's children, then its parents.
    pub fn validate(&self) -> Result<(), DiacError> {
        let slots = self.operands.len();
        let in_range = |id: OperandId| id.index() < slots;
        // `readers[start[c]..start[c + 1]]`: the live operands listing `c` as
        // a child, one entry per listing, in slot and list order.
        let mut start = vec![0_usize; slots + 1];
        for op in self.iter() {
            for &child in op.children.iter().filter(|&&c| in_range(c)) {
                start[child.index() + 1] += 1;
            }
        }
        for i in 0..slots {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        let mut readers = vec![OperandId(0); start[slots]];
        for op in self.iter() {
            for &child in op.children.iter().filter(|&&c| in_range(c)) {
                readers[cursor[child.index()]] = op.id;
                cursor[child.index()] += 1;
            }
        }
        // `listed_back[k]`: whether the child of listing `k` lists its reader
        // as a parent.  `stamp[p] == x` marks `p` as one of `x`'s parents.
        let mut stamp = vec![u32::MAX; slots];
        let mut listed_back = vec![false; readers.len()];
        for op in self.iter() {
            for &parent in op.parents.iter().filter(|&&p| in_range(p)) {
                stamp[parent.index()] = op.id.0;
            }
            let listings = start[op.id.index()]..start[op.id.index() + 1];
            for k in listings {
                listed_back[k] = stamp[readers[k].index()] == op.id.0;
            }
        }
        // Report in the order of the listings; `cursor` walks each child's
        // bucket again, and `stamp` now marks an operand's readers.
        cursor.copy_from_slice(&start);
        stamp.fill(u32::MAX);
        for op in self.iter() {
            for &child in &op.children {
                if !self.is_alive(child) {
                    return Err(DiacError::InvalidTree {
                        message: format!("{} references retired child {child}", op.name),
                    });
                }
                let k = cursor[child.index()];
                cursor[child.index()] += 1;
                if !listed_back[k] {
                    return Err(DiacError::InvalidTree {
                        message: format!("edge {} -> {} is not symmetric", child, op.id),
                    });
                }
            }
            for &reader in &readers[start[op.id.index()]..start[op.id.index() + 1]] {
                stamp[reader.index()] = op.id.0;
            }
            for &parent in &op.parents {
                if !self.is_alive(parent) {
                    return Err(DiacError::InvalidTree {
                        message: format!("{} references retired parent {parent}", op.name),
                    });
                }
                if stamp[parent.index()] != op.id.0 {
                    return Err(DiacError::InvalidTree {
                        message: format!("edge {} -> {} is not symmetric", op.id, parent),
                    });
                }
            }
        }
        // Kahn's algorithm over the edge *sets* the symmetry check above
        // accepted: a child listed twice adds one to the in-degree, and a
        // popped operand lowers each distinct parent's once.  (The
        // `topological_order` count works per entry, so a child entry
        // repeated on one side only would keep its reader from ever
        // becoming ready.)  `stamp[x] == y` marks `x` as seen from `y`.
        stamp.fill(u32::MAX);
        let mut indegree = vec![0_u32; slots];
        let mut ready = Vec::new();
        for op in self.iter() {
            for &child in &op.children {
                if stamp[child.index()] != op.id.0 {
                    stamp[child.index()] = op.id.0;
                    indegree[op.id.index()] += 1;
                }
            }
            if indegree[op.id.index()] == 0 {
                ready.push(op.id);
            }
        }
        stamp.fill(u32::MAX);
        let mut ordered = 0;
        while let Some(id) = ready.pop() {
            ordered += 1;
            for &parent in &self.operands[id.index()].parents {
                if stamp[parent.index()] != id.0 {
                    stamp[parent.index()] = id.0;
                    indegree[parent.index()] -= 1;
                    if indegree[parent.index()] == 0 {
                        ready.push(parent);
                    }
                }
            }
        }
        if ordered != self.len() {
            return Err(DiacError::InvalidTree {
                message: "operand graph contains a cycle".to_string(),
            });
        }
        Ok(())
    }

    /// Renders the tree as indented ASCII, one line per operand, grouped by
    /// level — the textual counterpart of the paper's Fig. 2 drawings.
    #[must_use]
    pub fn render_ascii(&self) -> String {
        let mut out = format!("operand tree `{}` ({} operands)\n", self.name, self.len());
        for (level, ids) in self.by_level().iter().enumerate() {
            out.push_str(&format!("level {level}:\n"));
            for &id in ids {
                let op = self.operand(id);
                let marker = if op.dict.nvm_boundary { " [NVM]" } else { "" };
                out.push_str(&format!(
                    "  {} ({} gates, {:.3e} J, fan-in {}, fan-out {}){}\n",
                    op.name,
                    op.dict.estimate.gate_count,
                    op.dict.energy().as_joules(),
                    op.dict.fan_in,
                    op.dict.fan_out,
                    marker
                ));
            }
        }
        out
    }
}

impl fmt::Display for OperandTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operand tree `{}`: {} operands, {} levels, {:.3e} J per activation",
            self.name,
            self.len(),
            self.max_level() + 1,
            self.total_energy().as_joules()
        )
    }
}

/// Builder for explicit operand trees (nodes characterised directly by an
/// energy instead of by netlist gates).
#[derive(Debug, Clone)]
pub struct OperandTreeBuilder {
    name: String,
    nodes: Vec<(String, Energy, Seconds, Vec<String>)>,
}

impl OperandTreeBuilder {
    /// Adds a node with the given per-activation `energy`, `delay`, and the
    /// names of the nodes feeding it (children); leaves pass an empty list.
    #[must_use]
    pub fn node(
        mut self,
        name: impl Into<String>,
        energy: Energy,
        delay: Seconds,
        children: &[&str],
    ) -> Self {
        self.nodes.push((
            name.into(),
            energy,
            delay,
            children.iter().map(|s| (*s).to_string()).collect(),
        ));
        self
    }

    /// Finishes the tree.
    ///
    /// # Errors
    ///
    /// Returns [`DiacError::InvalidTree`] for duplicate names or references to
    /// unknown children.
    pub fn build(self) -> Result<OperandTree, DiacError> {
        let mut index: HashMap<String, OperandId> = HashMap::new();
        for (i, (name, ..)) in self.nodes.iter().enumerate() {
            if index.insert(name.clone(), OperandId(i as u32)).is_some() {
                return Err(DiacError::InvalidTree {
                    message: format!("duplicate operand name `{name}`"),
                });
            }
        }
        let mut operands = Vec::with_capacity(self.nodes.len());
        for (i, (name, energy, delay, child_names)) in self.nodes.iter().enumerate() {
            let children: Vec<OperandId> = child_names
                .iter()
                .map(|n| {
                    index.get(n).copied().ok_or_else(|| DiacError::InvalidTree {
                        message: format!("operand `{name}` references unknown child `{n}`"),
                    })
                })
                .collect::<Result<_, _>>()?;
            let estimate = EnergyEstimate {
                dynamic: *energy,
                static_: Energy::ZERO,
                critical_path: *delay,
                leakage_power: tech45::units::Power::ZERO,
                gate_count: 1,
            };
            let dict = FeatureDict::new(children.len().max(1), 1, 0, estimate);
            operands.push(Operand {
                id: OperandId(i as u32),
                name: name.clone(),
                gates: Vec::new(),
                children,
                parents: Vec::new(),
                dict,
                alive: true,
            });
        }
        // Fill in the parent lists.
        let edges: Vec<(OperandId, OperandId)> =
            operands.iter().flat_map(|o| o.children.iter().map(move |&c| (c, o.id))).collect();
        for (child, parent) in edges {
            operands[child.index()].parents.push(parent);
        }
        let mut tree = OperandTree::from_parts(self.name, operands, 0);
        tree.recompute_levels();
        tree.validate()?;
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::parser::parse_bench;
    use netlist::suite::BenchmarkSuite;

    fn s27_tree() -> OperandTree {
        let nl = parse_bench("s27", netlist::embedded::S27_BENCH).unwrap();
        OperandTree::from_netlist(&nl).unwrap()
    }

    #[test]
    fn s27_clusters_into_a_small_valid_tree() {
        let tree = s27_tree();
        assert!(tree.len() >= 3, "a few operands expected, got {}", tree.len());
        assert!(tree.validate().is_ok());
        assert_eq!(tree.state_bits(), 4); // 3 FFs + 1 PO
        assert!(tree.total_energy().value() > 0.0);
        assert!(tree.critical_path().value() > 0.0);
        assert!(!tree.roots().is_empty());
        assert!(!tree.leaves().is_empty());
    }

    #[test]
    fn every_combinational_gate_lands_in_exactly_one_operand() {
        let nl = parse_bench("s27", netlist::embedded::S27_BENCH).unwrap();
        let tree = OperandTree::from_netlist(&nl).unwrap();
        let clustered: usize = tree.iter().map(|o| o.gates.len()).sum();
        assert_eq!(clustered, nl.combinational_count());
    }

    #[test]
    fn topological_order_respects_edges() {
        let tree = s27_tree();
        let order = tree.topological_order();
        assert_eq!(order.len(), tree.len());
        let pos: HashMap<OperandId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for op in tree.iter() {
            for &child in &op.children {
                assert!(pos[&child] < pos[&op.id]);
            }
        }
    }

    #[test]
    fn levels_increase_from_children_to_parents() {
        let tree = s27_tree();
        for op in tree.iter() {
            for &child in &op.children {
                assert!(tree.operand(child).dict.level < op.dict.level);
            }
        }
    }

    #[test]
    fn explicit_builder_produces_the_fig2_shape() {
        let mj = Energy::from_millijoules;
        let ms = Seconds::from_millis;
        let tree = OperandTree::builder("fig2")
            .node("F1", mj(10.0), ms(1.0), &[])
            .node("F2", mj(30.0), ms(3.0), &[])
            .node("F5", mj(8.0), ms(1.0), &["F1", "F2"])
            .node("F8", mj(12.0), ms(1.0), &["F5"])
            .build()
            .unwrap();
        assert_eq!(tree.len(), 4);
        assert_eq!(tree.roots(), vec![OperandId(3)]);
        assert_eq!(tree.leaves().len(), 2);
        assert!((tree.total_energy().as_millijoules() - 60.0).abs() < 1e-9);
        assert_eq!(tree.max_level(), 2);
    }

    #[test]
    fn builder_rejects_duplicates_and_unknown_children() {
        let mj = Energy::from_millijoules;
        let ms = Seconds::from_millis;
        let dup = OperandTree::builder("dup")
            .node("A", mj(1.0), ms(1.0), &[])
            .node("A", mj(1.0), ms(1.0), &[])
            .build();
        assert!(matches!(dup, Err(DiacError::InvalidTree { .. })));
        let unknown = OperandTree::builder("unk").node("A", mj(1.0), ms(1.0), &["ghost"]).build();
        assert!(matches!(unknown, Err(DiacError::InvalidTree { .. })));
    }

    #[test]
    fn splitting_preserves_total_energy_for_explicit_nodes() {
        let mj = Energy::from_millijoules;
        let ms = Seconds::from_millis;
        let mut tree = OperandTree::builder("split")
            .node("A", mj(30.0), ms(3.0), &[])
            .node("B", mj(5.0), ms(1.0), &["A"])
            .build()
            .unwrap();
        let before = tree.total_energy();
        let parts = tree.split_operand(OperandId(0), 3).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(tree.len(), 4);
        assert!(tree.validate().is_ok());
        assert!((tree.total_energy().as_millijoules() - before.as_millijoules()).abs() < 1e-9);
        // The chain increases the depth of the tree.
        assert!(tree.max_level() >= 3);
    }

    #[test]
    fn splitting_a_gate_operand_partitions_its_gates() {
        let mut tree = s27_tree();
        // Find an operand with enough gates.
        let big = tree.iter().find(|o| o.gates.len() >= 4).map(|o| o.id);
        if let Some(id) = big {
            let total_before: usize = tree.iter().map(|o| o.gates.len()).sum();
            let slots_before = tree.slots();
            let parts = tree.split_operand(id, 2).unwrap();
            // The parts are appended; the original's slot is retired.
            let appended: Vec<OperandId> =
                (slots_before..slots_before + 2).map(|i| OperandId(i as u32)).collect();
            assert_eq!(parts, appended);
            assert_eq!(tree.slots(), slots_before + 2);
            assert!(tree.try_operand(id).is_none());
            assert!(tree.validate().is_ok());
            let total_after: usize = tree.iter().map(|o| o.gates.len()).sum();
            assert_eq!(total_before, total_after);
        }
    }

    #[test]
    fn split_rejects_degenerate_requests() {
        let mut tree = s27_tree();
        let pristine = tree.clone();
        let any = tree.iter().next().unwrap().id;
        assert!(tree.split_operand(any, 1).is_err());
        let small = tree.iter().find(|o| !o.gates.is_empty()).unwrap();
        let too_many = small.gates.len() + 5;
        let id = small.id;
        assert!(tree.split_operand(id, too_many).is_err());
        // A rejected split leaves the tree unchanged.
        assert_eq!(tree, pristine);
    }

    #[test]
    fn merging_two_operands_reduces_the_count_and_stays_valid() {
        let mut tree = s27_tree();
        let before = tree.len();
        assert_eq!(tree.slots(), before);
        // Merge a parent with its first child.
        let (parent, child) = tree
            .iter()
            .find_map(|o| o.children.first().map(|&c| (o.id, c)))
            .expect("tree has at least one edge");
        let survivor = tree.merge_operands(parent, child).unwrap();
        assert_eq!(survivor, parent);
        assert_eq!(tree.len(), before - 1);
        assert!(tree.validate().is_ok());
        // The retired child stays behind as a tombstone slot.
        assert!(tree.try_operand(child).is_none());
        assert_eq!(tree.slots(), before);
        assert_eq!(tree.clone(), tree);
    }

    #[test]
    fn merge_rejects_self_and_retired_operands() {
        let mut tree = s27_tree();
        let a = tree.iter().next().unwrap().id;
        assert!(tree.merge_operands(a, a).is_err());
        let (parent, child) =
            tree.iter().find_map(|o| o.children.first().map(|&c| (o.id, c))).expect("edge");
        tree.merge_operands(parent, child).unwrap();
        assert!(tree.merge_operands(parent, child).is_err());
    }

    #[test]
    fn a_merge_that_closes_a_cycle_still_returns() {
        // Folding the sink D into the source A of a diamond makes A read B
        // and C, which read A: the level walk would go round for ever.
        let mj = Energy::from_millijoules;
        let ms = Seconds::from_millis;
        let mut tree = OperandTree::builder("diamond")
            .node("A", mj(1.0), ms(1.0), &[])
            .node("B", mj(1.0), ms(1.0), &["A"])
            .node("C", mj(1.0), ms(1.0), &["A"])
            .node("D", mj(1.0), ms(1.0), &["B", "C"])
            .build()
            .unwrap();
        tree.merge_operands(OperandId(0), OperandId(3)).unwrap();
        assert!(tree.validate().is_err(), "the cycle is reported");
    }

    #[test]
    fn ascii_rendering_lists_every_operand() {
        let tree = s27_tree();
        let text = tree.render_ascii();
        assert!(text.contains("level 0"));
        for op in tree.iter() {
            assert!(text.contains(&op.name));
        }
        assert!(tree.to_string().contains("operand tree"));
    }

    #[test]
    fn large_circuit_tree_generation_scales() {
        let nl = BenchmarkSuite::diac_paper().materialize("s526").unwrap();
        let tree = OperandTree::from_netlist(&nl).unwrap();
        assert!(tree.len() >= 657 / 8);
        assert!(tree.validate().is_ok());
    }
}
