//! Combinational levelization.
//!
//! DIAC's feature dictionary records, for every node, "the node level itself
//! (j)".  Levelization assigns level 0 to every source (primary input,
//! constant, flip-flop output) and `1 + max(level of fan-ins)` to every
//! combinational gate, which is also the order in which the replacement
//! procedure traverses the tree from leaves (inputs) to roots (outputs).

use std::collections::VecDeque;

use crate::error::NetlistError;
use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;

/// The result of levelizing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    level_of: Vec<u32>,
    by_level: Vec<Vec<GateId>>,
    topological: Vec<GateId>,
}

impl Levels {
    /// Level of one gate (0 for sources).
    #[must_use]
    pub fn level(&self, id: GateId) -> u32 {
        self.level_of[id.index()]
    }

    /// Gates grouped by level, index 0 being the sources.
    #[must_use]
    pub fn by_level(&self) -> &[Vec<GateId>] {
        &self.by_level
    }

    /// Number of combinational levels (the logic depth).  A netlist with only
    /// sources has depth 0.
    #[must_use]
    pub fn depth(&self) -> u32 {
        (self.by_level.len().saturating_sub(1)) as u32
    }

    /// Gates in a topological order (every gate appears after its fan-ins).
    #[must_use]
    pub fn topological(&self) -> &[GateId] {
        &self.topological
    }

    /// The levels of `buffered`, a design that [`Netlist::with_buffers`]
    /// made from the netlist these levels belong to, derived from these
    /// levels instead of levelizing `buffered` again.
    ///
    /// The original gates keep their ids, and every rewired fan-in reads a
    /// buffer of the driver it read before.  So only a buffer and what
    /// reads it, directly or further down, can sit higher than before.  The
    /// derivation starts from these levels and revisits just those gates,
    /// with [`levelize`]'s rule: a buffer sits one level above its driver,
    /// and a combinational gate one above the highest of its fan-ins.  It
    /// visits them in order of rank, twice a gate's level here (a buffer's
    /// driver's, plus one), which every gate's fan-ins undercut, so each
    /// gate is levelled after all of its fan-ins.  A gate whose level does
    /// not move passes nothing on.  `by_level` then lists each level in id
    /// order, as [`levelize`] does, so the result has [`levelize`]'s level
    /// per gate and its `by_level`; the topological order is `by_level`'s,
    /// level after level.
    ///
    /// # Panics
    ///
    /// Panics if `buffered` has fewer gates than these levels.  For a design
    /// not made that way the result is meaningless.
    #[must_use]
    pub fn with_buffers(&self, buffered: &Netlist) -> Levels {
        let (n, total) = (self.level_of.len(), buffered.gate_count());
        let rank = |id: GateId| match id.index() {
            i if i < n => 2 * self.level_of[i] as usize,
            _ => 2 * self.level_of[buffered.fanin(id)[0].index()] as usize + 1,
        };
        let mut level_of = Vec::with_capacity(total);
        level_of.extend_from_slice(&self.level_of);
        level_of.resize(total, 0);
        // Every buffer is visited; a gate is queued once, in its rank's
        // bucket, when a fan-in moved.
        let mut queued = vec![false; total];
        queued[n..].fill(true);
        let mut buckets: Vec<Vec<GateId>> = vec![Vec::new(); 2 * self.by_level.len()];
        for buffer in (n..total).map(|i| GateId(i as u32)) {
            buckets[rank(buffer)].push(buffer);
        }
        for r in 0..buckets.len() {
            for id in std::mem::take(&mut buckets[r]) {
                let highest = buffered.fanin(id).iter().map(|&f| level_of[f.index()]).max();
                let level = highest.map_or(0, |level| level + 1);
                if id.index() < n && level == level_of[id.index()] {
                    continue;
                }
                level_of[id.index()] = level;
                for &reader in buffered.fanout(id) {
                    if !queued[reader.index()] && !buffered.gate(reader).kind.is_source() {
                        queued[reader.index()] = true;
                        buckets[rank(reader)].push(reader);
                    }
                }
            }
        }
        let by_level = group_by_level(&level_of);
        let topological = by_level.concat();
        Levels { level_of, by_level, topological }
    }
}

/// The gates of each level in id order, every level's list allocated once.
fn group_by_level(level_of: &[u32]) -> Vec<Vec<GateId>> {
    let depth = level_of.iter().copied().max().unwrap_or(0) as usize;
    let mut widths = vec![0_usize; depth + 1];
    for &level in level_of {
        widths[level as usize] += 1;
    }
    let mut by_level: Vec<Vec<GateId>> = widths.into_iter().map(Vec::with_capacity).collect();
    for (i, &level) in level_of.iter().enumerate() {
        by_level[level as usize].push(GateId(i as u32));
    }
    by_level
}

/// Levelizes a netlist.
///
/// Flip-flops are treated as level-0 sources (their D input is a sink), which
/// breaks all sequential loops; a cycle that remains is purely combinational
/// and is reported as an error.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational part of
/// the design is cyclic.
pub fn levelize(netlist: &Netlist) -> Result<Levels, NetlistError> {
    let n = netlist.gate_count();
    let mut level_of = vec![0_u32; n];
    let mut remaining_fanin = vec![0_usize; n];
    let mut queue: VecDeque<GateId> = VecDeque::new();
    let mut topological: Vec<GateId> = Vec::with_capacity(n);

    for gate in netlist.iter() {
        if gate.kind.is_source() {
            remaining_fanin[gate.id.index()] = 0;
            queue.push_back(gate.id);
        } else {
            remaining_fanin[gate.id.index()] = gate.fanin_count();
            if gate.fanin_count() == 0 {
                // Combinational gate without fan-ins (shouldn't happen after
                // validation, but keep the traversal total).
                queue.push_back(gate.id);
            }
        }
    }

    let mut visited = 0_usize;
    while let Some(id) = queue.pop_front() {
        visited += 1;
        topological.push(id);
        for &reader in netlist.fanout(id) {
            let reader_gate = netlist.gate(reader);
            // The D-input of a flip-flop does not propagate combinational depth.
            if reader_gate.kind == GateKind::Dff {
                continue;
            }
            let slot = &mut remaining_fanin[reader.index()];
            if *slot == 0 {
                continue;
            }
            *slot -= 1;
            let candidate = level_of[id.index()] + 1;
            if candidate > level_of[reader.index()] {
                level_of[reader.index()] = candidate;
            }
            if *slot == 0 {
                queue.push_back(reader);
            }
        }
    }

    // Flip-flops were enqueued as sources; their D inputs never decrement
    // them, so every gate should have been visited exactly once unless there
    // is a combinational cycle.
    if visited < n {
        let stuck = netlist
            .iter()
            .find(|g| !g.kind.is_source() && remaining_fanin[g.id.index()] > 0)
            .map(|g| netlist.name_of(g.id).to_string())
            .unwrap_or_else(|| "<unknown>".to_string());
        return Err(NetlistError::CombinationalCycle { gate: stuck });
    }

    let by_level = group_by_level(&level_of);
    Ok(Levels { level_of, by_level, topological })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;
    use crate::parser::parse_bench;

    #[test]
    fn chain_depth_counts_gates() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.add_input("a");
        let g1 = b.add_gate("g1", GateKind::Not, vec![a]).unwrap();
        let g2 = b.add_gate("g2", GateKind::Not, vec![g1]).unwrap();
        let g3 = b.add_gate("g3", GateKind::Not, vec![g2]).unwrap();
        b.mark_output(g3);
        let nl = b.finish().unwrap();
        let levels = levelize(&nl).unwrap();
        assert_eq!(levels.depth(), 3);
        assert_eq!(levels.level(a), 0);
        assert_eq!(levels.level(g3), 3);
        assert_eq!(levels.by_level(), [vec![a], vec![g1], vec![g2], vec![g3]]);
    }

    #[test]
    fn sources_are_level_zero_including_ffs() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let levels = levelize(&nl).unwrap();
        for &ff in nl.flip_flops() {
            assert_eq!(levels.level(ff), 0);
        }
        for &pi in nl.primary_inputs() {
            assert_eq!(levels.level(pi), 0);
        }
        assert!(levels.depth() >= 3, "s27 has a few levels of logic");
    }

    #[test]
    fn topological_order_respects_fanins() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let levels = levelize(&nl).unwrap();
        let order = levels.topological();
        assert_eq!(order.len(), nl.gate_count());
        let position: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for gate in nl.iter() {
            if gate.kind == GateKind::Dff || gate.kind.is_source() {
                continue;
            }
            for &f in nl.fanin(gate.id) {
                assert!(position[&f] < position[&gate.id], "{} before {}", f, gate.id);
            }
        }
    }

    #[test]
    fn level_is_one_plus_max_of_fanins() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let levels = levelize(&nl).unwrap();
        for gate in nl.iter() {
            if !gate.kind.is_combinational() {
                continue;
            }
            let max_in = nl.fanin(gate.id).iter().map(|&f| levels.level(f)).max().unwrap_or(0);
            assert_eq!(levels.level(gate.id), max_in + 1, "gate {}", nl.name_of(gate.id));
        }
    }

    #[test]
    fn sequential_loops_are_fine_but_combinational_cycles_fail() {
        // q -> g -> q through a DFF is fine.
        let mut b = NetlistBuilder::new("seq_loop");
        b.add_gate_by_names("q", GateKind::Dff, vec!["g".into()]).unwrap();
        b.add_gate_by_names("g", GateKind::Not, vec!["q".into()]).unwrap();
        b.mark_output_name("g");
        let nl = b.finish().unwrap();
        assert!(levelize(&nl).is_ok());

        // a purely combinational loop must be rejected.
        let mut b = NetlistBuilder::new("comb_loop");
        b.add_gate_by_names("x", GateKind::Not, vec!["y".into()]).unwrap();
        b.add_gate_by_names("y", GateKind::Not, vec!["x".into()]).unwrap();
        b.mark_output_name("y");
        let nl = b.finish().unwrap();
        assert!(matches!(levelize(&nl), Err(NetlistError::CombinationalCycle { .. })));
    }

    #[test]
    fn every_gate_is_assigned_to_exactly_one_level() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let levels = levelize(&nl).unwrap();
        let total: usize = levels.by_level().iter().map(Vec::len).sum();
        assert_eq!(total, nl.gate_count());
    }
}
