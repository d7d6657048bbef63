//! Functional-equivalence verification of DIAC-replaced designs.
//!
//! The replacement procedure ([`crate::replacement`]) annotates the operand
//! tree with NVM boundaries; the *hardware* reading of such a boundary is an
//! NV latch inserted on every signal leaving the boundary operand — a cell
//! that is functionally transparent in the forward path while committing the
//! value non-volatilely on the side.  Nothing in the structural/electrical
//! accounting verifies that reading, so this module closes the loop:
//!
//! 1. [`replaced_netlist`] materialises the replaced design as a real
//!    [`Netlist`]: for every gate of a boundary operand whose signal is read
//!    outside the operand (by another operand, a flip-flop, or nothing —
//!    primary outputs keep their original driver), an `{name}__nvb` buffer
//!    gate is inserted and all external readers are rewired through it.
//!    The rewrite is [`Netlist::with_buffers`]: the original's gates keep
//!    their ids, and its names and name index are copied, not rebuilt, so
//!    only the buffer names are new.
//! 2. [`crate::pipeline::CircuitArtifacts::verify_replacement`] checks the
//!    rewritten design against the original with seeded random vectors
//!    ([`netlist::equiv`]): identical primary inputs/outputs and flip-flops
//!    by name, common-random-number input streams, counterexample reported
//!    on any mismatch.  The replaced design is compiled from levels derived
//!    from the original's ([`netlist::levelize::Levels::with_buffers`]), not
//!    levelized again.
//!
//! The buffer stands in for the NV latch's combinational path; if the
//! rewiring were wrong anywhere (a reader left on the raw signal that should
//! see the latch, a fan-in crossed between operands, a lost connection), the
//! random-vector check flips an output for a dense set of patterns and the
//! report carries the exact failing assignment.

use netlist::{GateId, Netlist};

use crate::error::DiacError;
use crate::tree::{OperandId, OperandTree};

/// Suffix of the inserted NV-boundary buffer gates.
pub const NV_BUFFER_SUFFIX: &str = "__nvb";

/// Materialises the DIAC-replaced design of `netlist` under `tree` (an
/// operand tree annotated by [`crate::replacement::insert_nvm_boundaries`])
/// as a plain netlist with explicit NV-boundary buffer gates.
///
/// The result exposes the same interface as the original — identical
/// primary-input, primary-output and flip-flop names — which is what makes
/// it checkable by [`netlist::equiv::check_equivalence`].
///
/// # Errors
///
/// Returns [`DiacError::InvalidTree`] if `tree` does not belong to `netlist`
/// (a clustered gate id out of range) or if a `{name}__nvb` buffer name
/// collides with an existing signal, and propagates builder failures.
pub fn replaced_netlist(netlist: &Netlist, tree: &OperandTree) -> Result<Netlist, DiacError> {
    // Which operand owns each combinational gate (live operands partition
    // the combinational gates).
    let gates = netlist.gate_count();
    let mut operand_of: Vec<Option<OperandId>> = vec![None; gates];
    for operand in tree.iter() {
        for &g in &operand.gates {
            let Some(owner) = operand_of.get_mut(g.index()) else {
                return Err(DiacError::InvalidTree {
                    message: format!(
                        "operand {} of `{}` clusters gate {g} outside the netlist",
                        operand.id,
                        tree.name()
                    ),
                });
            };
            *owner = Some(operand.id);
        }
    }
    // A gate needs an NV buffer when its operand commits (nvm_boundary) and
    // some reader sits outside the operand — another operand's gate or a
    // flip-flop D input.  Primary outputs stay on the original driver: the
    // root commit happens beside the output, not in series with it.  The
    // buffers follow the original gates, in gate order.
    let mut drivers: Vec<GateId> = Vec::new();
    let mut buffer = String::new();
    for gate in netlist.iter() {
        let Some(op) = operand_of[gate.id.index()] else { continue };
        let crosses = tree.operand(op).dict.nvm_boundary
            && netlist.fanout(gate.id).iter().any(|r| operand_of[r.index()] != Some(op));
        if !crosses {
            continue;
        }
        let name = netlist.name_of(gate.id);
        buffer.clear();
        buffer.extend([name, NV_BUFFER_SUFFIX]);
        if netlist.find(&buffer).is_some() {
            return Err(DiacError::InvalidTree {
                message: format!("cannot insert NV buffer for `{name}`: `{buffer}` already exists"),
            });
        }
        drivers.push(gate.id);
    }
    // Read through the NV buffer exactly when the edge leaves the driver's
    // operand.  The original's names and index carry over; only the buffer
    // names are added.
    let through =
        |reader: GateId, driver: GateId| operand_of[driver.index()] != operand_of[reader.index()];
    Ok(netlist.with_buffers(&drivers, NV_BUFFER_SUFFIX, through)?)
}

/// Number of NV buffers [`replaced_netlist`] inserted into `replaced`.
#[must_use]
pub fn nv_buffer_count(replaced: &Netlist) -> usize {
    replaced.ids().filter(|&id| replaced.name_of(id).ends_with(NV_BUFFER_SUFFIX)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::{insert_nvm_boundaries, ReplacementConfig};
    use netlist::equiv::{check_equivalence, EquivConfig, EquivReport};
    use netlist::suite::BenchmarkSuite;
    use netlist::{BitSim, GateKind};

    fn enhanced_tree(circuit: &str, budget: f64) -> (Netlist, OperandTree) {
        let nl = BenchmarkSuite::diac_paper().materialize(circuit).unwrap();
        let tree = OperandTree::from_netlist(&nl).unwrap();
        let config = ReplacementConfig { budget_fraction: budget, ..ReplacementConfig::default() };
        let tree = insert_nvm_boundaries(tree, &config).unwrap().into_tree();
        (nl, tree)
    }

    /// Materialises the replaced design and checks it against the original.
    fn verify(nl: &Netlist, tree: &OperandTree) -> EquivReport {
        let replaced = replaced_netlist(nl, tree).unwrap();
        let (original, replaced) = (BitSim::new(nl).unwrap(), BitSim::new(&replaced).unwrap());
        check_equivalence(&original, &replaced, &EquivConfig::default()).unwrap()
    }

    #[test]
    fn the_replaced_s27_is_equivalent_to_the_original() {
        let (nl, tree) = enhanced_tree("s27", 0.15);
        let replaced = replaced_netlist(&nl, &tree).unwrap();
        assert!(nv_buffer_count(&replaced) > 0, "s27 must receive NV buffers");
        assert!(replaced.gate_count() > nl.gate_count());
        let report = verify(&nl, &tree);
        assert!(report.equivalent(), "{report}");
        assert_eq!(report.vectors, EquivConfig::default().vectors());
    }

    #[test]
    fn tighter_budgets_insert_more_buffers_and_stay_equivalent() {
        let (nl, loose) = enhanced_tree("s298", 0.5);
        let (_, tight) = enhanced_tree("s298", 0.05);
        let loose_nl = replaced_netlist(&nl, &loose).unwrap();
        let tight_nl = replaced_netlist(&nl, &tight).unwrap();
        assert!(nv_buffer_count(&tight_nl) >= nv_buffer_count(&loose_nl));
        for tree in [&loose, &tight] {
            let report = verify(&nl, tree);
            assert!(report.equivalent(), "{report}");
        }
    }

    #[test]
    fn the_replaced_interface_matches_by_name() {
        let (nl, tree) = enhanced_tree("s344", 0.15);
        let replaced = replaced_netlist(&nl, &tree).unwrap();
        let names = |ids: &[GateId], n: &Netlist| -> Vec<String> {
            ids.iter().map(|&id| n.name_of(id).to_string()).collect()
        };
        assert_eq!(names(nl.primary_inputs(), &nl), names(replaced.primary_inputs(), &replaced));
        assert_eq!(names(nl.primary_outputs(), &nl), names(replaced.primary_outputs(), &replaced));
        assert_eq!(names(nl.flip_flops(), &nl), names(replaced.flip_flops(), &replaced));
    }

    #[test]
    fn buffers_sit_between_operands_not_inside_them() {
        let (nl, tree) = enhanced_tree("s298", 0.15);
        let replaced = replaced_netlist(&nl, &tree).unwrap();
        // Every inserted buffer is a BUF reading exactly the signal it is
        // named after.
        for gate in replaced.iter() {
            if let Some(original) = replaced.name_of(gate.id).strip_suffix(NV_BUFFER_SUFFIX) {
                assert_eq!(gate.kind, GateKind::Buf);
                let fanin = replaced.fanin(gate.id);
                assert_eq!(fanin.len(), 1);
                assert_eq!(replaced.name_of(fanin[0]), original);
            }
        }
    }

    #[test]
    fn a_foreign_tree_is_rejected() {
        let (nl, _) = enhanced_tree("s27", 0.15);
        let (_, other_tree) = enhanced_tree("s298", 0.15);
        let err = replaced_netlist(&nl, &other_tree).unwrap_err();
        assert!(matches!(err, DiacError::InvalidTree { .. }));
    }
}
