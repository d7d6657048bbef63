//! Two-valued functional simulation of a netlist.
//!
//! The simulator evaluates the combinational logic level by level and
//! computes the next flip-flop state from the D inputs — enough to validate
//! parsed or generated designs functionally (the DIAC flow itself only needs
//! structural and electrical information, but a substrate that cannot tell
//! you what the circuit *computes* would be hard to trust).
//!
//! LUT gates (from BLIF `.names` covers) carry no interpreted logic function
//! in this data model and are rejected; everything the `.bench` front-end and
//! the synthetic generator produce is supported.

use crate::error::NetlistError;
use crate::gate::{GateId, GateKind};
use crate::levelize::{levelize, Levels};
use crate::netlist::Netlist;

/// Result of evaluating one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleResult {
    /// Values of the primary outputs, in declaration order.
    pub outputs: Vec<bool>,
    /// Next state of the flip-flops, in declaration order.
    pub next_state: Vec<bool>,
}

/// A functional simulator bound to one netlist.
///
/// Primary inputs are addressed by *dense slot* (their position in
/// [`Netlist::primary_inputs`] declaration order), so the per-cycle path
/// ([`Simulator::evaluate_dense`] / [`Simulator::step_dense`]) performs no
/// hashing at all; a caller holding names resolves them with
/// [`Netlist::find`].
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    levels: Levels,
    values: Vec<bool>,
    state: Vec<bool>,
    /// Constant gates (sources, so outside the combinational schedule).
    consts: Vec<(GateId, bool)>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with all flip-flops initialised to zero.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the design cannot be
    /// levelized and [`NetlistError::UnsupportedGate`] if it contains LUT
    /// gates whose function is unknown.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        netlist.check_simulable()?;
        let levels = levelize(netlist)?;
        let consts = netlist.const_gates().collect();
        Ok(Self {
            netlist,
            levels,
            values: vec![false; netlist.gate_count()],
            state: vec![false; netlist.flip_flop_count()],
            consts,
        })
    }

    /// Value of one signal after the most recent evaluation.
    #[must_use]
    pub fn value(&self, id: GateId) -> bool {
        self.values[id.index()]
    }

    /// Evaluates one clock cycle from a dense input vector (one entry per
    /// primary input, in declaration order): combinational settle with the
    /// given inputs and the current flip-flop state, then computes the next
    /// state.  The internal state is *not* advanced — call
    /// [`Self::step_dense`] for that.
    ///
    /// This is the allocation- and hash-free hot path; signal values are read
    /// straight off the netlist's CSR fan-in slices.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UndefinedSignal`] if `inputs` is shorter than
    /// the primary-input count (extra entries are ignored).
    pub fn evaluate_dense(&mut self, inputs: &[bool]) -> Result<CycleResult, NetlistError> {
        let pis = self.netlist.primary_inputs();
        if inputs.len() < pis.len() {
            return Err(NetlistError::UndefinedSignal {
                name: self.netlist.name_of(pis[inputs.len()]).to_string(),
                referenced_by: "simulation input vector".to_string(),
            });
        }
        for (&pi, &value) in pis.iter().zip(inputs) {
            self.values[pi.index()] = value;
        }
        for (slot, &ff) in self.netlist.flip_flops().iter().enumerate() {
            self.values[ff.index()] = self.state[slot];
        }
        for &(id, value) in &self.consts {
            self.values[id.index()] = value;
        }
        // Combinational gates in topological order, over CSR slices.
        for &id in self.levels.topological() {
            let kind = self.netlist.gate(id).kind;
            if !kind.is_combinational() {
                continue;
            }
            let value = eval_gate(kind, self.netlist.fanin(id), &self.values);
            self.values[id.index()] = value;
        }
        // Outputs and next state.
        let outputs =
            self.netlist.primary_outputs().iter().map(|&po| self.values[po.index()]).collect();
        let next_state = self
            .netlist
            .flip_flops()
            .iter()
            .map(|&ff| {
                let d = self.netlist.fanin(ff).first().copied();
                d.map(|id| self.values[id.index()]).unwrap_or(false)
            })
            .collect();
        Ok(CycleResult { outputs, next_state })
    }

    /// Evaluates one dense-input cycle and advances the flip-flop state.
    ///
    /// # Errors
    ///
    /// Same as [`Self::evaluate_dense`].
    pub fn step_dense(&mut self, inputs: &[bool]) -> Result<CycleResult, NetlistError> {
        let result = self.evaluate_dense(inputs)?;
        self.state.copy_from_slice(&result.next_state);
        Ok(result)
    }

    /// Checks that every combinational gate's stored value is consistent with
    /// its fan-in values — a whole-netlist self-consistency assertion used by
    /// the property tests.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.netlist.iter().filter(|g| g.kind.is_combinational()).all(|gate| {
            self.values[gate.id.index()]
                == eval_gate(gate.kind, self.netlist.fanin(gate.id), &self.values)
        })
    }
}

/// Evaluates one gate function over its fan-in slice, reading signal values
/// from the dense value table (no per-gate allocation).
fn eval_gate(kind: GateKind, fanin: &[GateId], values: &[bool]) -> bool {
    let val = |i: usize| fanin.get(i).map(|f| values[f.index()]).unwrap_or(false);
    match kind {
        GateKind::Const0 => false,
        GateKind::Const1 => true,
        GateKind::Buf => val(0),
        GateKind::Not => !val(0),
        GateKind::And => fanin.iter().all(|f| values[f.index()]),
        GateKind::Nand => !fanin.iter().all(|f| values[f.index()]),
        GateKind::Or => fanin.iter().any(|f| values[f.index()]),
        GateKind::Nor => !fanin.iter().any(|f| values[f.index()]),
        GateKind::Xor => fanin.iter().filter(|f| values[f.index()]).count() % 2 == 1,
        GateKind::Xnor => fanin.iter().filter(|f| values[f.index()]).count() % 2 == 0,
        // MUX fan-in order: (select, a, b) — select chooses `b` when high.
        GateKind::Mux => {
            if val(0) {
                val(2)
            } else {
                val(1)
            }
        }
        // Sources and LUTs are never evaluated here.
        GateKind::Input | GateKind::Dff | GateKind::Lut => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::parser::parse_bench;

    /// The dense input slot of the primary input called `name`.
    fn input_slot(nl: &Netlist, name: &str) -> Option<usize> {
        let id = nl.find(name)?;
        nl.primary_inputs().iter().position(|&pi| pi == id)
    }

    /// The value of the signal called `name` after the last evaluation.
    fn value_of(sim: &Simulator, name: &str) -> Option<bool> {
        sim.netlist.find(name).map(|id| sim.value(id))
    }

    /// The dense input vector that gives every primary input its value in
    /// `pairs`, addressed by name through [`input_slot`].
    fn inputs(sim: &Simulator, pairs: &[(&str, bool)]) -> Vec<bool> {
        let mut vector = vec![None; sim.netlist.primary_inputs().len()];
        for &(name, value) in pairs {
            vector[input_slot(sim.netlist, name).expect("a primary input")] = Some(value);
        }
        vector.into_iter().map(|value| value.expect("every input named")).collect()
    }

    #[test]
    fn basic_gates_compute_their_truth_tables() {
        let mut b = NetlistBuilder::new("truth");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let and = b.add_gate("and", GateKind::And, vec![a, c]).unwrap();
        let xor = b.add_gate("xor", GateKind::Xor, vec![a, c]).unwrap();
        let nor = b.add_gate("nor", GateKind::Nor, vec![a, c]).unwrap();
        b.mark_output(and);
        b.mark_output(xor);
        b.mark_output(nor);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        for (va, vb, expected) in [
            (false, false, [false, false, true]),
            (false, true, [false, true, false]),
            (true, false, [false, true, false]),
            (true, true, [true, false, false]),
        ] {
            let vector = inputs(&sim, &[("a", va), ("b", vb)]);
            let r = sim.evaluate_dense(&vector).unwrap();
            assert_eq!(r.outputs, expected, "a={va} b={vb}");
            assert!(sim.is_consistent());
        }
    }

    #[test]
    fn mux_selects_between_its_data_inputs() {
        let mut b = NetlistBuilder::new("mux");
        let s = b.add_input("s");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let m = b.add_gate("m", GateKind::Mux, vec![s, x, y]).unwrap();
        b.mark_output(m);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let vector = inputs(&sim, &[("s", false), ("x", true), ("y", false)]);
        let r = sim.evaluate_dense(&vector).unwrap();
        assert_eq!(r.outputs, vec![true]);
        let vector = inputs(&sim, &[("s", true), ("x", true), ("y", false)]);
        let r = sim.evaluate_dense(&vector).unwrap();
        assert_eq!(r.outputs, vec![false]);
    }

    #[test]
    fn a_toggle_flip_flop_toggles() {
        // q' = NOT(q): a one-bit counter.
        let mut b = NetlistBuilder::new("toggle");
        b.add_gate_by_names("q", GateKind::Dff, vec!["n".into()]).unwrap();
        b.add_gate_by_names("n", GateKind::Not, vec!["q".into()]).unwrap();
        b.mark_output_name("q");
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let mut seen = Vec::new();
        for _ in 0..4 {
            let r = sim.step_dense(&[]).unwrap();
            seen.push(r.outputs[0]);
        }
        assert_eq!(seen, vec![false, true, false, true]);
    }

    #[test]
    fn s27_simulation_is_self_consistent_and_state_dependent() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let vector = inputs(&sim, &[("G0", false), ("G1", true), ("G2", false), ("G3", true)]);
        sim.step_dense(&vector).unwrap();
        assert!(sim.is_consistent());
        // The paper's output G17 is the complement of the internal signal G11.
        assert_eq!(value_of(&sim, "G17"), value_of(&sim, "G11").map(|v| !v));

        // With G0 = 0, G14 = NOT(G0) = 1, so G8 = AND(G14, G6) mirrors the
        // second flip-flop: evaluating from different states must change it.
        sim.state.copy_from_slice(&[false, false, false]);
        sim.evaluate_dense(&vector).unwrap();
        let g8_when_zero = value_of(&sim, "G8");
        sim.state.copy_from_slice(&[true, true, true]);
        sim.evaluate_dense(&vector).unwrap();
        let g8_when_one = value_of(&sim, "G8");
        assert_ne!(g8_when_zero, g8_when_one);
        assert!(sim.is_consistent());
    }

    #[test]
    fn synthetic_circuits_simulate_consistently() {
        use crate::synth::{generate, SynthesisConfig};
        let config = SynthesisConfig {
            name: "simcheck".to_string(),
            combinational_gates: 150,
            primary_inputs: 10,
            primary_outputs: 6,
            flip_flops: 13,
            target_depth: 11,
            seed: 0xD1AC,
        };
        let nl = generate(&config).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let vector: Vec<bool> = (0..nl.primary_inputs().len()).map(|i| i % 3 == 0).collect();
        let r = sim.step_dense(&vector).unwrap();
        assert_eq!(r.outputs.len(), nl.primary_outputs().len());
        assert_eq!(r.next_state.len(), nl.flip_flop_count());
        assert!(sim.is_consistent());
    }

    #[test]
    fn dense_and_named_inputs_agree() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        // Dense slots follow declaration order, and names resolve to them.
        for (slot, &pi) in nl.primary_inputs().iter().enumerate() {
            assert_eq!(input_slot(&nl, nl.name_of(pi)), Some(slot));
        }
        assert_eq!(input_slot(&nl, "nope"), None);
    }

    #[test]
    fn short_dense_vectors_name_the_missing_input() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let err = sim.evaluate_dense(&[true, false]).unwrap_err();
        let missing = nl.name_of(nl.primary_inputs()[2]).to_string();
        assert_eq!(
            err,
            NetlistError::UndefinedSignal {
                name: missing,
                referenced_by: "simulation input vector".to_string()
            }
        );
    }

    #[test]
    fn missing_inputs_and_lut_gates_are_rejected() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let err = sim.evaluate_dense(&[]).unwrap_err();
        assert!(matches!(err, NetlistError::UndefinedSignal { .. }));

        let blif = ".model lut\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
        let lut_nl = crate::parser::parse_blif("lut", blif).unwrap();
        assert!(matches!(Simulator::new(&lut_nl), Err(NetlistError::UnsupportedGate { .. })));
    }
}
