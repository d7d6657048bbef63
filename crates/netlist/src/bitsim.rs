//! 64-lane bit-parallel functional simulation.
//!
//! [`BitSim`] packs 64 independent input patterns into one `u64` per signal
//! (lane *k* of every word belongs to pattern *k*) and evaluates the whole
//! netlist with plain word-wide boolean operations: one pass over the
//! combinational gates settles all 64 patterns at once.
//!
//! The evaluation schedule is compiled once, at construction, into *runs*:
//! maximal groups of gates that share a level, a [`GateKind`] and a fan-in
//! count.  Levels are visited in increasing order, and gates of one level
//! never read each other, so any order inside a level is sound; ordering
//! each level by (kind, fan-in count), with two stable counting sorts that
//! are linear in the gate count, makes the runs as long as they can be.  The
//! targets of all runs sit in one flat `u32` array and their fan-ins in
//! another, both in run order, so a run is two contiguous slices.  The hot
//! loop dispatches once per run, not once per gate, into a kernel
//! specialised by arity: a const-generic fold for fan-ins 1–4 (buffers and
//! inverters are the 1-input AND and NAND), a multiplexer kernel, and one
//! generic-arity loop for the wider gates parsed `.bench`/BLIF files carry.
//!
//! [`BitSim::settle`] runs that loop and leaves every result in place: the
//! signal words ([`BitSim::value`]) and the next state
//! ([`BitSim::next_state`]).  It touches only the run table, the two index
//! arrays and the value words, and performs no hashing, no pointer chasing
//! and no allocation.  [`BitSim::evaluate`] and [`BitSim::step`] are thin
//! wrappers that copy the results into a [`BitCycleResult`]; they allocate
//! its two vectors per cycle, which the equivalence checker avoids by
//! reading in place.
//!
//! Lane semantics: [`lane`] extracts pattern *k* from a word; lane 0 of a
//! [`BitSim`] run over inputs whose lane 0 equals a scalar input vector is
//! bit-identical to [`crate::sim::Simulator`] on that vector (pinned by the
//! `bitsim_props` property suite).
//!
//! LUT gates are rejected with the same [`NetlistError::UnsupportedGate`]
//! reason as the scalar simulator: their covers carry no interpreted logic
//! function in this data model.

use std::ops::{BitAnd, BitOr, BitXor};

use crate::error::NetlistError;
use crate::gate::{GateId, GateKind};
use crate::levelize::levelize;
use crate::netlist::Netlist;

/// Extracts one pattern lane from a packed simulation word.
#[must_use]
pub fn lane(word: u64, lane: u32) -> bool {
    (word >> lane) & 1 == 1
}

/// Packs an iterator of lane values into one simulation word (lane 0 first;
/// at most 64 values are consumed).
#[must_use]
pub fn pack_lanes(values: impl IntoIterator<Item = bool>) -> u64 {
    values.into_iter().take(64).enumerate().fold(0_u64, |word, (k, v)| word | (u64::from(v) << k))
}

/// Result of evaluating one clock cycle over 64 packed patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitCycleResult {
    /// Packed values of the primary outputs, in declaration order.
    pub outputs: Vec<u64>,
    /// Packed next state of the flip-flops, in declaration order.
    pub next_state: Vec<u64>,
}

/// One run of the schedule: gates of one level sharing a kind and a fan-in
/// count.  Its targets are the next `gates` entries of [`BitSim`]'s target
/// array and its fan-ins the next `gates * arity` entries of the fan-in
/// array (gate by gate, each in its netlist fan-in order).
#[derive(Debug, Clone, Copy)]
struct Run {
    kind: GateKind,
    arity: u32,
    gates: u32,
}

/// A 64-lane word-parallel simulator bound to one netlist.
#[derive(Debug, Clone)]
pub struct BitSim<'a> {
    netlist: &'a Netlist,
    runs: Vec<Run>,
    /// Target gate of every scheduled gate, in run order.
    targets: Vec<u32>,
    /// Fan-ins of every scheduled gate, in run order.
    fanins: Vec<u32>,
    words: Vec<u64>,
    state: Vec<u64>,
    /// The D input of each flip-flop, in declaration order.
    d_inputs: Vec<GateId>,
    /// Constant gates (sources, so outside the combinational schedule).
    consts: Vec<(GateId, u64)>,
}

impl<'a> BitSim<'a> {
    /// Creates a simulator with all flip-flop lanes initialised to zero.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the design cannot be
    /// levelized and [`NetlistError::UnsupportedGate`] if it contains LUT
    /// gates whose function is unknown (the same rejection — and reason —
    /// as the scalar [`crate::sim::Simulator`]).
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        netlist.check_simulable()?;
        let levels = levelize(netlist)?;
        // Order the combinational gates by (level, kind, fan-in count) with
        // two stable counting sorts, least significant key first: by
        // kind-and-arity class, then by level.  Ties keep id order.
        let stride = netlist.iter().map(|g| g.fanin_count()).max().unwrap_or(0) + 1;
        let class: Vec<usize> =
            netlist.iter().map(|g| g.kind as usize * stride + g.fanin_count()).collect();
        let comb: Vec<GateId> =
            netlist.iter().filter(|g| g.kind.is_combinational()).map(|g| g.id).collect();
        let by_class = counting_sort(&comb, GateKind::ALL.len() * stride, |id| class[id.index()]);
        let schedule =
            counting_sort(&by_class, levels.by_level().len(), |id| levels.level(id) as usize);

        let mut runs: Vec<Run> = Vec::new();
        let mut targets = Vec::with_capacity(schedule.len());
        let mut fanins = Vec::with_capacity(netlist.fanin_arena().len());
        for run in schedule.chunk_by(|&a, &b| {
            levels.level(a) == levels.level(b) && class[a.index()] == class[b.index()]
        }) {
            let first = netlist.gate(run[0]);
            runs.push(Run {
                kind: first.kind,
                arity: first.fanin_count() as u32,
                gates: run.len() as u32,
            });
            for &id in run {
                targets.push(id.0);
                fanins.extend(netlist.fanin(id).iter().map(|f| f.0));
            }
        }
        let d_inputs = netlist.flip_flops().iter().map(|&ff| netlist.fanin(ff)[0]).collect();
        let consts = netlist.const_gates().map(|(id, v)| (id, if v { !0 } else { 0 })).collect();
        Ok(Self {
            netlist,
            runs,
            targets,
            fanins,
            words: vec![0; netlist.gate_count()],
            state: vec![0; netlist.flip_flop_count()],
            d_inputs,
            consts,
        })
    }

    /// The current packed flip-flop state, in declaration order.
    #[must_use]
    pub fn state(&self) -> &[u64] {
        &self.state
    }

    /// Overrides the packed flip-flop state.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one word per flip-flop.
    pub fn set_state(&mut self, state: &[u64]) {
        assert_eq!(state.len(), self.state.len(), "state vector must have one word per flip-flop");
        self.state.copy_from_slice(state);
    }

    /// Packed value of one signal after the most recent evaluation.
    #[must_use]
    pub fn value(&self, id: GateId) -> u64 {
        self.words[id.index()]
    }

    /// Packed next state of flip-flop `slot` (declaration order) after the
    /// most recent evaluation: the value of its D input.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below the flip-flop count.
    #[must_use]
    pub fn next_state(&self, slot: usize) -> u64 {
        self.words[self.d_inputs[slot].index()]
    }

    /// Settles one clock cycle over 64 packed patterns in place: `inputs`
    /// carries one word per primary input in declaration order (the same
    /// dense slots as [`crate::sim::Simulator::evaluate_dense`]).  Results
    /// are read with [`Self::value`] and [`Self::next_state`]; the internal
    /// state is *not* advanced — call [`Self::latch`] for that.  Allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UndefinedSignal`] if `inputs` is shorter than
    /// the primary-input count (extra entries are ignored).
    pub fn settle(&mut self, inputs: &[u64]) -> Result<(), NetlistError> {
        let pis = self.netlist.primary_inputs();
        if inputs.len() < pis.len() {
            return Err(NetlistError::UndefinedSignal {
                name: self.netlist.gate(pis[inputs.len()]).name.clone(),
                referenced_by: "bit-parallel input vector".to_string(),
            });
        }
        for (&pi, &word) in pis.iter().zip(inputs) {
            self.words[pi.index()] = word;
        }
        for (&ff, &word) in self.netlist.flip_flops().iter().zip(&self.state) {
            self.words[ff.index()] = word;
        }
        for &(id, word) in &self.consts {
            self.words[id.index()] = word;
        }
        let (mut targets, mut fanins) = (self.targets.as_slice(), self.fanins.as_slice());
        for run in &self.runs {
            let (run_targets, rest) = targets.split_at(run.gates as usize);
            let (run_fanins, rest_fanins) = fanins.split_at(run_targets.len() * run.arity as usize);
            eval_run(run, run_targets, run_fanins, &mut self.words);
            (targets, fanins) = (rest, rest_fanins);
        }
        Ok(())
    }

    /// Advances the packed flip-flop state to the next state of the most
    /// recent evaluation.
    pub fn latch(&mut self) {
        for (slot, &d) in self.state.iter_mut().zip(&self.d_inputs) {
            *slot = self.words[d.index()];
        }
    }

    /// Evaluates one clock cycle over 64 packed patterns ([`Self::settle`])
    /// and returns the primary outputs and the next state.  The internal
    /// state is *not* advanced — call [`Self::step`] for that.
    ///
    /// # Errors
    ///
    /// Same as [`Self::settle`].
    pub fn evaluate(&mut self, inputs: &[u64]) -> Result<BitCycleResult, NetlistError> {
        self.settle(inputs)?;
        let outputs = self.netlist.primary_outputs().iter().map(|&po| self.value(po)).collect();
        let next_state = self.d_inputs.iter().map(|&d| self.value(d)).collect();
        Ok(BitCycleResult { outputs, next_state })
    }

    /// Evaluates one cycle and advances the packed flip-flop state.
    ///
    /// # Errors
    ///
    /// Same as [`Self::settle`].
    pub fn step(&mut self, inputs: &[u64]) -> Result<BitCycleResult, NetlistError> {
        let result = self.evaluate(inputs)?;
        self.latch();
        Ok(result)
    }
}

/// Stable counting sort of `ids` by `key(id) < buckets`.
fn counting_sort(ids: &[GateId], buckets: usize, key: impl Fn(GateId) -> usize) -> Vec<GateId> {
    let mut next = vec![0_usize; buckets + 1];
    for &id in ids {
        next[key(id) + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    let mut sorted = vec![GateId(0); ids.len()];
    for &id in ids {
        let slot = &mut next[key(id)];
        sorted[*slot] = id;
        *slot += 1;
    }
    sorted
}

/// Evaluates one run: dispatches once on its kind and arity, then applies
/// one kernel to every gate of the run.  Buffers and inverters are the
/// 1-input AND and NAND.
fn eval_run(run: &Run, targets: &[u32], fanins: &[u32], words: &mut [u64]) {
    let arity = run.arity as usize;
    match run.kind {
        GateKind::Buf | GateKind::And => fold_run(arity, targets, fanins, words, u64::bitand, 0),
        GateKind::Not | GateKind::Nand => fold_run(arity, targets, fanins, words, u64::bitand, !0),
        GateKind::Or => fold_run(arity, targets, fanins, words, u64::bitor, 0),
        GateKind::Nor => fold_run(arity, targets, fanins, words, u64::bitor, !0),
        GateKind::Xor => fold_run(arity, targets, fanins, words, u64::bitxor, 0),
        GateKind::Xnor => fold_run(arity, targets, fanins, words, u64::bitxor, !0),
        GateKind::Mux => mux_run(targets, fanins, words),
        GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff | GateKind::Lut => {
            unreachable!("sources and LUTs are never scheduled")
        }
    }
}

/// Folds `op` over each gate's fan-in words and XORs the result with
/// `invert` (`!0` for the inverting kinds).
fn fold_run<F: Fn(u64, u64) -> u64>(
    arity: usize,
    targets: &[u32],
    fanins: &[u32],
    words: &mut [u64],
    op: F,
    invert: u64,
) {
    match arity {
        1 => fold_fixed::<1, _>(targets, fanins, words, op, invert),
        2 => fold_fixed::<2, _>(targets, fanins, words, op, invert),
        3 => fold_fixed::<3, _>(targets, fanins, words, op, invert),
        4 => fold_fixed::<4, _>(targets, fanins, words, op, invert),
        _ => {
            for (&target, ins) in targets.iter().zip(fanins.chunks_exact(arity)) {
                let acc = ins[1..]
                    .iter()
                    .fold(words[ins[0] as usize], |acc, &f| op(acc, words[f as usize]));
                words[target as usize] = acc ^ invert;
            }
        }
    }
}

/// [`fold_run`] for a fan-in count known at compile time.
fn fold_fixed<const K: usize, F: Fn(u64, u64) -> u64>(
    targets: &[u32],
    fanins: &[u32],
    words: &mut [u64],
    op: F,
    invert: u64,
) {
    let (gates, _) = fanins.as_chunks::<K>();
    for (&target, ins) in targets.iter().zip(gates) {
        let mut acc = words[ins[0] as usize];
        for &f in &ins[1..] {
            acc = op(acc, words[f as usize]);
        }
        words[target as usize] = acc ^ invert;
    }
}

/// Multiplexers, fan-in order (select, a, b): select chooses `b` when high.
fn mux_run(targets: &[u32], fanins: &[u32], words: &mut [u64]) {
    let (gates, _) = fanins.as_chunks::<3>();
    for (&target, &[select, a, b]) in targets.iter().zip(gates) {
        let select = words[select as usize];
        words[target as usize] = (select & words[b as usize]) | (!select & words[a as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::parser::parse_bench;
    use crate::sim::Simulator;
    use crate::suite::BenchmarkSuite;

    /// Walks the compiled schedule of `nl` and asserts its structure: every
    /// combinational gate is scheduled exactly once with its own fan-ins,
    /// each run is one (level, kind, fan-in count) and the only run of that
    /// key, and levels never decrease.  Returns the run count.
    fn checked_run_count(nl: &Netlist) -> usize {
        let sim = BitSim::new(nl).unwrap();
        let levels = levelize(nl).unwrap();
        let mut scheduled = vec![0_usize; nl.gate_count()];
        let mut keys = std::collections::HashSet::new();
        let (mut targets, mut fanins) = (sim.targets.as_slice(), sim.fanins.as_slice());
        let mut last_level = 0;
        for run in &sim.runs {
            assert!(run.gates > 0, "empty run {run:?}");
            let (run_targets, rest) = targets.split_at(run.gates as usize);
            targets = rest;
            let level = levels.level(GateId(run_targets[0]));
            assert!(level >= last_level, "level {level} after level {last_level}");
            last_level = level;
            assert!(keys.insert((level, run.kind, run.arity)), "split run {run:?} at {level}");
            for &target in run_targets {
                let id = GateId(target);
                let gate = nl.gate(id);
                assert_eq!(
                    (levels.level(id), gate.kind, gate.fanin_count()),
                    (level, run.kind, run.arity as usize),
                    "gate {} in run {run:?}",
                    gate.name
                );
                let (ins, rest) = fanins.split_at(run.arity as usize);
                fanins = rest;
                assert!(ins.iter().map(|&f| GateId(f)).eq(nl.fanin(id).iter().copied()));
                scheduled[id.index()] += 1;
            }
        }
        assert!(targets.is_empty() && fanins.is_empty(), "schedule arrays outrun the runs");
        for gate in nl.iter() {
            let want = usize::from(gate.kind.is_combinational());
            assert_eq!(scheduled[gate.id.index()], want, "gate {} scheduled", gate.name);
        }
        sim.runs.len()
    }

    #[test]
    fn runs_cover_every_gate_once_in_level_order() {
        // An inverter chain: one (Not, 1) run per level, never one run.
        let mut b = NetlistBuilder::new("chain");
        let mut signal = b.add_input("a");
        for i in 0..3 {
            signal = b.add_gate(format!("n{i}"), GateKind::Not, vec![signal]).unwrap();
        }
        b.mark_output(signal);
        let chain = b.finish().unwrap();
        let s27 = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let b15 = BenchmarkSuite::diac_paper().materialize("b15").unwrap();
        // Exact run counts: the dispatches one evaluation makes.  A change
        // here means the schedule's grouping changed.
        for (nl, pinned) in [(&chain, 3), (&s27, 9), (&b15, 787)] {
            let runs = checked_run_count(nl);
            assert_eq!(runs, pinned, "{}: got {runs} runs, pinned {pinned}", nl.name());
        }
    }

    #[test]
    fn lane_helpers_round_trip() {
        let word = pack_lanes([true, false, true, true]);
        assert_eq!(word, 0b1101);
        assert!(lane(word, 0) && !lane(word, 1) && lane(word, 2) && lane(word, 3));
        assert!(!lane(word, 63));
        // More than 64 values: the excess is ignored.
        assert_eq!(pack_lanes(std::iter::repeat_n(true, 100)), !0_u64);
    }

    #[test]
    fn truth_tables_hold_in_every_lane() {
        let mut b = NetlistBuilder::new("truth");
        let a = b.add_input("a");
        let c = b.add_input("b");
        for (name, kind) in [
            ("and", GateKind::And),
            ("nand", GateKind::Nand),
            ("or", GateKind::Or),
            ("nor", GateKind::Nor),
            ("xor", GateKind::Xor),
            ("xnor", GateKind::Xnor),
        ] {
            let g = b.add_gate(name, kind, vec![a, c]).unwrap();
            b.mark_output(g);
        }
        let nl = b.finish().unwrap();
        let mut sim = BitSim::new(&nl).unwrap();
        // The four input combinations in lanes 0..4.
        let wa = 0b1100_u64;
        let wb = 0b1010_u64;
        let r = sim.evaluate(&[wa, wb]).unwrap();
        assert_eq!(r.outputs[0] & 0xF, 0b1000, "AND");
        assert_eq!(r.outputs[1] & 0xF, 0b0111, "NAND");
        assert_eq!(r.outputs[2] & 0xF, 0b1110, "OR");
        assert_eq!(r.outputs[3] & 0xF, 0b0001, "NOR");
        assert_eq!(r.outputs[4] & 0xF, 0b0110, "XOR");
        assert_eq!(r.outputs[5] & 0xF, 0b1001, "XNOR");
    }

    #[test]
    fn mux_and_constants_are_word_wide() {
        let mut b = NetlistBuilder::new("mux");
        let s = b.add_input("s");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let m = b.add_gate("m", GateKind::Mux, vec![s, x, y]).unwrap();
        let one = b.add_gate("one", GateKind::Const1, vec![]).unwrap();
        b.mark_output(m);
        b.mark_output(one);
        let nl = b.finish().unwrap();
        let mut sim = BitSim::new(&nl).unwrap();
        let r = sim.evaluate(&[0b01, 0b11, 0b00]).unwrap();
        // lane 0: s=1 selects y=0; lane 1: s=0 selects x=1.
        assert!(!lane(r.outputs[0], 0));
        assert!(lane(r.outputs[0], 1));
        assert_eq!(r.outputs[1], !0_u64);
    }

    #[test]
    fn all_64_lanes_match_the_scalar_simulator_on_s27() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let mut bit = BitSim::new(&nl).unwrap();
        // 64 distinct patterns: lane k carries the bits of k.
        let inputs: Vec<u64> =
            (0..4).map(|bit| pack_lanes((0..64).map(|k| k & (1 << bit) != 0))).collect();
        for _ in 0..3 {
            bit.step(&inputs).unwrap();
        }
        for k in 0..64_u32 {
            let mut scalar = Simulator::new(&nl).unwrap();
            let vector: Vec<bool> = (0..4).map(|bit| k & (1 << bit) != 0).collect();
            let mut last = None;
            for _ in 0..3 {
                last = Some(scalar.step_dense(&vector).unwrap());
            }
            let last = last.unwrap();
            for (po, &want) in nl.primary_outputs().iter().zip(&last.outputs) {
                assert_eq!(lane(bit.value(*po), k), want, "lane {k} output {po}");
            }
            for (slot, &want) in last.next_state.iter().enumerate() {
                assert_eq!(lane(bit.state()[slot], k), want, "lane {k} state {slot}");
            }
        }
    }

    #[test]
    fn short_input_vectors_name_the_missing_input() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let mut sim = BitSim::new(&nl).unwrap();
        let err = sim.evaluate(&[0]).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::UndefinedSignal { ref referenced_by, .. }
                if referenced_by == "bit-parallel input vector"
        ));
    }

    #[test]
    fn lut_gates_are_rejected_with_the_scalar_simulators_reason() {
        let blif = ".model lut\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
        let lut_nl = crate::parser::parse_blif("lut", blif).unwrap();
        let bit_err = BitSim::new(&lut_nl).unwrap_err();
        let scalar_err = Simulator::new(&lut_nl).unwrap_err();
        assert_eq!(bit_err, scalar_err, "BitSim and Simulator must agree on the LUT rejection");
        assert!(matches!(
            bit_err,
            NetlistError::UnsupportedGate { ref reason, .. }
                if reason == "LUT covers carry no interpreted logic function"
        ));
    }

    #[test]
    fn state_width_is_checked() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let mut sim = BitSim::new(&nl).unwrap();
        sim.set_state(&[1, 2, 3]);
        assert_eq!(sim.state(), &[1, 2, 3]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.set_state(&[1]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn toggle_flip_flop_toggles_every_lane() {
        let mut b = NetlistBuilder::new("toggle");
        b.add_gate_by_names("q", GateKind::Dff, vec!["n".into()]).unwrap();
        b.add_gate_by_names("n", GateKind::Not, vec!["q".into()]).unwrap();
        b.mark_output_name("q");
        let nl = b.finish().unwrap();
        let mut sim = BitSim::new(&nl).unwrap();
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(sim.step(&[]).unwrap().outputs[0]);
        }
        assert_eq!(seen, vec![0, !0_u64, 0, !0_u64]);
    }
}
