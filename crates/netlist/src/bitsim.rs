//! 64-lane bit-parallel functional simulation.
//!
//! [`BitSim`] is the compiled evaluation schedule of one netlist.  It packs
//! 64 independent input patterns into one `u64` per signal (lane *k* of
//! every word belongs to pattern *k*) and evaluates the whole netlist with
//! plain word-wide boolean operations: one pass over the combinational
//! gates settles all 64 patterns at once.
//!
//! The schedule is compiled once, at construction ([`BitSim::new`], or
//! [`BitSim::from_levels`] for a caller that has levelized already), into
//! *runs*: maximal groups of gates that share a level, a [`GateKind`] and a
//! fan-in count.  Levels are visited in increasing order, and gates of one
//! level never read each other, so any order inside a level is sound;
//! ordering each level by (kind, fan-in count), with one stable counting
//! sort per level that is linear in its gate count, makes the runs as long
//! as they can be.  The targets of all runs sit in one flat `u32` array and
//! their fan-ins in another, both in run order, so a run is two contiguous
//! slices.  The hot loop dispatches once per run, not once per gate, into a
//! kernel specialised by arity: a const-generic fold for fan-ins 1–4
//! (buffers and inverters are the 1-input AND and NAND), a multiplexer
//! kernel, and one generic-arity loop for the wider gates parsed
//! `.bench`/BLIF files carry.
//!
//! A [`BitSim`] is immutable and owns no words: [`BitSim::settle`] reads
//! input, state and word buffers the caller owns and leaves every signal's
//! value in the word buffer (a flip-flop's next state is the word of its D
//! input).  The kernels are generic over a lane width `R`: a signal is
//! `[u64; R]`, and every boolean operation applies to each of its `R`
//! words.  The equivalence checker settles eight independent rounds at
//! once on `[u64; 8]` words, both designs in one shared buffer (see
//! [`crate::equiv`]).  A settle touches only the run table, the two index
//! arrays and the words, and performs no hashing, no pointer chasing and
//! no allocation.
//!
//! Lane semantics: [`lane`] extracts pattern *k* from a word; lane 0 of a
//! settle over inputs whose lane 0 equals a scalar input vector is
//! bit-identical to [`crate::sim::Simulator`] on that vector (pinned by the
//! `bitsim_props` property suite).
//!
//! LUT gates are rejected with the same [`NetlistError::UnsupportedGate`]
//! reason as the scalar simulator: their covers carry no interpreted logic
//! function in this data model.

use std::ops::{BitAnd, BitOr, BitXor};

use crate::error::NetlistError;
use crate::gate::{Gate, GateId, GateKind};
use crate::levelize::{levelize, Levels};
use crate::netlist::Netlist;

/// Extracts one pattern lane from a packed simulation word.
#[must_use]
pub fn lane(word: u64, lane: u32) -> bool {
    (word >> lane) & 1 == 1
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

/// A 64-lane word-parallel simulator bound to one netlist: its compiled
/// evaluation schedule, everything a settle reads but the words.  It is
/// immutable once built, so one simulator can settle any number of word
/// buffers of any lane width.
#[derive(Debug, Clone)]
pub struct BitSim<'a> {
    pub(crate) netlist: &'a Netlist,
    runs: Vec<Run>,
    /// Target gate of every scheduled gate, in run order.
    targets: Vec<u32>,
    /// Fan-ins of every scheduled gate, in run order.
    fanins: Vec<u32>,
    /// Constant gates (sources, so outside the combinational schedule).
    consts: Vec<(GateId, u64)>,
}

impl<'a> BitSim<'a> {
    /// Levelizes `netlist` and compiles its schedule.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the design cannot be
    /// levelized and [`NetlistError::UnsupportedGate`] if it contains LUT
    /// gates whose function is unknown (the same rejection — and reason —
    /// as the scalar [`crate::sim::Simulator`]).
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        netlist.check_simulable()?;
        Ok(Self::compile(netlist, &levelize(netlist)?))
    }

    /// [`Self::new`] over levels the caller already computed with
    /// [`levelize`], so a caller that needs them too levelizes once.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnsupportedGate`] for LUT gates, like
    /// [`Self::new`].
    ///
    /// # Panics
    ///
    /// Panics if `levels` does not level one entry per gate of `netlist`.
    pub fn from_levels(netlist: &'a Netlist, levels: &Levels) -> Result<Self, NetlistError> {
        assert_eq!(
            levels.topological().len(),
            netlist.gate_count(),
            "levels of another netlist passed to BitSim::from_levels"
        );
        netlist.check_simulable()?;
        Ok(Self::compile(netlist, levels))
    }

    /// Compiles the schedule of a simulable `netlist` from its levels.
    fn compile(netlist: &'a Netlist, levels: &Levels) -> Self {
        // `by_level` lists each level's gates in id order; a stable counting
        // sort of a level's combinational gates by kind-and-arity class
        // makes its runs, and ties keep id order.  Each gate is fetched once
        // per compile; the level's gates, the class counts and the sorted
        // gates are buffers every level reuses.
        let stride = netlist.iter().map(|g| g.fanin_count()).max().unwrap_or(0) + 1;
        let class = |gate: &Gate| gate.kind as usize * stride + gate.fanin_count();
        let arena = netlist.fanin_arena();
        let mut runs: Vec<Run> = Vec::new();
        let mut targets = Vec::with_capacity(netlist.gate_count());
        let mut fanins = Vec::with_capacity(arena.len());
        let mut next = vec![0_usize; GateKind::ALL.len() * stride + 1];
        let (mut comb, mut sorted) = (Vec::new(), Vec::new());
        for level in levels.by_level() {
            comb.clear();
            comb.extend(
                level.iter().map(|&id| *netlist.gate(id)).filter(|g| g.kind.is_combinational()),
            );
            next.fill(0);
            for gate in &comb {
                next[class(gate) + 1] += 1;
            }
            for c in 1..next.len() {
                next[c] += next[c - 1];
            }
            sorted.clone_from(&comb);
            for gate in &comb {
                let slot = &mut next[class(gate)];
                sorted[*slot] = *gate;
                *slot += 1;
            }
            for run in sorted.chunk_by(|a, b| class(a) == class(b)) {
                runs.push(Run {
                    kind: run[0].kind,
                    arity: run[0].fanin_count() as u32,
                    gates: run.len() as u32,
                });
                for gate in run {
                    targets.push(gate.id.0);
                    fanins.extend(arena[gate.span.range()].iter().map(|f| f.0));
                }
            }
        }
        let consts = netlist.const_gates().map(|(id, v)| (id, if v { !0 } else { 0 })).collect();
        Self { netlist, runs, targets, fanins, consts }
    }

    /// Settles one clock cycle over `R` words of 64 lanes per signal:
    /// writes the sources (one input word per primary input in declaration
    /// order, the flip-flop `state` in declaration order, the constants)
    /// into `words`, then evaluates every run.  Every signal's value is
    /// left in `words`, indexed by gate id; the next state of a flip-flop
    /// is the word of its D input.  `words` needs at least one entry per
    /// gate and may be longer, so designs of different sizes can share one
    /// buffer; entries of gates this netlist does not have are left alone.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UndefinedSignal`] naming the first missing
    /// primary input if `inputs` is shorter than the primary-input count
    /// (extra entries are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one entry per flip-flop or `words`
    /// has fewer entries than the netlist has gates.
    pub fn settle<const R: usize>(
        &self,
        inputs: &[[u64; R]],
        state: &[[u64; R]],
        words: &mut [[u64; R]],
    ) -> Result<(), NetlistError> {
        let netlist = self.netlist;
        let pis = netlist.primary_inputs();
        if inputs.len() < pis.len() {
            return Err(NetlistError::UndefinedSignal {
                name: netlist.name_of(pis[inputs.len()]).to_string(),
                referenced_by: "bit-parallel input vector".to_string(),
            });
        }
        assert_eq!(state.len(), netlist.flip_flop_count(), "one state entry per flip-flop");
        assert!(words.len() >= netlist.gate_count(), "words must have one entry per gate");
        for (&pi, &word) in pis.iter().zip(inputs) {
            words[pi.index()] = word;
        }
        for (&ff, &word) in netlist.flip_flops().iter().zip(state) {
            words[ff.index()] = word;
        }
        for &(id, word) in &self.consts {
            words[id.index()] = [word; R];
        }
        let (mut targets, mut fanins) = (self.targets.as_slice(), self.fanins.as_slice());
        for run in &self.runs {
            let (run_targets, rest) = targets.split_at(run.gates as usize);
            let (run_fanins, rest_fanins) = fanins.split_at(run_targets.len() * run.arity as usize);
            eval_run(run, run_targets, run_fanins, words);
            (targets, fanins) = (rest, rest_fanins);
        }
        Ok(())
    }
}

/// Evaluates one run over `R` words per signal: dispatches once on its
/// kind and arity, then applies one kernel to every gate of the run.
/// Buffers and inverters are the 1-input AND and NAND.
fn eval_run<const R: usize>(run: &Run, targets: &[u32], fanins: &[u32], words: &mut [[u64; R]]) {
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

/// `acc = op(acc, word)`, lane by lane.
fn fold_into<const R: usize, F: Fn(u64, u64) -> u64>(acc: &mut [u64; R], word: &[u64; R], op: &F) {
    for (a, &w) in acc.iter_mut().zip(word) {
        *a = op(*a, w);
    }
}

/// Folds `op` over each gate's fan-in words and XORs the result with
/// `invert` (`!0` for the inverting kinds).
fn fold_run<const R: usize, F: Fn(u64, u64) -> u64>(
    arity: usize,
    targets: &[u32],
    fanins: &[u32],
    words: &mut [[u64; R]],
    op: F,
    invert: u64,
) {
    match arity {
        1 => fold_fixed::<1, R, _>(targets, fanins, words, op, invert),
        2 => fold_fixed::<2, R, _>(targets, fanins, words, op, invert),
        3 => fold_fixed::<3, R, _>(targets, fanins, words, op, invert),
        4 => fold_fixed::<4, R, _>(targets, fanins, words, op, invert),
        _ => {
            for (&target, ins) in targets.iter().zip(fanins.chunks_exact(arity)) {
                let mut acc = words[ins[0] as usize];
                for &f in &ins[1..] {
                    fold_into(&mut acc, &words[f as usize], &op);
                }
                words[target as usize] = acc.map(|a| a ^ invert);
            }
        }
    }
}

/// [`fold_run`] for a fan-in count known at compile time.
fn fold_fixed<const K: usize, const R: usize, F: Fn(u64, u64) -> u64>(
    targets: &[u32],
    fanins: &[u32],
    words: &mut [[u64; R]],
    op: F,
    invert: u64,
) {
    let (gates, _) = fanins.as_chunks::<K>();
    for (&target, ins) in targets.iter().zip(gates) {
        let mut acc = words[ins[0] as usize];
        for &f in &ins[1..] {
            fold_into(&mut acc, &words[f as usize], &op);
        }
        words[target as usize] = acc.map(|a| a ^ invert);
    }
}

/// Multiplexers, fan-in order (select, a, b): select chooses `b` when high.
fn mux_run<const R: usize>(targets: &[u32], fanins: &[u32], words: &mut [[u64; R]]) {
    let (gates, _) = fanins.as_chunks::<3>();
    for (&target, &[select, a, b]) in targets.iter().zip(gates) {
        let (select, a, b) = (words[select as usize], words[a as usize], words[b as usize]);
        words[target as usize] = std::array::from_fn(|l| (select[l] & b[l]) | (!select[l] & a[l]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::parser::parse_bench;
    use crate::sim::Simulator;
    use crate::suite::BenchmarkSuite;
    use rand::{RngCore, SeedableRng, StdRng};

    /// One R = 1 cycle, a test stand-in for a stateful simulator's step:
    /// settles `sim` from `state`, advances `state` to the next state (each
    /// flip-flop's D-input word) and returns every signal's word by gate id.
    fn step(sim: &BitSim<'_>, inputs: &[u64], state: &mut [u64]) -> Result<Vec<u64>, NetlistError> {
        let nl = sim.netlist;
        let mut words = vec![[0]; nl.gate_count()];
        sim.settle(inputs.as_chunks().0, state.as_chunks().0, &mut words)?;
        let words = words.into_flattened();
        for (slot, &ff) in state.iter_mut().zip(nl.flip_flops()) {
            *slot = words[nl.fanin(ff)[0].index()];
        }
        Ok(words)
    }

    /// The primary-output words of a settle, in declaration order.
    fn outputs(nl: &Netlist, words: &[u64]) -> Vec<u64> {
        nl.primary_outputs().iter().map(|po| words[po.index()]).collect()
    }

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
                    nl.name_of(id)
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
            assert_eq!(scheduled[gate.id.index()], want, "gate {} scheduled", nl.name_of(gate.id));
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
    fn wide_words_settle_each_word_like_a_bitsim() {
        // Every kernel: a wide XNOR, a multiplexer, a constant, a NOR and a
        // flip-flop, besides s27's fixed-arity gates.
        let mut b = NetlistBuilder::new("kernels");
        let x: Vec<GateId> = (0..5).map(|i| b.add_input(format!("x{i}"))).collect();
        let one = b.add_gate("one", GateKind::Const1, vec![]).unwrap();
        let wide = b.add_gate("wide", GateKind::Xnor, x.clone()).unwrap();
        let m = b.add_gate("m", GateKind::Mux, vec![x[0], wide, one]).unwrap();
        let q = b.add_gate("q", GateKind::Dff, vec![m]).unwrap();
        let o = b.add_gate("o", GateKind::Nor, vec![q, x[4], wide]).unwrap();
        b.mark_output(o);
        let kernels = b.finish().unwrap();
        let s27 = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for nl in [&kernels, &s27] {
            let mut random = |count: usize| -> Vec<[u64; 8]> {
                (0..count).map(|_| std::array::from_fn(|_| rng.next_u64())).collect()
            };
            let inputs = random(nl.primary_inputs().len());
            let state = random(nl.flip_flop_count());
            let mut words = vec![[0_u64; 8]; nl.gate_count()];
            let sim = BitSim::new(nl).unwrap();
            sim.settle(&inputs, &state, &mut words).unwrap();
            for k in 0..8 {
                let word_k = |words: &[[u64; 8]]| words.iter().map(|w| w[k]).collect::<Vec<_>>();
                let narrow = step(&sim, &word_k(&inputs), &mut word_k(&state)).unwrap();
                for id in nl.ids() {
                    assert_eq!(words[id.index()][k], narrow[id.index()], "{} word {k}", nl.name());
                }
            }
        }
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
        let sim = BitSim::new(&nl).unwrap();
        // The four input combinations in lanes 0..4.
        let wa = 0b1100_u64;
        let wb = 0b1010_u64;
        let out = outputs(&nl, &step(&sim, &[wa, wb], &mut []).unwrap());
        assert_eq!(out[0] & 0xF, 0b1000, "AND");
        assert_eq!(out[1] & 0xF, 0b0111, "NAND");
        assert_eq!(out[2] & 0xF, 0b1110, "OR");
        assert_eq!(out[3] & 0xF, 0b0001, "NOR");
        assert_eq!(out[4] & 0xF, 0b0110, "XOR");
        assert_eq!(out[5] & 0xF, 0b1001, "XNOR");
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
        let sim = BitSim::new(&nl).unwrap();
        let out = outputs(&nl, &step(&sim, &[0b01, 0b11, 0b00], &mut []).unwrap());
        // lane 0: s=1 selects y=0; lane 1: s=0 selects x=1.
        assert!(!lane(out[0], 0));
        assert!(lane(out[0], 1));
        assert_eq!(out[1], !0_u64);
    }

    #[test]
    fn all_64_lanes_match_the_scalar_simulator_on_s27() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let bit = BitSim::new(&nl).unwrap();
        // 64 distinct patterns: lane k carries the bits of k.
        let inputs: Vec<u64> = (0..4)
            .map(|bit| (0..64).filter(|k| k & (1 << bit) != 0).fold(0, |w, k| w | 1 << k))
            .collect();
        let mut state = vec![0; nl.flip_flop_count()];
        let mut words = Vec::new();
        for _ in 0..3 {
            words = step(&bit, &inputs, &mut state).unwrap();
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
                assert_eq!(lane(words[po.index()], k), want, "lane {k} output {po}");
            }
            for (slot, &want) in last.next_state.iter().enumerate() {
                assert_eq!(lane(state[slot], k), want, "lane {k} state {slot}");
            }
        }
    }

    #[test]
    fn short_input_vectors_name_the_missing_input() {
        let nl = parse_bench("s27", crate::embedded::S27_BENCH).unwrap();
        let sim = BitSim::new(&nl).unwrap();
        let mut words = vec![[0]; nl.gate_count()];
        let err = sim.settle(&[[0]], &[[0]; 3], &mut words).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::UndefinedSignal { ref name, ref referenced_by }
                if name == "G1" && referenced_by == "bit-parallel input vector"
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
        let sim = BitSim::new(&nl).unwrap();
        let inputs = [[0]; 4];
        let mut words = vec![[0]; nl.gate_count()];
        sim.settle(&inputs, &[[1], [2], [3]], &mut words).unwrap();
        let ff_words: Vec<[u64; 1]> = nl.flip_flops().iter().map(|ff| words[ff.index()]).collect();
        assert_eq!(ff_words, [[1], [2], [3]]);
        // A state or word buffer of the wrong size is rejected.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.settle(&inputs, &[[1]], &mut words)
        }));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.settle(&inputs, &[[0]; 3], &mut words[1..])
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
        let sim = BitSim::new(&nl).unwrap();
        let mut state = [0];
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(outputs(&nl, &step(&sim, &[], &mut state).unwrap())[0]);
        }
        assert_eq!(seen, vec![0, !0_u64, 0, !0_u64]);
    }
}
