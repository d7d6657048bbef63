//! Seeded random-vector functional equivalence checking.
//!
//! [`check_equivalence`] drives two compiled designs ([`BitSim`]) that share
//! an interface (primary inputs, primary outputs and flip-flops matched *by
//! name*) with identical streams of seeded random input patterns — the
//! common-random-numbers discipline the scenario campaigns use — and
//! compares every primary output and every flip-flop's next state on every
//! cycle.  Each round packs 64 patterns per cycle into a word, and eight
//! rounds settle together in `[u64; 8]` words, so a default configuration
//! checks thousands of vectors in eight word-parallel passes per design.
//! Sequential behaviour is covered by running several consecutive cycles
//! per round from the all-zero reset state.
//!
//! Random simulation is a refutation procedure, not a proof: a passing
//! report means no counterexample was found among `vectors()` seeded
//! patterns, which is the appropriate check for the DIAC replacement flow —
//! the rewrite is *supposed* to be functionally transparent, and any wiring
//! mistake flips outputs for a dense set of patterns (see `DESIGN.md`,
//! "Functional equivalence of replaced designs").  On a mismatch the failing
//! pattern is reconstructed lane-exactly into a [`Counterexample`].

use rand::{RngCore, SeedableRng, StdRng};

use crate::bitsim::{lane, BitSim};
use crate::error::NetlistError;
use crate::gate::GateId;
use crate::netlist::Netlist;

/// Configuration of one equivalence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EquivConfig {
    /// Seed every input stream is derived from.
    pub seed: u64,
    /// Independent rounds (each restarts both designs from the reset state).
    pub rounds: usize,
    /// Consecutive clock cycles per round (covers sequential depth).
    pub cycles_per_round: usize,
}

impl Default for EquivConfig {
    fn default() -> Self {
        Self { seed: 0xD1AC_E9F1, rounds: 8, cycles_per_round: 8 }
    }
}

impl EquivConfig {
    /// Total number of input patterns the check applies (64 lanes per cycle).
    #[must_use]
    pub fn vectors(&self) -> u64 {
        64 * self.rounds as u64 * self.cycles_per_round as u64
    }
}

/// A concrete input pattern on which the two designs disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The round the mismatch occurred in.
    pub round: usize,
    /// The cycle within the round (0-based; earlier cycles of the round set
    /// up the flip-flop state and are reproducible from the seed).
    pub cycle: usize,
    /// The lane (pattern index within the packed word).
    pub lane: u32,
    /// Name of the first disagreeing signal (a primary output or the next
    /// state of a flip-flop).
    pub signal: String,
    /// The primary-input assignment at the failing cycle, by name.
    pub inputs: Vec<(String, bool)>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mismatch on `{}` (round {}, cycle {}, lane {}): ",
            self.signal, self.round, self.cycle, self.lane
        )?;
        for (i, (name, value)) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={}", u8::from(*value))?;
        }
        Ok(())
    }
}

/// Outcome of one equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// Name of the reference design.
    pub left: String,
    /// Name of the candidate design.
    pub right: String,
    /// Number of input patterns checked (up to the first mismatch).
    pub vectors: u64,
    /// The first mismatch found, if any.
    pub counterexample: Option<Counterexample>,
}

impl EquivReport {
    /// Whether no counterexample was found.
    #[must_use]
    pub fn equivalent(&self) -> bool {
        self.counterexample.is_none()
    }
}

impl std::fmt::Display for EquivReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.counterexample {
            None => write!(
                f,
                "`{}` ≡ `{}` over {} seeded vectors (no counterexample)",
                self.left, self.right, self.vectors
            ),
            Some(cex) => write!(f, "`{}` ≢ `{}`: {cex}", self.left, self.right),
        }
    }
}

/// Maps the interface of `left` onto `right` by name.
struct InterfaceMap {
    /// For each primary input of `left` (dense order), the dense input slot
    /// of the same-named input in `right`.
    inputs: Vec<usize>,
    /// For each primary output of `left`, the output index in `right`.
    outputs: Vec<usize>,
    /// For each flip-flop of `left`, the state slot in `right`.
    flip_flops: Vec<usize>,
}

fn interface_error(name: &str, side: &str) -> NetlistError {
    NetlistError::UndefinedSignal {
        name: name.to_string(),
        referenced_by: format!("equivalence interface ({side})"),
    }
}

/// First gate listed twice in `ids`.  Names are unique within a netlist,
/// so that is the first name listed twice (the `.bench` format allows e.g.
/// a doubled `OUTPUT` line, which would make name-based matching
/// ambiguous).
fn find_duplicate(nl: &Netlist, ids: &[GateId]) -> Option<GateId> {
    let mut seen = vec![false; nl.gate_count()];
    ids.iter().copied().find(|id| std::mem::replace(&mut seen[id.index()], true))
}

/// Maps one interface class (`left_ids` → slots of `right_ids`) by name,
/// looking each left name up in `right`'s name index.  Duplicated names on
/// either side are rejected up front (they would let a surplus right-side
/// signal escape comparison); otherwise errors name the first missing or
/// extra signal.
fn map_class(
    left: &Netlist,
    left_ids: &[GateId],
    right: &Netlist,
    right_ids: &[GateId],
    class: &str,
) -> Result<Vec<usize>, NetlistError> {
    for (nl, ids) in [(left, left_ids), (right, right_ids)] {
        if let Some(dup) = find_duplicate(nl, ids) {
            return Err(interface_error(nl.name_of(dup), &format!("duplicated {class}")));
        }
    }
    // The slot of every right gate of the class, `NO_SLOT` for the others.
    const NO_SLOT: u32 = u32::MAX;
    let mut slot_of = vec![NO_SLOT; right.gate_count()];
    for (slot, &r) in right_ids.iter().enumerate() {
        slot_of[r.index()] = slot as u32;
    }
    let mut slots = Vec::with_capacity(left_ids.len());
    for &id in left_ids {
        let name = left.name_of(id);
        let slot = right.find(name).map_or(NO_SLOT, |r| slot_of[r.index()]);
        if slot == NO_SLOT {
            return Err(interface_error(name, class));
        }
        slots.push(slot as usize);
    }
    // Both sides are duplicate-free and every left name was found in its own
    // slot, so a length mismatch means `right` has surplus names: the first
    // slot no left name took.
    if right_ids.len() != slots.len() {
        let mut taken = vec![false; right_ids.len()];
        for &slot in &slots {
            taken[slot] = true;
        }
        let extra =
            taken.iter().position(|&t| !t).map_or("", |slot| right.name_of(right_ids[slot]));
        return Err(interface_error(extra, &format!("extra {class}")));
    }
    Ok(slots)
}

fn map_interface(left: &Netlist, right: &Netlist) -> Result<InterfaceMap, NetlistError> {
    Ok(InterfaceMap {
        inputs: map_class(
            left,
            left.primary_inputs(),
            right,
            right.primary_inputs(),
            "primary input",
        )?,
        outputs: map_class(
            left,
            left.primary_outputs(),
            right,
            right.primary_outputs(),
            "primary output",
        )?,
        flip_flops: map_class(left, left.flip_flops(), right, right.flip_flops(), "flip-flop")?,
    })
}

/// Rounds settled together: each round is one `u64` of a word, so a pass
/// over the schedule settles this many rounds of one cycle at once.
const BLOCK: usize = 8;

/// The input stream of one round: the word for input `i` at cycle `c` is
/// draw number `c * inputs + i`.
fn round_stream(seed: u64, round: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (round as u64).wrapping_mul(0x9E37))
}

/// The D input of each flip-flop of `nl`, in declaration order: the signal
/// whose word a settle leaves as that flip-flop's next state.
fn d_inputs(nl: &Netlist) -> Vec<GateId> {
    nl.flip_flops().iter().map(|&ff| nl.fanin(ff)[0]).collect()
}

/// Checks the compiled design `left` against `right` with seeded random
/// vectors.
///
/// The two designs must expose the same interface by name: identical sets of
/// primary-input names, primary-output names, and flip-flop names (internal
/// structure is free to differ — that is the point).  Both are reset to the
/// all-zero state at the start of every round.  Compiling a design
/// ([`BitSim::new`]) is where combinational cycles and LUT gates are
/// rejected, so only the interface is checked here.
///
/// Rounds are settled eight at a time, round `k` of a block in word
/// `k` of every signal, each from its own stream.  Both designs share one
/// word buffer: per cycle the left design settles, its outputs are kept and
/// its state latched, then the right design settles over the same words.
///
/// The reported mismatch is the least (round, cycle, signal, lane), the
/// one a round-by-round check meets first.  Within a block a later round
/// may fail at an earlier cycle, so a mismatch only bounds the rounds that
/// can still beat it: those below its own, which run on to the block's last
/// cycle.
///
/// # Errors
///
/// Returns [`NetlistError::UndefinedSignal`] when the interfaces do not
/// match.
pub fn check_equivalence(
    left: &BitSim<'_>,
    right: &BitSim<'_>,
    config: &EquivConfig,
) -> Result<EquivReport, NetlistError> {
    let (left_nl, right_nl) = (left.netlist, right.netlist);
    let map = map_interface(left_nl, right_nl)?;
    let left_outputs = left_nl.primary_outputs();
    let left_d = d_inputs(left_nl);
    let right_outputs: Vec<GateId> =
        map.outputs.iter().map(|&slot| right_nl.primary_outputs()[slot]).collect();
    let right_d = d_inputs(right_nl);
    let right_next: Vec<GateId> = map.flip_flops.iter().map(|&slot| right_d[slot]).collect();

    let zero = [0_u64; BLOCK];
    let mut words = vec![zero; left_nl.gate_count().max(right_nl.gate_count())];
    let mut inputs_l = vec![zero; left_nl.primary_inputs().len()];
    let mut inputs_r = vec![zero; inputs_l.len()];
    let mut state_l = vec![zero; left_nl.flip_flop_count()];
    let mut state_r = vec![zero; right_nl.flip_flop_count()];
    let mut outputs_l = vec![zero; left_outputs.len()];
    let report = |vectors, counterexample| EquivReport {
        left: left_nl.name().to_string(),
        right: right_nl.name().to_string(),
        vectors,
        counterexample,
    };

    // Zero rounds/cycles are honoured literally (an empty check reports zero
    // vectors and no counterexample), keeping `vectors` == `config.vectors()`.
    for first in (0..config.rounds).step_by(BLOCK) {
        let mut streams: Vec<StdRng> = (first..config.rounds.min(first + BLOCK))
            .map(|r| round_stream(config.seed, r))
            .collect();
        state_l.fill(zero);
        state_r.fill(zero);
        // Rounds `first..first + live` can still beat the best mismatch.
        let mut live = streams.len();
        let mut found: Option<Counterexample> = None;
        for cycle in 0..config.cycles_per_round {
            for (k, stream) in streams[..live].iter_mut().enumerate() {
                for (i, word) in inputs_l.iter_mut().enumerate() {
                    word[k] = stream.next_u64();
                    inputs_r[map.inputs[i]][k] = word[k];
                }
            }
            left.settle(&inputs_l, &state_l, &mut words)?;
            for (kept, &po) in outputs_l.iter_mut().zip(left_outputs) {
                *kept = words[po.index()];
            }
            for (state, &d) in state_l.iter_mut().zip(&left_d) {
                *state = words[d.index()];
            }
            right.settle(&inputs_r, &state_r, &mut words)?;

            // Outputs, then next state: the first signal of the least
            // round that differs.
            let diffs = (outputs_l.iter().zip(&right_outputs).zip(left_outputs))
                .chain(state_l.iter().zip(&right_next).zip(left_nl.flip_flops()));
            let mut hit = None;
            for ((kept, &r), &signal) in diffs {
                let right_word = &words[r.index()];
                if let Some(k) = (0..live).find(|&k| kept[k] != right_word[k]) {
                    hit = Some((k, signal, kept[k] ^ right_word[k]));
                    live = k;
                }
            }
            if let Some((k, signal, diff)) = hit {
                let lane_index = diff.trailing_zeros();
                let inputs = (left_nl.primary_inputs().iter().zip(&inputs_l))
                    .map(|(&pi, word)| (left_nl.name_of(pi).to_string(), lane(word[k], lane_index)))
                    .collect();
                found = Some(Counterexample {
                    round: first + k,
                    cycle,
                    lane: lane_index,
                    signal: left_nl.name_of(signal).to_string(),
                    inputs,
                });
                if live == 0 {
                    break;
                }
            }
            for (state, &d) in state_r.iter_mut().zip(&right_d) {
                *state = words[d.index()];
            }
        }
        if let Some(cex) = found {
            let checked = cex.round * config.cycles_per_round + cex.cycle + 1;
            return Ok(report(64 * checked as u64, Some(cex)));
        }
    }
    Ok(report(config.vectors(), None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;
    use crate::parser::parse_bench;

    fn s27() -> Netlist {
        parse_bench("s27", crate::embedded::S27_BENCH).unwrap()
    }

    /// Compiles both designs and checks them.
    fn check(
        left: &Netlist,
        right: &Netlist,
        config: &EquivConfig,
    ) -> Result<EquivReport, NetlistError> {
        check_equivalence(&BitSim::new(left)?, &BitSim::new(right)?, config)
    }

    #[test]
    fn a_design_is_equivalent_to_itself() {
        let a = s27();
        let b = s27();
        let report = check(&a, &b, &EquivConfig::default()).unwrap();
        assert!(report.equivalent());
        assert_eq!(report.vectors, EquivConfig::default().vectors());
        assert!(report.to_string().contains("no counterexample"));
    }

    #[test]
    fn double_negation_is_equivalent_to_a_buffer() {
        let mut b = NetlistBuilder::new("buf");
        let a = b.add_input("a");
        let g = b.add_gate("g", GateKind::Buf, vec![a]).unwrap();
        b.mark_output(g);
        let left = b.finish().unwrap();

        let mut b = NetlistBuilder::new("notnot");
        let a = b.add_input("a");
        let n1 = b.add_gate("n1", GateKind::Not, vec![a]).unwrap();
        let g = b.add_gate("g", GateKind::Not, vec![n1]).unwrap();
        b.mark_output(g);
        let right = b.finish().unwrap();

        let report = check(&left, &right, &EquivConfig::default()).unwrap();
        assert!(report.equivalent(), "{report}");
    }

    #[test]
    fn a_single_wrong_gate_is_caught_with_a_counterexample() {
        let left = s27();
        // Same circuit but G17 = BUF(G11) instead of NOT(G11).
        let sabotaged = crate::embedded::S27_BENCH.replace("G17 = NOT(G11)", "G17 = BUFF(G11)");
        assert_ne!(sabotaged, crate::embedded::S27_BENCH);
        let right = parse_bench("s27_bad", &sabotaged).unwrap();
        let report = check(&left, &right, &EquivConfig::default()).unwrap();
        assert!(!report.equivalent());
        assert!(report.to_string().contains("G17"));
        let cex = report.counterexample.expect("counterexample");
        assert_eq!(cex.signal, "G17");
        assert_eq!(cex.inputs.len(), left.primary_inputs().len());
        // The counterexample replays: two scalar simulators stepped with the
        // reported round's stream at the reported lane agree on every cycle
        // before the reported one and disagree on the named signal at it.
        let seed = EquivConfig::default().seed ^ (cex.round as u64).wrapping_mul(0x9E37);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim_l = crate::sim::Simulator::new(&left).unwrap();
        let mut sim_r = crate::sim::Simulator::new(&right).unwrap();
        let signal = left.primary_outputs().iter().position(|&po| left.name_of(po) == "G17");
        let signal = signal.expect("G17 is a primary output");
        for cycle in 0..=cex.cycle {
            let pattern: Vec<bool> =
                left.primary_inputs().iter().map(|_| lane(rng.next_u64(), cex.lane)).collect();
            let l = sim_l.step_dense(&pattern).unwrap();
            let r = sim_r.step_dense(&pattern).unwrap();
            if cycle < cex.cycle {
                assert_eq!(l, r, "the designs agree at cycle {cycle}");
            } else {
                assert!(cex.inputs.iter().map(|(_, v)| *v).eq(pattern.iter().copied()));
                assert_ne!(l.outputs[signal], r.outputs[signal], "G17 differs at the cycle");
            }
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        let a = s27();
        let b = s27();
        let config = EquivConfig { seed: 7, rounds: 2, cycles_per_round: 3 };
        assert_eq!(check(&a, &b, &config).unwrap(), check(&a, &b, &config).unwrap());
        assert_eq!(config.vectors(), 64 * 2 * 3);
    }

    #[test]
    fn interface_mismatches_are_reported() {
        let left = s27();
        let mut b = NetlistBuilder::new("other");
        let a = b.add_input("a");
        let g = b.add_gate("g", GateKind::Not, vec![a]).unwrap();
        b.mark_output(g);
        let right = b.finish().unwrap();
        let err = check(&left, &right, &EquivConfig::default()).unwrap_err();
        assert!(matches!(err, NetlistError::UndefinedSignal { ref referenced_by, .. }
            if referenced_by.contains("equivalence interface")));
    }

    #[test]
    fn extra_right_side_signals_are_named_in_the_error() {
        // right = s27 plus one extra primary output on an existing signal's
        // complement: the error must name the offending signal.
        let left = s27();
        let extended = format!("{}OUTPUT(G11)\n", crate::embedded::S27_BENCH);
        let right = parse_bench("s27_plus", &extended).unwrap();
        let err = check(&left, &right, &EquivConfig::default()).unwrap_err();
        assert_eq!(
            err,
            NetlistError::UndefinedSignal {
                name: "G11".to_string(),
                referenced_by: "equivalence interface (extra primary output)".to_string(),
            }
        );
    }

    #[test]
    fn duplicated_interface_marks_are_named_in_the_error() {
        // right = s27 with OUTPUT(G17) marked twice: every right name exists
        // on the left, so the mismatch is a multiplicity problem and the
        // error must still name the signal.
        let left = s27();
        let doubled = format!("{}OUTPUT(G17)\n", crate::embedded::S27_BENCH);
        let right = parse_bench("s27_doubled", &doubled).unwrap();
        let err = check(&left, &right, &EquivConfig::default()).unwrap_err();
        assert_eq!(
            err,
            NetlistError::UndefinedSignal {
                name: "G17".to_string(),
                referenced_by: "equivalence interface (duplicated primary output)".to_string(),
            }
        );
    }

    #[test]
    fn zero_sized_configs_check_zero_vectors_consistently() {
        let a = s27();
        let config = EquivConfig { rounds: 0, cycles_per_round: 8, ..EquivConfig::default() };
        let report = check(&a, &a, &config).unwrap();
        assert_eq!(report.vectors, 0);
        assert_eq!(report.vectors, config.vectors());
        assert!(report.equivalent());
    }

    #[test]
    fn lut_designs_are_rejected_like_the_scalar_simulator() {
        let blif = ".model lut\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
        let lut_nl = crate::parser::parse_blif("lut", blif).unwrap();
        let err = check(&lut_nl, &lut_nl, &EquivConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::UnsupportedGate { ref reason, .. }
                if reason == "LUT covers carry no interpreted logic function"
        ));
    }

    #[test]
    fn sequential_divergence_is_caught_in_later_cycles() {
        // left: q' = NOT(q) (toggles); right: q' = q (stuck) — identical
        // combinational output at cycle 0 (both read reset q=0), divergent
        // from cycle 1 on.  The output reads q directly.
        let mut b = NetlistBuilder::new("toggle");
        b.add_gate_by_names("q", GateKind::Dff, vec!["n".into()]).unwrap();
        b.add_gate_by_names("n", GateKind::Not, vec!["q".into()]).unwrap();
        b.mark_output_name("q");
        let left = b.finish().unwrap();
        let mut b = NetlistBuilder::new("stuck");
        b.add_gate_by_names("q", GateKind::Dff, vec!["n".into()]).unwrap();
        b.add_gate_by_names("n", GateKind::Buf, vec!["q".into()]).unwrap();
        b.mark_output_name("q");
        let right = b.finish().unwrap();
        let report = check(&left, &right, &EquivConfig::default()).unwrap();
        let cex = report.counterexample.expect("the stuck design must be caught");
        assert_eq!(cex.signal, "q");
        assert_eq!(cex.cycle, 0, "the next-state comparison catches it in the first cycle");
    }
}
