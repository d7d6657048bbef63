//! Deterministic synthetic benchmark generator.
//!
//! The evaluation circuits of the paper (ISCAS-89, ITC-99, MCNC) are not
//! redistributable inside this repository, so every circuit except the
//! embedded `s27` is *reconstructed*: the generator produces a random DAG
//! with the published combinational gate count, primary I/O count, flip-flop
//! count and an approximate logic depth, seeded by the circuit name so every
//! run of every experiment sees exactly the same netlist.  DIAC's accounting
//! depends only on these structural quantities, not on the logic function.

use std::iter;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::NetlistError;
use crate::gate::{GateId, GateKind};
use crate::netlist::{Netlist, NetlistBuilder};

/// Structural parameters of a synthetic circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesisConfig {
    /// Design name (also the default seed source).
    pub name: String,
    /// Number of combinational gates to generate (exact).
    pub combinational_gates: usize,
    /// Number of primary inputs.
    pub primary_inputs: usize,
    /// Number of primary outputs.
    pub primary_outputs: usize,
    /// Number of flip-flops.
    pub flip_flops: usize,
    /// Approximate logic depth (the generator guarantees at least
    /// `min(target_depth, combinational_gates)` levels).
    pub target_depth: usize,
    /// RNG seed; combined with the name hash so that distinct circuits with
    /// the same seed still differ.
    pub seed: u64,
}

impl SynthesisConfig {
    /// A reasonable configuration for a circuit of `gates` combinational
    /// gates: I/O and state scale with the square root of the size, depth
    /// scales logarithmically.
    #[must_use]
    pub fn sized(name: impl Into<String>, gates: usize) -> Self {
        let gates = gates.max(2);
        let sqrt = (gates as f64).sqrt();
        Self {
            name: name.into(),
            combinational_gates: gates,
            primary_inputs: (sqrt * 0.8).round().clamp(2.0, 64.0) as usize,
            primary_outputs: (sqrt * 0.5).round().clamp(1.0, 64.0) as usize,
            flip_flops: (gates as f64 / 12.0).round().clamp(0.0, 512.0) as usize,
            target_depth: ((gates as f64).ln() * 2.2).round().clamp(2.0, 64.0) as usize,
            seed: 0xD1AC,
        }
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates that the configuration is generatable.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidSynthesisConfig`] when a structurally
    /// impossible combination is requested.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let fail = |message: &str| {
            Err(NetlistError::InvalidSynthesisConfig { message: message.to_string() })
        };
        if self.combinational_gates == 0 {
            return fail("at least one combinational gate is required");
        }
        if self.primary_inputs == 0 {
            return fail("at least one primary input is required");
        }
        if self.primary_outputs == 0 {
            return fail("at least one primary output is required");
        }
        if self.target_depth == 0 {
            return fail("target depth must be at least one level");
        }
        if self.target_depth > self.combinational_gates {
            return fail("target depth cannot exceed the combinational gate count");
        }
        Ok(())
    }
}

/// Generates a netlist from `config`.
///
/// The same configuration always yields the same netlist.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidSynthesisConfig`] for impossible
/// configurations; structural errors cannot occur for validated
/// configurations.
pub fn generate(config: &SynthesisConfig) -> Result<Netlist, NetlistError> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed ^ name_hash(&config.name));
    let mut builder = NetlistBuilder::new(&config.name);
    // Every name, id and fan-in slot fits in one allocation each; a gate
    // reads at most four signals.
    let (inputs, comb, ffs) =
        (config.primary_inputs, config.combinational_gates, config.flip_flops);
    let name_bytes = names_size("pi", inputs) + names_size("g", comb) + names_size("ff", ffs);
    builder.reserve(inputs + comb + ffs, name_bytes, 4 * comb + ffs, config.primary_outputs);
    // Sources: primary inputs and flip-flop outputs.  Ids follow the order
    // of addition (inputs, combinational gates, flip-flops), so a
    // flip-flop's id is known before it is added.  Names are written into
    // the builder's arena, with no `String` per gate.
    let mut signals: Vec<GateId> = Vec::with_capacity(inputs + ffs + comb);
    signals.extend((0..inputs).map(|i| builder.add_input(format_args!("pi{i}"))));
    let first_ff = config.primary_inputs + config.combinational_gates;
    signals.extend((first_ff..first_ff + config.flip_flops).map(|id| GateId(id as u32)));
    let sources = signals.len();

    // Distribute the combinational gates over the levels; none is empty,
    // because the depth never exceeds the gate count.
    let depth = config.target_depth.min(config.combinational_gates);
    let mut level_sizes = vec![config.combinational_gates / depth; depth];
    for slot in level_sizes.iter_mut().take(config.combinational_gates % depth) {
        *slot += 1;
    }

    // Every level's gates are appended to the sources, so the gates are
    // `signals[sources..]`; fan-ins come from the earlier levels only.
    let mut previous_level = 0..sources;
    for &size in &level_sizes {
        let earlier = signals.len();
        for _ in 0..size {
            let kind = random_kind(&mut rng);
            let fanin_count = fanin_count_for(kind, &mut rng);
            // Guarantee depth: the first fan-in comes from the previous level.
            let anchor =
                *signals[previous_level.clone()].choose(&mut rng).expect("levels have gates");
            // Duplicates are fine (real netlists have them); only the arity
            // matters, and the builder checks it.
            let others = (1..fanin_count)
                .map(|_| *signals[..earlier].choose(&mut rng).expect("an input exists"));
            let name = format_args!("g{}", signals.len() - sources);
            let id = builder.add_gate(name, kind, iter::once(anchor).chain(others))?;
            signals.push(id);
        }
        previous_level = earlier..signals.len();
    }
    let gates = &signals[sources..];

    // Primary outputs: prefer the deepest gates so the outputs sit at the roots.
    let mut output_pool: Vec<GateId> = Vec::with_capacity(previous_level.len() + gates.len());
    output_pool.extend_from_slice(&signals[previous_level]);
    output_pool.extend(gates.iter().rev());
    output_pool.dedup();
    for i in 0..config.primary_outputs {
        builder.mark_output(output_pool[i % output_pool.len()]);
    }

    // Flip-flops: D inputs sample the deeper half of the logic.
    let deep_start = gates.len() / 2;
    for i in 0..config.flip_flops {
        let d = gates[rng.gen_range(deep_start..gates.len())];
        builder.add_gate(format_args!("ff{i}"), GateKind::Dff, [d])?;
    }

    builder.finish()
}

fn name_hash(name: &str) -> u64 {
    // FNV-1a, good enough to decorrelate circuit names.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// An upper bound on the bytes of the names `{prefix}0` to
/// `{prefix}{count - 1}`.
fn names_size(prefix: &str, count: usize) -> usize {
    let digits = count.checked_ilog10().map_or(1, |d| d as usize + 1);
    count * (prefix.len() + digits)
}

fn random_kind(rng: &mut StdRng) -> GateKind {
    // Weighted towards the NAND/NOR/AND/OR mix typical of mapped netlists.
    const CHOICES: &[(GateKind, u32)] = &[
        (GateKind::Nand, 24),
        (GateKind::Nor, 18),
        (GateKind::And, 16),
        (GateKind::Or, 14),
        (GateKind::Not, 12),
        (GateKind::Xor, 7),
        (GateKind::Xnor, 4),
        (GateKind::Buf, 3),
        (GateKind::Mux, 2),
    ];
    let total: u32 = CHOICES.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for &(kind, weight) in CHOICES {
        if pick < weight {
            return kind;
        }
        pick -= weight;
    }
    GateKind::Nand
}

fn fanin_count_for(kind: GateKind, rng: &mut StdRng) -> usize {
    match kind {
        GateKind::Not | GateKind::Buf => 1,
        GateKind::Mux => 3,
        _ => {
            // Mostly 2-input gates with an occasional 3- or 4-input one.
            let roll: f64 = rng.gen();
            if roll < 0.70 {
                2
            } else if roll < 0.92 {
                3
            } else {
                4
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levelize::levelize;

    #[test]
    fn generation_is_deterministic() {
        let config = SynthesisConfig::sized("det", 200);
        let a = generate(&config).unwrap();
        let b = generate(&config).unwrap();
        assert_eq!(a.to_bench(), b.to_bench());
    }

    #[test]
    fn different_names_give_different_circuits() {
        let a = generate(&SynthesisConfig::sized("alpha", 200)).unwrap();
        let b = generate(&SynthesisConfig::sized("beta", 200)).unwrap();
        assert_ne!(a.to_bench(), b.to_bench());
    }

    #[test]
    fn gate_count_is_exact() {
        for target in [10, 57, 200, 1000] {
            let nl = generate(&SynthesisConfig::sized("count", target)).unwrap();
            assert_eq!(nl.combinational_count(), target, "target {target}");
        }
    }

    #[test]
    fn io_and_state_match_the_configuration() {
        let config = SynthesisConfig {
            name: "explicit".to_string(),
            combinational_gates: 300,
            primary_inputs: 12,
            primary_outputs: 7,
            flip_flops: 23,
            target_depth: 11,
            seed: 7,
        };
        let nl = generate(&config).unwrap();
        assert_eq!(nl.primary_inputs().len(), 12);
        assert_eq!(nl.primary_outputs().len(), 7);
        assert_eq!(nl.flip_flop_count(), 23);
    }

    #[test]
    fn generated_netlists_are_acyclic_and_deep_enough() {
        let config = SynthesisConfig::sized("depth", 400);
        let nl = generate(&config).unwrap();
        let levels = levelize(&nl).unwrap();
        assert!(
            levels.depth() as usize >= config.target_depth.min(8),
            "depth {} too shallow for target {}",
            levels.depth(),
            config.target_depth
        );
    }

    #[test]
    fn stats_look_like_a_mapped_netlist() {
        let nl = generate(&SynthesisConfig::sized("stats", 500)).unwrap();
        // Average fan-in over combinational gates, average fan-out over
        // the signals that drive something.
        let comb: Vec<usize> =
            nl.iter().filter(|g| g.kind.is_combinational()).map(|g| g.fanin_count()).collect();
        let avg_fanin = comb.iter().sum::<usize>() as f64 / comb.len() as f64;
        // A primary output counts as one more reader of its driver.
        let mut readers: Vec<usize> = nl.ids().map(|id| nl.fanout(id).len()).collect();
        for &po in nl.primary_outputs() {
            readers[po.index()] += 1;
        }
        let driven: Vec<usize> = readers.into_iter().filter(|&c| c > 0).collect();
        let avg_fanout = driven.iter().sum::<usize>() as f64 / driven.len() as f64;
        assert!((1.5..=3.0).contains(&avg_fanin), "{avg_fanin}");
        assert!(avg_fanout >= 1.0);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut c = SynthesisConfig::sized("bad", 10);
        c.combinational_gates = 0;
        assert!(c.validate().is_err());
        let mut c = SynthesisConfig::sized("bad", 10);
        c.primary_inputs = 0;
        assert!(c.validate().is_err());
        let mut c = SynthesisConfig::sized("bad", 10);
        c.primary_outputs = 0;
        assert!(c.validate().is_err());
        let mut c = SynthesisConfig::sized("bad", 10);
        c.target_depth = 0;
        assert!(c.validate().is_err());
        let mut c = SynthesisConfig::sized("bad", 10);
        c.target_depth = 100;
        assert!(c.validate().is_err());
    }

    #[test]
    fn seed_changes_the_structure() {
        let a = generate(&SynthesisConfig::sized("seeded", 150).with_seed(1)).unwrap();
        let b = generate(&SynthesisConfig::sized("seeded", 150).with_seed(2)).unwrap();
        assert_ne!(a.to_bench(), b.to_bench());
    }
}
