//! Registry of the evaluation circuits used in Fig. 5 of the paper.
//!
//! The paper evaluates 24 circuits drawn from ISCAS-89, ITC-99 and MCNC; the
//! figure's table reports each circuit's combinational gate count and a short
//! description of its function.  This module records those published numbers
//! and materialises a [`Netlist`] for each circuit — the embedded `s27` for
//! the smallest one and the deterministic synthetic generator for the rest
//! (see `DESIGN.md` for the substitution argument).

use std::fmt;

use crate::embedded;
use crate::error::NetlistError;
use crate::netlist::Netlist;
use crate::parser::parse_bench;
use crate::synth::{generate, SynthesisConfig};

/// Which benchmark family a circuit belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SuiteKind {
    /// ISCAS-89 sequential benchmarks.
    Iscas89,
    /// ITC-99 benchmarks.
    Itc99,
    /// MCNC benchmarks.
    Mcnc,
}

impl SuiteKind {
    /// All suites in the order the paper reports them.
    pub const ALL: [SuiteKind; 3] = [SuiteKind::Iscas89, SuiteKind::Itc99, SuiteKind::Mcnc];

    /// Human-readable suite name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SuiteKind::Iscas89 => "ISCAS-89",
            SuiteKind::Itc99 => "ITC-99",
            SuiteKind::Mcnc => "MCNC",
        }
    }
}

impl fmt::Display for SuiteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Structural description of one evaluation circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Circuit name.
    pub name: &'static str,
    /// Family it belongs to.
    pub suite: SuiteKind,
    /// Short functional description (from the paper's Fig. 5 table).
    pub function: &'static str,
    /// Combinational gate count (from the paper's Fig. 5 table).
    pub gates: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Flip-flops.
    pub flip_flops: usize,
    /// Approximate logic depth used by the reconstruction.
    pub depth: usize,
}

impl CircuitSpec {
    /// Materialises a netlist for this circuit.
    ///
    /// # Errors
    ///
    /// Propagates parser/generator failures; these indicate a bug in the
    /// registry rather than a user error.
    pub fn materialize(&self) -> Result<Netlist, NetlistError> {
        if let Some(text) = embedded::embedded_bench(self.name) {
            return parse_bench(self.name, text);
        }
        let config = SynthesisConfig {
            name: self.name.to_string(),
            combinational_gates: self.gates,
            primary_inputs: self.inputs,
            primary_outputs: self.outputs,
            flip_flops: self.flip_flops,
            target_depth: self.depth,
            seed: 0xD1AC_2024,
        };
        generate(&config)
    }
}

impl fmt::Display for CircuitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {} gates ({})", self.name, self.suite, self.gates, self.function)
    }
}

/// The full set of evaluation circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkSuite {
    circuits: Vec<CircuitSpec>,
}

impl BenchmarkSuite {
    /// The 24 circuits of the paper's Fig. 5 with their published gate counts.
    #[must_use]
    pub fn diac_paper() -> Self {
        let circuits = vec![
            // --- ISCAS-89 -----------------------------------------------------
            spec("s27", SuiteKind::Iscas89, "Logic", 10, 4, 1, 3, 5),
            spec("s298", SuiteKind::Iscas89, "PLD", 119, 3, 6, 14, 9),
            spec("s344", SuiteKind::Iscas89, "4-bit Multiplier", 161, 9, 11, 15, 14),
            spec("s349", SuiteKind::Iscas89, "TLC", 164, 9, 11, 15, 14),
            spec("s382", SuiteKind::Iscas89, "Fractional Multiplier", 218, 3, 6, 21, 11),
            spec("s386", SuiteKind::Iscas89, "PLD", 193, 7, 7, 6, 11),
            spec("s400", SuiteKind::Iscas89, "Fractional Multiplier", 289, 3, 6, 21, 12),
            spec("s444", SuiteKind::Iscas89, "Logic", 446, 3, 6, 21, 13),
            spec("s510", SuiteKind::Iscas89, "Logic", 529, 19, 7, 6, 13),
            spec("s526", SuiteKind::Iscas89, "Logic", 657, 3, 6, 21, 14),
            // --- ITC-99 --------------------------------------------------------
            spec("b14", SuiteKind::Itc99, "Logic (Viper subset)", 9772, 32, 54, 245, 32),
            spec("b15", SuiteKind::Itc99, "Logic (80386 subset)", 19253, 36, 70, 449, 38),
            // --- MCNC ----------------------------------------------------------
            spec("mcnc_bcd_fsm", SuiteKind::Mcnc, "BCD FSM", 22, 4, 3, 4, 5),
            spec("mcnc_elaborate_cm", SuiteKind::Mcnc, "Elaborate CM", 861, 20, 14, 36, 15),
            spec("mcnc_s2s_converter", SuiteKind::Mcnc, "S-to-S Converter", 129, 8, 6, 10, 9),
            spec("mcnc_voting", SuiteKind::Mcnc, "Voting System", 155, 12, 4, 8, 9),
            spec("mcnc_scramble", SuiteKind::Mcnc, "Scramble string", 437, 16, 16, 24, 12),
            spec("mcnc_guess_seq", SuiteKind::Mcnc, "Guess a sequence", 904, 14, 9, 40, 15),
            spec("mcnc_sensor_if", SuiteKind::Mcnc, "I/F to sensor", 266, 10, 8, 18, 11),
            spec("mcnc_viper", SuiteKind::Mcnc, "Viper processor", 4444, 40, 38, 160, 26),
            spec("mcnc_key_encrypt", SuiteKind::Mcnc, "Key Encryption", 2383, 32, 32, 96, 22),
            spec("mcnc_bus_if", SuiteKind::Mcnc, "Bus Interface", 5763, 48, 44, 180, 28),
            spec("mcnc_encrypt", SuiteKind::Mcnc, "Encryption Circuit", 744, 24, 24, 32, 14),
            spec("mcnc_bus_ctrl", SuiteKind::Mcnc, "Bus Controller", 490, 18, 12, 26, 12),
        ];
        Self { circuits }
    }

    /// A trimmed suite (the smaller half of each family) used by fast tests
    /// and the small experiment sweeps, where running the multi-thousand-gate
    /// circuits on every iteration would be wasteful.
    #[must_use]
    pub fn diac_paper_small() -> Self {
        let full = Self::diac_paper();
        let circuits = full.circuits.into_iter().filter(|c| c.gates <= 1000).collect::<Vec<_>>();
        Self { circuits }
    }

    /// All circuit specifications in paper order.
    #[must_use]
    pub fn circuits(&self) -> &[CircuitSpec] {
        &self.circuits
    }

    /// Number of circuits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.circuits.len()
    }

    /// Whether the suite is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.circuits.is_empty()
    }

    /// Circuits belonging to one family.
    pub fn of_suite(&self, suite: SuiteKind) -> impl Iterator<Item = &CircuitSpec> {
        self.circuits.iter().filter(move |c| c.suite == suite)
    }

    /// Looks a circuit up by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&CircuitSpec> {
        self.circuits.iter().find(|c| c.name == name)
    }

    /// Materialises a circuit by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCircuit`] for names outside the registry.
    pub fn materialize(&self, name: &str) -> Result<Netlist, NetlistError> {
        self.find(name)
            .ok_or_else(|| NetlistError::UnknownCircuit { name: name.to_string() })?
            .materialize()
    }

    /// Iterates over the circuits.
    pub fn iter(&self) -> impl Iterator<Item = &CircuitSpec> {
        self.circuits.iter()
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the columns of the paper's Fig. 5 table
fn spec(
    name: &'static str,
    suite: SuiteKind,
    function: &'static str,
    gates: usize,
    inputs: usize,
    outputs: usize,
    flip_flops: usize,
    depth: usize,
) -> CircuitSpec {
    CircuitSpec { name, suite, function, gates, inputs, outputs, flip_flops, depth }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_has_24_circuits_across_three_suites() {
        let suite = BenchmarkSuite::diac_paper();
        assert_eq!(suite.len(), 24);
        assert_eq!(suite.of_suite(SuiteKind::Iscas89).count(), 10);
        assert_eq!(suite.of_suite(SuiteKind::Itc99).count(), 2);
        assert_eq!(suite.of_suite(SuiteKind::Mcnc).count(), 12);
    }

    #[test]
    fn gate_counts_match_the_paper_table() {
        let suite = BenchmarkSuite::diac_paper();
        let iscas_and_itc: Vec<usize> =
            suite.iter().filter(|c| c.suite != SuiteKind::Mcnc).map(|c| c.gates).collect();
        assert_eq!(
            iscas_and_itc,
            vec![10, 119, 161, 164, 218, 193, 289, 446, 529, 657, 9772, 19253]
        );
        let mcnc: Vec<usize> = suite.of_suite(SuiteKind::Mcnc).map(|c| c.gates).collect();
        assert_eq!(mcnc, vec![22, 861, 129, 155, 437, 904, 266, 4444, 2383, 5763, 744, 490]);
    }

    #[test]
    fn every_small_circuit_materialises_with_the_published_gate_count() {
        let suite = BenchmarkSuite::diac_paper_small();
        assert!(!suite.is_empty());
        for circuit in suite.iter() {
            let nl = circuit.materialize().unwrap();
            assert_eq!(nl.combinational_count(), circuit.gates, "{}", circuit.name);
            assert_eq!(nl.primary_inputs().len(), circuit.inputs, "{}", circuit.name);
            assert_eq!(nl.primary_outputs().len(), circuit.outputs, "{}", circuit.name);
            assert_eq!(nl.flip_flop_count(), circuit.flip_flops, "{}", circuit.name);
        }
    }

    #[test]
    fn s27_is_the_embedded_circuit_not_a_synthetic_one() {
        let suite = BenchmarkSuite::diac_paper();
        let nl = suite.materialize("s27").unwrap();
        assert!(nl.find("G17").is_some(), "embedded s27 uses its original signal names");
    }

    #[test]
    fn unknown_circuits_are_reported() {
        let suite = BenchmarkSuite::diac_paper();
        assert!(matches!(suite.materialize("s9999"), Err(NetlistError::UnknownCircuit { .. })));
        assert!(suite.find("s9999").is_none());
    }

    #[test]
    fn small_suite_is_a_subset_of_the_full_suite() {
        let full = BenchmarkSuite::diac_paper();
        let small = BenchmarkSuite::diac_paper_small();
        assert!(small.len() < full.len());
        for c in small.iter() {
            assert!(full.find(c.name).is_some());
            assert!(c.gates <= 1000);
        }
    }

    #[test]
    fn display_formats_mention_suite_and_function() {
        let suite = BenchmarkSuite::diac_paper();
        let s344 = suite.find("s344").unwrap();
        let text = s344.to_string();
        assert!(text.contains("ISCAS-89") && text.contains("Multiplier"));
        assert_eq!(SuiteKind::Mcnc.to_string(), "MCNC");
    }
}
