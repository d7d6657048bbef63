//! The per-node *feature dictionary* of DIAC's operand tree.
//!
//! Step 3 of the paper's flow attaches one dictionary to every node `nᵢⱼ`
//! (node `i` in level `j`) recording "the number of inputs from a lower level
//! (fan in), the number of outputs to an upper level (fan out), the node
//! level itself (j), and its power consumption".  The replacement procedure
//! later adds the accumulated (unsaved) energy and the NVM boundary flag.

use std::fmt;

use tech45::energy_model::EnergyEstimate;
use tech45::units::{Energy, Power, Seconds};

/// Feature dictionary of one operand node.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FeatureDict {
    /// Number of distinct signals entering the operand from lower levels.
    pub fan_in: usize,
    /// Number of distinct signals leaving the operand towards upper levels
    /// (including primary outputs).
    pub fan_out: usize,
    /// Tree level of the node (0 = leaves / inputs).
    pub level: u32,
    /// Design-time energy/delay estimate of one activation, with the number
    /// of gates it aggregates.
    pub estimate: EnergyEstimate,
    /// Energy accumulated since the last NVM boundary below this node
    /// (written by the replacement procedure).
    pub accumulated: Energy,
    /// Whether an NVM boundary has been inserted at this node.
    pub nvm_boundary: bool,
    /// Number of bits that a backup at this node must store.
    pub boundary_bits: u64,
}

impl FeatureDict {
    /// Creates a dictionary from the structural quantities and the energy
    /// estimate; the replacement-related fields start cleared.
    #[must_use]
    pub fn new(fan_in: usize, fan_out: usize, level: u32, estimate: EnergyEstimate) -> Self {
        Self {
            fan_in,
            fan_out,
            level,
            estimate,
            accumulated: Energy::ZERO,
            nvm_boundary: false,
            boundary_bits: 0,
        }
    }

    /// Energy of one activation of this operand (dynamic plus static).
    #[must_use]
    pub fn energy(&self) -> Energy {
        self.estimate.total()
    }

    /// Critical-path delay of the operand.
    #[must_use]
    pub fn delay(&self) -> Seconds {
        self.estimate.critical_path
    }

    /// Average power of one activation (`energy / delay`); zero for an
    /// instantaneous (empty) operand.
    #[must_use]
    pub fn average_power(&self) -> Power {
        if self.delay().is_non_positive() {
            return Power::ZERO;
        }
        self.energy() / self.delay()
    }

    /// The replacement-criteria score of this node: nodes closer to the
    /// outputs (criterion I), with more accumulated power below them
    /// (criterion II), and with higher fan-in + fan-out (criterion III) are
    /// better places for an NVM boundary.  Higher is better.
    #[must_use]
    pub fn replacement_score(&self, max_level: u32) -> f64 {
        let level_rank =
            if max_level == 0 { 1.0 } else { f64::from(self.level) / f64::from(max_level) };
        let connectivity = (self.fan_in + self.fan_out) as f64;
        let accumulated_mj = self.accumulated.as_millijoules().max(0.0);
        // Criterion III explicitly says writes are reduced by a factor of
        // 1/(fanin + fanout); the score therefore grows linearly with the
        // connectivity, and level/accumulation act as weights.
        (1.0 + level_rank) * (1.0 + accumulated_mj) * connectivity.max(1.0)
    }

    /// Marks this node as an NVM boundary storing `bits` bits and clears the
    /// accumulated energy (the paper: "the previous power values are set to
    /// zero").
    pub fn mark_boundary(&mut self, bits: u64) {
        self.nvm_boundary = true;
        self.boundary_bits = bits;
        self.accumulated = Energy::ZERO;
    }
}

impl fmt::Display for FeatureDict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "level {} | fan-in {} | fan-out {} | {} gates | {:.3e} J | {:.3e} s{}",
            self.level,
            self.fan_in,
            self.fan_out,
            self.estimate.gate_count,
            self.energy().as_joules(),
            self.delay().as_seconds(),
            if self.nvm_boundary { " | NVM" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tech45::cells::CellKind;

    fn estimate(gates: usize) -> EnergyEstimate {
        tech45::energy_model::estimate(&vec![CellKind::Nand2; gates], None)
    }

    #[test]
    fn new_dictionary_starts_without_a_boundary() {
        let dict = FeatureDict::new(3, 2, 1, estimate(4));
        assert!(!dict.nvm_boundary);
        assert_eq!(dict.boundary_bits, 0);
        assert_eq!(dict.accumulated, Energy::ZERO);
        assert_eq!(dict.estimate.gate_count, 4);
        assert!(dict.energy().value() > 0.0);
        assert!(dict.average_power().value() > 0.0);
    }

    #[test]
    fn empty_operand_has_zero_average_power() {
        let dict = FeatureDict::new(0, 0, 0, EnergyEstimate::default());
        assert_eq!(dict.average_power(), Power::ZERO);
    }

    #[test]
    fn marking_a_boundary_clears_the_accumulation() {
        let mut dict = FeatureDict::new(2, 2, 3, estimate(8));
        dict.accumulated = Energy::from_millijoules(5.0);
        dict.mark_boundary(16);
        assert!(dict.nvm_boundary);
        assert_eq!(dict.boundary_bits, 16);
        assert_eq!(dict.accumulated, Energy::ZERO);
    }

    #[test]
    fn score_prefers_upper_levels_and_high_connectivity() {
        let low = FeatureDict::new(1, 1, 0, estimate(4));
        let high = FeatureDict::new(1, 1, 9, estimate(4));
        assert!(high.replacement_score(9) > low.replacement_score(9));

        let narrow = FeatureDict::new(1, 1, 5, estimate(4));
        let wide = FeatureDict::new(4, 4, 5, estimate(4));
        assert!(wide.replacement_score(9) > narrow.replacement_score(9));
    }

    #[test]
    fn score_grows_with_accumulated_energy() {
        let mut a = FeatureDict::new(2, 2, 5, estimate(4));
        let mut b = a;
        a.accumulated = Energy::from_millijoules(1.0);
        b.accumulated = Energy::from_millijoules(10.0);
        assert!(b.replacement_score(9) > a.replacement_score(9));
    }

    #[test]
    fn score_handles_degenerate_trees() {
        let dict = FeatureDict::new(0, 0, 0, EnergyEstimate::default());
        assert!(dict.replacement_score(0) > 0.0);
    }

    #[test]
    fn display_mentions_the_boundary_flag() {
        let mut dict = FeatureDict::new(1, 1, 2, estimate(2));
        assert!(!dict.to_string().contains("NVM"));
        dict.mark_boundary(8);
        assert!(dict.to_string().contains("NVM"));
    }
}
