//! The paper's design-time energy / delay estimation formulas.
//!
//! Section IV.A of the paper describes the mathematical model DIAC uses to
//! estimate operands before run time:
//!
//! * dynamic energy `≈ 2 · Σᵢ delayᵢ · P_dyn,i` over the `n` gates of an
//!   operand (the factor 2 makes the 50 %-to-50 % delay measurement
//!   conservative);
//! * static energy `≈ CDP · Σᵢ P_stat,i` over the *inactive* gates, where
//!   `CDP` is the critical-delay-path of the operand (while one gate switches
//!   the others only leak).
//!
//! [`estimate`] aggregates a bag of gates into those two numbers plus the
//! critical path over the one surrogate cell table ([`CellKind::cell`]) at
//! the one switching activity ([`DEFAULT_ACTIVITY`]), and [`EnergyEstimate`]
//! is the resulting summary that feeds DIAC's feature dictionaries.

use crate::cells::CellKind;
use crate::constants::DEFAULT_ACTIVITY;
use crate::units::{Energy, Power, Seconds};

/// Design-time energy/delay estimate of one operand (a cluster of gates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyEstimate {
    /// Dynamic energy of one activation of the operand.
    pub dynamic: Energy,
    /// Static (leakage) energy burnt over one activation.
    pub static_: Energy,
    /// Critical-path delay of the operand.
    pub critical_path: Seconds,
    /// Sum of the leakage power of every gate in the operand.
    pub leakage_power: Power,
    /// Number of gates aggregated into this estimate.
    pub gate_count: usize,
}

impl EnergyEstimate {
    /// Total energy of one activation (dynamic plus static).
    #[must_use]
    pub fn total(&self) -> Energy {
        self.dynamic + self.static_
    }

    /// Power-delay product of one activation of the operand.
    #[must_use]
    pub fn pdp(&self) -> f64 {
        self.total().as_joules() * self.critical_path.as_seconds()
    }

    /// Merges two estimates as if the two operands were fused into one
    /// (energies add; the critical path of a fused operand is the sum of the
    /// two paths because DIAC chains merged operands).
    #[must_use]
    pub fn merged_with(&self, other: &Self) -> Self {
        Self {
            dynamic: self.dynamic + other.dynamic,
            static_: self.static_ + other.static_,
            critical_path: self.critical_path + other.critical_path,
            leakage_power: self.leakage_power + other.leakage_power,
            gate_count: self.gate_count + other.gate_count,
        }
    }
}

/// Evaluates the paper's formulas for the gate bag `cells` of one operand.
///
/// `depth` is the known logic depth (longest gate chain); `None`
/// conservatively assumes that all gates chain.  A fraction
/// [`DEFAULT_ACTIVITY`] of the gates toggles per activation.  Each cell is
/// looked up once, and the sums run in `cells` order.
#[must_use]
pub fn estimate(cells: &[CellKind], depth: Option<usize>) -> EnergyEstimate {
    let Some(&first) = cells.first() else {
        return EnergyEstimate::default();
    };
    let chain_len = depth.unwrap_or(cells.len()).clamp(1, cells.len());

    // Dynamic: 2 * Σ delay_i * P_dyn,i, weighted by activity (only the
    // toggling gates contribute switching energy).  The sums start from
    // -0.0, the identity `f64::sum` folds from.
    let mut dynamic_raw = -0.0_f64;
    let mut leakage_watts = -0.0_f64;
    let mut max_leak = 0.0_f64;
    let mut slowest = first.cell().delay;
    // The chain's delays, needed only when it is longer than one gate.
    let mut delays: Vec<Seconds> = Vec::new();
    for &kind in cells {
        let cell = kind.cell();
        dynamic_raw += 2.0 * cell.delay.as_seconds() * cell.dynamic_power.as_watts();
        leakage_watts += cell.static_power.as_watts();
        max_leak = max_leak.max(cell.static_power.as_watts());
        if cell.delay > slowest {
            slowest = cell.delay;
        }
        if chain_len > 1 {
            delays.push(cell.delay);
        }
    }
    let dynamic = Energy::new(dynamic_raw * DEFAULT_ACTIVITY);

    // Critical delay path: if the caller told us the depth, take the
    // `depth` slowest gates as the chain; otherwise assume all gates chain.
    let critical_path = if chain_len == 1 {
        slowest
    } else {
        delays.sort_by(|a, b| b.partial_cmp(a).expect("finite delays"));
        delays.iter().take(chain_len).copied().sum()
    };

    // Static: CDP * Σ P_stat,i over the inactive gates (all but the one
    // currently switching — the paper excludes the active gate).
    let leakage_power = Power::new(leakage_watts);
    let inactive_leakage = if cells.len() > 1 { leakage_watts - max_leak } else { 0.0 };
    let static_ = Energy::new(critical_path.as_seconds() * inactive_leakage);

    EnergyEstimate { dynamic, static_, critical_path, leakage_power, gate_count: cells.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_operand_estimates_to_zero() {
        let est = estimate(&[], None);
        assert_eq!(est.gate_count, 0);
        assert_eq!(est.total(), Energy::ZERO);
        assert_eq!(est.pdp(), 0.0);
    }

    #[test]
    fn dynamic_energy_matches_formula_for_single_gate() {
        let nand = CellKind::Nand2.cell();
        let est = estimate(&[CellKind::Nand2], None);
        let expected =
            2.0 * nand.delay.as_seconds() * nand.dynamic_power.as_watts() * DEFAULT_ACTIVITY;
        assert!((est.dynamic.as_joules() - expected).abs() < 1e-24);
        // A single gate has no inactive neighbours, so no static term.
        assert_eq!(est.static_, Energy::ZERO);
        assert_eq!(est.gate_count, 1);
    }

    #[test]
    fn static_energy_excludes_the_active_gate() {
        let est = estimate(&[CellKind::Inv; 3], None);
        let inv = CellKind::Inv.cell();
        let expected_static = est.critical_path.as_seconds() * (2.0 * inv.static_power.as_watts());
        assert!((est.static_.as_joules() - expected_static).abs() < 1e-24);
    }

    #[test]
    fn more_gates_mean_more_energy() {
        let small = estimate(&[CellKind::Nand2; 4], None);
        let large = estimate(&[CellKind::Nand2; 40], None);
        assert!(large.total() > small.total());
        assert!(large.pdp() > small.pdp());
    }

    #[test]
    fn known_depth_shortens_the_critical_path() {
        let gates = [CellKind::Nand2; 16];
        let chained = estimate(&gates, None);
        let shallow = estimate(&gates, Some(4));
        assert!(shallow.critical_path < chained.critical_path);
        // Dynamic energy is unaffected by the depth hint.
        assert_eq!(shallow.dynamic, chained.dynamic);
    }

    #[test]
    fn activity_scales_dynamic_energy_linearly() {
        // Only the toggling fraction of the gates switches.
        let xor = CellKind::Xor2.cell();
        let est = estimate(&[CellKind::Xor2; 8], None);
        let every_gate = 8.0 * 2.0 * xor.delay.as_seconds() * xor.dynamic_power.as_watts();
        assert!((est.dynamic.as_joules() / every_gate - DEFAULT_ACTIVITY).abs() < 1e-12);
    }

    #[test]
    fn merged_estimates_add_up() {
        let a = estimate(&[CellKind::And2; 5], None);
        let b = estimate(&[CellKind::Or2; 3], None);
        let m = a.merged_with(&b);
        assert_eq!(m.gate_count, 8);
        assert!((m.dynamic.as_joules() - (a.dynamic + b.dynamic).as_joules()).abs() < 1e-24);
        assert!(
            (m.critical_path.as_seconds() - (a.critical_path + b.critical_path).as_seconds()).abs()
                < 1e-18
        );
    }

    /// The estimate as `OperandProfile::estimate` wrote it before it read a
    /// slice: every cell collected first, the delays always sorted.
    fn reference_estimate(gates: &[CellKind], depth: Option<usize>) -> EnergyEstimate {
        if gates.is_empty() {
            return EnergyEstimate::default();
        }
        let cells: Vec<&crate::cells::Cell> = gates.iter().map(|&k| k.cell()).collect();
        let dynamic_raw: f64 =
            cells.iter().map(|c| 2.0 * c.delay.as_seconds() * c.dynamic_power.as_watts()).sum();
        let dynamic = Energy::new(dynamic_raw * DEFAULT_ACTIVITY);
        let mut delays: Vec<Seconds> = cells.iter().map(|c| c.delay).collect();
        delays.sort_by(|a, b| b.partial_cmp(a).expect("finite delays"));
        let chain_len = depth.unwrap_or(delays.len()).clamp(1, delays.len());
        let critical_path: Seconds = delays.iter().take(chain_len).copied().sum();
        let leakage_power: Power = cells.iter().map(|c| c.static_power).sum();
        let inactive_leakage: f64 = if cells.len() > 1 {
            let max_leak = cells.iter().map(|c| c.static_power.as_watts()).fold(0.0_f64, f64::max);
            leakage_power.as_watts() - max_leak
        } else {
            0.0
        };
        let static_ = Energy::new(critical_path.as_seconds() * inactive_leakage);
        EnergyEstimate { dynamic, static_, critical_path, leakage_power, gate_count: cells.len() }
    }

    fn bits(e: &EnergyEstimate) -> ([u64; 4], usize) {
        let words = [e.dynamic.value(), e.static_.value(), e.critical_path.value()];
        let [d, s, c] = words.map(f64::to_bits);
        ([d, s, c, e.leakage_power.value().to_bits()], e.gate_count)
    }

    #[test]
    fn the_slice_estimate_is_bit_identical_to_the_reference() {
        // A 64-bit LCG: random cell bags and depths.  The table's delays
        // repeat (Buf/Nor2, Aoi21/Oai21, Nand4/And3, Or3/Mux2, Xor2/Xnor2)
        // and Tie's is zero, so the slowest-cell ties come up.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for _ in 0..2_000 {
            let len = next(40);
            let cells: Vec<CellKind> =
                (0..len).map(|_| CellKind::ALL[next(CellKind::COUNT)]).collect();
            let depth = if next(4) == 0 { None } else { Some(next(len + 3)) };
            let slice = estimate(&cells, depth);
            let reference = reference_estimate(&cells, depth);
            assert_eq!(bits(&slice), bits(&reference), "{cells:?} depth {depth:?}");
        }
    }
}
