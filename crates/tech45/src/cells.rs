//! Surrogate 45 nm standard-cell library.
//!
//! Each [`Cell`] carries the figures DIAC's feature dictionary needs for every
//! gate of an operand: propagation delay, dynamic power while switching and
//! leakage (static) power.  The reproduction prices every design with one
//! constant table, read through [`CellKind::cell`], whose values are
//! representative of a 45 nm bulk CMOS process (FO4 ≈ 20 ps, switching
//! energy of a NAND2 ≈ 1–2 fJ, leakage of a small cell ≈ 10–100 nW); the
//! DIAC decision procedure only depends on the *relative* ordering of these
//! values.

use std::fmt;

use crate::units::{Energy, Power, Seconds};

/// The logic function implemented by a standard cell.
///
/// The set covers everything the ISCAS-89 `.bench` and BLIF front-ends can
/// produce plus a few wider cells used by the synthetic benchmark generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 4-input NOR.
    Nor4,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 4-input AND.
    And4,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 4-input OR.
    Or4,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2-to-1 multiplexer.
    Mux2,
    /// AND-OR-Invert 2-1 complex gate.
    Aoi21,
    /// OR-AND-Invert 2-1 complex gate.
    Oai21,
    /// Full adder (sum + carry).
    FullAdder,
    /// Half adder.
    HalfAdder,
    /// Positive-edge D flip-flop (volatile).
    Dff,
    /// Constant / tie cell.
    Tie,
}

impl CellKind {
    /// All cell kinds, in a stable order.
    pub const ALL: [CellKind; 23] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nand4,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::Nor4,
        CellKind::And2,
        CellKind::And3,
        CellKind::And4,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Or4,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::FullAdder,
        CellKind::HalfAdder,
        CellKind::Dff,
        CellKind::Tie,
    ];

    /// Number of cell kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Position of the kind in [`Self::ALL`] (declaration order, which is
    /// also the kind order).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The surrogate 45 nm characterisation of this kind: its row of the
    /// one cell table.
    #[must_use]
    pub fn cell(self) -> &'static Cell {
        &CELLS[self.index()]
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Electrical characterisation of a single standard cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Logic function of the cell.
    pub kind: CellKind,
    /// Propagation delay (input 50 % to output 50 %, as in the paper).
    pub delay: Seconds,
    /// Average power drawn while the cell is switching.
    pub dynamic_power: Power,
    /// Leakage power while the cell is idle.
    pub static_power: Power,
}

impl Cell {
    /// Energy of one switching event, following the paper's convention of
    /// doubling the delay for a more conservative estimate:
    /// `E ≈ 2 · delay · P_dyn`.
    #[must_use]
    pub fn switching_energy(&self) -> Energy {
        2.0 * (self.dynamic_power * self.delay)
    }
}

/// One row of the cell table: delay in ps, dynamic power in µW, static
/// power in nW.
const fn row(kind: CellKind, delay_ps: f64, dynamic_uw: f64, static_nw: f64) -> Cell {
    Cell {
        kind,
        delay: Seconds::from_picos(delay_ps),
        dynamic_power: Power::from_microwatts(dynamic_uw),
        static_power: Power::from_nanowatts(static_nw),
    }
}

/// The surrogate NCSU/Nangate-45-like library, one row per [`CellKind`] in
/// kind order, so [`CellKind::cell`] is one array access.
///
/// Delays are in tens of picoseconds, switching energies in femtojoules,
/// and leakage in tens of nanowatts — representative of 45 nm bulk CMOS at
/// nominal voltage and temperature.
static CELLS: [Cell; CellKind::COUNT] = [
    row(CellKind::Inv, 12.0, 25.0, 12.0),
    row(CellKind::Buf, 18.0, 30.0, 16.0),
    row(CellKind::Nand2, 16.0, 35.0, 18.0),
    row(CellKind::Nand3, 21.0, 45.0, 26.0),
    row(CellKind::Nand4, 27.0, 56.0, 35.0),
    row(CellKind::Nor2, 18.0, 38.0, 20.0),
    row(CellKind::Nor3, 25.0, 50.0, 30.0),
    row(CellKind::Nor4, 32.0, 62.0, 40.0),
    row(CellKind::And2, 22.0, 42.0, 24.0),
    row(CellKind::And3, 27.0, 52.0, 32.0),
    row(CellKind::And4, 33.0, 64.0, 42.0),
    row(CellKind::Or2, 24.0, 44.0, 26.0),
    row(CellKind::Or3, 30.0, 55.0, 34.0),
    row(CellKind::Or4, 36.0, 68.0, 44.0),
    row(CellKind::Xor2, 34.0, 62.0, 36.0),
    row(CellKind::Xnor2, 34.0, 62.0, 36.0),
    row(CellKind::Mux2, 30.0, 55.0, 34.0),
    row(CellKind::Aoi21, 26.0, 50.0, 30.0),
    row(CellKind::Oai21, 26.0, 50.0, 30.0),
    row(CellKind::FullAdder, 80.0, 140.0, 90.0),
    row(CellKind::HalfAdder, 50.0, 95.0, 60.0),
    row(CellKind::Dff, 90.0, 160.0, 110.0),
    row(CellKind::Tie, 0.0, 0.0, 4.0),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surrogate_library_covers_all_kinds() {
        // Every kind reads its own row: the table is in kind order.
        for kind in CellKind::ALL {
            assert_eq!(kind.cell().kind, kind);
        }
    }

    #[test]
    fn bigger_gates_are_slower_and_hungrier() {
        let nand2 = CellKind::Nand2.cell();
        let nand4 = CellKind::Nand4.cell();
        assert!(nand4.delay > nand2.delay);
        assert!(nand4.dynamic_power > nand2.dynamic_power);
        assert!(nand4.static_power > nand2.static_power);
    }

    #[test]
    fn switching_energy_is_femtojoule_scale() {
        let e = CellKind::Nand2.cell().switching_energy();
        // 2 * 16 ps * 35 µW = 1.12 fJ
        assert!(e.as_femtojoules() > 0.1 && e.as_femtojoules() < 100.0);
    }

    #[test]
    fn slowest_cell_is_the_flip_flop() {
        let slowest = CELLS.iter().max_by(|a, b| a.delay.partial_cmp(&b.delay).expect("finite"));
        assert_eq!(slowest.map(|c| c.kind), Some(CellKind::Dff));
    }

    #[test]
    fn cell_lookup_by_kind() {
        let xor = CellKind::Xor2.cell();
        assert_eq!(xor.kind, CellKind::Xor2);
        assert_eq!(xor.delay, Seconds::from_picos(34.0));
    }

    #[test]
    fn kind_indices_follow_the_kind_order() {
        for (i, kind) in CellKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert!(CellKind::ALL.windows(2).all(|w| w[0] < w[1]));
    }
}
