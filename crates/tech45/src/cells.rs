//! Surrogate 45 nm standard-cell library.
//!
//! Each [`Cell`] carries the figures DIAC's feature dictionary needs for every
//! gate of an operand: propagation delay, dynamic power while switching,
//! leakage (static) power, input count, and area.  The default library
//! ([`CellLibrary::nangate45_surrogate`]) uses values representative of a
//! 45 nm bulk CMOS process (FO4 ≈ 20 ps, switching energy of a NAND2 ≈ 1–2 fJ,
//! leakage of a small cell ≈ 10–100 nW); the DIAC decision procedure only
//! depends on the *relative* ordering of these values.

use std::fmt;

use crate::units::{Area, Energy, Power, Seconds};

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

    /// Number of logic inputs of the cell.
    #[must_use]
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf | CellKind::Dff => 1,
            CellKind::Tie => 0,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2
            | CellKind::HalfAdder => 2,
            CellKind::Nand3
            | CellKind::Nor3
            | CellKind::And3
            | CellKind::Or3
            | CellKind::Mux2
            | CellKind::Aoi21
            | CellKind::Oai21
            | CellKind::FullAdder => 3,
            CellKind::Nand4 | CellKind::Nor4 | CellKind::And4 | CellKind::Or4 => 4,
        }
    }

    /// Whether the cell is a sequential (state-holding) element.
    #[must_use]
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
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
    /// Cell area.
    pub area: Area,
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

/// A complete cell library: one [`Cell`] per [`CellKind`].
///
/// The cells sit in a table indexed by [`CellKind::index`], so a lookup is
/// one array access.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    name: String,
    cells: [Option<Cell>; CellKind::COUNT],
}

impl CellLibrary {
    /// Builds a library from an explicit list of cells.
    ///
    /// Later duplicates of the same [`CellKind`] replace earlier ones.
    #[must_use]
    pub fn from_cells(name: impl Into<String>, cells: impl IntoIterator<Item = Cell>) -> Self {
        let mut table = [None; CellKind::COUNT];
        for cell in cells {
            table[cell.kind.index()] = Some(cell);
        }
        Self { name: name.into(), cells: table }
    }

    /// The surrogate NCSU/Nangate-45-like library used throughout the
    /// reproduction.
    ///
    /// Delays are in tens of picoseconds, switching energies in femtojoules,
    /// and leakage in tens of nanowatts — representative of 45 nm bulk CMOS at
    /// nominal voltage and temperature.
    #[must_use]
    pub fn nangate45_surrogate() -> Self {
        // (kind, delay ps, dynamic power µW, static power nW, area µm²)
        let raw: &[(CellKind, f64, f64, f64, f64)] = &[
            (CellKind::Inv, 12.0, 25.0, 12.0, 0.80),
            (CellKind::Buf, 18.0, 30.0, 16.0, 1.06),
            (CellKind::Nand2, 16.0, 35.0, 18.0, 1.06),
            (CellKind::Nand3, 21.0, 45.0, 26.0, 1.33),
            (CellKind::Nand4, 27.0, 56.0, 35.0, 1.60),
            (CellKind::Nor2, 18.0, 38.0, 20.0, 1.06),
            (CellKind::Nor3, 25.0, 50.0, 30.0, 1.33),
            (CellKind::Nor4, 32.0, 62.0, 40.0, 1.60),
            (CellKind::And2, 22.0, 42.0, 24.0, 1.33),
            (CellKind::And3, 27.0, 52.0, 32.0, 1.60),
            (CellKind::And4, 33.0, 64.0, 42.0, 1.86),
            (CellKind::Or2, 24.0, 44.0, 26.0, 1.33),
            (CellKind::Or3, 30.0, 55.0, 34.0, 1.60),
            (CellKind::Or4, 36.0, 68.0, 44.0, 1.86),
            (CellKind::Xor2, 34.0, 62.0, 36.0, 1.86),
            (CellKind::Xnor2, 34.0, 62.0, 36.0, 1.86),
            (CellKind::Mux2, 30.0, 55.0, 34.0, 1.86),
            (CellKind::Aoi21, 26.0, 50.0, 30.0, 1.60),
            (CellKind::Oai21, 26.0, 50.0, 30.0, 1.60),
            (CellKind::FullAdder, 80.0, 140.0, 90.0, 4.50),
            (CellKind::HalfAdder, 50.0, 95.0, 60.0, 3.20),
            (CellKind::Dff, 90.0, 160.0, 110.0, 4.52),
            (CellKind::Tie, 0.0, 0.0, 4.0, 0.53),
        ];
        let cells = raw.iter().map(|&(kind, d_ps, p_uw, s_nw, a)| Cell {
            kind,
            delay: Seconds::from_picos(d_ps),
            dynamic_power: Power::from_microwatts(p_uw),
            static_power: Power::from_nanowatts(s_nw),
            area: Area::new(a),
        });
        Self::from_cells("nangate45-surrogate", cells)
    }

    /// Library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of characterised cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Returns `true` when the library holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a cell by kind.
    ///
    /// # Panics
    ///
    /// Panics if the library does not characterise `kind`; use [`Self::try_cell`]
    /// for a fallible lookup.
    #[must_use]
    pub fn cell(&self, kind: CellKind) -> &Cell {
        self.try_cell(kind)
            .unwrap_or_else(|| panic!("cell library `{}` has no entry for {kind}", self.name))
    }

    /// Fallible lookup of a cell by kind.
    #[must_use]
    pub fn try_cell(&self, kind: CellKind) -> Option<&Cell> {
        self.cells[kind.index()].as_ref()
    }

    /// Iterates over all cells in kind order.
    pub fn iter(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().flatten()
    }

    /// The slowest cell in the library (excluding tie cells).
    #[must_use]
    pub fn slowest_cell(&self) -> Option<&Cell> {
        self.iter()
            .filter(|c| c.kind != CellKind::Tie)
            .max_by(|a, b| a.delay.partial_cmp(&b.delay).expect("finite delays"))
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::nangate45_surrogate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surrogate_library_covers_all_kinds() {
        let lib = CellLibrary::nangate45_surrogate();
        for kind in CellKind::ALL {
            assert!(lib.try_cell(kind).is_some(), "missing {kind}");
        }
        assert_eq!(lib.len(), CellKind::ALL.len());
        assert!(!lib.is_empty());
    }

    #[test]
    fn input_counts_are_sane() {
        assert_eq!(CellKind::Inv.input_count(), 1);
        assert_eq!(CellKind::Nand2.input_count(), 2);
        assert_eq!(CellKind::Nand4.input_count(), 4);
        assert_eq!(CellKind::Mux2.input_count(), 3);
        assert_eq!(CellKind::Tie.input_count(), 0);
    }

    #[test]
    fn only_dff_is_sequential() {
        for kind in CellKind::ALL {
            assert_eq!(kind.is_sequential(), kind == CellKind::Dff);
        }
    }

    #[test]
    fn bigger_gates_are_slower_and_hungrier() {
        let lib = CellLibrary::nangate45_surrogate();
        let nand2 = lib.cell(CellKind::Nand2);
        let nand4 = lib.cell(CellKind::Nand4);
        assert!(nand4.delay > nand2.delay);
        assert!(nand4.dynamic_power > nand2.dynamic_power);
        assert!(nand4.static_power > nand2.static_power);
    }

    #[test]
    fn switching_energy_is_femtojoule_scale() {
        let lib = CellLibrary::nangate45_surrogate();
        let e = lib.cell(CellKind::Nand2).switching_energy();
        // 2 * 16 ps * 35 µW = 1.12 fJ
        assert!(e.as_femtojoules() > 0.1 && e.as_femtojoules() < 100.0);
    }

    #[test]
    fn slowest_cell_is_the_flip_flop() {
        let lib = CellLibrary::nangate45_surrogate();
        assert_eq!(lib.slowest_cell().map(|c| c.kind), Some(CellKind::Dff));
    }

    #[test]
    fn cell_lookup_by_kind() {
        let lib = CellLibrary::nangate45_surrogate();
        assert_eq!(lib.cell(CellKind::Xor2).kind, CellKind::Xor2);
        assert!(lib.try_cell(CellKind::Xor2).is_some());
    }

    #[test]
    fn kind_indices_follow_the_kind_order() {
        for (i, kind) in CellKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert!(CellKind::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn the_table_keeps_the_library_semantics() {
        let full = CellLibrary::nangate45_surrogate();
        // Cells come back in kind order whatever order they went in.
        let mut cells: Vec<Cell> = full.iter().copied().collect();
        cells.reverse();
        let reversed = CellLibrary::from_cells(full.name(), cells);
        assert!(reversed.iter().map(|c| c.kind).eq(CellKind::ALL));
        assert_eq!(reversed, full);
        // A partial library counts only what it holds; a later duplicate wins.
        let xor = *full.cell(CellKind::Xor2);
        let slow_xor = Cell { delay: Seconds::from_picos(500.0), ..xor };
        let partial =
            CellLibrary::from_cells("partial", [xor, *full.cell(CellKind::Inv), slow_xor]);
        assert_eq!(partial.len(), 2);
        assert!(!partial.is_empty());
        assert!(partial.iter().map(|c| c.kind).eq([CellKind::Inv, CellKind::Xor2]));
        assert_eq!(partial.try_cell(CellKind::Nand2), None);
        assert_eq!(partial.try_cell(CellKind::Xor2), Some(&slow_xor));
        assert_eq!(partial.slowest_cell(), Some(&slow_xor));
        // Equality compares the name and every cell.
        assert_ne!(partial, full);
        assert_ne!(CellLibrary::from_cells("renamed", full.iter().copied()), full);
        let retuned = CellLibrary::from_cells(full.name(), full.iter().copied().chain([slow_xor]));
        assert_ne!(retuned, full);
        let empty = CellLibrary::from_cells("empty", []);
        assert_eq!((empty.len(), empty.is_empty(), empty.slowest_cell()), (0, true, None));
    }

    #[test]
    fn from_cells_replaces_duplicates() {
        let lib = CellLibrary::nangate45_surrogate();
        let mut inv = *lib.cell(CellKind::Inv);
        inv.delay = Seconds::from_picos(99.0);
        let custom = CellLibrary::from_cells("custom", lib.iter().copied().chain([inv]));
        assert!((custom.cell(CellKind::Inv).delay.as_picos() - 99.0).abs() < 1e-9);
    }
}
