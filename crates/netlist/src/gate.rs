//! Gate and signal primitives of the netlist data model.

use std::fmt;

use tech45::cells::CellKind;

/// Identifier of a gate (and of the single net it drives).
///
/// The netlist is in "driver form": every signal is named after the gate that
/// drives it, so a `GateId` doubles as a net identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl GateId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The logic function of a gate.
///
/// Multi-input kinds (`And`, `Or`, …) accept any fan-in of two or more; the
/// technology mapping in [`GateKind::decompose_into`] converts wide gates
/// into a tree of library cells for costing purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input (no fan-in).
    Input,
    /// Constant logic 0.
    Const0,
    /// Constant logic 1.
    Const1,
    /// Non-inverting buffer (1 fan-in).
    Buf,
    /// Inverter (1 fan-in).
    Not,
    /// N-input AND.
    And,
    /// N-input NAND.
    Nand,
    /// N-input OR.
    Or,
    /// N-input NOR.
    Nor,
    /// N-input XOR (parity).
    Xor,
    /// N-input XNOR.
    Xnor,
    /// 2-to-1 multiplexer (3 fan-ins: select, a, b).
    Mux,
    /// K-input lookup table (from BLIF `.names`).
    Lut,
    /// D flip-flop (1 fan-in: D).  The output is the state bit Q.
    Dff,
}

impl GateKind {
    /// All gate kinds in a stable order.
    pub const ALL: [GateKind; 14] = [
        GateKind::Input,
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
        GateKind::Lut,
        GateKind::Dff,
    ];

    /// Whether the gate is a source: it has no combinational fan-in
    /// (primary inputs, constants, and flip-flop outputs).
    #[must_use]
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff)
    }

    /// Whether the gate computes a combinational function of its fan-ins.
    #[must_use]
    pub fn is_combinational(self) -> bool {
        !self.is_source() && !matches!(self, GateKind::Dff)
    }

    /// The fan-in arity constraint of the kind: `(min, max)` where `None`
    /// means unbounded.
    #[must_use]
    pub fn arity(self) -> (usize, Option<usize>) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => (0, Some(0)),
            GateKind::Buf | GateKind::Not | GateKind::Dff => (1, Some(1)),
            GateKind::Mux => (3, Some(3)),
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => (2, None),
            GateKind::Lut => (1, None),
        }
    }

    /// Returns `true` when `fanin_count` satisfies the arity constraint.
    #[must_use]
    pub fn accepts_fanin(self, fanin_count: usize) -> bool {
        let (min, max) = self.arity();
        fanin_count >= min && max.is_none_or(|m| fanin_count <= m)
    }

    /// Maps this (possibly wide) gate onto a bag of 45 nm library cells,
    /// appended to `cells`, so a caller summing many gates reuses one buffer.
    ///
    /// Wide AND/OR/NAND/NOR gates become a balanced tree of 4- and 2-input
    /// cells; wide XOR/XNORs become a chain of 2-input cells; LUTs are
    /// approximated as a multiplexer tree.  Sources map to nothing (they have
    /// no silicon cost inside the operand).
    pub fn decompose_into(self, fanin_count: usize, cells: &mut Vec<CellKind>) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => {}
            GateKind::Buf => cells.push(CellKind::Buf),
            GateKind::Not => cells.push(CellKind::Inv),
            GateKind::Dff => cells.push(CellKind::Dff),
            GateKind::Mux => cells.push(CellKind::Mux2),
            GateKind::And => wide_tree(fanin_count, CellKind::And2, CellKind::And4, cells),
            GateKind::Or => wide_tree(fanin_count, CellKind::Or2, CellKind::Or4, cells),
            GateKind::Nand => nand_like(
                fanin_count,
                CellKind::Nand2,
                CellKind::Nand4,
                CellKind::And2,
                CellKind::And4,
                cells,
            ),
            GateKind::Nor => nand_like(
                fanin_count,
                CellKind::Nor2,
                CellKind::Nor4,
                CellKind::Or2,
                CellKind::Or4,
                cells,
            ),
            GateKind::Xor => xor_chain(fanin_count, CellKind::Xor2, cells),
            GateKind::Xnor => xor_chain(fanin_count, CellKind::Xnor2, cells),
            GateKind::Lut => {
                // A k-input LUT is roughly a (k-1)-deep mux tree.
                let k = fanin_count.max(1);
                let luts = (1_usize << k.min(4)).saturating_sub(1).max(1);
                cells.extend(std::iter::repeat_n(CellKind::Mux2, luts));
            }
        }
    }
}

/// Appends a balanced reduction tree of 2/4-input cells covering `n` inputs.
fn wide_tree(n: usize, two: CellKind, four: CellKind, cells: &mut Vec<CellKind>) {
    let mut remaining = n.max(2);
    while remaining > 1 {
        if remaining >= 4 {
            cells.push(four);
            remaining -= 3; // a 4-input cell replaces 4 signals by 1
        } else {
            cells.push(two);
            remaining -= 1;
        }
    }
}

/// Inverting wide gates: the final stage is the inverting cell, earlier
/// reduction stages use the non-inverting flavour.
fn nand_like(
    n: usize,
    two_inv: CellKind,
    four_inv: CellKind,
    two: CellKind,
    four: CellKind,
    cells: &mut Vec<CellKind>,
) {
    let n = n.max(2);
    if n <= 4 {
        cells.push(if n <= 2 { two_inv } else { four_inv });
        return;
    }
    // Reduce down to 4 signals with non-inverting cells, then one inverting cell.
    wide_tree(n - 3, two, four, cells);
    cells.push(four_inv);
}

/// Appends the linear chain an XOR/XNOR decomposes into.
fn xor_chain(n: usize, two: CellKind, cells: &mut Vec<CellKind>) {
    cells.extend(std::iter::repeat_n(two, n.max(2) - 1));
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Input => "INPUT",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Mux => "MUX",
            GateKind::Lut => "LUT",
            GateKind::Dff => "DFF",
        };
        f.write_str(s)
    }
}

/// Span of one gate's fan-in list inside the netlist's shared CSR arena:
/// the fan-ins of a gate are the `len` consecutive entries starting at
/// `offset` (see `Netlist::fanin`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaninSpan {
    /// First entry of the span in the fan-in arena.
    pub offset: u32,
    /// Number of fan-in connections.
    pub len: u32,
}

impl FaninSpan {
    /// The span as an arena index range.
    #[must_use]
    pub fn range(self) -> std::ops::Range<usize> {
        let start = self.offset as usize;
        start..start + self.len as usize
    }
}

/// One gate of a netlist: the signal it drives, its logic function, and the
/// span of the signals it reads inside the netlist's flat CSR fan-in arena.
///
/// The fan-in ids and the gate's name live in the owning [`crate::Netlist`];
/// resolve them with [`crate::Netlist::fanin`], which returns a contiguous
/// slice, and [`crate::Netlist::name_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Identifier (also identifies the net this gate drives).
    pub id: GateId,
    /// Logic function.
    pub kind: GateKind,
    /// Location of this gate's fan-ins in the shared arena.
    pub span: FaninSpan,
}

impl Gate {
    /// Number of fan-in connections.
    #[must_use]
    pub fn fanin_count(&self) -> usize {
        self.span.len as usize
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}/{}", self.id, self.kind, self.span.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_and_sequential_classification() {
        assert!(GateKind::Input.is_source());
        assert!(GateKind::Dff.is_source());
        assert!(!GateKind::Nand.is_source());
        assert!(GateKind::Nand.is_combinational());
        assert!(!GateKind::Dff.is_combinational());
        assert!(!GateKind::Input.is_combinational());
    }

    #[test]
    fn arity_constraints() {
        assert!(GateKind::Input.accepts_fanin(0));
        assert!(!GateKind::Input.accepts_fanin(1));
        assert!(GateKind::Not.accepts_fanin(1));
        assert!(!GateKind::Not.accepts_fanin(2));
        assert!(GateKind::And.accepts_fanin(2));
        assert!(GateKind::And.accepts_fanin(8));
        assert!(!GateKind::And.accepts_fanin(1));
        assert!(GateKind::Mux.accepts_fanin(3));
        assert!(!GateKind::Mux.accepts_fanin(2));
    }

    #[test]
    fn two_input_gates_map_to_single_cells() {
        assert_eq!(cells(GateKind::And, 2), vec![CellKind::And2]);
        assert_eq!(cells(GateKind::Nand, 2), vec![CellKind::Nand2]);
        assert_eq!(cells(GateKind::Xor, 2), vec![CellKind::Xor2]);
        assert_eq!(cells(GateKind::Not, 1), vec![CellKind::Inv]);
        assert_eq!(cells(GateKind::Dff, 1), vec![CellKind::Dff]);
    }

    #[test]
    fn wide_gates_decompose_into_trees() {
        let and8 = cells(GateKind::And, 8);
        assert!(and8.len() >= 2, "an 8-input AND needs several cells: {and8:?}");
        let nand8 = cells(GateKind::Nand, 8);
        // Exactly one inverting cell at the root.
        let inverting =
            nand8.iter().filter(|c| matches!(c, CellKind::Nand4 | CellKind::Nand2)).count();
        assert_eq!(inverting, 1);
        let xor5 = cells(GateKind::Xor, 5);
        assert_eq!(xor5.len(), 4);
    }

    /// The cells `kind` maps to at fan-in `n`, in a fresh buffer.
    fn cells(kind: GateKind, n: usize) -> Vec<CellKind> {
        let mut cells = Vec::new();
        kind.decompose_into(n, &mut cells);
        cells
    }

    /// The decomposition as it was written before it appended to a buffer.
    fn reference_decompose(kind: GateKind, n: usize) -> Vec<CellKind> {
        fn wide(n: usize, two: CellKind, four: CellKind) -> Vec<CellKind> {
            let mut cells = Vec::new();
            let mut remaining = n.max(2);
            while remaining > 1 {
                let (cell, merged) = if remaining >= 4 { (four, 3) } else { (two, 1) };
                cells.push(cell);
                remaining -= merged;
            }
            cells
        }
        fn inverting(n: usize, [two_inv, four_inv, two, four]: [CellKind; 4]) -> Vec<CellKind> {
            let n = n.max(2);
            if n <= 4 {
                return vec![if n <= 2 { two_inv } else { four_inv }];
            }
            let mut cells = wide(n - 3, two, four);
            cells.push(four_inv);
            cells
        }
        use CellKind as C;
        match kind {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => Vec::new(),
            GateKind::Buf => vec![C::Buf],
            GateKind::Not => vec![C::Inv],
            GateKind::Dff => vec![C::Dff],
            GateKind::Mux => vec![C::Mux2],
            GateKind::And => wide(n, C::And2, C::And4),
            GateKind::Or => wide(n, C::Or2, C::Or4),
            GateKind::Nand => inverting(n, [C::Nand2, C::Nand4, C::And2, C::And4]),
            GateKind::Nor => inverting(n, [C::Nor2, C::Nor4, C::Or2, C::Or4]),
            GateKind::Xor => vec![C::Xor2; n.max(2) - 1],
            GateKind::Xnor => vec![C::Xnor2; n.max(2) - 1],
            GateKind::Lut => vec![C::Mux2; (1_usize << n.clamp(1, 4)).saturating_sub(1).max(1)],
        }
    }

    #[test]
    fn decompose_into_appends_the_reference_decomposition() {
        for kind in GateKind::ALL {
            for n in 0..=12 {
                let expected = reference_decompose(kind, n);
                assert_eq!(cells(kind, n), expected, "{kind}/{n}");
                // Appends after what the buffer already holds.
                let mut cells = vec![CellKind::Tie];
                kind.decompose_into(n, &mut cells);
                assert_eq!((cells[0], &cells[1..]), (CellKind::Tie, &expected[..]), "{kind}/{n}");
            }
        }
    }

    #[test]
    fn sources_have_no_cells() {
        assert!(cells(GateKind::Input, 0).is_empty());
        assert!(cells(GateKind::Const1, 0).is_empty());
    }

    #[test]
    fn lut_decomposition_grows_with_inputs() {
        assert!(cells(GateKind::Lut, 2).len() < cells(GateKind::Lut, 4).len());
    }

    #[test]
    fn gate_display_names_the_function_and_arity() {
        let g =
            Gate { id: GateId(5), kind: GateKind::Nand, span: FaninSpan { offset: 10, len: 2 } };
        assert_eq!(g.to_string(), "n5 = NAND/2");
        assert_eq!(std::mem::size_of::<Gate>(), 16);
        assert_eq!(g.fanin_count(), 2);
        assert_eq!(cells(g.kind, g.fanin_count()), vec![CellKind::Nand2]);
        assert_eq!(g.span.range(), 10..12);
    }

    #[test]
    fn gate_id_display_and_index() {
        assert_eq!(GateId(7).to_string(), "n7");
        assert_eq!(GateId(7).index(), 7);
    }
}
