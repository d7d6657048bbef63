//! The in-memory netlist data model.
//!
//! # Flat CSR connectivity
//!
//! Fan-ins are stored compressed-sparse-row style: one shared `Vec<GateId>`
//! arena holds every fan-in list back to back, and each [`Gate`] carries a
//! `(offset, len)` span ([`crate::gate::FaninSpan`]) into it.  The reverse
//! direction (fan-outs) is a second CSR — a prefix-offset table plus one
//! arena — built once in [`NetlistBuilder::finish`] and cached, because a
//! finished netlist is immutable.  Every consumer (`levelize`, `sim`,
//! `bitsim`, `stats`, the operand-tree clustering) reads contiguous
//! slices via [`Netlist::fanin`] / [`Netlist::fanout`] instead of chasing
//! per-gate `Vec`s or hashing names.

use std::collections::HashMap;
use std::fmt;

use crate::error::NetlistError;
use crate::gate::{FaninSpan, Gate, GateId, GateKind};

/// A gate-level design in "driver form": every signal is identified by the
/// gate that drives it, primary inputs and flip-flops included.
///
/// Construct a netlist with [`NetlistBuilder`] (or one of the parsers in
/// [`crate::parser`]); a successfully built netlist is guaranteed to be
/// structurally valid (unique names, defined fan-ins, correct arities).
///
/// ```
/// use netlist::{NetlistBuilder, GateKind};
///
/// let mut b = NetlistBuilder::new("toy");
/// let a = b.add_input("a");
/// let bq = b.add_input("b");
/// let g = b.add_gate("g", GateKind::And, vec![a, bq])?;
/// b.mark_output(g);
/// let nl = b.finish()?;
/// assert_eq!(nl.gate_count(), 3);
/// assert_eq!(nl.primary_outputs(), &[g]);
/// # Ok::<(), netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    /// Shared fan-in arena; each gate's span indexes into it.
    fanin_arena: Vec<GateId>,
    /// Fan-out CSR: `fanout_offsets[i]..fanout_offsets[i + 1]` bounds the
    /// readers of gate `i` inside `fanout_arena`.
    fanout_offsets: Vec<u32>,
    fanout_arena: Vec<GateId>,
    primary_inputs: Vec<GateId>,
    primary_outputs: Vec<GateId>,
    flip_flops: Vec<GateId>,
    by_name: HashMap<String, GateId>,
}

impl Netlist {
    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of gates, including primary inputs, constants and
    /// flip-flops.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of combinational gates (what the ISCAS/MCNC gate counts quote).
    #[must_use]
    pub fn combinational_count(&self) -> usize {
        self.gates.iter().filter(|g| g.kind.is_combinational()).count()
    }

    /// Number of flip-flops.
    #[must_use]
    pub fn flip_flop_count(&self) -> usize {
        self.flip_flops.len()
    }

    /// Gate accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Fallible gate accessor.
    #[must_use]
    pub fn try_gate(&self, id: GateId) -> Option<&Gate> {
        self.gates.get(id.index())
    }

    /// Looks a gate up by its source-level name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    /// All gates in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter()
    }

    /// Identifiers of all gates in id order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(|i| GateId(i as u32))
    }

    /// Primary inputs in declaration order.
    #[must_use]
    pub fn primary_inputs(&self) -> &[GateId] {
        &self.primary_inputs
    }

    /// Primary outputs in declaration order.
    #[must_use]
    pub fn primary_outputs(&self) -> &[GateId] {
        &self.primary_outputs
    }

    /// Flip-flops in declaration order.
    #[must_use]
    pub fn flip_flops(&self) -> &[GateId] {
        &self.flip_flops
    }

    /// The fan-ins of one gate as a contiguous slice of the shared arena.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn fanin(&self, id: GateId) -> &[GateId] {
        &self.fanin_arena[self.gates[id.index()].span.range()]
    }

    /// The whole flat fan-in arena; [`crate::gate::FaninSpan`] ranges stored
    /// on each gate index into this slice.  Hot loops that already hold a
    /// gate's span can slice the arena directly instead of re-fetching the
    /// gate.
    #[must_use]
    pub fn fanin_arena(&self) -> &[GateId] {
        &self.fanin_arena
    }

    /// The readers of one gate (cached fan-out CSR, one slice per gate).
    /// A reader appears once per connection, so a gate wired to two inputs
    /// of the same reader is listed twice — mirroring the fan-in side.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn fanout(&self, id: GateId) -> &[GateId] {
        let i = id.index();
        &self.fanout_arena[self.fanout_offsets[i] as usize..self.fanout_offsets[i + 1] as usize]
    }

    /// Fan-out count per gate (how many gates read each signal), with primary
    /// outputs counting as one extra reader.
    #[must_use]
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts: Vec<usize> =
            self.fanout_offsets.windows(2).map(|w| (w[1] - w[0]) as usize).collect();
        for &po in &self.primary_outputs {
            counts[po.index()] += 1;
        }
        counts
    }

    /// Total number of state bits that a full checkpoint must preserve:
    /// all flip-flop outputs plus all primary outputs.
    #[must_use]
    pub fn architectural_state_bits(&self) -> u64 {
        (self.flip_flops.len() + self.primary_outputs.len()) as u64
    }

    /// Renders the netlist back to ISCAS-89 `.bench` text.
    #[must_use]
    pub fn to_bench(&self) -> String {
        let mut s = format!("# {}\n", self.name);
        for &pi in &self.primary_inputs {
            s.push_str(&format!("INPUT({})\n", self.gate(pi).name));
        }
        for &po in &self.primary_outputs {
            s.push_str(&format!("OUTPUT({})\n", self.gate(po).name));
        }
        for gate in &self.gates {
            if gate.kind == GateKind::Input {
                continue;
            }
            let args: Vec<&str> =
                self.fanin(gate.id).iter().map(|&id| self.gate(id).name.as_str()).collect();
            s.push_str(&format!("{} = {}({})\n", gate.name, gate.kind, args.join(", ")));
        }
        s
    }

    /// Rejects designs the simulators cannot interpret: LUT covers carry no
    /// logic function in this data model.  Shared by the scalar and the
    /// bit-parallel simulator so both report the identical reason.
    pub(crate) fn check_simulable(&self) -> Result<(), NetlistError> {
        match self.gates.iter().find(|g| g.kind == GateKind::Lut) {
            Some(lut) => Err(NetlistError::UnsupportedGate {
                gate: lut.name.clone(),
                reason: "LUT covers carry no interpreted logic function".to_string(),
            }),
            None => Ok(()),
        }
    }

    /// Constant gates with their driven values.  Constants are sources
    /// (outside the combinational schedule), so the simulators seed them
    /// explicitly each cycle.
    pub(crate) fn const_gates(&self) -> impl Iterator<Item = (GateId, bool)> + '_ {
        self.gates
            .iter()
            .filter(|g| matches!(g.kind, GateKind::Const0 | GateKind::Const1))
            .map(|g| (g.id, g.kind == GateKind::Const1))
    }

    /// Bench-style rendering of one gate with resolved fan-in names
    /// (`G9 = NAND(G1, G2)`).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn format_gate(&self, id: GateId) -> String {
        let gate = self.gate(id);
        let args: Vec<&str> = self.fanin(id).iter().map(|&f| self.gate(f).name.as_str()).collect();
        format!("{} = {}({})", gate.name, gate.kind, args.join(", "))
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist `{}`: {} gates ({} combinational, {} FFs), {} inputs, {} outputs",
            self.name,
            self.gate_count(),
            self.combinational_count(),
            self.flip_flop_count(),
            self.primary_inputs.len(),
            self.primary_outputs.len(),
        )
    }
}

/// Incremental builder for [`Netlist`].
///
/// The builder allows forward references: fan-ins may name gates that are
/// defined later (as both `.bench` and BLIF files do); everything is resolved
/// and validated in [`NetlistBuilder::finish`].
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<PendingGate>,
    outputs: Vec<String>,
    by_name: HashMap<String, usize>,
}

#[derive(Debug, Clone)]
struct PendingGate {
    name: String,
    kind: GateKind,
    fanin_names: Vec<String>,
}

impl NetlistBuilder {
    /// Creates an empty builder for a design called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Self::default() }
    }

    /// Number of gates added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether no gates have been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Adds a primary input and returns its eventual id.
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        let name = name.into();
        let id = GateId(self.gates.len() as u32);
        self.by_name.insert(name.clone(), id.index());
        self.gates.push(PendingGate { name, kind: GateKind::Input, fanin_names: Vec::new() });
        id
    }

    /// Adds a gate whose fan-ins are already-known ids.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateGate`] if `name` is already defined and
    /// [`NetlistError::ArityMismatch`] if the fan-in count does not fit `kind`.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanin: Vec<GateId>,
    ) -> Result<GateId, NetlistError> {
        let fanin_names: Vec<String> = fanin
            .iter()
            .map(|id| {
                self.gates.get(id.index()).map(|g| g.name.clone()).ok_or_else(|| {
                    NetlistError::UndefinedSignal {
                        name: id.to_string(),
                        referenced_by: "builder".to_string(),
                    }
                })
            })
            .collect::<Result<_, _>>()?;
        self.add_gate_by_names(name, kind, fanin_names)
    }

    /// Adds a gate whose fan-ins are referenced by signal name (which may be
    /// defined later).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateGate`] if `name` is already defined and
    /// [`NetlistError::ArityMismatch`] if the fan-in count does not fit `kind`.
    pub fn add_gate_by_names(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanin_names: Vec<String>,
    ) -> Result<GateId, NetlistError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateGate { name });
        }
        if !kind.accepts_fanin(fanin_names.len()) {
            let (min, max) = kind.arity();
            let expected = match max {
                Some(max) if max == min => format!("exactly {min}"),
                Some(max) => format!("between {min} and {max}"),
                None => format!("at least {min}"),
            };
            return Err(NetlistError::ArityMismatch {
                gate: name,
                expected,
                found: fanin_names.len(),
            });
        }
        let id = GateId(self.gates.len() as u32);
        self.by_name.insert(name.clone(), id.index());
        self.gates.push(PendingGate { name, kind, fanin_names });
        Ok(id)
    }

    /// Marks an already-added gate as a primary output.
    pub fn mark_output(&mut self, id: GateId) {
        if let Some(gate) = self.gates.get(id.index()) {
            self.outputs.push(gate.name.clone());
        }
    }

    /// Marks a signal name as a primary output (the signal may be defined
    /// later).
    pub fn mark_output_name(&mut self, name: impl Into<String>) {
        self.outputs.push(name.into());
    }

    /// Resolves all references and produces the validated [`Netlist`].
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is empty, if any referenced signal is
    /// never defined, or if an output names an unknown signal.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if self.gates.is_empty() {
            return Err(NetlistError::EmptyNetlist);
        }
        let n = self.gates.len();
        let total_fanins: usize = self.gates.iter().map(|g| g.fanin_names.len()).sum();
        let mut gates = Vec::with_capacity(n);
        let mut fanin_arena: Vec<GateId> = Vec::with_capacity(total_fanins);
        let mut primary_inputs = Vec::new();
        let mut flip_flops = Vec::new();
        for (index, pending) in self.gates.iter().enumerate() {
            let id = GateId(index as u32);
            let offset = fanin_arena.len() as u32;
            for name in &pending.fanin_names {
                let fanin = self.by_name.get(name).map(|&i| GateId(i as u32)).ok_or_else(|| {
                    NetlistError::UndefinedSignal {
                        name: name.clone(),
                        referenced_by: pending.name.clone(),
                    }
                })?;
                fanin_arena.push(fanin);
            }
            match pending.kind {
                GateKind::Input => primary_inputs.push(id),
                GateKind::Dff => flip_flops.push(id),
                _ => {}
            }
            let span = FaninSpan { offset, len: pending.fanin_names.len() as u32 };
            gates.push(Gate { id, name: pending.name.clone(), kind: pending.kind, span });
        }

        // Reverse CSR: classic two-pass counting sort over the fan-in edges,
        // so `fanout(id)` lists readers in (reader id, input position) order.
        let mut fanout_offsets = vec![0_u32; n + 1];
        for &src in &fanin_arena {
            fanout_offsets[src.index() + 1] += 1;
        }
        for i in 0..n {
            fanout_offsets[i + 1] += fanout_offsets[i];
        }
        let mut fanout_arena = vec![GateId(0); fanin_arena.len()];
        let mut cursor: Vec<u32> = fanout_offsets[..n].to_vec();
        for gate in &gates {
            for &src in &fanin_arena[gate.span.range()] {
                let slot = &mut cursor[src.index()];
                fanout_arena[*slot as usize] = gate.id;
                *slot += 1;
            }
        }

        let mut primary_outputs = Vec::with_capacity(self.outputs.len());
        for name in &self.outputs {
            let id = self.by_name.get(name).map(|&i| GateId(i as u32)).ok_or_else(|| {
                NetlistError::UndefinedSignal {
                    name: name.clone(),
                    referenced_by: "OUTPUT".to_string(),
                }
            })?;
            primary_outputs.push(id);
        }
        let by_name =
            self.by_name.into_iter().map(|(name, index)| (name, GateId(index as u32))).collect();
        Ok(Netlist {
            name: self.name,
            gates,
            fanin_arena,
            fanout_offsets,
            fanout_arena,
            primary_inputs,
            primary_outputs,
            flip_flops,
            by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Netlist {
        let mut b = NetlistBuilder::new("toy");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let g1 = b.add_gate("g1", GateKind::And, vec![a, c]).unwrap();
        let g2 = b.add_gate("g2", GateKind::Not, vec![g1]).unwrap();
        let q = b.add_gate("q", GateKind::Dff, vec![g2]).unwrap();
        let g3 = b.add_gate("g3", GateKind::Or, vec![q, a]).unwrap();
        b.mark_output(g3);
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_consistent_netlist() {
        let nl = toy();
        assert_eq!(nl.gate_count(), 6);
        assert_eq!(nl.combinational_count(), 3);
        assert_eq!(nl.flip_flop_count(), 1);
        assert_eq!(nl.primary_inputs().len(), 2);
        assert_eq!(nl.primary_outputs().len(), 1);
        assert_eq!(nl.architectural_state_bits(), 2);
        assert!(nl.to_string().contains("toy"));
    }

    #[test]
    fn name_lookup_round_trips() {
        let nl = toy();
        let g1 = nl.find("g1").unwrap();
        assert_eq!(nl.gate(g1).name, "g1");
        assert_eq!(nl.gate(g1).kind, GateKind::And);
        assert!(nl.find("nope").is_none());
        assert!(nl.try_gate(GateId(999)).is_none());
    }

    #[test]
    fn fanouts_are_reverse_of_fanins() {
        let nl = toy();
        let a = nl.find("a").unwrap();
        // `a` feeds g1 and g3.
        assert_eq!(nl.fanout(a).len(), 2);
        let counts = nl.fanout_counts();
        let g3 = nl.find("g3").unwrap();
        // g3 is only read by the primary output marker.
        assert_eq!(counts[g3.index()], 1);
    }

    #[test]
    fn csr_slices_mirror_the_connection_lists() {
        let nl = toy();
        // Every fan-out edge is the reverse of exactly one fan-in edge.
        let mut fanin_edges: Vec<(GateId, GateId)> = Vec::new();
        let mut fanout_edges: Vec<(GateId, GateId)> = Vec::new();
        for id in nl.ids() {
            for &f in nl.fanin(id) {
                fanin_edges.push((f, id));
            }
            for &r in nl.fanout(id) {
                fanout_edges.push((id, r));
            }
        }
        fanin_edges.sort_unstable();
        fanout_edges.sort_unstable();
        assert_eq!(fanin_edges, fanout_edges);
        // Spans report the same arity the slices have.
        for gate in nl.iter() {
            assert_eq!(gate.fanin_count(), nl.fanin(gate.id).len());
        }
    }

    #[test]
    fn duplicate_connections_are_listed_per_edge() {
        let mut b = NetlistBuilder::new("dup_edge");
        let a = b.add_input("a");
        let g = b.add_gate("g", GateKind::And, vec![a, a]).unwrap();
        b.mark_output(g);
        let nl = b.finish().unwrap();
        assert_eq!(nl.fanin(g), &[a, a]);
        assert_eq!(nl.fanout(a), &[g, g]);
        assert_eq!(nl.format_gate(g), "g = AND(a, a)");
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.add_input("a");
        let err = b.add_gate("a", GateKind::Not, vec![a]).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateGate { .. }));
    }

    #[test]
    fn arity_is_checked() {
        let mut b = NetlistBuilder::new("arity");
        let a = b.add_input("a");
        let err = b.add_gate("g", GateKind::And, vec![a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { found: 1, .. }));
    }

    #[test]
    fn undefined_signals_are_reported_at_finish() {
        let mut b = NetlistBuilder::new("undef");
        b.add_gate_by_names("g", GateKind::Not, vec!["ghost".to_string()]).unwrap();
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::UndefinedSignal { .. }));
    }

    #[test]
    fn unknown_output_is_reported() {
        let mut b = NetlistBuilder::new("out");
        b.add_input("a");
        b.mark_output_name("ghost");
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::UndefinedSignal { .. }));
    }

    #[test]
    fn empty_netlist_is_rejected() {
        let err = NetlistBuilder::new("empty").finish().unwrap_err();
        assert_eq!(err, NetlistError::EmptyNetlist);
    }

    #[test]
    fn forward_references_resolve() {
        let mut b = NetlistBuilder::new("fwd");
        // g reads `later`, which is defined afterwards.
        b.add_gate_by_names("g", GateKind::Not, vec!["later".to_string()]).unwrap();
        b.add_input("later");
        b.mark_output_name("g");
        let nl = b.finish().unwrap();
        let g = nl.find("g").unwrap();
        let later = nl.find("later").unwrap();
        assert_eq!(nl.fanin(g), &[later]);
    }

    #[test]
    fn bench_round_trip_preserves_structure() {
        let nl = toy();
        let text = nl.to_bench();
        let parsed = crate::parser::parse_bench("toy", &text).unwrap();
        assert_eq!(parsed.gate_count(), nl.gate_count());
        assert_eq!(parsed.combinational_count(), nl.combinational_count());
        assert_eq!(parsed.flip_flop_count(), nl.flip_flop_count());
        assert_eq!(parsed.primary_outputs().len(), nl.primary_outputs().len());
    }

    #[test]
    fn ids_iterate_in_order() {
        let nl = toy();
        let ids: Vec<_> = nl.ids().collect();
        assert_eq!(ids.len(), nl.gate_count());
        assert_eq!(ids[0], GateId(0));
        assert_eq!(*ids.last().unwrap(), GateId(nl.gate_count() as u32 - 1));
    }
}
