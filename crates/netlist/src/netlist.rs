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
//! `bitsim`, the operand-tree clustering) reads contiguous slices via
//! [`Netlist::fanin`] / [`Netlist::fanout`] instead of chasing per-gate
//! `Vec`s or hashing names.
//!
//! # Names in one arena
//!
//! A [`Gate`] holds no name.  The netlist keeps every gate name back to
//! back in one string with a `u32` end offset per gate
//! ([`Netlist::name_of`]), and an index that finds a gate by name
//! ([`Netlist::find`]).  The builder writes each name into the arena and
//! hashes it once, into the index the finished netlist keeps;
//! [`Netlist::with_buffers`] copies both to derive a rewired design, so a
//! design of any size holds its names in a handful of allocations.

use std::fmt;

use crate::error::NetlistError;
use crate::gate::{FaninSpan, Gate, GateId, GateKind};
use crate::names::Names;

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
/// assert_eq!((nl.name_of(g), nl.find("g")), ("g", Some(g)));
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
    /// Gate names in id order, with their index.
    names: Names,
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

    /// The source-level name of the signal gate `id` drives.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn name_of(&self, id: GateId) -> &str {
        self.names.get(id)
    }

    /// Looks a gate up by its source-level name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.names.find(name)
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

    /// Total number of state bits that a full checkpoint must preserve:
    /// all flip-flop outputs plus all primary outputs.
    #[must_use]
    pub fn architectural_state_bits(&self) -> u64 {
        (self.flip_flops.len() + self.primary_outputs.len()) as u64
    }

    /// This design with one `Buf` gate appended per entry of `drivers`, in
    /// order: the buffer of `drivers[k]` gets id `gate_count() + k`, is named
    /// `{driver}{suffix}` and reads its driver.  Every other gate keeps its
    /// id, name, kind and arity; it reads a driver through the driver's
    /// buffer exactly where `through(reader, driver)` holds, and the driver
    /// itself elsewhere.  The primary outputs stay on their drivers.
    ///
    /// The names and their index are copied, not rebuilt; only the buffer
    /// names are hashed.  [`crate::levelize::Levels::with_buffers`] derives
    /// the result's levels from this design's.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateGate`] if a buffer name is already
    /// defined (a driver listed twice included).
    ///
    /// # Panics
    ///
    /// Panics if a driver does not belong to this netlist.
    pub fn with_buffers(
        &self,
        drivers: &[GateId],
        suffix: &str,
        mut through: impl FnMut(GateId, GateId) -> bool,
    ) -> Result<Netlist, NetlistError> {
        let n = self.gates.len();
        let mut names = self.names.clone();
        let bytes = drivers.iter().map(|&d| self.name_of(d).len() + suffix.len()).sum();
        names.reserve(drivers.len(), bytes);
        let mut buffer_of = vec![None; n];
        let mut gates = Vec::with_capacity(n + drivers.len());
        gates.extend_from_slice(&self.gates);
        for (k, &driver) in drivers.iter().enumerate() {
            let hash = names.stage(format_args!("{}{suffix}", self.name_of(driver)));
            if names.taken(hash) {
                return Err(NetlistError::DuplicateGate { name: names.staged().to_string() });
            }
            names.commit(hash);
            let id = GateId((n + k) as u32);
            buffer_of[driver.index()] = Some(id);
            let span = FaninSpan { offset: (self.fanin_arena.len() + k) as u32, len: 1 };
            gates.push(Gate { id, kind: GateKind::Buf, span });
        }
        let mut fanins = Vec::with_capacity(self.fanin_arena.len() + drivers.len());
        for gate in &self.gates {
            fanins.extend(self.fanin(gate.id).iter().map(|&f| match buffer_of[f.index()] {
                Some(buffer) if through(gate.id, f) => buffer,
                _ => f,
            }));
        }
        fanins.extend_from_slice(drivers);
        Ok(Netlist::from_parts(
            self.name.clone(),
            gates,
            fanins,
            self.primary_outputs.clone(),
            names,
        ))
    }

    /// Assembles a netlist from gates whose fan-ins all name gates: collects
    /// the primary inputs and flip-flops and builds the fan-out CSR.
    fn from_parts(
        name: String,
        gates: Vec<Gate>,
        fanin_arena: Vec<GateId>,
        primary_outputs: Vec<GateId>,
        names: Names,
    ) -> Netlist {
        let n = gates.len();
        let of_kind = |kind| {
            let mut ids = Vec::with_capacity(gates.iter().filter(|g| g.kind == kind).count());
            ids.extend(gates.iter().filter(|g| g.kind == kind).map(|g| g.id));
            ids
        };
        let (primary_inputs, flip_flops) = (of_kind(GateKind::Input), of_kind(GateKind::Dff));

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

        Netlist {
            name,
            gates,
            fanin_arena,
            fanout_offsets,
            fanout_arena,
            primary_inputs,
            primary_outputs,
            flip_flops,
            names,
        }
    }

    /// Renders the netlist back to ISCAS-89 `.bench` text.
    #[must_use]
    pub fn to_bench(&self) -> String {
        let mut s = format!("# {}\n", self.name);
        for &pi in &self.primary_inputs {
            s.push_str(&format!("INPUT({})\n", self.name_of(pi)));
        }
        for &po in &self.primary_outputs {
            s.push_str(&format!("OUTPUT({})\n", self.name_of(po)));
        }
        for gate in self.gates.iter().filter(|g| g.kind != GateKind::Input) {
            let args: Vec<&str> = self.fanin(gate.id).iter().map(|&id| self.name_of(id)).collect();
            s.push_str(&format!(
                "{} = {}({})\n",
                self.name_of(gate.id),
                gate.kind,
                args.join(", ")
            ));
        }
        s
    }

    /// Rejects designs the simulators cannot interpret: LUT covers carry no
    /// logic function in this data model.  Shared by the scalar and the
    /// bit-parallel simulator so both report the identical reason.
    pub(crate) fn check_simulable(&self) -> Result<(), NetlistError> {
        match self.gates.iter().find(|g| g.kind == GateKind::Lut) {
            Some(lut) => Err(NetlistError::UnsupportedGate {
                gate: self.name_of(lut.id).to_string(),
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
/// Gates get ids in the order they are added.  Fan-ins are stored as ids in
/// one flat arena, so a caller that knows its ids ([`Self::add_gate`]) never
/// goes through names; ids may point forward, at gates added later.  A name
/// ([`Self::add_gate_by_names`], [`Self::mark_output_name`]) resolves at once
/// when it is already defined; only a name defined later (as both `.bench`
/// and BLIF files allow) waits for [`NetlistBuilder::finish`], which resolves
/// it and rejects every id that names no gate.
///
/// A gate's name is written straight into the netlist's name arena (any
/// [`fmt::Display`] value, so `format_args!("g{i}")` needs no `String`) and
/// hashed once, into the index the finished netlist keeps.
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    /// Fan-in arena; each gate's span indexes into it.
    fanins: Vec<GateId>,
    outputs: Vec<GateId>,
    names: Names,
    /// Fan-in arena slots whose name was not defined yet.
    forward_fanins: Vec<(usize, String)>,
    /// Output slots whose name was not defined yet.
    forward_outputs: Vec<(usize, String)>,
    /// The first primary input whose name was already defined.
    duplicate_input: Option<String>,
}

/// Placeholder for a forward name until [`NetlistBuilder::finish`].
const UNRESOLVED: GateId = GateId(u32::MAX);

impl NetlistBuilder {
    /// Creates an empty builder for a design called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Self::default() }
    }

    /// Makes room for `gates` more gates whose names take `name_bytes` bytes
    /// in all, reading `fanins` signals and marking `outputs` outputs.
    pub(crate) fn reserve(
        &mut self,
        gates: usize,
        name_bytes: usize,
        fanins: usize,
        outputs: usize,
    ) {
        self.gates.reserve(gates);
        self.names.reserve(gates, name_bytes);
        self.fanins.reserve(fanins);
        self.outputs.reserve(outputs);
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

    /// Adds a primary input and returns its id.  A name that is already
    /// defined makes [`Self::finish`] fail with
    /// [`NetlistError::DuplicateGate`].
    pub fn add_input(&mut self, name: impl fmt::Display) -> GateId {
        let hash = self.names.stage(name);
        if self.duplicate_input.is_none() && self.names.taken(hash) {
            self.duplicate_input = Some(self.names.staged().to_string());
        }
        self.names.commit(hash);
        self.push_gate(GateKind::Input, self.fanins.len())
    }

    /// Adds a gate whose fan-ins are ids.  An id may name a gate added later;
    /// [`Self::finish`] rejects one that names no gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateGate`] if `name` is already defined and
    /// [`NetlistError::ArityMismatch`] if the fan-in count does not fit `kind`.
    pub fn add_gate(
        &mut self,
        name: impl fmt::Display,
        kind: GateKind,
        fanin: impl IntoIterator<Item = GateId>,
    ) -> Result<GateId, NetlistError> {
        let offset = self.fanins.len();
        self.fanins.extend(fanin);
        self.admit(name, kind, self.fanins.len() - offset)
            .inspect_err(|_| self.fanins.truncate(offset))?;
        Ok(self.push_gate(kind, offset))
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
        name: impl fmt::Display,
        kind: GateKind,
        fanin_names: Vec<String>,
    ) -> Result<GateId, NetlistError> {
        self.admit(name, kind, fanin_names.len())?;
        let offset = self.fanins.len();
        for fanin in fanin_names {
            let id = self.names.find(&fanin).unwrap_or_else(|| {
                self.forward_fanins.push((self.fanins.len(), fanin));
                UNRESOLVED
            });
            self.fanins.push(id);
        }
        Ok(self.push_gate(kind, offset))
    }

    /// Marks a gate as a primary output.  The id may name a gate added later;
    /// [`Self::finish`] rejects one that names no gate.
    pub fn mark_output(&mut self, id: GateId) {
        self.outputs.push(id);
    }

    /// Marks a signal name as a primary output (the signal may be defined
    /// later).
    pub fn mark_output_name(&mut self, name: impl Into<String>) {
        let name = name.into();
        let id = self.names.find(&name).unwrap_or_else(|| {
            self.forward_outputs.push((self.outputs.len(), name));
            UNRESOLVED
        });
        self.outputs.push(id);
    }

    /// Admits the next gate's name: checks that it is free and that `found`
    /// fan-ins fit `kind`, and commits it.  A rejected name is dropped.
    fn admit(
        &mut self,
        name: impl fmt::Display,
        kind: GateKind,
        found: usize,
    ) -> Result<(), NetlistError> {
        let hash = self.names.stage(name);
        let error = if self.names.taken(hash) {
            NetlistError::DuplicateGate { name: self.names.staged().to_string() }
        } else if !kind.accepts_fanin(found) {
            let (min, max) = kind.arity();
            let expected = match max {
                Some(max) if max == min => format!("exactly {min}"),
                Some(max) => format!("between {min} and {max}"),
                None => format!("at least {min}"),
            };
            NetlistError::ArityMismatch { gate: self.names.staged().to_string(), expected, found }
        } else {
            self.names.commit(hash);
            return Ok(());
        };
        self.names.discard();
        Err(error)
    }

    /// Records a gate, whose name is committed, with fan-ins from arena slot
    /// `offset` on.
    fn push_gate(&mut self, kind: GateKind, offset: usize) -> GateId {
        let id = GateId(self.gates.len() as u32);
        let span = FaninSpan { offset: offset as u32, len: (self.fanins.len() - offset) as u32 };
        self.gates.push(Gate { id, kind, span });
        id
    }

    /// Resolves the forward names, checks every id and produces the
    /// validated [`Netlist`], which keeps the builder's name index.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is empty, if a primary input reuses a
    /// defined name, or if a fan-in or an output names a signal that is never
    /// defined or an id past the last gate.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let Self { name, gates, mut fanins, mut outputs, names, .. } = self;
        if gates.is_empty() {
            return Err(NetlistError::EmptyNetlist);
        }
        if let Some(name) = self.duplicate_input {
            return Err(NetlistError::DuplicateGate { name });
        }
        let n = gates.len();
        // Spans tile the arena in gate order, so a slot's reader is the first
        // gate whose span ends past it.
        let reader = |slot: usize| {
            names.get(GateId(gates.partition_point(|g| g.span.range().end <= slot) as u32))
        };
        let undefined = |name: String, referenced_by: &str| NetlistError::UndefinedSignal {
            name,
            referenced_by: referenced_by.to_string(),
        };
        let resolve = |signal: String, referenced_by: &str| {
            names.find(&signal).ok_or_else(|| undefined(signal, referenced_by))
        };
        for (slot, signal) in self.forward_fanins {
            fanins[slot] = resolve(signal, reader(slot))?;
        }
        for (slot, signal) in self.forward_outputs {
            outputs[slot] = resolve(signal, "OUTPUT")?;
        }
        if let Some(slot) = fanins.iter().position(|f| f.index() >= n) {
            return Err(undefined(fanins[slot].to_string(), reader(slot)));
        }
        if let Some(bad) = outputs.iter().find(|o| o.index() >= n) {
            return Err(undefined(bad.to_string(), "OUTPUT"));
        }
        Ok(Netlist::from_parts(name, gates, fanins, outputs, names))
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
        assert_eq!(nl.name_of(g1), "g1");
        assert_eq!(nl.gate(g1).kind, GateKind::And);
        assert!(nl.find("nope").is_none());
    }

    #[test]
    fn fanouts_are_reverse_of_fanins() {
        let nl = toy();
        let a = nl.find("a").unwrap();
        // `a` feeds g1 and g3.
        assert_eq!(nl.fanout(a).len(), 2);
        let g3 = nl.find("g3").unwrap();
        // g3 is read by no gate, only by the primary output marker.
        assert!(nl.fanout(g3).is_empty());
        assert_eq!(nl.primary_outputs(), &[g3]);
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
        assert!(nl.to_bench().contains("g = AND(a, a)"));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.add_input("a");
        let err = b.add_gate("a", GateKind::Not, vec![a]).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateGate { .. }));
    }

    #[test]
    fn a_duplicate_input_is_rejected_at_finish() {
        let mut b = NetlistBuilder::new("dup_input");
        let a = b.add_input("a");
        b.add_input("a");
        let g = b.add_gate("g", GateKind::Not, [a]).unwrap();
        b.mark_output(g);
        assert_eq!(b.finish().unwrap_err(), NetlistError::DuplicateGate { name: "a".into() });
        // An input may not take a gate's name either.
        let mut b = NetlistBuilder::new("input_after_gate");
        let a = b.add_input("a");
        b.add_gate("g", GateKind::Not, [a]).unwrap();
        b.add_input("g");
        assert_eq!(b.finish().unwrap_err(), NetlistError::DuplicateGate { name: "g".into() });
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
        let a = b.add_input("a");
        b.add_gate("f", GateKind::Not, [a]).unwrap();
        b.add_gate_by_names("g", GateKind::Not, vec!["ghost".to_string()]).unwrap();
        assert_eq!(b.finish().unwrap_err(), undefined("ghost", "g"));
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
    fn a_forward_flip_flop_id_resolves() {
        let mut b = NetlistBuilder::new("fwd_id");
        let a = b.add_input("a");
        // `g` reads the flip-flop `q`, which is added after it.
        let g = b.add_gate("g", GateKind::And, [a, GateId(2)]).unwrap();
        let q = b.add_gate("q", GateKind::Dff, [g]).unwrap();
        b.mark_output(g);
        let nl = b.finish().unwrap();
        assert_eq!((nl.fanin(g), nl.fanout(q)), (&[a, q][..], &[g][..]));
    }

    fn undefined(name: &str, referenced_by: &str) -> NetlistError {
        NetlistError::UndefinedSignal { name: name.into(), referenced_by: referenced_by.into() }
    }

    #[test]
    fn an_out_of_range_fanin_id_is_rejected() {
        let mut b = NetlistBuilder::new("bad_fanin");
        let a = b.add_input("a");
        b.add_gate("g", GateKind::And, [a, GateId(2)]).unwrap();
        assert_eq!(b.finish().unwrap_err(), undefined("n2", "g"));
    }

    #[test]
    fn an_out_of_range_output_id_is_rejected() {
        let mut b = NetlistBuilder::new("bad_output");
        b.add_input("a");
        b.mark_output(GateId(1));
        assert_eq!(b.finish().unwrap_err(), undefined("n1", "OUTPUT"));
    }

    #[test]
    fn a_rejected_gate_leaves_no_fanins_behind() {
        let mut b = NetlistBuilder::new("rollback");
        let a = b.add_input("a");
        b.add_gate("g", GateKind::Not, [a, a]).unwrap_err();
        let g = b.add_gate("g", GateKind::Not, [a]).unwrap();
        assert_eq!(b.finish().unwrap().fanout(a), &[g]);
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
