//! Gate-level netlist substrate for the DIAC reproduction.
//!
//! DIAC's tree generator consumes a synthesized gate-level design.  This crate
//! provides everything needed to obtain and analyse such designs without any
//! commercial tooling:
//!
//! * [`Netlist`] — the in-memory gate/net data model with validation,
//!   fan-out computation and name lookup; every gate name lives in one
//!   arena per netlist ([`Netlist::name_of`]), hashed once into the index
//!   [`Netlist::find`] reads.
//! * [`parser`] — front-ends for the ISCAS-89 `.bench` format and a BLIF
//!   subset, which is how the original benchmark suites are distributed.
//! * [`levelize`] — combinational levelization and cycle detection, and
//!   the levels of a buffered design derived from its original's
//!   ([`levelize::Levels::with_buffers`]).
//! * [`sim`] — scalar two-valued simulation (dense input slots resolved at
//!   construction).
//! * [`bitsim`] — 64-lane bit-parallel simulation: a netlist compiled once
//!   into a schedule of level-ordered runs of same-kind, same-arity gates,
//!   settling one `u64` (64 input patterns) per signal in word buffers the
//!   caller owns.
//! * [`equiv`] — seeded random-vector functional equivalence checking of
//!   two compiled designs (used to verify DIAC-replaced designs against
//!   their originals).
//! * [`synth`] — a deterministic synthetic benchmark generator used to stand
//!   in for circuits whose original netlists are not redistributable.
//! * [`embedded`] — small ISCAS-89 circuits embedded as `.bench` text.
//! * [`suite`] — the registry of the 24 evaluation circuits from Fig. 5 of
//!   the paper (ISCAS-89, ITC-99, MCNC) with their published gate counts.
//!
//! # Example
//!
//! ```
//! use netlist::parser::parse_bench;
//! use netlist::levelize::levelize;
//!
//! let nl = parse_bench("s27", netlist::embedded::S27_BENCH)?;
//! assert_eq!(nl.combinational_count(), 10);
//! let levels = levelize(&nl)?;
//! assert!(levels.depth() >= 3);
//! # Ok::<(), netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitsim;
pub mod embedded;
pub mod equiv;
mod error;
pub mod gate;
pub mod levelize;
mod names;
#[allow(clippy::module_inception)]
mod netlist;
pub mod parser;
pub mod sim;
pub mod suite;
pub mod synth;

pub use bitsim::BitSim;
pub use equiv::{check_equivalence, Counterexample, EquivConfig, EquivReport};
pub use error::NetlistError;
pub use gate::{FaninSpan, Gate, GateId, GateKind};
pub use netlist::{Netlist, NetlistBuilder};
pub use suite::{BenchmarkSuite, CircuitSpec, SuiteKind};
