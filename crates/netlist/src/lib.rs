//! Gate-level netlist substrate for the DIAC reproduction.
//!
//! DIAC's tree generator consumes a synthesized gate-level design.  This crate
//! provides everything needed to obtain and analyse such designs without any
//! commercial tooling:
//!
//! * [`Netlist`] — the in-memory gate/net data model with validation,
//!   fan-out computation and name lookup.
//! * [`parser`] — front-ends for the ISCAS-89 `.bench` format and a BLIF
//!   subset, which is how the original benchmark suites are distributed.
//! * [`levelize`] — combinational levelization and cycle detection.
//! * [`sim`] — scalar two-valued simulation (dense input slots resolved at
//!   construction).
//! * [`bitsim`] — 64-lane bit-parallel simulation: one `u64` per signal
//!   evaluates 64 input patterns per pass over a schedule of level-ordered
//!   runs of same-kind, same-arity gates.
//! * [`equiv`] — seeded random-vector functional equivalence checking
//!   (used to verify DIAC-replaced designs against their originals).
//! * [`stats`] — per-netlist summary statistics (gate histogram, depth,
//!   average fan-in/out) that feed DIAC's feature dictionaries.
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
#[allow(clippy::module_inception)]
mod netlist;
pub mod parser;
pub mod sim;
pub mod stats;
pub mod suite;
pub mod synth;
pub mod verilog;

pub use bitsim::{BitCycleResult, BitSim};
pub use equiv::{check_equivalence, Counterexample, EquivConfig, EquivReport};
pub use error::NetlistError;
pub use gate::{FaninSpan, Gate, GateId, GateKind};
pub use netlist::{Netlist, NetlistBuilder};
pub use stats::NetlistStats;
pub use suite::{BenchmarkSuite, CircuitSpec, SuiteKind};
