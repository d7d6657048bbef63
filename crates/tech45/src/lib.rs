//! Surrogate 45 nm technology models for the DIAC reproduction.
//!
//! The DIAC paper characterises every operand of a design with per-gate delay,
//! dynamic power, and static power obtained from HSPICE on the NCSU 45 nm PDK,
//! and it prices non-volatile backups with a modified CACTI model.  Neither of
//! those commercial/closed tools is available here, so this crate provides a
//! self-contained surrogate:
//!
//! * [`units`] — strongly typed physical quantities (energy, power, time,
//!   voltage, capacitance) so that joules are never accidentally added to
//!   seconds.
//! * [`cells`] — one constant 45 nm standard-cell table with per-cell delay,
//!   dynamic power and leakage figures in the range published for 45 nm
//!   bulk CMOS, read through [`CellKind::cell`].
//! * [`nvm`] — per-bit write/read energy and latency of MRAM, ReRAM, FeRAM
//!   and PCM cells.
//! * [`mod@array`] — a mini-CACTI analytical model of NVM backup arrays
//!   (peripheral overheads scale with the square root of the bit count).
//! * [`energy_model`] — the paper's own aggregation formulas: dynamic energy
//!   `≈ 2 · Σ delay_i · P_dyn,i` and static energy `≈ CDP · Σ P_stat,i`,
//!   over that table at one switching activity.
//!
//! # Quick example
//!
//! ```
//! use tech45::cells::CellKind;
//! use tech45::nvm::NvmTechnology;
//! use tech45::array::NvmArray;
//!
//! let nand = CellKind::Nand2.cell();
//! assert!(nand.delay.as_seconds() > 0.0);
//!
//! let array = NvmArray::new(NvmTechnology::Mram, 1024, 32);
//! let write = array.write_word_energy();
//! let read = array.read_word_energy();
//! assert!(write > read);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod cells;
pub mod constants;
pub mod energy_model;
pub mod nvm;
pub mod units;

pub use array::NvmArray;
pub use cells::{Cell, CellKind};
pub use energy_model::EnergyEstimate;
pub use nvm::{NvmCell, NvmTechnology};
pub use units::{Capacitance, Energy, EnergyFx, Power, Seconds, Voltage};
