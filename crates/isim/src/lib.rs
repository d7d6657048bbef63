//! Intermittent runtime simulator for the DIAC reproduction.
//!
//! This crate executes Algorithm 1 of the paper — the finite-state machine of
//! an intermittent-aware IoT node with the states Sleep, Sense, Compute,
//! Transmit and Backup — against the energy-harvesting substrate of
//! [`ehsim`]:
//!
//! * [`state`] — the node states and the `Reg_Flag` register ([`reg_flag`]).
//! * [`fsm`] — the state machine itself, with the paper's thresholds,
//!   per-operation energies (2/4/9 mJ ± 10 %), and the safe-zone rule.
//! * [`interrupts`] — the timer interrupt (sampling rate, counted in ticks
//!   of the run's `dt`) and the power interrupt raised by the
//!   power-management unit.
//! * [`backup`] — the backup/restore unit pricing NVM accesses through the
//!   [`tech45`] array model, sized either from a DIAC replacement summary or
//!   from the architectural state of a baseline design.
//! * [`executor`] — drives the FSM against a harvest source, records the
//!   Fig. 4 trace, and accumulates [`stats::RunStats`].
//! * [`batch`] — the batch executor: a job list whose jobs each run to
//!   completion, one lane per job holding its [`fsm::NodeFsm`], stored
//!   energy, source and accumulators, burning provably quiescent ticks in
//!   closed form, bit-identical to the scalar executor job for job.
//! * [`stats`] — run statistics and their conversion into the
//!   [`diac_core::IntermittencyProfile`] consumed by the PDP model.
//!
//! # Example
//!
//! ```
//! use isim::executor::IntermittentExecutor;
//! use isim::fsm::FsmConfig;
//! use ehsim::schedule::Schedule;
//! use tech45::units::Seconds;
//!
//! let mut exec = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::fig4());
//! let stats = exec.run(Seconds::new(4000.0), Seconds::new(0.05));
//! assert!(stats.samples_sensed > 0);
//! assert!(stats.backups >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod batch;
pub mod executor;
pub mod fsm;
pub mod interrupts;
pub mod reg_flag;
pub mod state;
pub mod stats;

pub use backup::BackupUnit;
pub use batch::{BatchExecutor, BatchJob};
pub use executor::IntermittentExecutor;
pub use fsm::{FsmConfig, NodeFsm};
pub use reg_flag::RegFlag;
pub use state::NodeState;
pub use stats::RunStats;
