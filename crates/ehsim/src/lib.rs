//! Energy-harvesting substrate for the DIAC reproduction.
//!
//! The paper evaluates its designs "in a power-scarce environment" by
//! simulating an intermittent power source as "a predetermined sequence of
//! voltage levels that cyclically repeat", accumulated in a virtual energy
//! source (a 2 mF capacitor at 5 V storing at most 25 mJ).  This crate is
//! that substrate:
//!
//! * [`capacitor`] — the virtual battery: charge integration, discharge
//!   accounting, and voltage/energy conversions.  Its per-tick physics is
//!   the [`capacitor::EnergyCell`] view, which the batch executor's lanes
//!   share with the scalar type.
//! * [`source`] — ambient harvest sources: constant, RFID-burst, solar-like,
//!   two-state Markov, and piecewise schedules (behind a monotone segment
//!   cursor).  Each answers per tick ([`source::HarvestSource::power_at`])
//!   or per window ([`source::HarvestSource::segment`]: the sample plus the
//!   run of ticks that repeat it bit for bit).
//! * [`crng`] — the counter-indexed random streams behind the stochastic
//!   sources: every draw is a pure function of `(seed, index)`, so a
//!   segment's remaining queries can be skipped in O(1) with no replay
//!   bookkeeping.
//! * [`pmu`] — the six power-management thresholds of the paper's FSM
//!   (Th_Se, Th_Cp, Th_Tr, Th_SafeZone, Th_Bk, Th_Off) and their fixed-point
//!   form, which the simulation FSM compares the stored energy against.
//! * [`trace`] — time-series recording of the simulation for the Fig. 4
//!   reproduction.
//! * [`schedule`] — charging-rate schedules, including the exact piecewise
//!   schedule that recreates the six annotated scenarios of Fig. 4.
//!
//! # Example
//!
//! ```
//! use ehsim::capacitor::Capacitor;
//! use ehsim::pmu::Thresholds;
//! use tech45::units::{Energy, Power, Seconds};
//!
//! let mut cap = Capacitor::paper_default();
//! cap.harvest(Power::from_milliwatts(1.0), Seconds::new(10.0));
//! assert!(cap.energy() > Energy::ZERO);
//!
//! // Above the safe zone: no backup pending, on the FSM's fixed-point grid.
//! let thresholds = Thresholds::paper_default().fx();
//! assert!(cap.energy().to_fx() >= thresholds.safe_zone);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacitor;
pub mod crng;
pub mod pmu;
pub mod schedule;
pub mod source;
pub mod trace;

pub use capacitor::{Capacitor, EnergyCell};
pub use crng::CounterRng;
pub use pmu::Thresholds;
pub use schedule::Schedule;
pub use source::{HarvestSource, MarkovSource, PiecewiseSource, RfidSource, Segment, SolarSource};
pub use trace::{NullSink, TraceRecorder, TraceSample, TraceSink};
