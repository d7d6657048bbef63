//! Charging-rate schedules.
//!
//! A [`Schedule`] is a named, documented piecewise power profile.  The most
//! important one is [`Schedule::fig4`], engineered so that a node running the
//! paper's FSM visits the six scenarios annotated in Fig. 4:
//!
//! 1. the charging rate exceeds demand and the capacitor saturates at E_MAX;
//! 2. the rate is insufficient and the node waits in Sleep until `Th_Cp`;
//! 3. a sudden decline pushes the energy below `Th_Bk` and registers are
//!    backed up to NVM;
//! 4. the rate stays low, the energy falls below `Th_Off` and the node shuts
//!    down completely, later restoring from NVM;
//! 5. the node dips into the safe zone repeatedly, recovering each time
//!    without a single NVM write;
//! 6. the source is interrupted, a backup is taken, but charging resumes
//!    before a full shutdown so no restore is needed.

use std::sync::Arc;

use tech45::units::{Power, Seconds};

use crate::source::PiecewiseSource;

/// A named charging-rate schedule.
///
/// The segment table is immutable and shared: cloning a schedule, and
/// building its [`PiecewiseSource`], is one reference-count increment.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    name: &'static str,
    segments: Arc<[(Seconds, Power)]>,
    duration: Seconds,
    cyclic: bool,
}

impl Schedule {
    /// The Fig. 4 schedule: ~4000 s visiting all six annotated scenarios.
    #[must_use]
    pub fn fig4() -> Self {
        let mw = Power::from_milliwatts;
        let s = Seconds::new;
        // (segment start, charging rate)
        let segments = [
            // (1) plentiful harvest: saturate at E_MAX, operate at peak.
            // The node's worst-case demand is one full sense/compute/transmit
            // pipeline (15 mJ) per 30 s sampling interval, i.e. 0.5 mW, so
            // anything above that occasionally tops the capacitor off.
            (s(0.0), mw(0.650)),
            // (2) starvation: barely any harvest, node waits in sleep.
            (s(600.0), mw(0.012)),
            // modest recovery so the node can work a little...
            (s(1100.0), mw(0.060)),
            // (3) sudden decline below what even sleep needs: backup.
            (s(1500.0), mw(0.004)),
            // (4) essentially nothing: drop below Th_Off, full shutdown.
            (s(1800.0), mw(0.000)),
            // recovery and normal operation again (restore from NVM).
            (s(2200.0), mw(0.120)),
            // (5) oscillation around the safe zone: three shallow dips.
            (s(2600.0), mw(0.020)),
            (s(2700.0), mw(0.090)),
            (s(2800.0), mw(0.020)),
            (s(2900.0), mw(0.090)),
            (s(3000.0), mw(0.020)),
            (s(3100.0), mw(0.090)),
            // (6) interruption long enough to trigger a backup, but charging
            // resumes before the node reaches Th_Off.
            (s(3400.0), mw(0.002)),
            (s(3700.0), mw(0.110)),
        ];
        Self { name: "fig4", segments: segments.into(), duration: s(4000.0), cyclic: false }
    }

    /// A steady, generous supply — the "first type" of batteryless system
    /// that can finish everything on a full capacitor.
    #[must_use]
    pub fn plentiful() -> Self {
        Self {
            name: "plentiful",
            segments: [(Seconds::new(0.0), Power::from_milliwatts(0.25))].into(),
            duration: Seconds::new(1000.0),
            cyclic: true,
        }
    }

    /// A harsh duty-cycled supply that forces frequent emergencies.
    #[must_use]
    pub fn scarce() -> Self {
        let mw = Power::from_milliwatts;
        let s = Seconds::new;
        Self {
            name: "scarce",
            segments: [
                (s(0.0), mw(0.080)),
                (s(60.0), mw(0.000)),
                (s(140.0), mw(0.060)),
                (s(200.0), mw(0.004)),
            ]
            .into(),
            duration: s(260.0),
            cyclic: true,
        }
    }

    /// Schedule name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total (or cycle) duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.duration
    }

    /// Whether the schedule repeats every [`Self::duration`] (otherwise
    /// the last segment holds forever).
    #[must_use]
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// The underlying `(start, power)` segments.
    #[must_use]
    pub fn segments(&self) -> &[(Seconds, Power)] {
        &self.segments
    }

    /// Converts the schedule into a [`PiecewiseSource`] the simulator can
    /// sample.  The source shares the schedule's segment table.
    #[must_use]
    pub fn to_source(&self) -> PiecewiseSource {
        PiecewiseSource::shared(Arc::clone(&self.segments), self.cyclic, self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::HarvestSource;

    #[test]
    fn fig4_schedule_spans_4000_seconds() {
        let sched = Schedule::fig4();
        assert_eq!(sched.name(), "fig4");
        assert!((sched.duration().as_seconds() - 4000.0).abs() < 1e-9);
        assert!(sched.segments().len() >= 10, "needs enough phases for six scenarios");
    }

    #[test]
    fn fig4_has_a_plentiful_phase_and_a_dead_phase() {
        let mut src = Schedule::fig4().to_source();
        assert!(src.power_at(Seconds::new(100.0)).as_milliwatts() > 0.1);
        assert_eq!(src.power_at(Seconds::new(2000.0)), Power::ZERO);
        // Scenario 6: low but non-zero, then recovery.
        assert!(src.power_at(Seconds::new(3500.0)).as_milliwatts() < 0.01);
        assert!(src.power_at(Seconds::new(3800.0)).as_milliwatts() > 0.05);
    }

    #[test]
    fn scarce_schedule_is_cyclic() {
        let sched = Schedule::scarce();
        let mut src = sched.to_source();
        let first = src.power_at(Seconds::new(10.0));
        let next_cycle = src.power_at(Seconds::new(10.0 + sched.duration().as_seconds()));
        assert_eq!(first, next_cycle);
    }

    #[test]
    fn plentiful_schedule_always_delivers_power() {
        let mut src = Schedule::plentiful().to_source();
        for i in 0..50 {
            assert!(src.power_at(Seconds::new(f64::from(i) * 37.0)).as_milliwatts() > 0.1);
        }
    }
}
