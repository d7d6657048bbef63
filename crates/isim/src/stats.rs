//! Run statistics of an intermittent execution.
//!
//! Since PR 10 ("Exact integer accumulators", DESIGN.md) time is tracked as
//! *tick counters* and energy as fixed-point [`EnergyFx`] attojoules: both
//! are exact integers, so a `k`-tick quiescent stretch folds into one
//! `count += k` / `e += k · net` multiply-add with no floating-point
//! ordering artifacts.  The run's constant `dt` is recorded once by
//! `RunStats::finalize` and seconds are derived on read.

use std::fmt;

use diac_core::pdp::IntermittencyProfile;
use tech45::units::{EnergyFx, Power, Seconds};

use crate::state::NodeState;

/// Counters and aggregates collected over one simulated run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Completed sense operations.
    pub samples_sensed: u64,
    /// Completed compute operations.
    pub computations_completed: u64,
    /// Completed transmit operations.
    pub transmissions_completed: u64,
    /// NVM backups taken.
    pub backups: u64,
    /// Restores from NVM after complete power losses.
    pub restores: u64,
    /// Complete power losses (energy below `Th_Off`).
    pub off_events: u64,
    /// Times the stored energy dipped below `Th_SafeZone` while active.
    pub safe_zone_entries: u64,
    /// Safe-zone dips that recovered without needing a backup.
    pub safe_zone_recoveries: u64,
    /// Operations whose progress was lost and had to be re-executed.
    pub reexecutions: u64,
    /// Total energy banked into the capacitor.
    pub energy_harvested: EnergyFx,
    /// Harvest offered while the capacitor was full and therefore lost —
    /// the truly wasted ambient energy.
    pub energy_clipped: EnergyFx,
    /// Total energy drawn from the capacitor.
    pub energy_consumed: EnergyFx,
    /// Ticks spent in each node state.
    ticks_in_state: [u64; 6],
    /// Total simulated ticks.
    total_ticks: u64,
    /// The run's constant time step, recorded by `Self::finalize`.  Zero
    /// until then, so time-based views of an unfinalized run read as zero.
    dt: Seconds,
}

impl RunStats {
    /// Time spent in one state (`ticks × dt`; zero before `Self::finalize`).
    #[must_use]
    pub fn time_in(&self, state: NodeState) -> Seconds {
        self.dt * self.ticks_in_state[state_index(state)] as f64
    }

    /// Ticks spent in one state.
    #[must_use]
    pub fn ticks_in(&self, state: NodeState) -> u64 {
        self.ticks_in_state[state_index(state)]
    }

    /// Total simulated time (`ticks × dt`; zero before `Self::finalize`).
    #[must_use]
    pub fn total_time(&self) -> Seconds {
        self.dt * self.total_ticks as f64
    }

    /// Total simulated ticks.
    #[must_use]
    pub const fn total_ticks(&self) -> u64 {
        self.total_ticks
    }

    /// The run's time step as recorded by `Self::finalize`.
    #[must_use]
    pub const fn dt(&self) -> Seconds {
        self.dt
    }

    /// Counts one tick spent in `state`.
    pub(crate) fn record_tick(&mut self, state: NodeState) {
        self.ticks_in_state[state_index(state)] += 1;
        self.total_ticks += 1;
    }

    /// Mutable access to the counter behind [`Self::ticks_in`].  Lets the
    /// batch executor hoist the per-tick accounting of a fast-forwarded
    /// window (whose state is constant) into a local and fold `k` ticks into
    /// one `count += k` — exact, because the counter is an integer.
    pub(crate) fn tick_slot_mut(&mut self, state: NodeState) -> &mut u64 {
        &mut self.ticks_in_state[state_index(state)]
    }

    /// Mutable access to the total-tick counter, for the same hoisting.
    pub(crate) fn total_ticks_mut(&mut self) -> &mut u64 {
        &mut self.total_ticks
    }

    /// The shared end-of-run epilogue: records the run's constant `dt` (which
    /// turns the tick counters into times) and the three energy totals.  Both
    /// the scalar executor and the batch executor's lanes end runs through
    /// here, so the conversion-at-finish logic exists exactly once.
    pub(crate) fn finalize(
        &mut self,
        dt: Seconds,
        harvested: EnergyFx,
        clipped: EnergyFx,
        consumed: EnergyFx,
    ) {
        self.dt = dt;
        self.energy_harvested = harvested;
        self.energy_clipped = clipped;
        self.energy_consumed = consumed;
    }

    /// Fraction of the simulated time the node was actively sensing,
    /// computing, or transmitting.
    #[must_use]
    pub fn active_fraction(&self) -> f64 {
        if self.total_ticks == 0 {
            return 0.0;
        }
        let active = self.ticks_in(NodeState::Sense)
            + self.ticks_in(NodeState::Compute)
            + self.ticks_in(NodeState::Transmit);
        active as f64 / self.total_ticks as f64
    }

    /// Forward progress: the number of fully completed
    /// sense-compute(-transmit) pipelines, bounded by the slowest stage.
    #[must_use]
    pub fn completed_tasks(&self) -> u64 {
        self.samples_sensed.min(self.computations_completed)
    }

    /// Average harvested power over the run.
    #[must_use]
    pub fn average_harvest_power(&self) -> Power {
        let total = self.total_time();
        if total.is_non_positive() {
            return Power::ZERO;
        }
        self.energy_harvested.to_energy() / total
    }

    /// Converts the observed event counts into the analytic intermittency
    /// profile consumed by the PDP model of `diac-core`.
    #[must_use]
    pub fn intermittency_profile(&self) -> IntermittencyProfile {
        let emergencies = self.safe_zone_entries.max(self.backups);
        IntermittencyProfile::from_counts(
            emergencies,
            self.safe_zone_recoveries,
            self.off_events,
            self.energy_consumed.to_energy(),
            self.average_harvest_power().max(Power::from_nanowatts(1.0)),
        )
    }
}

fn state_index(state: NodeState) -> usize {
    // `NodeState::ALL` lists the variants in declaration order, so the
    // discriminant *is* the position (pinned by `all_matches_discriminants`).
    state as usize
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sensed {}, computed {}, transmitted {}, backups {}, restores {}, off {}, safe-zone {} ({} recovered)",
            self.samples_sensed,
            self.computations_completed,
            self.transmissions_completed,
            self.backups,
            self.restores,
            self.off_events,
            self.safe_zone_entries,
            self.safe_zone_recoveries
        )?;
        write!(
            f,
            "harvested {:.1} mJ (clipped {:.1}), consumed {:.1} mJ, active {:.1} % of {:.0} s",
            self.energy_harvested.as_millijoules(),
            self.energy_clipped.as_millijoules(),
            self.energy_consumed.as_millijoules(),
            self.active_fraction() * 100.0,
            self.total_time().as_seconds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tech45::units::Energy;

    #[test]
    fn all_matches_discriminants() {
        for (i, s) in NodeState::ALL.into_iter().enumerate() {
            assert_eq!(state_index(s), i, "ALL order diverged from declaration order");
        }
    }

    #[test]
    fn time_accounting_adds_up() {
        let mut stats = RunStats::default();
        for _ in 0..10 {
            stats.record_tick(NodeState::Sleep);
        }
        for _ in 0..10 {
            stats.record_tick(NodeState::Compute);
        }
        assert_eq!(stats.total_ticks(), 20);
        assert!((stats.active_fraction() - 0.5).abs() < 1e-12);
        // Times are zero until the run is finalized with its dt...
        assert_eq!(stats.total_time().as_seconds(), 0.0);
        stats.finalize(Seconds::new(0.5), EnergyFx::ZERO, EnergyFx::ZERO, EnergyFx::ZERO);
        // ...and ticks × dt afterwards.
        assert!((stats.total_time().as_seconds() - 10.0).abs() < 1e-12);
        assert!((stats.time_in(NodeState::Compute).as_seconds() - 5.0).abs() < 1e-12);
        assert!((stats.active_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let stats = RunStats::default();
        assert_eq!(stats.active_fraction(), 0.0);
        assert_eq!(stats.average_harvest_power(), Power::ZERO);
        assert_eq!(stats.completed_tasks(), 0);
    }

    #[test]
    fn completed_tasks_is_bounded_by_the_slowest_stage() {
        let stats =
            RunStats { samples_sensed: 10, computations_completed: 7, ..RunStats::default() };
        assert_eq!(stats.completed_tasks(), 7);
    }

    #[test]
    fn profile_conversion_uses_the_observed_ratios() {
        let mut stats = RunStats {
            safe_zone_entries: 10,
            safe_zone_recoveries: 4,
            backups: 6,
            off_events: 3,
            ..RunStats::default()
        };
        for _ in 0..1000 {
            stats.record_tick(NodeState::Sleep);
        }
        stats.finalize(
            Seconds::new(1.0),
            Energy::from_millijoules(130.0).to_fx(),
            EnergyFx::ZERO,
            Energy::from_millijoules(120.0).to_fx(),
        );
        let profile = stats.intermittency_profile();
        assert!(profile.is_valid());
        assert!((profile.safe_zone_recovery_fraction - 0.4).abs() < 1e-9);
        assert!((profile.power_loss_fraction - 0.5).abs() < 1e-9);
        assert!((profile.usable_energy_per_cycle.as_millijoules() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn display_summarises_the_run() {
        let stats = RunStats { samples_sensed: 3, ..RunStats::default() };
        let text = stats.to_string();
        assert!(text.contains("sensed 3"));
        assert!(text.contains("harvested"));
    }
}
