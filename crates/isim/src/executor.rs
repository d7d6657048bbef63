//! The intermittent executor: FSM + capacitor + harvest source.
//!
//! The executor integrates the harvest source into the storage capacitor,
//! advances the node FSM, measures how much energy the node actually drew,
//! and (optionally) records the Fig. 4 trace.  It is deterministic: the same
//! configuration, schedule and seed always produce exactly the same run.

use ehsim::capacitor::{quantise, Capacitor};
use ehsim::schedule::Schedule;
use ehsim::source::HarvestSource;
use ehsim::trace::{NullSink, TraceRecorder, TraceSample, TraceSink};
use tech45::units::{Energy, EnergyFx, Power, Seconds};

use crate::fsm::{FsmConfig, NodeFsm, TickConstants};
use crate::stats::RunStats;

/// Number of `dt` ticks a span of `duration` takes — the one step-count
/// formula shared by the scalar executor and the batch engine, for run
/// lifetimes ([`crate::batch::BatchJob::steps`]) and timer periods
/// (`fsm::TickConstants`) alike, so neither can drift between them.  A
/// campaign sizes its solar sun tables by it too.
pub fn step_count(duration: Seconds, dt: Seconds) -> u64 {
    (duration.as_seconds() / dt.as_seconds()).ceil() as u64
}

/// Drives one node FSM against one harvest source.
#[derive(Debug)]
pub struct IntermittentExecutor<S = ehsim::source::PiecewiseSource> {
    fsm: NodeFsm,
    capacitor: Capacitor,
    source: S,
}

impl IntermittentExecutor<ehsim::source::PiecewiseSource> {
    /// Creates an executor from an FSM configuration and a charging-rate
    /// schedule (the usual entry point for the paper's figures).
    #[must_use]
    pub fn new(config: FsmConfig, schedule: Schedule) -> Self {
        Self::with_source(config, schedule.to_source())
    }
}

impl<S: HarvestSource> IntermittentExecutor<S> {
    /// Creates an executor with an arbitrary harvest source.
    #[must_use]
    pub fn with_source(config: FsmConfig, source: S) -> Self {
        Self { fsm: NodeFsm::new(config), capacitor: Capacitor::paper_default(), source }
    }

    /// Overrides the initial stored energy of the paper's 2 mF / 25 mJ
    /// capacitor (the default is an empty one), clamped to its capacity.
    #[must_use]
    pub fn with_initial_energy(mut self, energy: Energy) -> Self {
        self.capacitor = self.capacitor.with_energy(energy);
        self
    }

    /// The node FSM (for inspecting its state mid-run).
    #[must_use]
    pub fn fsm(&self) -> &NodeFsm {
        &self.fsm
    }

    /// The storage capacitor.
    #[must_use]
    pub fn capacitor(&self) -> &Capacitor {
        &self.capacitor
    }

    /// Runs the simulation for `duration` in steps of `dt` and returns the
    /// accumulated statistics.
    ///
    /// The tick loop runs against the no-op [`NullSink`], so an untraced run
    /// performs no heap allocation after setup (asserted by the
    /// counting-allocator integration test).
    pub fn run(&mut self, duration: Seconds, dt: Seconds) -> RunStats {
        self.run_with_sink(duration, dt, &mut NullSink)
    }

    /// Runs the simulation while recording a trace (the Fig. 4 data).
    pub fn run_with_trace(&mut self, duration: Seconds, dt: Seconds) -> (RunStats, TraceRecorder) {
        let mut recorder = TraceRecorder::new();
        let stats = self.run_with_sink(duration, dt, &mut recorder);
        (stats, recorder)
    }

    /// Runs the simulation against an arbitrary [`TraceSink`].  The loop is
    /// monomorphised per sink type, so no-op sinks cost nothing.
    pub fn run_with_sink<K: TraceSink>(
        &mut self,
        duration: Seconds,
        dt: Seconds,
        sink: &mut K,
    ) -> RunStats {
        assert!(dt.value() > 0.0, "time step must be positive");
        let steps = step_count(duration, dt);
        let k = TickConstants::new(self.fsm.config(), dt);
        // Exact fixed-point accumulators: the offered energy is quantised
        // once per tick (at the capacitor boundary) and everything after that
        // is integer arithmetic, so the totals have no float-ordering
        // artifacts and `consumed` needs no clamp — it is exactly the energy
        // the FSM drained this tick.
        let mut harvested_total = EnergyFx::ZERO;
        let mut clipped_total = EnergyFx::ZERO;
        let mut consumed_total = EnergyFx::ZERO;
        // One-entry quantisation cache: sources repeat the same sample for
        // whole regions (bursts, dwells, plateaus, nights), and the
        // quantised offer is a pure function of the sample bits, so a
        // repeat costs one f64 compare instead of the fixed-point
        // conversion.
        let mut last_power = Power::ZERO;
        let mut offered = EnergyFx::ZERO;
        for i in 0..steps {
            let now = Seconds::new(i as f64 * dt.as_seconds());
            let power = self.source.power_at(now);
            let before = self.capacitor.energy_fx();
            // `(ZERO, ZERO)` is a valid seed pair: a zero sample quantises
            // to a zero offer.
            if power != last_power {
                offered = quantise(power, dt);
                last_power = power;
            }
            let banked = self.capacitor.cell().harvest_fx(offered);
            harvested_total += banked;
            clipped_total += offered - banked;
            self.fsm.step_with(&mut self.capacitor.cell(), i, dt, k);
            consumed_total += before + banked - self.capacitor.energy_fx();
            sink.record(TraceSample {
                time: now,
                stored: self.capacitor.energy(),
                harvest: power,
                state: self.fsm.state().label(),
            });
        }
        let stats = self.fsm.stats_mut();
        stats.finalize(dt, harvested_total, clipped_total, consumed_total);
        stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NodeState;
    use ehsim::source::ConstantSource;
    use tech45::units::Power;

    #[test]
    fn fig4_schedule_exercises_every_scenario() {
        let mut exec = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::fig4());
        let (stats, trace) = exec.run_with_trace(Seconds::new(4000.0), Seconds::new(0.05));
        // (1) the capacitor reaches (nearly) full capacity at some point.
        assert!(trace.max_stored().unwrap().as_millijoules() > 24.0, "{stats}");
        // (3) at least one backup is taken.
        assert!(stats.backups >= 1, "{stats}");
        // (4) at least one complete power loss and a later restore.
        assert!(stats.off_events >= 1, "{stats}");
        assert!(stats.restores >= 1, "{stats}");
        // (5) the safe zone is visited and recovered from without a backup.
        assert!(stats.safe_zone_entries >= 3, "{stats}");
        assert!(stats.safe_zone_recoveries >= 1, "{stats}");
        // The node makes forward progress overall.
        assert!(stats.samples_sensed >= 1, "{stats}");
        assert!(stats.computations_completed >= 1, "{stats}");
    }

    #[test]
    fn the_sink_choice_does_not_change_the_statistics() {
        let mut untraced = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::fig4());
        let stats = untraced.run(Seconds::new(1500.0), Seconds::new(0.1));
        let mut traced = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::fig4());
        let (traced_stats, trace) = traced.run_with_trace(Seconds::new(1500.0), Seconds::new(0.1));
        assert_eq!(stats, traced_stats);
        assert_eq!(trace.len(), 15_000);
        let mut null = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::fig4());
        let mut sink = ehsim::trace::NullSink;
        assert_eq!(null.run_with_sink(Seconds::new(1500.0), Seconds::new(0.1), &mut sink), stats);
    }

    #[test]
    fn with_initial_energy_keeps_the_configured_capacitor() {
        let paper = Capacitor::paper_default();
        let exec = IntermittentExecutor::with_source(
            FsmConfig::paper_default(),
            ConstantSource::new(Power::ZERO),
        )
        .with_initial_energy(Energy::from_millijoules(1.0));
        assert_eq!(exec.capacitor().max_energy(), paper.max_energy());
        assert!((exec.capacitor().energy().as_millijoules() - 1.0).abs() < 1e-12);
        let exec = IntermittentExecutor::with_source(
            FsmConfig::paper_default(),
            ConstantSource::new(Power::ZERO),
        )
        .with_initial_energy(Energy::from_millijoules(99.0));
        assert_eq!(
            exec.capacitor().energy_fx(),
            paper.max_energy_fx(),
            "clamping against the default element"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut exec = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::fig4());
            exec.run(Seconds::new(1000.0), Seconds::new(0.1))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn plentiful_power_means_no_backups() {
        let source = ConstantSource::new(Power::from_milliwatts(1.0));
        let mut exec = IntermittentExecutor::with_source(FsmConfig::paper_default(), source)
            .with_initial_energy(Energy::from_millijoules(25.0));
        let stats = exec.run(Seconds::new(2000.0), Seconds::new(0.1));
        assert_eq!(stats.backups, 0, "{stats}");
        assert_eq!(stats.off_events, 0, "{stats}");
        assert!(stats.transmissions_completed >= 1, "{stats}");
    }

    #[test]
    fn no_power_at_all_ends_in_off() {
        let source = ConstantSource::new(Power::ZERO);
        let mut exec = IntermittentExecutor::with_source(FsmConfig::paper_default(), source)
            .with_initial_energy(Energy::from_millijoules(10.0));
        let stats = exec.run(Seconds::new(500_000.0), Seconds::new(1.0));
        assert!(stats.off_events >= 1, "{stats}");
        assert_eq!(exec.fsm().state(), NodeState::Off);
        assert!(exec.capacitor().energy() < Energy::from_millijoules(2.5));
    }

    #[test]
    fn energy_bookkeeping_is_consistent() {
        let mut exec = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::scarce());
        let stats = exec.run(Seconds::new(2000.0), Seconds::new(0.1));
        // consumed = harvested - still stored (within numerical tolerance).
        let expected_consumed =
            stats.energy_harvested.as_millijoules() - exec.capacitor().energy().as_millijoules();
        assert!(
            (stats.energy_consumed.as_millijoules() - expected_consumed).abs() < 0.1,
            "consumed {} vs expected {}",
            stats.energy_consumed.as_millijoules(),
            expected_consumed
        );
    }

    #[test]
    fn stats_convert_to_a_valid_profile() {
        let mut exec = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::scarce());
        let stats = exec.run(Seconds::new(4000.0), Seconds::new(0.1));
        let profile = stats.intermittency_profile();
        assert!(profile.is_valid(), "{profile}");
    }

    #[test]
    #[should_panic(expected = "time step")]
    fn zero_time_step_is_rejected() {
        let mut exec = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::fig4());
        let _ = exec.run(Seconds::new(10.0), Seconds::ZERO);
    }
}
