//! Property tests of the FSM/executor layer: internal consistency of
//! [`RunStats`] across random harvest schedules and seeds, agreement
//! between the traced and untraced execution paths, and the witness that a
//! run which never read its backup unit is the same run under any unit.

use ehsim::capacitor::Capacitor;
use ehsim::pmu::Thresholds;
use ehsim::schedule::Schedule;
use ehsim::source::{ConstantSource, HarvestSource, PiecewiseSource};
use isim::backup::BackupUnit;
use isim::batch::{BatchExecutor, BatchJob, BatchTelemetry};
use isim::executor::IntermittentExecutor;
use isim::fsm::FsmConfig;
use isim::state::NodeState;
use isim::stats::RunStats;
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use tech45::nvm::NvmTechnology;
use tech45::units::{Energy, Power, Seconds};

/// Builds a valid piecewise source from raw `(duration, power)` pairs by
/// accumulating the starts — sorted by construction.
fn piecewise(segments_raw: &[(f64, f64)], cyclic: bool) -> PiecewiseSource {
    let mut segments = Vec::with_capacity(segments_raw.len());
    let mut start = 0.0;
    for &(duration, power_mw) in segments_raw {
        segments.push((Seconds::new(start), Power::from_milliwatts(power_mw)));
        start += duration;
    }
    PiecewiseSource::new(segments, cyclic, Seconds::new(start))
}

/// A strategy over random harvest schedules: 2–12 segments of 20–400 s at
/// 0–0.4 mW, optionally cyclic — from famine to plenty.
fn schedule_strategy() -> impl Strategy<Value = (Vec<(f64, f64)>, bool)> {
    (prop::collection::vec((20.0_f64..400.0, 0.0_f64..0.4), 2..12), (0_u8..2).prop_map(|b| b == 1))
}

fn run_pair(
    segments: &[(f64, f64)],
    cyclic: bool,
    seed: u64,
    duration: Seconds,
    dt: Seconds,
) -> (RunStats, RunStats, usize) {
    let config = FsmConfig::paper_default().with_seed(seed);
    let mut plain = IntermittentExecutor::with_source(config.clone(), piecewise(segments, cyclic));
    let stats = plain.run(duration, dt);
    let mut traced = IntermittentExecutor::with_source(config, piecewise(segments, cyclic));
    let (traced_stats, trace) = traced.run_with_trace(duration, dt);
    (stats, traced_stats, trace.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The counters of a run are internally consistent for any schedule and
    /// seed: the pipeline order bounds the stage counts, every restore needs
    /// a preceding backup and power loss, and the re-execution count never
    /// exceeds the interruptions that can cause one.
    #[test]
    fn run_stats_counters_are_internally_consistent(
        (segments, cyclic) in schedule_strategy(),
        seed in 0_u64..1000,
    ) {
        let (stats, _, _) = run_pair(&segments, cyclic, seed, Seconds::new(3000.0), Seconds::new(0.25));
        prop_assert!(stats.restores <= stats.backups, "{stats}");
        prop_assert!(stats.restores <= stats.off_events, "{stats}");
        prop_assert!(stats.transmissions_completed <= stats.computations_completed, "{stats}");
        prop_assert!(stats.computations_completed <= stats.samples_sensed, "{stats}");
        prop_assert!(stats.safe_zone_recoveries <= stats.safe_zone_entries, "{stats}");
        prop_assert!(stats.reexecutions <= stats.off_events, "{stats}");
        prop_assert!(stats.completed_tasks() <= stats.samples_sensed, "{stats}");
    }

    /// Time accounting adds up: per-state times sum to the total, which
    /// matches the requested duration, and the derived fractions are sane.
    #[test]
    fn time_and_energy_accounting_add_up(
        (segments, cyclic) in schedule_strategy(),
        seed in 0_u64..1000,
    ) {
        let duration = Seconds::new(2000.0);
        let dt = Seconds::new(0.25);
        let (stats, _, _) = run_pair(&segments, cyclic, seed, duration, dt);
        let summed: f64 = NodeState::ALL
            .iter()
            .map(|&state| stats.time_in(state).as_seconds())
            .sum();
        prop_assert!((summed - stats.total_time().as_seconds()).abs() < 1e-6, "{stats}");
        prop_assert!((stats.total_time().as_seconds() - duration.as_seconds()).abs() < dt.as_seconds());
        prop_assert!((0.0..=1.0).contains(&stats.active_fraction()), "{stats}");
        // Starting from an empty capacitor, nothing can be consumed that was
        // not harvested first.
        prop_assert!(
            stats.energy_consumed.as_millijoules() <= stats.energy_harvested.as_millijoules() + 1e-9,
            "consumed {} > harvested {}",
            stats.energy_consumed.as_millijoules(),
            stats.energy_harvested.as_millijoules()
        );
        prop_assert!(stats.intermittency_profile().is_valid(), "{stats}");
    }

    /// `run_with_trace` is the same simulation as `run`: identical statistics
    /// and one trace sample per simulated step.
    #[test]
    fn traced_and_untraced_runs_agree(
        (segments, cyclic) in schedule_strategy(),
        seed in 0_u64..1000,
        duration_s in 200.0_f64..2500.0,
    ) {
        let duration = Seconds::new(duration_s);
        let dt = Seconds::new(0.5);
        let (stats, traced_stats, trace_len) = run_pair(&segments, cyclic, seed, duration, dt);
        prop_assert_eq!(&stats, &traced_stats);
        let steps = (duration.as_seconds() / dt.as_seconds()).ceil() as usize;
        prop_assert_eq!(trace_len, steps);
    }

    /// The executor is a pure function of `(config, schedule, seed)`.
    #[test]
    fn identical_configurations_replay_bit_identically(
        (segments, cyclic) in schedule_strategy(),
        seed in 0_u64..1000,
    ) {
        let run = || {
            let config = FsmConfig::paper_default().with_seed(seed);
            let mut exec = IntermittentExecutor::with_source(config, piecewise(&segments, cyclic));
            exec.run(Seconds::new(1500.0), Seconds::new(0.5))
        };
        prop_assert_eq!(run(), run());
    }
}

/// One random run of the witness test: its configuration (without the
/// backup unit), source and initial energy.
struct WitnessCase {
    config: FsmConfig,
    source: WitnessSource,
    initial: Energy,
    duration: Seconds,
}

#[derive(Clone, Copy)]
enum WitnessSource {
    Constant(Power),
    Fig4,
    Scarce,
}

impl WitnessCase {
    fn draw(rng: &mut StdRng) -> Self {
        let mj = Energy::from_millijoules;
        let thresholds = loop {
            let mut th = Thresholds::paper_default();
            th.off = mj(rng.gen_range(0.5..3.0));
            th.backup = mj(rng.gen_range(3.0..6.0));
            let th = th.with_safe_zone_margin(mj(rng.gen_range(0.0..3.0)));
            if th.is_consistent() {
                break th;
            }
        };
        let source = match rng.gen_range(0_u32..3) {
            0 => WitnessSource::Constant(Power::from_milliwatts(rng.gen_range(0.0..0.5))),
            1 => WitnessSource::Fig4,
            _ => WitnessSource::Scarce,
        };
        Self {
            config: FsmConfig::paper_default()
                .with_thresholds(thresholds)
                .with_seed(rng.gen_range(0_u64..1_000_000)),
            source,
            initial: mj(rng.gen_range(0.0..25.0)),
            duration: Seconds::new(rng.gen_range(600.0..3000.0)),
        }
    }

    /// The case's statistics under `unit`, from the scalar executor and
    /// from a batch lane (which must agree).
    fn run(&self, unit: BackupUnit) -> RunStats {
        match self.source {
            WitnessSource::Constant(power) => self.run_on(unit, ConstantSource::new(power)),
            WitnessSource::Fig4 => self.run_on(unit, Schedule::fig4().to_source()),
            WitnessSource::Scarce => self.run_on(unit, Schedule::scarce().to_source()),
        }
    }

    fn run_on<S: HarvestSource + Clone>(&self, unit: BackupUnit, source: S) -> RunStats {
        let config = self.config.clone().with_backup(unit);
        let dt = Seconds::new(0.5);
        let mut scalar = IntermittentExecutor::with_source(config.clone(), source.clone())
            .with_initial_energy(self.initial);
        let stats = scalar.run(self.duration, dt);
        let capacitor = Capacitor::paper_default().with_energy(self.initial);
        let mut batch = BatchExecutor::new(1);
        batch.enqueue(BatchJob::new(config, source, self.duration, dt).with_capacitor(capacitor));
        assert_eq!(batch.run_to_completion(), std::slice::from_ref(&stats), "batch lane diverged");
        stats
    }
}

impl WitnessCase {
    /// Runs the case as one batch job with `siblings` — its own unit first
    /// — and requires the job's and each sibling's statistics to equal the
    /// scalar run under that unit.  Returns the executor's telemetry.
    fn check_forks(&self, siblings: &[BackupUnit]) -> BatchTelemetry {
        match self.source {
            WitnessSource::Constant(power) => {
                self.check_forks_on(siblings, ConstantSource::new(power))
            }
            WitnessSource::Fig4 => self.check_forks_on(siblings, Schedule::fig4().to_source()),
            WitnessSource::Scarce => self.check_forks_on(siblings, Schedule::scarce().to_source()),
        }
    }

    fn check_forks_on<S: HarvestSource + Clone>(
        &self,
        siblings: &[BackupUnit],
        source: S,
    ) -> BatchTelemetry {
        let dt = Seconds::new(0.5);
        let capacitor = Capacitor::paper_default().with_energy(self.initial);
        let job = BatchJob::new(self.config.clone(), source.clone(), self.duration, dt);
        let mut batch = BatchExecutor::new(1);
        batch.enqueue_with_siblings(job.with_capacitor(capacitor), siblings.iter().copied());
        let batched = batch.run_to_completion();
        let scalar: Vec<RunStats> = std::iter::once(self.config.backup)
            .chain(siblings.iter().copied())
            .map(|unit| {
                let config = self.config.clone().with_backup(unit);
                let mut exec = IntermittentExecutor::with_source(config, source.clone())
                    .with_initial_energy(self.initial);
                exec.run(self.duration, dt)
            })
            .collect();
        assert_eq!(batched, scalar, "a sibling diverged from its scalar run");
        batch.telemetry()
    }

    /// The scalar run of the case's first `ticks` ticks under its own unit.
    fn first_ticks(&self, ticks: u64) -> RunStats {
        let duration = Seconds::new(ticks as f64 * 0.5);
        let case = WitnessCase { config: self.config.clone(), duration, ..*self };
        case.run(self.config.backup)
    }
}

/// The siblings of a batch job fork from its lane at its first read of the
/// backup unit: each must equal the scalar run under its own unit, over the
/// witness draws, with siblings under the job's own unit, a cheaper and a
/// dearer one.  The test fails an engine that forks from the state after
/// the fork tick (that tick's drain is the job's) and one that never forks
/// (the siblings would get copies).
#[test]
fn forked_siblings_equal_their_scalar_runs() {
    let cheap = BackupUnit::from_state_bits(16, NvmTechnology::Mram);
    let dear = BackupUnit::from_state_bits(4096, NvmTechnology::Pcm);
    let mut rng = StdRng::seed_from_u64(0xF0C5);
    let mut forked = Vec::new();
    for _ in 0..160 {
        let witness = WitnessCase::draw(&mut rng);
        let siblings = [witness.config.backup, cheap, dear];
        let telemetry = witness.check_forks(&siblings);
        if telemetry.forks > 0 {
            assert_eq!(telemetry.forks, 3);
            forked.push(witness);
        }
    }
    assert!(forked.len() >= 10, "only {} of 160 cases forked", forked.len());

    // A case cut to end on its first backup: the forks re-run that one
    // tick only.
    let witness = &forked[0];
    let steps = (witness.duration.as_seconds() / 0.5).ceil() as u64;
    let (mut lo, mut hi) = (0, steps);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if witness.first_ticks(mid).reads_backup_unit() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let last = WitnessCase {
        config: witness.config.clone(),
        duration: Seconds::new(hi as f64 * 0.5),
        ..*witness
    };
    let telemetry = last.check_forks(&[witness.config.backup, cheap, dear]);
    assert_eq!(telemetry.forks, 3);
    assert_eq!(telemetry.ticks_total, hi + 3, "each fork runs the last tick alone");
}

/// `RunStats::reads_backup_unit` is the proof campaigns rely on to share
/// one run among the technology × sizing siblings of a stochastic point:
/// whenever either of two runs that differ only in their backup unit says
/// it never read the unit, the two runs are equal.  The two units differ
/// in price, so most runs that do back up tell them apart: a predicate
/// stuck at `false` fails the test.
#[test]
fn a_run_that_never_read_its_backup_unit_is_the_same_under_any_unit() {
    let cheap = BackupUnit::from_state_bits(16, NvmTechnology::Mram);
    let dear = BackupUnit::from_state_bits(4096, NvmTechnology::Pcm);
    assert!(dear.backup_energy() > cheap.backup_energy());
    assert!(dear.restore_energy() > cheap.restore_energy());
    let mut rng = StdRng::seed_from_u64(0xB0C0);
    let (mut read, mut told_apart) = (0, 0);
    for case in 0..160 {
        let witness = WitnessCase::draw(&mut rng);
        let (a, b) = (witness.run(cheap), witness.run(dear));
        if !a.reads_backup_unit() || !b.reads_backup_unit() {
            assert_eq!(a, b, "case {case}: a run that never read its unit changed with it");
        } else {
            read += 1;
            told_apart += usize::from(a != b);
        }
    }
    assert!(read >= 10, "only {read} of 160 cases read their backup unit");
    assert!(
        told_apart * 2 >= read,
        "only {told_apart} of {read} runs that read the unit changed with it"
    );
}
