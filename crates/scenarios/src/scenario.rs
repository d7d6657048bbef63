//! One deterministic `(config, seed)` point of a campaign.

use ehsim::crng::mix64;
use ehsim::pmu::Thresholds;
use isim::backup::BackupUnit;
use isim::batch::BatchJob;
use isim::executor::IntermittentExecutor;
use isim::fsm::FsmConfig;
use isim::stats::RunStats;
use tech45::nvm::NvmTechnology;
use tech45::units::Seconds;

use crate::space::{AnySource, BackupSizing, SourceScratch, SourceSpec};

/// A fully specified scenario: running it twice produces bit-identical
/// statistics, because every random stream (operation-energy jitter,
/// transmit decisions, source noise) is derived from `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Position in the expanded space (also the seed-derivation index).
    pub id: usize,
    /// The harvest source (base parameters; reseeded per scenario).
    pub source: SourceSpec,
    /// The PMU thresholds of this point.
    pub thresholds: Thresholds,
    /// The NVM technology of the backup array.
    pub technology: NvmTechnology,
    /// How the backup unit is sized.
    pub sizing: BackupSizing,
    /// The scenario seed all random streams are derived from.
    pub seed: u64,
}

impl Scenario {
    /// The FSM configuration this scenario runs: paper defaults with the
    /// scenario's thresholds, backup unit and a seed derived from the
    /// scenario seed.  A zero safe-zone margin disables the safe-zone rule
    /// (the plain-DIAC FSM).
    #[must_use]
    pub fn fsm_config(&self) -> FsmConfig {
        FsmConfig::paper_default()
            .with_thresholds(self.thresholds)
            .with_backup(self.backup_unit())
            .with_seed(mix64(self.seed, 0x0F5A))
    }

    /// The backup unit of [`Self::fsm_config`]: the sizing on the
    /// scenario's technology.
    pub(crate) fn backup_unit(&self) -> BackupUnit {
        self.sizing.unit(self.technology)
    }

    /// Runs the scenario for `duration` in steps of `dt`.
    ///
    /// No trace is recorded — campaigns keep only the scalar statistics.
    #[must_use]
    pub fn run(&self, duration: Seconds, dt: Seconds) -> RunStats {
        let source = self.source.build(mix64(self.seed, 0x50BC));
        IntermittentExecutor::with_source(self.fsm_config(), source).run(duration, dt)
    }

    /// [`Self::run`]; the scratch is an inert [`SourceScratch`].  Kept only
    /// for the call sites of the repository benchmark (`benchmark/`); it
    /// goes in the next change allowed to edit the benchmark.
    #[must_use]
    pub fn run_with_scratch(
        &self,
        duration: Seconds,
        dt: Seconds,
        _scratch: &mut SourceScratch,
    ) -> RunStats {
        self.run(duration, dt)
    }

    /// Packages the scenario as a [`BatchJob`] for
    /// [`isim::batch::BatchExecutor`].
    ///
    /// The seed derivation and the source are *identical* to
    /// [`Self::run`]'s — same FSM seed, same seeded source — so a batched
    /// lane reproduces [`Self::run`] bit for bit.  The scratch is an inert
    /// [`SourceScratch`], kept only for the call sites of the repository
    /// benchmark (`benchmark/`); the argument goes in the next change
    /// allowed to edit the benchmark.
    #[must_use]
    pub fn batch_job(
        &self,
        duration: Seconds,
        dt: Seconds,
        _scratch: &mut SourceScratch,
    ) -> BatchJob<AnySource> {
        let source = self.source.build(mix64(self.seed, 0x50BC));
        BatchJob::new(self.fsm_config(), source, duration, dt)
    }

    /// Whether `other`'s [`Self::batch_job`] differs from this scenario's
    /// at most in `config.backup`: both read the same source spec, seed and
    /// FSM configuration apart from the backup unit.  True of the
    /// technology × sizing siblings of one stochastic coordinate.
    pub(crate) fn differs_only_in_backup(&self, other: &Scenario) -> bool {
        let config = self.fsm_config();
        let other_config = other.fsm_config();
        self.source == other.source
            && self.seed == other.seed
            && config.with_backup(other_config.backup) == other_config
    }

    /// One-line description for logs and tables.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "#{} {} | {} | {:?} | {} | seed {:#018x}",
            self.id,
            self.source.family(),
            self.thresholds,
            self.technology,
            self.sizing.label(),
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ScenarioSpace;

    #[test]
    fn a_scenario_is_bit_reproducible_from_its_seed() {
        let scenario = &ScenarioSpace::smoke().scenarios(99)[3];
        let a = scenario.run(Seconds::new(600.0), Seconds::new(0.5));
        let b = scenario.run(Seconds::new(600.0), Seconds::new(0.5));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge_on_stochastic_sources() {
        let space = ScenarioSpace::smoke();
        let mut a = space.scenarios(1)[4].clone();
        let mut b = a.clone();
        b.seed = b.seed.wrapping_add(1);
        // The RFID rows of the smoke grid carry timing jitter, so a seed
        // change must alter the run.
        a.source = SourceSpec::Rfid {
            peak: tech45::units::Power::from_milliwatts(1.0),
            period: Seconds::new(2.0),
            duty_cycle: 0.4,
            jitter: 0.3,
            seed: 1,
        };
        b.source = a.source.clone();
        let ra = a.run(Seconds::new(2000.0), Seconds::new(0.5));
        let rb = b.run(Seconds::new(2000.0), Seconds::new(0.5));
        assert_ne!(ra, rb);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let space = ScenarioSpace::smoke();
        let scenarios = space.scenarios(7);
        let mut scratch = SourceScratch::new();
        for scenario in &scenarios {
            let fresh = scenario.run(Seconds::new(400.0), Seconds::new(0.5));
            let reused =
                scenario.run_with_scratch(Seconds::new(400.0), Seconds::new(0.5), &mut scratch);
            assert_eq!(fresh, reused, "scenario #{}", scenario.id);
        }
    }

    #[test]
    fn batch_jobs_reproduce_the_scalar_run_bit_for_bit() {
        use isim::batch::BatchExecutor;
        let space = ScenarioSpace::smoke();
        let scenarios = space.scenarios(0xD1AC);
        let (duration, dt) = (Seconds::new(800.0), Seconds::new(0.5));
        let mut batch = BatchExecutor::new(5);
        let mut scratch = SourceScratch::new();
        for scenario in &scenarios {
            batch.enqueue(scenario.batch_job(duration, dt, &mut scratch));
        }
        let batched = batch.run_to_completion();
        for (scenario, batched) in scenarios.iter().zip(&batched) {
            assert_eq!(&scenario.run(duration, dt), batched, "scenario #{}", scenario.id);
        }
    }

    /// Solar lanes read their sun factors from the table of their
    /// `(day_length, dt)` grid that a batched pass builds ([`sun_tables`]).
    /// Passes over two day lengths, at both steps, must still reproduce
    /// every scalar run, whose `power_at` computes each sine.
    #[test]
    fn solar_batch_jobs_reproduce_the_scalar_run_at_both_steps() {
        use crate::campaign::{batched_runs, sun_tables, CampaignConfig};
        use crate::runner::ParallelRunner;
        use tech45::units::Power;
        let mut space = ScenarioSpace::smoke();
        space.sources = [(2000.0, 0.3, 3), (700.0, 0.6, 8)]
            .map(|(day, cloudiness, seed)| SourceSpec::Solar {
                peak: Power::from_milliwatts(0.8),
                day_length: Seconds::new(day),
                cloudiness,
                seed,
            })
            .to_vec();
        let mut config =
            CampaignConfig { duration: Seconds::new(2600.0), ..CampaignConfig::new(space, 0xD1AC) };
        let scenarios = config.space.scenarios(config.seed);
        for dt in [0.5, 0.25] {
            config.dt = Seconds::new(dt);
            // Two day lengths get two tables.
            assert_eq!(sun_tables(&scenarios, &config).len(), 2, "dt {dt}");
            let batched = batched_runs(&ParallelRunner::serial(), &config, &scenarios, 3, |s| s);
            for (scenario, batched) in scenarios.iter().zip(&batched) {
                let scalar = scenario.run(config.duration, config.dt);
                assert_eq!(&scalar, batched, "scenario #{} at dt {dt}", scenario.id);
            }
            assert!(batched.iter().any(|stats| stats.completed_tasks() > 0), "daylight runs work");
        }
    }

    #[test]
    fn the_safe_zone_rule_follows_the_margin() {
        let space = ScenarioSpace::smoke();
        let scenarios = space.scenarios(5);
        let collapsed = scenarios
            .iter()
            .find(|s| s.thresholds.safe_zone == s.thresholds.backup)
            .expect("zero-margin point in the smoke grid");
        let thresholds = collapsed.fsm_config().thresholds;
        assert!(thresholds.safe_zone <= thresholds.backup);
        let margined = scenarios
            .iter()
            .find(|s| s.thresholds.safe_zone > s.thresholds.backup)
            .expect("margined point in the smoke grid");
        let thresholds = margined.fsm_config().thresholds;
        assert!(thresholds.safe_zone > thresholds.backup);
    }

    #[test]
    fn describe_names_the_axes() {
        let scenario = &ScenarioSpace::smoke().scenarios(0)[0];
        let text = scenario.describe();
        assert!(text.contains("constant"));
        assert!(text.contains("baseline-64b"));
        assert!(text.contains("Th_Bk"));
    }
}
