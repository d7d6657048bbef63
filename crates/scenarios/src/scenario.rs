//! One deterministic `(config, seed)` point of a campaign.

use ehsim::pmu::Thresholds;
use isim::batch::BatchJob;
use isim::executor::IntermittentExecutor;
use isim::fsm::FsmConfig;
use isim::stats::RunStats;
use tech45::nvm::NvmTechnology;
use tech45::units::Seconds;

use crate::seed::mix;
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
            .with_backup(self.sizing.unit(self.technology))
            .with_seed(mix(self.seed, 0x0F5A))
    }

    /// Runs the scenario for `duration` in steps of `dt`.
    ///
    /// No trace is recorded — campaigns keep only the scalar statistics.
    #[must_use]
    pub fn run(&self, duration: Seconds, dt: Seconds) -> RunStats {
        self.run_with_scratch(duration, dt, &mut SourceScratch::new())
    }

    /// Like [`Self::run`], but draws the source's buffers from — and returns
    /// them to — a reusable per-worker scratch, so a campaign worker running
    /// many scenarios allocates once instead of per run.  Bit-identical to
    /// [`Self::run`]: the scratch only recycles storage, never state.
    #[must_use]
    pub fn run_with_scratch(
        &self,
        duration: Seconds,
        dt: Seconds,
        scratch: &mut SourceScratch,
    ) -> RunStats {
        let source = self.source.build_seeded(mix(self.seed, 0x50BC), scratch);
        let mut exec = IntermittentExecutor::with_source(self.fsm_config(), source);
        let stats = exec.run(duration, dt);
        scratch.recycle(exec.into_source());
        stats
    }

    /// Packages the scenario as a [`BatchJob`] for the lockstep
    /// [`isim::batch::BatchExecutor`].
    ///
    /// The seed derivation and the source are *identical* to
    /// [`Self::run_with_scratch`]'s — same FSM seed, same seeded source — so
    /// a batched lane reproduces [`Self::run`] bit for bit.
    #[must_use]
    pub fn batch_job(
        &self,
        duration: Seconds,
        dt: Seconds,
        scratch: &mut SourceScratch,
    ) -> BatchJob<AnySource> {
        let source = self.source.build_seeded(mix(self.seed, 0x50BC), scratch);
        BatchJob::new(self.fsm_config(), source, duration, dt)
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

    #[test]
    fn the_safe_zone_rule_follows_the_margin() {
        let space = ScenarioSpace::smoke();
        let scenarios = space.scenarios(5);
        let collapsed = scenarios
            .iter()
            .find(|s| s.thresholds.safe_zone == s.thresholds.backup)
            .expect("zero-margin point in the smoke grid");
        assert!(!collapsed.fsm_config().use_safe_zone);
        let margined = scenarios
            .iter()
            .find(|s| s.thresholds.safe_zone > s.thresholds.backup)
            .expect("margined point in the smoke grid");
        assert!(margined.fsm_config().use_safe_zone);
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
