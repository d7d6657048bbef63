//! The campaign engine: expand the space, fan the runs out, aggregate.

use ehsim::source::SunTable;
use isim::stats::RunStats;
use tech45::units::Seconds;

use crate::aggregate::CampaignSummary;
use crate::runner::ParallelRunner;
use crate::scenario::Scenario;
use crate::shard::{run_range_with, Execution};
use crate::space::{AnySource, ScenarioSpace, SourceFamily, SourceScratch, SourceSpec};

/// Configuration of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// The scenario space to sweep.
    pub space: ScenarioSpace,
    /// The campaign seed every scenario seed is derived from.
    pub seed: u64,
    /// Simulated lifetime per scenario.
    pub duration: Seconds,
    /// Simulation time step.
    pub dt: Seconds,
}

impl CampaignConfig {
    /// A campaign over `space` with the default lifetime (1500 simulated
    /// seconds at 0.5 s resolution — long enough for every source family to
    /// show its intermittency pattern, short enough that a 200-scenario
    /// campaign finishes in well under a second of wall-clock per core).
    #[must_use]
    pub fn new(space: ScenarioSpace, seed: u64) -> Self {
        Self { space, seed, duration: Seconds::new(1500.0), dt: Seconds::new(0.5) }
    }

    /// The tiny deterministic smoke campaign used by CI and doc examples.
    /// The lifetime is stretched to cover the Fig. 4 schedule's backup and
    /// power-loss phases (~1700–2200 simulated seconds), so the smoke grid
    /// always exercises those paths.
    #[must_use]
    pub fn smoke() -> Self {
        Self { duration: Seconds::new(2600.0), ..Self::new(ScenarioSpace::smoke(), 0xD1AC) }
    }

    /// A stable 64-bit fingerprint of the campaign's *definition*: the
    /// record schema, seed, duration, time step and every axis of the
    /// space — each source's family and parameters (a schedule's segment
    /// table, duration and cyclic flag), each threshold set, technology and
    /// sizing label — plus the replicate count.  It hashes the axes, not
    /// the scenarios they expand to, so it costs the same for a shard as
    /// for the whole campaign.  Shard checkpoints embed it so a resume can
    /// only ever splice together shards of the *same* campaign — see
    /// [`crate::shard`].
    ///
    /// It identifies the campaign, not the simulator build: a change to
    /// the simulator's code leaves it unchanged.  A change to the scenario
    /// expansion order or the seed derivation must bump
    /// [`crate::shard::SHARD_SCHEMA`], which the hash includes.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        crate::shard::fingerprint_of(self)
    }
}

/// The aggregated outcome of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Number of scenario runs executed.
    pub runs: usize,
    /// Aggregate over every run.
    pub overall: CampaignSummary,
    /// Aggregate per source family (only families present in the space),
    /// in [`SourceFamily::ALL`] order.
    pub by_family: Vec<(SourceFamily, CampaignSummary)>,
    /// Aggregate per backup sizing (labelled), in sizing-axis order — the
    /// baseline-vs-DIAC comparison the sizing axis exists for.  Because
    /// paired scenarios share their seed (common random numbers), these
    /// slices differ only by the sizing itself.
    pub by_sizing: Vec<(String, CampaignSummary)>,
}

impl CampaignResult {
    /// The summary of one source family, if it was part of the space.
    #[must_use]
    pub fn family(&self, family: SourceFamily) -> Option<&CampaignSummary> {
        self.by_family.iter().find(|(f, _)| *f == family).map(|(_, s)| s)
    }

    /// The summary of one backup sizing by label, if it was part of the
    /// space.
    #[must_use]
    pub fn sizing(&self, label: &str) -> Option<&CampaignSummary> {
        self.by_sizing.iter().find(|(l, _)| l == label).map(|(_, s)| s)
    }

    /// A stable 64-bit digest of the *whole* result: the overall aggregate
    /// plus every labelled per-family and per-sizing slice (FNV-1a over the
    /// slice digests and their labels).
    ///
    /// Earlier revisions hashed only `overall`, which left the
    /// baseline-vs-DIAC slices — the comparison the sizing axis exists for —
    /// outside the determinism contract: a merge bug confined to a slice
    /// would have shipped silently past every digest pin.  Now any bit of
    /// drift anywhere in the result changes the digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut fnv = crate::shard::Fnv::new();
        fnv.eat_u64(self.overall.digest());
        fnv.eat_u64(self.by_family.len() as u64);
        for (family, summary) in &self.by_family {
            fnv.eat_str(family.label());
            fnv.eat_u64(summary.digest());
        }
        fnv.eat_u64(self.by_sizing.len() as u64);
        for (label, summary) in &self.by_sizing {
            fnv.eat_str(label);
            fnv.eat_u64(summary.digest());
        }
        fnv.finish()
    }
}

/// The default bank width of the batched campaign path: the number of
/// sibling groups per unit of work on the parallel queue (see
/// [`Execution::Batched`]).
pub const DEFAULT_BATCH_WIDTH: usize = 64;

/// Runs a campaign on an explicit runner.
///
/// Every scenario is executed independently (the embarrassingly parallel
/// fan-out); the per-run statistics come back in scenario order as one row
/// each, and the summaries are computed from the rows in that order, so the
/// aggregate — and its digest — is identical for serial and parallel runs
/// and across repeated invocations with the same seed.  The campaign runs
/// as one full-range shard ([`crate::shard::run_range_with`] over `0..len`)
/// and ends in [`crate::shard::ShardResult::finish`], so the monolithic and
/// the sharded paths run the same aggregation code.
#[must_use]
pub fn run_with(runner: &ParallelRunner, config: &CampaignConfig) -> CampaignResult {
    run_range_with(runner, config, 0..config.space.len(), Execution::Scalar)
        .finish(config)
        .expect("a full-range shard covers its campaign")
}

/// Runs `scenarios` through the scalar per-scenario executor on `runner`,
/// returning `each` of the per-run statistics in scenario order.  The
/// engine behind [`Execution::Scalar`].
pub(crate) fn scalar_runs<T: Send>(
    runner: &ParallelRunner,
    config: &CampaignConfig,
    scenarios: &[Scenario],
    each: impl Fn(RunStats) -> T + Sync,
) -> Vec<T> {
    runner.map(scenarios, |_, scenario| each(scenario.run(config.duration, config.dt)))
}

/// Runs a campaign through [`isim::batch::BatchExecutor`] banks of `width`
/// sibling groups on `runner` — again as one full-range shard.  The
/// technology × sizing siblings of a stochastic point run as one lane until
/// it first reads its backup unit, and fork there (see
/// [`Execution::Batched`]).
///
/// Bit-identical to [`run_with`]: every run is [`Scenario::batch_job`]'s,
/// with the scalar path's seed derivation and per-step physics; a fork
/// starts from its sibling's own state, and a run shared among siblings is
/// one no sibling's unit could have changed; the per-run statistics come
/// back in scenario order, and the aggregation is the same code.  So the
/// digest matches the scalar campaign at any worker count and any batch
/// width.  `tests/campaign.rs` pins this.
#[must_use]
pub fn run_batched_with(
    runner: &ParallelRunner,
    config: &CampaignConfig,
    width: usize,
) -> CampaignResult {
    run_range_with(runner, config, 0..config.space.len(), Execution::Batched { width })
        .finish(config)
        .expect("a full-range shard covers its campaign")
}

/// Runs `scenarios` through [`isim::batch::BatchExecutor`] banks and
/// returns `each` of the per-run statistics in scenario order.  The engine
/// behind [`Execution::Batched`].
///
/// The scenarios are grouped by stochastic coordinate (source, thresholds,
/// replicate).  The *siblings* of a group share their seed, source and
/// thresholds and differ only in `config.backup`, the technology × sizing
/// axes.  Each group's lowest id runs as a job with the others' backup
/// units as its siblings
/// ([`isim::batch::BatchExecutor::enqueue_with_siblings`]): they fork from
/// its lane at its first read of the unit, or get copies of its statistics
/// if it never reads it.  Both are exact: the runs are one computation up
/// to that read ([`isim::stats::RunStats::reads_backup_unit`]).
///
/// Before the fan-out, the calling thread builds one [`SunTable`] per solar
/// spec the scenarios use, on the pass's tick grid ([`sun_tables`]).  Each
/// solar representative's source gets its spec's table, and a fork, which
/// clones its lane's source, shares it.  No worker holds state of its own.
///
/// Banks of `width` groups fan out on the runner's atomic work queue, so a
/// worker that drew cheap groups claims more banks instead of idling while
/// another works through a slow family.  Each worker applies `each` to its
/// bank's statistics, and the results land straight in scenario order.
/// Grouping sorts the given scenarios, so it costs O(n log n) in their
/// number, whatever the size of the space.  A group cut by a shard
/// boundary shares only among its siblings inside the shard.
pub(crate) fn batched_runs<T: Clone + Default + Send>(
    runner: &ParallelRunner,
    config: &CampaignConfig,
    scenarios: &[Scenario],
    width: usize,
    each: impl Fn(RunStats) -> T + Sync,
) -> Vec<T> {
    // `keyed` lists (stochastic index, scenario index) in order, so each
    // group is a run of it, representative first — the order the banks
    // return the statistics in.
    let mut keyed: Vec<(usize, usize)> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| (config.space.stochastic_index(config.space.coordinates(s.id)), i))
        .collect();
    keyed.sort_unstable();
    let groups: Vec<&[(usize, usize)]> = keyed.chunk_by(|a, b| a.0 == b.0).collect();
    debug_assert!(groups.iter().all(|group| group
        .iter()
        .all(|&(_, i)| scenarios[group[0].1].differs_only_in_backup(&scenarios[i]))));

    let suns = sun_tables(scenarios, config);
    let banks: Vec<&[&[(usize, usize)]]> = groups.chunks(width.max(1)).collect();
    let per_bank: Vec<Vec<T>> = runner.map(&banks, |_, bank| {
        let mut batch = isim::batch::BatchExecutor::new(bank.len());
        for group in *bank {
            let mut job =
                scenarios[group[0].1].batch_job(config.duration, config.dt, &mut SourceScratch);
            if let AnySource::Solar(solar) = &mut job.source {
                solar.attach_sun_table(&suns, config.dt);
            }
            let siblings = group[1..].iter().map(|&(_, i)| scenarios[i].backup_unit());
            batch.enqueue_with_siblings(job, siblings);
        }
        batch.run_to_completion().into_iter().map(&each).collect()
    });

    let mut runs = vec![T::default(); scenarios.len()];
    for (&(_, i), run) in keyed.iter().zip(per_bank.into_iter().flatten()) {
        runs[i] = run;
    }
    runs
}

/// One [`SunTable`] per solar spec among `scenarios`, covering the ticks of
/// a run of `config`: the tables a batched pass hands its solar lanes.  The
/// scenarios lie in id order, source-major, so a spec's are adjacent (and
/// adjacent specs of one day length share a table).
pub(crate) fn sun_tables(scenarios: &[Scenario], config: &CampaignConfig) -> Vec<SunTable> {
    let mut days: Vec<Seconds> = scenarios
        .iter()
        .filter_map(|scenario| match scenario.source {
            SourceSpec::Solar { day_length, .. } => Some(day_length),
            _ => None,
        })
        .collect();
    days.dedup();
    let ticks = isim::executor::step_count(config.duration, config.dt);
    days.into_iter().map(|day| SunTable::new(day, config.dt, ticks)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every run's whole statistics through the scalar engine.
    fn scalar_stats(
        runner: &ParallelRunner,
        config: &CampaignConfig,
        scenarios: &[Scenario],
    ) -> Vec<RunStats> {
        scalar_runs(runner, config, scenarios, |stats| stats)
    }

    /// Every run's whole statistics through the batched engine.
    fn batched_stats(
        runner: &ParallelRunner,
        config: &CampaignConfig,
        scenarios: &[Scenario],
        width: usize,
    ) -> Vec<RunStats> {
        batched_runs(runner, config, scenarios, width, |stats| stats)
    }

    #[test]
    fn the_smoke_campaign_is_deterministic_across_invocations() {
        let config = CampaignConfig::smoke();
        let a = run_with(&ParallelRunner::new(), &config);
        let b = run_with(&ParallelRunner::new(), &config);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.runs, config.space.len());
    }

    #[test]
    fn serial_and_parallel_campaigns_agree_bit_for_bit() {
        let config = CampaignConfig::smoke();
        let serial = run_with(&ParallelRunner::serial(), &config);
        let parallel = run_with(&ParallelRunner::with_threads(8), &config);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn batched_campaigns_agree_with_the_scalar_oracle_bit_for_bit() {
        let config = CampaignConfig::smoke();
        let scalar = run_with(&ParallelRunner::serial(), &config);
        for width in [1, 3, 16] {
            let batched = run_batched_with(&ParallelRunner::serial(), &config, width);
            assert_eq!(scalar, batched, "width {width} diverged from the scalar oracle");
        }
        let wide = run_batched_with(&ParallelRunner::new(), &config, DEFAULT_BATCH_WIDTH);
        assert_eq!(scalar, wide);
        let parallel_batched = run_batched_with(&ParallelRunner::with_threads(8), &config, 4);
        assert_eq!(scalar, parallel_batched);
    }

    #[test]
    fn batched_stats_equal_the_scalar_runs_energy_included() {
        // A campaign row keeps six metrics, and the backup and restore
        // energies of the technology × sizing axes rarely move any of them.
        // The whole `RunStats` does carry them (`energy_consumed`), so a
        // sibling copied where it should have re-run shows here.
        let summary = diac_core::replacement::ReplacementSummary {
            boundaries: 4,
            total_boundary_bits: 48,
            average_boundary_bits: 12.0,
            energy_budget: tech45::units::Energy::from_millijoules(1.0),
            max_unsaved_energy: tech45::units::Energy::from_millijoules(1.0),
            backup_energy: tech45::units::Energy::ZERO,
            backup_latency: Seconds::ZERO,
            restore_energy: tech45::units::Energy::ZERO,
            restore_latency: Seconds::ZERO,
        };
        let mut paper = ScenarioSpace::paper_grid(vec![
            crate::space::BackupSizing::BaselineBits(64),
            crate::space::BackupSizing::DiacReplacement(summary),
        ]);
        paper.replicates = 2;
        for config in [CampaignConfig::smoke(), CampaignConfig::new(paper, 0xD1AC)] {
            let scenarios = config.space.scenarios(config.seed);
            let scalar = scalar_stats(&ParallelRunner::serial(), &config, &scenarios);
            assert!(scalar.iter().any(|stats| stats.backups > 0), "the grid backs up somewhere");
            for width in [1, 3, 64] {
                for runner in [ParallelRunner::serial(), ParallelRunner::with_threads(3)] {
                    let batched = batched_stats(&runner, &config, &scenarios, width);
                    assert!(batched == scalar, "width {width}, {} workers", runner.threads());
                }
            }
        }
    }

    #[test]
    fn changing_the_seed_changes_the_aggregate() {
        let config = CampaignConfig::smoke();
        let reseeded = CampaignConfig { seed: config.seed + 1, ..config.clone() };
        // The smoke grid contains a jittered RFID source, so a different
        // campaign seed must produce different statistics somewhere.
        let runner = ParallelRunner::new();
        assert_ne!(run_with(&runner, &config).digest(), run_with(&runner, &reseeded).digest());
    }

    #[test]
    fn family_and_sizing_slices_partition_the_runs() {
        let result = run_with(&ParallelRunner::new(), &CampaignConfig::smoke());
        let family_runs: usize = result.by_family.iter().map(|(_, s)| s.runs).sum();
        assert_eq!(family_runs, result.runs);
        assert!(result.family(SourceFamily::Constant).is_some());
        assert!(result.family(SourceFamily::Solar).is_none());
        let sizing_runs: usize = result.by_sizing.iter().map(|(_, s)| s.runs).sum();
        assert_eq!(sizing_runs, result.runs);
        assert!(result.sizing("baseline-64b").is_some());
        assert!(result.sizing("diac-20b").is_none());
    }

    #[test]
    fn scenarios_make_forward_progress_somewhere_in_the_space() {
        let result = run_with(&ParallelRunner::new(), &CampaignConfig::smoke());
        let progress = result.overall.row("progress").expect("progress row");
        assert!(progress.max >= 1.0, "no scenario made progress: {}", result.overall);
        let backups = result.overall.row("backups").expect("backups row");
        assert!(backups.max >= 1.0, "no scenario took a backup: {}", result.overall);
        let wasted = result.overall.row("energy_wasted_mj").expect("waste row");
        assert!(wasted.max > 0.0, "no scenario clipped harvest: {}", result.overall);
    }
}
