//! The campaign engine: expand the space, fan the runs out, aggregate.

use tech45::units::Seconds;

use crate::aggregate::CampaignSummary;
use crate::runner::ParallelRunner;
use crate::scenario::Scenario;
use crate::space::{ScenarioSpace, SourceFamily};

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

    /// A stable 64-bit fingerprint of the campaign's identity: seed,
    /// duration, time step, and every expanded scenario's coordinates
    /// (seed, source family, thresholds, technology, sizing label).  Shard
    /// checkpoints embed it so a resume can only ever splice together
    /// shards of the *same* campaign — see [`crate::shard`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        crate::shard::fingerprint_of(self, &self.space.scenarios(self.seed))
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

/// The default lane count of the batched campaign path: matches the 64-lane
/// word-parallel convention of the logic-side `BitSim`.
pub const DEFAULT_BATCH_WIDTH: usize = 64;

/// Runs a campaign on all cores.
#[must_use]
pub fn run(config: &CampaignConfig) -> CampaignResult {
    run_with(&ParallelRunner::new(), config)
}

/// Runs a campaign on an explicit runner.
///
/// Every scenario is executed independently (the embarrassingly parallel
/// fan-out); the per-run statistics come back in scenario order and are
/// folded into the aggregators serially, so the aggregate — and its digest —
/// is identical for serial and parallel runs and across repeated invocations
/// with the same seed.
#[must_use]
pub fn run_with(runner: &ParallelRunner, config: &CampaignConfig) -> CampaignResult {
    let scenarios: Vec<Scenario> = config.space.scenarios(config.seed);
    let stats = scalar_stats(runner, config, &scenarios);
    aggregate(config, &scenarios, &stats)
}

/// Runs `scenarios` through the scalar per-scenario executor on `runner`,
/// returning the per-run statistics in scenario order.  Every worker owns
/// one `SourceScratch`, so the fan-out recycles source buffers across the
/// runs it claims instead of allocating per run.  Shared by the whole-space
/// campaign ([`run_with`]) and the shard engine ([`crate::shard`]).
pub(crate) fn scalar_stats(
    runner: &ParallelRunner,
    config: &CampaignConfig,
    scenarios: &[Scenario],
) -> Vec<isim::stats::RunStats> {
    runner.map_init(scenarios, crate::space::SourceScratch::new, |scratch, _, scenario| {
        scenario.run_with_scratch(config.duration, config.dt, scratch)
    })
}

/// Runs a campaign through the lockstep batch executor on all cores, with
/// [`DEFAULT_BATCH_WIDTH`] lanes per worker.
#[must_use]
pub fn run_batched(config: &CampaignConfig) -> CampaignResult {
    run_batched_with(&ParallelRunner::new(), config, DEFAULT_BATCH_WIDTH)
}

/// Runs a campaign through [`isim::batch::BatchExecutor`] banks of `width`
/// lanes, one bank per `width`-scenario chunk, chunks fanned out on
/// `runner`.
///
/// Bit-identical to [`run_with`] by construction: the per-scenario seed
/// derivation is [`Scenario::batch_job`]'s (the same as the scalar path),
/// every lane executes the shared per-step physics, the per-run statistics
/// are flattened back into scenario order, and the aggregation below is the
/// same code — so the digest matches the scalar campaign at any worker
/// count and any batch width.  `tests/campaign.rs` pins this.
#[must_use]
pub fn run_batched_with(
    runner: &ParallelRunner,
    config: &CampaignConfig,
    width: usize,
) -> CampaignResult {
    let scenarios: Vec<Scenario> = config.space.scenarios(config.seed);
    let stats = batched_stats(runner, config, &scenarios, width);
    aggregate(config, &scenarios, &stats)
}

/// Runs `scenarios` through [`isim::batch::BatchExecutor`] banks of `width`
/// lanes, one bank per `width`-scenario chunk; the per-run statistics come
/// back flattened into scenario order.  Chunks go through the runner's
/// atomic work queue, so a worker that drew cheap scenarios claims more
/// chunks instead of idling while another works through a slow family.
/// Shared by [`run_batched_with`] and the shard engine ([`crate::shard`]).
pub(crate) fn batched_stats(
    runner: &ParallelRunner,
    config: &CampaignConfig,
    scenarios: &[Scenario],
    width: usize,
) -> Vec<isim::stats::RunStats> {
    let chunks: Vec<&[Scenario]> = scenarios.chunks(width.max(1)).collect();
    let per_chunk: Vec<Vec<isim::stats::RunStats>> =
        runner.map_init(&chunks, crate::space::SourceScratch::new, |scratch, _, chunk| {
            let mut batch = isim::batch::BatchExecutor::new(width);
            for scenario in *chunk {
                batch.enqueue(scenario.batch_job(config.duration, config.dt, scratch));
            }
            let stats = batch.run_to_completion();
            for source in batch.take_retired_sources() {
                scratch.recycle(source);
            }
            stats
        });
    per_chunk.into_iter().flatten().collect()
}

/// Folds per-run statistics (in scenario order) into the campaign result —
/// shared by the scalar and batched paths so their aggregates can only
/// differ if the per-run statistics do.  Implemented as a single full-range
/// shard ([`crate::shard::ShardResult`]), so the monolithic fold and the
/// sharded merge literally run the same aggregation code.
fn aggregate(
    config: &CampaignConfig,
    scenarios: &[Scenario],
    stats: &[isim::stats::RunStats],
) -> CampaignResult {
    let mut shard = crate::shard::ShardResult::new(config, scenarios, 0..scenarios.len());
    for (scenario, run_stats) in scenarios.iter().zip(stats) {
        shard.record(scenario, run_stats);
    }
    shard.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_smoke_campaign_is_deterministic_across_invocations() {
        let config = CampaignConfig::smoke();
        let a = run(&config);
        let b = run(&config);
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
        let wide = run_batched(&config);
        assert_eq!(scalar, wide);
        let parallel_batched = run_batched_with(&ParallelRunner::with_threads(8), &config, 4);
        assert_eq!(scalar, parallel_batched);
    }

    #[test]
    fn changing_the_seed_changes_the_aggregate() {
        let config = CampaignConfig::smoke();
        let reseeded = CampaignConfig { seed: config.seed + 1, ..config.clone() };
        // The smoke grid contains a jittered RFID source, so a different
        // campaign seed must produce different statistics somewhere.
        assert_ne!(run(&config).digest(), run(&reseeded).digest());
    }

    #[test]
    fn family_and_sizing_slices_partition_the_runs() {
        let result = run(&CampaignConfig::smoke());
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
        let result = run(&CampaignConfig::smoke());
        let progress = result.overall.row("progress").expect("progress row");
        assert!(progress.max >= 1.0, "no scenario made progress: {}", result.overall);
        let backups = result.overall.row("backups").expect("backups row");
        assert!(backups.max >= 1.0, "no scenario took a backup: {}", result.overall);
        let wasted = result.overall.row("energy_wasted_mj").expect("waste row");
        assert!(wasted.max > 0.0, "no scenario clipped harvest: {}", result.overall);
    }
}
