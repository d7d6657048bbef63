//! The two campaign workloads: the batched production fast path and the
//! sharded checkpoint/merge service cycle on the scalar engine.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ehsim::source::HarvestSource;
use isim::batch::BatchExecutor;
use isim::stats::RunStats;
use scenarios::space::SourceScratch;
use scenarios::{
    Aggregator, CampaignConfig, CampaignResult, Execution, ParallelRunner, Scenario, ShardResult,
    ShardSpec, SourceFamily, DEFAULT_BATCH_WIDTH,
};
use tech45::units::Seconds;

use crate::measure::{process_cpu_s, Checks};
use crate::trace::Recorder;
use crate::Workload;

/// The campaign seed and digest pinned by the repository's campaign tests:
/// the paper grid at one replicate.
const PINNED_SEED: u64 = 0xD1AC;
const PINNED_DIGEST: u64 = 0x0C05_A4BB_5A89_75CF;

/// Worker threads of `campaign_batch` (and of the oracles, which are not
/// timed).
const BATCH_WORKERS: usize = 2;

/// The paper grid (baseline-64b plus the DIAC sizing) at `replicates`.
fn paper_config(seed: u64, replicates: usize) -> Result<CampaignConfig, String> {
    let mut config = experiments::campaign::paper_campaign(seed).map_err(|e| e.to_string())?;
    config.space.replicates = replicates;
    Ok(config)
}

/// The pinned-digest regression check, run by both campaign workloads.
fn check_pinned_digest(checks: &mut Checks) -> Result<(), String> {
    let config = paper_config(PINNED_SEED, 1)?;
    let runner = ParallelRunner::with_threads(BATCH_WORKERS);
    let digest = scenarios::run_batched_with(&runner, &config, DEFAULT_BATCH_WIDTH).digest();
    checks.expect(digest == PINNED_DIGEST, || {
        format!("paper campaign digest {digest:#018x}, pinned {PINNED_DIGEST:#018x}")
    });
    Ok(())
}

/// The campaign's scenarios grouped by source family, in scenario order.
fn by_family(scenarios: &[Scenario]) -> Vec<(SourceFamily, Vec<&Scenario>)> {
    SourceFamily::ALL
        .into_iter()
        .map(|family| (family, scenarios.iter().filter(|s| s.source.family() == family).collect()))
        .filter(|(_, group): &(_, Vec<_>)| !group.is_empty())
        .collect()
}

/// Expands the space and fingerprints the campaign, one call each.
fn expand_and_fingerprint(rec: &mut Recorder, config: &CampaignConfig) -> Vec<Scenario> {
    let scenarios = rec.span("scenarios.expand_ms", |_| config.space.scenarios(config.seed));
    rec.span("scenarios.fingerprint_ms", |_| std::hint::black_box(config.fingerprint()));
    scenarios
}

/// Samples every scenario's source over its whole tick grid and records the
/// mean cost of one `power_at` call.
fn sample_sources(
    rec: &mut Recorder,
    config: &CampaignConfig,
    family: SourceFamily,
    group: &[&Scenario],
) {
    let mut scratch = SourceScratch::new();
    let mut steps = 0;
    let mut sources: Vec<_> = group
        .iter()
        .map(|scenario| {
            let job = scenario.batch_job(config.duration, config.dt, &mut scratch);
            steps = job.steps();
            job.source
        })
        .collect();
    let dt = config.dt.as_seconds();
    let name = format!("ehsim.sample_ns.{}", family.label());
    rec.span(name.clone(), |_| {
        for source in &mut sources {
            for tick in 0..steps {
                std::hint::black_box(source.power_at(Seconds::new(tick as f64 * dt)));
            }
        }
    });
    let calls = steps * sources.len() as u64;
    let ns_per_call = rec.total_s(&name) * 1e9 / calls as f64;
    rec.time(name, ns_per_call);
}

/// Folds the replayed runs into an aggregator, in scenario order, and checks
/// that the replay reproduces the production pass.
fn aggregate(
    rec: &mut Recorder,
    mut runs: Vec<(usize, RunStats)>,
    output: &CampaignResult,
    checks: &mut Checks,
) {
    runs.sort_by_key(|(id, _)| *id);
    let mut aggregator = Aggregator::new();
    rec.span("scenarios.aggregate_s", |_| {
        for (_, stats) in &runs {
            aggregator.record(stats);
        }
    });
    checks.expect(aggregator.summary().digest() == output.overall.digest(), || {
        "the layer-by-layer replay does not reproduce the campaign aggregate".to_string()
    });
}

/// `campaign_batch`: the paper grid at 100 replicates through
/// `run_batched_with` on two workers.
pub struct CampaignBatch {
    config: CampaignConfig,
    runner: ParallelRunner,
}

impl Workload for CampaignBatch {
    type Output = CampaignResult;

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(Self {
            config: paper_config(seed, 100)?,
            runner: ParallelRunner::with_threads(BATCH_WORKERS),
        })
    }

    fn units(&self) -> usize {
        self.config.space.len()
    }

    fn workers(&self) -> usize {
        self.runner.threads()
    }

    fn pass(
        &self,
        rec: &mut Recorder,
        latencies_ms: &mut Vec<f64>,
    ) -> Result<CampaignResult, String> {
        let cpu_before = if rec.is_on() { process_cpu_s() } else { None };
        let start = Instant::now();
        let result = rec.span("scenarios.run_batched", |_| {
            scenarios::run_batched_with(&self.runner, &self.config, DEFAULT_BATCH_WIDTH)
        });
        let wall_s = start.elapsed().as_secs_f64();
        latencies_ms.push(wall_s * 1e3);
        if let Some(before) = cpu_before {
            if let Some(after) = process_cpu_s() {
                let workers = self.runner.threads() as f64;
                rec.time("scenarios.runner_cpu_util", (after - before) / (wall_s * workers));
            }
        }
        Ok(result)
    }

    fn replay(&self, rec: &mut Recorder, output: &CampaignResult, checks: &mut Checks) {
        let scenarios = expand_and_fingerprint(rec, &self.config);
        let (mut ticks, mut fast) = (0, 0);
        let mut runs = Vec::with_capacity(scenarios.len());
        for (family, group) in by_family(&scenarios) {
            let label = family.label();
            let mut scratch = SourceScratch::new();
            let mut bank = BatchExecutor::new(DEFAULT_BATCH_WIDTH);
            for scenario in &group {
                bank.enqueue(scenario.batch_job(
                    self.config.duration,
                    self.config.dt,
                    &mut scratch,
                ));
            }
            let stats = rec.span(format!("isim.batch_s.{label}"), |_| bank.run_to_completion());
            let telemetry = bank.telemetry();
            rec.count(
                format!("isim.ticks_full.{label}"),
                telemetry.ticks_total - telemetry.ticks_fast_forwarded,
            );
            rec.count(
                format!("isim.ticks_checked.{label}"),
                telemetry.ticks_fast_forwarded - telemetry.ticks_steady,
            );
            rec.count(format!("isim.ticks_steady.{label}"), telemetry.ticks_steady);
            rec.count(format!("isim.horizon_recomputes.{label}"), telemetry.horizon_recomputes);
            ticks += telemetry.ticks_total;
            fast += telemetry.ticks_fast_forwarded;
            runs.extend(group.iter().map(|s| s.id).zip(stats));
            sample_sources(rec, &self.config, family, &group);
        }
        rec.time("isim.fast_forward_frac", fast as f64 / ticks as f64);
        aggregate(rec, runs, output, checks);
    }

    fn verify(&self, reference: &CampaignResult, checks: &mut Checks) -> Result<(), String> {
        let oracle = scenarios::run_with(&self.runner, &self.config);
        checks.expect(oracle == *reference, || {
            format!(
                "batched digest {:#018x} differs from the scalar oracle's {:#018x}",
                reference.digest(),
                oracle.digest()
            )
        });
        check_pinned_digest(checks)
    }
}

/// Shards `campaign_sharded` splits the campaign into.
const SHARDS: usize = 160;

/// Distinguishes the checkpoint directories of one process's set-ups.
static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// `campaign_sharded`: the paper grid at 40 replicates as 160 scalar shards
/// on one worker, each checkpointed, then resumed and merged in shard order.
pub struct CampaignSharded {
    config: CampaignConfig,
    specs: Vec<ShardSpec>,
    runner: ParallelRunner,
    dir: PathBuf,
}

impl Drop for CampaignSharded {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl CampaignSharded {
    /// Loads every checkpoint and merges the shards in order.
    fn resume(&self, rec: &mut Recorder) -> Result<CampaignResult, String> {
        let mut merged: Option<ShardResult> = None;
        for spec in &self.specs {
            let shard = rec
                .span("scenarios.record_parse_s", |_| spec.load_checkpoint(&self.dir))
                .ok_or_else(|| {
                format!("shard {} left no valid checkpoint", spec.shard_index)
            })?;
            match &mut merged {
                None => merged = Some(shard),
                Some(acc) => {
                    rec.span("scenarios.merge_s", |_| acc.merge(&shard))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        let merged = merged.ok_or("the campaign has no shards")?;
        rec.span("scenarios.merge_s", |_| merged.finish(&self.config)).map_err(|e| e.to_string())
    }
}

impl Workload for CampaignSharded {
    type Output = CampaignResult;

    fn setup(seed: u64) -> Result<Self, String> {
        let config = paper_config(seed, 40)?;
        let specs = (0..SHARDS).map(|i| ShardSpec::new(config.clone(), i, SHARDS)).collect();
        // The first checkpoint write of a pass creates the directory, so the
        // set-up touches no file: filesystem latency on a shared host would
        // swamp the microseconds it takes.
        let dir = PathBuf::from(crate::OUT_DIR).join(format!(
            "checkpoints-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        Ok(Self { config, specs, runner: ParallelRunner::serial(), dir })
    }

    fn units(&self) -> usize {
        self.config.space.len()
    }

    fn workers(&self) -> usize {
        self.runner.threads()
    }

    fn pass(
        &self,
        rec: &mut Recorder,
        latencies_ms: &mut Vec<f64>,
    ) -> Result<CampaignResult, String> {
        for spec in &self.specs {
            let start = Instant::now();
            rec.span("shard", |rec| -> Result<(), String> {
                let shard = rec.span("scenarios.shard_run", |_| {
                    spec.run_with(&self.runner, Execution::Scalar)
                });
                let path = rec
                    .span("scenarios.record_write_s", |_| spec.save_checkpoint(&self.dir, &shard))
                    .map_err(|e| format!("checkpoint of shard {}: {e}", spec.shard_index))?;
                if rec.is_on() {
                    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                    rec.count("scenarios.record_bytes", bytes);
                }
                Ok(())
            })?;
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        rec.span("scenarios.resume_s", |rec| self.resume(rec))
    }

    fn after_pass(&self) -> Result<(), String> {
        // Every pass checkpoints into a fresh directory.
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }

    fn replay(&self, rec: &mut Recorder, output: &CampaignResult, checks: &mut Checks) {
        let scenarios = expand_and_fingerprint(rec, &self.config);
        let mut runs = Vec::with_capacity(scenarios.len());
        for (family, group) in by_family(&scenarios) {
            let mut scratch = SourceScratch::new();
            let (duration, dt) = (self.config.duration, self.config.dt);
            let stats: Vec<RunStats> = rec
                .span(format!("isim.scalar_s.{}", family.label()), |_| {
                    group.iter().map(|s| s.run_with_scratch(duration, dt, &mut scratch)).collect()
                });
            runs.extend(group.iter().map(|s| s.id).zip(stats));
            sample_sources(rec, &self.config, family, &group);
        }
        aggregate(rec, runs, output, checks);
    }

    fn verify(&self, reference: &CampaignResult, checks: &mut Checks) -> Result<(), String> {
        let runner = ParallelRunner::with_threads(BATCH_WORKERS);
        let batched = scenarios::run_batched_with(&runner, &self.config, DEFAULT_BATCH_WIDTH);
        checks.expect(batched == *reference, || {
            format!(
                "merged shards give digest {:#018x}, run_batched_with gives {:#018x}",
                reference.digest(),
                batched.digest()
            )
        });
        check_pinned_digest(checks)
    }
}
