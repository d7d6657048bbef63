//! Integration tests of the scenario campaign engine, pinning the
//! acceptance criteria: a seeded campaign of ≥ 200 scenarios completes
//! through the parallel engine and its aggregate statistics are identical
//! across invocations with the same seed (and across worker counts).

use experiments::campaign;
use scenarios::{CampaignConfig, ParallelRunner, ScenarioSpace, SourceFamily};

#[test]
fn a_200_plus_run_campaign_is_deterministic_across_invocations() {
    let config = campaign::paper_campaign(0xCAFE).expect("campaign config builds");
    assert!(config.space.len() >= 200, "only {} scenarios", config.space.len());

    let runner = ParallelRunner::new();
    let first = scenarios::run_with(&runner, &config);
    let second = scenarios::run_with(&runner, &config);

    assert_eq!(first.runs, config.space.len());
    assert_eq!(first, second, "same seed must reproduce the whole aggregate");
    assert_eq!(first.digest(), second.digest());

    // A different seed must not alias onto the same statistics.
    let reseeded = campaign::paper_campaign(0xBEEF).expect("campaign config builds");
    assert_ne!(first.digest(), scenarios::run_with(&runner, &reseeded).digest());
}

#[test]
fn parallel_and_serial_campaigns_agree_for_every_worker_count() {
    let config = CampaignConfig::smoke();
    let serial = scenarios::run_with(&ParallelRunner::serial(), &config);
    for threads in [2, 3, 8] {
        let parallel = scenarios::run_with(&ParallelRunner::with_threads(threads), &config);
        assert_eq!(serial, parallel, "{threads} workers diverged from the serial baseline");
    }
}

#[test]
fn the_paper_campaign_digest_is_identical_across_serial_parallel_and_batched_execution() {
    // The acceptance pin of the batch engine: the 216-run paper campaign
    // aggregates bit-identically whatever executes it — one worker, the
    // all-cores scalar fan-out, or the batch executor at any batch
    // width and worker count.
    let config = campaign::paper_campaign(0xD1AC).expect("campaign config builds");
    assert!(config.space.len() >= 200, "only {} scenarios", config.space.len());
    let serial = scenarios::run_with(&ParallelRunner::serial(), &config);
    // The blessed digest of the 216-run paper campaign at seed 0xD1AC.
    // Changing it is a numeric-stream transition and must be re-blessed
    // exactly once per documented change (DESIGN.md "Exact integer
    // accumulators" — the PR 10 value; its transition record lists the
    // PR 9 counter-indexed-RNG digest this one superseded).
    assert_eq!(serial.digest(), 0x0C05_A4BB_5A89_75CF, "serial digest moved off the blessed value");
    let parallel = scenarios::run_with(&ParallelRunner::with_threads(4), &config);
    assert_eq!(serial, parallel, "parallel scalar diverged");
    for width in [1, 16, 64, 256] {
        let batched = scenarios::run_batched_with(&ParallelRunner::serial(), &config, width);
        assert_eq!(serial, batched, "batch width {width} diverged");
        assert_eq!(serial.digest(), batched.digest());
    }
    let batched_parallel =
        scenarios::run_batched_with(&ParallelRunner::with_threads(4), &config, 16);
    assert_eq!(serial, batched_parallel, "parallel batched diverged");
}

#[test]
fn the_sharded_paper_campaign_matches_the_unsharded_oracle_at_every_count() {
    // The acceptance pin of the shard engine: the 216-run paper campaign,
    // split into 1, 3 or 8 contiguous shards and merged, is bit-identical —
    // full result equality and the widened digest — to the unsharded scalar
    // oracle, for both per-shard engines.
    let config = campaign::paper_campaign(0xD1AC).expect("campaign config builds");
    let oracle = scenarios::run_with(&ParallelRunner::serial(), &config);
    for shard_count in [1, 3, 8] {
        let scalar = scenarios::run_sharded_with(
            &ParallelRunner::with_threads(4),
            &config,
            shard_count,
            scenarios::Execution::Scalar,
            None,
        )
        .expect("no checkpoint to write");
        assert_eq!(oracle, scalar, "{shard_count} scalar shards diverged");
        assert_eq!(oracle.digest(), scalar.digest());
        let batched = scenarios::run_sharded_with(
            &ParallelRunner::with_threads(4),
            &config,
            shard_count,
            scenarios::Execution::Batched { width: 16 },
            None,
        )
        .expect("no checkpoint to write");
        assert_eq!(oracle, batched, "{shard_count} batched shards diverged");
    }
}

#[test]
fn the_paper_campaign_exercises_every_axis() {
    let config = campaign::paper_campaign(1).expect("campaign config builds");
    let scenarios = config.space.scenarios(config.seed);
    for family in SourceFamily::ALL {
        assert!(
            scenarios.iter().any(|s| s.source.family() == family),
            "family {family} missing from the campaign"
        );
    }
    for tech in tech45::nvm::NvmTechnology::ALL {
        assert!(scenarios.iter().any(|s| s.technology == tech), "{tech:?} missing");
    }
    let sizing_labels: std::collections::BTreeSet<String> =
        scenarios.iter().map(|s| s.sizing.label()).collect();
    assert_eq!(sizing_labels.len(), 2, "baseline and DIAC sizings: {sizing_labels:?}");
    let margins: std::collections::BTreeSet<u64> = scenarios
        .iter()
        .map(|s| (s.thresholds.safe_zone - s.thresholds.backup).as_millijoules().round() as u64)
        .collect();
    assert!(margins.len() >= 3, "safe-zone margins: {margins:?}");
}

#[test]
fn the_sizing_axis_is_paired_and_observable() {
    let config = campaign::paper_campaign(3).expect("campaign config builds");
    let scenarios = config.space.scenarios(config.seed);
    // Common random numbers: scenarios that differ only in technology or
    // sizing share the same seed, so the baseline-vs-DIAC comparison runs on
    // identical harvest/jitter sample paths.
    for a in &scenarios {
        for b in &scenarios {
            if a.source == b.source && a.thresholds == b.thresholds {
                assert_eq!(a.seed, b.seed, "#{} and #{} must be paired", a.id, b.id);
            }
        }
    }
    // And the comparison is readable from the result: one slice per sizing,
    // splitting the runs evenly.
    let result = scenarios::run_with(&ParallelRunner::new(), &config);
    assert_eq!(result.by_sizing.len(), 2, "baseline and DIAC slices");
    for (label, summary) in &result.by_sizing {
        assert_eq!(summary.runs, result.runs / 2, "sizing slice {label} is half the grid");
    }
}

#[test]
fn campaign_aggregates_expose_the_safe_zone_benefit() {
    // Across the whole smoke grid, scenarios exist where the node both makes
    // progress and recovers from safe-zone dips without an NVM write — the
    // behaviour the optimized DIAC scheme monetises.
    let result = scenarios::run_with(&ParallelRunner::new(), &CampaignConfig::smoke());
    let recoveries = result.overall.row("safe_zone_recoveries").expect("metric present");
    assert!(recoveries.max >= 1.0, "{}", result.overall);
    let progress = result.overall.row("progress").expect("metric present");
    assert!(progress.p90 >= 1.0, "{}", result.overall);
}

#[test]
fn smoke_and_paper_spaces_stay_distinct() {
    assert!(ScenarioSpace::smoke().len() < 20);
    let paper = campaign::paper_campaign(0).expect("builds").space;
    assert!(paper.len() >= 200, "paper grid shrank to {}", paper.len());
}

/// The paper grid at `replicates` replicates per grid point.
fn paper_at(seed: u64, replicates: usize) -> CampaignConfig {
    let mut config = campaign::paper_campaign(seed).expect("campaign config builds");
    config.space.replicates = replicates;
    config
}

#[test]
fn batched_campaigns_match_the_scalar_oracle_on_the_smoke_and_tripled_paper_grids() {
    // The batched path runs one sibling per stochastic point, and the rest
    // fork from it at its first backup or copy its statistics; the scalar
    // path runs every scenario in full.  Both grids hold groups that back
    // up (fig4) and groups that never do.
    for config in [CampaignConfig::smoke(), paper_at(0xD1AC, 3)] {
        let oracle = scenarios::run_with(&ParallelRunner::serial(), &config);
        for width in [1, 3, 64] {
            for runner in [ParallelRunner::serial(), ParallelRunner::with_threads(8)] {
                let batched = scenarios::run_batched_with(&runner, &config, width);
                assert_eq!(
                    oracle,
                    batched,
                    "{} scenarios, width {width}, {} workers diverged",
                    config.space.len(),
                    runner.threads()
                );
            }
        }
    }
}

#[test]
fn batched_ranges_that_cut_sibling_groups_match_the_scalar_rows() {
    use scenarios::{run_range_with, Execution};
    // Three replicates: the siblings of one stochastic point lie three ids
    // apart, so most ranges hold only some of a group.
    let config = paper_at(0xD1AC, 3);
    let scenarios = config.space.scenarios(config.seed);
    // A scenario whose run backs up, and its next sibling three ids on.
    let backs_up = scenarios
        .iter()
        .find(|s| s.run(config.duration, config.dt).reads_backup_unit())
        .expect("the paper grid backs up somewhere")
        .id;
    assert_eq!(scenarios[backs_up + 3].seed, scenarios[backs_up].seed, "siblings share a seed");
    let ranges = [0..config.space.len(), 5..200, 7..8, 100..101, backs_up..backs_up + 4];
    for range in ranges {
        for width in [1, 3, 64] {
            for runner in [ParallelRunner::serial(), ParallelRunner::with_threads(8)] {
                let scalar = run_range_with(&runner, &config, range.clone(), Execution::Scalar);
                let batched =
                    run_range_with(&runner, &config, range.clone(), Execution::Batched { width });
                assert_eq!(scalar, batched, "range {range:?}, width {width} diverged");
            }
        }
    }
}

#[test]
fn two_of_the_27_paper_groups_read_their_backup_unit() {
    // The traffic the batched path saves: 27 stochastic points of eight
    // technology × sizing siblings each, of which only the representatives
    // of one Markov and one schedule point ever back up or restore.
    let config = campaign::paper_campaign(0xD1AC).expect("campaign config builds");
    let scenarios = config.space.scenarios(config.seed);
    let mut groups: Vec<Vec<&scenarios::Scenario>> = Vec::new();
    for scenario in &scenarios {
        match groups.iter_mut().find(|g| g[0].seed == scenario.seed) {
            Some(group) => group.push(scenario),
            None => groups.push(vec![scenario]),
        }
    }
    assert_eq!(groups.len(), 27);
    assert!(groups.iter().all(|g| g.len() == 8), "eight siblings per stochastic point");
    let reading: Vec<SourceFamily> = groups
        .iter()
        .filter(|g| g[0].run(config.duration, config.dt).reads_backup_unit())
        .map(|g| g[0].source.family())
        .collect();
    assert_eq!(reading, [SourceFamily::Markov, SourceFamily::Schedule]);
}

#[test]
fn batched_solar_lanes_of_two_day_lengths_match_the_scalar_rows() {
    use scenarios::{run_range_with, Execution, SourceSpec};
    use tech45::units::{Power, Seconds};
    // A batched pass builds one sun table per solar spec on its own tick
    // grid, and each solar lane must read its own grid's table.  The
    // second solar spec's sub-range builds only its table.
    let solar = |day: f64, seed: u64| SourceSpec::Solar {
        peak: Power::from_milliwatts(0.8),
        day_length: Seconds::new(day),
        cloudiness: 0.3,
        seed,
    };
    let mut config = CampaignConfig::smoke();
    config.space.sources = vec![
        solar(2000.0, 3),
        SourceSpec::Constant { power: Power::from_milliwatts(0.1) },
        solar(700.0, 8),
    ];
    config.space.replicates = 2;
    let per_source = config.space.len() / config.space.sources.len();
    for dt in [0.5, 0.25] {
        config.dt = Seconds::new(dt);
        for range in [0..config.space.len(), 2 * per_source..3 * per_source] {
            for runner in [ParallelRunner::serial(), ParallelRunner::with_threads(2)] {
                let scalar = run_range_with(&runner, &config, range.clone(), Execution::Scalar);
                for width in [1, 64] {
                    let batched = run_range_with(
                        &runner,
                        &config,
                        range.clone(),
                        Execution::Batched { width },
                    );
                    assert_eq!(
                        scalar,
                        batched,
                        "dt {dt}, range {range:?}, width {width}, {} workers",
                        runner.threads()
                    );
                }
            }
        }
    }
}
