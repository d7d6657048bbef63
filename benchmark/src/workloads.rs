//! The workload definitions, the metric catalogue and the layer → metric
//! predictions every later performance claim is checked against.
//!
//! `BENCHMARK.json` at the repository root lists the same workloads and
//! metrics; the `catalogue_matches_benchmark_json` test keeps the two in
//! step.

use netlist::suite::SuiteKind;
use scenarios::SourceFamily;

/// One benchmark workload: a closed-loop batch job from a single process.
pub struct WorkloadSpec {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (what it stresses and what it bypasses).
    pub why: &'static str,
    /// What one unit of `units_per_s` is.
    pub unit: &'static str,
    /// What one latency sample is.
    pub latency_sample: &'static str,
}

/// The three workloads.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "campaign_batch",
        why: "The production fast path: the paper grid at 100 replicates (21 600 scenarios \
              of 1500 s at 0.5 s) through run_batched_with on 2 workers at the default \
              batch width. Burn tiers and source sampling do most of the work (RFID and \
              solar dominate), and it is the only 2-worker workload, so it carries the \
              batched_stats chunking imbalance.",
        unit: "scenario",
        latency_sample: "one whole batched campaign",
    },
    WorkloadSpec {
        name: "campaign_sharded",
        why: "The campaign-service worker/merge cycle on the scalar engine (the default \
              --mode parallel of both CLIs): the paper grid at 40 replicates as 160 \
              scalar shards on 1 worker, each checkpointed, then resumed by \
              load_checkpoint -> merge -> finish. It bypasses the burn tiers and the \
              scheduler and exercises record writes and parses, fingerprinting and merge.",
        unit: "scenario",
        latency_sample: "one shard, run plus checkpoint",
    },
    WorkloadSpec {
        name: "synthesis_suite",
        why: "The paper's headline PDP figure: all 24 registry circuits through \
              materialize -> prepare -> compare_all -> verify_replacement on 1 worker, \
              fresh artifacts every pass. Only netlist and diac-core run; the equivalence \
              checks and b14/b15 dominate, so the tail latency matters.",
        unit: "circuit",
        latency_sample: "one circuit through the whole flow",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics (host time), reported by every untraced run:
/// the median set-up time, work units per second (units completed over the
/// time spent in passes), the median and 90th percentile across units of
/// each unit's mean latency, and the peak resident memory.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The label of a benchmark family in per-layer metric names.
pub fn suite_label(suite: SuiteKind) -> &'static str {
    match suite {
        SuiteKind::Iscas89 => "iscas89",
        SuiteKind::Itc99 => "itc99",
        SuiteKind::Mcnc => "mcnc",
    }
}

/// Per-layer metrics of the traced run, with units, in report order.  A
/// workload that bypasses a layer reports 0 for its metrics.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    let families = || SourceFamily::ALL.into_iter().map(SourceFamily::label);
    let suites = || SuiteKind::ALL.into_iter().map(suite_label);
    for (stem, unit) in [
        ("isim.batch_s", "s"),
        ("isim.ticks_full", "count"),
        ("isim.ticks_checked", "count"),
        ("isim.ticks_steady", "count"),
        ("isim.horizon_recomputes", "count"),
        ("isim.scalar_s", "s"),
        ("ehsim.sample_ns", "ns"),
    ] {
        out.extend(families().map(|f| (format!("{stem}.{f}"), unit)));
    }
    for (name, unit) in [
        ("isim.fast_forward_frac", "ratio"),
        ("scenarios.runner_cpu_util", "ratio"),
        ("scenarios.aggregate_s", "s"),
        ("scenarios.expand_ms", "ms"),
        ("scenarios.fingerprint_ms", "ms"),
        ("scenarios.record_write_s", "s"),
        ("scenarios.record_parse_s", "s"),
        ("scenarios.record_bytes", "bytes"),
        ("scenarios.merge_s", "s"),
        ("scenarios.resume_s", "s"),
    ] {
        out.push((name.to_string(), unit));
    }
    for stem in [
        "netlist.materialize_s",
        "netlist.equiv_s",
        "core.prepare_s",
        "core.compare_s",
        "core.replace_s",
    ] {
        out.extend(suites().map(|s| (format!("{stem}.{s}"), "s")));
    }
    for (name, unit) in [
        ("netlist.gates", "count"),
        ("netlist.equiv_vectors", "count"),
        ("trace.overhead_frac", "ratio"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// One row of the layer → end-to-end prediction table: which end-to-end
/// metric a change to the layer should move, and on which workload.
pub struct Prediction {
    /// The per-layer metric (`<fam>` is a source family, `<suite>` a
    /// benchmark family).
    pub metric: &'static str,
    /// The public call the span or counter sits around.
    pub around: &'static str,
    /// The end-to-end metrics and workloads it should move, and where it
    /// should not.
    pub moves: &'static str,
}

/// The predictions, cited by name in later performance claims.  Burn-tier
/// and scheduling changes show only on `campaign_batch`; scalar-executor,
/// codec and merge changes only on `campaign_sharded`; synthesis changes only
/// on `synthesis_suite`; source-layer changes on both campaigns and not on
/// `synthesis_suite`.
pub const PREDICTIONS: &[Prediction] = &[
    Prediction {
        metric: "isim.batch_s.<fam>",
        around: "BatchExecutor::run_to_completion on one bank per family",
        moves: "units_per_s on campaign_batch",
    },
    Prediction {
        metric: "isim.ticks_{full,checked,steady}.<fam>, isim.horizon_recomputes.<fam>, \
                 isim.fast_forward_frac",
        around: "exact counts from BatchExecutor::telemetry()",
        moves: "units_per_s on campaign_batch; no move on campaign_sharded",
    },
    Prediction {
        metric: "isim.scalar_s.<fam>",
        around: "Scenario::run_with_scratch",
        moves: "units_per_s, latency_p90_ms on campaign_sharded",
    },
    Prediction {
        metric: "ehsim.sample_ns.<fam>",
        around: "HarvestSource::power_at over each scenario's tick grid",
        moves: "units_per_s on both campaigns, most on rfid/solar",
    },
    Prediction {
        metric: "scenarios.runner_cpu_util",
        around: "process CPU time / (wall x workers) during run_batched_with",
        moves: "units_per_s on campaign_batch",
    },
    Prediction {
        metric: "scenarios.aggregate_s",
        around: "Aggregator::record over every run",
        moves: "units_per_s on both campaigns",
    },
    Prediction {
        metric: "scenarios.expand_ms, scenarios.fingerprint_ms",
        around: "one ScenarioSpace::scenarios / CampaignConfig::fingerprint call",
        moves: "latency_p50_ms, scenarios.resume_s on campaign_sharded",
    },
    Prediction {
        metric: "scenarios.record_write_s, scenarios.record_parse_s, scenarios.record_bytes",
        around: "ShardSpec::save_checkpoint / ShardSpec::load_checkpoint",
        moves: "latency_p50_ms, scenarios.resume_s on campaign_sharded",
    },
    Prediction {
        metric: "scenarios.merge_s, scenarios.resume_s",
        around: "ShardResult::merge + finish / the whole resume pass",
        moves: "units_per_s on campaign_sharded",
    },
    Prediction {
        metric: "netlist.materialize_s.<suite>, netlist.equiv_s.<suite>, netlist.gates, \
                 netlist.equiv_vectors",
        around: "CircuitSpec::materialize; verify_replacement once replaced_netlist is cached",
        moves: "units_per_s, latency_p90_ms on synthesis_suite",
    },
    Prediction {
        metric: "core.prepare_s.<suite>, core.compare_s.<suite>, core.replace_s.<suite>",
        around: "SynthesisPipeline::prepare, compare_all, CircuitArtifacts::replaced_netlist",
        moves: "units_per_s, latency_p90_ms on synthesis_suite; no move on either campaign",
    },
    Prediction {
        metric: "trace.overhead_frac",
        around: "traced vs untraced production pass time",
        moves: "none: the cost of tracing",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        let mut named = 0;
        for workload in &WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\":\"{}\"", workload.name)),
                "{}",
                workload.name
            );
            named += 1;
        }
        for (name, unit) in END_TO_END {
            assert!(
                compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "{name}"
            );
            named += 1;
        }
        for (name, unit) in per_layer() {
            assert!(
                compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "{name}"
            );
            named += 1;
        }
        assert_eq!(compact.matches("\"name\":").count(), named, "BENCHMARK.json lists extra names");
    }
}
