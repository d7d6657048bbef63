//! The perf telemetry suite: a fixed set of quick benchmarks whose results
//! are emitted as machine-readable `BENCH_<tag>.json` artifacts.
//!
//! The Criterion-style targets under `benches/` are for interactive
//! exploration; this module is the piece CI tracks.  It times three fixed
//! workloads that exercise the repo's hot paths end to end:
//!
//! * `tree_restructure_s298` — operand-tree clustering plus a Policy3
//!   restructuring pass (the `OperandTree` split/merge arena),
//! * `replacement_s27` — the leaves-to-roots NVM replacement traversal on
//!   the embedded `s27` circuit (the paper's worked example),
//! * `campaign_216` — the full 216-run paper scenario campaign through the
//!   `IntermittentExecutor` tick loop and the parallel work-queue,
//! * `campaign_216_batch` — the identical campaign through the
//!   structure-of-arrays `BatchExecutor` (64 lanes per worker bank, same
//!   digest); the ratio to `campaign_216` is the batch-engine speedup,
//! * `batch_executor_s27` — one raw 64-lane bank of the s27-DIAC-sized
//!   scenario under the scarce schedule, without campaign plumbing,
//! * `source_sample_solar` / `source_sample_rfid` / `source_sample_markov` —
//!   3000 ticks of raw `power_at` sampling per stochastic source family (the
//!   counter-indexed draw cost the campaign loops pay per checked tick),
//! * `scalar_sim_s298` / `bitsim_s298` — 64 input patterns through the
//!   scalar simulator (64 dense-slot passes) vs. the 64-lane `BitSim` (one
//!   word-parallel pass over the CSR slices); the pair documents the
//!   bit-parallel speedup in every artifact,
//! * `equiv_s27` — the seeded functional-equivalence pass on the embedded
//!   `s27`: materialise the DIAC-replaced netlist and compare it against
//!   the original over the default vector budget.
//!
//! Every benchmark reports its per-iteration median (the robust statistic
//! the CI gate compares), mean/min/max, and a runs-per-second figure; the
//! report adds total wall time and peak RSS.  [`PerfReport::to_json`] and
//! [`PerfReport::from_json`] round-trip the artifact, and [`compare`]
//! implements the regression gate: a benchmark regresses when its median
//! exceeds the baseline median by more than the noise threshold.
//!
//! See `DESIGN.md` ("Perf gate") for how `BENCH_baseline.json` is blessed
//! and what the threshold means.

use std::fmt::Write as _;
use std::time::Instant;

use diac_core::policy::{apply_policy, Policy, PolicyBounds};
use diac_core::replacement::{insert_nvm_boundaries, ReplacementConfig};
use diac_core::tree::OperandTree;
use isim::batch::BatchExecutor;
use netlist::bitsim::{lane, pack_lanes, BitSim};
use netlist::equiv::EquivConfig;
use netlist::sim::Simulator;
use scenarios::campaign::{run_batched_with, run_with};
use scenarios::space::SourceScratch;
use scenarios::{ParallelRunner, Scenario, SourceSpec};
use tech45::units::Seconds;

/// Schema identifier embedded in every artifact.
pub const SCHEMA: &str = "diac-perf-v1";

/// Default noise threshold of the regression gate: a median more than 25 %
/// above the baseline fails the comparison.
pub const DEFAULT_MAX_REGRESSION: f64 = 0.25;

/// How far `batch_fast_forward_fraction` may fall below the baseline before
/// the gate fails (5 points): the fraction is a quality bar for the
/// event-horizon executor, not just telemetry — a larger drop means steady
/// windows stopped being recognised somewhere.
pub const FAST_FORWARD_DROP_TOLERANCE: f64 = 0.05;

/// Timing record of one fixed benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable benchmark name (the comparison key).
    pub name: String,
    /// Timed iterations (after one untimed warm-up).
    pub iterations: usize,
    /// Median per-iteration wall time in nanoseconds.
    pub median_ns: u64,
    /// Mean per-iteration wall time in nanoseconds.
    pub mean_ns: u64,
    /// Fastest iteration in nanoseconds.
    pub min_ns: u64,
    /// Slowest iteration in nanoseconds.
    pub max_ns: u64,
    /// Iterations per second implied by the median.
    pub runs_per_sec: f64,
}

impl BenchRecord {
    fn from_samples(name: &str, mut samples: Vec<u64>) -> Self {
        assert!(!samples.is_empty(), "benchmark {name} produced no samples");
        samples.sort_unstable();
        let n = samples.len();
        let median = if n % 2 == 1 {
            samples[n / 2]
        } else {
            u64::midpoint(samples[n / 2 - 1], samples[n / 2])
        };
        let mean = (samples.iter().map(|&s| u128::from(s)).sum::<u128>() / n as u128) as u64;
        let runs_per_sec = if median == 0 { 0.0 } else { 1e9 / median as f64 };
        Self {
            name: name.to_string(),
            iterations: n,
            median_ns: median,
            mean_ns: mean,
            min_ns: samples[0],
            max_ns: samples[n - 1],
            runs_per_sec,
        }
    }
}

/// One emitted `BENCH_<tag>.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Artifact tag (`baseline`, `3`, `pr`, …).
    pub tag: String,
    /// Wall time of the whole suite in milliseconds.
    pub wall_ms: u64,
    /// Peak resident set size in kilobytes (0 where unavailable).
    pub peak_rss_kb: u64,
    /// Worker threads the campaign benchmark ran with.
    pub threads: usize,
    /// Fraction of the batched paper campaign's ticks that the event-horizon
    /// executor fast-forwarded (0 in artifacts predating the telemetry).
    pub batch_fast_forward_fraction: f64,
    /// The per-benchmark records, in suite order.
    pub benchmarks: Vec<BenchRecord>,
}

impl PerfReport {
    /// Looks a benchmark up by name.
    #[must_use]
    pub fn bench(&self, name: &str) -> Option<&BenchRecord> {
        self.benchmarks.iter().find(|b| b.name == name)
    }

    /// Serialises the report as the `BENCH_<tag>.json` artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"tag\": \"{}\",", self.tag);
        let _ = writeln!(out, "  \"wall_ms\": {},", self.wall_ms);
        let _ = writeln!(out, "  \"peak_rss_kb\": {},", self.peak_rss_kb);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(
            out,
            "  \"batch_fast_forward_fraction\": {:.6},",
            self.batch_fast_forward_fraction
        );
        let _ = writeln!(out, "  \"benchmarks\": [");
        for (i, b) in self.benchmarks.iter().enumerate() {
            let comma = if i + 1 == self.benchmarks.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"iterations\": {}, \"median_ns\": {}, \
                 \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"runs_per_sec\": {:.3}}}{}",
                b.name,
                b.iterations,
                b.median_ns,
                b.mean_ns,
                b.min_ns,
                b.max_ns,
                b.runs_per_sec,
                comma
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a `BENCH_<tag>.json` artifact produced by [`Self::to_json`].
    ///
    /// The parser is deliberately scoped to this crate's own schema — it is
    /// not a general JSON reader.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let schema = string_field(text, "schema").ok_or("missing schema field")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (expected `{SCHEMA}`)"));
        }
        let tag = string_field(text, "tag").ok_or("missing tag field")?;
        let wall_ms = number_field(text, "wall_ms").ok_or("missing wall_ms field")? as u64;
        let peak_rss_kb =
            number_field(text, "peak_rss_kb").ok_or("missing peak_rss_kb field")? as u64;
        let threads = number_field(text, "threads").ok_or("missing threads field")? as usize;
        let array_start = text.find("\"benchmarks\"").ok_or("missing benchmarks array")?;
        let mut benchmarks = Vec::new();
        for object in text[array_start..].split('{').skip(1) {
            let object = object.split('}').next().unwrap_or("");
            let name = string_field(object, "name")
                .ok_or_else(|| format!("benchmark entry without a name: `{object}`"))?;
            let field = |key: &str| {
                number_field(object, key).ok_or_else(|| format!("benchmark {name}: missing {key}"))
            };
            benchmarks.push(BenchRecord {
                iterations: field("iterations")? as usize,
                median_ns: field("median_ns")? as u64,
                mean_ns: field("mean_ns")? as u64,
                min_ns: field("min_ns")? as u64,
                max_ns: field("max_ns")? as u64,
                runs_per_sec: field("runs_per_sec")?,
                name,
            });
        }
        if benchmarks.is_empty() {
            return Err("benchmarks array is empty".to_string());
        }
        let batch_fast_forward_fraction =
            number_field(text, "batch_fast_forward_fraction").unwrap_or(0.0);
        Ok(Self { tag, wall_ms, peak_rss_kb, threads, batch_fast_forward_fraction, benchmarks })
    }

    /// Renders the report as a markdown table (the human-facing summary next
    /// to the JSON artifact).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "### Perf quick suite — tag `{}`\n\n{} benchmarks, {} ms wall, peak RSS {} kB, \
             {} campaign worker(s)\n\n| benchmark | median | mean | min | max | runs/sec |\n\
             |---|---|---|---|---|---|\n",
            self.tag,
            self.benchmarks.len(),
            self.wall_ms,
            self.peak_rss_kb,
            self.threads
        );
        for b in &self.benchmarks {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} | {} | {:.1} |",
                b.name,
                fmt_ns(b.median_ns),
                fmt_ns(b.mean_ns),
                fmt_ns(b.min_ns),
                fmt_ns(b.max_ns),
                b.runs_per_sec
            );
        }
        if let (Some(scalar), Some(batch)) =
            (self.bench("campaign_216"), self.bench("campaign_216_batch"))
        {
            if batch.median_ns > 0 {
                let _ = writeln!(
                    out,
                    "\nBatch-engine speedup (`campaign_216` / `campaign_216_batch`): \
                     **{:.2}x**.",
                    scalar.median_ns as f64 / batch.median_ns as f64
                );
                if self.batch_fast_forward_fraction > 0.0 {
                    let _ = writeln!(
                        out,
                        "Event-horizon fast-forwarded ticks: **{:.1} %**.",
                        self.batch_fast_forward_fraction * 100.0
                    );
                }
            }
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Extracts `"key": "value"` from our own JSON dialect.
fn string_field(text: &str, key: &str) -> Option<String> {
    let pattern = format!("\"{key}\"");
    let rest = &text[text.find(&pattern)? + pattern.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts `"key": <number>` from our own JSON dialect.
fn number_field(text: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\"");
    let rest = &text[text.find(&pattern)? + pattern.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// How one benchmark moved against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Benchmark name.
    pub name: String,
    /// Baseline median in nanoseconds.
    pub baseline_ns: u64,
    /// Current median in nanoseconds.
    pub current_ns: u64,
    /// `current / baseline` (1.0 = unchanged, above 1 = slower).
    pub ratio: f64,
    /// Whether the slowdown exceeds the noise threshold.
    pub regressed: bool,
}

/// Outcome of comparing a report against the committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-benchmark deltas (benchmarks present in both reports).
    pub deltas: Vec<BenchDelta>,
    /// Benchmarks present in the baseline but missing from the current
    /// report — treated as failures (a silently dropped benchmark must not
    /// pass the gate).
    pub missing: Vec<String>,
    /// Intra-report invariant violations in the *current* report — e.g. the
    /// batched campaign running slower than the scalar one.  Each fails the
    /// gate regardless of the baseline.
    pub violations: Vec<String>,
    /// The threshold the deltas were judged against.
    pub max_regression: f64,
}

impl Comparison {
    /// Whether the gate passes: nothing regressed, nothing went missing, no
    /// invariant violated.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.missing.is_empty()
            && self.violations.is_empty()
            && self.deltas.iter().all(|d| !d.regressed)
    }

    /// Markdown rendering of the comparison (the PR-facing summary).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "### Perf gate vs baseline (threshold +{:.0} %)\n\n\
             | benchmark | baseline | current | ratio | verdict |\n|---|---|---|---|---|\n",
            self.max_regression * 100.0
        );
        for d in &self.deltas {
            let verdict = if d.regressed {
                "**REGRESSED**"
            } else if d.ratio < 1.0 {
                "improved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {:.2}x | {} |",
                d.name,
                fmt_ns(d.baseline_ns),
                fmt_ns(d.current_ns),
                d.ratio,
                verdict
            );
        }
        for name in &self.missing {
            let _ = writeln!(out, "| `{name}` | — | missing | — | **MISSING** |");
        }
        for violation in &self.violations {
            let _ = writeln!(out, "\n**VIOLATION**: {violation}");
        }
        let _ = writeln!(
            out,
            "\n{}",
            if self.passed() { "Gate **passed**." } else { "Gate **failed**." }
        );
        out
    }
}

/// Compares `current` against `baseline` with the given noise threshold.
#[must_use]
pub fn compare(baseline: &PerfReport, current: &PerfReport, max_regression: f64) -> Comparison {
    // The scalar/batch campaign pair is judged against each other within
    // the same report (below) instead of by the absolute-median threshold:
    // absolute gates on the two slowest benchmarks kept tripping on slow
    // host-days.  They still fail the gate when missing.
    const RATIO_GATED: [&str; 2] = ["campaign_216", "campaign_216_batch"];
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for base in &baseline.benchmarks {
        match current.bench(&base.name) {
            Some(now) => {
                let ratio = if base.median_ns == 0 {
                    1.0
                } else {
                    now.median_ns as f64 / base.median_ns as f64
                };
                let ratio_gated = RATIO_GATED.contains(&base.name.as_str());
                deltas.push(BenchDelta {
                    name: base.name.clone(),
                    baseline_ns: base.median_ns,
                    current_ns: now.median_ns,
                    ratio,
                    regressed: !ratio_gated && ratio > 1.0 + max_regression,
                });
            }
            None => missing.push(base.name.clone()),
        }
    }
    let mut violations = Vec::new();
    // The event-horizon fast-forward fraction must not silently erode: a
    // drop of more than [`FAST_FORWARD_DROP_TOLERANCE`] vs the baseline
    // fails the gate.  Baselines predating the telemetry parse the field as
    // 0.0 and skip the check.
    if baseline.batch_fast_forward_fraction > 0.0
        && current.batch_fast_forward_fraction
            < baseline.batch_fast_forward_fraction - FAST_FORWARD_DROP_TOLERANCE
    {
        violations.push(format!(
            "`batch_fast_forward_fraction` fell to {:.1} % from the baseline's {:.1} % \
             (tolerance is {:.0} points)",
            current.batch_fast_forward_fraction * 100.0,
            baseline.batch_fast_forward_fraction * 100.0,
            FAST_FORWARD_DROP_TOLERANCE * 100.0
        ));
    }
    // The batch engine exists to beat the scalar campaign; a current report
    // where it does not is a defect even if both medians moved "within
    // threshold" against the baseline.
    if let (Some(scalar), Some(batch)) =
        (current.bench("campaign_216"), current.bench("campaign_216_batch"))
    {
        if batch.median_ns > scalar.median_ns {
            violations.push(format!(
                "`campaign_216_batch` median ({}) is slower than the scalar `campaign_216` \
                 median ({}) — the batch engine must not lose to the per-scenario loop",
                fmt_ns(batch.median_ns),
                fmt_ns(scalar.median_ns)
            ));
        }
    }
    Comparison { deltas, missing, violations, max_regression }
}

/// Scales the per-benchmark iteration counts of [`run_quick_suite`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Multiplier on the default iteration counts (1.0 = the CI defaults;
    /// smaller values make smoke tests fast).
    pub scale: f64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self { scale: 1.0 }
    }
}

impl SuiteConfig {
    fn iters(&self, default: usize) -> usize {
        ((default as f64 * self.scale).round() as usize).max(3)
    }
}

fn time_iters<T>(iters: usize, mut routine: impl FnMut() -> T) -> Vec<u64> {
    std::hint::black_box(routine()); // warm-up
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(routine());
        samples.push(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    samples
}

/// Runs the fixed quick suite and returns the report.
///
/// # Panics
///
/// Panics on registry/synthesis bugs (the suite runs only embedded and
/// registry circuits, so a failure is a programming error).
#[must_use]
pub fn run_quick_suite(tag: &str, config: &SuiteConfig) -> PerfReport {
    let suite_start = Instant::now();
    let runner = ParallelRunner::new();
    let mut benchmarks = Vec::new();

    // 1. tree restructure: Policy3 split/merge over the s298 operand tree.
    let ctx = crate::bench_context();
    let s298 = crate::circuit("s298");
    let base_tree = OperandTree::from_netlist(&s298, &ctx.library, &ctx.tree_config)
        .expect("s298 operand tree");
    let bounds = PolicyBounds::relative_to(&base_tree, 0.25, 0.02);
    benchmarks.push(BenchRecord::from_samples(
        "tree_restructure_s298",
        time_iters(config.iters(300), || {
            let mut tree = base_tree.clone();
            apply_policy(&mut tree, Policy::Policy3, &bounds, &ctx.library).expect("policy3");
            tree
        }),
    ));

    // 2. replacement run on the embedded s27 (the paper's worked example).
    let s27 = netlist::parser::parse_bench("s27", netlist::embedded::S27_BENCH).expect("s27");
    let s27_tree =
        OperandTree::from_netlist(&s27, &ctx.library, &ctx.tree_config).expect("s27 operand tree");
    benchmarks.push(BenchRecord::from_samples(
        "replacement_s27",
        time_iters(config.iters(2000), || {
            insert_nvm_boundaries(s27_tree.clone(), &ReplacementConfig::default())
                .expect("replacement")
        }),
    ));

    // 3. the 216-run paper campaign through the parallel work-queue.
    let campaign =
        experiments::campaign::paper_campaign(0xD1AC).expect("paper campaign configuration");
    benchmarks.push(BenchRecord::from_samples(
        "campaign_216",
        time_iters(config.iters(10), || run_with(&runner, &campaign)),
    ));

    // 3b. the same campaign through the structure-of-arrays batch executor
    // (64 lanes per worker bank).  Identical digest; the median ratio to
    // `campaign_216` is the batch-engine speedup the README quotes.
    benchmarks.push(BenchRecord::from_samples(
        "campaign_216_batch",
        time_iters(config.iters(10), || {
            let result = run_batched_with(&runner, &campaign, 64);
            debug_assert_eq!(result.runs, 216);
            result
        }),
    ));

    // 3b'. width sensitivity of the batch engine around the default: narrow
    // banks refill more often, wide banks stress the gather/scatter columns.
    for (name, width) in [("campaign_216_batch_w16", 16), ("campaign_216_batch_w256", 256)] {
        benchmarks.push(BenchRecord::from_samples(
            name,
            time_iters(config.iters(5), || {
                let result = run_batched_with(&runner, &campaign, width);
                debug_assert_eq!(result.runs, 216);
                result
            }),
        ));
    }

    // 3c. the raw batch executor: 64 lanes of the s27-DIAC-sized scenario
    // (the replacement-derived backup unit of the paper's worked example)
    // under the scarce schedule, one bank, no campaign plumbing.
    let s27_sizing = experiments::campaign::diac_backup_sizing().expect("s27 replacement sizing");
    let batch_scenarios: Vec<Scenario> = (0..64)
        .map(|i| Scenario {
            id: i,
            source: SourceSpec::Schedule(ehsim::schedule::Schedule::scarce()),
            thresholds: ehsim::pmu::Thresholds::paper_default(),
            technology: tech45::nvm::NvmTechnology::Mram,
            sizing: s27_sizing.clone(),
            seed: 0xD1AC ^ i as u64,
        })
        .collect();
    benchmarks.push(BenchRecord::from_samples(
        "batch_executor_s27",
        time_iters(config.iters(20), || {
            let mut batch = BatchExecutor::new(64);
            let mut scratch = SourceScratch::new();
            for scenario in &batch_scenarios {
                batch.enqueue(scenario.batch_job(
                    Seconds::new(1500.0),
                    Seconds::new(0.5),
                    &mut scratch,
                ));
            }
            batch.run_to_completion()
        }),
    ));

    // 3d. raw per-sample cost of the stochastic sources: a fresh source per
    // iteration (construction is a couple of integer mixes) sampled over the
    // campaign tick grid — the counter-indexed draw cost every checked tick
    // of the scalar and batch loops pays.
    use ehsim::source::{HarvestSource, MarkovSource, RfidSource, SolarSource};
    use tech45::units::Power;
    benchmarks.push(BenchRecord::from_samples(
        "source_sample_solar",
        time_iters(config.iters(2000), || {
            let mut source =
                SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(600.0), 0.3, 3);
            let mut acc = 0.0;
            for i in 0..3000_u64 {
                acc += source.power_at(Seconds::new(i as f64 * 0.5)).as_watts();
            }
            acc
        }),
    ));
    benchmarks.push(BenchRecord::from_samples(
        "source_sample_rfid",
        time_iters(config.iters(2000), || {
            let mut source = RfidSource::typical(1);
            let mut acc = 0.0;
            for i in 0..3000_u64 {
                acc += source.power_at(Seconds::new(i as f64 * 0.5)).as_watts();
            }
            acc
        }),
    ));
    benchmarks.push(BenchRecord::from_samples(
        "source_sample_markov",
        time_iters(config.iters(2000), || {
            let mut source = MarkovSource::new(
                Power::from_milliwatts(0.5),
                Seconds::new(20.0),
                Seconds::new(40.0),
                4,
            );
            let mut acc = 0.0;
            for i in 0..3000_u64 {
                acc += source.power_at(Seconds::new(i as f64 * 0.5)).as_watts();
            }
            acc
        }),
    ));

    // 4/5. functional simulation of s298: the same 64 input patterns per
    // iteration, once as 64 scalar dense-slot passes and once as a single
    // 64-lane word-parallel pass.  The median ratio is the bit-parallel
    // speedup the README quotes.
    let mut scalar_sim = Simulator::new(&s298).expect("s298 scalar simulator");
    let pi_count = s298.primary_inputs().len();
    let words: Vec<u64> =
        (0..pi_count).map(|i| pack_lanes((0..64).map(|k| (k * 31 + i * 7) % 3 == 0))).collect();
    benchmarks.push(BenchRecord::from_samples(
        "scalar_sim_s298",
        time_iters(config.iters(500), || {
            let mut acc = false;
            let mut pattern = vec![false; pi_count];
            for k in 0..64_u32 {
                for (slot, word) in pattern.iter_mut().zip(&words) {
                    *slot = lane(*word, k);
                }
                let result = scalar_sim.step_dense(&pattern).expect("scalar step");
                acc ^= result.outputs.iter().fold(false, |a, &b| a ^ b);
            }
            acc
        }),
    ));
    let mut bit_sim = BitSim::new(&s298).expect("s298 bit simulator");
    benchmarks.push(BenchRecord::from_samples(
        "bitsim_s298",
        time_iters(config.iters(500), || {
            let result = bit_sim.step(&words).expect("bit step");
            result.outputs.iter().fold(0_u64, |a, &b| a ^ b)
        }),
    ));

    // 6. the seeded equivalence pass on s27: replaced-netlist
    // materialisation plus the default random-vector comparison.
    let s27_enhanced = insert_nvm_boundaries(s27_tree.clone(), &ReplacementConfig::default())
        .expect("s27 replacement");
    benchmarks.push(BenchRecord::from_samples(
        "equiv_s27",
        time_iters(config.iters(200), || {
            let report = diac_core::verify::verify_replacement(
                &s27,
                s27_enhanced.tree(),
                &EquivConfig::default(),
            )
            .expect("s27 equivalence");
            // A counterexample would truncate the workload (early exit) and
            // silently speed the bench up — fail loudly instead.
            assert!(report.equivalent(), "{report}");
            report
        }),
    ));

    // Telemetry backing the batch-campaign numbers above: one more run of
    // the 216 scenarios through a single bank, reading the event-horizon
    // counters (the timed runs discard them inside the campaign plumbing).
    let mut batch = BatchExecutor::new(64);
    let mut batch_scratch = SourceScratch::new();
    for scenario in campaign.space.scenarios(campaign.seed) {
        batch.enqueue(scenario.batch_job(campaign.duration, campaign.dt, &mut batch_scratch));
    }
    let _ = batch.run_to_completion();
    let batch_fast_forward_fraction = batch.telemetry().fast_forward_fraction();

    PerfReport {
        tag: tag.to_string(),
        wall_ms: suite_start.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
        peak_rss_kb: peak_rss_kb(),
        threads: runner.threads(),
        batch_fast_forward_fraction,
        benchmarks,
    }
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`); 0 on platforms without procfs.
#[must_use]
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
                }
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tag: &str, medians: &[(&str, u64)]) -> PerfReport {
        PerfReport {
            tag: tag.to_string(),
            wall_ms: 12,
            peak_rss_kb: 3456,
            threads: 2,
            batch_fast_forward_fraction: 0.9,
            benchmarks: medians
                .iter()
                .map(|&(name, median)| BenchRecord {
                    name: name.to_string(),
                    iterations: 5,
                    median_ns: median,
                    mean_ns: median,
                    min_ns: median / 2,
                    max_ns: median * 2,
                    runs_per_sec: 1e9 / median as f64,
                })
                .collect(),
        }
    }

    #[test]
    fn json_round_trips() {
        let original = report("baseline", &[("a", 1_000), ("b", 2_000_000)]);
        let parsed = PerfReport::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed.tag, "baseline");
        assert_eq!(parsed.peak_rss_kb, 3456);
        assert_eq!(parsed.threads, 2);
        assert_eq!(parsed.benchmarks.len(), 2);
        assert_eq!(parsed.bench("a").unwrap().median_ns, 1_000);
        assert_eq!(parsed.bench("b").unwrap().median_ns, 2_000_000);
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        assert!(PerfReport::from_json("{}").is_err());
        assert!(PerfReport::from_json("{\"schema\": \"other-v9\"}").is_err());
        let empty = "{\"schema\": \"diac-perf-v1\", \"tag\": \"x\", \"wall_ms\": 1, \
                     \"peak_rss_kb\": 0, \"threads\": 1, \"benchmarks\": []}";
        assert!(PerfReport::from_json(empty).is_err());
    }

    #[test]
    fn medians_are_computed_from_sorted_samples() {
        let record = BenchRecord::from_samples("m", vec![5, 1, 9, 3, 7]);
        assert_eq!(record.median_ns, 5);
        assert_eq!(record.min_ns, 1);
        assert_eq!(record.max_ns, 9);
        let even = BenchRecord::from_samples("e", vec![4, 2]);
        assert_eq!(even.median_ns, 3);
    }

    #[test]
    fn the_gate_flags_regressions_beyond_the_threshold() {
        let baseline = report("baseline", &[("a", 1_000), ("b", 1_000), ("c", 1_000)]);
        let current = report("pr", &[("a", 1_200), ("b", 1_300), ("c", 900)]);
        let comparison = compare(&baseline, &current, 0.25);
        assert!(!comparison.deltas[0].regressed, "+20 % is inside the threshold");
        assert!(comparison.deltas[1].regressed, "+30 % is outside the threshold");
        assert!(!comparison.deltas[2].regressed, "improvements never regress");
        assert!(!comparison.passed());
        let ok = compare(&baseline, &report("pr", &[("a", 1_000), ("b", 1_100), ("c", 500)]), 0.25);
        assert!(ok.passed());
    }

    #[test]
    fn a_batch_campaign_slower_than_scalar_fails_the_gate() {
        // Both benchmarks hold steady against the baseline, but the batched
        // campaign lost its edge over the scalar one: the gate must fail on
        // the intra-report invariant alone.
        let slow = report("pr", &[("campaign_216", 1_000_000), ("campaign_216_batch", 1_500_000)]);
        let comparison = compare(&slow, &slow, 0.25);
        assert!(comparison.deltas.iter().all(|d| !d.regressed));
        assert_eq!(comparison.violations.len(), 1);
        assert!(!comparison.passed());
        assert!(comparison.to_markdown().contains("VIOLATION"));

        let fast = report("pr", &[("campaign_216", 1_500_000), ("campaign_216_batch", 200_000)]);
        let comparison = compare(&fast, &fast, 0.25);
        assert!(comparison.violations.is_empty());
        assert!(comparison.passed());
        // The report-side markdown quotes the speedup ratio.
        assert!(fast.to_markdown().contains("**7.50x**"), "{}", fast.to_markdown());
    }

    #[test]
    fn the_campaign_pair_is_ratio_gated_not_absolute_gated() {
        // Both campaign medians doubling against the baseline (a slow
        // host-day) must not trip the absolute threshold — their gate is the
        // same-report ordering (batch no slower than scalar), which any
        // speedup passes however shallow.  A non-campaign benchmark doubling
        // alongside them still regresses.
        let shallow =
            report("pr", &[("campaign_216", 1_100_000), ("campaign_216_batch", 1_000_000)]);
        assert!(compare(&shallow, &shallow, 0.25).passed());
        let baseline = report(
            "baseline",
            &[("campaign_216", 1_500_000), ("campaign_216_batch", 1_000_000), ("a", 1_000)],
        );
        let slow_host = report(
            "pr",
            &[("campaign_216", 3_000_000), ("campaign_216_batch", 2_000_000), ("a", 1_000)],
        );
        let comparison = compare(&baseline, &slow_host, 0.25);
        assert!(comparison.deltas.iter().all(|d| !d.regressed));
        assert!(comparison.passed());

        let mixed = report(
            "pr",
            &[("campaign_216", 3_000_000), ("campaign_216_batch", 2_000_000), ("a", 2_000)],
        );
        let comparison = compare(&baseline, &mixed, 0.25);
        assert!(comparison.deltas.iter().any(|d| d.name == "a" && d.regressed));
        assert!(!comparison.passed());

        // The exemption does not waive presence: a dropped campaign
        // benchmark is still a failure.
        let gone = report("pr", &[("campaign_216", 1_500_000), ("a", 1_000)]);
        let comparison = compare(&baseline, &gone, 0.25);
        assert_eq!(comparison.missing, vec!["campaign_216_batch".to_string()]);
        assert!(!comparison.passed());
    }

    #[test]
    fn a_fast_forward_fraction_drop_beyond_five_points_fails_the_gate() {
        let mut baseline = report("baseline", &[("a", 1_000)]);
        baseline.batch_fast_forward_fraction = 0.93;
        let mut current = report("pr", &[("a", 1_000)]);

        // A drop within the tolerance passes.
        current.batch_fast_forward_fraction = 0.89;
        assert!(compare(&baseline, &current, 0.25).passed());

        // A six-point drop is a violation even with every median steady.
        current.batch_fast_forward_fraction = 0.87;
        let comparison = compare(&baseline, &current, 0.25);
        assert_eq!(comparison.violations.len(), 1);
        assert!(!comparison.passed());
        assert!(comparison.to_markdown().contains("batch_fast_forward_fraction"));

        // Baselines predating the telemetry (field parses as 0.0) skip the
        // check entirely.
        baseline.batch_fast_forward_fraction = 0.0;
        current.batch_fast_forward_fraction = 0.0;
        assert!(compare(&baseline, &current, 0.25).passed());
    }

    #[test]
    fn missing_benchmarks_fail_the_gate() {
        let baseline = report("baseline", &[("a", 1_000), ("gone", 1_000)]);
        let current = report("pr", &[("a", 1_000)]);
        let comparison = compare(&baseline, &current, 0.25);
        assert_eq!(comparison.missing, vec!["gone".to_string()]);
        assert!(!comparison.passed());
        assert!(comparison.to_markdown().contains("MISSING"));
    }

    #[test]
    fn markdown_renders_every_benchmark() {
        let r = report("3", &[("tree", 1_500), ("campaign", 2_000_000_000)]);
        let md = r.to_markdown();
        assert!(md.contains("`tree`"));
        assert!(md.contains("µs"));
        assert!(md.contains(" s |"));
        let comparison = compare(&r, &r, 0.25);
        assert!(comparison.passed());
        assert!(comparison.to_markdown().contains("passed"));
    }

    #[test]
    fn the_quick_suite_runs_at_smoke_scale() {
        let report = run_quick_suite("smoke", &SuiteConfig { scale: 0.0 });
        assert_eq!(report.benchmarks.len(), 13);
        assert!(report.bench("source_sample_solar").is_some());
        assert!(report.bench("source_sample_rfid").is_some());
        assert!(report.bench("source_sample_markov").is_some());
        assert!(report.bench("tree_restructure_s298").is_some());
        assert!(report.bench("replacement_s27").is_some());
        assert!(report.bench("equiv_s27").is_some());
        assert!(report.bench("campaign_216_batch").is_some());
        assert!(report.bench("campaign_216_batch_w16").is_some());
        assert!(report.bench("campaign_216_batch_w256").is_some());
        assert!(report.bench("batch_executor_s27").is_some());
        let campaign = report.bench("campaign_216").expect("campaign bench");
        assert!(campaign.median_ns > 0);
        assert_eq!(campaign.iterations, 3);
        assert!(report.to_markdown().contains("Batch-engine speedup"));
        let parsed = PerfReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.benchmarks.len(), 13);
        // No timing-ratio assertion here: at smoke scale (3 samples) a
        // scheduler preemption could flake it.  The scalar-vs-BitSim ratio
        // is enforced by the release perf gate against BENCH_baseline.json.
        assert!(report.bench("scalar_sim_s298").is_some());
        assert!(report.bench("bitsim_s298").is_some());
    }
}
