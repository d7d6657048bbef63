//! The repository benchmark: runs one workload through the crates' public
//! entry points, checks its outputs and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <campaign_batch|campaign_sharded|synthesis_suite> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it alternates untraced and traced passes and
//! reports the per-layer metrics.  Either way the last line of standard
//! output is one JSON object: `correct`, `attempted` and `failed` checks,
//! and `metrics` by name with their units.  Run outputs (the span log of a
//! traced run, shard checkpoints while they exist) go under `.bench_out/` in
//! the working directory.

mod campaign;
mod measure;
mod synthesis;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use measure::{median, peak_rss_mb, quantile, Checks, CpuRotation};
use trace::{Layers, Recorder};
use workloads::WorkloadSpec;

const USAGE: &str = "usage: diac-repo-bench --workload <campaign_batch|campaign_sharded|\
                     synthesis_suite> [--seed N] [--seconds S] [--trace 0|1]";

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 0xD1AC;

/// Set-ups timed before every pass of an untraced run; `setup_s` is their
/// median over the run.
const SETUPS_PER_PASS: usize = 5;

/// Passes a timed run makes even when they overrun `--seconds`.
const MIN_PASSES: usize = 2;

/// Where run outputs go, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// One workload: its set-up, production pass, traced-only replays and
/// output checks.
pub trait Workload: Sized {
    /// What one pass produces; every pass must reproduce the warm-up pass.
    type Output: PartialEq;

    /// Builds the workload's inputs from the seed (timed as `setup_s`).
    fn setup(seed: u64) -> Result<Self, String>;

    /// Work units (scenarios or circuits) one pass completes.
    fn units(&self) -> usize;

    /// Worker threads a pass runs on.
    fn workers(&self) -> usize;

    /// One production pass, recording spans when `rec` is on; pushes one
    /// latency sample per unit a user waits on, the same units in the same
    /// order every pass.
    fn pass(&self, rec: &mut Recorder, latencies_ms: &mut Vec<f64>)
        -> Result<Self::Output, String>;

    /// Untimed clean-up between passes.
    fn after_pass(&self) -> Result<(), String> {
        Ok(())
    }

    /// Traced runs only: replays the pass layer by layer through the
    /// public entry points, recording per-layer spans and counters.
    fn replay(&self, _rec: &mut Recorder, _output: &Self::Output, _checks: &mut Checks) {}

    /// Checks a pass's output against an independent oracle.
    fn verify(&self, reference: &Self::Output, checks: &mut Checks) -> Result<(), String>;
}

struct Args {
    workload: &'static WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = parsed.map_err(|e| format!("bad --seed `{value}`: {e}"))?;
            }
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("bad --seconds `{value}`: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// A finished run: its checks, its metrics and the lines printed above the
/// result.
struct Report {
    checks: Checks,
    metrics: Vec<(String, &'static str, f64)>,
    lines: Vec<String>,
}

fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let workload = W::setup(args.seed)?;
    let mut checks = Checks::default();
    // The warm-up pass fills caches and lazy state, and is the reference
    // every later pass must reproduce.
    let reference = workload.pass(&mut Recorder::off(), &mut Vec::new())?;
    workload.after_pass()?;

    let spec = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut lines = vec![
        format!("workload: {} - {}", spec.name, spec.why),
        format!(
            "host: nproc {nproc}, workers {}, seed {:#x}, {} {}s per pass",
            workload.workers(),
            args.seed,
            workload.units(),
            spec.unit
        ),
    ];
    let metrics = if args.trace {
        traced(&workload, &reference, args, &mut checks, &mut lines)?
    } else {
        timed(&workload, &reference, args, &mut checks, &mut lines)?
    };
    workload.verify(&reference, &mut checks)?;
    if let Some((name, _, value)) = metrics.iter().find(|(_, _, value)| !value.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    Ok(Report { checks, metrics, lines })
}

/// Rotates a single-worker workload's passes over the CPUs the process may
/// use.  Such a pass stays on the CPU it starts on, and on a shared host the
/// CPUs' speeds differ by up to a third at any one moment (neighbours run on
/// their sibling threads), so rotating samples every CPU equally in each run.
/// Passes with more workers span the CPUs already.
fn cpu_rotation<W: Workload>(workload: &W) -> Result<Option<CpuRotation>, String> {
    if workload.workers() == 1 {
        CpuRotation::new().map(Some)
    } else {
        Ok(None)
    }
}

/// The untraced run: passes for `--seconds`, each after a few timed
/// set-ups, then the end-to-end metrics.
fn timed<W: Workload>(
    workload: &W,
    reference: &W::Output,
    args: &Args,
    checks: &mut Checks,
    lines: &mut Vec<String>,
) -> Result<Vec<(String, &'static str, f64)>, String> {
    let mut setup_s = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut walls_s = Vec::new();
    let rotation = cpu_rotation(workload)?;
    let start = Instant::now();
    while walls_s.len() < MIN_PASSES || secs_since(start) < args.seconds {
        if let Some(rotation) = &rotation {
            rotation.pin(walls_s.len())?;
        }
        // Set-ups are timed between passes, so their median samples the
        // host across the whole run rather than one moment of it.
        for _ in 0..SETUPS_PER_PASS {
            let setup_start = Instant::now();
            let fresh = W::setup(args.seed)?;
            setup_s.push(secs_since(setup_start));
            drop(fresh);
        }
        let pass_start = Instant::now();
        let output = workload.pass(&mut Recorder::off(), &mut latencies_ms)?;
        walls_s.push(secs_since(pass_start));
        let pass = walls_s.len();
        checks
            .expect(output == *reference, || format!("pass {pass} diverged from the warm-up pass"));
        workload.after_pass()?;
    }
    let peak_mb = peak_rss_mb()?;
    let passes = walls_s.len();
    let busy_s: f64 = walls_s.iter().sum();
    let per_pass = latencies_ms.len() / passes;
    if per_pass == 0 || latencies_ms.len() != per_pass * passes {
        return Err(format!("{} latency samples from {passes} passes", latencies_ms.len()));
    }
    // Neighbours on a shared host slow whole stretches of passes.  Means
    // move in proportion to the share of a run they slow, where a median
    // flips between the fast and the slow mode, so the throughput is the
    // run's mean and each unit's latency its mean over the run's passes
    // (every pass repeats the same units in the same order); the latency
    // percentiles are across units.
    let unit_ms: Vec<f64> = (0..per_pass)
        .map(|unit| latencies_ms.iter().skip(unit).step_by(per_pass).sum::<f64>() / passes as f64)
        .collect();
    lines.push(format!(
        "load: {passes} passes in {busy_s:.2} s ({:.4} s mean), {per_pass} latency \
         units per pass: {}",
        busy_s / passes as f64,
        args.workload.latency_sample
    ));
    let values = [
        median(&setup_s),
        (workload.units() * passes) as f64 / busy_s,
        quantile(&unit_ms, 0.5),
        quantile(&unit_ms, 0.9),
        peak_mb,
    ];
    Ok(workloads::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), unit, value))
        .collect())
}

/// The traced run: untraced and traced passes alternate for `--seconds`
/// (at least two traced passes), then the per-layer metrics.  Exact
/// counters must repeat across traced passes, and every pass must reproduce
/// the reference output.
fn traced<W: Workload>(
    workload: &W,
    reference: &W::Output,
    args: &Args,
    checks: &mut Checks,
    lines: &mut Vec<String>,
) -> Result<Vec<(String, &'static str, f64)>, String> {
    let catalogue = workloads::per_layer();
    let mut rec = Recorder::on();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut passes: Vec<Layers> = Vec::new();
    let rotation = cpu_rotation(workload)?;
    let start = Instant::now();
    while passes.len() < 2 || secs_since(start) < args.seconds {
        if let Some(rotation) = &rotation {
            rotation.pin(passes.len())?;
        }
        let pass_start = Instant::now();
        let output = workload.pass(&mut Recorder::off(), &mut Vec::new())?;
        untraced_s.push(secs_since(pass_start));
        checks.expect(output == *reference, || "an untraced pass diverged".to_string());
        workload.after_pass()?;

        rec.begin_pass();
        let output = rec.span("pass", |rec| workload.pass(rec, &mut Vec::new()))?;
        traced_s.push(rec.total_s("pass"));
        checks.expect(output == *reference, || "tracing changed a pass's output".to_string());
        workload.after_pass()?;
        rec.span("replay", |rec| workload.replay(rec, &output, checks));
        passes.push(rec.end_pass(&catalogue));
    }
    for (index, layers) in passes.iter().enumerate().skip(1) {
        checks.expect(layers.exact == passes[0].exact, || {
            format!("traced pass {} counted different work than traced pass 1", index + 1)
        });
    }
    let path =
        Path::new(OUT_DIR).join(format!("spans-{}-seed{}.tsv", args.workload.name, args.seed));
    rec.write_tsv(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    lines.push(format!(
        "load: {} untraced and {} traced passes; spans in {}",
        untraced_s.len(),
        passes.len(),
        path.display()
    ));
    let metrics: Vec<_> = catalogue
        .into_iter()
        .map(|(name, unit)| {
            let value = if name == "trace.overhead_frac" {
                median(&traced_s) / median(&untraced_s) - 1.0
            } else if let Some(&count) = passes[0].exact.get(&name) {
                count as f64
            } else {
                let timed: Vec<f64> =
                    passes.iter().filter_map(|l| l.timed.get(&name).copied()).collect();
                if timed.is_empty() {
                    0.0 // the workload bypasses this layer
                } else {
                    median(&timed)
                }
            };
            (name, unit, value)
        })
        .collect();
    lines.push("predictions (layer metric | measured around | should move):".to_string());
    for p in workloads::PREDICTIONS {
        lines.push(format!("  {} | {} | {}", p.metric, p.around, p.moves));
    }
    Ok(metrics)
}

/// The result line: one JSON object.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let failed = report.checks.failures().len();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.checks.attempted(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.name {
        "campaign_batch" => run::<campaign::CampaignBatch>(&args),
        "campaign_sharded" => run::<campaign::CampaignSharded>(&args),
        "synthesis_suite" => run::<synthesis::SynthesisSuite>(&args),
        other => unreachable!("parse_args accepted the unknown workload `{other}`"),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    for (name, unit, value) in &report.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    for note in report.checks.notes() {
        println!("{note}");
    }
    for failure in report.checks.failures() {
        println!("FAILED CHECK: {failure}");
    }
    let failed = report.checks.failures().len();
    println!(
        "checks: {} attempted, {failed} failed, error_rate {}",
        report.checks.attempted(),
        failed as f64 / report.checks.attempted() as f64
    );
    println!("{}", result_json(&report));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
