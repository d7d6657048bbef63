//! Sharded, resumable campaign execution.
//!
//! A campaign over a large [`crate::space::ScenarioSpace`] need not run in
//! one process: the scenario list is split into `shard_count` contiguous
//! index ranges ([`ShardSpec`]), each shard runs independently (on its own
//! worker pool, process, or host) through the scalar or batched executor,
//! and the per-shard results merge back into one [`CampaignResult`] that
//! is **bit-identical** to the monolithic run at any shard count.  A shard
//! costs O(shard), not O(campaign): it expands only its own range, and its
//! fingerprint comes from the space's axes.
//!
//! A shard is its rows.  The determinism contract, layer by layer:
//!
//! * every scenario and its seed depend only on its global id (see
//!   [`crate::space::ScenarioSpace::scenarios_in`]), so a shard runs exactly
//!   the same simulations the monolithic campaign would;
//! * a [`ShardResult`] holds one row per scenario of its range, in scenario
//!   order: that run's [`crate::aggregate::metric_values`], kept as bit
//!   patterns;
//! * [`ShardResult::merge`] appends the rows of the adjacent range, so any
//!   merge tree over a contiguous partition yields the monolithic row
//!   sequence;
//! * [`ShardResult::finish`] labels each row with its family and sizing
//!   from its id ([`crate::space::ScenarioSpace::coordinates`]) and
//!   computes every summary once, over the same samples in the same order
//!   as the monolithic run.
//!
//! Checkpoint/resume: a finished shard serialises its rows as a
//! `diac-shard-v2` text record (own writer/parser — the build environment
//! has no serde) and writes it atomically (temp file + rename), so a killed
//! campaign never leaves a corrupt checkpoint — at worst a missing one, and
//! [`ShardSpec::load_checkpoint`] treats missing, corrupt and mismatched
//! records alike: the shard simply runs again.  Records embed
//! [`CampaignConfig::fingerprint`], a hash of the campaign's definition
//! (every axis, source parameters included), so shards of *different*
//! campaigns can never be spliced together.  The fingerprint identifies the
//! campaign, not the simulator build; a change to the expansion order or
//! the seed derivation must bump [`SHARD_SCHEMA`].

use std::fmt;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use isim::stats::RunStats;

use crate::aggregate::{metric_values, CampaignSummary};
use crate::campaign::{batched_runs, scalar_runs, CampaignConfig, CampaignResult};
use crate::runner::ParallelRunner;
use crate::scenario::Scenario;
use crate::space::{SourceFamily, SourceSpec};

/// Schema identifier of the checkpoint record format.
pub const SHARD_SCHEMA: &str = "diac-shard-v2";

/// FNV-1a accumulator shared by the campaign digest/fingerprint code.
#[derive(Debug)]
pub(crate) struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn eat(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub(crate) fn eat_u64(&mut self, value: u64) {
        value.to_le_bytes().into_iter().for_each(|b| self.eat(b));
    }

    pub(crate) fn eat_f64(&mut self, value: f64) {
        self.eat_u64(value.to_bits());
    }

    pub(crate) fn eat_str(&mut self, text: &str) {
        text.bytes().for_each(|b| self.eat(b));
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Computes [`CampaignConfig::fingerprint`]: FNV-1a over the schema, seed,
/// duration, dt and scenario count, then every axis of the space prefixed
/// with its length, then the replicate count.
pub(crate) fn fingerprint_of(config: &CampaignConfig) -> u64 {
    let space = &config.space;
    let mut fnv = Fnv::new();
    fnv.eat_str(SHARD_SCHEMA);
    fnv.eat_u64(config.seed);
    fnv.eat_f64(config.duration.as_seconds());
    fnv.eat_f64(config.dt.as_seconds());
    fnv.eat_u64(space.len() as u64);
    fnv.eat_u64(space.sources.len() as u64);
    for source in &space.sources {
        eat_source(&mut fnv, source);
    }
    fnv.eat_u64(space.thresholds.len() as u64);
    for thresholds in &space.thresholds {
        for threshold in [
            thresholds.off,
            thresholds.backup,
            thresholds.safe_zone,
            thresholds.sense,
            thresholds.compute,
            thresholds.transmit,
        ] {
            fnv.eat_f64(threshold.as_joules());
        }
    }
    fnv.eat_u64(space.technologies.len() as u64);
    for technology in &space.technologies {
        let index = tech45::nvm::NvmTechnology::ALL
            .iter()
            .position(|t| t == technology)
            .expect("technology is one of NvmTechnology::ALL");
        fnv.eat_u64(index as u64);
    }
    // A sizing simulates as the backup unit of its label's bit count on the
    // scenario's technology, so the label identifies it.
    fnv.eat_u64(space.sizings.len() as u64);
    for sizing in &space.sizings {
        eat_label(&mut fnv, &sizing.label());
    }
    fnv.eat_u64(space.replicates.max(1) as u64);
    fnv.finish()
}

/// Feeds one source: its family label, then every parameter as raw bits.
fn eat_source(fnv: &mut Fnv, source: &SourceSpec) {
    eat_label(fnv, source.family().label());
    match source {
        SourceSpec::Constant { power } => fnv.eat_f64(power.as_watts()),
        SourceSpec::Rfid { peak, period, duty_cycle, jitter, seed } => {
            fnv.eat_f64(peak.as_watts());
            fnv.eat_f64(period.as_seconds());
            fnv.eat_f64(*duty_cycle);
            fnv.eat_f64(*jitter);
            fnv.eat_u64(*seed);
        }
        SourceSpec::Solar { peak, day_length, cloudiness, seed } => {
            fnv.eat_f64(peak.as_watts());
            fnv.eat_f64(day_length.as_seconds());
            fnv.eat_f64(*cloudiness);
            fnv.eat_u64(*seed);
        }
        SourceSpec::Markov { on_power, mean_on, mean_off, seed } => {
            fnv.eat_f64(on_power.as_watts());
            fnv.eat_f64(mean_on.as_seconds());
            fnv.eat_f64(mean_off.as_seconds());
            fnv.eat_u64(*seed);
        }
        SourceSpec::Schedule(schedule) => {
            fnv.eat_u64(schedule.segments().len() as u64);
            for (start, power) in schedule.segments() {
                fnv.eat_f64(start.as_seconds());
                fnv.eat_f64(power.as_watts());
            }
            fnv.eat_f64(schedule.duration().as_seconds());
            fnv.eat_u64(u64::from(schedule.is_cyclic()));
        }
    }
}

/// Feeds a length-prefixed label, so adjacent labels cannot run together.
fn eat_label(fnv: &mut Fnv, label: &str) {
    fnv.eat_u64(label.len() as u64);
    fnv.eat_str(label);
}

/// Why two shard aggregates refused to merge or finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The shards belong to different campaigns (fingerprints differ).
    CampaignMismatch {
        /// Fingerprint of the receiving shard.
        expected: u64,
        /// Fingerprint of the offered shard.
        found: u64,
    },
    /// The scenario ranges are not adjacent in scenario order.
    NotAdjacent {
        /// End (exclusive) of the receiving shard's range.
        end: usize,
        /// Start of the offered shard's range.
        start: usize,
    },
    /// The merged range does not cover the whole campaign yet.
    Incomplete {
        /// Range covered so far.
        start: usize,
        /// End (exclusive) of the range covered so far.
        end: usize,
        /// Scenarios the campaign expands to.
        expected: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::CampaignMismatch { expected, found } => write!(
                f,
                "shards belong to different campaigns \
                 (fingerprint {expected:#018x} vs {found:#018x})"
            ),
            ShardError::NotAdjacent { end, start } => write!(
                f,
                "shard ranges are not adjacent: merged range ends at scenario {end}, \
                 offered shard starts at {start}"
            ),
            ShardError::Incomplete { start, end, expected } => write!(
                f,
                "merged shards cover scenarios {start}..{end} of {expected}; \
                 the campaign is incomplete"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// How a shard executes its scenarios.  Both engines produce bit-identical
/// per-run statistics (pinned by `tests/campaign.rs` and the batch
/// proptests), so the choice is pure throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// One `IntermittentExecutor` per scenario on the parallel work-queue:
    /// every scenario runs in full, which makes this the oracle.
    Scalar,
    /// `BatchExecutor` banks in one fan-out.  One representative per
    /// stochastic coordinate (source, thresholds, replicate) runs; its
    /// technology × sizing siblings differ from it only in the backup
    /// unit.  They fork from its run at its first read of the unit
    /// ([`RunStats::reads_backup_unit`]), or get copies of its statistics
    /// if it never reads it; both are exact.  Groups form within the
    /// shard's range only.
    Batched {
        /// Sibling groups per bank, the unit of work a worker claims from
        /// the parallel queue (clamped to at least 1).  Each bank runs its
        /// groups one after another, so the width sets the scheduling
        /// grain only; no width changes a result.
        width: usize,
    },
}

impl Execution {
    /// The [`metric_values`] row of every scenario, in scenario order.
    fn rows(
        self,
        runner: &ParallelRunner,
        config: &CampaignConfig,
        scenarios: &[Scenario],
    ) -> Vec<[u64; 6]> {
        let row = |stats: RunStats| metric_values(&stats).map(f64::to_bits);
        match self {
            Execution::Scalar => scalar_runs(runner, config, scenarios, row),
            Execution::Batched { width } => batched_runs(runner, config, scenarios, width, row),
        }
    }
}

/// One shard of a campaign: a contiguous range of the expanded scenario
/// list, identified by `(shard_index, shard_count)`.
///
/// The partition is balanced and deterministic: with `n` scenarios and `c`
/// shards, shard `i` covers `n.div_euclid(c)` scenarios plus one of the
/// first `n.rem_euclid(c)` leftovers, all ranges contiguous in scenario
/// order — so shards at any count tile the space exactly and merge back to
/// the monolithic result.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// The campaign being sharded.
    pub config: CampaignConfig,
    /// This shard's index in `0..shard_count`.
    pub shard_index: usize,
    /// Total number of shards the campaign is split into.
    pub shard_count: usize,
}

impl ShardSpec {
    /// A shard of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero or `shard_index` is out of range —
    /// both are caller bugs, not runtime conditions.
    #[must_use]
    pub fn new(config: CampaignConfig, shard_index: usize, shard_count: usize) -> Self {
        assert!(shard_count > 0, "shard_count must be at least 1");
        assert!(
            shard_index < shard_count,
            "shard_index {shard_index} out of range for {shard_count} shards"
        );
        Self { config, shard_index, shard_count }
    }

    /// The contiguous scenario-index range this shard covers (possibly
    /// empty, when there are more shards than scenarios).
    #[must_use]
    pub fn range(&self) -> Range<usize> {
        shard_range(self.config.space.len(), self.shard_index, self.shard_count)
    }

    /// Runs this shard's scenarios on `runner` with the given engine.
    #[must_use]
    pub fn run_with(&self, runner: &ParallelRunner, execution: Execution) -> ShardResult {
        run_range_with(runner, &self.config, self.range(), execution)
    }

    /// The checkpoint file this shard owns inside `dir`.
    #[must_use]
    pub fn checkpoint_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("shard-{:05}-of-{:05}.ckpt", self.shard_index, self.shard_count))
    }

    /// Atomically writes `result` as this shard's completion record:
    /// the record is serialised to a temporary file in `dir` and renamed
    /// into place, so a kill mid-write leaves no corrupt checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (the directory is created if absent).
    pub fn save_checkpoint(&self, dir: &Path, result: &ShardResult) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = self.checkpoint_path(dir);
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, result.to_record(self.shard_index, self.shard_count))?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Loads this shard's completion record from `dir`, or `None` when the
    /// shard has not (validly) completed: a missing file, a truncated or
    /// corrupt record, a record of another campaign (fingerprint mismatch)
    /// or another shard geometry all mean "run it again".
    #[must_use]
    pub fn load_checkpoint(&self, dir: &Path) -> Option<ShardResult> {
        let text = std::fs::read_to_string(self.checkpoint_path(dir)).ok()?;
        let record = ShardRecord::parse(&text).ok()?;
        let matches = record.shard_index == self.shard_index
            && record.shard_count == self.shard_count
            && record.result.fingerprint == self.config.fingerprint()
            && record.result.range == self.range();
        matches.then_some(record.result)
    }

    /// Resumes this shard from its checkpoint in `dir` if one is valid, or
    /// runs it and checkpoints the result.  With `dir` `None`, always runs
    /// (and saves nothing).
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-write failures; execution itself cannot fail.
    pub fn run_or_resume_with(
        &self,
        runner: &ParallelRunner,
        execution: Execution,
        dir: Option<&Path>,
    ) -> io::Result<ShardResult> {
        if let Some(result) = dir.and_then(|dir| self.load_checkpoint(dir)) {
            return Ok(result);
        }
        let result = self.run_with(runner, execution);
        if let Some(dir) = dir {
            self.save_checkpoint(dir, &result)?;
        }
        Ok(result)
    }
}

/// The balanced contiguous partition: shard `index` of `count` over `len`
/// scenarios.
fn shard_range(len: usize, index: usize, count: usize) -> Range<usize> {
    let base = len / count;
    let leftover = len % count;
    let start = index * base + index.min(leftover);
    let extra = usize::from(index < leftover);
    start..start + base + extra
}

/// Runs an arbitrary contiguous `range` of the scenario list into one
/// shard's rows, expanding only that range — the single execution path
/// of every campaign, sharded or not ([`ShardSpec::run_with`] runs its own
/// range, a monolithic campaign `0..len`).  Public so tests can exercise
/// merge boundaries the balanced partition never produces.
///
/// # Panics
///
/// Panics if `range` reaches past the end of the campaign's space.
#[must_use]
pub fn run_range_with(
    runner: &ParallelRunner,
    config: &CampaignConfig,
    range: Range<usize>,
    execution: Execution,
) -> ShardResult {
    let scenarios = config.space.scenarios_in(config.seed, range.clone());
    let rows = execution.rows(runner, config, &scenarios);
    ShardResult { fingerprint: config.fingerprint(), range, rows }
}

/// Runs a whole campaign as `shard_count` shards on `runner` (shards run
/// one after another, each internally parallel) and merges them — by
/// construction bit-identical to [`crate::campaign::run_with`] /
/// [`crate::campaign::run_batched_with`] at any shard count.
///
/// With `checkpoint` `Some(dir)`, every shard resumes from its valid
/// checkpoint in `dir` or runs and saves one, exactly as
/// [`ShardSpec::run_or_resume_with`] does; with `None`, nothing touches
/// the filesystem.  Each shard expands only its own range.
///
/// # Errors
///
/// Propagates checkpoint-write failures; execution itself cannot fail.
pub fn run_sharded_with(
    runner: &ParallelRunner,
    config: &CampaignConfig,
    shard_count: usize,
    execution: Execution,
    checkpoint: Option<&Path>,
) -> io::Result<CampaignResult> {
    let shard_count = shard_count.max(1);
    let mut merged: Option<ShardResult> = None;
    for index in 0..shard_count {
        let spec = ShardSpec::new(config.clone(), index, shard_count);
        let shard = spec.run_or_resume_with(runner, execution, checkpoint)?;
        match &mut merged {
            None => merged = Some(shard),
            Some(acc) => acc.merge(&shard).expect("shards of one campaign merge in order"),
        }
    }
    Ok(merged
        .expect("shard_count >= 1")
        .finish(config)
        .expect("the shards tile the whole campaign"))
}

/// The rows of one contiguous scenario range: one [`metric_values`] row
/// per scenario, in scenario order, each `f64` kept as its bit pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    fingerprint: u64,
    range: Range<usize>,
    rows: Vec<[u64; 6]>,
}

impl ShardResult {
    /// The campaign fingerprint this shard belongs to.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The covered range of scenario ids.
    #[must_use]
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Number of runs (rows) held.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.rows.len()
    }

    /// Appends the rows of the shard covering the range immediately *after*
    /// this one.  Adjacency-in-order keeps the rows in scenario order; any
    /// merge tree over a contiguous partition satisfies it at every
    /// interior node, so every tree shape yields the monolithic rows.
    ///
    /// # Errors
    ///
    /// [`ShardError::CampaignMismatch`] when the fingerprints differ,
    /// [`ShardError::NotAdjacent`] when `other` does not start exactly
    /// where `self` ends.
    pub fn merge(&mut self, other: &Self) -> Result<(), ShardError> {
        if self.fingerprint != other.fingerprint {
            return Err(ShardError::CampaignMismatch {
                expected: self.fingerprint,
                found: other.fingerprint,
            });
        }
        if self.range.end != other.range.start {
            return Err(ShardError::NotAdjacent { end: self.range.end, start: other.range.start });
        }
        self.range.end = other.range.end;
        self.rows.extend_from_slice(&other.rows);
        Ok(())
    }

    /// Summarises the rows into a [`CampaignResult`] after verifying they
    /// cover the whole campaign.  Each row is labelled once with its family
    /// and sizing from its id alone — no scenario or source is built — and
    /// every slice is summarised once, in scenario order: the overall one,
    /// one per family some scenario belongs to (in [`SourceFamily::ALL`]
    /// order, none when the space is empty), and one per distinct sizing
    /// label (in axis order).  A family or sizing slice is a list of row
    /// ids, not a copy of its rows.  Per slice, one pass folds the six
    /// means, then min, max and the quantiles are taken metric by metric on
    /// one scratch column.
    ///
    /// # Errors
    ///
    /// [`ShardError::CampaignMismatch`] when the rows belong to a different
    /// campaign than `config`, [`ShardError::Incomplete`] when the covered
    /// range is not `0..config.space.len()`.
    pub fn finish(self, config: &CampaignConfig) -> Result<CampaignResult, ShardError> {
        let expected = config.fingerprint();
        if self.fingerprint != expected {
            return Err(ShardError::CampaignMismatch { expected, found: self.fingerprint });
        }
        let space = &config.space;
        if self.range != (0..space.len()) {
            let (start, end) = (self.range.start, self.range.end);
            return Err(ShardError::Incomplete { start, end, expected: space.len() });
        }
        let families: Vec<SourceFamily> = SourceFamily::ALL
            .into_iter()
            .filter(|&f| !space.is_empty() && space.sources.iter().any(|s| s.family() == f))
            .collect();
        let mut labels: Vec<String> = Vec::new();
        let slot_of_sizing: Vec<usize> = space
            .sizings
            .iter()
            .map(|sizing| {
                let label = sizing.label();
                labels.iter().position(|l| *l == label).unwrap_or_else(|| {
                    labels.push(label);
                    labels.len() - 1
                })
            })
            .collect();
        let slot_of_source: Vec<Option<usize>> = space
            .sources
            .iter()
            .map(|source| families.iter().position(|&f| f == source.family()))
            .collect();
        // The row ids of each family slice, then of each sizing slice, in
        // scenario order.
        let mut slices: Vec<Vec<u32>> = vec![Vec::new(); families.len() + labels.len()];
        for id in 0..self.rows.len() {
            let at = space.coordinates(id);
            let family = slot_of_source[at.source].expect("a space with rows slices its families");
            let id32 = u32::try_from(id).expect("a campaign's rows are indexed by u32");
            slices[family].push(id32);
            slices[families.len() + slot_of_sizing[at.sizing]].push(id32);
        }
        let rows = &self.rows;
        let values = |bits: &[u64; 6]| bits.map(f64::from_bits);
        let mut summaries = slices
            .iter()
            .map(|ids| CampaignSummary::of_rows(ids.iter().map(|&id| values(&rows[id as usize]))));
        let mut next = || summaries.next().expect("one summary per slice");
        Ok(CampaignResult {
            runs: rows.len(),
            overall: CampaignSummary::of_rows(rows.iter().map(values)),
            by_family: families.iter().map(|&f| (f, next())).collect(),
            by_sizing: labels.into_iter().map(|label| (label, next())).collect(),
        })
    }

    /// Serialises the shard as a `diac-shard-v2` completion record: the
    /// schema, fingerprint, shard and range lines, then one line per row of
    /// six 16-hex-digit `f64` bit patterns, closed by an `end` sentinel so
    /// truncated files can never parse.
    #[must_use]
    pub fn to_record(&self, shard_index: usize, shard_count: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(128 + self.rows.len() * 6 * 17);
        let _ = writeln!(out, "{SHARD_SCHEMA}");
        let _ = writeln!(out, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(out, "shard {shard_index} {shard_count}");
        let _ = writeln!(out, "range {} {}", self.range.start, self.range.end);
        for row in &self.rows {
            let [a, b, c, d, e, f] = row;
            let _ = writeln!(out, "{a:016x} {b:016x} {c:016x} {d:016x} {e:016x} {f:016x}");
        }
        out.push_str("end\n");
        out
    }
}

/// A parsed `diac-shard-v2` record: the shard geometry plus its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// The shard's index as written by [`ShardResult::to_record`].
    pub shard_index: usize,
    /// The shard count as written by [`ShardResult::to_record`].
    pub shard_count: usize,
    /// The deserialised rows.
    pub result: ShardResult,
}

impl ShardRecord {
    /// Parses a record produced by [`ShardResult::to_record`].  The parser
    /// is deliberately scoped to this crate's own schema.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed line —
    /// truncated files always fail (the `end` sentinel is required), and so
    /// does a row count other than the range's length.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let schema = lines.next().ok_or("empty record")?;
        if schema != SHARD_SCHEMA {
            return Err(format!("unsupported schema `{schema}` (expected `{SHARD_SCHEMA}`)"));
        }
        let fingerprint = u64::from_str_radix(field(lines.next(), "fingerprint")?.trim(), 16)
            .map_err(|e| format!("bad fingerprint: {e}"))?;
        let shard_line = field(lines.next(), "shard")?;
        let (shard_index, shard_count) = pair(shard_line, "shard")?;
        if shard_count == 0 || shard_index >= shard_count {
            return Err(format!("invalid shard geometry {shard_index}/{shard_count}"));
        }
        let range_line = field(lines.next(), "range")?;
        let (start, end) = pair(range_line, "range")?;
        if end < start {
            return Err(format!("invalid range {start}..{end}"));
        }
        let mut rows = Vec::new();
        loop {
            let line = lines.next().ok_or("record is truncated (missing end sentinel)")?;
            if line == "end" {
                break;
            }
            rows.push(parse_row(line).map_err(|e| format!("row {}: {e}", rows.len()))?);
        }
        if lines.next().is_some() {
            return Err("trailing data after the end sentinel".to_string());
        }
        if rows.len() != end - start {
            return Err(format!("{} rows for range {start}..{end}", rows.len()));
        }
        Ok(Self {
            shard_index,
            shard_count,
            result: ShardResult { fingerprint, range: start..end, rows },
        })
    }
}

/// Parses one row: exactly six 16-hex-digit words.
fn parse_row(line: &str) -> Result<[u64; 6], String> {
    let mut words = line.split_ascii_whitespace();
    let mut row = [0; 6];
    for value in &mut row {
        let word = words.next().ok_or("fewer than six values")?;
        if word.len() != 16 || !word.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("`{word}` is not 16 hex digits"));
        }
        *value = u64::from_str_radix(word, 16).map_err(|e| e.to_string())?;
    }
    if words.next().is_some() {
        return Err("more than six values".to_string());
    }
    Ok(row)
}

/// Strips a required `key ` prefix from the next line.
fn field<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    let line = line.ok_or_else(|| format!("record ends before the `{key}` line"))?;
    line.strip_prefix(key)
        .map(str::trim_start)
        .ok_or_else(|| format!("expected a `{key}` line, found `{line}`"))
}

/// Parses two whitespace-separated `usize`s.
fn pair(body: &str, key: &str) -> Result<(usize, usize), String> {
    let mut words = body.split_ascii_whitespace();
    let a = words
        .next()
        .ok_or_else(|| format!("`{key}` line missing first value"))?
        .parse()
        .map_err(|e| format!("`{key}`: {e}"))?;
    let b = words
        .next()
        .ok_or_else(|| format!("`{key}` line missing second value"))?
        .parse()
        .map_err(|e| format!("`{key}`: {e}"))?;
    if words.next().is_some() {
        return Err(format!("`{key}` line has trailing data"));
    }
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::MetricRow;
    use crate::campaign::{run_with, CampaignConfig};
    use crate::space::{BackupSizing, ScenarioSpace};
    use ehsim::schedule::Schedule;

    fn smoke() -> CampaignConfig {
        CampaignConfig::smoke()
    }

    #[test]
    fn shard_ranges_tile_the_space_for_any_count() {
        for len in [0, 1, 5, 16, 216] {
            for count in [1, 2, 3, 7, 8, 17, 300] {
                let mut covered = 0;
                let mut previous_end = 0;
                for index in 0..count {
                    let range = shard_range(len, index, count);
                    assert_eq!(range.start, previous_end, "len {len} count {count}");
                    assert!(range.end >= range.start);
                    covered += range.len();
                    previous_end = range.end;
                }
                assert_eq!(covered, len, "count {count} must tile all {len} scenarios");
                assert_eq!(previous_end, len);
            }
        }
    }

    #[test]
    fn sharded_smoke_campaigns_match_the_monolithic_result_bit_for_bit() {
        let config = smoke();
        let runner = ParallelRunner::serial();
        let monolithic = run_with(&runner, &config);
        for count in [1, 3, 8, 16, 30] {
            let sharded = run_sharded_with(&runner, &config, count, Execution::Scalar, None)
                .expect("no checkpoint to write");
            assert_eq!(monolithic, sharded, "{count} scalar shards diverged");
            assert_eq!(monolithic.digest(), sharded.digest());
            let batched =
                run_sharded_with(&runner, &config, count, Execution::Batched { width: 4 }, None)
                    .expect("no checkpoint to write");
            assert_eq!(monolithic, batched, "{count} batched shards diverged");
        }
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let config = smoke();
        let spec = ShardSpec::new(config, 1, 3);
        let result = spec.run_with(&ParallelRunner::serial(), Execution::Scalar);
        let text = result.to_record(1, 3);
        let parsed = ShardRecord::parse(&text).expect("record parses");
        assert_eq!(parsed.shard_index, 1);
        assert_eq!(parsed.shard_count, 3);
        assert_eq!(parsed.result, result);
        // Each sample is written once: one line of six words per scenario
        // between the four header lines and the end sentinel.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], SHARD_SCHEMA);
        assert_eq!(lines.last(), Some(&"end"));
        let rows = &lines[4..lines.len() - 1];
        assert_eq!(rows.len(), spec.range().len());
        assert!(rows.iter().all(|row| row.split(' ').count() == 6));
    }

    #[test]
    fn truncated_and_doctored_records_are_rejected() {
        let config = smoke();
        let spec = ShardSpec::new(config, 0, 2);
        let result = spec.run_with(&ParallelRunner::serial(), Execution::Scalar);
        let text = result.to_record(0, 2);
        assert!(ShardRecord::parse("").is_err());
        assert!(ShardRecord::parse("not-a-schema\n").is_err());
        // Every truncation point fails: the end sentinel is load-bearing.
        let without_end = text.trim_end_matches("end\n");
        assert!(ShardRecord::parse(without_end).is_err());
        let half = &text[..text.len() / 2];
        assert!(ShardRecord::parse(half).is_err());
        let mut trailing = text.clone();
        trailing.push_str("extra\n");
        assert!(ShardRecord::parse(&trailing).is_err());

        // Doctored records: each edit of one line must fail to parse.
        let lines: Vec<&str> = text.lines().collect();
        let first_row = lines[4];
        let doctor = |edit: &dyn Fn(&mut Vec<String>)| {
            let mut lines: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
            edit(&mut lines);
            lines.join("\n") + "\n"
        };
        let v1 = doctor(&|l| l[0] = "diac-shard-v1".to_string());
        let row_missing = doctor(&|l| drop(l.remove(4)));
        let row_repeated = doctor(&|l| l.insert(4, first_row.to_string()));
        let five_words = doctor(&|l| l[4] = first_row.rsplit_once(' ').unwrap().0.to_string());
        let seven_words = doctor(&|l| l[4] = format!("{first_row} {}", &first_row[..16]));
        let last_word = |word: &str| format!("{}{word}", &first_row[..first_row.len() - 16]);
        let non_hex = doctor(&|l| l[4] = last_word("zzzzzzzzzzzzzzzz"));
        // `u64::from_str_radix` alone would accept a sign.
        let signed = doctor(&|l| l[4] = last_word("+000000000000000"));
        assert_eq!(ShardRecord::parse(&doctor(&|_| {})).map(|r| r.result), Ok(result));
        for (name, record) in [
            ("v1 header", v1),
            ("one row too few", row_missing),
            ("one row too many", row_repeated),
            ("a row of 5 words", five_words),
            ("a row of 7 words", seven_words),
            ("a non-hex word", non_hex),
            ("a signed word", signed),
        ] {
            assert!(ShardRecord::parse(&record).is_err(), "{name} must not parse");
        }
    }

    #[test]
    fn checkpoints_save_load_and_reject_mismatches() {
        let dir = std::env::temp_dir().join(format!("diac-shard-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = smoke();
        let spec = ShardSpec::new(config.clone(), 0, 3);
        assert!(spec.load_checkpoint(&dir).is_none(), "no checkpoint yet");
        let result = spec.run_with(&ParallelRunner::serial(), Execution::Scalar);
        let path = spec.save_checkpoint(&dir, &result).expect("checkpoint writes");
        assert!(path.exists());
        assert_eq!(spec.load_checkpoint(&dir), Some(result.clone()));
        // A different campaign (other seed) must not resume from it.
        let reseeded = CampaignConfig { seed: config.seed + 1, ..config.clone() };
        assert!(ShardSpec::new(reseeded, 0, 3).load_checkpoint(&dir).is_none());
        // Nor a different shard geometry over the same campaign.
        assert!(ShardSpec::new(config.clone(), 0, 4).load_checkpoint(&dir).is_none());
        // A corrupt (truncated) checkpoint reads as absent, and resuming
        // re-runs and repairs it.
        let ckpt = spec.checkpoint_path(&dir);
        let text = std::fs::read_to_string(&ckpt).expect("checkpoint exists");
        std::fs::write(&ckpt, &text[..text.len() / 3]).expect("truncate checkpoint");
        assert!(spec.load_checkpoint(&dir).is_none());
        let resumed = spec
            .run_or_resume_with(&ParallelRunner::serial(), Execution::Scalar, Some(&dir))
            .expect("resume runs");
        assert_eq!(resumed, result);
        assert_eq!(spec.load_checkpoint(&dir), Some(result));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merges_enforce_campaign_and_adjacency() {
        let config = smoke();
        let runner = ParallelRunner::serial();
        let mut a = run_range_with(&runner, &config, 0..5, Execution::Scalar);
        let b = run_range_with(&runner, &config, 5..16, Execution::Scalar);
        let gap = run_range_with(&runner, &config, 7..16, Execution::Scalar);
        assert_eq!(a.clone().merge(&gap), Err(ShardError::NotAdjacent { end: 5, start: 7 }));
        let reseeded = CampaignConfig { seed: config.seed + 1, ..config.clone() };
        let foreign = run_range_with(&runner, &reseeded, 5..16, Execution::Scalar);
        assert!(matches!(a.clone().merge(&foreign), Err(ShardError::CampaignMismatch { .. })));
        // An incomplete merge refuses to finish…
        assert!(matches!(
            a.clone().finish(&config),
            Err(ShardError::Incomplete { start: 0, end: 5, expected: 16 })
        ));
        // …and the full merge finishes to the monolithic result.
        a.merge(&b).expect("adjacent shards merge");
        let finished = a.finish(&config).expect("full coverage finishes");
        assert_eq!(finished, run_with(&runner, &config));
    }

    #[test]
    fn empty_shards_merge_transparently() {
        let config = smoke();
        let runner = ParallelRunner::serial();
        let mut merged = run_range_with(&runner, &config, 0..0, Execution::Scalar);
        assert_eq!(merged.runs(), 0);
        let rest = run_range_with(&runner, &config, 0..16, Execution::Scalar);
        let tail = run_range_with(&runner, &config, 16..16, Execution::Scalar);
        merged.merge(&rest).expect("empty + full merges");
        merged.merge(&tail).expect("full + empty merges");
        assert_eq!(merged.clone().finish(&config).expect("covers"), run_with(&runner, &config));
    }

    /// The paper-shaped campaign: the paper grid with a baseline and a
    /// replacement-shaped DIAC sizing.
    fn paper() -> CampaignConfig {
        let summary = diac_core::replacement::ReplacementSummary {
            boundaries: 4,
            total_boundary_bits: 48,
            average_boundary_bits: 12.0,
            energy_budget: tech45::units::Energy::from_millijoules(1.0),
            max_unsaved_energy: tech45::units::Energy::from_millijoules(1.0),
            backup_energy: tech45::units::Energy::ZERO,
            backup_latency: tech45::units::Seconds::ZERO,
            restore_energy: tech45::units::Energy::ZERO,
            restore_latency: tech45::units::Seconds::ZERO,
        };
        let sizings = vec![BackupSizing::BaselineBits(64), BackupSizing::DiacReplacement(summary)];
        CampaignConfig::new(ScenarioSpace::paper_grid(sizings), 0xD1AC)
    }

    #[test]
    fn fingerprints_identify_the_campaign() {
        let config = smoke();
        assert_eq!(config.fingerprint(), config.fingerprint());
        let reseeded = CampaignConfig { seed: config.seed + 1, ..config.clone() };
        assert_ne!(config.fingerprint(), reseeded.fingerprint());
        let stretched =
            CampaignConfig { duration: tech45::units::Seconds::new(1.0), ..config.clone() };
        assert_ne!(config.fingerprint(), stretched.fingerprint());

        // Every axis of the definition is hashed, source parameters
        // included: these campaigns all expand to different simulations,
        // several of them with the same scenario count, seeds and family
        // layout.
        let paper = paper();
        let mut variants = vec![("paper", paper.clone())];
        let mut vary = |name, change: &dyn Fn(&mut ScenarioSpace)| {
            let mut variant = paper.clone();
            change(&mut variant.space);
            assert_ne!(variant, paper, "{name} must change the campaign");
            variants.push((name, variant));
        };
        vary("rfid peak x5", &|space| {
            let SourceSpec::Rfid { peak, .. } = &mut space.sources[2] else {
                panic!("the paper grid's third source is the 1 mW RFID reader")
            };
            *peak = tech45::units::Power::from_milliwatts(5.0);
        });
        vary("scarce -> plentiful", &|space| {
            let schedule = space.sources.last_mut().expect("the paper grid has sources");
            assert_eq!(*schedule, SourceSpec::Schedule(Schedule::scarce()));
            *schedule = SourceSpec::Schedule(Schedule::plentiful());
        });
        vary("one threshold", &|space| {
            space.thresholds[1].sense += tech45::units::Energy::from_millijoules(0.5);
        });
        vary("technology dropped", &|space| {
            space.technologies.pop();
        });
        vary("sizing swapped", &|space| space.sizings[0] = BackupSizing::BaselineBits(128));
        vary("two replicates", &|space| space.replicates = 2);
        for (i, (a, x)) in variants.iter().enumerate() {
            for (b, y) in &variants[i + 1..] {
                assert_ne!(x.fingerprint(), y.fingerprint(), "{a} and {b} share a fingerprint");
            }
        }

        // So a checkpoint of the paper campaign never resumes the variant.
        let dir = std::env::temp_dir().join(format!("diac-shard-fp-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ShardSpec::new(paper, 0, 216);
        let result = spec.run_with(&ParallelRunner::serial(), Execution::Scalar);
        spec.save_checkpoint(&dir, &result).expect("checkpoint writes");
        assert_eq!(spec.load_checkpoint(&dir), Some(result));
        let (_, boosted) = &variants[1];
        assert!(ShardSpec::new(boosted.clone(), 0, 216).load_checkpoint(&dir).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_space_runs_to_an_empty_result() {
        // One empty axis empties the space: nothing expands, and no family
        // gets a slice although the source axis is not empty.  Sizing
        // slices come from the sizing axis alone, so the smoke grid's one
        // sizing still has its (empty) slice.
        let mut config = smoke();
        config.space.technologies.clear();
        assert!(config.space.scenarios(config.seed).is_empty());
        let result = run_with(&ParallelRunner::serial(), &config);
        assert_eq!(result.runs, 0);
        assert!(result.by_family.is_empty());
        let sizings: Vec<(&str, usize)> =
            result.by_sizing.iter().map(|(label, s)| (label.as_str(), s.runs)).collect();
        assert_eq!(sizings, [("baseline-64b", 0)]);
        // Labels are deduplicated in axis order.
        config.space.sizings = vec![BackupSizing::BaselineBits(64); 2];
        let result = run_with(&ParallelRunner::serial(), &config);
        assert_eq!(result.by_sizing.len(), 1);
    }

    /// The summary of the earlier `finish`, kept as the oracle: each slice
    /// filters the rows and summarises every metric's column on its own,
    /// with a Welford fold and a full `total_cmp` sort.
    fn reference_finish(rows: &[[u64; 6]], config: &CampaignConfig) -> CampaignResult {
        let space = &config.space;
        let labelled: Vec<(SourceFamily, String, [f64; 6])> = rows
            .iter()
            .enumerate()
            .map(|(id, bits)| {
                let at = space.coordinates(id);
                let family = space.sources[at.source].family();
                (family, space.sizings[at.sizing].label(), bits.map(f64::from_bits))
            })
            .collect();
        let slice = |keep: &dyn Fn(SourceFamily, &str) -> bool| {
            let rows: Vec<[f64; 6]> =
                labelled.iter().filter(|r| keep(r.0, &r.1)).map(|r| r.2).collect();
            let rows = crate::aggregate::METRIC_NAMES
                .iter()
                .enumerate()
                .map(|(metric, name)| {
                    let column: Vec<f64> = rows.iter().map(|row| row[metric]).collect();
                    reference_row(name, &column)
                })
                .collect();
            CampaignSummary { runs: labelled.iter().filter(|r| keep(r.0, &r.1)).count(), rows }
        };
        let families = SourceFamily::ALL
            .into_iter()
            .filter(|&f| !space.is_empty() && space.sources.iter().any(|s| s.family() == f));
        let mut labels: Vec<String> = Vec::new();
        for label in space.sizings.iter().map(BackupSizing::label) {
            if !labels.contains(&label) {
                labels.push(label);
            }
        }
        CampaignResult {
            runs: rows.len(),
            overall: slice(&|_, _| true),
            by_family: families.map(|f| (f, slice(&|family, _| family == f))).collect(),
            by_sizing: labels
                .into_iter()
                .map(|label| {
                    let summary = slice(&|_, l| l == label);
                    (label, summary)
                })
                .collect(),
        }
    }

    /// One metric's row by a left-to-right Welford fold and a full sort.
    fn reference_row(name: &str, samples: &[f64]) -> crate::aggregate::MetricRow {
        let mut mean = 0.0;
        for (count, &value) in (1_u64..).zip(samples) {
            mean += (value - mean) / count as f64;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let len = sorted.len();
            let index = ((q * len as f64).ceil() as usize).clamp(1, len.max(1)) - 1;
            sorted.get(index).copied().unwrap_or(0.0)
        };
        crate::aggregate::MetricRow {
            name: name.to_string(),
            mean,
            min: sorted.first().copied().unwrap_or(0.0),
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }

    /// A result as bits, so NaN samples compare too.
    ///
    /// A NaN mean reads as the canonical NaN: Rust leaves the sign of an
    /// arithmetic NaN unspecified, so two folds over equal samples may
    /// differ in it (release builds do).  Min, quantiles and max are
    /// picked by `total_cmp` and keep their bits.
    fn result_bits(result: &CampaignResult) -> Vec<(String, usize, Vec<[u64; 6]>)> {
        let summary = |label: &str, s: &CampaignSummary| {
            let bits = |row: &MetricRow| {
                let mut values = row.values();
                if values[0].is_nan() {
                    values[0] = f64::NAN;
                }
                values.map(f64::to_bits)
            };
            (label.to_string(), s.runs, s.rows.iter().map(bits).collect())
        };
        let mut bits = vec![summary("overall", &result.overall)];
        bits.extend(result.by_family.iter().map(|(f, s)| summary(f.label(), s)));
        bits.extend(result.by_sizing.iter().map(|(l, s)| summary(l, s)));
        bits.push((String::new(), result.runs, Vec::new()));
        bits
    }

    /// `finish` summarises `rows` of `config` to the reference's bits.
    fn check_summaries(config: &CampaignConfig, rows: Vec<[u64; 6]>) {
        let reference = result_bits(&reference_finish(&rows, config));
        let shard = ShardResult { fingerprint: config.fingerprint(), range: 0..rows.len(), rows };
        let finished = shard.finish(config).expect("full coverage");
        assert_eq!(result_bits(&finished), reference);
    }

    /// Rows of `len` runs drawn from `values` (cycled), each metric's
    /// column rotated to a different offset.
    fn rows_from(len: usize, values: &[f64]) -> Vec<[u64; 6]> {
        (0..len)
            .map(|id| {
                std::array::from_fn(|metric| {
                    let pick = ehsim::crng::mix64(id as u64, metric as u64) as usize;
                    values.get(pick % values.len().max(1)).copied().unwrap_or(0.0).to_bits()
                })
            })
            .collect()
    }

    /// Small values with ties, both zeros, NaNs of both signs and both
    /// infinities.
    fn salted_values() -> Vec<f64> {
        let mut values: Vec<f64> = (-6..12).map(|x| f64::from(x) / 4.0).collect();
        values.extend([0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        values
    }

    #[test]
    fn summaries_match_the_filter_per_slice_reference() {
        // The smoke grid's own rows, and salted ones.
        let config = smoke();
        let runner = ParallelRunner::serial();
        let run = run_range_with(&runner, &config, 0..config.space.len(), Execution::Scalar);
        check_summaries(&config, run.rows);
        check_summaries(&config, rows_from(config.space.len(), &salted_values()));
        // The paper grid ×3: every family, two sizings.
        let mut tripled = paper();
        tripled.space.replicates = 3;
        check_summaries(&tripled, rows_from(tripled.space.len(), &salted_values()));
        // An empty space: no family slices, an empty sizing slice.
        let mut empty = smoke();
        empty.space.technologies.clear();
        check_summaries(&empty, Vec::new());
        // Two sizings that share a label summarise as one slice holding
        // both sizings' rows in scenario order.
        let mut shared = paper();
        shared.space.sizings = vec![BackupSizing::BaselineBits(64), BackupSizing::BaselineBits(64)];
        shared.space.replicates = 2;
        let rows = rows_from(shared.space.len(), &salted_values());
        let by_sizing = reference_finish(&rows, &shared).by_sizing;
        assert_eq!(by_sizing.len(), 1);
        assert_eq!(by_sizing[0].1.runs, rows.len());
        check_summaries(&shared, rows);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Random rows salted with NaNs and signed zeros over spaces of 1 to
        /// 3 replicates and one or two sizing labels.
        #[test]
        fn summaries_match_the_reference_on_salted_rows(
            picks in proptest::collection::vec((0_usize..8, -20_i32..20), 0..200),
            replicates in 1_usize..4,
            shared_label in 0_usize..2,
        ) {
            let specials = [f64::NAN, -f64::NAN, 0.0, -0.0];
            let values: Vec<f64> = picks
                .iter()
                .map(|&(pick, x)| specials.get(pick).copied().unwrap_or(f64::from(x) / 2.0))
                .collect();
            let mut config = smoke();
            config.space.replicates = replicates;
            config.space.sizings = vec![
                BackupSizing::BaselineBits(64),
                BackupSizing::BaselineBits(if shared_label == 1 { 64 } else { 128 }),
            ];
            check_summaries(&config, rows_from(config.space.len(), &values));
        }
    }
}
