//! Aggregation of per-scenario statistics.
//!
//! A campaign never retains the per-run time-series traces: every finished
//! scenario is reduced to one row of scalar metrics ([`metric_values`]).
//! Memory is `O(runs × metrics)` scalars regardless of how long each
//! simulated lifetime is.  Summaries are computed once, from the rows, by
//! one core, [`CampaignSummary::of_rows`], for the whole campaign and each
//! of its slices:
//! one pass folds every metric's mean left to right (Welford), then, per
//! metric and in the one [`f64::total_cmp`] order, a scan finds min and max
//! and one selection per quantile finds the quantiles.

use std::fmt;

use isim::state::NodeState;
use isim::stats::RunStats;

use crate::shard::Fnv;

/// The metrics a campaign aggregates, in table order.
pub const METRIC_NAMES: [&str; 6] =
    ["progress", "backups", "restores", "dead_time_s", "energy_wasted_mj", "safe_zone_recoveries"];

/// Extracts the aggregated scalar metrics from one run, in
/// [`METRIC_NAMES`] order: forward progress (completed sense→compute
/// pipelines), backups taken, restores, dead time (seconds spent Off),
/// energy wasted (harvest offered while the capacitor was full and
/// therefore lost, in mJ), and safe-zone recoveries.
#[must_use]
pub fn metric_values(stats: &RunStats) -> [f64; 6] {
    [
        stats.completed_tasks() as f64,
        stats.backups as f64,
        stats.restores as f64,
        stats.time_in(NodeState::Off).as_seconds(),
        stats.energy_clipped.as_millijoules(),
        stats.safe_zone_recoveries as f64,
    ]
}

/// Summary statistics of one metric over a whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Metric name (one of [`METRIC_NAMES`]).
    pub name: String,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Largest observed value.
    pub max: f64,
}

impl MetricRow {
    /// The row of `samples` whose mean is already folded: min, max and the
    /// nearest-rank quantiles by selection, taken in the one
    /// [`f64::total_cmp`] order — NaN and −0.0 included — so they are the
    /// bits a full sort would put at their ranks.  An empty metric
    /// summarises to zeros.  Leaves `samples` permuted.
    fn with_mean(name: &str, mean: f64, samples: &mut [f64]) -> Self {
        let min = samples.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0);
        let max = samples.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0);
        let [p99, p90, p50] = select_nearest_ranks(samples, [0.99, 0.90, 0.50]);
        MetricRow { name: name.to_string(), mean, min, p50, p90, p99, max }
    }

    /// The row's values in column order (mean, min, p50, p90, p99, max).
    #[must_use]
    pub fn values(&self) -> [f64; 6] {
        [self.mean, self.min, self.p50, self.p90, self.p99, self.max]
    }
}

/// Every column's left-to-right Welford mean of `rows`, in one pass, and
/// the row count.  Each column keeps its own chain of divisions, so its
/// mean has the bits of a fold over that column alone; interleaving the
/// chains only lets them overlap.
fn fold_means<const N: usize>(rows: impl Iterator<Item = [f64; N]>) -> ([f64; N], usize) {
    let (mut means, mut count) = ([0.0; N], 0_u64);
    for row in rows {
        count += 1;
        for (mean, value) in means.iter_mut().zip(row) {
            *mean += (value - *mean) / count as f64;
        }
    }
    (means, count as usize)
}

/// The nearest-rank quantiles `qs`, given in descending order, of
/// `samples` in the [`f64::total_cmp`] order; zeros when empty.  Each is
/// one selection, nested: the quantile below it lies among the samples
/// the selection put before it.  Leaves `samples` permuted.
fn select_nearest_ranks<const N: usize>(samples: &mut [f64], qs: [f64; N]) -> [f64; N] {
    debug_assert!(qs.windows(2).all(|w| w[0] >= w[1]), "quantiles in descending order");
    let len = samples.len();
    let mut quantiles = [0.0; N];
    if len == 0 {
        return quantiles;
    }
    let (mut below, mut above) = (samples, 0.0);
    for (quantile, q) in quantiles.iter_mut().zip(qs) {
        let index = ((q.clamp(0.0, 1.0) * len as f64).ceil() as usize).clamp(1, len) - 1;
        // `below` holds the samples ranked before the previous quantile,
        // which is `above`; an index past them is that quantile's own.
        if index < below.len() {
            let (lower, nth, _) = below.select_nth_unstable_by(index, f64::total_cmp);
            above = *nth;
            below = lower;
        }
        *quantile = above;
    }
    quantiles
}

/// Collects one [`metric_values`] row per finished run, in arrival order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregator {
    rows: Vec<[f64; 6]>,
}

impl Aggregator {
    /// An empty aggregator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finished run.
    pub fn record(&mut self, stats: &RunStats) {
        self.rows.push(metric_values(stats));
    }

    /// Number of runs recorded.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.rows.len()
    }

    /// The summary of everything recorded so far.
    #[must_use]
    pub fn summary(&self) -> CampaignSummary {
        CampaignSummary::of_rows(self.rows.iter().copied())
    }
}

/// The aggregate statistics of a campaign (or of one slice of it).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Number of scenario runs aggregated.
    pub runs: usize,
    /// One row per metric, in [`METRIC_NAMES`] order.
    pub rows: Vec<MetricRow>,
}

impl CampaignSummary {
    /// Summarises `rows` — one [`metric_values`] row per run, in run order.
    /// Every metric's mean is a left-to-right Welford fold over its column
    /// (so equal sample sequences give bit-equal means), and its min, max
    /// and quantiles are `MetricRow::with_mean`'s.  This is the one
    /// summarising core: one pass folds the six means; then each metric's column is gathered into one scratch
    /// column, reused across the metrics, for min, max and the quantiles.
    /// `rows` is iterated once for the fold and once per metric, through
    /// clones, so a slice is read in place and never copied.
    #[must_use]
    pub fn of_rows<I>(rows: I) -> Self
    where
        I: IntoIterator<Item = [f64; 6]> + Clone,
    {
        let (means, runs) = fold_means(rows.clone().into_iter());
        let mut column = Vec::with_capacity(runs);
        let metrics = METRIC_NAMES
            .iter()
            .zip(means)
            .enumerate()
            .map(|(metric, (name, mean))| {
                column.clear();
                column.extend(rows.clone().into_iter().map(|row| row[metric]));
                MetricRow::with_mean(name, mean, &mut column)
            })
            .collect();
        CampaignSummary { runs, rows: metrics }
    }

    /// Looks one metric up by name.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&MetricRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// A stable 64-bit digest of the aggregate (FNV-1a over the metric names
    /// and the bit patterns of every statistic).  Two campaigns with the
    /// same seed must produce the same digest — the CI smoke job pins this.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        fnv.eat_u64(self.runs as u64);
        for row in &self.rows {
            fnv.eat_str(&row.name);
            for value in row.values() {
                fnv.eat_f64(value);
            }
        }
        fnv.finish()
    }
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} runs (digest {:#018x})", self.runs, self.digest())?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<22} mean {:>10.3}  min {:>10.3}  p50 {:>10.3}  p90 {:>10.3}  p99 {:>10.3}  max {:>10.3}",
                row.name, row.mean, row.min, row.p50, row.p90, row.p99, row.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Summarises one metric's `samples`, given in arrival order, as
    /// [`CampaignSummary::of_rows`] summarises each column.
    fn row_of(name: &str, mut samples: Vec<f64>) -> MetricRow {
        let ([mean], _) = fold_means(samples.iter().map(|&value| [value]));
        MetricRow::with_mean(name, mean, &mut samples)
    }

    /// Nearest-rank quantile over an already-sorted slice; 0.0 when empty —
    /// the full-sort reference of [`select_nearest_ranks`].
    fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// The row a full [`f64::total_cmp`] sort gives: bits of the sorted
    /// head, tail and nearest ranks, and the Welford mean in arrival order.
    fn sorted_reference(samples: &[f64]) -> [u64; 6] {
        let mut mean = 0.0;
        for (count, &value) in (1_u64..).zip(samples) {
            mean += (value - mean) / count as f64;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let ends = (sorted.first().copied(), sorted.last().copied());
        let (min, max) = (ends.0.unwrap_or(0.0), ends.1.unwrap_or(0.0));
        let [p50, p90, p99] = [0.50, 0.90, 0.99].map(|q| nearest_rank(&sorted, q));
        [mean, min, p50, p90, p99, max].map(f64::to_bits)
    }

    /// NaNs of both signs, both zeros and both infinities.
    const SPECIALS: [f64; 6] = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];

    #[test]
    fn selection_matches_the_full_sort_on_the_smallest_samples() {
        let mut cases = vec![Vec::new()];
        let values = SPECIALS.into_iter().chain([1.5, -2.0]);
        cases.extend(values.clone().map(|a| vec![a]));
        cases.extend(values.clone().flat_map(|a| values.clone().map(move |b| vec![a, b])));
        for samples in cases {
            let row = row_of("small", samples.clone());
            let bits = row.values().map(f64::to_bits);
            assert_eq!(bits, sorted_reference(&samples), "{samples:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Min, max and the quantiles by selection are the bits a full sort
        /// puts at their ranks, and the mean is the arrival-order fold —
        /// over random samples salted with NaNs, signed zeros, infinities
        /// and ties.
        #[test]
        fn selection_matches_the_full_sort(
            picks in proptest::collection::vec((0_usize..10, -40_i32..40), 0..300),
        ) {
            let samples: Vec<f64> = picks
                .iter()
                .map(|&(pick, x)| SPECIALS.get(pick).copied().unwrap_or(f64::from(x) / 4.0))
                .collect();
            let row = row_of("random", samples.clone());
            proptest::prop_assert_eq!(row.values().map(f64::to_bits), sorted_reference(&samples));
        }
    }

    // `RunStats` carries private integer accumulators now, so tests build
    // one from the default and set the public counters they need.
    #[allow(clippy::field_reassign_with_default)]
    fn stats(sensed: u64, computed: u64, backups: u64) -> RunStats {
        let mut stats = RunStats::default();
        stats.samples_sensed = sensed;
        stats.computations_completed = computed;
        stats.backups = backups;
        stats
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let row = row_of("ramp", (1..=100).map(f64::from).collect());
        assert_eq!(row.p50, 50.0);
        assert_eq!(row.p90, 90.0);
        assert_eq!(row.p99, 99.0);
        assert_eq!((row.min, row.max), (1.0, 100.0));
        assert_eq!(row.mean, 50.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
    }

    #[test]
    fn empty_metrics_summarize_to_zero() {
        let row = row_of("empty", Vec::new());
        assert_eq!(row.values(), [0.0; 6]);
        let summary = CampaignSummary::of_rows([]);
        assert_eq!(summary.runs, 0);
        assert!(summary.rows.iter().all(|row| row.values() == [0.0; 6]));
    }

    #[test]
    fn the_aggregator_tracks_every_metric() {
        let mut agg = Aggregator::new();
        agg.record(&stats(5, 3, 2));
        agg.record(&stats(9, 9, 0));
        let summary = agg.summary();
        assert_eq!(summary.runs, 2);
        assert_eq!(summary.rows.len(), METRIC_NAMES.len());
        let progress = summary.row("progress").expect("progress row");
        assert!((progress.mean - 6.0).abs() < 1e-12); // (3 + 9) / 2
        assert_eq!(progress.min, 3.0);
        assert_eq!(progress.max, 9.0);
        let backups = summary.row("backups").expect("backups row");
        assert!((backups.mean - 1.0).abs() < 1e-12);
        assert!(summary.row("no_such_metric").is_none());
    }

    #[test]
    fn digests_pin_the_exact_statistics() {
        let mut a = Aggregator::new();
        let mut b = Aggregator::new();
        for agg in [&mut a, &mut b] {
            agg.record(&stats(5, 3, 2));
            agg.record(&stats(9, 9, 0));
        }
        assert_eq!(a.summary().digest(), b.summary().digest());
        b.record(&stats(1, 1, 1));
        assert_ne!(a.summary().digest(), b.summary().digest());
    }

    #[test]
    fn nan_samples_keep_min_max_and_quantiles_in_one_order() {
        // `f64::min`/`f64::max` would drop the NaN side and treat the two
        // zeros as equal; total_cmp ranks -NaN below every number, -0.0
        // below +0.0 and +NaN above every number, exactly like the
        // quantile sort.
        let negative_nan = f64::from_bits(0xfff8_0000_0000_0001);
        let samples = vec![f64::NAN, 1.0, 3.0, 0.0, -0.0, negative_nan];
        let row = row_of("nan", samples);
        assert_eq!(row.min.to_bits(), negative_nan.to_bits(), "the sorted head is -NaN");
        assert_eq!(row.max.to_bits(), f64::NAN.to_bits(), "the sorted tail is +NaN");
        // Sorted: -NaN, -0.0, +0.0, 1.0, 3.0, +NaN; nearest rank 3 of 6.
        assert_eq!(row.p50.to_bits(), 0.0_f64.to_bits(), "p50 is +0.0, not -0.0");
        assert_eq!(row.p99.to_bits(), f64::NAN.to_bits(), "max and p99 agree on the order");
        let zeros = row_of("zeros", vec![0.0, -0.0]);
        assert_eq!(zeros.min.to_bits(), (-0.0_f64).to_bits());
        assert_eq!(zeros.max.to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn display_lists_runs_and_metrics() {
        let mut agg = Aggregator::new();
        agg.record(&stats(5, 3, 2));
        let text = agg.summary().to_string();
        assert!(text.contains("1 runs"));
        assert!(text.contains("progress"));
        assert!(text.contains("digest"));
    }
}
