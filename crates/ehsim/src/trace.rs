//! Time-series recording of a simulation run.
//!
//! Fig. 4 of the paper plots the stored energy (E_Batt) and the charging rate
//! of the system over ~4000 s and annotates six characteristic scenarios.
//! The recorder collects exactly those two series (plus the node state as a
//! label), supports downsampling for plotting, and exports CSV.

use std::fmt::Write as _;

use tech45::units::{Energy, Power, Seconds};

/// One sample of the simulation state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Simulation time.
    pub time: Seconds,
    /// Energy stored in the capacitor.
    pub stored: Energy,
    /// Power currently delivered by the harvester.
    pub harvest: Power,
    /// Label of the node state at this instant (e.g. `"Sleep"`, `"Compute"`).
    pub state: &'static str,
}

/// Consumes the per-tick samples of a simulation run.
///
/// The executor's step loop is generic over its sink, so the choice between
/// "record everything" ([`TraceRecorder`]) and "record nothing"
/// ([`NullSink`]) is made at compile time: the no-op fast path costs neither
/// a branch nor an allocation, which is what keeps untraced benchmark and
/// campaign runs heap-free after setup.
pub trait TraceSink {
    /// Records one sample.
    fn record(&mut self, sample: TraceSample);
}

/// The compile-time no-op sink: every sample is discarded for free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _sample: TraceSample) {}
}

/// Collects [`TraceSample`]s during a run.  It keeps every sample it is
/// given; a run that should record nothing takes [`NullSink`] instead.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecorder {
    samples: Vec<TraceSample>,
}

impl TraceSink for TraceRecorder {
    fn record(&mut self, sample: TraceSample) {
        TraceRecorder::record(self, sample);
    }
}

impl TraceRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: TraceSample) {
        self.samples.push(sample);
    }

    /// All recorded samples in time order.
    #[must_use]
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns at most `max_points` samples, evenly spaced in time — what a
    /// plotting frontend would consume.
    #[must_use]
    pub fn downsampled(&self, max_points: usize) -> Vec<&TraceSample> {
        if max_points == 0 || self.samples.is_empty() {
            return Vec::new();
        }
        if self.samples.len() <= max_points {
            return self.samples.iter().collect();
        }
        let stride = self.samples.len() as f64 / max_points as f64;
        (0..max_points).map(|i| &self.samples[(i as f64 * stride) as usize]).collect()
    }

    /// The minimum stored energy seen over the run.
    #[must_use]
    pub fn min_stored(&self) -> Option<Energy> {
        self.samples.iter().map(|s| s.stored).min_by(|a, b| a.partial_cmp(b).expect("finite"))
    }

    /// The maximum stored energy seen over the run.
    #[must_use]
    pub fn max_stored(&self) -> Option<Energy> {
        self.samples.iter().map(|s| s.stored).max_by(|a, b| a.partial_cmp(b).expect("finite"))
    }

    /// Serialises the trace as CSV (`time_s,stored_mj,harvest_mw,state`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,stored_mj,harvest_mw,state\n");
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{:.3},{:.4},{:.4},{}",
                s.time.as_seconds(),
                s.stored.as_millijoules(),
                s.harvest.as_milliwatts(),
                s.state
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, mj: f64) -> TraceSample {
        TraceSample {
            time: Seconds::new(t),
            stored: Energy::from_millijoules(mj),
            harvest: Power::from_milliwatts(0.1),
            state: "Sleep",
        }
    }

    #[test]
    fn recording_and_basic_stats() {
        let mut rec = TraceRecorder::new();
        assert!(rec.is_empty());
        for i in 0..10 {
            rec.record(sample(f64::from(i), f64::from(i)));
        }
        assert_eq!(rec.len(), 10);
        assert!((rec.min_stored().unwrap().as_millijoules()).abs() < 1e-12);
        assert!((rec.max_stored().unwrap().as_millijoules() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn a_default_recorder_keeps_what_it_records() {
        let mut rec = TraceRecorder::default();
        TraceSink::record(&mut rec, sample(0.0, 1.0));
        assert_eq!(rec.samples(), &[sample(0.0, 1.0)]);
    }

    #[test]
    fn downsampling_keeps_the_requested_number_of_points() {
        let mut rec = TraceRecorder::new();
        for i in 0..1000 {
            rec.record(sample(f64::from(i), 1.0));
        }
        assert_eq!(rec.downsampled(100).len(), 100);
        assert_eq!(rec.downsampled(0).len(), 0);
        // Fewer samples than requested: return everything.
        let mut small = TraceRecorder::new();
        small.record(sample(0.0, 1.0));
        assert_eq!(small.downsampled(10).len(), 1);
    }

    #[test]
    fn csv_has_a_header_and_one_line_per_sample() {
        let mut rec = TraceRecorder::new();
        rec.record(sample(1.0, 2.0));
        rec.record(sample(2.0, 3.0));
        let csv = rec.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("time_s,"));
        assert!(csv.contains("Sleep"));
    }
}
