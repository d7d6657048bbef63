//! The in-memory span recorder of the traced run.
//!
//! A span is one call into a layer, recorded from the benchmark's own code:
//! its name, start, end, the span that enclosed it and the pass it belongs
//! to.  Spans stay in memory and are written out once, when the run ends.
//! Untraced passes run the same code against a recorder that is off, which
//! records nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    pass: u32,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// The per-layer values of one traced pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers {
    /// Host-time measurements, which vary from run to run.
    pub timed: BTreeMap<String, f64>,
    /// Exact work counters, which must repeat bit for bit.
    pub exact: BTreeMap<String, u64>,
}

/// Records spans and per-layer values, pass by pass.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
    pass: u32,
    layers: Layers,
}

impl Recorder {
    fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
            pass: 0,
            layers: Layers::default(),
        }
    }

    /// A recorder that records.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// Whether this recorder records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new pass: later spans and values belong to it.
    pub fn begin_pass(&mut self) {
        self.pass += 1;
        self.layers = Layers::default();
    }

    /// Runs `f` inside a span called `name`, a child of the enclosing span.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open;
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            pass: self.pass,
            parent,
            start_s,
            end_s: start_s,
        });
        self.open = Some(index);
        let out = f(self);
        self.spans[index].end_s = self.origin.elapsed().as_secs_f64();
        self.open = parent;
        out
    }

    /// Adds `value` to the host-time measurement `name` of this pass.
    pub fn time(&mut self, name: impl Into<String>, value: f64) {
        if self.on {
            *self.layers.timed.entry(name.into()).or_default() += value;
        }
    }

    /// Adds `value` to the exact counter `name` of this pass.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        if self.on {
            *self.layers.exact.entry(name.into()).or_default() += value;
        }
    }

    fn current_pass(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().rev().take_while(move |s| s.pass == self.pass)
    }

    /// Total duration of this pass's spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.current_pass().filter(|s| s.name == name).map(|s| s.end_s - s.start_s).sum()
    }

    /// Ends the pass and returns its values.  Every span named after a
    /// per-layer metric whose unit is `s` or `ms` adds its duration to that
    /// metric.
    pub fn end_pass(&mut self, metrics: &[(String, &str)]) -> Layers {
        let mut layers = std::mem::take(&mut self.layers);
        for (name, unit) in metrics {
            let scale = match *unit {
                "s" => 1.0,
                "ms" => 1e3,
                _ => continue,
            };
            if self.current_pass().any(|s| s.name == *name) {
                *layers.timed.entry(name.clone()).or_default() += self.total_s(name) * scale;
            }
        }
        layers
    }

    /// Writes every span as one tab-separated line: pass, id, parent id,
    /// name, start, end and self time (the span minus its children), in
    /// microseconds from the start of the run.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut children_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_s[parent] += span.end_s - span.start_s;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "pass\tid\tparent\tname\tstart_us\tend_us\tself_us")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let self_s = span.end_s - span.start_s - children_s[id];
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{:.1}\t{:.1}\t{:.1}",
                span.pass,
                span.name,
                span.start_s * 1e6,
                span.end_s * 1e6,
                self_s * 1e6
            )?;
        }
        out.flush()
    }
}
