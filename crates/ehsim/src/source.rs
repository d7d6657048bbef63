//! Ambient harvest sources.
//!
//! The paper focuses on RFID as the ambient source ("intermittent energy
//! bursts can cause operational interruptions") and models it as "a
//! predetermined sequence of voltage levels that cyclically repeat".  The
//! sources here produce exactly such power-versus-time profiles; all of them
//! are deterministic given their configuration (and seed, where randomness is
//! involved) so that every experiment is reproducible.
//!
//! Stochastic sources draw from counter-indexed streams ([`crate::crng`]):
//! solar cloud noise is indexed by the query instant, RFID burst jitter by
//! the cycle number, Markov dwell times by the switch count.  Each draw is a
//! pure function of `(seed, index)`, so a caller that takes a whole
//! [`Segment`] at once skips the window's remaining queries in O(1), without
//! any replay bookkeeping.

use crate::crng::CounterRng;

use tech45::units::{Power, Seconds};

/// `(x.floor() as u64, x.fract())` without the libm `floor`/`trunc` calls
/// that otherwise dominate the periodic samplers' hot paths.  For `x` in
/// `[0, 2^53)` the integer part fits an `i64` exactly and round-trips through
/// `f64` losslessly, so truncation *is* the floor and `x - (i as f64)` *is*
/// the fractional part, bit for bit.  Anything outside that range (negative,
/// huge, or non-finite) falls back to the libm pair, so the result is
/// identical to `floor`/`fract` for every input.
#[inline]
fn split_cycles(x: f64) -> (u64, f64) {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if (0.0..EXACT).contains(&x) {
        let i = x as u64;
        (i, x - i as f64)
    } else {
        (x.floor() as u64, x.fract())
    }
}

/// The exclusive end of a window anchored at `tick`, found by estimate and
/// exact re-check.  `est` is the distance in ticks from the anchor to the
/// edge of the anchor's constant-power region (the first instant outside
/// it), so the last tick strictly before the edge sits at offset
/// `ceil(est) - 1`.  `inside(j)` re-checks offset `j` with the sampler's own
/// arithmetic; it must hold on a prefix of offsets, so verifying the last
/// claimed tick proves the whole window, however `est` rounded.
#[inline]
fn window_end(tick: u64, est: f64, inside: impl Fn(u64) -> bool) -> u64 {
    // Past 2^53 ticks the grid instants stop being distinct f64 values.
    const CAP: f64 = 9_007_199_254_740_992.0;
    let mut h = if est > 1.0 && est < CAP {
        // `ceil(est) - 1` without the libm call: truncation is exact below
        // 2^53, and `est > 1` keeps the result non-negative.
        let t = est as u64;
        if (t as f64) < est {
            t
        } else {
            t - 1
        }
    } else {
        0
    };
    while h > 0 && !inside(h) {
        h -= 1;
    }
    tick + 1 + h
}

/// A run of ticks over which a source's sample is bit-identical, as returned
/// by [`HarvestSource::segment`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The sample of every tick in the window.
    pub power: Power,
    /// The first tick past the window; always greater than the queried tick.
    pub until: u64,
}

/// A source of ambient power.
///
/// Implementations report the power available at an absolute simulation time.
/// Randomness is counter-indexed ([`crate::crng`]): the stochastic sources
/// derive every draw from `(stream_seed, domain index)` rather than from a
/// sequential stream, so their samples are pure in the query time (up to the
/// Markov source's monotone clock, which only ever moves forward) and
/// skipping queries never perturbs future samples.
pub trait HarvestSource {
    /// Power delivered to the harvester front-end at time `t` — the per-tick
    /// reference sampler.
    fn power_at(&mut self, t: Seconds) -> Power;

    /// A short human-readable description of the source.
    fn describe(&self) -> String;

    /// The sample of tick `tick` (at `t = tick · dt`) and the window it holds
    /// for: every tick in `tick..until` samples bit-identically to
    /// `power_at(tick · dt)`, and `until > tick`.  The call leaves the source
    /// as `power_at(tick · dt)` would, and *not* querying the window's other
    /// ticks perturbs no later sample — draws are counter-indexed, and the
    /// only per-query state left (memo caches, the piecewise cursor, the
    /// Markov monotone clock) is self-healing.  A caller may therefore burn
    /// the whole window on one sample.
    ///
    /// The default is the length-1 window, which is always sound; sources
    /// whose sample genuinely varies per tick (solar daylight) answer that
    /// way too.
    fn segment(&mut self, tick: u64, dt: Seconds) -> Segment {
        Segment {
            power: self.power_at(Seconds::new(tick as f64 * dt.as_seconds())),
            until: tick + 1,
        }
    }
}

/// A source that always delivers the same power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantSource {
    power: Power,
}

impl ConstantSource {
    /// Creates a constant source.
    #[must_use]
    pub fn new(power: Power) -> Self {
        Self { power }
    }
}

impl HarvestSource for ConstantSource {
    fn power_at(&mut self, _t: Seconds) -> Power {
        self.power
    }

    fn describe(&self) -> String {
        format!("constant {:.3} mW", self.power.as_milliwatts())
    }

    fn segment(&mut self, _tick: u64, _dt: Seconds) -> Segment {
        Segment { power: self.power, until: u64::MAX }
    }
}

/// An RFID-reader-like source: periodic bursts of power while the tag is in
/// the reader field, nothing in between, with optional jitter on the burst
/// timing.
#[derive(Debug, Clone)]
pub struct RfidSource {
    peak: Power,
    period: Seconds,
    duty_cycle: f64,
    jitter: f64,
    jitter_rng: CounterRng,
    /// `(cycle, start, end)` memos of the last two windows computed, one
    /// slot per cycle parity.  Windows are pure functions of the cycle, so
    /// the memo can never go stale — it only saves the jitter mix on repeat
    /// queries (several ticks per cycle on campaign grids, and a rest
    /// segment asking about `cycle` and `cycle + 1` hits both slots).
    window_memo: [Option<(u64, f64, f64)>; 2],
}

impl RfidSource {
    /// Creates an RFID source delivering `peak` power for `duty_cycle`
    /// (0..=1) of every `period`, with `jitter` (0..=0.5) relative timing
    /// noise, seeded deterministically.
    #[must_use]
    pub fn new(peak: Power, period: Seconds, duty_cycle: f64, jitter: f64, seed: u64) -> Self {
        Self {
            peak,
            period,
            duty_cycle: duty_cycle.clamp(0.0, 1.0),
            jitter: jitter.clamp(0.0, 0.5),
            jitter_rng: CounterRng::new(seed),
            window_memo: [None; 2],
        }
    }

    /// A typical reader field: 1 mW peak, 2 s period, 40 % duty cycle.
    #[must_use]
    pub fn typical(seed: u64) -> Self {
        Self::new(Power::from_milliwatts(1.0), Seconds::new(2.0), 0.4, 0.1, seed)
    }

    /// The burst window of `cycle`, as `(start, end)` phase fractions.  A
    /// pure function of the cycle index: the jitter draw is counter-indexed
    /// by the cycle number, so any cycle's window can be computed at any
    /// time, in any order, without consuming a stream.
    fn cycle_window(&self, cycle: u64) -> (f64, f64) {
        let jitter_start = if self.jitter > 0.0 {
            self.jitter_rng.range_f64(cycle, -self.jitter, self.jitter)
        } else {
            0.0
        };
        let start = jitter_start.clamp(0.0, 1.0 - self.duty_cycle);
        let end = (start + self.duty_cycle).min(1.0);
        (start, end)
    }

    /// [`Self::cycle_window`] behind the memo — the hot-path variant for
    /// repeat queries of the same (or adjacent) cycles.  Parity-indexed
    /// slots keep `cycle` and `cycle + 1` cached side by side, so a rest
    /// segment's two window lookups never evict each other.
    fn cycle_window_memo(&mut self, cycle: u64) -> (f64, f64) {
        let slot = (cycle & 1) as usize;
        if let Some((cached, start, end)) = self.window_memo[slot] {
            if cached == cycle {
                return (start, end);
            }
        }
        let (start, end) = self.cycle_window(cycle);
        self.window_memo[slot] = Some((cycle, start, end));
        (start, end)
    }
}

impl HarvestSource for RfidSource {
    fn power_at(&mut self, t: Seconds) -> Power {
        if self.period.is_non_positive() {
            return Power::ZERO;
        }
        let (cycle, phase) = split_cycles(t.as_seconds() / self.period.as_seconds());
        let (start, end) = self.cycle_window_memo(cycle);
        if phase >= start && phase < end {
            self.peak
        } else {
            Power::ZERO
        }
    }

    fn describe(&self) -> String {
        format!(
            "RFID bursts: {:.3} mW peak, {:.1} s period, {:.0} % duty",
            self.peak.as_milliwatts(),
            self.period.as_seconds(),
            self.duty_cycle * 100.0
        )
    }

    /// Constant while the tick grid stays inside one burst or one rest.
    /// Windows are pure functions of the cycle index, so the rest after a
    /// burst extends across the cycle wrap into the next cycle's pre-burst
    /// rest — one contiguous zero-power stretch.  The cycle/phase split is
    /// monotone in the tick index, so checking the window's last tick with
    /// the exact `power_at` arithmetic proves the whole window.
    fn segment(&mut self, tick: u64, dt: Seconds) -> Segment {
        if self.period.is_non_positive() {
            // Degenerate period: identically zero power, no state.
            return Segment { power: Power::ZERO, until: u64::MAX };
        }
        let (dt_s, period) = (dt.as_seconds(), self.period.as_seconds());
        let t0 = tick as f64 * dt_s;
        let (cycle, phase0) = split_cycles(t0 / period);
        let (start, end) = self.cycle_window_memo(cycle);
        let on = phase0 >= start && phase0 < end;
        let power = if on { self.peak } else { Power::ZERO };
        // The cycle splits into [0, start) off, [start, end) on, [end, 1)
        // off — and the trailing rest runs on into [0, start') of cycle + 1.
        let mut next_start = 0.0;
        let edge = if phase0 < start {
            cycle as f64 + start
        } else if on {
            cycle as f64 + end
        } else {
            next_start = self.cycle_window_memo(cycle + 1).0;
            (cycle + 1) as f64 + next_start
        };
        let until = window_end(tick, (edge * period - t0) / dt_s, |j| {
            let (c, phase) = split_cycles((tick + j) as f64 * dt_s / period);
            if c == cycle {
                if on {
                    phase < end
                } else if phase0 < start {
                    phase < start
                } else {
                    phase >= end
                }
            } else {
                phase0 >= end && c == cycle + 1 && phase < next_start
            }
        });
        Segment { power, until }
    }
}

/// A slow solar-like source: a raised sinusoid over a configurable "day",
/// with multiplicative cloud noise.
#[derive(Debug, Clone)]
pub struct SolarSource {
    peak: Power,
    day_length: Seconds,
    cloudiness: f64,
    clouds: CounterRng,
}

impl SolarSource {
    /// Creates a solar source peaking at `peak` over a day of `day_length`,
    /// with `cloudiness` (0..=1) noise, seeded deterministically.
    #[must_use]
    pub fn new(peak: Power, day_length: Seconds, cloudiness: f64, seed: u64) -> Self {
        Self {
            peak,
            day_length,
            cloudiness: cloudiness.clamp(0.0, 1.0),
            clouds: CounterRng::new(seed),
        }
    }

    /// The clamped sine factor at a day phase: daylight between phase 0.25
    /// and 0.75, exactly `0.0` at night.
    fn sun(phase: f64) -> f64 {
        (std::f64::consts::PI * (phase * 2.0 - 0.5)).sin().max(0.0)
    }

    /// The sample at instant `t` given its non-zero sun factor.  Cloud noise
    /// is indexed by the instant's bit pattern, which on a fixed tick grid is
    /// injective in the tick index.
    fn daylight(&self, t: f64, sun: f64) -> Power {
        let clouds = 1.0 - self.cloudiness * self.clouds.unit_f64(t.to_bits());
        Power::new(self.peak.as_watts() * sun * clouds)
    }

    /// The exclusive end of the night window anchored at a dark `tick` —
    /// kept out of line, so the per-tick daylight path stays small.
    #[inline(never)]
    fn night_end(tick: u64, dt_s: f64, day: f64, cycle: u64, phase0: f64) -> u64 {
        let sunrise = (cycle as f64 + if phase0 <= 0.25 { 0.25 } else { 1.25 }) * day;
        window_end(tick, (sunrise - tick as f64 * dt_s) / dt_s, |j| {
            Self::sun(split_cycles((tick + j) as f64 * dt_s / day).1) == 0.0
        })
    }
}

impl HarvestSource for SolarSource {
    fn power_at(&mut self, t: Seconds) -> Power {
        if self.day_length.is_non_positive() {
            return Power::ZERO;
        }
        let sun = Self::sun(split_cycles(t.as_seconds() / self.day_length.as_seconds()).1);
        if sun == 0.0 {
            // `peak * 0.0 * clouds` is `+0.0` whatever the cloud draw would
            // have been (the cloud factor is strictly positive), and the
            // draw is counter-indexed — pure in `t` — so eliding it leaves
            // no stream to advance.
            return Power::ZERO;
        }
        self.daylight(t.as_seconds(), sun)
    }

    fn describe(&self) -> String {
        format!(
            "solar: {:.3} mW peak over a {:.0} s day",
            self.peak.as_milliwatts(),
            self.day_length.as_seconds()
        )
    }

    /// Daylight samples carry a fresh cloud draw every tick, so they come as
    /// length-1 windows.  Nights are steady at exactly zero: the window runs
    /// to the next sunrise (phase 0.25 of this day, or of the next one after
    /// sunset), and its last tick is re-checked with the exact `power_at`
    /// sine expression — the dark phases of a day are one contiguous
    /// interval across the day wrap, so a dark last tick proves the window.
    fn segment(&mut self, tick: u64, dt: Seconds) -> Segment {
        if self.day_length.is_non_positive() {
            // Degenerate day: `power_at` early-returns zero, no state.
            return Segment { power: Power::ZERO, until: u64::MAX };
        }
        let (dt_s, day) = (dt.as_seconds(), self.day_length.as_seconds());
        let t0 = tick as f64 * dt_s;
        let (cycle, phase0) = split_cycles(t0 / day);
        let sun = Self::sun(phase0);
        if sun != 0.0 {
            return Segment { power: self.daylight(t0, sun), until: tick + 1 };
        }
        Segment { power: Power::ZERO, until: Self::night_end(tick, dt_s, day, cycle, phase0) }
    }
}

/// A two-state (on/off) Markov source with exponential dwell times — the
/// classic abstraction of an unpredictable ambient channel.
#[derive(Debug, Clone)]
pub struct MarkovSource {
    on_power: Power,
    mean_on: Seconds,
    mean_off: Seconds,
    /// Dwell-time stream, indexed by the switch count: draw `k` is the dwell
    /// preceding switch `k + 1`, whenever it happens to be computed.
    dwell: CounterRng,
    draws: u64,
    state_on: bool,
    next_switch: f64,
    last_time: f64,
}

impl MarkovSource {
    /// Creates a Markov source delivering `on_power` during on periods with
    /// the given mean on/off dwell times.
    #[must_use]
    pub fn new(on_power: Power, mean_on: Seconds, mean_off: Seconds, seed: u64) -> Self {
        let dwell = CounterRng::new(seed);
        let first = dwell.unit_f64(0).max(1e-9);
        let next_switch = -mean_on.as_seconds() * first.ln();
        Self {
            on_power,
            mean_on,
            mean_off,
            dwell,
            draws: 1,
            state_on: true,
            next_switch,
            last_time: 0.0,
        }
    }
}

impl HarvestSource for MarkovSource {
    fn power_at(&mut self, t: Seconds) -> Power {
        let now = t.as_seconds().max(self.last_time);
        self.last_time = now;
        while now >= self.next_switch {
            self.state_on = !self.state_on;
            let mean = if self.state_on { self.mean_on } else { self.mean_off };
            let u = self.dwell.unit_f64(self.draws).max(1e-9);
            self.draws += 1;
            self.next_switch += (-mean.as_seconds() * u.ln()).max(1e-6);
        }
        if self.state_on {
            self.on_power
        } else {
            Power::ZERO
        }
    }

    fn describe(&self) -> String {
        format!(
            "markov on/off: {:.3} mW, mean on {:.1} s / off {:.1} s",
            self.on_power.as_milliwatts(),
            self.mean_on.as_seconds(),
            self.mean_off.as_seconds()
        )
    }

    /// The current dwell lasts up to the first tick at or past
    /// `next_switch`: queries before it return the dwell power and touch
    /// nothing but `last_time`, a pure monotonicity clamp — and dwell draws
    /// are indexed by the switch count, so the catch-up loop produces the
    /// same dwell times whether the intermediate queries happen or not.
    fn segment(&mut self, tick: u64, dt: Seconds) -> Segment {
        let dt_s = dt.as_seconds();
        let power = self.power_at(Seconds::new(tick as f64 * dt_s));
        let next = self.next_switch;
        let until =
            window_end(tick, next / dt_s - tick as f64, |j| ((tick + j) as f64 * dt_s) < next);
        Segment { power, until }
    }
}

/// A piecewise-constant source defined by explicit `(start_time, power)`
/// segments — the "predetermined sequence of voltage levels that cyclically
/// repeat" of the paper.  Used to script Fig. 4.
///
/// Lookups go through a monotone cursor: simulators only move time forward,
/// so the source remembers the segment the previous query landed in and
/// usually answers with one comparison, rescanning from the front only when
/// a cyclic schedule wraps (or a query goes back in time).  The answers are
/// the exact segment values a linear scan finds — a table lookup, not new
/// arithmetic — and equality ignores the cursor.
#[derive(Debug, Clone)]
pub struct PiecewiseSource {
    segments: Vec<(Seconds, Power)>,
    cyclic: bool,
    total: Seconds,
    cursor: usize,
}

impl PartialEq for PiecewiseSource {
    fn eq(&self, other: &Self) -> bool {
        self.segments == other.segments && self.cyclic == other.cyclic && self.total == other.total
    }
}

impl PiecewiseSource {
    /// Creates a piecewise source from `(segment_start, power)` pairs.  The
    /// pairs must be sorted by start time and begin at `t = 0`.  When
    /// `cyclic` is true the schedule repeats after the last segment's end,
    /// which must be provided as `total_duration`.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or not sorted by start time.
    #[must_use]
    pub fn new(segments: Vec<(Seconds, Power)>, cyclic: bool, total_duration: Seconds) -> Self {
        assert!(!segments.is_empty(), "a piecewise source needs at least one segment");
        assert!(
            segments.windows(2).all(|w| w[0].0 <= w[1].0),
            "piecewise segments must be sorted by start time"
        );
        Self { segments, cyclic, total: total_duration, cursor: 0 }
    }

    /// The source's total (or cycle) duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.total
    }

    /// Consumes the source and returns its segment buffer, so a finished
    /// run's allocation can be recycled into the next source (see
    /// [`crate::schedule::Schedule::to_source_reusing`]).
    #[must_use]
    pub fn into_segments(self) -> Vec<(Seconds, Power)> {
        self.segments
    }

    /// The `(segment_start, power)` table.
    #[must_use]
    pub fn segments(&self) -> &[(Seconds, Power)] {
        &self.segments
    }

    /// Maps an absolute query time onto the schedule's local time axis,
    /// wrapping cyclic schedules.
    fn wrapped_time(&self, t: f64) -> f64 {
        let total = self.total.as_seconds();
        if self.cyclic && total > 0.0 {
            t % total
        } else {
            t
        }
    }

    /// The index of the segment in force at local time `w`, or `None` before
    /// the first segment starts — the monotone-cursor lookup.
    fn locate(&mut self, w: f64) -> Option<usize> {
        // A wrap (or any earlier query) lands before the cached segment:
        // rewind and rescan from the front, exactly like the scan.
        if w < self.segments[self.cursor].0.as_seconds() {
            self.cursor = 0;
            if w < self.segments[0].0.as_seconds() {
                return None;
            }
        }
        while self.segments.get(self.cursor + 1).is_some_and(|&(start, _)| start.as_seconds() <= w)
        {
            self.cursor += 1;
        }
        Some(self.cursor)
    }
}

impl HarvestSource for PiecewiseSource {
    fn power_at(&mut self, t: Seconds) -> Power {
        let w = self.wrapped_time(t.as_seconds());
        self.locate(w).map_or(Power::ZERO, |i| self.segments[i].1)
    }

    fn describe(&self) -> String {
        format!(
            "piecewise schedule: {} segments over {:.0} s{}",
            self.segments.len(),
            self.total.as_seconds(),
            if self.cyclic { ", cyclic" } else { "" }
        )
    }

    /// Steady until the next segment start, or the cycle wrap of a cyclic
    /// schedule past its last segment; a non-cyclic schedule past its last
    /// segment is constant forever.  A cyclic window stays strictly inside
    /// one cycle, so local time is monotone over it and verifying the last
    /// tick with the exact wrapped-time mapping verifies the window.
    fn segment(&mut self, tick: u64, dt: Seconds) -> Segment {
        let dt_s = dt.as_seconds();
        let w0 = self.wrapped_time(tick as f64 * dt_s);
        let at = self.locate(w0);
        let power = at.map_or(Power::ZERO, |i| self.segments[i].1);
        let total = self.total.as_seconds();
        let wraps = self.cyclic && total > 0.0;
        let boundary = match self.segments.get(at.map_or(0, |i| i + 1)) {
            Some(&(start, _)) => start.as_seconds(),
            None if wraps => total,
            None => return Segment { power, until: u64::MAX },
        };
        let mut est = (boundary - w0) / dt_s;
        if wraps {
            est = est.min(total / dt_s * (1.0 - 1e-9));
        }
        let until = window_end(tick, est, |j| {
            let w = self.wrapped_time((tick + j) as f64 * dt_s);
            w >= w0 && w < boundary
        });
        Segment { power, until }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_source_is_constant() {
        let mut s = ConstantSource::new(Power::from_milliwatts(2.0));
        assert_eq!(s.power_at(Seconds::new(0.0)), s.power_at(Seconds::new(99.0)));
        assert!(s.describe().contains("constant"));
    }

    #[test]
    fn rfid_source_bursts_and_rests() {
        let mut s = RfidSource::new(Power::from_milliwatts(1.0), Seconds::new(2.0), 0.5, 0.0, 1);
        // With no jitter the first half of each period is on.
        assert!(s.power_at(Seconds::new(0.1)).as_milliwatts() > 0.0);
        assert_eq!(s.power_at(Seconds::new(1.9)), Power::ZERO);
        assert!(s.power_at(Seconds::new(2.3)).as_milliwatts() > 0.0);
    }

    #[test]
    fn rfid_average_power_tracks_duty_cycle() {
        let mut s = RfidSource::typical(42);
        let dt = 0.05;
        let steps = 20_000;
        let mut acc = 0.0;
        for i in 0..steps {
            acc += s.power_at(Seconds::new(i as f64 * dt)).as_milliwatts() * dt;
        }
        let avg = acc / (steps as f64 * dt);
        // 1 mW peak at 40 % duty -> ~0.4 mW average.
        assert!((avg - 0.4).abs() < 0.1, "average {avg}");
    }

    #[test]
    fn solar_source_is_zero_at_night_and_positive_at_noon() {
        let mut s = SolarSource::new(Power::from_milliwatts(5.0), Seconds::new(1000.0), 0.0, 3);
        assert_eq!(s.power_at(Seconds::new(0.0)), Power::ZERO);
        assert!(s.power_at(Seconds::new(500.0)).as_milliwatts() > 4.0);
        assert_eq!(s.power_at(Seconds::new(999.0)), Power::ZERO);
    }

    #[test]
    fn markov_source_visits_both_states() {
        let mut s =
            MarkovSource::new(Power::from_milliwatts(1.0), Seconds::new(5.0), Seconds::new(5.0), 9);
        let mut on = 0;
        let mut off = 0;
        for i in 0..10_000 {
            if s.power_at(Seconds::new(i as f64 * 0.1)).as_milliwatts() > 0.0 {
                on += 1;
            } else {
                off += 1;
            }
        }
        assert!(on > 1000, "on samples {on}");
        assert!(off > 1000, "off samples {off}");
    }

    #[test]
    fn piecewise_source_follows_its_segments() {
        let mut s = PiecewiseSource::new(
            vec![
                (Seconds::new(0.0), Power::from_milliwatts(1.0)),
                (Seconds::new(10.0), Power::ZERO),
                (Seconds::new(20.0), Power::from_milliwatts(0.5)),
            ],
            false,
            Seconds::new(30.0),
        );
        assert!((s.power_at(Seconds::new(5.0)).as_milliwatts() - 1.0).abs() < 1e-12);
        assert_eq!(s.power_at(Seconds::new(15.0)), Power::ZERO);
        assert!((s.power_at(Seconds::new(25.0)).as_milliwatts() - 0.5).abs() < 1e-12);
        // Beyond the end a non-cyclic schedule keeps the last value.
        assert!((s.power_at(Seconds::new(99.0)).as_milliwatts() - 0.5).abs() < 1e-12);
        assert!((s.duration().as_seconds() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn cyclic_piecewise_source_wraps_around() {
        let mut s = PiecewiseSource::new(
            vec![
                (Seconds::new(0.0), Power::from_milliwatts(1.0)),
                (Seconds::new(10.0), Power::ZERO),
            ],
            true,
            Seconds::new(20.0),
        );
        assert!((s.power_at(Seconds::new(25.0)).as_milliwatts() - 1.0).abs() < 1e-12);
        assert_eq!(s.power_at(Seconds::new(35.0)), Power::ZERO);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_segments_are_rejected() {
        let _ = PiecewiseSource::new(
            vec![
                (Seconds::new(10.0), Power::ZERO),
                (Seconds::new(0.0), Power::from_milliwatts(1.0)),
            ],
            false,
            Seconds::new(20.0),
        );
    }

    /// Pins the [`HarvestSource::segment`] contract against a naive
    /// `power_at` walk over `ticks` ticks of `dt`: every window is non-empty,
    /// `power_at` at every tick of a window (on a copy of the source as the
    /// window left it) returns the window's sample bit for bit, and a walker
    /// that calls *only* `segment` — jumping from window to window —
    /// reproduces the naive walk.  Returns the windows' exclusive ends and
    /// the ticks covered by windows of two or more ticks.
    fn check_segment_contract<S: HarvestSource + Clone>(
        make: impl Fn() -> S,
        ticks: u64,
        dt: f64,
    ) -> (Vec<u64>, u64) {
        let at = |i: u64| Seconds::new(i as f64 * dt);
        let mut naive = make();
        let reference: Vec<u64> =
            (0..ticks).map(|i| naive.power_at(at(i)).value().to_bits()).collect();
        let mut walker = make();
        let (mut ends, mut covered, mut i) = (Vec::new(), 0, 0);
        while i < ticks {
            let seg = walker.segment(i, Seconds::new(dt));
            assert!(seg.until > i, "empty window at tick {i}");
            let last = seg.until.min(ticks);
            let mut probe = walker.clone();
            for j in i..last {
                let bits = seg.power.value().to_bits();
                assert_eq!(reference[j as usize], bits, "tick {j} of window {i}..{}", seg.until);
                assert_eq!(probe.power_at(at(j)).value().to_bits(), bits, "power_at at tick {j}");
            }
            if last - i >= 2 {
                covered += last - i;
            }
            ends.push(seg.until);
            i = last;
        }
        (ends, covered)
    }

    #[test]
    fn constant_sources_are_steady_forever() {
        let make = || ConstantSource::new(Power::from_milliwatts(0.3));
        let (ends, covered) = check_segment_contract(make, 1000, 0.5);
        assert_eq!((ends, covered), (vec![u64::MAX], 1000));
    }

    #[test]
    fn markov_steady_windows_never_cross_a_dwell_switch() {
        for seed in 0..20_u64 {
            let make = || {
                MarkovSource::new(
                    Power::from_milliwatts(0.5),
                    Seconds::new(20.0),
                    Seconds::new(40.0),
                    seed,
                )
            };
            let (_, covered) = check_segment_contract(make, 8000, 0.5);
            // Mean dwells span dozens of ticks, so most ticks are covered.
            assert!(covered > 6000, "seed {seed}: only {covered} covered");
        }
        // A switch landing exactly on a tick: that tick already samples the
        // new dwell, so the window must end right at it.
        let make = || {
            MarkovSource::new(
                Power::from_milliwatts(0.5),
                Seconds::new(20.0),
                Seconds::new(40.0),
                3,
            )
        };
        let switch = make().next_switch;
        let k = (10..1000_u64)
            .find(|&k| k as f64 * (switch / k as f64) == switch)
            .expect("a grid through the first switch instant");
        let dt = switch / k as f64;
        let (ends, _) = check_segment_contract(make, 4 * k, dt);
        assert!(ends.contains(&k), "no window ends at the switch tick {k}: {ends:?}");
    }

    #[test]
    fn rfid_steady_windows_never_cross_a_burst_boundary() {
        // A fine step lands ticks right on burst edges.
        let (_, covered) = check_segment_contract(|| RfidSource::typical(42), 20_000, 0.05);
        assert!(covered > 15_000, "only {covered} ticks covered");
        // Maximal jitter, empty and full duty cycles, and degenerate periods.
        let mw = Power::from_milliwatts(0.6);
        for (period, duty, jitter) in
            [(5.0, 0.2, 0.5), (2.0, 0.0, 0.3), (2.0, 1.0, 0.3), (0.0, 0.4, 0.1), (-1.0, 0.4, 0.1)]
        {
            let make = || RfidSource::new(mw, Seconds::new(period), duty, jitter, 7);
            let (ends, _) = check_segment_contract(make, 4_000, 0.05);
            if period <= 0.0 {
                assert_eq!(ends, vec![u64::MAX], "period {period}");
            }
        }
        // Windows are pure, so a fresh source vouches for a window anchored
        // anywhere — the promise must hold against fresh samples.
        let seg = RfidSource::typical(42).segment(777, Seconds::new(0.05));
        for j in 777..seg.until {
            let p = RfidSource::typical(42).power_at(Seconds::new(j as f64 * 0.05));
            assert_eq!(p.value().to_bits(), seg.power.value().to_bits(), "tick {j}");
        }
    }

    /// Probing an older cycle after the jitter stream had moved on used to
    /// redraw *different* jitter for the same cycle.  Counter indexing makes
    /// the window a pure function of the cycle, whatever the query order.
    #[test]
    fn rfid_cycle_windows_are_pure_in_the_cycle_index() {
        let s = RfidSource::new(Power::from_milliwatts(0.6), Seconds::new(5.0), 0.2, 0.2, 11);
        let forward: Vec<(f64, f64)> = (0..100).map(|c| s.cycle_window(c)).collect();
        let shuffled_order = [57_u64, 3, 99, 0, 42, 42, 7, 98, 1, 57];
        for &c in &shuffled_order {
            assert_eq!(s.cycle_window(c), forward[c as usize], "cycle {c}");
        }
        // The same holds through `power_at`, state and all: sampling late
        // cycles first must not perturb early cycles.
        let mut ordered = RfidSource::typical(42);
        let mut scrambled = RfidSource::typical(42);
        let _ = scrambled.power_at(Seconds::new(1000.0));
        for i in 0..4_000_u64 {
            let t = Seconds::new(i as f64 * 0.05);
            assert_eq!(ordered.power_at(t), scrambled.power_at(t), "tick {i}");
        }
    }

    /// Nights are one window each, daylight comes tick by tick, and a walker
    /// jumping from window to window stays bit-identical to the naive walk
    /// across every day/night boundary.
    #[test]
    fn solar_steady_windows_cover_the_night() {
        for seed in 0..8_u64 {
            let make =
                || SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(1000.0), 0.4, seed);
            // 4000 ticks at 0.5 s span two full days; nights are half of
            // each day, so at least ~1/3 of all ticks must be covered.
            let (_, covered) = check_segment_contract(make, 4_000, 0.5);
            assert!(covered > 1_300, "seed {seed}: only {covered} covered");
        }
        // Tick 500 lands on phase 0.25 exactly, where the sine is exactly
        // zero: the last dark tick before sunrise, so a window ends there.
        let make = || SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(1000.0), 0.4, 1);
        assert_eq!(SolarSource::sun(0.25), 0.0);
        assert_eq!(make().power_at(Seconds::new(250.0)), Power::ZERO);
        assert!(make().power_at(Seconds::new(250.5)) > Power::ZERO);
        let (ends, _) = check_segment_contract(make, 4_000, 0.5);
        assert!(ends.contains(&501), "{ends:?}");
        // A degenerate day is zero forever.
        for day in [0.0, -5.0] {
            let make = || SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(day), 0.4, 1);
            assert_eq!(check_segment_contract(make, 100, 0.5).0, vec![u64::MAX]);
        }
    }

    /// Cloud noise is indexed by the query instant, so solar samples are
    /// pure in `t` — querying out of order changes nothing.
    #[test]
    fn solar_samples_are_pure_in_the_query_time() {
        let mut ordered =
            SolarSource::new(Power::from_milliwatts(5.0), Seconds::new(1000.0), 0.3, 3);
        let mut scrambled =
            SolarSource::new(Power::from_milliwatts(5.0), Seconds::new(1000.0), 0.3, 3);
        let _ = scrambled.power_at(Seconds::new(500.0));
        let _ = scrambled.power_at(Seconds::new(710.0));
        for i in 0..2_000_u64 {
            let t = Seconds::new(i as f64 * 0.5);
            assert_eq!(ordered.power_at(t), scrambled.power_at(t), "tick {i}");
        }
    }

    #[test]
    fn rfid_steady_windows_respect_jittered_cycles() {
        for seed in 0..20 {
            let make =
                || RfidSource::new(Power::from_milliwatts(0.6), Seconds::new(5.0), 0.2, 0.2, seed);
            let (_, covered) = check_segment_contract(make, 8_000, 0.5);
            assert!(covered > 0, "seed {seed} never covered a window");
        }
    }

    #[test]
    fn piecewise_steady_windows_stop_at_segments_and_wraps() {
        let make = |cyclic| {
            move || {
                PiecewiseSource::new(
                    vec![
                        (Seconds::new(0.0), Power::from_milliwatts(1.0)),
                        (Seconds::new(9.7), Power::ZERO),
                        (Seconds::new(21.3), Power::from_milliwatts(0.5)),
                    ],
                    cyclic,
                    Seconds::new(30.0),
                )
            }
        };
        for cyclic in [false, true] {
            let (_, covered) = check_segment_contract(make(cyclic), 4_000, 0.25);
            assert!(covered > 3_900, "cyclic={cyclic}: only {covered} covered");
        }
        // Non-cyclic schedules are constant — steady forever — past the end.
        assert_eq!(make(false)().segment(1000, Seconds::new(0.25)).until, u64::MAX);
        // A cyclic window ends at the wrap (tick 120 = 30 s).
        let seg = make(true)().segment(100, Seconds::new(0.25));
        assert_eq!((seg.power, seg.until), (Power::from_milliwatts(0.5), 120));
    }

    #[test]
    fn piecewise_steady_windows_handle_a_delayed_first_segment() {
        let make = || {
            PiecewiseSource::new(
                vec![(Seconds::new(10.0), Power::from_milliwatts(1.0))],
                true,
                Seconds::new(25.0),
            )
        };
        let (_, covered) = check_segment_contract(make, 2_000, 0.5);
        assert!(covered > 1_900, "only {covered} covered");
        // The zero-power lead-in before the first segment is a window too.
        let seg = make().segment(0, Seconds::new(0.5));
        assert_eq!((seg.power, seg.until), (Power::ZERO, 20));
    }

    #[test]
    fn the_default_segment_is_one_tick_long() {
        struct Ramp;
        impl HarvestSource for Ramp {
            fn power_at(&mut self, t: Seconds) -> Power {
                Power::new(t.as_seconds())
            }
            fn describe(&self) -> String {
                "ramp".into()
            }
        }
        let seg = Ramp.segment(6, Seconds::new(0.5));
        assert_eq!((seg.power, seg.until), (Power::new(3.0), 7));
    }

    #[test]
    fn sources_are_deterministic_per_seed() {
        let collect = |seed| {
            let mut s = MarkovSource::new(
                Power::from_milliwatts(1.0),
                Seconds::new(3.0),
                Seconds::new(7.0),
                seed,
            );
            (0..500)
                .map(|i| s.power_at(Seconds::new(i as f64 * 0.5)).as_watts())
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(5), collect(5));
        assert_ne!(collect(5), collect(6));
    }
}
