//! Ambient harvest sources.
//!
//! The paper focuses on RFID as the ambient source ("intermittent energy
//! bursts can cause operational interruptions") and models it as "a
//! predetermined sequence of voltage levels that cyclically repeat".  The
//! sources here produce exactly such power-versus-time profiles; all of them
//! are deterministic given their configuration (and seed, where randomness is
//! involved) so that every experiment is reproducible.
//!
//! A caller that burns ticks in closed form asks for a [`Run`] instead of a
//! sample: the first tick's quantised offer, where the run ends, and the
//! run's exact total offer.  A run either repeats one offer (a plateau, a
//! dwell, a night — the source's own window) or, for sources whose samples
//! vary tick by tick, sums them up to the caller's limits: RFID counts burst
//! ticks from its edge table, solar sums its daylight samples.
//!
//! Stochastic sources draw from counter-indexed streams ([`crate::crng`]):
//! solar cloud noise is indexed by the query instant, RFID burst jitter by
//! the cycle number, Markov dwell times by the switch count.  Each draw is a
//! pure function of `(seed, index)`, so a caller that takes a whole run at
//! once skips the run's remaining queries in O(1), without any replay
//! bookkeeping.

use std::sync::Arc;

use crate::capacitor::quantise;
use crate::crng::CounterRng;

use tech45::units::{EnergyFx, Power, Seconds};

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
/// claimed tick proves the whole window, however `est` rounded.  An
/// estimate that ran long walks back to the last tick inside; one that ran
/// short by its rounding error takes the one tick past it that is still
/// inside, so the window is maximal either way.  (One probe, not a walk: a
/// deliberately capped estimate — a cyclic schedule's wrap — must not run
/// on around the cycle.)
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
    if h > 0 && !inside(h) {
        h -= 1;
        while h > 0 && !inside(h) {
            h -= 1;
        }
    } else if est < CAP && inside(h + 1) {
        h += 1;
    }
    tick + 1 + h
}

/// A run of ticks answered by one [`HarvestSource::run`] query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The quantised offer ([`quantise`]) of the queried tick.
    pub first: EnergyFx,
    /// The first tick past the run; always greater than the queried tick.
    pub until: u64,
    /// The sum of the run's per-tick quantised offers (saturating at the
    /// `i128` range for an endless uniform run).
    pub total: EnergyFx,
    /// Whether every tick of the run offers `first`.
    pub uniform: bool,
}

impl Run {
    /// The uniform run offering `first` on every tick of `tick..until`.
    #[must_use]
    pub fn uniform(first: EnergyFx, tick: u64, until: u64) -> Self {
        let (offer, h) = (first.attojoules(), until - tick);
        // One widening multiply where the offer fits 64 bits (every offer
        // this workspace quantises), not the overflow-checked 128-bit one.
        let total = match u64::try_from(offer) {
            Ok(o) => i128::try_from(u128::from(o) * u128::from(h)).unwrap_or(i128::MAX),
            Err(_) => offer.saturating_mul(i128::from(h)),
        };
        Self { first, until, total: EnergyFx::from_attojoules(total), uniform: true }
    }
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

    /// The run of ticks from `tick` (at `t = tick · dt`).  Tick `j` offers
    /// `quantise(power_at(j · dt), dt)`; `first` is the offer of `tick`,
    /// `until > tick`, and `total` is the exact sum of the run's offers.  A
    /// run comes in one of two kinds:
    ///
    /// * *uniform* — the source's window: every tick in `tick..until`
    ///   offers `first`, whatever the limits say, so a caller may burn any
    ///   prefix of it and keep the rest for later ticks;
    /// * *mixed* (`uniform == false`) — at least two ticks that fit both
    ///   limits, `until <= end` and `total <= budget`, to be burnt whole.
    ///
    /// The call leaves the source as `power_at` of the run's ticks would,
    /// and *not* sampling them perturbs no later sample — draws are
    /// counter-indexed, and the only per-query state left (memo caches, the
    /// RFID edge table, the piecewise cursor, the Markov monotone clock) is
    /// self-healing.
    ///
    /// The default is the length-1 run, which is always sound.
    fn run(&mut self, tick: u64, dt: Seconds, end: u64, budget: EnergyFx) -> Run {
        let _ = (end, budget);
        let power = self.power_at(Seconds::new(tick as f64 * dt.as_seconds()));
        Run::uniform(quantise(power, dt), tick, tick + 1)
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

    fn run(&mut self, tick: u64, dt: Seconds, _end: u64, _budget: EnergyFx) -> Run {
        Run::uniform(quantise(self.power, dt), tick, u64::MAX)
    }
}

/// Cycles an [`RfidSource`] tabulates per fill of its burst-edge table.  A
/// fill costs a few divisions per cycle, but its cycles are independent, so
/// they pipeline; a run of the paper grid's 2 s source spans 750 cycles, so
/// a fill is paid once every few dozen windows, and a run's unused tail is
/// at most one block.
const EDGE_BLOCK: usize = 32;

/// Burst edges are tabulated only below this tick (2^52).  Up to it every
/// grid index, and the one past it, is an exact f64.  Queries past it get
/// length-1 windows.
const EDGE_CAP: i64 = 1 << 52;

/// The edges a fill computes: a start and an end for each of its
/// `EDGE_BLOCK` cycles and for the one after, whose start is the table's
/// limit (its end is not needed, but keeps the loops regular).
const RAW_EDGES: usize = 2 * EDGE_BLOCK + 2;

/// The first tick `j` in `0..=EDGE_CAP` with `past(j)`, walking from a
/// guess; `past` must be monotone.  Kept out of line: only estimates far
/// out on the grid, near `EDGE_CAP`, miss an edge by more than a tick.
#[inline(never)]
fn walk_to_edge(mut j: i64, past: impl Fn(i64) -> bool) -> i64 {
    while j < EDGE_CAP && !past(j) {
        j += 1;
    }
    while j > 0 && past(j - 1) {
        j -= 1;
    }
    j
}

/// An [`RfidSource`]'s burst edges on one tick grid, for a block of cycles.
///
/// `edges` is strictly increasing.  The source is off before `edges[0]`
/// and toggles at every edge, so the parity of the cursor is the sample.
/// The last edge is `limit`, the first tick the table does not answer.
#[derive(Debug, Clone)]
struct BurstEdges {
    /// The bits of the step whose ticks the edges count.
    dt_bits: u64,
    /// The quantised offer of a burst tick on that step.
    peak: i128,
    /// No earlier tick is answered from the table: every edge before the
    /// cursor lies at or before it.
    from: u64,
    /// The first tick the table does not answer.
    limit: u64,
    /// The index of the first edge past `from`.
    cursor: usize,
    /// The toggle ticks, `limit` last; slots past it are stale.
    edges: [u64; 2 * EDGE_BLOCK + 1],
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
    /// `power_at` queries (several ticks per cycle on campaign grids).
    window_memo: [Option<(u64, f64, f64)>; 2],
    /// The burst edges [`HarvestSource::run`] answers from.
    table: BurstEdges,
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
            // `limit` 0 makes the first `run` call fill the table.
            table: BurstEdges {
                dt_bits: 0,
                peak: 0,
                from: 0,
                limit: 0,
                cursor: 0,
                edges: [0; 2 * EDGE_BLOCK + 1],
            },
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
    /// slots keep `cycle` and `cycle + 1` cached side by side.
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

    /// Fills the edge table with the `EDGE_BLOCK` cycles from the one
    /// holding `tick`, on the grid of step `dt`.  Returns `false`, leaving
    /// the table stale, where no table applies: a step that is not a
    /// positive finite number of ticks per period, or ticks too far out for
    /// exact grid arithmetic.
    ///
    /// Cycle `c`'s burst is the tick range `[s_c, e_c)`: `s_c` is the first
    /// tick at or past phase `(c, start)`, `e_c` the first at or past
    /// `(c, end)` (`end == 1` meaning the next cycle's first tick).  Phase
    /// is monotone in the tick index, so those ranges are exactly the ticks
    /// `power_at` puts in the burst.  The raw edges `s_0, e_0, …, s_B` are
    /// non-decreasing; cancelling equal neighbours (an empty burst, a rest
    /// no tick lands in) leaves the toggles, and `s_B` — ticks before it are
    /// known, since cycle `c_0 + B` is off up to its burst — is the limit.
    /// Kept out of line so that the cursor walk inlines into its callers.
    #[inline(never)]
    fn tabulate(&mut self, tick: u64, dt: f64) -> bool {
        if self.period.is_non_positive() {
            // Degenerate period: identically zero power, for every tick.
            self.table.edges[0] = u64::MAX;
            self.table.limit = u64::MAX;
            self.table.from = 0;
            self.table.cursor = 0;
            self.table.dt_bits = dt.to_bits();
            self.table.peak = 0;
            return true;
        }
        let period = self.period.as_seconds();
        let per = period / dt;
        let x = tick as f64 * dt / period;
        if !(per > 0.0 && per.is_finite() && x < EDGE_CAP as f64) || tick >= EDGE_CAP as u64 {
            return false;
        }
        // Edge `m` is the first tick at or past phase `f[m]` of cycle
        // `cf[m]` (as an f64, exact below 2^53): even `m` a burst start,
        // odd `m` its end.
        let c0 = split_cycles(x).0;
        let (mut cf, mut f) = ([0.0; RAW_EDGES], [0.0; RAW_EDGES]);
        for n in 0..RAW_EDGES / 2 {
            let c = c0 + n as u64;
            (cf[2 * n], cf[2 * n + 1]) = (c as f64, c as f64);
            (f[2 * n], f[2 * n + 1]) = self.cycle_window(c);
        }
        // Whether tick `j` (an integral f64) sits at or past phase `f` of
        // cycle `cf`: `split_cycles(j · dt / period) >= (c, f)`, the
        // `power_at` arithmetic.  With `x` the quotient, `x - cf` is exact
        // wherever `x` lies in cycle `c` (Sterbenz), negative before it and
        // at least 1 after it, so one subtraction compares both parts.
        let past = |j: f64, cf: f64, f: f64| j * dt / period - cf >= f;
        // The estimate `(cf + f) · per` is within a few ulps of the real
        // edge, and the first tick past it is the real edge's ceiling unless
        // the edge sits (nominally) on a tick, where the rounding of the
        // `power_at` quotient decides between that tick and the next.
        // Either way the edge is `j` or `j + 1` for `j` the estimate
        // rounded to the nearest tick (adding and subtracting 2^52 rounds
        // any value in `[0, 2^52]`), and one check settles which.  That
        // needs both roundings — about 3 ulps in the estimate, 2 in the
        // quotient — to stay well under half a tick, which holds below
        // 2^40 ticks with a 500-fold margin (raw edges are non-decreasing,
        // so the last estimate is the largest); further out, the tick
        // before each edge is checked too, and an edge outside the pair is
        // walked to.  The loop is branch-free float arithmetic over
        // independent edges, so it pipelines.
        const ROUND: f64 = EDGE_CAP as f64;
        const NEAR: f64 = (1_u64 << 40) as f64;
        let mut raw = [0.0; RAW_EDGES];
        for m in 0..RAW_EDGES {
            let j = ((cf[m] + f[m]) * per).min(ROUND) + ROUND - ROUND;
            raw[m] = if past(j, cf[m], f[m]) { j } else { j + 1.0 };
        }
        if (cf[RAW_EDGES - 1] + f[RAW_EDGES - 1]) * per >= NEAR
            && (0..RAW_EDGES).any(|m| past(raw[m] - 1.0, cf[m], f[m]) || !past(raw[m], cf[m], f[m]))
        {
            for m in 0..RAW_EDGES {
                raw[m] = walk_to_edge(raw[m] as i64, |j| past(j as f64, cf[m], f[m])) as f64;
            }
        }
        // Cancel equal neighbours; the survivors strictly increase.
        let limit = raw[2 * EDGE_BLOCK] as u64;
        let edges = &mut self.table.edges;
        let (mut len, mut top) = (0, u64::MAX);
        for &e in &raw[..=2 * EDGE_BLOCK] {
            let e = e as u64;
            if e == top {
                len -= 1;
                top = if len > 0 { edges[len - 1] } else { u64::MAX };
            } else {
                edges[len] = e;
                len += 1;
                top = e;
            }
        }
        // The table ends at the limit either way: `s_B` survived as the last
        // edge, or it cancelled an equal `e_(B-1)` — the burst runs on past
        // the limit — whose slot, just past the survivors, still holds it.
        self.table.dt_bits = dt.to_bits();
        self.table.peak = quantise(self.peak, Seconds::new(dt)).attojoules();
        self.table.from = tick;
        self.table.limit = limit;
        self.table.cursor = 0;
        true
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

    /// A cursor walk over the burst-edge table.  The window from `tick` runs
    /// to the next toggle, so bursts and rests come whole, and a rest spans
    /// the cycle wrap into the next cycle's pre-burst rest.  Where the
    /// limits reach past it, the walk goes on toggle by toggle — a burst
    /// tick offers the quantised peak, a rest tick nothing — and stops at
    /// `end`, at the table's limit, or inside the burst whose offer would
    /// overrun the budget: a many-cycle run costs one walk.  The table is
    /// rebuilt when the query leaves it — past its last cycle, backwards,
    /// or onto another grid step.
    fn run(&mut self, tick: u64, dt: Seconds, end: u64, budget: EnergyFx) -> Run {
        let dt_s = dt.as_seconds();
        let t = &self.table;
        if (tick < t.from || tick >= t.limit || dt_s.to_bits() != t.dt_bits)
            && !self.tabulate(tick, dt_s)
        {
            let power = self.power_at(Seconds::new(tick as f64 * dt_s));
            return Run::uniform(quantise(power, dt), tick, tick + 1);
        }
        let t = &mut self.table;
        let peak = t.peak;
        let mut k = t.cursor;
        while t.edges[k] <= tick {
            k += 1;
        }
        t.cursor = k;
        t.from = tick;
        // Burst windows sit at odd edge indices.
        let first = if k % 2 == 1 { peak } else { 0 };
        let window = Run::uniform(EnergyFx::from_attojoules(first), tick, t.edges[k]);
        let (stop, budget) = (end.min(t.limit), budget.attojoules());
        if window.until >= stop || peak <= 0 || window.total.attojoules() > budget {
            return window;
        }
        let (mut until, mut total) = (window.until, window.total.attojoules());
        k += 1;
        loop {
            let next = t.edges[k].min(stop);
            if k % 2 == 1 {
                let room = budget - total;
                let len = (next - until) as i128;
                if len * peak > room {
                    let fit = room / peak;
                    (until, total) = (until + fit as u64, total + fit * peak);
                    break;
                }
                total += len * peak;
            }
            until = next;
            if until == stop {
                break;
            }
            k += 1;
        }
        if until == window.until {
            return window;
        }
        // Every edge before `k` lies at or before `until`.
        t.cursor = k;
        t.from = until;
        Run { first: window.first, until, total: EnergyFx::from_attojoules(total), uniform: false }
    }
}

/// Ticks at or past this index are never in a [`SunTable`]: their sun
/// factor is computed where it is needed.  A full table is 8 MiB.
const SUN_TABLE_CAP: u64 = 1 << 20;

/// The sun factor of every tick `j` below its length on one
/// `(day_length, dt)` grid: exactly
/// `SolarSource::sun(split_cycles(j as f64 * dt / day).1)`, the expression
/// a daylight tick would evaluate.  The table is immutable and shared, so
/// the solar lanes of one grid read one table, and a clone (a sibling
/// fork's source, say) costs a reference-count increment.
#[derive(Debug, Clone)]
pub struct SunTable {
    /// The bits of `(day_length, dt)`.
    key: (u64, u64),
    suns: Arc<[f64]>,
}

impl SunTable {
    /// The table of the first `ticks` ticks of step `dt` under a day of
    /// `day_length`, capped at 2^20 ticks: later ticks compute their sine.
    #[must_use]
    pub fn new(day_length: Seconds, dt: Seconds, ticks: u64) -> Self {
        let (day, dt_s) = (day_length.as_seconds(), dt.as_seconds());
        let suns = (0..ticks.min(SUN_TABLE_CAP))
            .map(|j| SolarSource::sun(split_cycles(j as f64 * dt_s / day).1))
            .collect();
        Self { key: (day.to_bits(), dt_s.to_bits()), suns }
    }

    /// Whether the table is the grid of a day of `day_length` in steps of
    /// `dt`, bit for bit.
    fn fits(&self, day_length: Seconds, dt: Seconds) -> bool {
        self.key == (day_length.as_seconds().to_bits(), dt.as_seconds().to_bits())
    }
}

/// A slow solar-like source: a raised sinusoid over a configurable "day",
/// with multiplicative cloud noise.
///
/// [`HarvestSource::power_at`] evaluates the sine of its instant;
/// [`HarvestSource::run`] reads the sun factor of each tick from the
/// attached [`SunTable`] of its tick grid, whose every entry is that same
/// expression, and computes it where no such entry exists.  So every
/// batch-versus-scalar check also checks the table.
#[derive(Debug, Clone)]
pub struct SolarSource {
    peak: Power,
    day_length: Seconds,
    cloudiness: f64,
    clouds: CounterRng,
    /// `(tick, dt bits, offer)` of the daylight tick the last run sampled
    /// but left out, over its budget: the next run starts on it.  A pure
    /// cache — the offer is a function of the tick and the step.
    spare: (u64, u64, i128),
    /// The sun factors [`HarvestSource::run`] reads on a grid it fits.
    suns: Option<SunTable>,
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
            spare: (u64::MAX, 0, 0),
            suns: None,
        }
    }

    /// Attaches the table of `tables` that fits this source's day on steps
    /// of `dt`, if any (a clone: a reference-count increment).
    /// [`HarvestSource::run`] reads it on runs of that step.
    pub fn attach_sun_table(&mut self, tables: &[SunTable], dt: Seconds) {
        self.suns = tables.iter().find(|table| table.fits(self.day_length, dt)).cloned();
    }

    /// The clamped sine factor at a day phase: daylight between phase 0.25
    /// and 0.75, exactly `0.0` at night.  A phase in `[0, 0.24)` or
    /// `(0.76, 1)` puts the sine's argument in `[-π/2, -0.02π]` or
    /// `(1.02π, 1.5π)`, where the sine is negative and clamps to `0.0`, so
    /// those phases skip it; phases outside `[0, 1)` (a negative instant)
    /// take the exact expression.
    fn sun(phase: f64) -> f64 {
        if (0.0..0.24).contains(&phase) || (phase > 0.76 && phase < 1.0) {
            return 0.0;
        }
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

    /// Daylight samples carry a fresh cloud draw every tick, so a daylight
    /// run sums them, each with the exact `power_at` arithmetic, until
    /// `end`, the budget or sunset — a mixed run, or a length-1 one where
    /// the limits admit no second tick.  Nights are uniform at exactly zero:
    /// the window runs to the next sunrise (phase 0.25 of this day, or of
    /// the next one after sunset), and its last tick is re-checked with the
    /// exact `power_at` sine expression — the dark phases of a day are one
    /// contiguous interval across the day wrap, so a dark last tick proves
    /// the window.  Each tick's sun factor is read from the attached
    /// [`SunTable`] where the table fits `(day_length, dt)` and holds the
    /// tick, and computed otherwise.
    fn run(&mut self, tick: u64, dt: Seconds, end: u64, budget: EnergyFx) -> Run {
        if self.day_length.is_non_positive() {
            // Degenerate day: `power_at` early-returns zero, no state.
            return Run::uniform(EnergyFx::ZERO, tick, u64::MAX);
        }
        let (dt_s, day) = (dt.as_seconds(), self.day_length.as_seconds());
        let table = self.suns.as_ref().filter(|table| table.fits(self.day_length, dt));
        let suns = table.map_or(&[][..], |table| &table.suns);
        let sun_at = |j: u64| match usize::try_from(j).ok().and_then(|j| suns.get(j)) {
            Some(&sun) => sun,
            None => Self::sun(split_cycles(j as f64 * dt_s / day).1),
        };
        let first = if self.spare.0 == tick && self.spare.1 == dt_s.to_bits() {
            EnergyFx::from_attojoules(self.spare.2)
        } else {
            let t0 = tick as f64 * dt_s;
            let sun = sun_at(tick);
            if sun == 0.0 {
                let (cycle, phase0) = split_cycles(t0 / day);
                let until = Self::night_end(tick, dt_s, day, cycle, phase0);
                return Run::uniform(EnergyFx::ZERO, tick, until);
            }
            quantise(self.daylight(t0, sun), dt)
        };
        let (budget, mut total, mut until) = (budget.attojoules(), first.attojoules(), tick + 1);
        // A first offer past the budget admits no second tick to sample.
        while until < end && total <= budget {
            let sun = sun_at(until);
            if sun == 0.0 {
                break;
            }
            let offer = quantise(self.daylight(until as f64 * dt_s, sun), dt).attojoules();
            if total + offer > budget {
                self.spare = (until, dt_s.to_bits(), offer);
                break;
            }
            total += offer;
            until += 1;
        }
        if until == tick + 1 {
            return Run::uniform(first, tick, until);
        }
        Run { first, until, total: EnergyFx::from_attojoules(total), uniform: false }
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
    fn run(&mut self, tick: u64, dt: Seconds, _end: u64, _budget: EnergyFx) -> Run {
        let dt_s = dt.as_seconds();
        let power = self.power_at(Seconds::new(tick as f64 * dt_s));
        let next = self.next_switch;
        let until =
            window_end(tick, next / dt_s - tick as f64, |j| ((tick + j) as f64 * dt_s) < next);
        Run::uniform(quantise(power, dt), tick, until)
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
///
/// The segment table is immutable and shared, so a clone (a batch lane's
/// fork, say) costs a reference-count increment, not a copy.
#[derive(Debug, Clone)]
pub struct PiecewiseSource {
    segments: Arc<[(Seconds, Power)]>,
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
        Self::shared(segments.into(), cyclic, total_duration)
    }

    /// [`Self::new`] over a table shared with its owner (a
    /// [`crate::schedule::Schedule`]), under the same checks.
    pub(crate) fn shared(
        segments: Arc<[(Seconds, Power)]>,
        cyclic: bool,
        total_duration: Seconds,
    ) -> Self {
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
    fn run(&mut self, tick: u64, dt: Seconds, _end: u64, _budget: EnergyFx) -> Run {
        let dt_s = dt.as_seconds();
        let w0 = self.wrapped_time(tick as f64 * dt_s);
        let at = self.locate(w0);
        let first = quantise(at.map_or(Power::ZERO, |i| self.segments[i].1), dt);
        let total = self.total.as_seconds();
        let wraps = self.cyclic && total > 0.0;
        let boundary = match self.segments.get(at.map_or(0, |i| i + 1)) {
            Some(&(start, _)) => start.as_seconds(),
            None if wraps => total,
            None => return Run::uniform(first, tick, u64::MAX),
        };
        let mut est = (boundary - w0) / dt_s;
        if wraps {
            est = est.min(total / dt_s * (1.0 - 1e-9));
        }
        let until = window_end(tick, est, |j| {
            let w = self.wrapped_time((tick + j) as f64 * dt_s);
            w >= w0 && w < boundary
        });
        Run::uniform(first, tick, until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

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

    /// A budget no run can exhaust.
    const UNLIMITED: EnergyFx = EnergyFx::from_attojoules(i128::MAX);

    /// The uniform window of tick `tick`: a query whose limits admit no
    /// second tick.
    fn window<S: HarvestSource>(source: &mut S, tick: u64, dt: f64) -> Run {
        let run = source.run(tick, Seconds::new(dt), tick + 1, EnergyFx::ZERO);
        assert!(run.uniform, "a one-tick limit drew a mixed run at tick {tick}");
        run
    }

    /// The quantised offer of tick `i` of step `dt`, sampled per tick.
    fn offer<S: HarvestSource>(source: &mut S, i: u64, dt: f64) -> EnergyFx {
        quantise(source.power_at(Seconds::new(i as f64 * dt)), Seconds::new(dt))
    }

    /// What a run walk found: the windows' exclusive ends, the ticks covered
    /// by windows of two or more ticks, and the number of mixed runs.
    struct Walk {
        ends: Vec<u64>,
        covered: u64,
        mixed: u64,
    }

    /// Pins the [`HarvestSource::run`] contract against a naive `power_at`
    /// walk over `ticks` ticks of `dt`, with two walkers that call *only*
    /// `run`.
    ///
    /// The window walker's limits admit one tick, so every answer is the
    /// source's uniform window: non-empty, and every tick of it — sampled
    /// per tick, and sampled on a copy of the source as the query left it —
    /// offers `first`.  A window whose offer satisfies `maximal` must also be
    /// maximal: endless, or followed by a tick that samples differently.
    ///
    /// The run walker draws new limits for every query: a stretch end 1 to
    /// 96 ticks ahead, and a budget from nothing to unlimited in multiples of
    /// the largest offer.  Every run's total is the sum of its per-tick
    /// offers, a uniform run offers `first` on every tick, a mixed run is at
    /// least two ticks long and fits both limits, and the walk — which
    /// sometimes takes only a prefix of a uniform run and queries again
    /// mid-window — reproduces the naive grand total.
    fn check_run_contract<S: HarvestSource + Clone>(
        make: impl Fn() -> S,
        ticks: u64,
        dt: f64,
        maximal: impl Fn(EnergyFx) -> bool,
    ) -> Walk {
        let mut naive = make();
        let offers: Vec<EnergyFx> = (0..ticks).map(|i| offer(&mut naive, i, dt)).collect();
        let sum = |from: u64, to: u64| offers[from as usize..to as usize].iter().copied().sum();
        let mut walker = make();
        let mut walk = Walk { ends: Vec::new(), covered: 0, mixed: 0 };
        let mut i = 0;
        while i < ticks {
            let run = window(&mut walker, i, dt);
            assert!(run.until > i, "empty window at tick {i}");
            let last = run.until.min(ticks);
            let mut probe = walker.clone();
            for j in i..last {
                assert_eq!(offers[j as usize], run.first, "tick {j} of window {i}..{}", run.until);
                assert_eq!(offer(&mut probe, j, dt), run.first, "power_at at tick {j}");
            }
            if run.until <= ticks {
                assert_eq!(run.total, sum(i, run.until), "total of window {i}..{}", run.until);
            }
            if maximal(run.first) && run.until != u64::MAX {
                let mut sample = |j: u64| probe.power_at(Seconds::new(j as f64 * dt)).value();
                let (last, next) = (sample(run.until - 1), sample(run.until));
                assert_ne!(
                    last.to_bits(),
                    next.to_bits(),
                    "window {i}..{} is not maximal",
                    run.until
                );
            }
            if last - i >= 2 {
                walk.covered += last - i;
            }
            walk.ends.push(run.until);
            i = last;
        }

        let most = offers.iter().copied().max().unwrap_or(EnergyFx::ZERO).attojoules().max(1);
        let budgets = [0, most / 2, most, 3 * most, 40 * most, i128::MAX];
        let (mut walker, mut grand, mut i) = (make(), EnergyFx::ZERO, 0);
        for query in 0.. {
            if i >= ticks {
                break;
            }
            let r = crate::crng::mix64(query, 0x5EED);
            let end = (i + 1 + r % 96).min(ticks);
            let budget = EnergyFx::from_attojoules(budgets[(r >> 8) as usize % budgets.len()]);
            let run = walker.run(i, Seconds::new(dt), end, budget);
            let span = format!("run {i}..{} (end {end}, budget {budget})", run.until);
            assert!(run.until > i, "empty {span}");
            assert_eq!(run.first, offers[i as usize], "first offer of {span}");
            let last = run.until.min(ticks);
            if run.until <= ticks {
                assert_eq!(run.total, sum(i, run.until), "total of {span}");
            }
            let taken = if run.uniform {
                assert!(
                    offers[i as usize..last as usize].iter().all(|&o| o == run.first),
                    "{span}"
                );
                // Sometimes only a prefix, as a stretch that ends mid-window.
                let take = if r & (1 << 20) != 0 { 1 + (r >> 24) % (last - i) } else { last - i };
                grand += run.first * i128::from(take);
                take
            } else {
                assert!(run.until - i >= 2 && run.until <= end && run.total <= budget, "{span}");
                walk.mixed += 1;
                grand += run.total;
                run.until - i
            };
            i += taken;
        }
        assert_eq!(grand, sum(0, ticks), "the run walk's total offer");
        walk
    }

    /// Every window is maximal.
    fn always(_: EnergyFx) -> bool {
        true
    }

    #[test]
    fn constant_sources_are_steady_forever() {
        let make = || ConstantSource::new(Power::from_milliwatts(0.3));
        let walk = check_run_contract(make, 1000, 0.5, always);
        assert_eq!((walk.ends, walk.covered, walk.mixed), (vec![u64::MAX], 1000, 0));
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
            // A dwell shorter than a tick can switch back before the next
            // sample, so a Markov window's maximality is its own: it ends
            // on the first tick at or past the dwell's switch.
            let walk = check_run_contract(make, 8000, 0.5, |_| false);
            // Mean dwells span dozens of ticks, so most ticks are covered.
            assert!(walk.covered > 6000, "seed {seed}: only {} covered", walk.covered);
            let (mut source, mut i) = (make(), 0);
            while i < 8000 {
                let run = window(&mut source, i, 0.5);
                let switch = source.next_switch;
                let (last, end) = ((run.until - 1) as f64 * 0.5, run.until as f64 * 0.5);
                assert!(last < switch && switch <= end, "seed {seed}: window {i}..{}", run.until);
                i = run.until;
            }
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
        let walk = check_run_contract(make, 4 * k, dt, |_| false);
        assert!(walk.ends.contains(&k), "no window ends at the switch tick {k}: {:?}", walk.ends);
    }

    #[test]
    fn rfid_steady_windows_never_cross_a_burst_boundary() {
        // A fine step lands ticks right on burst edges.
        let walk = check_run_contract(|| RfidSource::typical(42), 20_000, 0.05, always);
        assert!(walk.covered > 15_000, "only {} ticks covered", walk.covered);
        assert!(walk.mixed > 100, "only {} mixed runs", walk.mixed);
        // Maximal jitter, empty and full duty cycles, and degenerate periods.
        let mw = Power::from_milliwatts(0.6);
        for (period, duty, jitter) in [
            (2.0, 0.4, 0.5),
            (5.0, 0.2, 0.5),
            (2.0, 0.0, 0.3),
            (2.0, 1.0, 0.3),
            (0.0, 0.4, 0.1),
            (-1.0, 0.4, 0.1),
        ] {
            let make = || RfidSource::new(mw, Seconds::new(period), duty, jitter, 7);
            let walk = check_run_contract(make, 4_000, 0.05, |_| duty > 0.0 && duty < 1.0);
            if period <= 0.0 {
                assert_eq!(walk.ends, vec![u64::MAX], "period {period}");
            }
            // Only a source that toggles has runs of mixed offers.
            assert_eq!(walk.mixed > 0, period > 0.0 && duty > 0.0 && duty < 1.0, "period {period}");
        }
        // Runs are pure, so a fresh source vouches for a run anchored
        // anywhere — the promise must hold against fresh samples.
        let run = RfidSource::typical(42).run(777, Seconds::new(0.05), 1_500, UNLIMITED);
        assert!(!run.uniform);
        let fresh: EnergyFx =
            (777..run.until).map(|j| offer(&mut RfidSource::typical(42), j, 0.05)).sum();
        assert_eq!(fresh, run.total);
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

    /// Nights are one window each, daylight comes tick by tick as windows and
    /// as mixed runs of many ticks, and the walkers stay exact across every
    /// day/night boundary.
    #[test]
    fn solar_steady_windows_cover_the_night() {
        let dark = |o: EnergyFx| o == EnergyFx::ZERO;
        for seed in 0..8_u64 {
            let make =
                || SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(1000.0), 0.4, seed);
            // 4000 ticks at 0.5 s span two full days; nights are half of
            // each day, so at least ~1/3 of all ticks must be covered.
            let walk = check_run_contract(make, 4_000, 0.5, dark);
            assert!(walk.covered > 1_300, "seed {seed}: only {} covered", walk.covered);
            assert!(walk.mixed > 20, "seed {seed}: only {} mixed runs", walk.mixed);
        }
        // Tick 500 lands on phase 0.25 exactly, where the sine is exactly
        // zero: the last dark tick before sunrise, so a window ends there.
        let make = || SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(1000.0), 0.4, 1);
        assert_eq!(SolarSource::sun(0.25), 0.0);
        assert_eq!(make().power_at(Seconds::new(250.0)), Power::ZERO);
        assert!(make().power_at(Seconds::new(250.5)) > Power::ZERO);
        let walk = check_run_contract(make, 4_000, 0.5, dark);
        assert!(walk.ends.contains(&501), "{:?}", walk.ends);
        // A daylight run stops at sunset.  Tick 1500 sits on phase 0.75,
        // where the sine of the rounded `π` is a hair above zero: it is the
        // last daylight tick, with a sample of about 1e-19 W.
        let run = make().run(1_400, Seconds::new(0.5), 2_000, UNLIMITED);
        assert_eq!((run.until, run.uniform), (1_501, false));
        // A run cut by its budget keeps the sample past the cut for the next
        // query, on its own step only.
        let mut source = make();
        let budget = quantise(Power::from_milliwatts(1.0), Seconds::new(0.5));
        let cut = source.run(1_400, Seconds::new(0.5), 2_000, budget);
        assert!(!cut.uniform && cut.until < 1_500, "{cut:?}");
        for dt in [0.5, 0.25] {
            let next = source.clone().run(cut.until, Seconds::new(dt), cut.until + 1, budget);
            assert_eq!(next.first, offer(&mut make(), cut.until, dt), "dt {dt}");
        }
        // A degenerate day is zero forever.
        for day in [0.0, -5.0] {
            let make = || SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(day), 0.4, 1);
            assert_eq!(check_run_contract(make, 100, 0.5, always).ends, vec![u64::MAX]);
        }
    }

    /// The sun factor without the night guard.
    fn unguarded_sun(phase: f64) -> f64 {
        (std::f64::consts::PI * (phase * 2.0 - 0.5)).sin().max(0.0)
    }

    /// The night guard skips only sines that clamp to `0.0`: phases swept
    /// ulp by ulp and in fine steps around both guard edges and the
    /// sunrise and sunset phases, and samples far out on the tick grid,
    /// have the unguarded expression's bits.
    #[test]
    fn the_night_guard_is_bit_identical_to_the_sine() {
        let mut phases: Vec<f64> = Vec::new();
        for centre in [0.0_f64, 0.24, 0.25, 0.75, 0.76, 1.0] {
            let (mut down, mut up) = (centre, centre);
            for _ in 0..2_000 {
                (down, up) = (down.next_down(), up.next_up());
                phases.extend([down, up]);
            }
            phases.extend((-2_000..=2_000).map(|k| centre + f64::from(k) * 1e-6));
        }
        phases.extend((0..=10_000).map(|k| f64::from(k) / 10_000.0));
        phases.extend([-0.5, -0.75, -0.25, -0.0, f64::NAN, f64::INFINITY]);
        for phase in phases {
            let (guarded, exact) = (SolarSource::sun(phase), unguarded_sun(phase));
            assert_eq!(guarded.to_bits(), exact.to_bits(), "phase {phase:e}");
        }
        // `power_at` far out on two tick grids, against the unguarded sample.
        for (day, dt) in [(1000.0, 0.5), (2000.0, 0.25), (777.7, 0.1)] {
            let mut source =
                SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(day), 0.4, 9);
            for start in [0_u64, 1 << 20, 1 << 33, 1 << 45] {
                for j in (start..start + 40_000).step_by(7) {
                    let t = j as f64 * dt;
                    let sun = unguarded_sun(split_cycles(t / day).1);
                    let exact = if sun == 0.0 { Power::ZERO } else { source.daylight(t, sun) };
                    let sample = source.power_at(Seconds::new(t));
                    assert_eq!(sample.value().to_bits(), exact.value().to_bits(), "tick {j}");
                }
            }
        }
    }

    /// Walks `from..to` with `run` queries of varied limits, checking each
    /// run's first offer and total against per-tick `power_at` samples of a
    /// fresh source.  Returns the walk's total offer.
    fn walk_solar(source: &mut SolarSource, from: u64, to: u64, dt: f64, salt: u64) -> EnergyFx {
        let mut naive = source.clone();
        let mut offers = |a: u64, b: u64| (a..b).map(|j| offer(&mut naive, j, dt)).sum();
        let most = quantise(source.peak, Seconds::new(dt)).attojoules().max(1);
        let budgets = [0, most / 2, most, 3 * most, 40 * most, i128::MAX];
        let (mut i, mut grand) = (from, EnergyFx::ZERO);
        for query in 0.. {
            if i >= to {
                break;
            }
            let r = crate::crng::mix64(query, salt);
            let end = (i + 1 + r % 300).min(to);
            let budget = EnergyFx::from_attojoules(budgets[(r >> 8) as usize % budgets.len()]);
            let run = source.run(i, Seconds::new(dt), end, budget);
            let span = format!("run {i}..{} (end {end}, dt {dt})", run.until);
            assert_eq!(run.first, offers(i, i + 1), "first offer of {span}");
            let last = if run.uniform { run.until.min(end) } else { run.until };
            assert!(run.uniform || run.until <= end, "{span}");
            let total = if run.uniform { run.first * i128::from(last - i) } else { run.total };
            assert_eq!(total, offers(i, last), "total of {span}");
            grand += total;
            i = last;
        }
        grand
    }

    /// `source`, given `table` for runs of step `dt`.
    fn with_table(mut source: SolarSource, table: &SunTable, dt: f64) -> SolarSource {
        source.attach_sun_table(std::slice::from_ref(table), Seconds::new(dt));
        source
    }

    /// Runs that cross a table's end compute the sines past it, and agree
    /// with `power_at` on both sides: a short table ending in daylight, and
    /// one asked for past the cap, which it keeps to.
    #[test]
    fn solar_runs_stay_exact_across_the_table_end() {
        let make = || SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(1000.0), 0.4, 5);
        let (day, dt) = (Seconds::new(1000.0), Seconds::new(0.5));
        // Tick 1200 of a 0.5 s step sits at phase 0.6, and tick 2^20 at
        // phase 0.288: daylight on both sides of either end.
        let short = SunTable::new(day, dt, 1_200);
        let run = with_table(make(), &short, 0.5).run(1_100, dt, 1_400, UNLIMITED);
        assert_eq!(run, make().run(1_100, dt, 1_400, UNLIMITED));
        assert!(!run.uniform && run.until == 1_400, "{run:?}");
        for salt in [1, 2] {
            walk_solar(&mut with_table(make(), &short, 0.5), 0, 4_500, 0.5, salt);
        }
        let cap = SUN_TABLE_CAP;
        let full = SunTable::new(day, dt, cap + 5_000);
        assert_eq!(full.suns.len() as u64, cap);
        let run = with_table(make(), &full, 0.5).run(cap - 30, dt, cap + 300, UNLIMITED);
        assert!(!run.uniform && run.until == cap + 300, "{run:?}");
        for salt in [3, 4] {
            walk_solar(&mut with_table(make(), &full, 0.5), cap - 200, cap + 2_500, 0.5, salt);
        }
    }

    /// A source is given only the table of its own day, and reads it only
    /// on runs of the table's step: given another day's table, or its own
    /// day's on another step, it answers every run exactly as a source
    /// without a table does.  A clone shares its table rather than copying
    /// it.
    #[test]
    fn solar_sources_read_only_a_table_of_their_own_grid() {
        let make = || SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(1000.0), 0.4, 7);
        let (day, dt) = (Seconds::new(1000.0), Seconds::new(0.5));
        let ticks = 8_000;
        let other_day = SunTable::new(Seconds::new(1500.0), dt, ticks);
        assert!(with_table(make(), &other_day, 0.5).suns.is_none());
        let other_step = SunTable::new(day, Seconds::new(0.25), ticks);
        for mut tabled in
            [with_table(make(), &other_day, 0.5), with_table(make(), &other_step, 0.25)]
        {
            let mut bare = make();
            let budgets = [0, 40_000, 400_000, i128::MAX].map(EnergyFx::from_attojoules);
            let mut tick = 0;
            for query in 0_u64.. {
                if tick >= ticks {
                    break;
                }
                let end = tick + 1 + query % 300;
                let budget = budgets[query as usize % budgets.len()];
                let run = tabled.run(tick, dt, end, budget);
                assert_eq!(run, bare.run(tick, dt, end, budget), "tick {tick}");
                tick = if run.uniform { run.until.min(end) } else { run.until };
            }
            walk_solar(&mut tabled, 0, ticks, 0.5, 6);
        }
        let own = SunTable::new(day, dt, ticks);
        let tables = [other_day, other_step, own.clone()];
        let mut source = make();
        source.attach_sun_table(&tables, dt);
        let mut fork = source.clone();
        assert_eq!(Arc::strong_count(&own.suns), 4, "the source and its fork share one table");
        walk_solar(&mut fork, 0, ticks, 0.5, 8);
    }

    /// A clone taken mid-walk — a batch lane's fork — continues exactly as
    /// the original does, budget spare included, and both as a fresh source.
    #[test]
    fn solar_clones_continue_like_their_original() {
        let make = || SolarSource::new(Power::from_milliwatts(0.8), Seconds::new(1000.0), 0.4, 3);
        let dt = Seconds::new(0.5);
        let mut original = make();
        let budget = quantise(Power::from_milliwatts(1.0), dt);
        let cut = original.run(1_400, dt, 2_000, budget);
        assert!(!cut.uniform && cut.until < 1_500, "{cut:?}");
        let mut fork = original.clone();
        let mut fresh = make();
        for (tick, end) in [(cut.until, 1_700), (cut.until, 1_500), (1_500, 3_200), (3_000, 6_000)]
        {
            let a = original.run(tick, dt, end, budget);
            let b = fork.run(tick, dt, end, budget);
            let c = fresh.run(tick, dt, end, budget);
            assert_eq!((a, a), (b, c), "tick {tick}, end {end}");
        }
        let walks: Vec<EnergyFx> =
            [original, fork, make()].iter_mut().map(|s| walk_solar(s, 0, 8_000, 0.5, 4)).collect();
        assert!(walks.windows(2).all(|w| w[0] == w[1]), "{walks:?}");
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
            let walk = check_run_contract(make, 8_000, 0.5, always);
            assert!(walk.covered > 0, "seed {seed} never covered a window");
        }
    }

    /// Walks `source` over ticks `from..to` of step `dt`, alternating window
    /// queries with run queries under varied limits, and checks every answer
    /// against a naive `power_at` scan of a copy of the source.  A window is
    /// the whole run of equal samples — the tick past it samples differently
    /// — unless it stops at the edge table's limit (or lies past `EDGE_CAP`,
    /// where windows are one tick long); a run's total is the sum of its
    /// ticks' offers.  Returns the tick of the last query.
    fn check_rfid_walk(source: &mut RfidSource, dt: f64, from: u64, to: u64) -> u64 {
        let mut naive = source.clone();
        let mut sample = |j: u64| offer(&mut naive, j, dt);
        let peak = quantise(source.peak, Seconds::new(dt));
        let mut i = from;
        while i < to {
            let r = crate::crng::mix64(i, 0xED6E);
            if r.is_multiple_of(3) {
                let end = i + 2 + (r >> 8) % 200;
                let budget = peak * i128::from((r >> 16) % 12);
                let run = source.run(i, Seconds::new(dt), end, budget);
                let total: EnergyFx = (i..run.until).map(&mut sample).sum();
                assert_eq!(total, run.total, "run {i}..{} (end {end})", run.until);
                assert!(run.uniform || (run.until <= end && run.total <= budget));
                if run.until >= to {
                    return i;
                }
                i = run.until;
                continue;
            }
            let run = window(source, i, dt);
            assert!(run.until > i, "empty window at tick {i}");
            for j in i..run.until.min(to) {
                assert_eq!(sample(j), run.first, "tick {j} of window {i}..{}", run.until);
            }
            if run.until != source.table.limit && i < EDGE_CAP as u64 {
                assert_ne!(
                    sample(run.until),
                    run.first,
                    "window {i}..{} is not maximal",
                    run.until
                );
            }
            if run.until >= to {
                return i;
            }
            i = run.until;
        }
        i
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The burst-edge table against the naive scan, over random shapes
        /// — empty and full duty cycles, no jitter, periods a grid step
        /// does not divide or that are shorter than it, and grids whose
        /// edges land exactly on ticks — and every way a caller moves:
        /// forward run by run, back, far ahead across several blocks, and
        /// onto another grid step and back.
        #[test]
        fn rfid_windows_match_a_naive_run_length_scan(
            shape in (0_u8..8, 0.0_f64..1.0, 0_u8..3, 0.0_f64..0.5, 0_u64..1_000),
            grid in (0_u8..6, 0.05_f64..6.0, 0.02_f64..3.0, 1.1_f64..2.9),
        ) {
            let (duty_pick, duty, jitter_pick, jitter, seed) = shape;
            let (grid_pick, period, ratio, stretch) = grid;
            let picked = [0.0, 1.0, 0.2, 0.25, 0.4, 0.5].get(usize::from(duty_pick));
            let duty = picked.map_or(duty, |&d| d);
            let jitter = if jitter_pick == 0 { 0.0 } else { jitter };
            // Grids whose edges land on ticks, a period shorter than the
            // step, and random (non-dividing) steps.
            let (period, dt) = match grid_pick {
                0 => (2.0, 0.5),
                1 => (5.0, 0.5),
                2 => (3.0, 0.25),
                3 => (0.3, 0.5),
                _ => (period, period * ratio),
            };
            let peak = Power::from_milliwatts(0.7);
            let mut source = RfidSource::new(peak, Seconds::new(period), duty, jitter, seed);
            let ticks_per_block = (EDGE_BLOCK as f64 * period / dt).ceil() as u64 + 1;
            let span = 3 * ticks_per_block + 50;
            check_rfid_walk(&mut source, dt, 0, span);
            // Back into the middle of the walk.
            check_rfid_walk(&mut source, dt, span / 3, span / 3 + ticks_per_block);
            // Far ahead, several blocks past the table.
            let far = span + 5 * ticks_per_block + 17;
            let last = check_rfid_walk(&mut source, dt, far, far + 2 * ticks_per_block);
            // Onto another step mid-stream, at a tick the table still
            // covers, and back.
            let last = check_rfid_walk(&mut source, dt * stretch, last, last + ticks_per_block);
            check_rfid_walk(&mut source, dt, last, last + ticks_per_block);
        }
    }

    /// Just below 2^40 ticks one check per edge must still settle it; near
    /// 2^52 an edge estimate can be off by more than a tick, so the table
    /// walks to the exact edges; past `EDGE_CAP` it answers with length-1
    /// windows.  Either way the windows match the naive scan.
    #[test]
    fn rfid_windows_stay_exact_far_out_on_the_grid() {
        for (tick, dt, period) in [
            (1 << 39, 1e-3, 0.7),
            ((1 << 40) - 30_000, 2.9e-3, 1.3),
            (3 << 50, 1e-3, 0.7),
            (7 << 49, 3.7e-3, 1.3),
            ((1 << 52) - 40, 1e-3, 1.0),
            (1 << 52, 0.5, 1.0),
        ] {
            let mut source =
                RfidSource::new(Power::from_milliwatts(0.7), Seconds::new(period), 0.4, 0.2, 5);
            check_rfid_walk(&mut source, dt, tick, tick + 100_000);
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
            let walk = check_run_contract(make(cyclic), 4_000, 0.25, always);
            assert!(walk.covered > 3_900, "cyclic={cyclic}: only {} covered", walk.covered);
        }
        // One plateau that repeats: the window stops at the wrap, one
        // probe past its capped estimate, and does not run on around.
        let walk = check_run_contract(|| Schedule::plentiful().to_source(), 6_000, 0.5, |_| false);
        let ends = walk.ends;
        assert!(ends.len() >= 3 && ends.windows(2).all(|w| w[1] - w[0] <= 2_001), "{ends:?}");
        // Non-cyclic schedules are constant — steady forever — past the end.
        assert_eq!(window(&mut make(false)(), 1000, 0.25).until, u64::MAX);
        // A cyclic window ends at the wrap (tick 120 = 30 s).
        let run = window(&mut make(true)(), 100, 0.25);
        let half = quantise(Power::from_milliwatts(0.5), Seconds::new(0.25));
        assert_eq!((run.first, run.until), (half, 120));
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
        let walk = check_run_contract(make, 2_000, 0.5, always);
        assert!(walk.covered > 1_900, "only {} covered", walk.covered);
        // The zero-power lead-in before the first segment is a window too.
        let run = window(&mut make(), 0, 0.5);
        assert_eq!((run.first, run.until), (EnergyFx::ZERO, 20));
    }

    // The batch executor feeds schedule-driven lanes through
    // `PiecewiseSource`'s monotone cursor and its windows; the tests below
    // pin both against a linear segment scan.

    /// The linear segment scan the cursor replaced — the reference every
    /// cursor lookup must reproduce.
    fn scan(segments: &[(Seconds, Power)], cyclic: bool, total: Seconds, t: f64) -> Power {
        let total = total.as_seconds();
        let time = if cyclic && total > 0.0 { t % total } else { t };
        let mut current = Power::ZERO;
        for &(start, power) in segments {
            if time >= start.as_seconds() {
                current = power;
            } else {
                break;
            }
        }
        current
    }

    /// Sweeps `steps` queries of `dt` through `source` and the scan, jumping
    /// back in time every 997 queries to force a cursor rescan.  `cyclic`
    /// must be the source's own flag (checked through equality).
    fn assert_matches_scan(mut source: PiecewiseSource, cyclic: bool, steps: u32, dt: f64) {
        let reference = source.clone();
        let segments = reference.segments().to_vec();
        assert_eq!(
            PiecewiseSource::new(segments.clone(), cyclic, reference.duration()),
            reference,
            "{}: wrong cyclic flag",
            reference.describe()
        );
        for i in 0..steps {
            let t = if i % 997 == 0 { f64::from(i / 2) * dt } else { f64::from(i) * dt };
            assert_eq!(
                scan(&segments, cyclic, reference.duration(), t).value().to_bits(),
                source.power_at(Seconds::new(t)).value().to_bits(),
                "{} diverges at t={t}",
                reference.describe()
            );
        }
        // Equality and the description ignore where the cursor stopped.
        assert_eq!(source.describe(), reference.describe());
        assert_eq!(source, reference);
    }

    #[test]
    fn the_cursor_matches_the_scanning_source_sample_for_sample() {
        // Sweep far past the cycle duration so cyclic schedules wrap several
        // times, at a step that hits segment boundaries exactly.
        for (schedule, cyclic) in
            [(Schedule::fig4(), false), (Schedule::plentiful(), true), (Schedule::scarce(), true)]
        {
            assert_matches_scan(schedule.to_source(), cyclic, 200_000, 0.05);
        }
    }

    #[test]
    fn the_cursor_handles_a_delayed_first_segment() {
        let segments = vec![
            (Seconds::new(10.0), Power::from_milliwatts(1.0)),
            (Seconds::new(20.0), Power::ZERO),
        ];
        let make = || PiecewiseSource::new(segments.clone(), true, Seconds::new(30.0));
        assert_matches_scan(make(), true, 500, 0.25);
        // The lead-in before the first segment is dark in every cycle.
        let mut source = make();
        assert_eq!(source.power_at(Seconds::new(5.0)), Power::ZERO);
        assert_eq!(source.power_at(Seconds::new(15.0)), Power::from_milliwatts(1.0));
        assert_eq!(source.power_at(Seconds::new(35.0)), Power::ZERO);
    }

    #[test]
    fn the_segment_horizon_covers_exactly_the_current_plateau() {
        let segments = vec![
            (Seconds::new(0.0), Power::from_milliwatts(1.0)),
            (Seconds::new(10.0), Power::ZERO),
        ];
        let dt = 0.05;
        let mut source = PiecewiseSource::new(segments.clone(), true, Seconds::new(30.0));
        // Every tick of a fine grid: the window holds the tick's own offer
        // up to its last tick, and the plateaus alternate between 1 mW and
        // zero, so the first tick past the window offers something else.
        for tick in 0..3_000_u64 {
            let here = offer(&mut source, tick, dt);
            let run = window(&mut source, tick, dt);
            assert!(run.until > tick, "empty window at tick {tick}");
            assert_eq!(run.first, here, "tick {tick}");
            // Probe on a copy, to keep the cursor's monotone sweep intact.
            let mut probe = source.clone();
            assert_eq!(offer(&mut probe, run.until - 1, dt), here, "change inside window {tick}");
            assert_ne!(offer(&mut probe, run.until, dt), here, "window at tick {tick} ends early");
        }
        // A non-cyclic schedule past its last segment never changes again.
        let mut tail = PiecewiseSource::new(segments, false, Seconds::new(30.0));
        assert_eq!(window(&mut tail, 1_980, dt), Run::uniform(EnergyFx::ZERO, 1_980, u64::MAX));
    }

    #[test]
    fn the_default_run_is_one_tick_long() {
        struct Ramp;
        impl HarvestSource for Ramp {
            fn power_at(&mut self, t: Seconds) -> Power {
                Power::new(t.as_seconds())
            }
            fn describe(&self) -> String {
                "ramp".into()
            }
        }
        let run = Ramp.run(6, Seconds::new(0.5), 100, UNLIMITED);
        let first = quantise(Power::new(3.0), Seconds::new(0.5));
        assert_eq!(run, Run { first, until: 7, total: first, uniform: true });
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
