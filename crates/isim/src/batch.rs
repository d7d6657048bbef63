//! The batch executor: N scenarios stepped in lockstep.
//!
//! [`crate::executor::IntermittentExecutor`] advances one FSM + capacitor +
//! harvest source per `dt` tick.  A campaign runs hundreds of such lifetimes
//! back to back, each one a fully independent (config, seed) point — the
//! same shape the 64-lane `BitSim` exploits on the logic side.  This module
//! applies the lane-packing idea to the energy domain: [`BatchExecutor`]
//! owns up to `width` lanes plus a scenario queue.  A lane is one struct
//! holding a job's whole mid-lifetime state — FSM state (`fsm::LaneState`),
//! stored energy, source, tick counter, energy accumulators and the per-run
//! constants derived at fill time (fixed-point thresholds, leak step, timer
//! period).  The executor advances every live lane by a block of `dt` ticks
//! in turn, its fields borrowed in place for the block, exactly like the
//! scalar executor's loop; it retires lanes whose lifetime is over and
//! fills the freed room from the queue — so ragged durations never stall
//! the bank.
//!
//! # Event-horizon fast-forwarding
//!
//! Most ticks of an intermittent lifetime decide nothing: the node sleeps
//! (or lies dead) while the capacitor slowly charges or drains, far from
//! every threshold, with the sampling timer minutes away.  After each
//! full-fidelity tick landing in `Sleep` or `Off`, the executor opens a
//! *quiescent stretch* bounded by two independently safe horizons:
//!
//! 1. **timer** — an idle-Sleep stretch ends strictly before the next
//!    fire, [`TimerInterrupt::next_fire`] (a fire can raise the sensing
//!    flag, so the firing tick must run in full).  The timer lives on the
//!    tick grid, so the deadline is exact integer arithmetic.  `Off` lanes
//!    and Sleep lanes with a pending request run straight through fires;
//!    the skipped re-arms are replayed in closed form
//!    ([`TimerInterrupt::replay`]) when the stretch closes.
//! 2. **thresholds** — `fsm::LaneState::quiescent_distance` gives the
//!    distance from the stored energy to the nearest threshold whose
//!    crossing could alter control flow.  The stretch maintains a running
//!    lower bound on that distance, spending each window's actual move and
//!    re-deriving it from the live energy when it no longer provably covers
//!    the next window — never guessing past it.
//!
//! Inside a stretch every accumulator the per-tick arithmetic touches is
//! hoisted into a register, and ticks are burnt by one window loop running
//! on the *exact integer* accumulator representation (tick counters for
//! time, [`tech45::units::EnergyFx`] attojoules for energy — see DESIGN.md
//! "Exact integer accumulators").  The windows are the source's own:
//! [`HarvestSource::segment`] returns a sample together with the run of
//! ticks that repeat it bit-exactly (segment plateaus, Markov dwells, solar
//! nights, RFID rests spanning a cycle wrap — or a single tick where the
//! sample genuinely varies, as in solar daylight).  The lane keeps its
//! current segment across the whole block, quantises its offer once, and
//! burns `h = min(until, stretch end) − i` ticks at a time, capped by the
//! distance budget.  Integer corridor proofs (no clip at the capacity, no
//! saturation at zero over the window's exact arithmetic progression)
//! reduce the `EnergyCell` clamps to identities, and because integer
//! addition is associative the whole window collapses to one `e += k · net`
//! multiply-add per accumulator and one `count += k` per tick counter —
//! O(1) per window, not O(k).  When a clamp can bind, the per-tick integer
//! loop runs only until the energy reaches a fixed point, after which the
//! remaining ticks fold into exact multiply-adds too.  A length-1 window is
//! a checked tick: the source was queried for it, and it is burnt as long
//! as the distance budget covers its move.  When the budget cannot be
//! proven even from the live energy, the tick runs in full on the segment
//! already drawn, so the source is queried exactly once per window.
//! Source randomness is counter-indexed ([`ehsim::crng`]) — a pure function
//! of `(seed, index)` — so the queries a window elides leave no stream to
//! advance.
//!
//! [`TimerInterrupt::next_fire`]: crate::interrupts::TimerInterrupt::next_fire
//! [`TimerInterrupt::replay`]: crate::interrupts::TimerInterrupt::replay
//!
//! The timer poll, threshold comparisons, safe-zone bookkeeping and FSM
//! dispatch are hoisted out of the loop (each proven a no-op for the
//! stretch).  [`BatchTelemetry`] counts total, fast-forwarded, steady and
//! horizon-recompute ticks so the win is measurable.
//!
//! # Why the batch is bit-identical to the scalar path
//!
//! Lanes never exchange data: each lane's trajectory is a pure function of
//! its own [`BatchJob`].  Per lane, the executor performs *the same exact
//! arithmetic* as
//! [`IntermittentExecutor::run`](crate::executor::IntermittentExecutor::run)
//! — its per-step body is the scalar executor's, and the arithmetic is the
//! shared [`ehsim::capacitor::EnergyCell`] / `fsm::FsmLaneMut` code the
//! scalar types delegate to.  Floating-point inputs (`power × dt`
//! products, operation slices) are quantised to the attojoule grid at the
//! `EnergyCell` boundary — identically in both paths, as deterministic
//! functions of identical f64 values — and every accumulator update below
//! that boundary is integer arithmetic, which is associative: summing a
//! window in one multiply-add equals summing it tick by tick, bit for bit.
//! Interleaving whole-lane blocks across lanes cannot change any lane's
//! result, so the per-scenario [`RunStats`] — and therefore every campaign
//! digest — match the scalar oracle exactly.  The same argument covers
//! retirement and refill: a freshly filled lane starts from the same boot
//! state (`fsm::LaneState::boot`) with its own seeded RNG, exactly as a
//! fresh scalar executor would, and its neighbours are untouched.
//! Fast-forwarded ticks preserve the argument because the hoisted checks
//! are pure reads whose outcomes are proven constant over the window (the
//! quiescent distances, corridor proofs and timer deadlines are themselves
//! exact integer comparisons — no rounding to second-guess), and elided
//! source queries are covered by the [`HarvestSource::segment`] contract —
//! counter-indexed draws mean they leave no state behind.  Not a single
//! bit of lane state can differ from the naive per-tick loop.

use std::collections::VecDeque;

use ehsim::capacitor::{Capacitor, EnergyCell};
use ehsim::pmu::ThresholdsFx;
use ehsim::source::{HarvestSource, Segment};
use tech45::units::{EnergyFx, Power, Seconds};

use crate::fsm::{FsmConfig, LaneState, TickConstants};
use crate::state::NodeState;
use crate::stats::RunStats;

/// One queued unit of batched work: the exact inputs one
/// [`crate::executor::IntermittentExecutor::run`] call would take.
#[derive(Debug, Clone)]
pub struct BatchJob<S> {
    /// The FSM configuration (thresholds, backup unit, seed).
    pub config: FsmConfig,
    /// The initial storage capacitor (paper default unless overridden).
    pub capacitor: Capacitor,
    /// The harvest source the lane samples.
    pub source: S,
    /// Simulated lifetime.
    pub duration: Seconds,
    /// Simulation time step.
    pub dt: Seconds,
}

impl<S> BatchJob<S> {
    /// A job over the paper-default capacitor — the counterpart of
    /// [`crate::executor::IntermittentExecutor::with_source`] followed by
    /// `run(duration, dt)`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive (the scalar executor's
    /// contract, enforced at enqueue time instead of mid-bank).
    #[must_use]
    pub fn new(config: FsmConfig, source: S, duration: Seconds, dt: Seconds) -> Self {
        assert!(dt.value() > 0.0, "time step must be positive");
        Self { config, capacitor: Capacitor::paper_default(), source, duration, dt }
    }

    /// Overrides the initial capacitor.
    #[must_use]
    pub fn with_capacitor(mut self, capacitor: Capacitor) -> Self {
        self.capacitor = capacitor;
        self
    }

    /// Number of `dt` ticks this job runs for — the scalar executor's exact
    /// step count.
    #[must_use]
    pub fn steps(&self) -> u64 {
        crate::executor::step_count(self.duration, self.dt)
    }
}

/// Steps up to `width` scenarios in lockstep, retiring finished lanes and
/// refilling the freed room from an internal job queue.
///
/// ```
/// use ehsim::schedule::Schedule;
/// use isim::batch::{BatchExecutor, BatchJob};
/// use isim::executor::IntermittentExecutor;
/// use isim::fsm::FsmConfig;
/// use tech45::units::Seconds;
///
/// let (duration, dt) = (Seconds::new(1500.0), Seconds::new(0.5));
/// let mut batch = BatchExecutor::new(4);
/// for seed in 0..6_u64 {
///     let config = FsmConfig::paper_default().with_seed(seed);
///     batch.enqueue(BatchJob::new(config, Schedule::fig4().to_source(), duration, dt));
/// }
/// let stats = batch.run_to_completion();
/// // Bit-identical to six scalar runs, in enqueue order.
/// for (seed, batched) in stats.iter().enumerate() {
///     let config = FsmConfig::paper_default().with_seed(seed as u64);
///     let mut scalar = IntermittentExecutor::new(config, Schedule::fig4());
///     assert_eq!(&scalar.run(duration, dt), batched);
/// }
/// ```
#[derive(Debug)]
pub struct BatchExecutor<S> {
    width: usize,
    queue: VecDeque<(usize, BatchJob<S>)>,
    next_job: usize,
    results: Vec<Option<RunStats>>,
    retired_sources: Vec<S>,
    /// The live lanes, in no particular order (a retired lane is
    /// swap-removed).
    lanes: Vec<Lane<S>>,
    telemetry: BatchTelemetry,
}

/// Tick-level counters of one [`BatchExecutor`]: how much of the simulated
/// time was burnt through the event-horizon fast path (see the module docs)
/// versus stepped in full.  Cumulative over the executor's lifetime,
/// including reuse across [`BatchExecutor::run_to_completion`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTelemetry {
    /// Ticks executed in total (fast and full-fidelity alike).
    pub ticks_total: u64,
    /// Ticks executed by the branch-free fast-forward loops.
    pub ticks_fast_forwarded: u64,
    /// Times a quiescent horizon was computed (each full-fidelity tick in a
    /// fast-forwardable state recomputes the bound — it is never guessed
    /// past its expiry).
    pub horizon_recomputes: u64,
    /// Fast ticks burnt in windows of two or more ticks (source queries
    /// skipped wholesale) — the rest of [`Self::ticks_fast_forwarded`] were
    /// length-1 windows, one source query each.
    pub ticks_steady: u64,
}

impl BatchTelemetry {
    /// Fraction of all ticks taken via fast-forward, in `0.0..=1.0`.
    #[must_use]
    pub fn fast_forward_fraction(&self) -> f64 {
        if self.ticks_total == 0 {
            return 0.0;
        }
        self.ticks_fast_forwarded as f64 / self.ticks_total as f64
    }
}

/// Ticks one lane advances per lockstep block in
/// [`BatchExecutor::run_to_completion`]: sized so a typical campaign
/// lifetime (3000 ticks at the default 1500 s / 0.5 s grid) runs as a
/// single block, while longer lifetimes still interleave, retire and refill
/// at block granularity.
const BLOCK_TICKS: u64 = 4096;

impl<S: HarvestSource> BatchExecutor<S> {
    /// An executor stepping at most `width` lanes in lockstep (at least
    /// one).
    #[must_use]
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        Self {
            width,
            queue: VecDeque::new(),
            next_job: 0,
            results: Vec::new(),
            retired_sources: Vec::new(),
            lanes: Vec::with_capacity(width),
            telemetry: BatchTelemetry::default(),
        }
    }

    /// The executor's cumulative fast-forward telemetry.
    #[must_use]
    pub fn telemetry(&self) -> BatchTelemetry {
        self.telemetry
    }

    /// The configured lane count.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of lanes currently mid-lifetime.
    #[must_use]
    pub fn live_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of jobs waiting in the queue.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether every enqueued job has run to completion.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.lanes.is_empty() && self.queue.is_empty()
    }

    /// Enqueues a job; it starts as soon as a lane frees up.  Returns the
    /// job's id — its index into the [`Self::run_to_completion`] result.
    pub fn enqueue(&mut self, job: BatchJob<S>) -> usize {
        let id = self.next_job;
        self.next_job += 1;
        self.results.push(None);
        self.queue.push_back((id, job));
        id
    }

    /// Hands back the harvest sources of retired lanes, so callers can
    /// recycle their buffers into the next jobs.
    pub fn take_retired_sources(&mut self) -> Vec<S> {
        std::mem::take(&mut self.retired_sources)
    }

    /// Pops queued jobs into free lanes.  Zero-step jobs retire immediately
    /// (the scalar executor's behaviour for a non-positive duration).
    fn fill_lanes(&mut self) {
        while self.lanes.len() < self.width {
            let Some((id, job)) = self.queue.pop_front() else { break };
            let lane = Lane::boot(id, job);
            if lane.steps == 0 {
                self.retire(lane);
            } else {
                self.lanes.push(lane);
            }
        }
    }

    /// Finalises one finished lane through [`RunStats::finalize`] — the
    /// exact epilogue the scalar executor runs — and parks the result under
    /// the lane's job id.
    fn retire(&mut self, lane: Lane<S>) {
        let mut stats = lane.fsm.stats;
        stats.finalize(lane.dt, lane.harvested, lane.clipped, lane.consumed);
        self.results[lane.job_id] = Some(stats);
        self.retired_sources.push(lane.source);
    }

    /// Advances every live lane by its own `dt` (filling free lanes from the
    /// queue first).  Returns `false` once no lane is live and the queue is
    /// empty.
    pub fn tick(&mut self) -> bool {
        self.advance(1)
    }

    /// Advances every live lane by up to `ticks` steps of its own `dt`,
    /// filling free lanes from the queue first.  Lanes are independent, so
    /// the order they run in and the block length change no lane's
    /// arithmetic.
    fn advance(&mut self, ticks: u64) -> bool {
        self.fill_lanes();
        if self.lanes.is_empty() {
            return false;
        }
        let mut slot = 0;
        while slot < self.lanes.len() {
            if self.lanes[slot].advance_block(ticks, &mut self.telemetry) {
                let lane = self.lanes.swap_remove(slot);
                self.retire(lane);
            } else {
                slot += 1;
            }
        }
        true
    }

    /// Runs every enqueued job to completion and returns their statistics in
    /// enqueue order.  The executor is reusable afterwards.
    pub fn run_to_completion(&mut self) -> Vec<RunStats> {
        while self.advance(BLOCK_TICKS) {}
        self.next_job = 0;
        self.results
            .drain(..)
            .map(|slot| slot.expect("every enqueued job retires with statistics"))
            .collect()
    }
}

/// One occupied slot of a [`BatchExecutor`]: everything one job's lifetime
/// needs between two blocks, in one place.
#[derive(Debug)]
struct Lane<S> {
    job_id: usize,
    config: FsmConfig,
    /// `config.thresholds` on the fixed-point grid: the step transition and
    /// the quiescence proofs compare against them many times per tick.
    th: ThresholdsFx,
    /// The leak step and timer period of the lane's `dt`.
    k: TickConstants,
    fsm: LaneState,
    /// The stored energy and capacity of the lane's capacitor.
    energy: EnergyFx,
    e_max: EnergyFx,
    source: S,
    dt: Seconds,
    /// The next tick to run, and the lifetime in ticks.
    tick: u64,
    steps: u64,
    harvested: EnergyFx,
    clipped: EnergyFx,
    consumed: EnergyFx,
}

impl<S: HarvestSource> Lane<S> {
    /// Boots job `id` into a lane: the boot state a fresh scalar executor
    /// starts from, plus the per-run constants derived once.
    ///
    /// # Panics
    ///
    /// Panics if the job's `dt` or sampling interval is not strictly
    /// positive.
    fn boot(job_id: usize, job: BatchJob<S>) -> Self {
        // The scalar executor's run-time contract, re-checked here so a job
        // assembled as a struct literal (the fields are public) cannot
        // smuggle a degenerate grid past `BatchJob::new`.
        assert!(job.dt.value() > 0.0, "time step must be positive");
        Self {
            job_id,
            th: job.config.thresholds.fx(),
            k: TickConstants::new(&job.config, job.dt),
            fsm: LaneState::boot(&job.config),
            steps: job.steps(),
            config: job.config,
            energy: job.capacitor.energy_fx(),
            e_max: job.capacitor.max_energy_fx(),
            source: job.source,
            dt: job.dt,
            tick: 0,
            harvested: EnergyFx::ZERO,
            clipped: EnergyFx::ZERO,
            consumed: EnergyFx::ZERO,
        }
    }

    /// Runs the lane for up to `ticks` steps (bounded by its remaining
    /// lifetime) and reports whether the lifetime is complete.
    ///
    /// The loop alternates full-fidelity ticks with event-horizon stretches
    /// (see the module docs): after every full tick that leaves the lane in
    /// Sleep or Off it derives the quiescent threshold distance and burns
    /// the source's segment windows with the dispatch/timer/threshold/
    /// safe-zone checks hoisted out, executing exactly the per-tick
    /// arithmetic.  Every skipped comparison is proven a no-op before it is
    /// skipped, and the arithmetic shortcuts are exact — the accumulators are
    /// integers, so a window's closed form produces the very bits the
    /// per-tick sequence would.
    fn advance_block(&mut self, ticks: u64, telemetry: &mut BatchTelemetry) -> bool {
        let Self {
            config,
            th,
            k,
            fsm: state,
            energy,
            e_max,
            source,
            dt,
            tick,
            steps,
            harvested,
            clipped,
            consumed,
            ..
        } = self;
        let (config, th, k, e_max, dt) = (&*config, &*th, *k, *e_max, *dt);
        let start = *tick;
        let end = (start + ticks).min(*steps);
        let e_max_aj = e_max.attojoules();
        let period = k.timer_period;
        // Worst-case per-tick drain of the fast path: Sleep only leaks, Off
        // does not even do that.
        let ls = k.leak_step.attojoules();
        let (mut fast, mut steady, mut recomputes) = (0_u64, 0_u64, 0_u64);

        // The lane's current source segment and its offer, quantised once
        // per segment.  It is kept across the whole block: a window's suffix
        // is still a window, so full ticks and stretches alike reuse it until
        // `until`, and the source is queried exactly once per window.
        let mut seg = Segment { power: Power::ZERO, until: start };
        let mut offered = 0_i128;
        let mut i = start;
        while i < end {
            if i >= seg.until {
                seg = source.segment(i, dt);
                offered = (seg.power.max(Power::ZERO) * dt).to_fx().attojoules();
            }
            // The scalar executor's per-step body, verbatim (see
            // `IntermittentExecutor::run_with_sink`): the FSM transition —
            // time accounting and leakage included — is the one shared
            // `FsmLaneMut::step`.
            let before = *energy;
            let offer = EnergyFx::from_attojoules(offered);
            let banked = EnergyCell::from_parts(energy, e_max).harvest_fx(offer);
            *harvested += banked;
            *clipped += offer - banked;
            state.as_lane_mut(config, th, k).step(
                &mut EnergyCell::from_parts(energy, e_max),
                i,
                dt,
            );
            // Exact — integer drains can never overshoot, so no clamp.
            *consumed += before + banked - *energy;
            i += 1;

            // Event-horizon attempt: only Sleep and Off are quiescent
            // candidates.
            if i >= end || !matches!(state.state, NodeState::Sleep | NodeState::Off) {
                continue;
            }
            let Some(d0) = state.quiescent_distance(th, *energy) else { continue };
            recomputes += 1;
            // Running lower bound on the distance from the live energy to
            // the nearest control-flow threshold, in attojoules.  One quantum
            // is shaved off so movement of at most `dist` provably preserves
            // *every* hoisted comparison verdict: strict comparisons survive
            // movement up to the full distance, non-strict ones up to one
            // quantum less.  Each window spends its actual move, and the
            // bound is re-derived from the live energy when it no longer
            // covers the next window — never guessed past.
            let mut dist = d0.saturating_sub(1);
            if dist <= 0 {
                continue;
            }
            let node_state = state.state;
            // Off lanes do not leak, which makes them the zero-leak case of
            // every bound below.
            let leak = if node_state == NodeState::Off { 0 } else { ls };
            // A timer fire only changes control flow when it can set the
            // sensing flag — idle Sleep — so there the stretch ends before
            // the firing tick.  Off lanes and Sleep lanes with a request
            // already pending run straight through fires (`poll` then merely
            // re-arms), and the re-arms are replayed after the stretch.
            let idle_sleep = node_state == NodeState::Sleep && state.reg_flag.is_idle();
            let stretch_end = if idle_sleep { state.timer.next_fire(period).min(end) } else { end };
            if stretch_end <= i {
                continue;
            }

            // Hoist the loop-constant accumulators into raw integer locals:
            // tick counters for time, attojoules for energy.  Integer
            // addition is associative, so burnt windows may sum in closed
            // form and still produce the per-tick bits.
            let mut t_state = *state.stats.tick_slot_mut(node_state);
            let mut t_total = *state.stats.total_ticks_mut();
            let mut e = energy.attojoules();
            let mut hv = harvested.attojoules();
            let mut cl = clipped.attojoules();
            let mut co = consumed.attojoules();
            let burn_start = i;
            while i < stretch_end {
                if i >= seg.until {
                    seg = source.segment(i, dt);
                    offered = (seg.power.max(Power::ZERO) * dt).to_fx().attojoules();
                }
                // A tick moves the energy by at most `max(offered, leak)`
                // either side of the checks the stretch hoists, so a window
                // of `h` ticks stays within `h` such steps of `e`.
                let step_mag = offered.max(leak);
                let window = seg.until.min(stretch_end) - i;
                let mut h = window_fit(window, dist, step_mag);
                if h == 0 {
                    // Self-heal: re-derive the budget from the live energy
                    // (the FSM state is unchanged inside a stretch).
                    let Some(d) = state.quiescent_distance(th, EnergyFx::from_attojoules(e)) else {
                        break;
                    };
                    recomputes += 1;
                    dist = d.saturating_sub(1);
                    h = window_fit(window, dist, step_mag);
                    if h == 0 {
                        // This tick's checks cannot be proven no-ops: it
                        // runs in full, on the segment already drawn.
                        break;
                    }
                }
                // A single tick is cheapest as the per-tick body itself.
                let burn = if h == 1 {
                    Burn::tick(e, e_max_aj, offered, leak)
                } else {
                    burn_window(e, e_max_aj, offered, leak, h)
                };
                dist -= (burn.energy - e).abs();
                e = burn.energy;
                hv += burn.banked;
                cl += burn.clipped;
                co += burn.drained;
                t_state += h;
                t_total += h;
                fast += h;
                if h > 1 {
                    steady += h;
                }
                i += h;
            }

            // Write the stretch locals back.
            *energy = EnergyFx::from_attojoules(e);
            *harvested = EnergyFx::from_attojoules(hv);
            *clipped = EnergyFx::from_attojoules(cl);
            *consumed = EnergyFx::from_attojoules(co);
            *state.stats.tick_slot_mut(node_state) = t_state;
            *state.stats.total_ticks_mut() = t_total;
            // The polls of the burnt ticks (none fires in idle Sleep).
            state.timer.replay(burn_start, i, period);
        }

        *tick = end;
        telemetry.ticks_total += end - start;
        telemetry.ticks_fast_forwarded += fast;
        telemetry.horizon_recomputes += recomputes;
        telemetry.ticks_steady += steady;
        end >= *steps
    }
}

/// The exact integer outcome of burning one window: the final stored
/// energy and the window's banked, clipped and drained totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Burn {
    energy: i128,
    banked: i128,
    clipped: i128,
    drained: i128,
}

impl Burn {
    /// One tick of the `EnergyCell` arithmetic on a capacitor holding `e` of
    /// at most `e_max`: bank what of `offered` fits under the ceiling, then
    /// drain `leak`, saturating at zero.
    fn tick(e: i128, e_max: i128, offered: i128, leak: i128) -> Self {
        let banked = offered.min(e_max - e).max(0);
        let drained = leak.min(e + banked);
        Self { energy: e + banked - drained, banked, clipped: offered - banked, drained }
    }
}

/// Burns `h` ticks that all offer `offered` and leak `leak` attojoules into
/// a capacitor holding `e` of at most `e_max` — exactly `h` [`Burn::tick`]s,
/// in closed form where it can be.
///
/// Corridor proofs, exact over the window's arithmetic progression: while
/// every tick's pre-clamp energy stays at or below the clip ceiling and at
/// or above the drain floor, the clamps are identities and, integer
/// addition being associative, the window is one multiply-add per total —
/// O(1) regardless of `h`.  The extreme tick is the first or last depending
/// on the sign of the per-tick net move, so one endpoint check covers the
/// whole window.  Otherwise the ticks run one by one until the energy
/// reaches a fixed point (a capacitor pinned at its capacity, or drained
/// flat, repeats one tick's values verbatim), and the remaining ticks fold
/// into one multiply-add each.
fn burn_window(e: i128, e_max: i128, offered: i128, leak: i128, h: u64) -> Burn {
    let (hi, net) = (h as i128, offered - leak);
    let (no_clip, no_sat) = if net >= 0 {
        (e + (hi - 1) * net + offered <= e_max, e + offered >= leak)
    } else {
        (e + offered <= e_max, e + (hi - 1) * net + offered >= leak)
    };
    if no_clip && no_sat {
        let (banked, drained) = (hi * offered, hi * leak);
        return Burn { energy: e + hi * net, banked, clipped: 0, drained };
    }
    let mut burn = Burn { energy: e, banked: 0, clipped: 0, drained: 0 };
    for k in 0..h {
        let tick = Burn::tick(burn.energy, e_max, offered, leak);
        let fixed = tick.energy == burn.energy;
        let reps = if fixed { (h - k) as i128 } else { 1 };
        burn.energy = tick.energy;
        burn.banked += reps * tick.banked;
        burn.clipped += reps * tick.clipped;
        burn.drained += reps * tick.drained;
        if fixed {
            break;
        }
    }
    burn
}

/// How many ticks of a `window`, each moving the energy by at most `step`
/// attojoules, fit inside a movement budget of `dist` attojoules: the whole
/// window when its worst case fits — one widening multiply, the common
/// case, where the length-1 windows of sample-bound sources would otherwise
/// pay an `i128` division per tick — else [`ticks_budget`]'s exact floor.
fn window_fit(window: u64, dist: i128, step: i128) -> u64 {
    let fits = match (u64::try_from(step), u128::try_from(dist)) {
        (Ok(s), Ok(d)) => u128::from(window) * u128::from(s) <= d,
        _ => false,
    };
    if fits {
        window
    } else {
        ticks_budget(dist, step).min(window)
    }
}

/// How many per-tick energy steps of magnitude at most `step` attojoules
/// fit inside a movement budget of `dist` attojoules — an exact
/// `floor(dist / step)`, so `h · step <= dist` holds by construction.
/// Unlike the old floating-point variant there is no safety margin to tune
/// and no rounding to distrust: integer division *is* the proof.  A
/// non-positive `step` means the energy provably cannot move: the horizon
/// is unbounded and the caller's window (lifetime, timer, block) is the
/// binding constraint.
fn ticks_budget(dist: i128, step: i128) -> u64 {
    if dist <= 0 {
        return 0;
    }
    if step <= 0 {
        return u64::MAX;
    }
    u64::try_from(dist / step).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::IntermittentExecutor;
    use ehsim::schedule::Schedule;
    use ehsim::source::ConstantSource;
    use tech45::units::Energy;

    fn scalar(config: FsmConfig, schedule: &Schedule, duration: f64, dt: f64) -> RunStats {
        let mut exec = IntermittentExecutor::new(config, schedule.clone());
        exec.run(Seconds::new(duration), Seconds::new(dt))
    }

    #[test]
    fn lanes_reproduce_scalar_runs_bit_for_bit() {
        let mut batch = BatchExecutor::new(3);
        let schedules = [Schedule::fig4(), Schedule::scarce(), Schedule::plentiful()];
        for (i, schedule) in schedules.iter().enumerate() {
            let config = FsmConfig::paper_default().with_seed(1000 + i as u64);
            batch.enqueue(BatchJob::new(
                config,
                schedule.to_source(),
                Seconds::new(2600.0),
                Seconds::new(0.5),
            ));
        }
        let stats = batch.run_to_completion();
        assert_eq!(stats.len(), 3);
        for (i, schedule) in schedules.iter().enumerate() {
            let config = FsmConfig::paper_default().with_seed(1000 + i as u64);
            assert_eq!(stats[i], scalar(config, schedule, 2600.0, 0.5), "lane {i}");
        }
        assert!(batch.is_idle());
        assert_eq!(batch.take_retired_sources().len(), 3);
    }

    #[test]
    fn ragged_durations_retire_and_refill_without_perturbing_neighbours() {
        // Five jobs with wildly different lifetimes and steps through two
        // lanes: every refill lands mid-flight of the other lane.
        let points = [(400.0, 0.5), (2600.0, 0.5), (150.0, 0.1), (900.0, 0.25), (50.0, 0.5)];
        let mut batch = BatchExecutor::new(2);
        for (i, &(duration, dt)) in points.iter().enumerate() {
            let config = FsmConfig::paper_default().with_seed(i as u64);
            batch.enqueue(BatchJob::new(
                config,
                Schedule::fig4().to_source(),
                Seconds::new(duration),
                Seconds::new(dt),
            ));
        }
        let stats = batch.run_to_completion();
        for (i, &(duration, dt)) in points.iter().enumerate() {
            let config = FsmConfig::paper_default().with_seed(i as u64);
            assert_eq!(stats[i], scalar(config, &Schedule::fig4(), duration, dt), "job {i}");
        }
    }

    #[test]
    fn results_come_back_in_enqueue_order_and_the_executor_is_reusable() {
        let mut batch = BatchExecutor::new(8);
        let mut ids = Vec::new();
        for seed in 0..4_u64 {
            ids.push(batch.enqueue(BatchJob::new(
                FsmConfig::paper_default().with_seed(seed),
                ConstantSource::new(Power::from_milliwatts(0.1)),
                Seconds::new(300.0),
                Seconds::new(0.5),
            )));
        }
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let first = batch.run_to_completion();
        assert_eq!(first.len(), 4);
        // Second round on the same executor: fresh ids, same determinism.
        let id = batch.enqueue(BatchJob::new(
            FsmConfig::paper_default().with_seed(0),
            ConstantSource::new(Power::from_milliwatts(0.1)),
            Seconds::new(300.0),
            Seconds::new(0.5),
        ));
        assert_eq!(id, 0);
        let second = batch.run_to_completion();
        assert_eq!(second[0], first[0]);
    }

    #[test]
    fn a_zero_duration_job_retires_with_empty_statistics() {
        let mut batch = BatchExecutor::new(2);
        batch.enqueue(BatchJob::new(
            FsmConfig::paper_default(),
            ConstantSource::new(Power::ZERO),
            Seconds::ZERO,
            Seconds::new(0.5),
        ));
        let stats = batch.run_to_completion();
        let mut scalar = IntermittentExecutor::with_source(
            FsmConfig::paper_default(),
            ConstantSource::new(Power::ZERO),
        );
        assert_eq!(stats[0], scalar.run(Seconds::ZERO, Seconds::new(0.5)));
    }

    #[test]
    fn custom_capacitors_ride_along() {
        let cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(20.0));
        let mut batch = BatchExecutor::new(1);
        batch.enqueue(
            BatchJob::new(
                FsmConfig::paper_default(),
                ConstantSource::new(Power::from_milliwatts(0.2)),
                Seconds::new(500.0),
                Seconds::new(0.5),
            )
            .with_capacitor(cap),
        );
        let stats = batch.run_to_completion();
        let mut scalar = IntermittentExecutor::with_source(
            FsmConfig::paper_default(),
            ConstantSource::new(Power::from_milliwatts(0.2)),
        )
        .with_capacitor(cap);
        assert_eq!(stats[0], scalar.run(Seconds::new(500.0), Seconds::new(0.5)));
    }

    #[test]
    fn fast_forwarding_fires_and_reports_telemetry() {
        // A modest constant trickle keeps the node asleep between samples —
        // the canonical quiescent workload — so long windows must engage.
        let mut batch = BatchExecutor::new(4);
        for seed in 0..4_u64 {
            batch.enqueue(BatchJob::new(
                FsmConfig::paper_default().with_seed(seed),
                ConstantSource::new(Power::from_milliwatts(0.1)),
                Seconds::new(1500.0),
                Seconds::new(0.5),
            ));
        }
        let stats = batch.run_to_completion();
        let telemetry = batch.telemetry();
        assert_eq!(telemetry.ticks_total, 4 * 3000);
        assert!(telemetry.ticks_fast_forwarded > 0, "{telemetry:?}");
        assert!(telemetry.horizon_recomputes > 0, "{telemetry:?}");
        assert!(telemetry.ticks_fast_forwarded <= telemetry.ticks_total);
        assert!(telemetry.fast_forward_fraction() > 0.5, "{telemetry:?}");
        assert!(telemetry.ticks_steady > 0, "{telemetry:?}");
        // Fast-forwarding must not have cost bit-identity.
        for (seed, stats) in stats.iter().enumerate() {
            let mut scalar = IntermittentExecutor::with_source(
                FsmConfig::paper_default().with_seed(seed as u64),
                ConstantSource::new(Power::from_milliwatts(0.1)),
            );
            assert_eq!(*stats, scalar.run(Seconds::new(1500.0), Seconds::new(0.5)));
        }
    }

    #[test]
    fn a_burnt_window_equals_its_ticks_one_by_one() {
        let e_max = 1_000;
        // Unclamped rises and drains, clipping at the ceiling, draining
        // flat, a pinned-full capacitor, and a motionless one.
        let cases = [
            (500, 30, 10),
            (500, 10, 30),
            (990, 30, 10),
            (20, 0, 10),
            (1_000, 50, 0),
            (0, 5, 5),
            (3, 0, 0),
        ];
        for (e, offered, leak) in cases {
            for h in [1_u64, 2, 3, 17, 200] {
                let mut naive = Burn { energy: e, banked: 0, clipped: 0, drained: 0 };
                for _ in 0..h {
                    let tick = Burn::tick(naive.energy, e_max, offered, leak);
                    naive.energy = tick.energy;
                    naive.banked += tick.banked;
                    naive.clipped += tick.clipped;
                    naive.drained += tick.drained;
                }
                let burn = burn_window(e, e_max, offered, leak, h);
                assert_eq!(burn, naive, "e={e} offered={offered} leak={leak} h={h}");
            }
        }
    }

    #[test]
    fn window_fit_admits_whole_windows_and_falls_back_to_the_floor() {
        assert_eq!(window_fit(1, 10, 10), 1);
        assert_eq!(window_fit(1, 9, 10), 0);
        assert_eq!(window_fit(5, 100, 10), 5);
        assert_eq!(window_fit(50, 100, 10), 10);
        assert_eq!(window_fit(u64::MAX, 100, 0), u64::MAX);
        assert_eq!(window_fit(3, -1, 0), 0);
        assert_eq!(window_fit(4, i128::MAX, i128::MAX / 2), 2);
    }

    #[test]
    fn ticks_budget_is_the_exact_floor_of_the_division() {
        let d = Energy::from_millijoules(2.0).to_fx().attojoules();
        let m = Energy::from_microjoules(10.0).to_fx().attojoules();
        let h = ticks_budget(d, m);
        // 2 mJ / 10 µJ: the budget admits exactly 200 steps, no haircut.
        assert_eq!(h, 200);
        assert!(m * i128::from(h) <= d);
        assert!(m * (i128::from(h) + 1) > d);
        assert_eq!(ticks_budget(0, m), 0);
        assert_eq!(ticks_budget(-1, m), 0);
        assert_eq!(ticks_budget(d, 0), u64::MAX);
        assert_eq!(ticks_budget(d, -3), u64::MAX);
        // A distance smaller than one step yields no window.
        assert_eq!(ticks_budget(Energy::from_microjoules(5.0).to_fx().attojoules(), m), 0);
        // Astronomical budgets saturate instead of wrapping.
        assert_eq!(ticks_budget(i128::MAX, 1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "time step")]
    fn zero_time_steps_are_rejected_at_enqueue() {
        let _ = BatchJob::new(
            FsmConfig::paper_default(),
            ConstantSource::new(Power::ZERO),
            Seconds::new(10.0),
            Seconds::ZERO,
        );
    }
}
