//! The batch executor: queued scenarios, each run to completion on the
//! event-horizon fast path.
//!
//! [`crate::executor::IntermittentExecutor`] advances one FSM + capacitor +
//! harvest source per `dt` tick; a campaign runs hundreds of such
//! independent lifetimes.  [`BatchExecutor`] holds a list of jobs and runs
//! them one after another.  Each job boots into one *lane* — a
//! [`NodeFsm`], the stored energy, the energy accumulators, the current
//! source run, the source and the tick, with the leak step and timer period
//! derived once — and the lane runs from tick 0 to the end of its lifetime
//! in one loop.  Lanes never exchange data, so nothing is gained by
//! interleaving them.  A lane is one value that resumes from any tick
//! boundary, so a clone of it is a fork of the run.
//!
//! # Sibling forks
//!
//! A campaign sweeps the backup unit along its technology × sizing axes,
//! so many of its jobs differ only in `FsmConfig::backup`.
//! [`BatchExecutor::enqueue_with_siblings`] queues one job with the units
//! of such *siblings*.  The unit enters a run only through the backup and
//! restore drains ([`RunStats::reads_backup_unit`]), so until the job's
//! lane first reads it, every sibling is the same computation, tick for
//! tick.  Before each full tick that may be that read
//! (`NodeFsm::may_back_up`, a necessary condition), the lane copies its
//! node.  When the tick does read the unit, the copy is each sibling's own
//! state before it: every sibling forks from it with its unit swapped in,
//! together with the run already drawn and the source as it is after that
//! draw, re-runs the tick and runs on to its end after the lane.  A lane
//! that never reads its unit stands for all its siblings, which get copies
//! of its statistics.
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
//! 2. **thresholds** — `NodeFsm::quiescent_room` gives the room
//!    `down` and `up` from the stored energy to the nearest threshold below
//!    and above whose crossing could alter control flow; the stretch keeps
//!    a running lower bound `dist` on the nearer of the two, re-derived from
//!    the live energy, never guessed.
//!
//! The timer poll, threshold comparisons, safe-zone bookkeeping and FSM
//! dispatch are hoisted out (each proven a no-op for the stretch), and the
//! ticks are burnt by one loop over source runs ([`HarvestSource::run`]) on
//! exact integer accumulators (tick counters, [`tech45::units::EnergyFx`]
//! attojoules).  A run comes in two kinds:
//!
//! * *uniform* — the source's own window of one repeated offer (segment
//!   plateaus, Markov dwells, solar nights, whole RFID bursts and rests).
//!   The lane keeps it across full ticks and burns `h = min(until, stretch
//!   end) − i` ticks at a time, capped by the distance budget.  Corridor
//!   proofs over the window's arithmetic progression reduce the
//!   `EnergyCell` clamps to identities and the window to one `e += h · net`
//!   multiply-add; where a clamp can bind, the per-tick loop runs only
//!   until the energy reaches a fixed point.
//! * *mixed* — offers that vary tick by tick (RFID bursts and rests across
//!   many cycles, solar daylight), summed by the source within the limits
//!   the lane passes: a stretch end cut so that `h · leak` fits both the
//!   energy and the room down, and an upward budget of `min(up − 1,
//!   e_max − e)` for the run's total offer `S`.  Three integer checks —
//!   `e + S ≤ e_max`, `e ≥ h · leak`, and `S < up` with `h · leak < down`
//!   — prove that no clamp fires and no hoisted check flips, so the run is
//!   one step: `S` banked, `h · leak` drained, nothing clipped.  The rooms
//!   move exactly with the energy, so `dist` restarts from them.
//!
//! A tick whose move cannot be proven even from the live energy runs in
//! full on the run already drawn, so the source is queried once per run.
//!
//! [`TimerInterrupt::next_fire`]: crate::interrupts::TimerInterrupt::next_fire
//! [`TimerInterrupt::replay`]: crate::interrupts::TimerInterrupt::replay
//!
//! [`BatchTelemetry`] counts total, fast-forwarded and steady ticks,
//! horizon recomputes and forks, so the win is measurable.
//!
//! # Why the batch is bit-identical to the scalar path
//!
//! Each lane runs the arithmetic of
//! [`IntermittentExecutor::run`](crate::executor::IntermittentExecutor::run):
//! its full ticks are the scalar per-step body, the shared
//! [`ehsim::capacitor::EnergyCell`] / [`NodeFsm`] transition, and a lane
//! boots exactly as a fresh scalar executor.  Offers are
//! quantised by the one [`ehsim::capacitor::quantise`], and below it every
//! accumulator update is associative integer arithmetic, so a burnt run
//! equals its ticks one by one, bit for bit.  The hoisted checks are pure
//! reads proven constant over each run by exact integer comparisons, and
//! the samples a run elides are covered by the [`HarvestSource::run`]
//! contract.  A fork starts from its sibling's own state (see "Sibling
//! forks").  So the per-scenario [`RunStats`], and every campaign digest,
//! match the scalar oracle exactly.

use std::ops::Range;

use ehsim::capacitor::{Capacitor, EnergyCell};
use ehsim::source::{HarvestSource, Run};
use tech45::units::{EnergyFx, Seconds};

use crate::backup::BackupUnit;
use crate::fsm::{FsmConfig, NodeFsm, TickConstants};
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

    /// Number of `dt` ticks this job runs for — the scalar executor's exact
    /// step count.
    #[must_use]
    pub fn steps(&self) -> u64 {
        crate::executor::step_count(self.duration, self.dt)
    }
}

/// Runs queued jobs one after another, each to completion, returning their
/// statistics in enqueue order.
///
/// ```
/// use ehsim::schedule::Schedule;
/// use isim::batch::{BatchExecutor, BatchJob};
/// use isim::executor::IntermittentExecutor;
/// use isim::fsm::FsmConfig;
/// use tech45::units::Seconds;
///
/// let (duration, dt) = (Seconds::new(1500.0), Seconds::new(0.5));
/// let mut batch = BatchExecutor::new(6);
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
    /// The queued jobs, each with its range of `siblings`.
    jobs: Vec<(BatchJob<S>, Range<usize>)>,
    /// The backup units of every queued job's siblings, flat.
    siblings: Vec<BackupUnit>,
    telemetry: BatchTelemetry,
}

/// Tick-level counters of one [`BatchExecutor`]: how much of the simulated
/// time was burnt through the event-horizon fast path (see the module docs)
/// versus stepped in full, and how many siblings forked.  Cumulative over
/// the executor's lifetime, including reuse across
/// [`BatchExecutor::run_to_completion`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTelemetry {
    /// Ticks executed in total (fast and full-fidelity alike); a forked
    /// sibling counts the ticks from its fork on.
    pub ticks_total: u64,
    /// Ticks executed by the branch-free fast-forward loops.
    pub ticks_fast_forwarded: u64,
    /// Times a quiescent horizon was computed (each full-fidelity tick in a
    /// fast-forwardable state recomputes the bound — it is never guessed
    /// past its expiry).
    pub horizon_recomputes: u64,
    /// Fast ticks burnt in runs of two or more ticks, uniform and mixed
    /// alike, one source query per run — the rest of
    /// [`Self::ticks_fast_forwarded`] were length-1 runs.
    pub ticks_steady: u64,
    /// Siblings forked from their job's lane at its first read of the
    /// backup unit (see [`BatchExecutor::enqueue_with_siblings`]); the
    /// siblings of a job that never read it are copies, not forks.
    pub forks: u64,
}

impl<S: HarvestSource + Clone> BatchExecutor<S> {
    /// An empty executor whose job list has room for `capacity` jobs before
    /// it grows.  The capacity is only a hint: any number of jobs may be
    /// enqueued.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            jobs: Vec::with_capacity(capacity),
            siblings: Vec::new(),
            telemetry: BatchTelemetry::default(),
        }
    }

    /// The executor's cumulative fast-forward telemetry.
    #[must_use]
    pub fn telemetry(&self) -> BatchTelemetry {
        self.telemetry
    }

    /// Enqueues a job.  Returns the job's id — its index into the
    /// [`Self::run_to_completion`] result.
    pub fn enqueue(&mut self, job: BatchJob<S>) -> usize {
        self.enqueue_with_siblings(job, [])
    }

    /// Enqueues a job together with its *siblings*: the jobs that differ
    /// from it only in `config.backup`, one per unit of `siblings`.
    /// Returns the job's id, its index into the
    /// [`Self::run_to_completion`] result; the siblings' statistics follow
    /// it, in the order of `siblings`.
    ///
    /// The siblings run as forks of the job's lane (see the module docs):
    /// until the job first reads its backup unit, every sibling is the
    /// same computation, so each starts from the job's state before that
    /// tick, with its own unit swapped in.  A job that never reads its unit
    /// stands for all its siblings, which get copies of its statistics.
    pub fn enqueue_with_siblings(
        &mut self,
        job: BatchJob<S>,
        siblings: impl IntoIterator<Item = BackupUnit>,
    ) -> usize {
        let id = self.jobs.len() + self.siblings.len();
        let start = self.siblings.len();
        self.siblings.extend(siblings);
        self.jobs.push((job, start..self.siblings.len()));
        id
    }

    /// Runs every enqueued job to completion and returns their statistics in
    /// enqueue order, each job's followed by its siblings'.  The executor is
    /// reusable afterwards.
    pub fn run_to_completion(&mut self) -> Vec<RunStats> {
        let mut stats = Vec::with_capacity(self.jobs.len() + self.siblings.len());
        for (job, range) in self.jobs.drain(..) {
            let units = &self.siblings[range];
            let (job_stats, forks) = Lane::boot(job).run(units, &mut self.telemetry);
            if forks.is_empty() {
                // The job stands for every sibling: copies of its stats.
                stats.extend(std::iter::repeat_n(job_stats, units.len() + 1));
                continue;
            }
            stats.push(job_stats);
            for fork in forks {
                stats.push(fork.run(&[], &mut self.telemetry).0);
            }
        }
        self.siblings.clear();
        stats
    }
}

/// The loop constants of one job, shared by its forks: its tick count and
/// step, the leak step and timer period derived once, and the capacitor's
/// ceiling.
#[derive(Debug, Clone, Copy)]
struct Grid {
    steps: u64,
    dt: Seconds,
    k: TickConstants,
    e_max: EnergyFx,
}

/// What a full tick's body changes: the [`NodeFsm`], the stored energy and
/// the three energy accumulators.  No field holds heap memory, so a clone
/// is a plain copy.
#[derive(Debug, Clone)]
struct Node {
    fsm: NodeFsm,
    energy: EnergyFx,
    harvested: EnergyFx,
    clipped: EnergyFx,
    consumed: EnergyFx,
}

impl Node {
    /// One full tick `i` on the offer `offered`: the scalar executor's
    /// per-step body, verbatim (see `IntermittentExecutor::run_with_sink`),
    /// around the one shared `NodeFsm` transition.
    #[inline]
    fn tick(&mut self, offered: EnergyFx, i: u64, grid: Grid) {
        let before = self.energy;
        let mut cell = EnergyCell::from_parts(&mut self.energy, grid.e_max);
        let banked = cell.harvest_fx(offered);
        self.fsm.step_with(&mut cell, i, grid.dt, grid.k);
        self.harvested += banked;
        self.clipped += offered - banked;
        // Exact — integer drains can never overshoot, so no clamp.
        self.consumed += before + banked - self.energy;
    }
}

/// One job's run at a tick boundary: the node, the current source run, the
/// source and the next tick.  A lane resumes from any boundary, so a clone
/// is a fork of the run.
#[derive(Debug, Clone)]
struct Lane<S> {
    node: Node,
    /// The current source run.  A uniform run is kept across the whole
    /// lifetime — its suffix is still a uniform run — so full ticks and
    /// stretches alike reuse it until `until`; a mixed run is burnt whole
    /// as soon as it is drawn.
    run: Run,
    source: S,
    tick: u64,
    grid: Grid,
}

impl<S: HarvestSource + Clone> Lane<S> {
    /// The lane of `job` at tick 0, booted exactly as a fresh scalar
    /// executor.
    ///
    /// # Panics
    ///
    /// Panics if the job's `dt` or sampling interval is not strictly
    /// positive.
    fn boot(job: BatchJob<S>) -> Self {
        // The scalar executor's run-time contract, re-checked here so a job
        // assembled as a struct literal (the fields are public) cannot
        // smuggle a degenerate grid past `BatchJob::new`.
        assert!(job.dt.value() > 0.0, "time step must be positive");
        let steps = job.steps();
        let BatchJob { config, capacitor, source, dt, .. } = job;
        let k = TickConstants::new(&config, dt);
        let zero = EnergyFx::ZERO;
        Self {
            node: Node {
                fsm: NodeFsm::new(config),
                energy: capacitor.energy_fx(),
                harvested: zero,
                clipped: zero,
                consumed: zero,
            },
            run: Run::uniform(zero, 0, 0),
            source,
            tick: 0,
            grid: Grid { steps, dt, k, e_max: capacitor.max_energy_fx() },
        }
    }

    /// Runs the lane from its tick to the end of its lifetime and returns
    /// its statistics, finalised through [`RunStats::finalize`] — the exact
    /// epilogue the scalar executor runs — together with the forks of
    /// `siblings`: empty if the lane never read its backup unit,
    /// else one lane per sibling unit, in order, each at the tick of the
    /// first read.
    ///
    /// The lane alternates full-fidelity ticks with event-horizon stretches
    /// (see the module docs): after every full tick that leaves the node in
    /// Sleep or Off it derives the quiescent threshold distance and burns
    /// the source's runs with every check it proves a no-op hoisted out.
    fn run(self, siblings: &[BackupUnit], telemetry: &mut BatchTelemetry) -> (RunStats, Vec<Self>) {
        let Lane { mut node, mut run, mut source, tick: start, grid } = self;
        let Grid { steps, dt, k, e_max } = grid;
        let e_max_aj = e_max.attojoules();
        let period = k.timer_period;
        // Worst-case per-tick drain of the fast path: Sleep only leaks, Off
        // does not even do that.
        let ls = k.leak_step.attojoules();
        let (mut fast, mut steady, mut recomputes) = (0_u64, 0_u64, 0_u64);
        // Whether siblings still wait to fork.  Stretches never read the
        // unit, so only a full tick can be the fork tick.
        let mut unforked = !siblings.is_empty();
        let mut forks = Vec::new();

        let mut i = start;
        while i < steps {
            // A full tick needs only its own offer, so it asks with limits
            // that admit no second tick: the source's window.
            if i >= run.until {
                run = source.run(i, dt, i + 1, EnergyFx::ZERO);
            }
            // The node before a tick that may read the unit first; the
            // copy allocates nothing.
            let pre_tick = (unforked && node.fsm.may_back_up(node.energy, k)).then(|| node.clone());
            node.tick(run.first, i, grid);
            if unforked && node.fsm.stats.reads_backup_unit() {
                // The first read: up to this tick every sibling ran this
                // very computation, so `pre_tick` is each one's own state,
                // and the body above left `run` and the source alone.
                let pre_tick = pre_tick.expect("only a tick that may back up reads the unit first");
                forks = siblings
                    .iter()
                    .map(|&unit| {
                        let mut node = pre_tick.clone();
                        node.fsm.set_backup(unit);
                        Lane { node, run, source: source.clone(), tick: i, grid }
                    })
                    .collect();
                telemetry.forks += siblings.len() as u64;
                unforked = false;
            }
            i += 1;

            // Event-horizon attempt: only Sleep and Off are quiescent
            // candidates.
            let fsm = &mut node.fsm;
            if i >= steps || !matches!(fsm.state(), NodeState::Sleep | NodeState::Off) {
                continue;
            }
            // The exact room from energy `at` down and up to the nearest
            // control-flow threshold on each side, and a running lower bound
            // on the nearer, one quantum shaved so that a move of at most
            // `dist` preserves strict and non-strict comparisons alike.
            let mut at = node.energy.attojoules();
            let Some(mut room) = fsm.quiescent_room(node.energy) else { continue };
            recomputes += 1;
            let mut dist = room.0.min(room.1).saturating_sub(1);
            if dist <= 0 {
                continue;
            }
            let node_state = fsm.state();
            // Off lanes do not leak, which makes them the zero-leak case of
            // every bound below.
            let leak = if node_state == NodeState::Off { 0 } else { ls };
            // A timer fire only changes control flow when it can set the
            // sensing flag — idle Sleep — so there the stretch ends before
            // the firing tick.  Off lanes and Sleep lanes with a request
            // already pending run straight through fires (`poll` then merely
            // re-arms), and the re-arms are replayed after the stretch.
            let idle_sleep = node_state == NodeState::Sleep && fsm.reg_flag().is_idle();
            let stretch_end =
                if idle_sleep { fsm.timer.next_fire(period).min(steps) } else { steps };
            if stretch_end <= i {
                continue;
            }

            // Hoist the accumulators into raw integer locals.
            let mut t_state = *fsm.stats.tick_slot_mut(node_state);
            let mut t_total = *fsm.stats.total_ticks_mut();
            let mut e = node.energy.attojoules();
            let mut hv = node.harvested.attojoules();
            let mut cl = node.clipped.attojoules();
            let mut co = node.consumed.attojoules();
            let burn_start = i;
            while i < stretch_end {
                if i >= run.until {
                    // The limits of a mixed run the proof admits: `h · leak`
                    // within the energy and below the room down, the total
                    // offer within the headroom and below the room up.
                    let (down, up) = room_at(room, e - at);
                    let reach = window_fit(stretch_end - i, (down - 1).min(e), leak);
                    let budget = EnergyFx::from_attojoules((up - 1).min(e_max_aj - e));
                    run = source.run(i, dt, i + reach, budget);
                }
                let offered = run.first.attojoules();
                let (h, burn) = if run.uniform {
                    // A tick moves the energy by at most `max(offered, leak)`
                    // either side of the checks the stretch hoists, so a
                    // window of `h` ticks stays within `h` such steps of `e`.
                    let step_mag = offered.max(leak);
                    let window = run.until.min(stretch_end) - i;
                    let mut h = window_fit(window, dist, step_mag);
                    if h == 0 {
                        // Self-heal: re-derive the budget from the live
                        // energy (the FSM state is unchanged in a stretch).
                        let live = EnergyFx::from_attojoules(e);
                        let Some(live_room) = fsm.quiescent_room(live) else { break };
                        recomputes += 1;
                        (room, at) = (live_room, e);
                        dist = room.0.min(room.1).saturating_sub(1);
                        h = window_fit(window, dist, step_mag);
                        if h == 0 {
                            // This tick's checks cannot be proven no-ops: it
                            // runs in full, on the run already drawn.
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
                    (h, burn)
                } else {
                    let (h, total) = (run.until - i, run.total.attojoules());
                    let drained = i128::from(h) * leak;
                    let burn = burn_run(e, e_max_aj, total, drained, room_at(room, e - at))
                        .expect("a mixed run fits the limits it was drawn with");
                    // It may spend a whole side's room at once: the bound
                    // restarts from the exact rooms it leaves.
                    let (down, up) = room_at(room, burn.energy - at);
                    dist = down.min(up).saturating_sub(1);
                    (h, burn)
                };
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
            node.energy = EnergyFx::from_attojoules(e);
            node.harvested = EnergyFx::from_attojoules(hv);
            node.clipped = EnergyFx::from_attojoules(cl);
            node.consumed = EnergyFx::from_attojoules(co);
            *fsm.stats.tick_slot_mut(node_state) = t_state;
            *fsm.stats.total_ticks_mut() = t_total;
            // The polls of the burnt ticks (none fires in idle Sleep).
            fsm.timer.replay(burn_start, i, period);
        }

        telemetry.ticks_total += steps - start;
        telemetry.ticks_fast_forwarded += fast;
        telemetry.horizon_recomputes += recomputes;
        telemetry.ticks_steady += steady;
        let Node { fsm, harvested, clipped, consumed, .. } = node;
        let mut stats = fsm.stats;
        stats.finalize(dt, harvested, clipped, consumed);
        (stats, forks)
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

/// Burns a mixed run that offers `total` and drains `drained` in closed
/// form, if the proof admits it.  Offers are non-negative, so every energy
/// the run passes through — after each tick's bank and after its drain —
/// lies in `[e − drained, e + total]`.  `e + total <= e_max` then means no
/// bank clips, `e >= drained` that no drain saturates, and `drained < down`,
/// `total < up` — within the exact room to the nearest threshold below and
/// above — that no hoisted check flips: the run is `total` banked and
/// `drained` drained, nothing clipped — the bits of its [`Burn::tick`]s.
fn burn_run(e: i128, e_max: i128, total: i128, drained: i128, room: (i128, i128)) -> Option<Burn> {
    let (down, up) = room;
    let admitted = e + total <= e_max && e >= drained && drained < down && total < up;
    admitted.then_some(Burn { energy: e + total - drained, banked: total, clipped: 0, drained })
}

/// The room `(down, up)` after the energy moved by `shift`.
fn room_at((down, up): (i128, i128), shift: i128) -> (i128, i128) {
    (down.saturating_add(shift), up.saturating_sub(shift))
}

/// How many ticks of a `window`, each moving the energy by at most `step`
/// attojoules, fit inside a movement budget of `dist` attojoules: the whole
/// window when its worst case fits (one widening multiply, the common
/// case), else [`ticks_budget`]'s exact floor.
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
/// `floor(dist / step)`.  A non-positive `step` cannot move the energy: the
/// horizon is unbounded and the caller's window binds.
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
    use tech45::units::{Energy, Power};

    fn scalar(config: FsmConfig, schedule: &Schedule, duration: f64, dt: f64) -> RunStats {
        let mut exec = IntermittentExecutor::new(config, schedule.clone());
        exec.run(Seconds::new(duration), Seconds::new(dt))
    }

    /// A paper-default job of `seed` on `source`: `duration` seconds at `dt`.
    fn job<S>(seed: u64, source: S, duration: f64, dt: f64) -> BatchJob<S> {
        let config = FsmConfig::paper_default().with_seed(seed);
        BatchJob::new(config, source, Seconds::new(duration), Seconds::new(dt))
    }

    /// A modest constant trickle, which keeps the node asleep between
    /// samples.
    fn trickle() -> ConstantSource {
        ConstantSource::new(Power::from_milliwatts(0.1))
    }

    #[test]
    fn lanes_reproduce_scalar_runs_bit_for_bit() {
        let mut batch = BatchExecutor::new(3);
        let schedules = [Schedule::fig4(), Schedule::scarce(), Schedule::plentiful()];
        for (i, schedule) in schedules.iter().enumerate() {
            batch.enqueue(job(1000 + i as u64, schedule.to_source(), 2600.0, 0.5));
        }
        let stats = batch.run_to_completion();
        assert_eq!(stats.len(), 3);
        for (i, schedule) in schedules.iter().enumerate() {
            let config = FsmConfig::paper_default().with_seed(1000 + i as u64);
            assert_eq!(stats[i], scalar(config, schedule, 2600.0, 0.5), "lane {i}");
        }
    }

    #[test]
    fn ragged_durations_and_steps_each_match_their_scalar_run() {
        // Five jobs with wildly different lifetimes and steps through one
        // executor, whose capacity hint is below the job count.
        let points = [(400.0, 0.5), (2600.0, 0.5), (150.0, 0.1), (900.0, 0.25), (50.0, 0.5)];
        let mut batch = BatchExecutor::new(2);
        for (i, &(duration, dt)) in points.iter().enumerate() {
            batch.enqueue(job(i as u64, Schedule::fig4().to_source(), duration, dt));
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
            ids.push(batch.enqueue(job(seed, trickle(), 300.0, 0.5)));
        }
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let first = batch.run_to_completion();
        assert_eq!(first.len(), 4);
        // Second round on the same executor: fresh ids, same determinism.
        let id = batch.enqueue(job(0, trickle(), 300.0, 0.5));
        assert_eq!(id, 0);
        let second = batch.run_to_completion();
        assert_eq!(second[0], first[0]);
    }

    #[test]
    fn siblings_follow_their_job_and_ids_count_them() {
        let (cheap, dear) = (
            BackupUnit::from_state_bits(16, tech45::nvm::NvmTechnology::Mram),
            BackupUnit::from_state_bits(4096, tech45::nvm::NvmTechnology::Pcm),
        );
        let fig4 = || Schedule::fig4().to_source();
        let mut batch = BatchExecutor::new(2);
        // The Fig. 4 schedule's power-loss phase starts after 1 700 s: a
        // 600 s job never backs up, so its siblings are copies, and a
        // 2 600 s job does, so its siblings fork.
        assert_eq!(batch.enqueue_with_siblings(job(3, fig4(), 600.0, 0.5), [cheap, dear]), 0);
        assert_eq!(batch.enqueue_with_siblings(job(4, fig4(), 2600.0, 0.5), [dear, cheap]), 3);
        assert_eq!(batch.enqueue(job(5, fig4(), 300.0, 0.5)), 6);
        let stats = batch.run_to_completion();
        assert_eq!(batch.telemetry().forks, 2);
        let own = BackupUnit::default();
        let expected = [(3, own, 600.0), (3, cheap, 600.0), (3, dear, 600.0)]
            .into_iter()
            .chain([(4, own, 2600.0), (4, dear, 2600.0), (4, cheap, 2600.0), (5, own, 300.0)])
            .map(|(seed, unit, duration)| {
                let config = FsmConfig::paper_default().with_seed(seed).with_backup(unit);
                scalar(config, &Schedule::fig4(), duration, 0.5)
            });
        assert_eq!(stats, expected.collect::<Vec<_>>());
        assert_ne!(stats[4], stats[5], "the forks kept their own units");
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
        batch.enqueue(BatchJob {
            capacitor: cap,
            ..BatchJob::new(
                FsmConfig::paper_default(),
                ConstantSource::new(Power::from_milliwatts(0.2)),
                Seconds::new(500.0),
                Seconds::new(0.5),
            )
        });
        let stats = batch.run_to_completion();
        let mut scalar = IntermittentExecutor::with_source(
            FsmConfig::paper_default(),
            ConstantSource::new(Power::from_milliwatts(0.2)),
        )
        .with_initial_energy(Energy::from_millijoules(20.0));
        assert_eq!(stats[0], scalar.run(Seconds::new(500.0), Seconds::new(0.5)));
    }

    #[test]
    fn fast_forwarding_fires_and_reports_telemetry() {
        // The trickle is the canonical quiescent workload, so long windows
        // must engage.
        let mut batch = BatchExecutor::new(4);
        for seed in 0..4_u64 {
            batch.enqueue(job(seed, trickle(), 1500.0, 0.5));
        }
        let stats = batch.run_to_completion();
        let telemetry = batch.telemetry();
        assert_eq!(telemetry.ticks_total, 4 * 3000);
        assert!(telemetry.ticks_fast_forwarded > 0, "{telemetry:?}");
        assert!(telemetry.horizon_recomputes > 0, "{telemetry:?}");
        assert!(telemetry.ticks_fast_forwarded <= telemetry.ticks_total);
        assert!(telemetry.ticks_fast_forwarded * 2 > telemetry.ticks_total, "{telemetry:?}");
        assert!(telemetry.ticks_steady > 0, "{telemetry:?}");
        // Fast-forwarding must not have cost bit-identity.
        for (seed, stats) in stats.iter().enumerate() {
            let config = FsmConfig::paper_default().with_seed(seed as u64);
            let mut scalar = IntermittentExecutor::with_source(config, trickle());
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
                let (naive, ..) = one_by_one(e, e_max, leak, &vec![offered; h as usize]);
                let burn = burn_window(e, e_max, offered, leak, h);
                assert_eq!(burn, naive, "e={e} offered={offered} leak={leak} h={h}");
            }
        }
    }

    /// `offers` burnt tick by tick into a capacitor holding `e`: the totals,
    /// whether any tick clipped or saturated, and the farthest the energy
    /// strayed below and above `e`, after a bank or after a drain.
    fn one_by_one(e: i128, e_max: i128, leak: i128, offers: &[i128]) -> (Burn, bool, (i128, i128)) {
        let mut burn = Burn { energy: e, banked: 0, clipped: 0, drained: 0 };
        let (mut clamped, mut reach) = (false, (0, 0));
        for &offered in offers {
            let tick = Burn::tick(burn.energy, e_max, offered, leak);
            clamped |= tick.clipped > 0 || tick.drained < leak;
            for x in [burn.energy + tick.banked, tick.energy] {
                reach = (reach.0.max(e - x), reach.1.max(x - e));
            }
            burn.energy = tick.energy;
            burn.banked += tick.banked;
            burn.clipped += tick.clipped;
            burn.drained += tick.drained;
        }
        (burn, clamped, reach)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// A mixed run the proof admits equals its ticks one by one, and a
        /// run whose ticks would clip, saturate or reach the room below or
        /// above is never admitted — over random offers, an empty and a
        /// full capacitor, and no leak at all (an Off lane).
        #[test]
        fn an_admitted_mixed_run_equals_its_ticks_one_by_one(
            offers in proptest::collection::vec(0_i64..400, 2..40),
            (e_pick, e_any) in (0_u8..3, 0_i64..10_000),
            (leak_pick, leak_any) in (0_u8..2, 0_i64..300),
            (down, up) in (0_i64..20_000, 0_i64..20_000),
        ) {
            let e_max = 10_000_i128;
            let e = [0, e_max, i128::from(e_any)][usize::from(e_pick)];
            let leak = if leak_pick == 0 { 0 } else { i128::from(leak_any) };
            let (down, up) = (i128::from(down), i128::from(up));
            let offers: Vec<i128> = offers.iter().map(|&o| i128::from(o)).collect();
            let (naive, clamped, (below, above)) = one_by_one(e, e_max, leak, &offers);
            let drained = offers.len() as i128 * leak;
            if let Some(burn) = burn_run(e, e_max, offers.iter().sum(), drained, (down, up)) {
                proptest::prop_assert_eq!(burn, naive);
                proptest::prop_assert!(!clamped, "admitted past a clip or a saturation");
                proptest::prop_assert!(below < down && above < up, "admitted past a room");
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
