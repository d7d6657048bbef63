//! The intermittent-aware node FSM (Algorithm 1 of the paper).
//!
//! The state machine owns the node-level behaviour: it decides, every time
//! step, whether to stay asleep, start an atomic operation (sense, compute,
//! transmit), retreat into the safe zone, take a backup, or shut down — all
//! driven by the `Reg_Flag` register, the six energy thresholds, and the two
//! interrupt sources (timer and power).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ehsim::capacitor::{quantise, Capacitor, EnergyCell};
use ehsim::pmu::{Thresholds, ThresholdsFx};
use tech45::constants::{E_COMPUTE, E_SENSE, E_TRANSMIT, OPERATION_UNCERTAINTY, SLEEP_LEAKAGE_W};
use tech45::units::{Energy, EnergyFx, Power, Seconds};

use crate::backup::BackupUnit;
use crate::executor::step_count;
use crate::interrupts::TimerInterrupt;
use crate::reg_flag::RegFlag;
use crate::state::NodeState;
use crate::stats::RunStats;

/// Configuration of the node FSM.
#[derive(Debug, Clone, PartialEq)]
pub struct FsmConfig {
    /// The six energy thresholds.
    pub thresholds: Thresholds,
    /// Mean energy of one sense operation.
    pub sense_energy: Energy,
    /// Mean energy of one compute operation.
    pub compute_energy: Energy,
    /// Mean energy of one transmit operation.
    pub transmit_energy: Energy,
    /// Relative uncertainty applied to every operation's energy (±10 % in the
    /// paper).
    pub uncertainty: f64,
    /// Duration of one sense operation.
    pub sense_duration: Seconds,
    /// Duration of one compute operation.
    pub compute_duration: Seconds,
    /// Duration of one transmit operation.
    pub transmit_duration: Seconds,
    /// Sampling interval enforced by the timer interrupt.
    pub sampling_interval: Seconds,
    /// Leakage drawn in every state except Off.
    pub sleep_leakage: Power,
    /// Probability that a completed computation requires a transmission.
    pub transmit_probability: f64,
    /// The backup/restore engine.
    pub backup: BackupUnit,
    /// Whether the `Th_SafeZone` mechanism is enabled (optimized DIAC).  When
    /// disabled the safe zone collapses onto the backup threshold.
    pub use_safe_zone: bool,
    /// RNG seed (operation-energy jitter, transmit decisions).
    pub seed: u64,
}

impl FsmConfig {
    /// The configuration used throughout Section IV.A of the paper:
    /// 2/4/9 mJ operations with ±10 % uncertainty, the Fig. 4 thresholds, and
    /// the safe zone enabled.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            thresholds: Thresholds::paper_default(),
            sense_energy: E_SENSE,
            compute_energy: E_COMPUTE,
            transmit_energy: E_TRANSMIT,
            uncertainty: OPERATION_UNCERTAINTY,
            sense_duration: Seconds::new(0.5),
            compute_duration: Seconds::new(2.0),
            transmit_duration: Seconds::new(1.0),
            sampling_interval: Seconds::new(30.0),
            sleep_leakage: Power::new(SLEEP_LEAKAGE_W),
            transmit_probability: 1.0,
            backup: BackupUnit::default(),
            use_safe_zone: true,
            seed: 0xD1AC,
        }
    }

    /// Same configuration with the safe zone disabled (plain DIAC).
    #[must_use]
    pub fn without_safe_zone(mut self) -> Self {
        self.use_safe_zone = false;
        self.thresholds = self.thresholds.with_safe_zone_margin(Energy::ZERO);
        self
    }

    /// Replaces the thresholds.  A collapsed safe zone (`Th_SafeZone ==
    /// Th_Bk`) disables the safe-zone rule, matching
    /// [`Self::without_safe_zone`]; any positive margin enables it.
    #[must_use]
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Self {
        self.use_safe_zone = thresholds.safe_zone > thresholds.backup;
        self.thresholds = thresholds;
        self
    }

    /// Replaces the backup/restore engine.
    #[must_use]
    pub fn with_backup(mut self, backup: BackupUnit) -> Self {
        self.backup = backup;
        self
    }

    /// Replaces the RNG seed that drives the ±10 % per-operation energy
    /// jitter and the transmit decisions — the knob that makes a whole
    /// scenario campaign bit-reproducible from one number.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for FsmConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The loop constants a run derives from its configuration at its step
/// `dt`, once: the hot path must not re-derive them per tick.  Both
/// executors build them here, so a lane's leak and timer grid can never
/// drift between the scalar and batched paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TickConstants {
    /// `max(sleep_leakage, 0) · dt` on the fixed-point grid — what
    /// `EnergyCell::drain_power` would re-derive every tick.
    pub(crate) leak_step: EnergyFx,
    /// The sampling interval in ticks, `step_count(sampling_interval, dt)`
    /// (at least one; saturating at `u64::MAX` for intervals beyond the
    /// grid, which then never fire).
    pub(crate) timer_period: u64,
}

impl TickConstants {
    /// The constants of `config` stepping at `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `config.sampling_interval` is not strictly positive.
    pub(crate) fn new(config: &FsmConfig, dt: Seconds) -> Self {
        assert!(config.sampling_interval.value() > 0.0, "timer period must be positive");
        Self {
            leak_step: quantise(config.sleep_leakage, dt),
            // A positive interval whose quotient by `dt` underflows to zero
            // fires on every tick, exactly as a one-tick period does.
            timer_period: step_count(config.sampling_interval, dt).max(1),
        }
    }
}

/// An atomic operation currently in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InFlight {
    remaining_energy: Energy,
    remaining_time: Seconds,
    total_energy: Energy,
    total_time: Seconds,
}

/// The backup/restore bookkeeping flags of one FSM lane.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LaneFlags {
    /// Whether the current volatile state has been captured by a backup.
    backed_up: bool,
    /// Whether a restore from NVM is required before resuming.
    needs_restore: bool,
    /// Whether the node is currently below the safe-zone threshold.
    in_safe_zone_dip: bool,
    /// Whether a backup happened during the current dip.
    backup_during_dip: bool,
}

impl LaneFlags {
    /// Boot-time flags: start as if already inside a (handled) dip so that a
    /// node that boots with an empty capacitor does not count the initial
    /// charge-up as a safe-zone entry or recovery.
    fn boot() -> Self {
        Self {
            backed_up: false,
            needs_restore: false,
            in_safe_zone_dip: true,
            backup_during_dip: true,
        }
    }
}

/// The node state machine: one node's configuration, its fixed-point
/// thresholds and its whole mutable state.  The scalar executor owns one,
/// and so does each lane of the batch executor; both step it through the
/// one transition below, which is what makes the batch executor
/// bit-identical to the scalar path by construction rather than by
/// parallel maintenance.
#[derive(Debug, Clone)]
pub struct NodeFsm {
    config: FsmConfig,
    /// `config.thresholds` on the fixed-point grid, quantised once here:
    /// the configuration is immutable for the FSM's lifetime, and the step
    /// transition compares the stored energy against the thresholds several
    /// times per tick, which costs less than re-deriving six values.
    th: ThresholdsFx,
    state: NodeState,
    reg_flag: RegFlag,
    rng: StdRng,
    pub(crate) timer: TimerInterrupt,
    in_flight: Option<InFlight>,
    flags: LaneFlags,
    pub(crate) stats: RunStats,
}

impl NodeFsm {
    /// Creates the FSM in the Sleep state with an idle `Reg_Flag`, a seeded
    /// RNG and an armed timer.
    #[must_use]
    pub fn new(config: FsmConfig) -> Self {
        Self {
            th: config.thresholds.fx(),
            state: NodeState::Sleep,
            reg_flag: RegFlag::IDLE,
            rng: StdRng::seed_from_u64(config.seed),
            timer: TimerInterrupt::default(),
            in_flight: None,
            flags: LaneFlags::boot(),
            stats: RunStats::default(),
            config,
        }
    }

    /// Current node state.
    #[must_use]
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Current `Reg_Flag`.
    #[must_use]
    pub fn reg_flag(&self) -> RegFlag {
        self.reg_flag
    }

    /// Statistics collected so far.
    #[must_use]
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Mutable access to the statistics (the executor adds the energy
    /// aggregates it measures at the capacitor).
    pub fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// The FSM configuration.
    #[must_use]
    pub fn config(&self) -> &FsmConfig {
        &self.config
    }

    /// Advances the node through tick `tick` (covering
    /// `[tick·dt, (tick+1)·dt)`), drawing from and observing `capacitor`.
    ///
    /// A run is one increasing tick sequence at one `dt`: `dt` is constant
    /// over a run, because the timer counts its sampling interval in ticks
    /// of it, and the timer fires once `tick` reaches a whole interval past
    /// its last fire, so ticks must not go backwards.
    ///
    /// # Panics
    ///
    /// Panics if the configured sampling interval is not strictly positive.
    pub fn step(&mut self, capacitor: &mut Capacitor, tick: u64, dt: Seconds) {
        let k = TickConstants::new(&self.config, dt);
        self.step_with(&mut capacitor.cell(), tick, dt, k);
    }

    /// Swaps in another backup unit — the fork of a run into a sibling
    /// that differs only in `FsmConfig::backup` (see [`crate::batch`]).
    /// Sound only before the run first reads its unit: the thresholds and
    /// every other derived value are independent of the unit, so the node
    /// is then exactly the sibling's own.
    pub(crate) fn set_backup(&mut self, unit: BackupUnit) {
        debug_assert!(!self.stats.reads_backup_unit(), "the run already read its backup unit");
        self.config.backup = unit;
    }

    /// Whether the next tick, from the stored `energy` before it, could be
    /// the run's first read of its backup unit — a necessary condition,
    /// cheap enough to ask before every full tick.
    ///
    /// Before the first read the node has never backed up, so it needs no
    /// restore, and the read can only be the backup drain: a node that is
    /// not Off finds the energy below `Th_Bk` after the tick's harvest and
    /// leak.  Harvest never lowers the energy and the leak drains at most
    /// `k.leak_step`, so the energy before the tick is then below
    /// `Th_Bk + leak_step`.
    pub(crate) fn may_back_up(&self, energy: EnergyFx, k: TickConstants) -> bool {
        self.state != NodeState::Off && energy < self.th.backup + k.leak_step
    }

    /// How far `energy` can drift down and up, `(down, up)`, before *any*
    /// control-flow decision of [`Self::step_with`] could change, or `None`
    /// if the node is in a state that must be stepped in full every tick.
    /// A side with no threshold has `i128::MAX` room.
    ///
    /// Only Sleep and Off qualify: there, as long as the stored energy stays
    /// strictly within the returned room of its current value (and the
    /// timer interrupt does not fire — the caller bounds that separately via
    /// [`TimerInterrupt::next_fire`]), a step is provably a pure
    /// time-accounting + leakage + harvest tick: every threshold comparison
    /// keeps its current verdict, no state transition, flag flip, RNG draw
    /// or statistics event can occur.  The rooms mirror the comparisons
    /// of `step_with`/`step_sleep`/`step_off` one for one:
    ///
    /// * Sleep — stay on the current side of `Th_SafeZone` (dip bookkeeping),
    ///   at or above `Th_Off` (death) and `Th_Bk` (forced backup, unless
    ///   already backed up), and at or below the operation threshold armed by
    ///   `Reg_Flag` (operations start on a strict `>`).
    /// * Off — stay below `Th_Sense` (recovery) and, while in a dip, below
    ///   `Th_SafeZone` (dip exit is counted in every state).
    ///
    /// Each threshold bounds one side only: a comparison that flips when the
    /// energy falls below its threshold cannot flip on a rise.  A
    /// non-positive room means a comparison is exactly at its boundary and
    /// the next tick must run in full; the caller treats it as a zero
    /// horizon.  Rooms are exact attojoule counts against the same
    /// fixed-point thresholds the step comparisons use, so a caller that
    /// bounds the per-tick movement in attojoules gets a *proof*, not an
    /// estimate: movement strictly below the room cannot flip a strict
    /// comparison, and movement of at most `room − 1` cannot flip a
    /// non-strict one either.
    pub(crate) fn quiescent_room(&self, energy: EnergyFx) -> Option<(i128, i128)> {
        let th = &self.th;
        let e = energy.attojoules();
        let (mut down, mut up) = (i128::MAX, i128::MAX);
        let above = |t: EnergyFx| t.attojoules() - e;
        let below = |t: EnergyFx| e - t.attojoules();
        match self.state {
            NodeState::Sleep => {
                if self.flags.in_safe_zone_dip {
                    up = above(th.safe_zone);
                } else {
                    down = below(th.safe_zone);
                }
                down = down.min(below(th.off));
                if !self.flags.backed_up {
                    down = down.min(below(th.backup));
                }
                match self.reg_flag {
                    RegFlag::SENSE => up = up.min(above(th.sense)),
                    RegFlag::COMPUTE => up = up.min(above(th.compute)),
                    RegFlag::TRANSMIT => up = up.min(above(th.transmit)),
                    _ => {}
                }
            }
            NodeState::Off => {
                if self.flags.in_safe_zone_dip {
                    up = above(th.safe_zone);
                }
                up = up.min(above(th.sense));
            }
            _ => return None,
        }
        Some((down, up))
    }

    /// The whole Algorithm-1 step transition: advances the node by tick
    /// `tick` of width `dt`, drawing from and observing `cap` — time
    /// accounting, sleep leakage, interrupts and the state's own work.  `k`
    /// holds the leak step and timer period of `dt`, which both executors
    /// derive once per run instead of once per tick.
    #[inline]
    pub(crate) fn step_with(
        &mut self,
        cap: &mut EnergyCell<'_>,
        tick: u64,
        dt: Seconds,
        k: TickConstants,
    ) {
        self.stats.record_tick(self.state);

        // Leakage is drawn in every state except Off.
        if self.state != NodeState::Off {
            cap.drain_fx(k.leak_step);
        }

        // Timer interrupt: re-arm the sensing request when idle.
        if self.timer.poll(tick, k.timer_period)
            && self.reg_flag.is_idle()
            && self.state == NodeState::Sleep
        {
            self.reg_flag = RegFlag::SENSE;
        }

        // All threshold comparisons are native fixed-point integer compares:
        // converting the stored energy to f64 first could round onto a
        // threshold (one f64 ulp at 25 mJ spans ~3.5 attojoules) and flip a
        // verdict the exact representation would not.
        let energy = cap.energy();
        let th = &self.th;

        // Safe-zone bookkeeping (entries and recoveries are counted on the
        // threshold crossings, whatever state the node is in).
        if !self.flags.in_safe_zone_dip && energy < th.safe_zone && self.state != NodeState::Off {
            self.flags.in_safe_zone_dip = true;
            self.flags.backup_during_dip = false;
            self.stats.safe_zone_entries += 1;
        } else if self.flags.in_safe_zone_dip && energy >= th.safe_zone {
            self.flags.in_safe_zone_dip = false;
            if !self.flags.backup_during_dip {
                self.stats.safe_zone_recoveries += 1;
            }
        }

        // Power interrupt: below Th_Bk a backup is mandatory; below Th_Off the
        // node dies.
        if self.state != NodeState::Off {
            if energy < th.off {
                self.enter_off();
                return;
            }
            if energy < th.backup && !self.flags.backed_up && self.state != NodeState::Backup {
                self.state = NodeState::Backup;
            }
        }

        match self.state {
            NodeState::Off => self.step_off(cap),
            NodeState::Backup => self.step_backup(cap),
            NodeState::Sleep => self.step_sleep(cap),
            NodeState::Sense => self.step_operation(cap, dt, NodeState::Sense),
            NodeState::Compute => self.step_operation(cap, dt, NodeState::Compute),
            NodeState::Transmit => self.step_operation(cap, dt, NodeState::Transmit),
        }
    }

    fn enter_off(&mut self) {
        // Recovering from a complete outage is not a "free" safe-zone
        // recovery, whatever happens to the stored energy afterwards.
        self.flags.backup_during_dip = true;
        if !self.flags.backed_up && self.in_flight.is_some() {
            // Whatever was in flight is gone; it will be re-executed.
            self.in_flight = None;
            self.stats.reexecutions += 1;
            if !self.reg_flag.is_idle() {
                // The request itself survives only if it was backed up.
                self.reg_flag = RegFlag::SENSE;
            }
        }
        self.flags.needs_restore = self.flags.backed_up;
        self.state = NodeState::Off;
        self.stats.off_events += 1;
    }

    fn step_off(&mut self, cap: &mut EnergyCell<'_>) {
        // Recover once there is enough energy to do useful work again.
        if cap.energy() >= self.th.sense {
            if self.flags.needs_restore {
                // One of the two reads of the backup unit, each counted:
                // `RunStats::reads_backup_unit` relies on there being no
                // uncounted read.
                cap.drain(self.config.backup.restore_energy());
                self.stats.restores += 1;
                self.flags.needs_restore = false;
            }
            self.flags.backed_up = false;
            self.state = NodeState::Sleep;
        }
    }

    fn step_backup(&mut self, cap: &mut EnergyCell<'_>) {
        // The other read of the backup unit; it counts a backup.
        cap.drain(self.config.backup.backup_energy());
        self.stats.backups += 1;
        self.flags.backed_up = true;
        self.flags.backup_during_dip = true;
        self.state = NodeState::Sleep;
    }

    fn step_sleep(&mut self, cap: &mut EnergyCell<'_>) {
        let energy = cap.energy();
        let th = &self.th;
        let next = match self.reg_flag {
            RegFlag::SENSE if energy > th.sense => Some(NodeState::Sense),
            RegFlag::COMPUTE if energy > th.compute => Some(NodeState::Compute),
            RegFlag::TRANSMIT if energy > th.transmit => Some(NodeState::Transmit),
            _ => None,
        };
        if let Some(state) = next {
            if self.in_flight.is_none() {
                self.in_flight = Some(self.new_operation(state));
            }
            self.state = state;
        }
    }

    fn new_operation(&mut self, state: NodeState) -> InFlight {
        let (mean_energy, duration) = match state {
            NodeState::Sense => (self.config.sense_energy, self.config.sense_duration),
            NodeState::Compute => (self.config.compute_energy, self.config.compute_duration),
            NodeState::Transmit => (self.config.transmit_energy, self.config.transmit_duration),
            _ => (Energy::ZERO, Seconds::ZERO),
        };
        let u = self.config.uncertainty;
        let jitter = if u > 0.0 { 1.0 + self.rng.gen_range(-u..u) } else { 1.0 };
        let energy = mean_energy * jitter;
        InFlight {
            remaining_energy: energy,
            remaining_time: duration,
            total_energy: energy,
            total_time: duration,
        }
    }

    fn step_operation(&mut self, cap: &mut EnergyCell<'_>, dt: Seconds, state: NodeState) {
        // The dashed blue arrows of Fig. 3a: keep going while the energy stays
        // above the safe zone; otherwise retreat to Sleep (the volatile
        // registers keep the progress).
        if state != NodeState::Sense && cap.energy() <= self.th.safe_zone {
            self.state = NodeState::Sleep;
            return;
        }

        let Some(mut op) = self.in_flight else {
            self.state = NodeState::Sleep;
            return;
        };
        // Consume energy proportionally to the time simulated this step.
        let fraction = if op.total_time.is_non_positive() {
            1.0
        } else {
            (dt.as_seconds() / op.total_time.as_seconds()).min(1.0)
        };
        let slice = (op.total_energy * fraction).min(op.remaining_energy);
        cap.drain(slice);
        op.remaining_energy -= slice;
        op.remaining_time -= dt;
        // Progress has diverged from whatever was last backed up.
        self.flags.backed_up = false;

        if op.remaining_time.is_non_positive() || op.remaining_energy.is_non_positive() {
            self.in_flight = None;
            match state {
                NodeState::Sense => {
                    self.stats.samples_sensed += 1;
                    self.reg_flag = RegFlag::COMPUTE;
                }
                NodeState::Compute => {
                    self.stats.computations_completed += 1;
                    let transmit = self.rng.gen::<f64>() < self.config.transmit_probability;
                    self.reg_flag = if transmit { RegFlag::TRANSMIT } else { RegFlag::IDLE };
                }
                NodeState::Transmit => {
                    self.stats.transmissions_completed += 1;
                    self.reg_flag = RegFlag::IDLE;
                }
                _ => {}
            }
            self.state = NodeState::Sleep;
        } else {
            self.in_flight = Some(op);
        }
    }
}

impl RunStats {
    /// Whether the run read its backup unit — whether any other
    /// [`BackupUnit`] could have changed it.
    ///
    /// `FsmConfig::backup` enters a run in exactly two places, both above:
    /// the backup drain of `NodeFsm::step_backup`, which counts a backup,
    /// and the restore drain of `NodeFsm::step_off`, which counts a
    /// restore.  Neither executor reads the unit anywhere else: the
    /// quiescence proofs, the tick loop and the statistics never see it.  A
    /// run with no backup and no restore therefore performed the same
    /// computation, bit for bit, under *any* unit, and its statistics stand
    /// for every configuration that differs from its own only in `backup`.
    /// Campaigns use this to run the technology × sizing siblings of a
    /// stochastic point once.
    #[must_use]
    pub fn reads_backup_unit(&self) -> bool {
        self.backups > 0 || self.restores > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_cap() -> Capacitor {
        Capacitor::paper_default().with_energy(Energy::from_millijoules(25.0))
    }

    fn run_steps(fsm: &mut NodeFsm, cap: &mut Capacitor, steps: u64, dt: f64) {
        for tick in 0..steps {
            fsm.step(cap, tick, Seconds::new(dt));
        }
    }

    #[test]
    fn starts_asleep_and_idle() {
        let fsm = NodeFsm::new(FsmConfig::paper_default());
        assert_eq!(fsm.state(), NodeState::Sleep);
        assert_eq!(fsm.reg_flag(), RegFlag::IDLE);
    }

    #[test]
    fn with_plenty_of_energy_the_pipeline_completes() {
        let mut config = FsmConfig::paper_default();
        config.sampling_interval = Seconds::new(5.0);
        let mut fsm = NodeFsm::new(config);
        let mut cap = full_cap();
        // Keep the capacitor topped up to isolate the FSM logic.
        for tick in 0..4000 {
            cap.harvest(Power::from_milliwatts(10.0), Seconds::new(0.1));
            fsm.step(&mut cap, tick, Seconds::new(0.1));
        }
        let stats = fsm.stats();
        assert!(stats.samples_sensed >= 2, "{stats}");
        assert!(stats.computations_completed >= 2, "{stats}");
        assert!(stats.transmissions_completed >= 1, "{stats}");
        assert_eq!(stats.off_events, 0);
    }

    #[test]
    fn sense_sets_the_compute_flag() {
        let mut config = FsmConfig::paper_default();
        config.sampling_interval = Seconds::new(1.0);
        let mut fsm = NodeFsm::new(config);
        let mut cap = full_cap();
        run_steps(&mut fsm, &mut cap, 100, 0.1);
        assert!(fsm.stats().samples_sensed >= 1);
        assert!(
            fsm.stats().computations_completed >= 1
                || fsm.reg_flag() == RegFlag::COMPUTE
                || fsm.state() == NodeState::Compute
        );
    }

    #[test]
    fn starvation_triggers_backup_then_off() {
        let mut fsm = NodeFsm::new(FsmConfig::paper_default());
        // Start with just a little energy and no harvest: leakage plus one
        // sense attempt will push it below Th_Bk and then Th_Off.
        let mut cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(3.5));
        run_steps(&mut fsm, &mut cap, 200_000, 1.0);
        assert!(fsm.stats().backups >= 1, "{}", fsm.stats());
        assert!(fsm.stats().off_events >= 1, "{}", fsm.stats());
        assert_eq!(fsm.state(), NodeState::Off);
    }

    #[test]
    fn recovery_after_off_restores_from_nvm() {
        let mut fsm = NodeFsm::new(FsmConfig::paper_default());
        let mut cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(3.5));
        // Drain to off...
        run_steps(&mut fsm, &mut cap, 200_000, 1.0);
        assert_eq!(fsm.state(), NodeState::Off);
        let backups = fsm.stats().backups;
        assert!(backups >= 1);
        // ...then recharge generously, continuing the same tick sequence.
        for tick in 200_000..202_000 {
            cap.harvest(Power::from_milliwatts(5.0), Seconds::new(1.0));
            fsm.step(&mut cap, tick, Seconds::new(1.0));
        }
        assert!(fsm.stats().restores >= 1, "{}", fsm.stats());
        assert_ne!(fsm.state(), NodeState::Off);
    }

    #[test]
    fn safe_zone_dips_recover_without_backup_when_energy_returns() {
        let mut config = FsmConfig::paper_default();
        config.sampling_interval = Seconds::new(1.0);
        // A heavier sleep load makes the dips happen within a short run.
        config.sleep_leakage = Power::from_milliwatts(1.0);
        let mut fsm = NodeFsm::new(config);
        // Start in the middle of the active range.
        let mut cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(13.0));
        // Alternate: no harvest until the node dips into the safe zone, then
        // a strong burst to pull it back out, several times.
        let mut tick = 0;
        for _ in 0..6 {
            for _ in 0..3000 {
                fsm.step(&mut cap, tick, Seconds::new(0.1));
                tick += 1;
                if cap.energy() < Energy::from_millijoules(5.0) {
                    break;
                }
            }
            for _ in 0..600 {
                cap.harvest(Power::from_milliwatts(2.0), Seconds::new(0.1));
                fsm.step(&mut cap, tick, Seconds::new(0.1));
                tick += 1;
            }
        }
        let stats = fsm.stats();
        assert!(stats.safe_zone_entries >= 1, "{stats}");
        assert!(stats.safe_zone_recoveries >= 1, "{stats}");
    }

    #[test]
    fn disabling_the_safe_zone_goes_straight_to_backup() {
        let config = FsmConfig::paper_default().without_safe_zone();
        assert!(!config.use_safe_zone);
        assert_eq!(config.thresholds.safe_zone, config.thresholds.backup);
        let mut fsm = NodeFsm::new(config);
        let mut cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(10.0));
        run_steps(&mut fsm, &mut cap, 300_000, 1.0);
        // Every dip ends in a backup: no recoveries can be counted before one.
        assert!(fsm.stats().backups >= 1, "{}", fsm.stats());
        assert_eq!(fsm.stats().safe_zone_recoveries, 0, "{}", fsm.stats());
    }

    #[test]
    fn operations_pause_when_entering_the_safe_zone_and_resume_later() {
        let mut config = FsmConfig::paper_default();
        config.sampling_interval = Seconds::new(1.0);
        config.compute_energy = Energy::from_millijoules(8.0);
        config.compute_duration = Seconds::new(10.0);
        let mut fsm = NodeFsm::new(config);
        let mut cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(14.5));
        // Without harvest the long computation cannot finish in one go.
        run_steps(&mut fsm, &mut cap, 2_000, 0.1);
        let computed_before = fsm.stats().computations_completed;
        // Recharge and let it finish.
        for tick in 2_000..5_000 {
            cap.harvest(Power::from_milliwatts(1.0), Seconds::new(0.1));
            fsm.step(&mut cap, tick, Seconds::new(0.1));
        }
        assert!(fsm.stats().computations_completed >= computed_before);
        assert!(fsm.stats().computations_completed >= 1, "{}", fsm.stats());
    }

    #[test]
    fn builders_rewire_thresholds_backup_and_seed() {
        let collapsed = Thresholds::paper_default().with_safe_zone_margin(Energy::ZERO);
        let config = FsmConfig::paper_default()
            .with_thresholds(collapsed)
            .with_backup(crate::backup::BackupUnit::from_state_bits(
                256,
                tech45::nvm::NvmTechnology::Pcm,
            ))
            .with_seed(77);
        assert!(!config.use_safe_zone, "collapsed margin must disable the safe zone");
        assert_eq!(config.backup.bits(), 256);
        assert_eq!(config.seed, 77);
        let margined = FsmConfig::paper_default()
            .without_safe_zone()
            .with_thresholds(Thresholds::paper_default());
        assert!(margined.use_safe_zone, "positive margin must re-enable the safe zone");
    }

    #[test]
    fn the_seed_steers_the_operation_jitter() {
        use crate::executor::IntermittentExecutor;
        use ehsim::schedule::Schedule;
        let run = |seed: u64| {
            let mut exec = IntermittentExecutor::new(
                FsmConfig::paper_default().with_seed(seed),
                Schedule::scarce(),
            );
            exec.run(Seconds::new(4000.0), Seconds::new(0.1))
        };
        assert_eq!(run(5), run(5));
        // Under a scarce schedule the jittered per-operation energies shift
        // the whole trajectory, so different seeds must diverge.
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn paper_config_uses_the_paper_energies() {
        let c = FsmConfig::paper_default();
        assert!((c.sense_energy.as_millijoules() - 2.0).abs() < 1e-12);
        assert!((c.compute_energy.as_millijoules() - 4.0).abs() < 1e-12);
        assert!((c.transmit_energy.as_millijoules() - 9.0).abs() < 1e-12);
        assert!((c.uncertainty - 0.10).abs() < 1e-12);
        assert!(c.use_safe_zone);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The power interrupt fires exactly under Algorithm 1's ordering:
        /// after the tick's leakage, a powered node at stored energy `e`
        /// dies iff `e < Th_Off`, and otherwise backs up only if
        /// `e < Th_Bk`.  Each schedule opens with a harvest-free stretch
        /// long enough to drain a full capacitor, so every case reaches
        /// both interrupts.
        #[test]
        fn power_interrupts_fire_only_below_their_thresholds(
            initial_mj in 0.0_f64..25.0,
            seed in 0_u64..1_000,
            use_safe_zone in 0_u8..2,
            recharges in proptest::collection::vec((0.0_f64..4.0, 1_u64..600), 1..8),
        ) {
            let mut config = FsmConfig::paper_default().with_seed(seed);
            if use_safe_zone == 0 {
                config = config.without_safe_zone();
            }
            config.sampling_interval = Seconds::new(1.0);
            config.sleep_leakage = Power::from_milliwatts(1.0);
            let dt = Seconds::new(0.1);
            let leak_step = TickConstants::new(&config, dt).leak_step;
            let th = config.thresholds.fx();
            let mut fsm = NodeFsm::new(config);
            let mut cap =
                Capacitor::paper_default().with_energy(Energy::from_millijoules(initial_mj));
            let mut tick = 0;
            for (mw, dwell) in recharges {
                for (mw, dwell) in [(0.0, 300), (mw, dwell)] {
                    for _ in 0..dwell {
                        cap.harvest(Power::from_milliwatts(mw), dt);
                        let powered = fsm.state() != NodeState::Off;
                        let mut checked = cap;
                        if powered {
                            checked.cell().drain_fx(leak_step);
                        }
                        let energy = checked.energy_fx();
                        let (offs, backups) = (fsm.stats().off_events, fsm.stats().backups);
                        fsm.step(&mut cap, tick, dt);
                        tick += 1;
                        let died = fsm.stats().off_events > offs;
                        let backed_up = fsm.stats().backups > backups;
                        proptest::prop_assert_eq!(
                            died,
                            powered && energy < th.off,
                            "tick {}",
                            tick
                        );
                        proptest::prop_assert!(
                            !backed_up || (th.off <= energy && energy < th.backup),
                            "backup at tick {} with {} stored",
                            tick,
                            energy
                        );
                    }
                }
            }
            proptest::prop_assert!(fsm.stats().off_events >= 1, "{}", fsm.stats());
            proptest::prop_assert!(fsm.stats().backups >= 1, "{}", fsm.stats());
        }
    }
}
