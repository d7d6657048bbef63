//! The power-delay-product (PDP) model and the intermittency profile.
//!
//! The paper evaluates every scheme by the PDP of running a benchmark task on
//! the intermittent node.  Because of the paper's assumption (1) — "there is
//! never enough energy in the system to complete a process" — a task always
//! spans several charge/discharge cycles of the storage capacitor, and the
//! PDP therefore contains four ingredients:
//!
//! * the computation itself (energy and time, including the run-time overhead
//!   of the scheme's state elements),
//! * the NVM backups triggered at the end of discharge cycles,
//! * the restores and re-execution after complete power losses,
//! * the dead time spent recharging between bursts.
//!
//! [`IntermittencyProfile`] captures how harsh the ambient source is (how
//! much usable energy per cycle, how often the safe zone saves a backup, how
//! often power is lost completely); it is either measured by the `isim`
//! runtime simulator or taken from the analytic RFID preset
//! ([`IntermittencyProfile::typical_rfid`]).

use std::fmt;

use tech45::units::{Energy, Power, Seconds};

/// How intermittent the ambient supply is, as seen by one task execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntermittencyProfile {
    /// Usable energy per charge/discharge cycle (between the operating
    /// threshold and the backup threshold).
    pub usable_energy_per_cycle: Energy,
    /// Average harvested power while recharging.
    pub average_harvest_power: Power,
    /// Fraction of end-of-discharge emergencies that recover inside the safe
    /// zone, i.e. without paying an NVM backup (only schemes that implement
    /// the safe zone benefit from this).
    pub safe_zone_recovery_fraction: f64,
    /// Fraction of taken backups that are followed by a complete power loss
    /// (the node falls below `Th_Off` and must later restore from NVM).
    pub power_loss_fraction: f64,
}

impl IntermittencyProfile {
    /// A typical RFID-powered deployment: roughly 10 mJ usable per cycle,
    /// 50 µW average harvest, 40 % of emergencies recover in the safe zone,
    /// and half of the backups end in a full power loss.
    #[must_use]
    pub fn typical_rfid() -> Self {
        Self {
            usable_energy_per_cycle: Energy::from_millijoules(10.0),
            average_harvest_power: Power::from_microwatts(50.0),
            safe_zone_recovery_fraction: 0.40,
            power_loss_fraction: 0.50,
        }
    }

    /// Builds a profile from counted events of a runtime simulation: the
    /// number of emergencies observed, how many of them recovered in the safe
    /// zone, how many backups were followed by a complete power loss, the
    /// energy harvested over the run, and the active/recharging time split.
    #[must_use]
    pub fn from_counts(
        emergencies: u64,
        safe_zone_recoveries: u64,
        power_losses: u64,
        energy_consumed: Energy,
        harvested_power: Power,
    ) -> Self {
        let emergencies_f = emergencies.max(1) as f64;
        let backups = emergencies.saturating_sub(safe_zone_recoveries).max(1) as f64;
        Self {
            usable_energy_per_cycle: energy_consumed / emergencies_f,
            average_harvest_power: harvested_power,
            safe_zone_recovery_fraction: (safe_zone_recoveries as f64 / emergencies_f)
                .clamp(0.0, 1.0),
            power_loss_fraction: (power_losses as f64 / backups).clamp(0.0, 1.0),
        }
    }

    /// Checks that every field is in its valid range.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.usable_energy_per_cycle.value() > 0.0
            && self.average_harvest_power.value() > 0.0
            && (0.0..=1.0).contains(&self.safe_zone_recovery_fraction)
            && (0.0..=1.0).contains(&self.power_loss_fraction)
    }

    /// Time needed to harvest one cycle's worth of usable energy.
    #[must_use]
    pub fn recharge_time_per_cycle(&self) -> Seconds {
        self.usable_energy_per_cycle / self.average_harvest_power
    }
}

impl Default for IntermittencyProfile {
    fn default() -> Self {
        Self::typical_rfid()
    }
}

impl fmt::Display for IntermittencyProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} mJ/cycle, {:.0} µW harvest, {:.0} % safe-zone recovery, {:.0} % power loss",
            self.usable_energy_per_cycle.as_millijoules(),
            self.average_harvest_power.as_microwatts(),
            self.safe_zone_recovery_fraction * 100.0,
            self.power_loss_fraction * 100.0
        )
    }
}

/// Energy / delay breakdown of one task execution under one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PdpBreakdown {
    /// Energy spent computing (including state-element run-time overhead).
    pub compute_energy: Energy,
    /// Energy spent on NVM backups.
    pub checkpoint_energy: Energy,
    /// Energy spent restoring state after power losses.
    pub restore_energy: Energy,
    /// Energy spent redoing work lost to power failures.
    pub reexecution_energy: Energy,
    /// Time spent computing.
    pub compute_delay: Seconds,
    /// Time spent writing backups.
    pub checkpoint_delay: Seconds,
    /// Time spent restoring state.
    pub restore_delay: Seconds,
    /// Time spent redoing lost work.
    pub reexecution_delay: Seconds,
    /// Dead time spent recharging the capacitor between bursts.
    pub recharge_delay: Seconds,
    /// Total NVM bits written over the task.
    pub nvm_bits_written: u64,
    /// Expected number of charge/discharge cycles.
    pub cycles: f64,
    /// Expected number of NVM backups taken.
    pub backups: f64,
    /// Expected number of complete power losses (restores).
    pub restores: f64,
}

impl PdpBreakdown {
    /// Total energy of the task.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.compute_energy + self.checkpoint_energy + self.restore_energy + self.reexecution_energy
    }

    /// Total wall-clock time of the task, including recharging.
    #[must_use]
    pub fn total_delay(&self) -> Seconds {
        self.compute_delay
            + self.checkpoint_delay
            + self.restore_delay
            + self.reexecution_delay
            + self.recharge_delay
    }

    /// The power-delay product of the task (joule-seconds).
    #[must_use]
    pub fn pdp(&self) -> f64 {
        self.total_energy().as_joules() * self.total_delay().as_seconds()
    }

    /// This breakdown's PDP normalised against a reference breakdown
    /// (typically the NV-based baseline, as in Fig. 5 of the paper).
    #[must_use]
    pub fn normalized_pdp(&self, reference: &Self) -> f64 {
        let r = reference.pdp();
        if r == 0.0 {
            return 0.0;
        }
        self.pdp() / r
    }
}

impl fmt::Display for PdpBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "E = {:.2} mJ (compute {:.2}, ckpt {:.2}, restore {:.2}, re-exec {:.2}), T = {:.2} s, PDP = {:.3e} J·s",
            self.total_energy().as_millijoules(),
            self.compute_energy.as_millijoules(),
            self.checkpoint_energy.as_millijoules(),
            self.restore_energy.as_millijoules(),
            self.reexecution_energy.as_millijoules(),
            self.total_delay().as_seconds(),
            self.pdp()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown(compute_mj: f64, ckpt_mj: f64, seconds: f64) -> PdpBreakdown {
        PdpBreakdown {
            compute_energy: Energy::from_millijoules(compute_mj),
            checkpoint_energy: Energy::from_millijoules(ckpt_mj),
            compute_delay: Seconds::new(seconds),
            ..PdpBreakdown::default()
        }
    }

    #[test]
    fn presets_are_valid() {
        for profile in [IntermittencyProfile::typical_rfid(), IntermittencyProfile::default()] {
            assert!(profile.is_valid(), "{profile}");
            assert!(profile.recharge_time_per_cycle().value() > 0.0);
        }
    }

    #[test]
    fn profile_from_counts_matches_the_ratios() {
        let p = IntermittencyProfile::from_counts(
            10,
            4,
            3,
            Energy::from_millijoules(100.0),
            Power::from_microwatts(80.0),
        );
        assert!(p.is_valid());
        assert!((p.safe_zone_recovery_fraction - 0.4).abs() < 1e-12);
        assert!((p.power_loss_fraction - 0.5).abs() < 1e-12);
        assert!((p.usable_energy_per_cycle.as_millijoules() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn profile_from_counts_handles_zero_emergencies() {
        let p = IntermittencyProfile::from_counts(
            0,
            0,
            0,
            Energy::from_millijoules(5.0),
            Power::from_microwatts(10.0),
        );
        assert!(p.is_valid());
        assert_eq!(p.safe_zone_recovery_fraction, 0.0);
    }

    #[test]
    fn pdp_is_energy_times_delay() {
        let b = breakdown(10.0, 2.0, 3.0);
        assert!((b.total_energy().as_millijoules() - 12.0).abs() < 1e-9);
        assert!((b.total_delay().as_seconds() - 3.0).abs() < 1e-12);
        assert!((b.pdp() - 0.012 * 3.0).abs() < 1e-9);
    }

    #[test]
    fn normalisation_and_improvement_are_consistent() {
        let better = breakdown(10.0, 1.0, 2.0);
        let worse = breakdown(15.0, 3.0, 3.0);
        let norm = better.normalized_pdp(&worse);
        assert!(norm < 1.0);
        assert!((norm - better.pdp() / worse.pdp()).abs() < 1e-12);
        // The improvement, `1 - normalized`, of something over itself is zero.
        assert!((1.0 - better.normalized_pdp(&better)).abs() < 1e-12);
    }

    #[test]
    fn zero_reference_is_handled() {
        let b = breakdown(10.0, 0.0, 1.0);
        let zero = PdpBreakdown::default();
        assert_eq!(b.normalized_pdp(&zero), 0.0);
    }

    #[test]
    fn display_reports_millijoules_and_pdp() {
        let text = breakdown(10.0, 2.0, 3.0).to_string();
        assert!(text.contains("PDP"));
        assert!(text.contains("mJ"));
    }
}
