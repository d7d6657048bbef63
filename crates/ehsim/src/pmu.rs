//! Power-management unit: thresholds, operating zones, and power interrupts.
//!
//! Algorithm 1 of the paper gates every state of the node FSM behind an
//! energy threshold (`Th_Se`, `Th_Cp`, `Th_Tr`), adds a *safe zone* just above
//! the backup threshold (`Th_SafeZone = Th_Bk + 2 mJ`) in which the node can
//! wait for the source to recover instead of paying an NVM backup, and
//! finally defines the backup (`Th_Bk`) and shutdown (`Th_Off`) thresholds
//! that the power-management unit turns into interrupts.

use std::fmt;

use tech45::constants::{E_COMPUTE, E_MAX, E_SENSE, E_TRANSMIT, SAFE_ZONE_MARGIN};
use tech45::units::{Energy, EnergyFx};

/// The six energy thresholds of the DIAC node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Minimum energy to start a sense operation.
    pub sense: Energy,
    /// Minimum energy to start a compute operation.
    pub compute: Energy,
    /// Minimum energy to start a transmit operation.
    pub transmit: Energy,
    /// Upper edge of the safe zone (`Th_Bk + margin`).
    pub safe_zone: Energy,
    /// Below this a backup must be performed.
    pub backup: Energy,
    /// Below this the system is off.
    pub off: Energy,
}

impl Thresholds {
    /// The thresholds used throughout the paper's validation (Fig. 4):
    /// operations need slightly more than their own energy to start, the
    /// safe zone sits 2 mJ above the backup threshold, and the off threshold
    /// leaves just enough charge to keep the NVM controller alive.
    #[must_use]
    pub fn paper_default() -> Self {
        let backup = Energy::from_millijoules(4.0);
        Self {
            sense: Energy::from_millijoules(8.0).max(E_SENSE),
            compute: Energy::from_millijoules(12.0).max(E_COMPUTE),
            transmit: Energy::from_millijoules(15.0).max(E_TRANSMIT),
            safe_zone: backup + SAFE_ZONE_MARGIN,
            backup,
            off: Energy::from_millijoules(2.0),
        }
    }

    /// Same thresholds but with a custom safe-zone margin above the backup
    /// threshold; a zero margin effectively disables the safe zone (the
    /// plain-DIAC configuration).
    #[must_use]
    pub fn with_safe_zone_margin(mut self, margin: Energy) -> Self {
        self.safe_zone = self.backup + margin.max(Energy::ZERO);
        self
    }

    /// Validates the ordering `off ≤ backup ≤ safe_zone ≤ sense ≤ compute ≤
    /// transmit ≤ E_MAX`.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.off <= self.backup
            && self.backup <= self.safe_zone
            && self.safe_zone <= self.sense
            && self.sense <= self.compute
            && self.compute <= self.transmit
            && self.transmit <= E_MAX
    }

    /// The threshold that gates a given operation.
    #[must_use]
    pub fn for_operation(&self, op: Operation) -> Energy {
        match op {
            Operation::Sense => self.sense,
            Operation::Compute => self.compute,
            Operation::Transmit => self.transmit,
        }
    }

    /// Classifies a stored-energy level into an operating zone.
    #[must_use]
    pub fn zone(&self, energy: Energy) -> OperatingZone {
        if energy < self.off {
            OperatingZone::Off
        } else if energy < self.backup {
            OperatingZone::BackupRequired
        } else if energy < self.safe_zone {
            OperatingZone::SafeZone
        } else if energy >= E_MAX * 0.98 {
            OperatingZone::Peak
        } else {
            OperatingZone::Active
        }
    }

    /// Quantises the six thresholds onto the exact fixed-point energy grid.
    ///
    /// The simulation FSM compares stored energy against thresholds in
    /// [`EnergyFx`] natively — never through an f64 round-trip, whose
    /// rounding (one ulp at 25 mJ is ≈ 3.5 aJ) could flip a comparison for
    /// energies within an ulp of the threshold.
    #[must_use]
    pub fn fx(&self) -> ThresholdsFx {
        ThresholdsFx {
            sense: self.sense.to_fx(),
            compute: self.compute.to_fx(),
            transmit: self.transmit.to_fx(),
            safe_zone: self.safe_zone.to_fx(),
            backup: self.backup.to_fx(),
            off: self.off.to_fx(),
        }
    }
}

/// The six thresholds quantised onto the fixed-point energy grid (see
/// [`Thresholds::fx`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdsFx {
    /// Minimum energy to start a sense operation.
    pub sense: EnergyFx,
    /// Minimum energy to start a compute operation.
    pub compute: EnergyFx,
    /// Minimum energy to start a transmit operation.
    pub transmit: EnergyFx,
    /// Upper edge of the safe zone.
    pub safe_zone: EnergyFx,
    /// Below this a backup must be performed.
    pub backup: EnergyFx,
    /// Below this the system is off.
    pub off: EnergyFx,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Display for Thresholds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Th_Se={:.1} Th_Cp={:.1} Th_Tr={:.1} Th_Safe={:.1} Th_Bk={:.1} Th_Off={:.1} (mJ)",
            self.sense.as_millijoules(),
            self.compute.as_millijoules(),
            self.transmit.as_millijoules(),
            self.safe_zone.as_millijoules(),
            self.backup.as_millijoules(),
            self.off.as_millijoules()
        )
    }
}

/// The three energy-gated operations of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Sample the sensor.
    Sense,
    /// Process the sample.
    Compute,
    /// Transmit the result.
    Transmit,
}

/// Where the stored energy currently sits relative to the thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingZone {
    /// Essentially full: the node can run at peak performance.
    Peak,
    /// Enough energy for normal operation.
    Active,
    /// Between `Th_Bk` and `Th_SafeZone`: wait for recovery, no backup yet.
    SafeZone,
    /// Below `Th_Bk`: the PMU raises a backup interrupt.
    BackupRequired,
    /// Below `Th_Off`: the node powers down completely.
    Off,
}

/// Events raised by the PMU as the stored energy crosses thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerEvent {
    /// Energy dropped into the safe zone.
    EnteredSafeZone,
    /// Energy recovered from the safe zone without needing a backup.
    RecoveredFromSafeZone,
    /// Energy dropped below the backup threshold: back up now.
    BackupInterrupt,
    /// Energy dropped below the off threshold: complete power loss.
    PowerLost,
    /// Energy recovered above the safe zone after a power loss.
    PowerRestored,
}

/// Level-triggered monitor that turns energy readings into [`PowerEvent`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerManagementUnit {
    thresholds: Thresholds,
    previous_zone: OperatingZone,
    was_off: bool,
}

impl PowerManagementUnit {
    /// Creates a PMU with the given thresholds, assuming the node starts in
    /// the `Off` zone (empty capacitor).
    #[must_use]
    pub fn new(thresholds: Thresholds) -> Self {
        Self { thresholds, previous_zone: OperatingZone::Off, was_off: true }
    }

    /// The configured thresholds.
    #[must_use]
    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    /// The zone observed on the previous call to [`Self::observe`].
    #[must_use]
    pub fn zone(&self) -> OperatingZone {
        self.previous_zone
    }

    /// Feeds a new stored-energy reading to the PMU and returns the events
    /// triggered by zone transitions since the previous reading.
    pub fn observe(&mut self, energy: Energy) -> Vec<PowerEvent> {
        let zone = self.thresholds.zone(energy);
        let mut events = Vec::new();
        use OperatingZone as Z;
        match (self.previous_zone, zone) {
            (a, b) if a == b => {}
            (Z::Active | Z::Peak, Z::SafeZone) => events.push(PowerEvent::EnteredSafeZone),
            (Z::SafeZone, Z::Active | Z::Peak) => {
                // If the node had gone completely off, climbing back through
                // the safe zone ends in a full power restoration (state must
                // be fetched from NVM); otherwise it is the cheap safe-zone
                // recovery that needs no NVM access at all.
                if self.was_off {
                    events.push(PowerEvent::PowerRestored);
                } else {
                    events.push(PowerEvent::RecoveredFromSafeZone);
                }
            }
            (Z::Active | Z::Peak | Z::SafeZone, Z::BackupRequired) => {
                events.push(PowerEvent::BackupInterrupt);
            }
            (_, Z::Off) => events.push(PowerEvent::PowerLost),
            (Z::Off, Z::Active | Z::Peak) => events.push(PowerEvent::PowerRestored),
            (Z::BackupRequired, Z::Active | Z::Peak) => {
                events.push(PowerEvent::PowerRestored);
            }
            // Climbing out of Off/BackupRequired into the safe zone is not yet
            // a restoration, and moving between Active and Peak is not an
            // event either: the node keeps doing what it was doing.
            _ => {}
        }
        if zone == OperatingZone::Off {
            self.was_off = true;
        } else if matches!(zone, OperatingZone::Active | OperatingZone::Peak) {
            self.was_off = false;
        }
        self.previous_zone = zone;
        events
    }

    /// Whether the most recent power loss has not yet been followed by a
    /// restoration (i.e. a restore from NVM will be needed when power comes
    /// back).
    #[must_use]
    pub fn needs_restore(&self) -> bool {
        self.was_off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thresholds_are_consistent() {
        let t = Thresholds::paper_default();
        assert!(t.is_consistent(), "{t}");
        assert!((t.safe_zone.as_millijoules() - 6.0).abs() < 1e-9);
        assert_eq!(t.for_operation(Operation::Sense), t.sense);
        assert_eq!(t.for_operation(Operation::Compute), t.compute);
        assert_eq!(t.for_operation(Operation::Transmit), t.transmit);
    }

    #[test]
    fn zone_classification_covers_the_whole_range() {
        let t = Thresholds::paper_default();
        assert_eq!(t.zone(Energy::from_millijoules(0.5)), OperatingZone::Off);
        assert_eq!(t.zone(Energy::from_millijoules(3.0)), OperatingZone::BackupRequired);
        assert_eq!(t.zone(Energy::from_millijoules(5.0)), OperatingZone::SafeZone);
        assert_eq!(t.zone(Energy::from_millijoules(12.0)), OperatingZone::Active);
        assert_eq!(t.zone(Energy::from_millijoules(25.0)), OperatingZone::Peak);
    }

    #[test]
    fn disabling_the_safe_zone_collapses_it_onto_backup() {
        let t = Thresholds::paper_default().with_safe_zone_margin(Energy::ZERO);
        assert!(t.is_consistent());
        assert_eq!(t.safe_zone, t.backup);
        // With no margin the SafeZone zone is unreachable.
        assert_eq!(t.zone(Energy::from_millijoules(4.5)), OperatingZone::Active);
    }

    #[test]
    fn pmu_emits_safe_zone_and_recovery_events() {
        let mut pmu = PowerManagementUnit::new(Thresholds::paper_default());
        assert!(pmu.observe(Energy::from_millijoules(20.0)).contains(&PowerEvent::PowerRestored));
        assert_eq!(pmu.observe(Energy::from_millijoules(15.0)), vec![]);
        assert_eq!(pmu.observe(Energy::from_millijoules(5.0)), vec![PowerEvent::EnteredSafeZone]);
        assert_eq!(
            pmu.observe(Energy::from_millijoules(10.0)),
            vec![PowerEvent::RecoveredFromSafeZone]
        );
        assert!(!pmu.needs_restore());
    }

    #[test]
    fn pmu_raises_backup_then_power_lost() {
        let mut pmu = PowerManagementUnit::new(Thresholds::paper_default());
        pmu.observe(Energy::from_millijoules(20.0));
        assert_eq!(pmu.observe(Energy::from_millijoules(3.5)), vec![PowerEvent::BackupInterrupt]);
        assert_eq!(pmu.observe(Energy::from_millijoules(1.0)), vec![PowerEvent::PowerLost]);
        assert!(pmu.needs_restore());
        // Recovery through the safe zone does not count as restored yet.
        assert_eq!(pmu.observe(Energy::from_millijoules(5.0)), vec![]);
        assert_eq!(pmu.observe(Energy::from_millijoules(20.0)), vec![PowerEvent::PowerRestored]);
        assert!(!pmu.needs_restore());
    }

    #[test]
    fn no_event_when_staying_in_the_same_zone() {
        let mut pmu = PowerManagementUnit::new(Thresholds::paper_default());
        pmu.observe(Energy::from_millijoules(20.0));
        assert!(pmu.observe(Energy::from_millijoules(19.0)).is_empty());
        assert!(pmu.observe(Energy::from_millijoules(18.0)).is_empty());
        assert_eq!(pmu.zone(), OperatingZone::Active);
    }

    #[test]
    fn display_lists_all_thresholds() {
        let text = Thresholds::paper_default().to_string();
        for key in ["Th_Se", "Th_Cp", "Th_Tr", "Th_Safe", "Th_Bk", "Th_Off"] {
            assert!(text.contains(key), "{text}");
        }
    }
}
