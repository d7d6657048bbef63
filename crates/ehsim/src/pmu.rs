//! Power-management thresholds.
//!
//! Algorithm 1 of the paper gates every state of the node FSM behind an
//! energy threshold (`Th_Se`, `Th_Cp`, `Th_Tr`), adds a *safe zone* just above
//! the backup threshold (`Th_SafeZone = Th_Bk + 2 mJ`) in which the node can
//! wait for the source to recover instead of paying an NVM backup, and
//! finally defines the backup (`Th_Bk`) and shutdown (`Th_Off`) thresholds
//! that raise the power interrupt.  The comparisons themselves live in the
//! simulation FSM (`isim::fsm`), which checks the stored energy against the
//! fixed-point [`ThresholdsFx`] on every tick.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thresholds_are_consistent() {
        let t = Thresholds::paper_default();
        assert!(t.is_consistent(), "{t}");
        assert!((t.safe_zone.as_millijoules() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn disabling_the_safe_zone_collapses_it_onto_backup() {
        let t = Thresholds::paper_default().with_safe_zone_margin(Energy::ZERO);
        assert!(t.is_consistent());
        assert_eq!(t.safe_zone, t.backup);
    }

    #[test]
    fn display_lists_all_thresholds() {
        let text = Thresholds::paper_default().to_string();
        for key in ["Th_Se", "Th_Cp", "Th_Tr", "Th_Safe", "Th_Bk", "Th_Off"] {
            assert!(text.contains(key), "{text}");
        }
    }
}
