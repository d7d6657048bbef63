//! Technology- and system-level constants shared by the DIAC reproduction.
//!
//! The circuit-level constants are surrogate values for the NCSU 45 nm PDK
//! used by the paper; the system-level constants are the ones stated verbatim
//! in Section IV.A of the paper (2 mF storage capacitor at 5 V, 25 mJ maximum
//! stored energy, 2/4/9 mJ sense/compute/transmit operations with ±10 %
//! uncertainty, safe zone 2 mJ above the backup threshold).

use crate::units::{Capacitance, Energy, Voltage};

/// System (harvester / storage capacitor) operating voltage from the paper.
pub const VDD_SYSTEM: Voltage = Voltage::new(5.0);

/// Storage capacitance of the sensor node from the paper (2 mF).
pub const STORAGE_CAPACITANCE: Capacitance = Capacitance::new(2.0e-3);

/// Maximum energy the node can store: `½ · 2 mF · (5 V)² = 25 mJ`.
pub const E_MAX: Energy = Energy::new(25.0e-3);

/// Energy consumed by one sense operation (paper: 2 mJ ± 10 %).
pub const E_SENSE: Energy = Energy::new(2.0e-3);

/// Energy consumed by one compute operation (paper: 4 mJ ± 10 %).
pub const E_COMPUTE: Energy = Energy::new(4.0e-3);

/// Energy consumed by one transmit operation (paper: 9 mJ ± 10 %).
pub const E_TRANSMIT: Energy = Energy::new(9.0e-3);

/// Relative uncertainty applied to the operation energies (paper: ±10 %).
pub const OPERATION_UNCERTAINTY: f64 = 0.10;

/// Width of the safe zone above the backup threshold (paper: 2 mJ).
pub const SAFE_ZONE_MARGIN: Energy = Energy::new(2.0e-3);

/// Default sleep-state leakage drawn by the node while idle.
///
/// The paper only states that "a minimal leakage current persists" in sleep;
/// 20 µW over tens of seconds drains a few millijoules, which reproduces the
/// behaviour annotated as scenario 6 in Fig. 4.
pub const SLEEP_LEAKAGE_W: f64 = 20.0e-6;

/// Gate-level switching activity of every design-time estimate (fraction of
/// gates toggling per evaluation; see [`crate::energy_model::estimate`]).
pub const DEFAULT_ACTIVITY: f64 = 0.2;

/// Number of physical bits stored per logical state bit once ECC/control
/// overhead of the backup array is accounted for.
pub const BACKUP_BIT_OVERHEAD: f64 = 1.125;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::capacitor_energy;

    #[test]
    fn e_max_is_consistent_with_capacitor() {
        let derived = capacitor_energy(STORAGE_CAPACITANCE, VDD_SYSTEM);
        assert!((derived.as_millijoules() - E_MAX.as_millijoules()).abs() < 1e-9);
    }

    #[test]
    fn operation_energies_match_paper() {
        assert!((E_SENSE.as_millijoules() - 2.0).abs() < 1e-12);
        assert!((E_COMPUTE.as_millijoules() - 4.0).abs() < 1e-12);
        assert!((E_TRANSMIT.as_millijoules() - 9.0).abs() < 1e-12);
        assert!((SAFE_ZONE_MARGIN.as_millijoules() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_of_operation_costs() {
        assert!(E_SENSE < E_COMPUTE);
        assert!(E_COMPUTE < E_TRANSMIT);
        assert!(E_TRANSMIT < E_MAX);
    }
}
