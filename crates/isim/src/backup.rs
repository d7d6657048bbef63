//! The backup/restore unit.
//!
//! When the power-management unit raises the power interrupt, "the backup
//! unit stores all the necessary intermediate registers based on the register
//! flag".  This module prices that operation: the number of bits comes either
//! from a DIAC replacement summary (the boundary registers plus control
//! state) or from the architectural state of a baseline design, and the
//! per-access cost comes from the [`tech45`] NVM array model plus a fixed
//! system-level controller overhead.

use diac_core::replacement::ReplacementSummary;
use tech45::array::NvmArray;
use tech45::nvm::NvmTechnology;
use tech45::units::Energy;

/// Fixed energy of waking the backup path (controller, regulator), on top of
/// the per-bit array cost.  See the model constants of [`diac_core::schemes`]
/// for the system-level justification.
const CONTROLLER_ENERGY: Energy = Energy::new(0.4e-3);

/// System-level scaling of the device-level array energies (drivers, voltage
/// conversion from the 5 V storage domain down to the array).
const SYSTEM_OVERHEAD: f64 = 40.0;

/// The node's backup/restore engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackupUnit {
    bits: u64,
    array: NvmArray,
}

impl BackupUnit {
    /// A backup unit storing `bits` bits in a `technology` array.
    #[must_use]
    pub fn from_state_bits(bits: u64, technology: NvmTechnology) -> Self {
        let capacity = bits.max(32).next_power_of_two();
        Self { bits, array: NvmArray::new(technology, capacity, 32) }
    }

    /// A backup unit sized from a DIAC replacement summary: the average
    /// boundary cut plus eight bits of control state (`Reg_Flag`, FSM state).
    #[must_use]
    pub fn from_replacement(summary: &ReplacementSummary, technology: NvmTechnology) -> Self {
        let bits = summary.average_boundary_bits.ceil() as u64 + 8;
        Self::from_state_bits(bits, technology)
    }

    /// Bits moved per backup.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The NVM technology used.
    #[must_use]
    pub fn technology(&self) -> NvmTechnology {
        self.array.technology()
    }

    /// Energy of one backup.
    #[must_use]
    pub fn backup_energy(&self) -> Energy {
        CONTROLLER_ENERGY + self.array.backup_energy(self.bits) * SYSTEM_OVERHEAD
    }

    /// Energy of one restore.
    #[must_use]
    pub fn restore_energy(&self) -> Energy {
        CONTROLLER_ENERGY * 0.5 + self.array.restore_energy(self.bits) * SYSTEM_OVERHEAD
    }
}

impl Default for BackupUnit {
    fn default() -> Self {
        Self::from_state_bits(64, NvmTechnology::Mram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backup_costs_are_millijoule_scale() {
        let unit = BackupUnit::from_state_bits(128, NvmTechnology::Mram);
        let e = unit.backup_energy().as_millijoules();
        assert!(e > 0.1 && e < 5.0, "backup energy {e} mJ should be comparable to Th_Bk");
        assert_eq!(unit.bits(), 128);
        assert_eq!(unit.technology(), NvmTechnology::Mram);
    }

    #[test]
    fn restores_are_cheaper_than_backups() {
        let unit = BackupUnit::default();
        assert!(unit.restore_energy() < unit.backup_energy());
    }

    #[test]
    fn more_bits_cost_more() {
        let small = BackupUnit::from_state_bits(16, NvmTechnology::Mram);
        let big = BackupUnit::from_state_bits(512, NvmTechnology::Mram);
        assert!(big.backup_energy() > small.backup_energy());
    }

    #[test]
    fn reram_backups_cost_more_than_mram() {
        let mram = BackupUnit::from_state_bits(128, NvmTechnology::Mram);
        let reram = BackupUnit::from_state_bits(128, NvmTechnology::Reram);
        assert!(reram.backup_energy() > mram.backup_energy());
    }

    #[test]
    fn replacement_sized_unit_adds_control_bits() {
        use tech45::units::{Energy, Seconds};
        let summary = ReplacementSummary {
            boundaries: 4,
            total_boundary_bits: 48,
            average_boundary_bits: 12.0,
            energy_budget: Energy::from_millijoules(1.0),
            max_unsaved_energy: Energy::from_millijoules(1.0),
            backup_energy: Energy::ZERO,
            backup_latency: Seconds::ZERO,
            restore_energy: Energy::ZERO,
            restore_latency: Seconds::ZERO,
        };
        let unit = BackupUnit::from_replacement(&summary, NvmTechnology::Mram);
        assert_eq!(unit.bits(), 20);
    }
}
