//! Mini-CACTI: an analytical model of NVM backup arrays.
//!
//! The paper feeds circuit-level HSPICE results into an "extensively modified
//! CACTI" to price the distinct memory arrays used for backup.  This module
//! reproduces the functional shape of such a model: per-access energy and
//! latency grow with the array capacity (decoders, wordlines and bitlines
//! scale roughly with the square root of the bit count), while the per-bit
//! programming cost comes from the device model in [`crate::nvm`].

use std::fmt;

use crate::constants::BACKUP_BIT_OVERHEAD;
use crate::nvm::{NvmCell, NvmTechnology};
use crate::units::{Energy, Seconds};

/// An NVM backup array of a given capacity and word width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmArray {
    technology: NvmTechnology,
    cell: NvmCell,
    capacity_bits: u64,
    word_bits: u32,
}

impl NvmArray {
    /// Creates an array of `capacity_bits` total bits accessed `word_bits` at
    /// a time, built from `technology` cells.
    ///
    /// # Panics
    ///
    /// Panics if `word_bits` is zero.  A zero-capacity array is allowed (it
    /// models a design with no NVM boundary at all) and reports zero costs.
    #[must_use]
    pub fn new(technology: NvmTechnology, capacity_bits: u64, word_bits: u32) -> Self {
        assert!(word_bits > 0, "word width must be at least one bit");
        Self { technology, cell: NvmCell::for_technology(technology), capacity_bits, word_bits }
    }

    /// The storage technology of this array.
    #[must_use]
    pub fn technology(&self) -> NvmTechnology {
        self.technology
    }

    /// Peripheral (decoder, driver, sense-amplifier) energy overhead factor.
    ///
    /// Grows with the square root of the capacity, normalised so that a
    /// 1 Kib array pays roughly 30 % overhead.
    #[must_use]
    pub fn peripheral_factor(&self) -> f64 {
        if self.capacity_bits == 0 {
            return 1.0;
        }
        let kib = self.capacity_bits as f64 / 1024.0;
        1.0 + 0.3 * kib.sqrt()
    }

    /// Energy to write one full word.
    #[must_use]
    pub fn write_word_energy(&self) -> Energy {
        if self.capacity_bits == 0 {
            return Energy::ZERO;
        }
        let bits = f64::from(self.word_bits) * BACKUP_BIT_OVERHEAD;
        Energy::new(self.cell.write_energy.value() * bits * self.peripheral_factor())
    }

    /// Energy to read one full word.
    #[must_use]
    pub fn read_word_energy(&self) -> Energy {
        if self.capacity_bits == 0 {
            return Energy::ZERO;
        }
        let bits = f64::from(self.word_bits) * BACKUP_BIT_OVERHEAD;
        Energy::new(self.cell.read_energy.value() * bits * self.peripheral_factor())
    }

    /// Latency of one word write (bit programming plus peripheral delay).
    #[must_use]
    pub fn write_word_latency(&self) -> Seconds {
        if self.capacity_bits == 0 {
            return Seconds::ZERO;
        }
        let periph = Seconds::from_nanos(0.5 * self.peripheral_factor());
        self.cell.write_latency + periph
    }

    /// Latency of one word read.
    #[must_use]
    pub fn read_word_latency(&self) -> Seconds {
        if self.capacity_bits == 0 {
            return Seconds::ZERO;
        }
        let periph = Seconds::from_nanos(0.3 * self.peripheral_factor());
        self.cell.read_latency + periph
    }

    /// Energy to back up `bits` bits of state (as many word accesses as
    /// needed, last word possibly partial).
    #[must_use]
    pub fn backup_energy(&self, bits: u64) -> Energy {
        Energy::new(self.write_word_energy().value() * self.word_accesses(bits) as f64)
    }

    /// Energy to restore `bits` bits of state.
    #[must_use]
    pub fn restore_energy(&self, bits: u64) -> Energy {
        Energy::new(self.read_word_energy().value() * self.word_accesses(bits) as f64)
    }

    /// Time to back up `bits` bits of state (word accesses are serialised).
    #[must_use]
    pub fn backup_latency(&self, bits: u64) -> Seconds {
        Seconds::new(self.write_word_latency().value() * self.word_accesses(bits) as f64)
    }

    /// Time to restore `bits` bits of state.
    #[must_use]
    pub fn restore_latency(&self, bits: u64) -> Seconds {
        Seconds::new(self.read_word_latency().value() * self.word_accesses(bits) as f64)
    }

    /// Number of word accesses needed to move `bits` bits.
    #[must_use]
    pub fn word_accesses(&self, bits: u64) -> u64 {
        if bits == 0 || self.capacity_bits == 0 {
            return 0;
        }
        bits.div_ceil(u64::from(self.word_bits))
    }
}

impl fmt::Display for NvmArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} array: {} bits, {}-bit words",
            self.technology, self.capacity_bits, self.word_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_costs_dominate_reads() {
        let a = NvmArray::new(NvmTechnology::Mram, 4096, 32);
        assert!(a.write_word_energy() > a.read_word_energy());
        assert!(a.write_word_latency() > a.read_word_latency());
    }

    #[test]
    fn bigger_arrays_pay_more_peripheral_overhead() {
        let small = NvmArray::new(NvmTechnology::Mram, 256, 32);
        let big = NvmArray::new(NvmTechnology::Mram, 65536, 32);
        assert!(big.peripheral_factor() > small.peripheral_factor());
        assert!(big.write_word_energy() > small.write_word_energy());
    }

    #[test]
    fn zero_capacity_array_costs_nothing() {
        let a = NvmArray::new(NvmTechnology::Mram, 0, 32);
        assert_eq!(a.write_word_energy(), Energy::ZERO);
        assert_eq!(a.backup_energy(128), Energy::ZERO);
        assert_eq!(a.backup_latency(128), Seconds::ZERO);
        assert_eq!(a.word_accesses(128), 0);
    }

    #[test]
    fn word_accesses_round_up() {
        let a = NvmArray::new(NvmTechnology::Mram, 1024, 32);
        assert_eq!(a.word_accesses(0), 0);
        assert_eq!(a.word_accesses(1), 1);
        assert_eq!(a.word_accesses(32), 1);
        assert_eq!(a.word_accesses(33), 2);
        assert_eq!(a.word_accesses(64), 2);
        assert_eq!(a.word_accesses(65), 3);
    }

    #[test]
    fn backup_energy_scales_with_bits() {
        let a = NvmArray::new(NvmTechnology::Mram, 4096, 32);
        let one_word = a.backup_energy(32);
        let four_words = a.backup_energy(128);
        assert!((four_words.value() / one_word.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn reram_backup_is_more_expensive_than_mram() {
        let mram = NvmArray::new(NvmTechnology::Mram, 1024, 32);
        let reram = NvmArray::new(NvmTechnology::Reram, 1024, 32);
        assert!(reram.backup_energy(512) > mram.backup_energy(512));
    }

    #[test]
    #[should_panic(expected = "word width")]
    fn zero_word_width_is_rejected() {
        let _ = NvmArray::new(NvmTechnology::Mram, 1024, 0);
    }

    #[test]
    fn display_mentions_technology_and_size() {
        let a = NvmArray::new(NvmTechnology::Feram, 2048, 16);
        let s = a.to_string();
        assert!(s.contains("FeRAM") && s.contains("2048") && s.contains("16"));
    }
}
