//! Device-level models of non-volatile memory (NVM) bit cells.
//!
//! The DIAC paper evaluates its designs with MRAM as the baseline NVM
//! technology and notes (Section IV.C) that the improvement trend is stable
//! across technologies — for example a ReRAM write consumes roughly 4.4× the
//! energy of an MRAM write, which *widens* the gap between DIAC and the
//! checkpoint-everything baselines.  This module provides per-bit write/read
//! cost models for the four technologies the paper mentions.

use std::fmt;

use crate::units::{Energy, Seconds};

/// The non-volatile storage technology used for backups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NvmTechnology {
    /// Spin-transfer-torque magnetic RAM (the paper's baseline).
    Mram,
    /// Resistive RAM (write energy ≈ 4.4× MRAM per the paper).
    Reram,
    /// Ferroelectric RAM.
    Feram,
    /// Phase-change memory.
    Pcm,
}

impl NvmTechnology {
    /// All supported technologies in a stable order.
    pub const ALL: [NvmTechnology; 4] =
        [NvmTechnology::Mram, NvmTechnology::Reram, NvmTechnology::Feram, NvmTechnology::Pcm];

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NvmTechnology::Mram => "MRAM",
            NvmTechnology::Reram => "ReRAM",
            NvmTechnology::Feram => "FeRAM",
            NvmTechnology::Pcm => "PCM",
        }
    }
}

impl fmt::Display for NvmTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-bit electrical characteristics of an NVM cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmCell {
    /// Technology this cell belongs to.
    pub technology: NvmTechnology,
    /// Energy to program (write) one bit.
    pub write_energy: Energy,
    /// Energy to sense (read) one bit.
    pub read_energy: Energy,
    /// Time to program one bit.
    pub write_latency: Seconds,
    /// Time to sense one bit.
    pub read_latency: Seconds,
}

impl NvmCell {
    /// Characterisation of one bit cell for `technology`.
    ///
    /// MRAM is the reference point (write ≈ 200 fJ/bit, 10 ns — representative
    /// of 45 nm STT-MRAM macros); the other technologies are scaled relative
    /// to it, keeping the paper's 4.4× ReRAM-vs-MRAM write-energy ratio.
    #[must_use]
    pub fn for_technology(technology: NvmTechnology) -> Self {
        match technology {
            NvmTechnology::Mram => Self {
                technology,
                write_energy: Energy::from_femtojoules(200.0),
                read_energy: Energy::from_femtojoules(25.0),
                write_latency: Seconds::from_nanos(10.0),
                read_latency: Seconds::from_nanos(2.0),
            },
            NvmTechnology::Reram => Self {
                technology,
                // Paper: "the ReRAM write consumes ~4.4x more energy than MRAM".
                write_energy: Energy::from_femtojoules(200.0 * 4.4),
                read_energy: Energy::from_femtojoules(40.0),
                write_latency: Seconds::from_nanos(50.0),
                read_latency: Seconds::from_nanos(5.0),
            },
            NvmTechnology::Feram => Self {
                technology,
                write_energy: Energy::from_femtojoules(120.0),
                read_energy: Energy::from_femtojoules(80.0),
                write_latency: Seconds::from_nanos(60.0),
                read_latency: Seconds::from_nanos(60.0),
            },
            NvmTechnology::Pcm => Self {
                technology,
                write_energy: Energy::from_picojoules(2.5),
                read_energy: Energy::from_femtojoules(50.0),
                write_latency: Seconds::from_nanos(150.0),
                read_latency: Seconds::from_nanos(12.0),
            },
        }
    }

    /// Ratio of this technology's per-bit write energy to MRAM's.
    #[must_use]
    pub fn write_energy_vs_mram(&self) -> f64 {
        let mram = Self::for_technology(NvmTechnology::Mram);
        self.write_energy.ratio(mram.write_energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_technology_is_characterised() {
        for tech in NvmTechnology::ALL {
            let cell = NvmCell::for_technology(tech);
            assert_eq!(cell.technology, tech);
            assert!(cell.write_energy.value() > 0.0);
            assert!(cell.read_energy.value() > 0.0);
            assert!(cell.write_latency.value() > 0.0);
            assert!(cell.read_latency.value() > 0.0);
        }
    }

    #[test]
    fn writes_cost_more_than_reads() {
        for tech in NvmTechnology::ALL {
            let cell = NvmCell::for_technology(tech);
            assert!(cell.write_energy > cell.read_energy, "{tech}: write should dominate read");
            assert!(cell.write_latency >= cell.read_latency);
        }
    }

    #[test]
    fn reram_write_is_4_4x_mram() {
        let reram = NvmCell::for_technology(NvmTechnology::Reram);
        assert!((reram.write_energy_vs_mram() - 4.4).abs() < 1e-9);
    }

    #[test]
    fn mram_ratio_to_itself_is_one() {
        let mram = NvmCell::for_technology(NvmTechnology::Mram);
        assert!((mram.write_energy_vs_mram() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pcm_is_the_most_expensive_write() {
        let max = NvmTechnology::ALL
            .iter()
            .map(|&t| (t, NvmCell::for_technology(t).write_energy))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(t, _)| t);
        assert_eq!(max, Some(NvmTechnology::Pcm));
    }

    #[test]
    fn display_names() {
        assert_eq!(NvmTechnology::Mram.to_string(), "MRAM");
        assert_eq!(NvmTechnology::Reram.to_string(), "ReRAM");
    }
}
