//! The cartesian scenario space.
//!
//! A campaign sweeps four independent axes — harvest source (family +
//! parameters + seed), PMU thresholds, NVM technology, and backup sizing —
//! plus a replication axis of distinct seeds per grid point.  Every point of
//! the product is materialised into one deterministic
//! [`crate::scenario::Scenario`].

use ehsim::pmu::Thresholds;
use ehsim::schedule::Schedule;
use ehsim::source::{
    ConstantSource, HarvestSource, MarkovSource, PiecewiseSource, RfidSource, Segment, SolarSource,
};
use isim::backup::BackupUnit;
use tech45::nvm::NvmTechnology;
use tech45::units::{Energy, Power, Seconds};

use diac_core::replacement::ReplacementSummary;

use crate::scenario::Scenario;
use crate::seed::mix;

/// The source families the campaign engine can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceFamily {
    /// Constant ambient power.
    Constant,
    /// RFID-reader-like periodic bursts.
    Rfid,
    /// Slow solar-like day/night cycle with cloud noise.
    Solar,
    /// Two-state Markov on/off channel.
    Markov,
    /// Trace-driven piecewise schedule (e.g. the Fig. 4 trace).
    Schedule,
}

impl SourceFamily {
    /// All families in a stable order.
    pub const ALL: [SourceFamily; 5] = [
        SourceFamily::Constant,
        SourceFamily::Rfid,
        SourceFamily::Solar,
        SourceFamily::Markov,
        SourceFamily::Schedule,
    ];

    /// Short label used in campaign tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SourceFamily::Constant => "constant",
            SourceFamily::Rfid => "rfid",
            SourceFamily::Solar => "solar",
            SourceFamily::Markov => "markov",
            SourceFamily::Schedule => "schedule",
        }
    }
}

impl std::fmt::Display for SourceFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fully parameterised (but not yet seeded) harvest source.
///
/// The embedded seed of the stochastic families is a *base* seed: when a
/// scenario is materialised the campaign mixes it with the scenario seed, so
/// two replicates of the same grid point see different — but individually
/// reproducible — sample paths.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSpec {
    /// Constant power.
    Constant {
        /// Delivered power.
        power: Power,
    },
    /// RFID bursts.
    Rfid {
        /// Peak power inside a burst.
        peak: Power,
        /// Burst repetition period.
        period: Seconds,
        /// Fraction of the period spent in the field (0..=1).
        duty_cycle: f64,
        /// Relative timing jitter (0..=0.5).
        jitter: f64,
        /// Base seed of the jitter stream.
        seed: u64,
    },
    /// Solar day/night cycle.
    Solar {
        /// Peak power at noon.
        peak: Power,
        /// Length of one "day".
        day_length: Seconds,
        /// Multiplicative cloud noise (0..=1).
        cloudiness: f64,
        /// Base seed of the cloud stream.
        seed: u64,
    },
    /// Markov on/off channel.
    Markov {
        /// Power while on.
        on_power: Power,
        /// Mean dwell time in the on state.
        mean_on: Seconds,
        /// Mean dwell time in the off state.
        mean_off: Seconds,
        /// Base seed of the dwell stream.
        seed: u64,
    },
    /// A named piecewise schedule (deterministic, no seed).
    Schedule(Schedule),
}

impl SourceSpec {
    /// The family this spec belongs to.
    #[must_use]
    pub fn family(&self) -> SourceFamily {
        match self {
            SourceSpec::Constant { .. } => SourceFamily::Constant,
            SourceSpec::Rfid { .. } => SourceFamily::Rfid,
            SourceSpec::Solar { .. } => SourceFamily::Solar,
            SourceSpec::Markov { .. } => SourceFamily::Markov,
            SourceSpec::Schedule(_) => SourceFamily::Schedule,
        }
    }

    /// Returns the spec with its base seed mixed with `scenario_seed`.
    /// Deterministic sources come back unchanged.
    #[must_use]
    pub fn reseeded(&self, scenario_seed: u64) -> Self {
        let mut spec = self.clone();
        match &mut spec {
            SourceSpec::Rfid { seed, .. }
            | SourceSpec::Solar { seed, .. }
            | SourceSpec::Markov { seed, .. } => *seed = mix(*seed, scenario_seed),
            SourceSpec::Constant { .. } | SourceSpec::Schedule(_) => {}
        }
        spec
    }

    /// Materialises the source the executor will sample.
    #[must_use]
    pub fn build(&self) -> AnySource {
        match self {
            SourceSpec::Constant { power } => AnySource::Constant(ConstantSource::new(*power)),
            SourceSpec::Rfid { peak, period, duty_cycle, jitter, seed } => {
                AnySource::Rfid(RfidSource::new(*peak, *period, *duty_cycle, *jitter, *seed))
            }
            SourceSpec::Solar { peak, day_length, cloudiness, seed } => {
                AnySource::Solar(SolarSource::new(*peak, *day_length, *cloudiness, *seed))
            }
            SourceSpec::Markov { on_power, mean_on, mean_off, seed } => {
                AnySource::Markov(MarkovSource::new(*on_power, *mean_on, *mean_off, *seed))
            }
            SourceSpec::Schedule(schedule) => AnySource::Piecewise(schedule.to_source()),
        }
    }

    /// Materialises the seeded source directly, recycling `scratch`'s
    /// buffers: equivalent to `self.reseeded(scenario_seed).build()` but
    /// without cloning the spec, and piecewise schedules reuse the segment
    /// buffer of the previous run's source.  The campaign hot path.
    #[must_use]
    pub fn build_seeded(&self, scenario_seed: u64, scratch: &mut SourceScratch) -> AnySource {
        match self {
            SourceSpec::Constant { power } => AnySource::Constant(ConstantSource::new(*power)),
            SourceSpec::Rfid { peak, period, duty_cycle, jitter, seed } => AnySource::Rfid(
                RfidSource::new(*peak, *period, *duty_cycle, *jitter, mix(*seed, scenario_seed)),
            ),
            SourceSpec::Solar { peak, day_length, cloudiness, seed } => AnySource::Solar(
                SolarSource::new(*peak, *day_length, *cloudiness, mix(*seed, scenario_seed)),
            ),
            SourceSpec::Markov { on_power, mean_on, mean_off, seed } => AnySource::Markov(
                MarkovSource::new(*on_power, *mean_on, *mean_off, mix(*seed, scenario_seed)),
            ),
            SourceSpec::Schedule(schedule) => {
                AnySource::Piecewise(schedule.to_source_reusing(scratch.take_piecewise()))
            }
        }
    }
}

/// Recycled buffers for materialising sources — one per campaign worker,
/// threaded through [`crate::ParallelRunner::map_init`] so that repeated
/// runs reuse their allocations instead of repeating them.
///
/// The scalar campaign path holds at most one piecewise buffer at a time
/// (build, run, recycle); the batched path builds a whole chunk of jobs up
/// front and hands every retired lane's buffer back at once, so the scratch
/// keeps a *pool* of spare buffers rather than a single slot.
#[derive(Debug, Default)]
pub struct SourceScratch {
    piecewise: Vec<Vec<(Seconds, Power)>>,
}

impl SourceScratch {
    /// A scratch with no spare buffers yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a spare piecewise segment buffer (empty, capacity
    /// retained), or a fresh one when the pool is dry.
    fn take_piecewise(&mut self) -> Vec<(Seconds, Power)> {
        self.piecewise.pop().unwrap_or_default()
    }

    /// Recovers the buffers of a finished run's source for the next run.
    pub fn recycle(&mut self, source: AnySource) {
        if let AnySource::Piecewise(piecewise) = source {
            self.piecewise.push(piecewise.into_segments());
        }
    }
}

/// A harvest source of any family, dispatching [`HarvestSource`] by enum
/// (keeps the executors monomorphic and the scenario `Send`-able without
/// boxing) — the one source type of the scalar and batched campaign paths.
#[derive(Debug, Clone)]
pub enum AnySource {
    /// Constant source.
    Constant(ConstantSource),
    /// RFID bursts.
    Rfid(RfidSource),
    /// Solar cycle.
    Solar(SolarSource),
    /// Markov channel.
    Markov(MarkovSource),
    /// Piecewise schedule.
    Piecewise(PiecewiseSource),
}

impl HarvestSource for AnySource {
    fn power_at(&mut self, t: Seconds) -> Power {
        match self {
            AnySource::Constant(s) => s.power_at(t),
            AnySource::Rfid(s) => s.power_at(t),
            AnySource::Solar(s) => s.power_at(t),
            AnySource::Markov(s) => s.power_at(t),
            AnySource::Piecewise(s) => s.power_at(t),
        }
    }

    fn describe(&self) -> String {
        match self {
            AnySource::Constant(s) => s.describe(),
            AnySource::Rfid(s) => s.describe(),
            AnySource::Solar(s) => s.describe(),
            AnySource::Markov(s) => s.describe(),
            AnySource::Piecewise(s) => s.describe(),
        }
    }

    fn segment(&mut self, tick: u64, dt: Seconds) -> Segment {
        match self {
            AnySource::Constant(s) => s.segment(tick, dt),
            AnySource::Rfid(s) => s.segment(tick, dt),
            AnySource::Solar(s) => s.segment(tick, dt),
            AnySource::Markov(s) => s.segment(tick, dt),
            AnySource::Piecewise(s) => s.segment(tick, dt),
        }
    }
}

/// How the backup unit of a scenario is sized.
#[derive(Debug, Clone, PartialEq)]
pub enum BackupSizing {
    /// Baseline design: back up the full architectural state (`bits` bits).
    BaselineBits(u64),
    /// DIAC design: back up only the boundary registers reported by a
    /// replacement run (plus eight bits of control state).
    DiacReplacement(ReplacementSummary),
}

impl BackupSizing {
    /// The backup unit this sizing yields on a given NVM technology.
    #[must_use]
    pub fn unit(&self, technology: NvmTechnology) -> BackupUnit {
        match self {
            BackupSizing::BaselineBits(bits) => BackupUnit::from_state_bits(*bits, technology),
            BackupSizing::DiacReplacement(summary) => {
                BackupUnit::from_replacement(summary, technology)
            }
        }
    }

    /// Short label used in scenario descriptions and campaign tables.  The
    /// bit count is read back from the materialised unit so the label can
    /// never drift from what is actually simulated.
    #[must_use]
    pub fn label(&self) -> String {
        let bits = self.unit(NvmTechnology::Mram).bits();
        match self {
            BackupSizing::BaselineBits(_) => format!("baseline-{bits}b"),
            BackupSizing::DiacReplacement(_) => format!("diac-{bits}b"),
        }
    }
}

/// Builds the PMU-threshold axis: the paper thresholds with every safe-zone
/// margin in `margins_mj`, filtered down to consistent orderings.
#[must_use]
pub fn threshold_grid(margins_mj: &[f64]) -> Vec<Thresholds> {
    margins_mj
        .iter()
        .map(|&mj| Thresholds::paper_default().with_safe_zone_margin(Energy::from_millijoules(mj)))
        .filter(Thresholds::is_consistent)
        .collect()
}

/// The cartesian scenario space of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpace {
    /// The harvest-source axis.
    pub sources: Vec<SourceSpec>,
    /// The PMU-threshold axis (`Th_SafeZone`, `Th_Bk`, …).
    pub thresholds: Vec<Thresholds>,
    /// The NVM-technology axis.
    pub technologies: Vec<NvmTechnology>,
    /// The backup-sizing axis (baseline vs. DIAC replacement).
    pub sizings: Vec<BackupSizing>,
    /// Replicates per grid point (distinct seeds).
    pub replicates: usize,
}

impl ScenarioSpace {
    /// The paper-flavoured default grid: nine sources over all five families,
    /// three safe-zone margins, all four NVM technologies, and the two given
    /// backup sizings — 216 scenarios per replicate.
    #[must_use]
    pub fn paper_grid(sizings: Vec<BackupSizing>) -> Self {
        let mw = Power::from_milliwatts;
        let s = Seconds::new;
        let sources = vec![
            SourceSpec::Constant { power: mw(0.08) },
            SourceSpec::Constant { power: mw(0.30) },
            SourceSpec::Rfid {
                peak: mw(1.0),
                period: s(2.0),
                duty_cycle: 0.4,
                jitter: 0.1,
                seed: 1,
            },
            SourceSpec::Rfid {
                peak: mw(0.6),
                period: s(5.0),
                duty_cycle: 0.2,
                jitter: 0.2,
                seed: 2,
            },
            SourceSpec::Solar { peak: mw(0.8), day_length: s(2000.0), cloudiness: 0.3, seed: 3 },
            SourceSpec::Markov { on_power: mw(0.5), mean_on: s(20.0), mean_off: s(40.0), seed: 4 },
            SourceSpec::Markov { on_power: mw(0.2), mean_on: s(60.0), mean_off: s(30.0), seed: 5 },
            SourceSpec::Schedule(Schedule::fig4()),
            SourceSpec::Schedule(Schedule::scarce()),
        ];
        Self {
            sources,
            thresholds: threshold_grid(&[0.0, 2.0, 4.0]),
            technologies: NvmTechnology::ALL.to_vec(),
            sizings,
            replicates: 1,
        }
    }

    /// A tiny deterministic grid for CI smoke jobs and doc examples:
    /// 16 scenarios.  The Fig. 4 schedule is included so that — over the
    /// smoke campaign's lifetime — the grid deterministically exercises
    /// capacitor saturation (clipped harvest), a backup and a full power
    /// loss, whatever the seeds.
    #[must_use]
    pub fn smoke() -> Self {
        let mw = Power::from_milliwatts;
        let s = Seconds::new;
        Self {
            sources: vec![
                SourceSpec::Constant { power: mw(0.10) },
                SourceSpec::Rfid {
                    peak: mw(1.0),
                    period: s(2.0),
                    duty_cycle: 0.4,
                    jitter: 0.1,
                    seed: 1,
                },
                SourceSpec::Schedule(Schedule::scarce()),
                SourceSpec::Schedule(Schedule::fig4()),
            ],
            thresholds: threshold_grid(&[0.0, 2.0]),
            technologies: vec![NvmTechnology::Mram, NvmTechnology::Reram],
            sizings: vec![BackupSizing::BaselineBits(64)],
            replicates: 1,
        }
    }

    /// Number of scenarios the space expands to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sources.len()
            * self.thresholds.len()
            * self.technologies.len()
            * self.sizings.len()
            * self.replicates.max(1)
    }

    /// Whether the space is empty on any axis.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the space into its scenarios.  Every scenario's seed is
    /// derived from `campaign_seed` and the scenario's *stochastic*
    /// coordinate — source × thresholds × replicate — so the whole campaign
    /// is reproducible from one number, and scenarios that differ only on
    /// the comparison axes (NVM technology, backup sizing) share the same
    /// seed: the classic common-random-numbers pairing that lets those axes
    /// be compared on identical harvest/jitter sample paths.
    #[must_use]
    pub fn scenarios(&self, campaign_seed: u64) -> Vec<Scenario> {
        let replicates = self.replicates.max(1);
        let mut out = Vec::with_capacity(self.len());
        for (source_idx, source) in self.sources.iter().enumerate() {
            for (threshold_idx, thresholds) in self.thresholds.iter().enumerate() {
                for &technology in &self.technologies {
                    for sizing in &self.sizings {
                        for replicate in 0..replicates {
                            let stochastic_coordinate =
                                (source_idx * self.thresholds.len() + threshold_idx) * replicates
                                    + replicate;
                            out.push(Scenario {
                                id: out.len(),
                                source: source.clone(),
                                thresholds: *thresholds,
                                technology,
                                sizing: sizing.clone(),
                                seed: mix(campaign_seed, stochastic_coordinate as u64),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> ReplacementSummary {
        ReplacementSummary {
            boundaries: 4,
            total_boundary_bits: 48,
            average_boundary_bits: 12.0,
            energy_budget: Energy::from_millijoules(1.0),
            max_unsaved_energy: Energy::from_millijoules(1.0),
            backup_energy: Energy::ZERO,
            backup_latency: Seconds::ZERO,
            restore_energy: Energy::ZERO,
            restore_latency: Seconds::ZERO,
        }
    }

    #[test]
    fn the_paper_grid_expands_to_at_least_200_scenarios() {
        let space = ScenarioSpace::paper_grid(vec![
            BackupSizing::BaselineBits(64),
            BackupSizing::DiacReplacement(summary()),
        ]);
        assert!(space.len() >= 200, "space has {} scenarios", space.len());
        assert_eq!(space.scenarios(7).len(), space.len());
        assert!(!space.is_empty());
    }

    #[test]
    fn the_paper_grid_covers_every_source_family() {
        let space = ScenarioSpace::paper_grid(vec![BackupSizing::BaselineBits(64)]);
        for family in SourceFamily::ALL {
            assert!(space.sources.iter().any(|s| s.family() == family), "family {family} missing");
        }
    }

    #[test]
    fn scenario_seeds_are_reproducible_and_paired_across_comparison_axes() {
        let space = ScenarioSpace::smoke();
        let a = space.scenarios(42);
        let b = space.scenarios(42);
        let c = space.scenarios(43);
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.seed != y.seed));
        // One distinct seed per stochastic coordinate (source × thresholds ×
        // replicate): the technology/sizing comparison axes share it (common
        // random numbers), everything else gets its own.
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(
            seeds.len(),
            space.sources.len() * space.thresholds.len() * space.replicates,
            "one seed per stochastic coordinate"
        );
        for x in &a {
            for y in &a {
                let same_coordinate = x.source == y.source && x.thresholds == y.thresholds;
                assert_eq!(
                    x.seed == y.seed,
                    same_coordinate,
                    "seeds must pair exactly the scenarios that differ only in \
                     technology/sizing: #{} vs #{}",
                    x.id,
                    y.id
                );
            }
        }
    }

    #[test]
    fn reseeding_changes_stochastic_sources_only() {
        let rfid = SourceSpec::Rfid {
            peak: Power::from_milliwatts(1.0),
            period: Seconds::new(2.0),
            duty_cycle: 0.4,
            jitter: 0.1,
            seed: 1,
        };
        assert_ne!(rfid.reseeded(9), rfid);
        let constant = SourceSpec::Constant { power: Power::from_milliwatts(0.1) };
        assert_eq!(constant.reseeded(9), constant);
        let schedule = SourceSpec::Schedule(Schedule::fig4());
        assert_eq!(schedule.reseeded(9), schedule);
    }

    #[test]
    fn any_source_delegates_to_its_family() {
        let mut s = SourceSpec::Constant { power: Power::from_milliwatts(2.0) }.build();
        assert_eq!(s.power_at(Seconds::new(5.0)), Power::from_milliwatts(2.0));
        assert!(s.describe().contains("constant"));
        let mut sched = SourceSpec::Schedule(Schedule::scarce()).build();
        assert!(sched.describe().contains("piecewise"));
        let _ = sched.power_at(Seconds::new(1.0));
    }

    /// The batch engine walks sources window by window through
    /// `segment`, the scalar oracle tick by tick through `power_at`: both
    /// walks must see the same sample at every tick, for every family.
    #[test]
    fn lane_sources_sample_identically_to_the_scalar_sources() {
        let specs = [
            SourceSpec::Constant { power: Power::from_milliwatts(0.2) },
            SourceSpec::Rfid {
                peak: Power::from_milliwatts(1.0),
                period: Seconds::new(2.0),
                duty_cycle: 0.4,
                jitter: 0.2,
                seed: 7,
            },
            SourceSpec::Solar {
                peak: Power::from_milliwatts(0.8),
                day_length: Seconds::new(500.0),
                cloudiness: 0.3,
                seed: 8,
            },
            SourceSpec::Markov {
                on_power: Power::from_milliwatts(0.5),
                mean_on: Seconds::new(20.0),
                mean_off: Seconds::new(40.0),
                seed: 9,
            },
            SourceSpec::Schedule(Schedule::fig4()),
            SourceSpec::Schedule(Schedule::scarce()),
        ];
        let dt = Seconds::new(0.5);
        for spec in &specs {
            let mut scalar = spec.build_seeded(0xBEEF, &mut SourceScratch::new());
            let mut lane = spec.build_seeded(0xBEEF, &mut SourceScratch::new());
            let mut i = 0_u64;
            while i < 20_000 {
                let seg = lane.segment(i, dt);
                for j in i..seg.until.min(20_000) {
                    assert_eq!(
                        scalar.power_at(Seconds::new(j as f64 * 0.5)).value().to_bits(),
                        seg.power.value().to_bits(),
                        "{} diverges at tick {j}",
                        spec.family()
                    );
                }
                i = seg.until;
            }
        }
        // Piecewise buffers recycle through the scratch.
        let mut scratch = SourceScratch::new();
        let source = SourceSpec::Schedule(Schedule::fig4()).build_seeded(1, &mut scratch);
        scratch.recycle(source);
        let again = SourceSpec::Schedule(Schedule::fig4()).build_seeded(1, &mut scratch);
        assert!(matches!(again, AnySource::Piecewise(_)));
        assert!(scratch.piecewise.is_empty());
    }

    #[test]
    fn sizings_produce_differently_sized_backup_units() {
        let baseline = BackupSizing::BaselineBits(256).unit(NvmTechnology::Mram);
        let diac = BackupSizing::DiacReplacement(summary()).unit(NvmTechnology::Mram);
        assert_eq!(baseline.bits(), 256);
        assert_eq!(diac.bits(), 20);
        assert!(diac.backup_energy() < baseline.backup_energy());
        assert_eq!(BackupSizing::BaselineBits(256).label(), "baseline-256b");
        assert_eq!(BackupSizing::DiacReplacement(summary()).label(), "diac-20b");
    }

    #[test]
    fn threshold_grid_filters_inconsistent_orderings() {
        // A margin so large that Th_SafeZone would exceed Th_Se is dropped.
        let grid = threshold_grid(&[0.0, 2.0, 1000.0]);
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(Thresholds::is_consistent));
    }
}
