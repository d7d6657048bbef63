//! Structure-of-arrays bank types for lockstep multi-scenario simulation.
//!
//! A *bank* holds the state of N independent simulation lanes as column
//! vectors so a batch executor can advance all lanes per `dt` tick with
//! tight, cache-friendly loops.  Two invariants make the banked types safe
//! to substitute for their scalar counterparts:
//!
//! * **Shared physics.**  Every energy mutation goes through the same
//!   [`EnergyCell`] arithmetic the scalar [`Capacitor`] uses, so a bank lane
//!   is bit-identical to a standalone capacitor fed the same inputs.
//! * **Lane independence.**  No column operation mixes data across lanes;
//!   each lane is a pure function of its own initial state and inputs, which
//!   is why retiring a finished lane and refilling its slot with a fresh
//!   scenario cannot perturb any neighbour.

use tech45::units::{Capacitance, Energy, EnergyFx, Power, Seconds};

use crate::capacitor::{Capacitor, EnergyCell};

/// A structure-of-arrays bank of storage capacitors: one simulation lane per
/// index, with stored energy, capacity and a per-lane continuous leakage
/// draw held as columns.
///
/// The leakage column is a *copy* of each lane's configured sleep leakage
/// (the FSM configuration stays the source of truth for the value); the
/// batch executor hoists it out of the column once per block and drains it
/// through the same [`EnergyCell`] arithmetic the scalar path uses.
#[derive(Debug, Clone, Default)]
pub struct CapacitorBank {
    capacitance: Vec<Capacitance>,
    max_energy: Vec<EnergyFx>,
    energy: Vec<EnergyFx>,
    leak: Vec<Power>,
}

impl CapacitorBank {
    /// An empty bank with room for `lanes` capacitors.
    #[must_use]
    pub fn with_capacity(lanes: usize) -> Self {
        Self {
            capacitance: Vec::with_capacity(lanes),
            max_energy: Vec::with_capacity(lanes),
            energy: Vec::with_capacity(lanes),
            leak: Vec::with_capacity(lanes),
        }
    }

    /// Number of lanes in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.energy.len()
    }

    /// Whether the bank holds no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.energy.is_empty()
    }

    /// Appends a lane initialised from `capacitor`, with `leak` as its
    /// continuous leakage draw.  Returns the lane index.
    pub fn push(&mut self, capacitor: &Capacitor, leak: Power) -> usize {
        self.capacitance.push(capacitor.capacitance());
        self.max_energy.push(capacitor.max_energy_fx());
        self.energy.push(capacitor.energy_fx());
        self.leak.push(leak);
        self.energy.len() - 1
    }

    /// Re-initialises an existing lane in place (the refill half of the
    /// retire/refill contract).
    pub fn reset_lane(&mut self, lane: usize, capacitor: &Capacitor, leak: Power) {
        self.capacitance[lane] = capacitor.capacitance();
        self.max_energy[lane] = capacitor.max_energy_fx();
        self.energy[lane] = capacitor.energy_fx();
        self.leak[lane] = leak;
    }

    /// The stored-energy column.
    #[must_use]
    pub fn energies(&self) -> &[EnergyFx] {
        &self.energy
    }

    /// The capacity column.
    #[must_use]
    pub fn max_energies(&self) -> &[EnergyFx] {
        &self.max_energy
    }

    /// The leakage column.
    #[must_use]
    pub fn leaks(&self) -> &[Power] {
        &self.leak
    }

    /// One lane's stored energy, converted to floating point (for
    /// diagnostics; the exact column value is [`Self::energy_fx`]).
    #[must_use]
    pub fn energy(&self, lane: usize) -> Energy {
        self.energy[lane].to_energy()
    }

    /// One lane's stored energy in the exact fixed-point unit.
    #[must_use]
    pub fn energy_fx(&self, lane: usize) -> EnergyFx {
        self.energy[lane]
    }

    /// Reconstructs one lane as a standalone [`Capacitor`] (for inspection
    /// and tests; the bank remains the live state).
    #[must_use]
    pub fn lane(&self, lane: usize) -> Capacitor {
        Capacitor::from_raw(self.capacitance[lane], self.max_energy[lane], self.energy[lane])
    }

    /// Borrows one lane as the shared [`EnergyCell`] step view — the exact
    /// arithmetic a scalar [`Capacitor`] runs.
    #[must_use]
    pub fn cell(&mut self, lane: usize) -> EnergyCell<'_> {
        EnergyCell::from_parts(&mut self.energy[lane], self.max_energy[lane])
    }

    /// Integrates `power` harvested over `dt` into one lane, returning the
    /// energy actually banked (identical to [`Capacitor::harvest`]).
    pub fn harvest(&mut self, lane: usize, power: Power, dt: Seconds) -> EnergyFx {
        self.cell(lane).harvest(power, dt)
    }

    /// Writes one lane's stored energy back — the block write-back of the
    /// batch executor, whose hot loop evolves a register-resident copy of
    /// the lane through the shared [`EnergyCell`] physics.
    pub fn set_energy(&mut self, lane: usize, energy: EnergyFx) {
        self.energy[lane] = energy;
    }

    /// Drains one lane's configured leakage over `dt` (identical to
    /// [`Capacitor::drain_power`] with the lane's leak power).
    pub fn drain_leakage(&mut self, lane: usize, dt: Seconds) -> EnergyFx {
        let leak = self.leak[lane];
        self.cell(lane).drain_power(leak, dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::source::{HarvestSource, PiecewiseSource, Segment};

    #[test]
    fn bank_lanes_behave_exactly_like_standalone_capacitors() {
        let mut bank = CapacitorBank::with_capacity(3);
        let mut scalars = Vec::new();
        for mj in [0.0, 5.0, 24.5] {
            let cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(mj));
            bank.push(&cap, Power::from_microwatts(10.0));
            scalars.push(cap);
        }
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_empty());
        let dt = Seconds::new(0.5);
        for step in 0..2000 {
            let power = Power::from_milliwatts(f64::from(step % 7) * 0.1);
            for (lane, cap) in scalars.iter_mut().enumerate() {
                let banked = bank.harvest(lane, power, dt);
                assert_eq!(banked, cap.harvest(power, dt));
                let leaked = bank.drain_leakage(lane, dt);
                let expected = cap.drain_power(Power::from_microwatts(10.0), dt);
                assert_eq!(leaked, expected);
                assert_eq!(bank.energy_fx(lane), cap.energy_fx());
            }
        }
        for (lane, cap) in scalars.iter().enumerate() {
            assert_eq!(&bank.lane(lane), cap);
        }
    }

    #[test]
    fn reset_lane_reinitialises_one_slot_without_touching_neighbours() {
        let mut bank = CapacitorBank::with_capacity(2);
        bank.push(
            &Capacitor::paper_default().with_energy(Energy::from_millijoules(7.0)),
            Power::ZERO,
        );
        bank.push(
            &Capacitor::paper_default().with_energy(Energy::from_millijoules(3.0)),
            Power::ZERO,
        );
        bank.reset_lane(
            0,
            &Capacitor::paper_default().with_energy(Energy::from_millijoules(1.0)),
            Power::from_microwatts(5.0),
        );
        assert!((bank.energy(0).as_millijoules() - 1.0).abs() < 1e-12);
        assert!((bank.energy(1).as_millijoules() - 3.0).abs() < 1e-12);
        assert!((bank.leaks()[0].as_microwatts() - 5.0).abs() < 1e-12);
        assert_eq!(bank.energies().len(), 2);
        assert_eq!(bank.max_energies().len(), 2);
    }

    // The lockstep batch executor feeds schedule-driven lanes through
    // `PiecewiseSource`'s monotone cursor and its segment windows; the tests
    // below pin both against a linear segment scan.

    /// The linear segment scan the cursor replaced — the reference every
    /// cursor lookup must reproduce.
    fn scan(segments: &[(Seconds, Power)], cyclic: bool, total: Seconds, t: f64) -> Power {
        let total = total.as_seconds();
        let time = if cyclic && total > 0.0 { t % total } else { t };
        let mut current = Power::ZERO;
        for &(start, power) in segments {
            if time >= start.as_seconds() {
                current = power;
            } else {
                break;
            }
        }
        current
    }

    /// Sweeps `steps` queries of `dt` through `source` and the scan, jumping
    /// back in time every 997 queries to force a cursor rescan.  `cyclic`
    /// must be the source's own flag (checked through equality).
    fn assert_matches_scan(mut source: PiecewiseSource, cyclic: bool, steps: u32, dt: f64) {
        let reference = source.clone();
        let segments = reference.segments().to_vec();
        assert_eq!(
            PiecewiseSource::new(segments.clone(), cyclic, reference.duration()),
            reference,
            "{}: wrong cyclic flag",
            reference.describe()
        );
        for i in 0..steps {
            let t = if i % 997 == 0 { f64::from(i / 2) * dt } else { f64::from(i) * dt };
            assert_eq!(
                scan(&segments, cyclic, reference.duration(), t).value().to_bits(),
                source.power_at(Seconds::new(t)).value().to_bits(),
                "{} diverges at t={t}",
                reference.describe()
            );
        }
        // Equality and the description ignore where the cursor stopped.
        assert_eq!(source.describe(), reference.describe());
        assert_eq!(source, reference);
    }

    #[test]
    fn the_cursor_matches_the_scanning_source_sample_for_sample() {
        // Sweep far past the cycle duration so cyclic schedules wrap several
        // times, at a step that hits segment boundaries exactly.
        for (schedule, cyclic) in
            [(Schedule::fig4(), false), (Schedule::plentiful(), true), (Schedule::scarce(), true)]
        {
            assert_matches_scan(schedule.to_source(), cyclic, 200_000, 0.05);
        }
    }

    #[test]
    fn the_cursor_handles_a_delayed_first_segment() {
        let segments = vec![
            (Seconds::new(10.0), Power::from_milliwatts(1.0)),
            (Seconds::new(20.0), Power::ZERO),
        ];
        let make = || PiecewiseSource::new(segments.clone(), true, Seconds::new(30.0));
        assert_matches_scan(make(), true, 500, 0.25);
        // The lead-in before the first segment is dark in every cycle.
        let mut source = make();
        assert_eq!(source.power_at(Seconds::new(5.0)), Power::ZERO);
        assert_eq!(source.power_at(Seconds::new(15.0)), Power::from_milliwatts(1.0));
        assert_eq!(source.power_at(Seconds::new(35.0)), Power::ZERO);
    }

    #[test]
    fn the_segment_horizon_covers_exactly_the_current_plateau() {
        let segments = vec![
            (Seconds::new(0.0), Power::from_milliwatts(1.0)),
            (Seconds::new(10.0), Power::ZERO),
        ];
        let dt = Seconds::new(0.05);
        let at = |tick: u64| Seconds::new(tick as f64 * dt.as_seconds());
        let mut source = PiecewiseSource::new(segments.clone(), true, Seconds::new(30.0));
        // Every tick of a fine grid: the window holds the tick's own sample
        // up to its last tick, and the plateaus alternate between 1 mW and
        // zero, so the first tick past the window samples something else.
        for tick in 0..3_000_u64 {
            let here = source.power_at(at(tick));
            let seg = source.segment(tick, dt);
            assert!(seg.until > tick, "empty window at tick {tick}");
            assert_eq!(seg.power.value().to_bits(), here.value().to_bits(), "tick {tick}");
            // Probe on a copy, to keep the cursor's monotone sweep intact.
            let mut probe = source.clone();
            assert_eq!(
                probe.power_at(at(seg.until - 1)).value().to_bits(),
                here.value().to_bits(),
                "power changed inside the window at tick {tick}"
            );
            assert_ne!(probe.power_at(at(seg.until)), here, "window at tick {tick} ends early");
        }
        // A non-cyclic schedule past its last segment never changes again.
        let mut tail = PiecewiseSource::new(segments, false, Seconds::new(30.0));
        assert_eq!(tail.segment(1_980, dt), Segment { power: Power::ZERO, until: u64::MAX });
    }
}
