//! The virtual energy source: a storage capacitor.
//!
//! Stored energy is kept in the exact fixed-point unit
//! [`EnergyFx`] (i128 attojoules, see DESIGN.md "Exact integer
//! accumulators"): floating-point [`Energy`] amounts are quantised to the
//! nearest attojoule exactly once, at this boundary, and every mutation
//! below it is integer arithmetic.  That makes per-tick energy updates
//! associative, which is what lets the batch executor collapse quiescent
//! stretches into closed-form multiply-adds while staying bit-identical to
//! the scalar path.

use std::fmt;

use tech45::constants::{STORAGE_CAPACITANCE, VDD_SYSTEM};
use tech45::units::{capacitor_energy, Capacitance, Energy, EnergyFx, Power, Seconds, Voltage};

/// The energy `power` delivers over `dt` on the attojoule grid:
/// `max(power, 0) · dt`, quantised once.  Every offer and leak step goes
/// through this one conversion — the sources' runs, both executors and the
/// capacitor — so they agree on it bit for bit.
#[inline]
#[must_use]
pub fn quantise(power: Power, dt: Seconds) -> EnergyFx {
    (power.max(Power::ZERO) * dt).to_fx()
}

/// A storage capacitor that accumulates harvested energy and supplies the
/// node's operations — the paper's "virtual energy source ... responsible for
/// accumulating energy during power availability and deducting energy
/// consumption".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacitor {
    max_energy: EnergyFx,
    energy: EnergyFx,
}

impl Capacitor {
    /// Creates a capacitor of `capacitance` rated for `max_voltage`, initially
    /// empty.
    #[must_use]
    pub fn new(capacitance: Capacitance, max_voltage: Voltage) -> Self {
        let max_energy = capacitor_energy(capacitance, max_voltage).to_fx();
        Self { max_energy, energy: EnergyFx::ZERO }
    }

    /// The paper's storage element: 2 mF at 5 V, E_MAX = 25 mJ, initially
    /// empty.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(STORAGE_CAPACITANCE, VDD_SYSTEM)
    }

    /// Sets the stored energy (quantised to the fixed-point grid and clamped
    /// to `[0, max_energy]`) and returns the capacitor, handy for starting a
    /// scenario from a known level.
    #[must_use]
    pub fn with_energy(mut self, energy: Energy) -> Self {
        self.energy = energy.to_fx().clamp(EnergyFx::ZERO, self.max_energy);
        self
    }

    /// Maximum storable energy (25 mJ for the paper's parameters).
    #[must_use]
    pub fn max_energy(&self) -> Energy {
        self.max_energy.to_energy()
    }

    /// Maximum storable energy in the exact fixed-point unit.
    #[must_use]
    pub fn max_energy_fx(&self) -> EnergyFx {
        self.max_energy
    }

    /// Currently stored energy (converted to floating point for display and
    /// diagnostics; the exact value is [`Self::energy_fx`]).
    #[must_use]
    pub fn energy(&self) -> Energy {
        self.energy.to_energy()
    }

    /// Currently stored energy in the exact fixed-point unit.
    #[must_use]
    pub fn energy_fx(&self) -> EnergyFx {
        self.energy
    }

    /// Fraction of the capacity currently used, in `[0, 1]`.
    #[must_use]
    pub fn state_of_charge(&self) -> f64 {
        if self.max_energy.is_non_positive() {
            return 0.0;
        }
        self.energy.attojoules() as f64 / self.max_energy.attojoules() as f64
    }

    /// Whether the capacitor is completely empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.energy.is_non_positive()
    }

    /// Integrates `power` harvested over `dt`.  Energy above the capacity is
    /// discarded (the harvester front-end clamps at V_max).  Returns the
    /// energy actually banked.
    pub fn harvest(&mut self, power: Power, dt: Seconds) -> EnergyFx {
        self.cell().harvest(power, dt)
    }

    /// Draws `amount` of energy, saturating at zero.  Returns the energy that
    /// was actually drained.  This models continuous loads such as leakage,
    /// which keep discharging the capacitor no matter how little is left.
    pub fn drain(&mut self, amount: Energy) -> EnergyFx {
        self.cell().drain(amount)
    }

    /// Convenience for draining a constant `power` over `dt`.
    pub fn drain_power(&mut self, power: Power, dt: Seconds) -> EnergyFx {
        self.cell().drain_power(power, dt)
    }

    /// Borrows this capacitor as an [`EnergyCell`] — the view whose step
    /// arithmetic the batch executor's lanes share, so the scalar and
    /// batched simulation paths run the exact same physics.
    #[must_use]
    #[inline]
    pub fn cell(&mut self) -> EnergyCell<'_> {
        EnergyCell { energy: &mut self.energy, max_energy: self.max_energy }
    }
}

/// A mutable view of one stored-energy/capacity pair — either a whole
/// [`Capacitor`] or the energy a batch lane keeps in a local.
///
/// Every energy mutation the tick loop performs (harvest integration,
/// saturating drains) is defined *here*, once; the scalar capacitor and the
/// batch lanes both delegate to it, which is what makes the batched
/// executor bit-identical to the scalar one by construction.
/// Floating-point amounts are quantised to the attojoule grid exactly once
/// per call, and everything after that point is exact integer arithmetic.
#[derive(Debug)]
pub struct EnergyCell<'a> {
    energy: &'a mut EnergyFx,
    max_energy: EnergyFx,
}

impl EnergyCell<'_> {
    /// Builds a cell over a raw energy slot — for executors that keep a
    /// lane's energy in a local while fast-forwarding and need the shared
    /// step arithmetic for the full-fidelity ticks in between.
    pub fn from_parts(energy: &mut EnergyFx, max_energy: EnergyFx) -> EnergyCell<'_> {
        EnergyCell { energy, max_energy }
    }

    /// Currently stored energy.
    #[must_use]
    #[inline]
    pub fn energy(&self) -> EnergyFx {
        *self.energy
    }

    /// Maximum storable energy of this lane.
    #[must_use]
    pub fn max_energy(&self) -> EnergyFx {
        self.max_energy
    }

    /// Integrates `power` harvested over `dt`, clamping at the capacity.
    /// Returns the energy actually banked (see [`Capacitor::harvest`]).
    ///
    /// The offered energy `max(power, 0) · dt` is computed in f64 and
    /// quantised once; the clamp against the remaining headroom is integer.
    #[inline]
    pub fn harvest(&mut self, power: Power, dt: Seconds) -> EnergyFx {
        self.harvest_fx(quantise(power, dt))
    }

    /// Banks an already-quantised offered amount, clamping at the capacity.
    /// The tick loops use this to quantise `power · dt` exactly once per
    /// tick — they need the offered value anyway, for the clipped total.
    #[inline]
    pub fn harvest_fx(&mut self, incoming: EnergyFx) -> EnergyFx {
        let headroom = self.max_energy - *self.energy;
        let banked = incoming.min(headroom).max(EnergyFx::ZERO);
        *self.energy += banked;
        banked
    }

    /// Draws `amount` of energy, saturating at zero.  Returns the energy
    /// actually drained (see [`Capacitor::drain`]).
    #[inline]
    pub fn drain(&mut self, amount: Energy) -> EnergyFx {
        self.drain_fx(amount.to_fx())
    }

    /// Draws an already-quantised `amount`, saturating at zero.  Returns the
    /// energy actually drained.
    #[inline]
    pub fn drain_fx(&mut self, amount: EnergyFx) -> EnergyFx {
        let drained = amount.max(EnergyFx::ZERO).min(*self.energy);
        *self.energy -= drained;
        drained
    }

    /// Convenience for draining a constant `power` over `dt`.
    #[inline]
    pub fn drain_power(&mut self, power: Power, dt: Seconds) -> EnergyFx {
        self.drain_fx(quantise(power, dt))
    }
}

impl Default for Capacitor {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Display for Capacitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "capacitor: {:.2} / {:.2} mJ ({:.0} %)",
            self.energy.as_millijoules(),
            self.max_energy.as_millijoules(),
            self.state_of_charge() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tech45::constants::E_MAX;

    #[test]
    fn paper_default_stores_25_mj() {
        let cap = Capacitor::paper_default();
        assert!((cap.max_energy().as_millijoules() - E_MAX.as_millijoules()).abs() < 1e-9);
        assert!(cap.is_empty());
    }

    #[test]
    fn harvesting_fills_up_and_clamps() {
        let mut cap = Capacitor::paper_default();
        let banked = cap.harvest(Power::from_milliwatts(1.0), Seconds::new(10.0));
        assert!((banked.as_millijoules() - 10.0).abs() < 1e-9);
        assert!((cap.energy().as_millijoules() - 10.0).abs() < 1e-9);
        // Harvest far more than fits: clamp at 25 mJ.
        let banked = cap.harvest(Power::from_milliwatts(10.0), Seconds::new(10.0));
        assert!((banked.as_millijoules() - 15.0).abs() < 1e-9);
        assert_eq!(cap.energy_fx(), cap.max_energy_fx());
        assert!((cap.state_of_charge() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_power_is_treated_as_zero() {
        let mut cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(5.0));
        let banked = cap.harvest(Power::from_milliwatts(-3.0), Seconds::new(10.0));
        assert_eq!(banked, EnergyFx::ZERO);
        assert!((cap.energy().as_millijoules() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn drain_saturates_at_zero() {
        let mut cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(1.0));
        let drained = cap.drain(Energy::from_millijoules(3.0));
        assert!((drained.as_millijoules() - 1.0).abs() < 1e-12);
        assert!(cap.is_empty());
        let drained = cap.drain(Energy::from_millijoules(1.0));
        assert_eq!(drained, EnergyFx::ZERO);
    }

    #[test]
    fn drain_power_integrates_over_time() {
        let mut cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(10.0));
        cap.drain_power(Power::from_microwatts(100.0), Seconds::new(10.0));
        assert!((cap.energy().as_millijoules() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn with_energy_clamps_to_capacity() {
        let cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(99.0));
        assert_eq!(cap.energy_fx(), cap.max_energy_fx());
        let cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(-5.0));
        assert!(cap.is_empty());
    }

    #[test]
    fn the_cell_view_mutates_the_capacitor_in_place() {
        let mut cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(5.0));
        let mut cell = cap.cell();
        assert!((cell.max_energy().as_millijoules() - 25.0).abs() < 1e-9);
        let banked = cell.harvest(Power::from_milliwatts(1.0), Seconds::new(2.0));
        assert!((banked.as_millijoules() - 2.0).abs() < 1e-12);
        let drained = cell.drain(Energy::from_millijoules(1.0));
        assert!((drained.as_millijoules() - 1.0).abs() < 1e-12);
        cell.drain_power(Power::from_milliwatts(1.0), Seconds::new(1.0));
        assert!((cell.energy().as_millijoules() - 5.0).abs() < 1e-12);
        assert!((cap.energy().as_millijoules() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quantisation_happens_once_at_the_boundary() {
        // Identical f64 power×dt products quantise to identical fixed-point
        // amounts, so repeating a tick k times equals one k-fold multiply-add.
        let mut cap = Capacitor::paper_default();
        let per_tick = cap.harvest(Power::from_microwatts(137.3), Seconds::new(0.25));
        for _ in 0..499 {
            let banked = cap.harvest(Power::from_microwatts(137.3), Seconds::new(0.25));
            assert_eq!(banked, per_tick);
        }
        assert_eq!(cap.energy_fx(), per_tick * 500);
    }

    #[test]
    fn display_shows_millijoules() {
        let cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(12.5));
        let text = cap.to_string();
        assert!(text.contains("12.50") && text.contains("25.00"));
    }
}
