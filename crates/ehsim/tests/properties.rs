//! Property tests of the energy-harvesting substrate: capacitor invariants
//! and the ordering of the PMU thresholds under any safe-zone margin.

use ehsim::capacitor::Capacitor;
use ehsim::pmu::Thresholds;
use proptest::prelude::*;
use tech45::units::{Energy, Power, Seconds};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stored energy stays inside `[0, max_energy]` across any interleaving
    /// of harvest, drain and drain_power calls.
    #[test]
    fn capacitor_energy_stays_in_bounds(
        initial_mj in 0.0_f64..30.0,
        ops in prop::collection::vec((0_u8..3, 0.0_f64..4.0), 1..300),
    ) {
        let mut cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(initial_mj));
        for (kind, magnitude) in ops {
            match kind {
                0 => {
                    cap.harvest(Power::from_milliwatts(magnitude), Seconds::new(1.0));
                }
                1 => {
                    cap.drain(Energy::from_millijoules(magnitude));
                }
                _ => {
                    cap.drain_power(Power::from_milliwatts(magnitude), Seconds::new(1.0));
                }
            }
            prop_assert!(cap.energy() >= Energy::ZERO, "energy went negative: {cap}");
            prop_assert!(cap.energy() <= cap.max_energy(), "energy exceeded capacity: {cap}");
            prop_assert!((0.0..=1.0).contains(&cap.state_of_charge()), "{cap}");
        }
    }

    /// Harvesting an amount and then discharging the same amount never ends
    /// above the starting level (the harvester clamps at capacity, the
    /// discharge does not), and with headroom the round trip is exact.
    #[test]
    fn harvest_discharge_round_trip_is_monotone(
        initial_mj in 0.0_f64..25.0,
        amount_mj in 0.0_f64..40.0,
    ) {
        let initial = Energy::from_millijoules(initial_mj);
        let mut cap = Capacitor::paper_default().with_energy(initial);
        let start = cap.energy();
        let banked = cap.harvest(Power::from_milliwatts(amount_mj), Seconds::new(1.0));
        prop_assert!(banked <= (Energy::from_millijoules(amount_mj) + Energy::from_millijoules(1e-9)).to_fx());
        let drained = cap.drain(Energy::from_millijoules(amount_mj));
        prop_assert!(cap.energy() <= start + Energy::from_millijoules(1e-9),
            "round trip gained energy: start {start}, end {}", cap.energy());
        // With headroom for the whole amount the round trip is lossless.
        if start.as_millijoules() + amount_mj <= cap.max_energy().as_millijoules() {
            prop_assert!((banked.as_millijoules() - amount_mj).abs() < 1e-9);
            prop_assert!((drained.as_millijoules() - amount_mj).abs() < 1e-9);
            prop_assert!((cap.energy().as_millijoules() - start.as_millijoules()).abs() < 1e-9);
        }
    }

    /// Larger harvests never bank less, and repeated draining is monotone
    /// non-increasing.
    #[test]
    fn harvesting_and_draining_are_monotone(
        initial_mj in 0.0_f64..25.0,
        a_mj in 0.0_f64..30.0,
        b_mj in 0.0_f64..30.0,
    ) {
        let (lo, hi) = if a_mj <= b_mj { (a_mj, b_mj) } else { (b_mj, a_mj) };
        let fresh = || Capacitor::paper_default().with_energy(Energy::from_millijoules(initial_mj));
        let mut cap_lo = fresh();
        let mut cap_hi = fresh();
        let banked_lo = cap_lo.harvest(Power::from_milliwatts(lo), Seconds::new(1.0));
        let banked_hi = cap_hi.harvest(Power::from_milliwatts(hi), Seconds::new(1.0));
        prop_assert!(banked_lo <= banked_hi + Energy::from_millijoules(1e-12).to_fx());
        prop_assert!(cap_lo.energy() <= cap_hi.energy() + Energy::from_millijoules(1e-12));

        let mut cap = fresh();
        let mut previous = cap.energy();
        for _ in 0..8 {
            cap.drain(Energy::from_millijoules(lo));
            prop_assert!(cap.energy() <= previous);
            previous = cap.energy();
        }
    }

    /// Any safe-zone margin the campaigns sweep keeps the thresholds in
    /// their Algorithm-1 order, with the safe zone exactly `margin` above
    /// `Th_Bk`.
    #[test]
    fn safe_zone_band_follows_the_margin(margin_mj in 0.0_f64..4.0) {
        let margin = Energy::from_millijoules(margin_mj);
        let thresholds = Thresholds::paper_default().with_safe_zone_margin(margin);
        prop_assert!(thresholds.is_consistent(), "{thresholds}");
        prop_assert_eq!(thresholds.safe_zone, thresholds.backup + margin);
    }
}
