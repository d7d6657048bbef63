//! Property-based tests of the core invariants, spanning the substrate
//! crates and the DIAC synthesis flow.

use diac_core::prelude::*;
use ehsim::capacitor::Capacitor;
use netlist::synth::{generate, SynthesisConfig};
use proptest::prelude::*;
use tech45::nvm::{NvmCell, NvmTechnology};
use tech45::units::{Energy, Power, Seconds};

/// A strategy for small-but-varied synthetic circuit configurations.
fn synth_config() -> impl Strategy<Value = SynthesisConfig> {
    (20_usize..400, 2_usize..12, 1_usize..8, 0_usize..24, 2_usize..12, 0_u64..1000).prop_map(
        |(gates, pis, pos, ffs, depth, seed)| SynthesisConfig {
            name: format!("prop_{seed}"),
            combinational_gates: gates,
            primary_inputs: pis,
            primary_outputs: pos,
            flip_flops: ffs,
            target_depth: depth.min(gates),
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The synthetic generator always honours its structural contract.
    #[test]
    fn generated_circuits_match_their_configuration(config in synth_config()) {
        let nl = generate(&config).expect("valid configurations generate");
        prop_assert_eq!(nl.combinational_count(), config.combinational_gates);
        prop_assert_eq!(nl.primary_inputs().len(), config.primary_inputs);
        prop_assert_eq!(nl.primary_outputs().len(), config.primary_outputs);
        prop_assert_eq!(nl.flip_flop_count(), config.flip_flops);
        // And the result is always acyclic.
        prop_assert!(netlist::levelize::levelize(&nl).is_ok());
    }

    /// `.bench` round-tripping preserves the structural counts.
    #[test]
    fn bench_round_trip_is_lossless(config in synth_config()) {
        let nl = generate(&config).expect("generates");
        let text = nl.to_bench();
        let reparsed = netlist::parser::parse_bench(nl.name(), &text).expect("reparses");
        prop_assert_eq!(reparsed.gate_count(), nl.gate_count());
        prop_assert_eq!(reparsed.combinational_count(), nl.combinational_count());
        prop_assert_eq!(reparsed.flip_flop_count(), nl.flip_flop_count());
        prop_assert_eq!(reparsed.primary_outputs().len(), nl.primary_outputs().len());
    }

    /// Tree generation conserves gates, and the policies conserve energy.
    #[test]
    fn tree_flow_conserves_gates_and_energy(config in synth_config()) {
        let nl = generate(&config).expect("generates");
        let tree = OperandTree::from_netlist(&nl).expect("tree");
        let clustered: usize = tree.iter().map(|o| o.gates.len()).sum();
        prop_assert_eq!(clustered, nl.combinational_count());

        let mut restructured = tree.clone();
        let bounds = PolicyBounds::relative_to(&restructured, 0.3, 0.02);
        diac_core::policy::apply_policy(&mut restructured, Policy::Policy3, &bounds)
            .expect("policy");
        prop_assert!(restructured.validate().is_ok());
        let clustered_after: usize = restructured.iter().map(|o| o.gates.len()).sum();
        prop_assert_eq!(clustered_after, nl.combinational_count());
    }

    /// Replacement never exceeds its budget by more than one operand, always
    /// protects the roots, and a tighter budget never yields fewer boundaries.
    #[test]
    fn replacement_budget_invariants(config in synth_config(), loose in 0.2_f64..0.6) {
        let nl = generate(&config).expect("generates");
        let tree = OperandTree::from_netlist(&nl).expect("tree");
        let tight = loose / 4.0;
        let loose_cfg = ReplacementConfig { budget_fraction: loose, ..ReplacementConfig::default() };
        let tight_cfg = ReplacementConfig { budget_fraction: tight, ..ReplacementConfig::default() };
        let loose_run = diac_core::replacement::insert_nvm_boundaries(tree.clone(), &loose_cfg)
            .expect("loose replacement");
        let tight_run = diac_core::replacement::insert_nvm_boundaries(tree, &tight_cfg)
            .expect("tight replacement");
        prop_assert!(tight_run.summary().boundaries >= loose_run.summary().boundaries);
        for run in [&loose_run, &tight_run] {
            for root in run.tree().roots() {
                prop_assert!(run.tree().operand(root).dict.nvm_boundary);
            }
            let biggest: Energy = run
                .tree()
                .iter()
                .map(|o| o.dict.energy())
                .fold(Energy::ZERO, Energy::max);
            prop_assert!(
                run.summary().max_unsaved_energy <= run.summary().energy_budget + biggest * 1.001
            );
        }
    }

    /// The capacitor never goes negative, never exceeds its capacity, and
    /// conserves energy across any interleaving of harvest and drain calls.
    #[test]
    fn capacitor_energy_conservation(ops in prop::collection::vec((0.0_f64..2.0, 0.0_f64..2.0), 1..200)) {
        let mut cap = Capacitor::paper_default();
        let mut banked_total = 0.0;
        let mut drained_total = 0.0;
        for (harvest_mj, drain_mj) in ops {
            let banked = cap.harvest(
                Power::from_milliwatts(harvest_mj),
                Seconds::new(1.0),
            );
            banked_total += banked.as_millijoules();
            let drained = cap.drain(Energy::from_millijoules(drain_mj));
            drained_total += drained.as_millijoules();
            prop_assert!(cap.energy().as_millijoules() >= -1e-9);
            prop_assert!(cap.energy().as_millijoules() <= 25.0 + 1e-9);
        }
        let stored = cap.energy().as_millijoules();
        prop_assert!((banked_total - drained_total - stored).abs() < 1e-6);
    }

    /// Every NVM technology keeps writes at least as expensive as reads and
    /// scales array backup cost monotonically with the bit count.
    #[test]
    fn nvm_cost_monotonicity(bits_a in 1_u64..2048, bits_b in 1_u64..2048) {
        for tech in NvmTechnology::ALL {
            let cell = NvmCell::for_technology(tech);
            prop_assert!(cell.write_energy >= cell.read_energy);
            let array = tech45::array::NvmArray::new(tech, 4096, 32);
            let (lo, hi) = if bits_a <= bits_b { (bits_a, bits_b) } else { (bits_b, bits_a) };
            prop_assert!(array.backup_energy(lo) <= array.backup_energy(hi));
            prop_assert!(array.backup_latency(lo) <= array.backup_latency(hi));
        }
    }

    /// The scheme comparison preserves the paper's ordering for arbitrary
    /// (valid) intermittency profiles, not just the presets.
    #[test]
    fn scheme_ordering_is_robust_to_the_profile(
        usable_mj in 2.0_f64..20.0,
        harvest_uw in 10.0_f64..500.0,
        safe_fraction in 0.05_f64..0.9,
        loss_fraction in 0.05_f64..0.95,
    ) {
        let profile = diac_core::pdp::IntermittencyProfile {
            usable_energy_per_cycle: Energy::from_millijoules(usable_mj),
            average_harvest_power: Power::from_microwatts(harvest_uw),
            safe_zone_recovery_fraction: safe_fraction,
            power_loss_fraction: loss_fraction,
        };
        let nl = netlist::parser::parse_bench("s27", netlist::embedded::S27_BENCH)
            .expect("s27 parses");
        let ctx = SchemeContext::default().with_profile(profile);
        let cmp = compare_all_schemes(&nl, &ctx).expect("evaluation");
        let nv = cmp.normalized_pdp(SchemeKind::NvBased);
        let cl = cmp.normalized_pdp(SchemeKind::NvClustering);
        let diac = cmp.normalized_pdp(SchemeKind::Diac);
        let opt = cmp.normalized_pdp(SchemeKind::DiacOptimized);
        prop_assert!((nv - 1.0).abs() < 1e-9);
        prop_assert!(opt <= diac + 1e-9);
        prop_assert!(diac < cl);
        prop_assert!(cl < nv);
    }
}
