//! Property suite: the scalar [`netlist::sim::Simulator`] and lane 0 of the
//! 64-lane [`netlist::bitsim::BitSim`] agree on random netlists driven by
//! random patterns — outputs, next state, and every internal signal, across
//! several sequential cycles.  The remaining 63 lanes carry independent
//! random patterns to make cross-lane contamination observable.
//!
//! Two netlist sources feed it: the synthetic generator (the shapes the
//! registry circuits have, fan-in at most 4) and [`odd_netlist`], which
//! builds what parsed `.bench`/BLIF files may contain and the generator never
//! makes: wide gates, constants read as fan-ins, repeated fan-ins.

use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng, StdRng};

use netlist::bitsim::{lane, BitSim};
use netlist::sim::Simulator;
use netlist::synth::{generate, SynthesisConfig};
use netlist::{GateKind, Netlist, NetlistBuilder};

/// Steps the scalar simulator and a [`BitSim`] side by side for `cycles`
/// cycles and asserts that lane 0 of every signal, output and next-state
/// word equals the scalar value.
fn assert_lane_zero_matches_scalar(nl: &Netlist, pattern_seed: u64, cycles: usize) {
    let mut scalar = Simulator::new(nl).expect("scalar sim");
    let mut bit = BitSim::new(nl).expect("bit sim");
    let mut rng = StdRng::seed_from_u64(pattern_seed);

    for cycle in 0..cycles {
        // Lane 0 carries the scalar pattern; lanes 1..64 are noise.
        let words: Vec<u64> = (0..nl.primary_inputs().len()).map(|_| rng.next_u64()).collect();
        let pattern: Vec<bool> = words.iter().map(|&w| lane(w, 0)).collect();

        let s = scalar.step_dense(&pattern).expect("scalar step");
        let b = bit.step(&words).expect("bit step");

        for (i, (&sv, &bw)) in s.outputs.iter().zip(&b.outputs).enumerate() {
            prop_assert_eq!(sv, lane(bw, 0), "cycle {} output {}", cycle, i);
        }
        for (i, (&sv, &bw)) in s.next_state.iter().zip(&b.next_state).enumerate() {
            prop_assert_eq!(sv, lane(bw, 0), "cycle {} state {}", cycle, i);
        }
        // Every internal signal agrees too, not just the interface.
        for id in nl.ids() {
            prop_assert_eq!(
                scalar.value(id),
                lane(bit.value(id), 0),
                "cycle {} signal {}",
                cycle,
                nl.gate(id).name.clone()
            );
        }
        prop_assert!(scalar.is_consistent());
    }
}

/// A random netlist of `gates` combinational gates built with
/// [`NetlistBuilder`]: every associative kind at fan-in 2–8 (the builder's
/// minimum is 2; buffers and inverters are the 1-input case), multiplexers,
/// `Const0`/`Const1` sources read by gates, repeated fan-in ids, and
/// flip-flops whose D input may be any gate, so state feeds back.
fn odd_netlist(seed: u64, gates: usize) -> Netlist {
    const KINDS: [GateKind; 9] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Buf,
        GateKind::Not,
        GateKind::Mux,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new("odd");
    let mut signals: Vec<String> = Vec::new();
    for i in 0..rng.gen_range(1..6_usize) {
        b.add_input(format!("i{i}"));
        signals.push(format!("i{i}"));
    }
    for (name, kind) in [("c0", GateKind::Const0), ("c1", GateKind::Const1)] {
        b.add_gate(name, kind, vec![]).unwrap();
        signals.push(name.to_string());
    }
    // Flip-flop outputs are readable from the start; their D inputs are
    // wired once every gate exists.
    let flip_flops = rng.gen_range(0..5_usize);
    signals.extend((0..flip_flops).map(|f| format!("q{f}")));
    for g in 0..gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = match kind {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::Mux => 3,
            _ => rng.gen_range(2..9_usize),
        };
        let mut fanin: Vec<String> =
            (0..arity).map(|_| signals[rng.gen_range(0..signals.len())].clone()).collect();
        if arity > 1 && rng.gen_bool(0.3) {
            fanin[arity - 1] = fanin[0].clone();
        }
        b.add_gate_by_names(format!("g{g}"), kind, fanin).unwrap();
        signals.push(format!("g{g}"));
    }
    for f in 0..flip_flops {
        let d = format!("g{}", rng.gen_range(0..gates));
        b.add_gate_by_names(format!("q{f}"), GateKind::Dff, vec![d]).unwrap();
    }
    for _ in 0..rng.gen_range(1..4_usize) {
        b.mark_output_name(format!("g{}", rng.gen_range(0..gates)));
    }
    b.finish().expect("odd netlist")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scalar_simulator_matches_bitsim_lane_zero(
        (gates, seed, pattern_seed) in (20_usize..220, 0_u64..1_000, 0_u64..1_000)
    ) {
        let config = SynthesisConfig::sized("prop", gates).with_seed(seed);
        let nl = generate(&config).expect("synthetic netlist");
        assert_lane_zero_matches_scalar(&nl, pattern_seed, 4);
    }

    #[test]
    fn wide_and_odd_gates_match_the_scalar_simulator(
        (gates, seed, pattern_seed) in (1_usize..120, 0_u64..10_000, 0_u64..1_000)
    ) {
        let nl = odd_netlist(seed, gates);
        assert_lane_zero_matches_scalar(&nl, pattern_seed, 5);
    }

    #[test]
    fn named_and_dense_input_shims_agree_on_random_netlists(
        (gates, seed) in (20_usize..120, 0_u64..500)
    ) {
        let nl = generate(&SynthesisConfig::sized("shim", gates).with_seed(seed)).unwrap();
        let mut dense = Simulator::new(&nl).unwrap();
        let mut named = Simulator::new(&nl).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let pattern: Vec<bool> = (0..nl.primary_inputs().len()).map(|_| rng.gen_bool(0.5)).collect();
        let map: std::collections::HashMap<String, bool> = nl
            .primary_inputs()
            .iter()
            .zip(&pattern)
            .map(|(&pi, &v)| (nl.gate(pi).name.clone(), v))
            .collect();
        prop_assert_eq!(dense.step_dense(&pattern).unwrap(), named.step(&map).unwrap());
    }
}
