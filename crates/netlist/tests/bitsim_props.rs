//! Property suite: the scalar [`netlist::sim::Simulator`] and lane 0 of the
//! 64-lane [`netlist::bitsim::BitSim`] agree on random netlists driven by
//! random patterns — outputs, next state, and every internal signal, across
//! several sequential cycles.  The remaining 63 lanes carry independent
//! random patterns to make cross-lane contamination observable.  The same
//! cycles settled eight input sets at a time (`[u64; 8]` words, the width
//! the equivalence checker uses) must match eight one-word settles.
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
use netlist::{GateId, GateKind, Netlist, NetlistBuilder};

/// Input sets settled together at the equivalence checker's width.
const WIDE: usize = 8;

/// Steps the scalar simulator and a [`BitSim`] side by side for `cycles`
/// cycles and asserts that lane 0 of every signal, output and next-state
/// word equals the scalar value.
///
/// Each cycle also settles at `R = 8`, the width the equivalence checker
/// uses: word 0 carries the `R = 1` input set and words 1..8 seven more
/// random sets, each following its own state trajectory, and word `k` of
/// every signal and next state must equal an `R = 1` settle of set `k`.
fn assert_lane_zero_matches_scalar(nl: &Netlist, pattern_seed: u64, cycles: usize) {
    let mut scalar = Simulator::new(nl).expect("scalar sim");
    let bit = BitSim::new(nl).expect("bit sim");
    let mut rng = StdRng::seed_from_u64(pattern_seed);
    let mut extra = StdRng::seed_from_u64(!pattern_seed);
    let d_inputs: Vec<GateId> = nl.flip_flops().iter().map(|&ff| nl.fanin(ff)[0]).collect();
    let mut states = vec![vec![[0_u64]; d_inputs.len()]; WIDE];
    let mut wide_state = vec![[0_u64; WIDE]; d_inputs.len()];
    let mut wide_words = vec![[0_u64; WIDE]; nl.gate_count()];
    let mut words = vec![vec![[0_u64]; nl.gate_count()]; WIDE];

    for cycle in 0..cycles {
        // Lane 0 of set 0 carries the scalar pattern; lanes 1..64 are noise.
        let wide_inputs: Vec<[u64; WIDE]> = (0..nl.primary_inputs().len())
            .map(|_| {
                let first = rng.next_u64();
                std::array::from_fn(|k| if k == 0 { first } else { extra.next_u64() })
            })
            .collect();
        let pattern: Vec<bool> = wide_inputs.iter().map(|w| lane(w[0], 0)).collect();

        for (k, (state, words)) in states.iter_mut().zip(&mut words).enumerate() {
            let inputs: Vec<[u64; 1]> = wide_inputs.iter().map(|w| [w[k]]).collect();
            bit.settle(&inputs, state, words).expect("bit settle");
            for (slot, &d) in state.iter_mut().zip(&d_inputs) {
                *slot = words[d.index()];
            }
        }
        bit.settle(&wide_inputs, &wide_state, &mut wide_words).expect("wide settle");
        for (slot, &d) in wide_state.iter_mut().zip(&d_inputs) {
            *slot = wide_words[d.index()];
        }

        let s = scalar.step_dense(&pattern).expect("scalar step");
        for (i, (&sv, po)) in s.outputs.iter().zip(nl.primary_outputs()).enumerate() {
            prop_assert_eq!(sv, lane(words[0][po.index()][0], 0), "cycle {} output {}", cycle, i);
        }
        for (i, (&sv, next)) in s.next_state.iter().zip(&states[0]).enumerate() {
            prop_assert_eq!(sv, lane(next[0], 0), "cycle {} state {}", cycle, i);
        }
        // Every internal signal agrees too, not just the interface.
        for id in nl.ids() {
            prop_assert_eq!(
                scalar.value(id),
                lane(words[0][id.index()][0], 0),
                "cycle {} signal {}",
                cycle,
                nl.name_of(id)
            );
        }
        prop_assert!(scalar.is_consistent());
        // Word k of the wide settle is the narrow settle of set k.
        for (k, (state, words)) in states.iter().zip(&words).enumerate() {
            for id in nl.ids() {
                prop_assert_eq!(
                    wide_words[id.index()][k],
                    words[id.index()][0],
                    "cycle {} word {} signal {}",
                    cycle,
                    k,
                    nl.name_of(id)
                );
            }
            for (slot, (wide, narrow)) in wide_state.iter().zip(state).enumerate() {
                prop_assert_eq!(wide[k], narrow[0], "cycle {} word {} state {}", cycle, k, slot);
            }
        }
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
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 24 } else { 96 }))]

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
}
