//! Parser round-trips over the evaluation suite: `.bench` parse → writer
//! emit → re-parse must produce an isomorphic netlist — same names, kinds,
//! interface lists and CSR fan-in spans — that simulates identically.

use netlist::equiv::{check_equivalence, EquivConfig};
use netlist::parser::parse_bench;
use netlist::suite::BenchmarkSuite;
use netlist::{BitSim, GateKind, Netlist};

/// Asserts `a` and `b` are isomorphic: identical gate tables (names, kinds,
/// resolved fan-in name lists — i.e. the CSR spans point at the same
/// signals) and identical interface name sequences.
fn assert_isomorphic(a: &Netlist, b: &Netlist, circuit: &str) {
    assert_eq!(a.gate_count(), b.gate_count(), "{circuit}: gate count");
    let names = |nl: &Netlist, ids: &[netlist::GateId]| -> Vec<String> {
        ids.iter().map(|&id| nl.name_of(id).to_string()).collect()
    };
    assert_eq!(
        names(a, a.primary_inputs()),
        names(b, b.primary_inputs()),
        "{circuit}: primary inputs"
    );
    assert_eq!(
        names(a, a.primary_outputs()),
        names(b, b.primary_outputs()),
        "{circuit}: primary outputs"
    );
    assert_eq!(names(a, a.flip_flops()), names(b, b.flip_flops()), "{circuit}: flip-flops");
    for gate in a.iter() {
        let name = a.name_of(gate.id);
        let other_id = b
            .find(name)
            .unwrap_or_else(|| panic!("{circuit}: gate `{name}` lost in the round trip"));
        let other = b.gate(other_id);
        assert_eq!(gate.kind, other.kind, "{circuit}: kind of `{name}`");
        assert_eq!(gate.fanin_count(), other.fanin_count(), "{circuit}: span length of `{name}`");
        let fanin_names_a: Vec<&str> = a.fanin(gate.id).iter().map(|&f| a.name_of(f)).collect();
        let fanin_names_b: Vec<&str> = b.fanin(other_id).iter().map(|&f| b.name_of(f)).collect();
        assert_eq!(fanin_names_a, fanin_names_b, "{circuit}: fan-ins of `{name}`");
    }
}

#[test]
fn bench_round_trips_are_isomorphic_for_the_whole_suite() {
    for spec in BenchmarkSuite::diac_paper().iter() {
        let original = spec.materialize().expect(spec.name);
        let emitted = original.to_bench();
        let reparsed = parse_bench(spec.name, &emitted).expect(spec.name);
        assert_isomorphic(&original, &reparsed, spec.name);
        // And the round trip is a fixed point: emitting again is identical.
        assert_eq!(emitted, reparsed.to_bench(), "{}: writer is not a fixed point", spec.name);
    }
}

#[test]
fn round_tripped_netlists_simulate_identically() {
    // Structure is checked above; this pins function too, via the 64-lane
    // equivalence harness (the reparsed design is a perfect clone, so any
    // disagreement is a writer/parser bug).
    for name in ["s27", "s298", "mcnc_voting"] {
        let original = BenchmarkSuite::diac_paper().materialize(name).unwrap();
        let reparsed = parse_bench(name, &original.to_bench()).unwrap();
        let report = check_equivalence(
            &BitSim::new(&original).unwrap(),
            &BitSim::new(&reparsed).unwrap(),
            &EquivConfig::default(),
        )
        .unwrap();
        assert!(report.equivalent(), "{report}");
    }
}

#[test]
fn dff_gates_survive_the_writer_with_their_kind() {
    let nl = BenchmarkSuite::diac_paper().materialize("s27").unwrap();
    let reparsed = parse_bench("s27", &nl.to_bench()).unwrap();
    for &ff in reparsed.flip_flops() {
        assert_eq!(reparsed.gate(ff).kind, GateKind::Dff);
    }
    assert_eq!(reparsed.flip_flop_count(), nl.flip_flop_count());
}
