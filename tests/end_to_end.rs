//! Cross-crate integration tests: netlist front-end → DIAC synthesis →
//! runtime simulation → PDP evaluation, exercised together the way the
//! examples use them.

use diac_core::prelude::*;
use ehsim::schedule::Schedule;
use isim::executor::IntermittentExecutor;
use isim::fsm::FsmConfig;
use netlist::parser::{parse_bench, parse_blif};
use netlist::suite::{BenchmarkSuite, SuiteKind};
use tech45::nvm::NvmTechnology;
use tech45::units::Seconds;

/// The full synthesis pipeline on every embedded circuit.
#[test]
fn full_pipeline_on_embedded_circuits() {
    for (name, text) in netlist::embedded::EMBEDDED_CIRCUITS {
        let nl = parse_bench(name, text).expect("embedded circuits parse");
        let mut tree = OperandTree::from_netlist(&nl).expect("tree generation");
        let bounds = PolicyBounds::relative_to(&tree, 0.3, 0.03);
        diac_core::policy::apply_policy(&mut tree, Policy::Policy3, &bounds)
            .expect("policy application");
        let enhanced =
            diac_core::replacement::insert_nvm_boundaries(tree, &ReplacementConfig::default())
                .expect("replacement");
        assert!(enhanced.summary().boundaries >= 1, "{name}");
        let hdl = generate_hdl(&enhanced).expect("codegen");
        assert!(hdl.line_count() > 5, "{name}");
        let timing = validate_timing(&enhanced, &diac_core::timing::TimingConstraints::default());
        assert!(timing.is_clean(), "{name}: {timing}");
    }
}

/// The cross-layer hand-off of the paper: FSM simulation produces the
/// intermittency profile that the PDP model consumes, and the paper's
/// qualitative conclusion (optimized DIAC wins) holds for every suite.
#[test]
fn measured_profile_feeds_the_scheme_comparison() {
    let mut exec = IntermittentExecutor::new(FsmConfig::paper_default(), Schedule::scarce());
    let stats = exec.run(Seconds::new(4000.0), Seconds::new(0.1));
    let profile = stats.intermittency_profile();
    assert!(profile.is_valid());

    let ctx = SchemeContext::default().with_profile(profile);
    let suite = BenchmarkSuite::diac_paper();
    for circuit in ["s298", "s510", "mcnc_scramble"] {
        let nl = suite.materialize(circuit).expect("registry circuit");
        let cmp = compare_all_schemes(&nl, &ctx).expect("scheme evaluation");
        let opt = cmp.normalized_pdp(SchemeKind::DiacOptimized);
        let diac = cmp.normalized_pdp(SchemeKind::Diac);
        let clustering = cmp.normalized_pdp(SchemeKind::NvClustering);
        assert!(opt < diac && diac < clustering && clustering < 1.0, "{circuit}");
    }
}

/// A BLIF design goes through the same flow as a `.bench` design.
#[test]
fn blif_front_end_joins_the_same_flow() {
    let text = "\
.model mcnc_like
.inputs a b c d
.outputs f g
.names a b t1
11 1
.names c d t2
1- 1
-1 1
.names t1 t2 f
10 1
01 1
.latch f q re clk 0
.names q t1 g
11 1
.end
";
    let nl = parse_blif("mcnc_like", text).expect("BLIF parses");
    assert_eq!(nl.flip_flop_count(), 1);
    let ctx = SchemeContext::default();
    let cmp = compare_all_schemes(&nl, &ctx).expect("schemes evaluate");
    assert!(cmp.normalized_pdp(SchemeKind::DiacOptimized) < 1.0);
}

/// The improvement grows (or at least does not shrink dramatically) with the
/// circuit size inside one family — the qualitative size trend of Fig. 5.
#[test]
fn larger_circuits_do_not_lose_the_advantage() {
    let suite = BenchmarkSuite::diac_paper();
    let ctx = SchemeContext::default();
    let small = suite.materialize("s27").expect("s27");
    let large = suite.materialize("s526").expect("s526");
    let small_gain = compare_all_schemes(&small, &ctx)
        .expect("s27 evaluation")
        .improvement(SchemeKind::DiacOptimized, SchemeKind::NvBased);
    let large_gain = compare_all_schemes(&large, &ctx)
        .expect("s526 evaluation")
        .improvement(SchemeKind::DiacOptimized, SchemeKind::NvBased);
    assert!(small_gain > 0.0 && large_gain > 0.0);
    assert!(large_gain > small_gain * 0.5, "large {large_gain:.1}% vs small {small_gain:.1}%");
}

/// Every circuit of the registry materialises and levelizes, including the
/// multi-thousand-gate ITC-99 reconstructions.
#[test]
fn the_whole_registry_is_materialisable() {
    let suite = BenchmarkSuite::diac_paper();
    assert_eq!(suite.len(), 24);
    for spec in suite.iter() {
        let nl = spec.materialize().expect("materialise");
        assert_eq!(nl.combinational_count(), spec.gates, "{}", spec.name);
        let levels = netlist::levelize::levelize(&nl).expect("levelize");
        assert!(levels.depth() >= 2, "{}", spec.name);
    }
    assert_eq!(suite.of_suite(SuiteKind::Mcnc).count(), 12);
}

/// Changing the NVM technology never changes who wins, only by how much —
/// the Section IV.C fairness argument.
#[test]
fn the_winner_is_stable_across_nvm_technologies() {
    let nl = BenchmarkSuite::diac_paper().materialize("s400").expect("s400");
    for tech in NvmTechnology::ALL {
        let ctx = SchemeContext::default().with_nvm(tech);
        let cmp = compare_all_schemes(&nl, &ctx).expect("evaluation");
        let ranking: Vec<f64> = SchemeKind::ALL.iter().map(|&k| cmp.normalized_pdp(k)).collect();
        assert!(
            ranking[3] <= ranking[2] && ranking[2] < ranking[1] && ranking[1] < ranking[0],
            "{tech}: {ranking:?}"
        );
    }
}
