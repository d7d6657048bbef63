//! Equivalence of the cached pipeline path and direct per-scheme evaluation.
//!
//! `compare_all_schemes` and the experiment sweeps share the expensive
//! scheme-independent products (circuit figures, operand tree, policy
//! restructuring, NVM replacement) through `CircuitArtifacts`.  Every cached
//! product is a pure function of its inputs, so the shared path must produce
//! **bit-identical** numbers to evaluating each scheme from freshly built
//! artifacts — these tests pin that contract across the trimmed registry.
//! (`PdpBreakdown`, `ReplacementSummary` and `SchemeResult` compare their
//! `f64` fields with exact equality, so `assert_eq!` is a bitwise check.)
//! The last tests check the pipeline's output itself: every replaced
//! registry circuit still computes its original's function, keeps its
//! original's names, and has the levels derived from its original's.

use diac_core::pipeline::SynthesisPipeline;
use diac_core::schemes::{compare_all_schemes, SchemeContext, SchemeKind};
use diac_core::verify::NV_BUFFER_SUFFIX;
use diac_core::Policy;
use netlist::equiv::EquivConfig;
use netlist::levelize::levelize;
use netlist::suite::BenchmarkSuite;
use netlist::{GateId, GateKind, Netlist};
use tech45::nvm::NvmTechnology;

#[test]
fn shared_artifacts_match_fresh_artifacts_on_every_circuit() {
    let ctx = SchemeContext::default();
    let pipeline = SynthesisPipeline::new(ctx.clone());
    for spec in BenchmarkSuite::diac_paper_small().iter() {
        let netlist = spec.materialize().expect("registry circuits materialise");
        let shared = pipeline.prepare(&netlist).expect("preparation succeeds");
        for kind in SchemeKind::ALL {
            let cached =
                pipeline.evaluate_in(&shared, pipeline.context(), kind).expect("cached evaluation");
            // Fresh artifacts per scheme = the uncached path: tree, policy
            // and replacement all rebuilt from the netlist.
            let fresh_artifacts = pipeline.prepare(&netlist).expect("fresh preparation");
            let fresh = pipeline
                .evaluate_in(&fresh_artifacts, pipeline.context(), kind)
                .expect("fresh evaluation");
            assert_eq!(
                cached.breakdown, fresh.breakdown,
                "{}/{kind}: cached PdpBreakdown deviates from the uncached path",
                spec.name
            );
            assert_eq!(
                cached.replacement, fresh.replacement,
                "{}/{kind}: cached ReplacementSummary deviates from the uncached path",
                spec.name
            );
            assert_eq!(cached, fresh, "{}/{kind}: full SchemeResult deviates", spec.name);
        }
    }
}

#[test]
fn compare_all_schemes_matches_per_scheme_pipeline_evaluation() {
    let ctx = SchemeContext::default();
    let pipeline = SynthesisPipeline::new(ctx.clone());
    for spec in BenchmarkSuite::diac_paper_small().iter() {
        let netlist = spec.materialize().expect("registry circuits materialise");
        let comparison = compare_all_schemes(&netlist, &ctx).expect("comparison succeeds");
        let artifacts = pipeline.prepare(&netlist).expect("preparation succeeds");
        for kind in SchemeKind::ALL {
            let direct = pipeline
                .evaluate_in(&artifacts, pipeline.context(), kind)
                .expect("evaluation succeeds");
            let from_comparison =
                comparison.result(kind).expect("comparison covers all four schemes");
            assert_eq!(
                &direct, from_comparison,
                "{}/{kind}: compare_all_schemes deviates from pipeline evaluation",
                spec.name
            );
        }
    }
}

#[test]
fn technology_sweeps_over_shared_artifacts_match_fresh_contexts() {
    let base = SchemeContext::default();
    let pipeline = SynthesisPipeline::new(base.clone());
    let netlist = BenchmarkSuite::diac_paper().materialize("s510").expect("s510 materialises");
    let shared = pipeline.prepare(&netlist).expect("preparation succeeds");
    for technology in NvmTechnology::ALL {
        let ctx = base.clone().with_nvm(technology);
        let swept = pipeline
            .evaluate_in(&shared, &ctx, SchemeKind::DiacOptimized)
            .expect("swept evaluation");
        // The uncached reference: a pipeline whose base context already uses
        // the swept technology, with its own fresh artifacts.
        let reference_pipeline = SynthesisPipeline::new(ctx.clone());
        let reference_artifacts = reference_pipeline.prepare(&netlist).expect("fresh preparation");
        let reference = reference_pipeline
            .evaluate_in(&reference_artifacts, &ctx, SchemeKind::DiacOptimized)
            .expect("reference evaluation");
        assert_eq!(swept, reference, "{technology}: swept evaluation deviates");
        // A context whose only edit is the replacement technology is priced
        // in that technology by every scheme, exactly like `with_nvm`.
        let mut edited = base.clone();
        edited.replacement.technology = technology;
        for kind in SchemeKind::ALL {
            let via_with_nvm = pipeline.evaluate_in(&shared, &ctx, kind).expect("with_nvm");
            let via_field = pipeline.evaluate_in(&shared, &edited, kind).expect("edited field");
            assert_eq!(
                via_field, via_with_nvm,
                "{technology}/{kind}: setting only replacement.technology deviates from with_nvm"
            );
        }
    }
}

/// Every circuit of the 24-circuit registry, run through the default flow
/// (clustering, Policy3 restructuring, NVM replacement, NV-boundary
/// rewrite), matches its original under seeded random vectors through the
/// 64-lane bit simulator.  A mismatch fails with the exact counterexample.
#[test]
fn every_registry_circuit_survives_replacement_functionally() {
    let pipeline = SynthesisPipeline::new(SchemeContext::default());
    let suite = BenchmarkSuite::diac_paper();
    assert_eq!(suite.len(), 24);
    for (index, spec) in suite.iter().enumerate() {
        let netlist = spec.materialize().expect("registry circuits materialise");
        let artifacts = pipeline.prepare(&netlist).expect("preparation succeeds");
        let replaced = artifacts.replaced_netlist(pipeline.context()).expect("replacement");
        // An empty rewrite would make the check vacuous.
        assert!(
            replaced.gate_count() > netlist.gate_count(),
            "{} received no NV buffers",
            spec.name
        );
        let equiv = EquivConfig {
            seed: ehsim::crng::mix64(0xD1AC_2024, index as u64),
            rounds: 4,
            cycles_per_round: 8,
        };
        let report =
            artifacts.verify_replacement(pipeline.context(), &equiv).expect("verification");
        assert!(report.equivalent(), "{}: {report}", spec.name);
        assert_eq!(report.vectors, equiv.vectors());
    }
}

/// Calls `check` on every registry circuit and its replaced design under
/// the default context and its Policy 1 and Policy 2 variants (the policy
/// contexts `synthesis_pins` prices).
fn for_every_replaced_design(mut check: impl FnMut(&str, &Netlist, &Netlist)) {
    let pipeline = SynthesisPipeline::new(experiments::default_context());
    let base = pipeline.context();
    let contexts = [Policy::Policy1, Policy::Policy2].map(|p| base.clone().with_policy(p));
    let contexts = [base, &contexts[0], &contexts[1]];
    for spec in BenchmarkSuite::diac_paper().iter() {
        let netlist = spec.materialize().expect("registry circuits materialise");
        let artifacts = pipeline.prepare(&netlist).expect("preparation succeeds");
        for ctx in contexts {
            let replaced = artifacts.replaced_netlist(ctx).expect("replacement");
            check(&format!("{}/{}", spec.name, ctx.policy), &netlist, &replaced);
        }
    }
}

/// The levels derived from the original's equal the replaced design's own:
/// the same level per gate and the same `by_level`, which is what the
/// equivalence check compiles.
#[test]
fn derived_levels_of_every_replaced_design_equal_its_levelization() {
    for_every_replaced_design(|label, netlist, replaced| {
        let derived = levelize(netlist).expect("levelizes").with_buffers(replaced);
        let levelized = levelize(replaced).expect("the replaced design levelizes");
        for id in replaced.ids() {
            assert_eq!(derived.level(id), levelized.level(id), "{label}: level of {id}");
        }
        assert_eq!(derived.by_level(), levelized.by_level(), "{label}: by_level");
        assert_eq!(derived.topological().len(), replaced.gate_count(), "{label}: order");
    });
}

/// Every name finds its own gate in the original and the replaced design;
/// the replaced design keeps every original name at its id, and each
/// buffer it appends is a `BUF` named after the driver it reads.
#[test]
fn every_name_round_trips_in_every_replaced_design() {
    for_every_replaced_design(|label, netlist, replaced| {
        for nl in [netlist, replaced] {
            for id in nl.ids() {
                assert_eq!(nl.find(nl.name_of(id)), Some(id), "{label}: `{}`", nl.name_of(id));
            }
        }
        for id in netlist.ids() {
            assert_eq!(replaced.name_of(id), netlist.name_of(id), "{label}: name of {id}");
        }
        let buffers = netlist.gate_count()..replaced.gate_count();
        assert!(!buffers.is_empty(), "{label}: no NV buffers");
        for id in buffers.map(|i| GateId(i as u32)) {
            let driver = replaced.fanin(id)[0];
            assert_eq!(replaced.gate(id).kind, GateKind::Buf, "{label}: kind of {id}");
            let expected = format!("{}{NV_BUFFER_SUFFIX}", replaced.name_of(driver));
            assert_eq!(replaced.name_of(id), expected, "{label}: name of {id}");
        }
    });
}
