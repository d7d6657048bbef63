//! Pins the policy restructuring of every circuit in the full 24-circuit
//! registry under the default scheme context.
//!
//! The operand tree assigns ids append-only: a split appends its parts, a
//! merge retires its second operand in place.  The policy and replacement
//! tie-breaks walk ids, so the id of every live operand is part of the
//! deterministic contract.  This test pins, under each of the three
//! policies:
//!
//! * the total edit traffic over the registry (splits and merges);
//! * each circuit's live operand count after the policy;
//! * an FNV-1a digest of each restructured tree in canonical form: for
//!   every live operand in slot order, its id, name, level, sorted children,
//!   sorted parents and gates.
//!
//! It also requires that the levels the edits leave behind are current:
//! equal to those of a full `recompute_levels` on a copy.
//!
//! `pipeline_equivalence` covers only the small registry; this covers the
//! circuits whose trees see the real split/merge traffic.

use diac_core::policy::{apply_policy, Policy, PolicyBounds, PolicyOutcome};
use diac_core::schemes::SchemeContext;
use diac_core::tree::{OperandTree, TreeGeneratorConfig};
use netlist::suite::BenchmarkSuite;
use tech45::cells::CellLibrary;

/// The split/merge bounds `SynthesisPipeline` restructures with: split above
/// 25 % of the tree energy, merge below 2 %.
const UPPER_FRACTION: f64 = 0.25;
const LOWER_FRACTION: f64 = 0.02;

/// `(circuit, live operands after Policy3, canonical-form digest)`.
const PINS: [(&str, usize, u64); 24] = [
    ("s27", 7, 0xc0c3033d6a7b8047),
    ("s298", 18, 0x23121457504ae3e2),
    ("s344", 28, 0x4bef4672fc5659d0),
    ("s349", 28, 0xd2326ed8651e80a1),
    ("s382", 33, 0xd4aff4e6c9bcb502),
    ("s386", 30, 0x8b1ac5ff5e2a4284),
    ("s400", 37, 0xfd188746167026bd),
    ("s444", 62, 0xb99138e58d2aae99),
    ("s510", 70, 0x2dfc60493f6a3916),
    ("s526", 84, 0x1caea5367f139319),
    ("b14", 1238, 0x6662af9a2de1f358),
    ("b15", 2429, 0x7ebe429a30f9c656),
    ("mcnc_bcd_fsm", 6, 0x8ad3f4a19b9bb0b9),
    ("mcnc_elaborate_cm", 115, 0x11efcc1f38d78758),
    ("mcnc_s2s_converter", 18, 0xd029a986748d388f),
    ("mcnc_voting", 24, 0xaf9beed1baf328a2),
    ("mcnc_scramble", 60, 0xa9e9c0817bf74dc0),
    ("mcnc_guess_seq", 119, 0x0258ab237c5c8bcf),
    ("mcnc_sensor_if", 35, 0xe08ffd5286e4b07f),
    ("mcnc_viper", 572, 0xbdd80e6d051bdfe3),
    ("mcnc_key_encrypt", 307, 0x6551a8244a0611fe),
    ("mcnc_bus_if", 728, 0x12b42707d31ec5f2),
    ("mcnc_encrypt", 98, 0x7458fce6a77354ce),
    ("mcnc_bus_ctrl", 64, 0xdcaf70f7d4763993),
];

/// [`PINS`] for Policy1, which only splits.
const POLICY1_PINS: [(&str, usize, u64); 24] = [
    ("s27", 7, 0xc0c3033d6a7b8047),
    ("s298", 18, 0x23121457504ae3e2),
    ("s344", 28, 0x4bef4672fc5659d0),
    ("s349", 28, 0xd2326ed8651e80a1),
    ("s382", 33, 0xd4aff4e6c9bcb502),
    ("s386", 33, 0x89b0a5178be58e81),
    ("s400", 37, 0xfd188746167026bd),
    ("s444", 65, 0x88a9bf109f927111),
    ("s510", 74, 0x16126b50a05a3340),
    ("s526", 84, 0x1caea5367f139319),
    ("b14", 1248, 0xf123675e026469db),
    ("b15", 2432, 0xd0c638311baf3241),
    ("mcnc_bcd_fsm", 6, 0x8ad3f4a19b9bb0b9),
    ("mcnc_elaborate_cm", 120, 0x3f073eff46962ddb),
    ("mcnc_s2s_converter", 18, 0xd029a986748d388f),
    ("mcnc_voting", 27, 0xab44bcfd6bc06cf3),
    ("mcnc_scramble", 60, 0xa9e9c0817bf74dc0),
    ("mcnc_guess_seq", 120, 0x688a3edd5034ebc3),
    ("mcnc_sensor_if", 35, 0xe08ffd5286e4b07f),
    ("mcnc_viper", 572, 0xbdd80e6d051bdfe3),
    ("mcnc_key_encrypt", 308, 0x2073207ef35c4a5c),
    ("mcnc_bus_if", 728, 0x12b42707d31ec5f2),
    ("mcnc_encrypt", 98, 0x7458fce6a77354ce),
    ("mcnc_bus_ctrl", 70, 0x52f635630417dad7),
];

/// [`PINS`] for Policy2, which only merges: the heavy merge path.
const POLICY2_PINS: [(&str, usize, u64); 24] = [
    ("s27", 6, 0x124f9c4cc8557a2d),
    ("s298", 18, 0x23121457504ae3e2),
    ("s344", 28, 0x4bef4672fc5659d0),
    ("s349", 28, 0xd2326ed8651e80a1),
    ("s382", 33, 0xd4aff4e6c9bcb502),
    ("s386", 30, 0x8b1ac5ff5e2a4284),
    ("s400", 37, 0xfd188746167026bd),
    ("s444", 62, 0xb99138e58d2aae99),
    ("s510", 70, 0x2dfc60493f6a3916),
    ("s526", 84, 0x1caea5367f139319),
    ("b14", 1238, 0x6662af9a2de1f358),
    ("b15", 2429, 0x7ebe429a30f9c656),
    ("mcnc_bcd_fsm", 5, 0x323603e2f9ed639d),
    ("mcnc_elaborate_cm", 115, 0x11efcc1f38d78758),
    ("mcnc_s2s_converter", 18, 0xd029a986748d388f),
    ("mcnc_voting", 24, 0xaf9beed1baf328a2),
    ("mcnc_scramble", 60, 0xa9e9c0817bf74dc0),
    ("mcnc_guess_seq", 119, 0x0258ab237c5c8bcf),
    ("mcnc_sensor_if", 35, 0xe08ffd5286e4b07f),
    ("mcnc_viper", 572, 0xbdd80e6d051bdfe3),
    ("mcnc_key_encrypt", 307, 0x6551a8244a0611fe),
    ("mcnc_bus_if", 728, 0x12b42707d31ec5f2),
    ("mcnc_encrypt", 98, 0x7458fce6a77354ce),
    ("mcnc_bus_ctrl", 64, 0xdcaf70f7d4763993),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

fn canonical_digest(tree: &OperandTree) -> u64 {
    let mut h = Fnv::new();
    for op in tree.iter() {
        h.u64(u64::from(op.id.0));
        h.u64(op.name.len() as u64);
        h.bytes(op.name.as_bytes());
        h.u64(u64::from(op.dict.level));
        for edges in [&op.children, &op.parents] {
            let mut sorted = edges.clone();
            sorted.sort_unstable();
            h.u64(sorted.len() as u64);
            for id in sorted {
                h.u64(u64::from(id.0));
            }
        }
        h.u64(op.gates.len() as u64);
        for gate in &op.gates {
            h.u64(u64::from(gate.0));
        }
    }
    h.0
}

/// Restructures every registry circuit under `policy`, checking after each
/// that the levels the edits kept are those a full recompute gives.
/// Returns `(circuit, live operands, canonical digest)` per circuit and the
/// summed edit traffic.
fn restructure_registry(policy: Policy) -> (Vec<(&'static str, usize, u64)>, PolicyOutcome) {
    let library = CellLibrary::nangate45_surrogate();
    let suite = BenchmarkSuite::diac_paper();
    let mut total = PolicyOutcome::default();
    let mut seen = Vec::new();
    for spec in suite.iter() {
        let netlist = spec.materialize().expect("registry circuits materialise");
        let mut tree =
            OperandTree::from_netlist(&netlist, &library, &TreeGeneratorConfig::default())
                .expect("registry circuits cluster");
        let bounds = PolicyBounds::relative_to(&tree, UPPER_FRACTION, LOWER_FRACTION);
        let outcome = apply_policy(&mut tree, policy, &bounds, &library).expect("policy applies");
        let mut recomputed = tree.clone();
        recomputed.recompute_levels();
        assert_eq!(tree, recomputed, "{}: {policy} left stale levels", spec.name);
        total.splits += outcome.splits;
        total.merges += outcome.merges;
        seen.push((spec.name, tree.len(), canonical_digest(&tree)));
    }
    (seen, total)
}

#[test]
fn policy_restructuring_of_the_full_registry_is_pinned() {
    assert_eq!(SchemeContext::default().policy, Policy::Policy3);
    assert_eq!(BenchmarkSuite::diac_paper().len(), PINS.len());
    let (seen, total) = restructure_registry(Policy::Policy3);
    assert_eq!(seen, PINS);
    assert_eq!((total.splits, total.merges), (2, 39));
}

#[test]
fn split_and_merge_policies_of_the_full_registry_are_pinned() {
    let (seen, total) = restructure_registry(Policy::Policy1);
    assert_eq!(seen, POLICY1_PINS);
    assert_eq!((total.splits, total.merges), (2, 0));
    let (seen, total) = restructure_registry(Policy::Policy2);
    assert_eq!(seen, POLICY2_PINS);
    assert_eq!((total.splits, total.merges), (0, 39));
}
