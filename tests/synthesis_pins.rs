//! Pins of the synthesis front: every registry circuit, its DIAC-replaced
//! netlist and its base operand tree, each reduced to one FNV-1a-64 digest.
//!
//! The digests cover the data, not its `Debug` rendering, so adding a field
//! to a struct does not move them:
//! - the circuit's `to_bench()` text;
//! - the replaced netlist's `to_bench()` text under
//!   `experiments::default_context()`;
//! - every live operand of the base tree: id, gates, children, parents,
//!   level, fan-in, fan-out and the bits of its energy estimate;
//! - every field of every `SchemeResult` of `compare_all_in`, at full
//!   precision, under `experiments::default_context()`, under `with_nvm`
//!   for ReRAM, FeRAM and PCM, and under `with_policy` for Policy1 and
//!   Policy2: the `PdpBreakdown` bits, both run-time factors,
//!   `bits_per_backup` and the `ReplacementSummary`.
//!
//! A change to how circuits, replaced netlists or trees are built, or to how
//! the schemes are priced, must keep all four columns. A moved circuit,
//! replaced-netlist or scheme-result digest is a `[digest-transition]`; the
//! failure message lists every moved circuit with its new values.

use std::sync::OnceLock;

use diac_core::pipeline::{CircuitArtifacts, SynthesisPipeline};
use diac_core::policy::Policy;
use diac_core::schemes::{SchemeKind, SchemeResult};
use diac_core::tree::OperandTree;
use netlist::suite::BenchmarkSuite;
use tech45::nvm::NvmTechnology;
use tech45::units::{Energy, Seconds};

/// `(circuit, to_bench, replaced to_bench, base operand tree, scheme results)`.
type Row = (&'static str, u64, u64, u64, u64);

const PINS: [Row; 24] = [
    ("s27", 0x611d5c10fe1cf94d, 0x795c5ea52e3f8e8c, 0x9bda1722dec3c2f6, 0xf52ab05886bfd725),
    ("s298", 0x7c9098d64082e7d9, 0x1206c544b7164416, 0xf011bf53d643cc02, 0xd63b7956ecc50c1d),
    ("s344", 0xbd32c5ad49e93f1e, 0xf013f0e5c3ad8801, 0x1f496cd05601a138, 0x263ca7e766b902bd),
    ("s349", 0xf4ac1d2b8bd04f5a, 0x98ddfcb788bd2c88, 0x803c2bf6b91fadc0, 0x844a6e8209ca61f9),
    ("s382", 0x0ca01cba6816c249, 0xd28b9c3329f7d275, 0x849ae77c1df69e2e, 0xb2ba7e7e75d5fd29),
    ("s386", 0xfbdea0d7145782b0, 0x600b1807c78cba0d, 0x5afcde164d137fde, 0x962b1cc4127b01f8),
    ("s400", 0x6c61fb0281231897, 0xb7ffe8b51cbf0071, 0x7ba4a6b9438d7a6d, 0xa931d11cab7d8b65),
    ("s444", 0x68fa969cc17669f4, 0x7e4db251689b2f80, 0xc92cd2375d43accd, 0x1c2596d230d59500),
    ("s510", 0xeb55004fcd73f595, 0x02a04b1068e3540b, 0xdeb42ea0238496bb, 0xca5c529b27bdb9cd),
    ("s526", 0x84483abac81913ad, 0x8707921d72009bbe, 0xed88bf71d9dddfa6, 0x4416705f66b440fd),
    ("b14", 0xb9445a55d8052b75, 0x7ff95e366d7dba54, 0xecfb96e3728404c1, 0x567927258a9fdd77),
    ("b15", 0x53a98fd64feb8ea8, 0x14c97b5d38823f34, 0xf321e8b4f03bd1e4, 0x00062beff027c29d),
    (
        "mcnc_bcd_fsm",
        0xf835d91ac59f7884,
        0x36def618aefe5df4,
        0x885ba9bfef0e4897,
        0xc635d9cc429d281e,
    ),
    (
        "mcnc_elaborate_cm",
        0x6133e61eb309b7f5,
        0xeb07e8ae6548cd10,
        0xa8a11de530a948f5,
        0x31b62b243bec260a,
    ),
    (
        "mcnc_s2s_converter",
        0x25ec84e73c076b16,
        0xccd1849931d416d5,
        0x0914289e52cd6a1e,
        0x6454a670e1681551,
    ),
    ("mcnc_voting", 0x3c93bb366e0bcf94, 0xe0f9ae5fd884923d, 0x0ac280bf51ff87b0, 0x3304415c0000ebc4),
    (
        "mcnc_scramble",
        0x589d1c82b3e89c83,
        0x2e5ca73168838921,
        0x14e18eb447a532cd,
        0x513b8a8d69e066b1,
    ),
    (
        "mcnc_guess_seq",
        0xfc4a87f5811ad457,
        0x9957844dd68af380,
        0x067bacfca23b48de,
        0x802b83b71463875d,
    ),
    (
        "mcnc_sensor_if",
        0x1e7c44051b068695,
        0x3f1d9d0abdd383d7,
        0xc3de329cb73f70b0,
        0x47a4946e4986b795,
    ),
    ("mcnc_viper", 0xd972dd242e914bba, 0xc8fc0b7a721a878b, 0x19d796a0d98e5ac1, 0xcae1d3add214e669),
    (
        "mcnc_key_encrypt",
        0xd5eb0a52deebd168,
        0xb539e8a89e97a2f3,
        0x9059675f5ba13964,
        0xb5a068736a7d5ec5,
    ),
    ("mcnc_bus_if", 0xb41d7a62fdf22c59, 0xda781cb1691fa8f5, 0x3f6137cb35298630, 0xae8c8779d1345e9f),
    (
        "mcnc_encrypt",
        0xb15f1a2a8610a98b,
        0xe3feab07561d4c45,
        0x9253686b4e332e40,
        0xaa577e0844a8a021,
    ),
    (
        "mcnc_bus_ctrl",
        0x15f04349b4cea63a,
        0x01b312ba4c4add40,
        0xc76fe754832f7140,
        0xd7cab15fa095aa95,
    ),
];

/// FNV-1a-64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn energy(&mut self, value: Energy) {
        self.f64(value.as_joules());
    }

    fn seconds(&mut self, value: Seconds) {
        self.f64(value.as_seconds());
    }

    /// A length-prefixed list, so adjacent lists cannot trade elements.
    fn ids(&mut self, ids: impl ExactSizeIterator<Item = u32>) {
        self.u64(ids.len() as u64);
        for id in ids {
            self.u64(u64::from(id));
        }
    }
}

fn text_digest(text: &str) -> u64 {
    let mut fnv = Fnv::new();
    fnv.bytes(text.as_bytes());
    fnv.0
}

fn tree_digest(tree: &OperandTree) -> u64 {
    let mut fnv = Fnv::new();
    fnv.u64(tree.len() as u64);
    for operand in tree.iter() {
        let dict = &operand.dict;
        let estimate = &dict.estimate;
        fnv.u64(u64::from(operand.id.0));
        fnv.ids(operand.gates.iter().map(|g| g.0));
        fnv.ids(operand.children.iter().map(|c| c.0));
        fnv.ids(operand.parents.iter().map(|p| p.0));
        fnv.u64(u64::from(dict.level));
        fnv.u64(dict.fan_in as u64);
        fnv.u64(dict.fan_out as u64);
        fnv.u64(estimate.dynamic.as_joules().to_bits());
        fnv.u64(estimate.static_.as_joules().to_bits());
        fnv.u64(estimate.critical_path.as_seconds().to_bits());
        fnv.u64(estimate.leakage_power.as_watts().to_bits());
        fnv.u64(estimate.gate_count as u64);
    }
    fnv.0
}

/// One scheme result, every field.
fn result_digest(fnv: &mut Fnv, result: &SchemeResult) {
    let kind = SchemeKind::ALL.iter().position(|&k| k == result.kind).expect("a known scheme");
    fnv.u64(kind as u64);
    fnv.u64(result.circuit.len() as u64);
    fnv.bytes(result.circuit.as_bytes());
    let b = &result.breakdown;
    fnv.energy(b.compute_energy);
    fnv.energy(b.checkpoint_energy);
    fnv.energy(b.restore_energy);
    fnv.energy(b.reexecution_energy);
    fnv.seconds(b.compute_delay);
    fnv.seconds(b.checkpoint_delay);
    fnv.seconds(b.restore_delay);
    fnv.seconds(b.reexecution_delay);
    fnv.seconds(b.recharge_delay);
    fnv.u64(b.nvm_bits_written);
    fnv.f64(b.cycles);
    fnv.f64(b.backups);
    fnv.f64(b.restores);
    fnv.f64(result.runtime_energy_factor);
    fnv.f64(result.runtime_delay_factor);
    fnv.f64(result.bits_per_backup);
    match &result.replacement {
        None => fnv.u64(0),
        Some(r) => {
            fnv.u64(1);
            fnv.u64(r.boundaries as u64);
            fnv.u64(r.total_boundary_bits);
            fnv.f64(r.average_boundary_bits);
            fnv.energy(r.energy_budget);
            fnv.energy(r.max_unsaved_energy);
            fnv.energy(r.backup_energy);
            fnv.seconds(r.backup_latency);
            fnv.energy(r.restore_energy);
            fnv.seconds(r.restore_latency);
        }
    }
}

/// Every scheme result of one circuit under the default context and five
/// sweep contexts: three other technologies and two other policies.
fn scheme_digest(pipeline: &SynthesisPipeline, artifacts: &CircuitArtifacts<'_>) -> u64 {
    let base = pipeline.context();
    let mut contexts = vec![base.clone()];
    contexts.extend(
        [NvmTechnology::Reram, NvmTechnology::Feram, NvmTechnology::Pcm]
            .map(|t| base.clone().with_nvm(t)),
    );
    contexts.extend([Policy::Policy1, Policy::Policy2].map(|p| base.clone().with_policy(p)));
    let mut fnv = Fnv::new();
    for ctx in &contexts {
        let comparison = pipeline.compare_all_in(artifacts, ctx).expect("comparison succeeds");
        fnv.u64(comparison.results.len() as u64);
        for result in &comparison.results {
            result_digest(&mut fnv, result);
        }
    }
    fnv.0
}

/// The four digests of every registry circuit, computed once per test
/// binary and shared by the tests below.
fn digests() -> &'static [Row] {
    static DIGESTS: OnceLock<Vec<Row>> = OnceLock::new();
    DIGESTS.get_or_init(|| {
        let pipeline = SynthesisPipeline::new(experiments::default_context());
        BenchmarkSuite::diac_paper()
            .iter()
            .map(|spec| {
                let netlist = spec.materialize().expect("registry circuits materialise");
                let artifacts = pipeline.prepare(&netlist).expect("preparation succeeds");
                let replaced =
                    artifacts.replaced_netlist(pipeline.context()).expect("replacement succeeds");
                (
                    spec.name,
                    text_digest(&netlist.to_bench()),
                    text_digest(&replaced.to_bench()),
                    tree_digest(artifacts.operand_tree()),
                    scheme_digest(&pipeline, &artifacts),
                )
            })
            .collect()
    })
}

/// Compares one column against [`PINS`] and names every circuit that moved.
fn check_column(column: &str, pick: fn(&Row) -> u64) {
    let digests = digests();
    assert_eq!(digests.len(), PINS.len(), "the registry has {} circuits", digests.len());
    let moved: Vec<String> = PINS
        .iter()
        .zip(digests)
        .filter(|(pin, got)| pin.0 != got.0 || pick(pin) != pick(got))
        .map(|(pin, got)| {
            format!("{} {column}: pinned {:#018x}, got {:#018x}", got.0, pick(pin), pick(got))
        })
        .collect();
    assert!(moved.is_empty(), "{} digests moved:\n{}", moved.len(), moved.join("\n"));
}

#[test]
fn every_registry_circuit_text_is_pinned() {
    check_column("to_bench", |r| r.1);
}

#[test]
fn every_replaced_netlist_is_pinned() {
    check_column("replaced to_bench", |r| r.2);
}

#[test]
fn every_base_operand_tree_is_pinned() {
    check_column("operand tree", |r| r.3);
}

#[test]
fn every_scheme_result_is_pinned() {
    check_column("scheme results", |r| r.4);
}
