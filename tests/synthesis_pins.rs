//! Pins of the synthesis front: every registry circuit, its DIAC-replaced
//! netlist and its base operand tree, each reduced to one FNV-1a-64 digest.
//!
//! The digests cover the data, not its `Debug` rendering, so adding a field
//! to a struct does not move them:
//! - the circuit's `to_bench()` text;
//! - the replaced netlist's `to_bench()` text under
//!   `experiments::default_context()`;
//! - every live operand of the base tree: id, gates, children, parents,
//!   level, fan-in, fan-out and the bits of its energy estimate.
//!
//! A change to how circuits, replaced netlists or trees are built must keep
//! all three columns. A moved circuit or replaced-netlist digest is a
//! `[digest-transition]`; the failure message lists every moved circuit with
//! its new values.

use std::sync::OnceLock;

use diac_core::pipeline::SynthesisPipeline;
use diac_core::tree::OperandTree;
use netlist::suite::BenchmarkSuite;

/// `(circuit, to_bench, replaced to_bench, base operand tree)`.
type Row = (&'static str, u64, u64, u64);

const PINS: [Row; 24] = [
    ("s27", 0x611d5c10fe1cf94d, 0x795c5ea52e3f8e8c, 0x9bda1722dec3c2f6),
    ("s298", 0x7c9098d64082e7d9, 0x1206c544b7164416, 0xf011bf53d643cc02),
    ("s344", 0xbd32c5ad49e93f1e, 0xf013f0e5c3ad8801, 0x1f496cd05601a138),
    ("s349", 0xf4ac1d2b8bd04f5a, 0x98ddfcb788bd2c88, 0x803c2bf6b91fadc0),
    ("s382", 0x0ca01cba6816c249, 0xd28b9c3329f7d275, 0x849ae77c1df69e2e),
    ("s386", 0xfbdea0d7145782b0, 0x600b1807c78cba0d, 0x5afcde164d137fde),
    ("s400", 0x6c61fb0281231897, 0xb7ffe8b51cbf0071, 0x7ba4a6b9438d7a6d),
    ("s444", 0x68fa969cc17669f4, 0x7e4db251689b2f80, 0xc92cd2375d43accd),
    ("s510", 0xeb55004fcd73f595, 0x02a04b1068e3540b, 0xdeb42ea0238496bb),
    ("s526", 0x84483abac81913ad, 0x8707921d72009bbe, 0xed88bf71d9dddfa6),
    ("b14", 0xb9445a55d8052b75, 0x7ff95e366d7dba54, 0xecfb96e3728404c1),
    ("b15", 0x53a98fd64feb8ea8, 0x14c97b5d38823f34, 0xf321e8b4f03bd1e4),
    ("mcnc_bcd_fsm", 0xf835d91ac59f7884, 0x36def618aefe5df4, 0x885ba9bfef0e4897),
    ("mcnc_elaborate_cm", 0x6133e61eb309b7f5, 0xeb07e8ae6548cd10, 0xa8a11de530a948f5),
    ("mcnc_s2s_converter", 0x25ec84e73c076b16, 0xccd1849931d416d5, 0x0914289e52cd6a1e),
    ("mcnc_voting", 0x3c93bb366e0bcf94, 0xe0f9ae5fd884923d, 0x0ac280bf51ff87b0),
    ("mcnc_scramble", 0x589d1c82b3e89c83, 0x2e5ca73168838921, 0x14e18eb447a532cd),
    ("mcnc_guess_seq", 0xfc4a87f5811ad457, 0x9957844dd68af380, 0x067bacfca23b48de),
    ("mcnc_sensor_if", 0x1e7c44051b068695, 0x3f1d9d0abdd383d7, 0xc3de329cb73f70b0),
    ("mcnc_viper", 0xd972dd242e914bba, 0xc8fc0b7a721a878b, 0x19d796a0d98e5ac1),
    ("mcnc_key_encrypt", 0xd5eb0a52deebd168, 0xb539e8a89e97a2f3, 0x9059675f5ba13964),
    ("mcnc_bus_if", 0xb41d7a62fdf22c59, 0xda781cb1691fa8f5, 0x3f6137cb35298630),
    ("mcnc_encrypt", 0xb15f1a2a8610a98b, 0xe3feab07561d4c45, 0x9253686b4e332e40),
    ("mcnc_bus_ctrl", 0x15f04349b4cea63a, 0x01b312ba4c4add40, 0xc76fe754832f7140),
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

/// The three digests of every registry circuit, computed once per test
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
