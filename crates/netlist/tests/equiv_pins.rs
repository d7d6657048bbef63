//! Pins the reports of `check_equivalence` on a pair of designs whose
//! faults show only rarely, so that which mismatch gets reported is decided
//! by the report order and not by the first cycle alone.
//!
//! The order is the least (round, cycle, signal, lane): a mismatch in round
//! 2 is reported before one in round 5 even when round 5 mismatches at an
//! earlier cycle, and `vectors` counts every pattern up to and including
//! the reported cycle.  Partial round counts (1, 3, 9, 17) and empty checks
//! (no rounds, or no cycles per round) are pinned as well.

use netlist::equiv::{check_equivalence, EquivConfig, EquivReport};
use netlist::{BitSim, GateKind, Netlist, NetlistBuilder};

/// Both designs of the pair: 32 inputs `x00..x31`, three primary outputs
/// and one flip-flop, identical but for two rarely activated faults.
///
/// * `o1 = x09 | AND(x00..x08)` on the left; the right also requires `x10`
///   in the AND, so it differs when `x00..x08` are high and `x09`, `x10`
///   low (one lane in 2 048).
/// * `q`'s D input is `AND(x11..x22)` on the left and additionally ANDs
///   `x23` on the right (one lane in 8 192).
/// * `o2 = q ^ x24` and `o3 = NAND(x25, x26)` agree.
fn design(faulty: bool) -> Netlist {
    let mut b = NetlistBuilder::new(if faulty { "right" } else { "left" });
    let x: Vec<_> = (0..32).map(|i| b.add_input(format!("x{i:02}"))).collect();
    let mut wide: Vec<_> = x[0..9].to_vec();
    if faulty {
        wide.push(x[10]);
    }
    let a = b.add_gate("a", GateKind::And, wide).unwrap();
    let o1 = b.add_gate("o1", GateKind::Or, vec![x[9], a]).unwrap();
    let mut d_ins: Vec<_> = x[11..23].to_vec();
    if faulty {
        d_ins.push(x[23]);
    }
    let d = b.add_gate("d", GateKind::And, d_ins).unwrap();
    let q = b.add_gate("q", GateKind::Dff, vec![d]).unwrap();
    let o2 = b.add_gate("o2", GateKind::Xor, vec![q, x[24]]).unwrap();
    let o3 = b.add_gate("o3", GateKind::Nand, vec![x[25], x[26]]).unwrap();
    for o in [o1, o2, o3] {
        b.mark_output(o);
    }
    b.finish().unwrap()
}

/// A report in a comparable form: `(vectors, counterexample)`, the
/// counterexample as `(round, cycle, lane, signal, inputs)` with the inputs
/// packed one bit per input, `x00` in bit 0.
type Summary<S = &'static str> = (u64, Option<(usize, usize, u32, S, u32)>);

fn summary(report: &EquivReport) -> Summary<String> {
    let cex = report.counterexample.as_ref().map(|cex| {
        let packed = cex
            .inputs
            .iter()
            .enumerate()
            .fold(0_u32, |word, (i, (_, v))| word | (u32::from(*v) << i));
        (cex.round, cex.cycle, cex.lane, cex.signal.clone(), packed)
    });
    (report.vectors, cex)
}

fn owned(pin: &Summary) -> Summary<String> {
    (pin.0, pin.1.map(|(r, c, l, s, i)| (r, c, l, s.to_string(), i)))
}

/// Compiles both designs and checks them.
fn check(left: &Netlist, right: &Netlist, config: &EquivConfig) -> EquivReport {
    check_equivalence(&BitSim::new(left).unwrap(), &BitSim::new(right).unwrap(), config).unwrap()
}

/// The first cycle at which round `round` of a check seeded `seed`
/// mismatches, if any: a one-round check whose seed is that round's stream
/// seed replays exactly that round.
fn first_failing_cycle(left: &Netlist, right: &Netlist, seed: u64, round: usize) -> Option<usize> {
    let config = EquivConfig {
        seed: seed ^ (round as u64).wrapping_mul(0x9E37),
        rounds: 1,
        ..EquivConfig::default()
    };
    check(left, right, &config).counterexample.map(|cex| cex.cycle)
}

/// The seed whose first failing round (2, at cycle 3) is beaten on cycle
/// by two later rounds of the same block: round 5 fails at cycle 1 and
/// round 7 at cycle 2.
const EARLY_SEED: u64 = 10;

/// The seed whose rounds 0..9 all pass: its first failing round is 9, at
/// cycle 5, in the second block of eight rounds; round 10 also fails at
/// cycle 5 and round 14 at cycle 1.
const LATE_SEED: u64 = 90;

#[test]
fn the_least_round_is_reported_even_when_a_later_round_fails_earlier() {
    let (left, right) = (design(false), design(true));
    // The premise: which rounds fail, and at which cycle.
    let failing: Vec<(usize, usize)> = (0..8)
        .filter_map(|r| first_failing_cycle(&left, &right, EARLY_SEED, r).map(|c| (r, c)))
        .collect();
    assert_eq!(failing, [(2, 3), (3, 5), (5, 1), (7, 2)]);

    let config = EquivConfig { seed: EARLY_SEED, ..EquivConfig::default() };
    let report = check(&left, &right, &config);
    let cex = report.counterexample.as_ref().expect("the faults show");
    assert_eq!((report.left.as_str(), report.right.as_str()), ("left", "right"));
    assert_eq!(report.vectors, 64 * (2 * 8 + 3 + 1));
    assert_eq!((cex.round, cex.cycle, cex.lane, cex.signal.as_str()), (2, 3, 16, "o1"));
    let names: Vec<String> = (0..32).map(|i| format!("x{i:02}")).collect();
    assert!(cex.inputs.iter().map(|(name, _)| name).eq(&names));
    assert_eq!(summary(&report).1.unwrap().4, 0x90c1_f9ff);
    assert_eq!(
        report.to_string(),
        "`left` ≢ `right`: mismatch on `o1` (round 2, cycle 3, lane 16): \
         x00=1, x01=1, x02=1, x03=1, x04=1, x05=1, x06=1, x07=1, x08=1, x09=0, x10=0, \
         x11=1, x12=1, x13=1, x14=1, x15=1, x16=1, x17=0, x18=0, x19=0, x20=0, x21=0, \
         x22=1, x23=1, x24=0, x25=0, x26=0, x27=0, x28=1, x29=0, x30=0, x31=1"
    );
}

#[test]
fn partial_and_empty_round_blocks_keep_their_reports() {
    let (left, right) = (design(false), design(true));
    let late: Vec<Option<usize>> =
        (0..17).map(|r| first_failing_cycle(&left, &right, LATE_SEED, r)).collect();
    assert!(late[..9].iter().all(Option::is_none), "{late:?}");
    assert_eq!((late[9], late[10], late[14]), (Some(5), Some(5), Some(1)));

    let early_hit = Some((2, 3, 16, "o1", 0x90c1_f9ff));
    let late_hit = Some((9, 5, 10, "o1", 0x7126_61ff));
    let pins: [(u64, usize, Summary); 10] = [
        (EARLY_SEED, 0, (0, None)),
        (EARLY_SEED, 1, (512, None)),
        (EARLY_SEED, 3, (1280, early_hit)),
        (EARLY_SEED, 9, (1280, early_hit)),
        (EARLY_SEED, 17, (1280, early_hit)),
        (LATE_SEED, 0, (0, None)),
        (LATE_SEED, 1, (512, None)),
        (LATE_SEED, 3, (1536, None)),
        (LATE_SEED, 9, (4608, None)),
        (LATE_SEED, 17, (4992, late_hit)),
    ];
    for (seed, rounds, pin) in &pins {
        let config = EquivConfig { seed: *seed, rounds: *rounds, ..EquivConfig::default() };
        let report = check(&left, &right, &config);
        assert_eq!(summary(&report), owned(pin), "seed {seed}, {rounds} rounds");
    }
    // No cycles per round: nothing is settled and nothing is reported.
    for seed in [EARLY_SEED, LATE_SEED] {
        let config = EquivConfig { seed, cycles_per_round: 0, ..EquivConfig::default() };
        let report = check(&left, &right, &config);
        assert_eq!(summary(&report), (0, None), "seed {seed}, no cycles");
    }
    // A design against itself checks every vector of every block.
    for rounds in [0, 1, 3, 9, 17] {
        let config = EquivConfig { seed: LATE_SEED, rounds, ..EquivConfig::default() };
        let report = check(&left, &left, &config);
        assert_eq!(summary(&report), (config.vectors(), None), "{rounds} rounds");
    }
}
