//! Property test: batch-vs-scalar bit-identity over random scenario points.
//!
//! For random `(thresholds, sizing, technology, seed, duration)` points —
//! including ragged durations sharing one bank, which forces mid-flight lane
//! retirement and refill — the lanes of a `BatchExecutor` must reproduce the
//! scalar `Scenario::run` statistics field for field.  Adversarial generators
//! aim at the edges of the batch engine's source windows: threshold-hugging
//! boot energies, timer fires on segment edges, a capacitor pinned at
//! capacity across an edge, and lifetimes retiring mid-window.

use proptest::prelude::*;

use ehsim::capacitor::Capacitor;
use ehsim::pmu::Thresholds;
use ehsim::schedule::Schedule;
use ehsim::source::{HarvestSource, PiecewiseSource};
use isim::batch::{BatchExecutor, BatchJob};
use isim::executor::IntermittentExecutor;
use isim::fsm::FsmConfig;
use isim::stats::RunStats;
use scenarios::space::{AnySource, BackupSizing, ScenarioSpace, SourceScratch, SourceSpec};
use scenarios::Scenario;
use tech45::nvm::NvmTechnology;
use tech45::units::{Energy, EnergyFx, Power, Seconds};

/// The source grid a case draws from: every family, stochastic and
/// deterministic alike.
fn source(index: usize) -> SourceSpec {
    let mw = Power::from_milliwatts;
    let s = Seconds::new;
    match index % 6 {
        0 => SourceSpec::Constant { power: mw(0.12) },
        1 => SourceSpec::Rfid {
            peak: mw(1.0),
            period: s(2.0),
            duty_cycle: 0.4,
            jitter: 0.2,
            seed: 1,
        },
        2 => SourceSpec::Solar { peak: mw(0.8), day_length: s(900.0), cloudiness: 0.3, seed: 2 },
        3 => SourceSpec::Markov { on_power: mw(0.5), mean_on: s(20.0), mean_off: s(40.0), seed: 3 },
        4 => SourceSpec::Schedule(Schedule::fig4()),
        _ => SourceSpec::Schedule(Schedule::scarce()),
    }
}

fn sizing(baseline_bits: u64, use_baseline: bool) -> BackupSizing {
    if use_baseline {
        BackupSizing::BaselineBits(baseline_bits)
    } else {
        // A replacement-shaped sizing with a fixed, plausible boundary cut.
        BackupSizing::DiacReplacement(diac_core::replacement::ReplacementSummary {
            boundaries: 3,
            total_boundary_bits: 36,
            average_boundary_bits: 12.0,
            energy_budget: Energy::from_millijoules(1.0),
            max_unsaved_energy: Energy::from_millijoules(1.0),
            backup_energy: Energy::ZERO,
            backup_latency: Seconds::ZERO,
            restore_energy: Energy::ZERO,
            restore_latency: Seconds::ZERO,
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random scenario points through one shared bank, with ragged
    /// durations, reproduce the scalar oracle field for field.
    #[test]
    fn batch_lanes_reproduce_scalar_run_stats(
        // Margins above 4 mJ would push `Th_SafeZone` past `Th_Se` and be
        // rejected by the consistency filter, so stay inside the valid band.
        (margin_mj, bits) in (0.0_f64..4.0, 16_u64..256),
        seeds in prop::collection::vec(0_u64..u64::MAX, 5..6),
        durations in prop::collection::vec(100.0_f64..1200.0, 5..6),
        source_offset in 0_usize..6,
        tech_index in 0_usize..4,
        width in 1_usize..4,
    ) {
        let thresholds = Thresholds::paper_default()
            .with_safe_zone_margin(Energy::from_millijoules(margin_mj));
        prop_assert!(thresholds.is_consistent());
        let technology = NvmTechnology::ALL[tech_index];
        let dt = Seconds::new(0.5);

        let scenarios: Vec<Scenario> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| Scenario {
                id: i,
                source: source(source_offset + i),
                thresholds,
                technology,
                sizing: sizing(bits, i % 2 == 0),
                seed,
            })
            .collect();

        // All scenarios share one bank narrower than the queue, so lanes
        // with shorter lifetimes retire and refill mid-flight of the rest.
        let mut batch = BatchExecutor::new(width);
        let mut scratch = SourceScratch::new();
        for (scenario, &duration) in scenarios.iter().zip(&durations) {
            batch.enqueue(scenario.batch_job(Seconds::new(duration), dt, &mut scratch));
        }
        let batched = batch.run_to_completion();
        prop_assert_eq!(batched.len(), scenarios.len());

        for ((scenario, &duration), batched) in scenarios.iter().zip(&durations).zip(&batched) {
            let scalar = scenario.run(Seconds::new(duration), dt);
            // `RunStats` equality is exact (`f64` bit patterns included):
            // any drift in the energy aggregates would fail here.
            prop_assert_eq!(&scalar, batched, "scenario #{} diverged", scenario.id);
        }
    }
}

/// Sources picked to stress every fast-forward tier: zero power (the node
/// drains into Off and stays — the longest possible horizons), a steady
/// trickle, a full-beam constant, high-jitter RFID (cycle-bounded steady
/// windows), stochastic solar/Markov (bounded tier only), and piecewise
/// schedules whose segment boundaries cut horizons short.
fn adversarial_source(index: usize) -> SourceSpec {
    let mw = Power::from_milliwatts;
    let s = Seconds::new;
    match index % 8 {
        0 => SourceSpec::Constant { power: Power::ZERO },
        1 => SourceSpec::Constant { power: mw(0.02) },
        2 => SourceSpec::Constant { power: mw(1.5) },
        3 => SourceSpec::Rfid {
            peak: mw(1.0),
            period: s(2.0),
            duty_cycle: 0.4,
            jitter: 0.9,
            seed: 7,
        },
        4 => SourceSpec::Solar { peak: mw(0.8), day_length: s(600.0), cloudiness: 0.9, seed: 8 },
        5 => SourceSpec::Markov { on_power: mw(0.5), mean_on: s(5.0), mean_off: s(5.0), seed: 9 },
        6 => SourceSpec::Schedule(Schedule::fig4()),
        _ => SourceSpec::Schedule(Schedule::scarce()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adversarial horizon edges: the lane boots with its energy parked
    /// within (fractions of) one tick's drift of an FSM threshold, timer
    /// fires land exactly on tick boundaries or just off them depending on
    /// `dt`, and segment boundaries / stochastic bursts cut windows short.
    /// Horizon-stepped lanes must still reproduce the naive scalar oracle
    /// bit for bit.
    #[test]
    fn horizon_edges_preserve_bit_identity(
        source_index in 0_usize..8,
        threshold_index in 0_usize..6,
        // Offset from the chosen threshold in units of one tick's sleep
        // leakage (10 µJ at paper scale): -2..2 brackets the crossing.
        offset_ticks in -2_i32..3,
        // An extra sub-tick nudge: 0 lands *exactly on* the threshold.
        nudge in (0_usize..5).prop_map(|i| [0.0_f64, 1e-15, 1e-12, 1e-9, 4.9e-6][i]),
        nudge_sign in (0_u8..2).prop_map(|b| b == 1),
        // dt = 0.5/0.4 put timer fires exactly on a tick (30/dt integral);
        // 0.7 puts them strictly between ticks.
        dt_s in (0_usize..3).prop_map(|i| [0.5_f64, 0.4, 0.7][i]),
        seed in 0_u64..u64::MAX,
        duration in 120.0_f64..700.0,
    ) {
        let thresholds = Thresholds::paper_default();
        let pick = [
            thresholds.off,
            thresholds.backup,
            thresholds.safe_zone,
            thresholds.sense,
            thresholds.compute,
            thresholds.transmit,
        ][threshold_index];
        let leak_tick = Energy::from_microjoules(20.0 * 0.5 * dt_s);
        let signed_nudge = if nudge_sign { nudge } else { -nudge };
        let energy = Energy::new(
            (pick.value() + f64::from(offset_ticks) * leak_tick.value() + signed_nudge)
                .clamp(0.0, Capacitor::paper_default().max_energy().value()),
        );
        let cap = Capacitor::paper_default().with_energy(energy);
        let config = FsmConfig::paper_default().with_seed(seed);
        let dt = Seconds::new(dt_s);
        let spec = adversarial_source(source_index);
        let mut scratch = SourceScratch::new();

        let mut batch = BatchExecutor::new(2);
        batch.enqueue(
            BatchJob::new(
                config.clone(),
                spec.build_seeded(seed, &mut scratch),
                Seconds::new(duration),
                dt,
            )
            .with_capacitor(cap),
        );
        let batched = batch.run_to_completion();

        let mut scalar = IntermittentExecutor::with_source(
            config,
            spec.build_seeded(seed, &mut scratch),
        )
        .with_capacitor(cap);
        let expected = scalar.run(Seconds::new(duration), dt);
        prop_assert_eq!(&expected, &batched[0]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exact integer accumulators agree with the pre-transition f64
    /// fold they replaced, and conserve energy *exactly*.
    ///
    /// A reference fold reconstructs the old floating-point energy
    /// aggregates from the scalar trace (per tick: `offered = max(p,0)·dt`,
    /// `banked = clamp(offered)`, `consumed = prev + banked - stored`).
    /// The fixed-point totals must match it within the documented
    /// quantisation budget — at most ~2 aJ per tick (one 0.5 aJ
    /// round-to-nearest per boundary crossing, DESIGN.md "Exact integer
    /// accumulators") plus 1 pJ of slack for the reference fold's own f64
    /// rounding.  On top of that, conservation holds with *no* tolerance:
    /// `harvested - consumed == final - initial` in attojoules, which no
    /// f64 accumulator could promise.  (Scalar == batch stays bit-exact and
    /// is pinned by the other properties in this file.)
    #[test]
    fn fx_totals_match_the_f64_reference_fold_and_conserve_exactly(
        source_index in 0_usize..8,
        initial_mj in 0.0_f64..25.0,
        seed in 0_u64..u64::MAX,
        duration in 100.0_f64..900.0,
        dt_s in (0_usize..3).prop_map(|i| [0.5_f64, 0.25, 0.7][i]),
    ) {
        let dt = Seconds::new(dt_s);
        let cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(initial_mj));
        let initial_fx = cap.energy_fx();
        let e_max = cap.max_energy().value();
        let spec = adversarial_source(source_index);
        let mut scratch = SourceScratch::new();
        let mut exec = IntermittentExecutor::with_source(
            FsmConfig::paper_default().with_seed(seed),
            spec.build_seeded(seed, &mut scratch),
        )
        .with_capacitor(cap);
        let (stats, trace) = exec.run_with_trace(Seconds::new(duration), dt);

        // Pre-transition reference: the f64 fold the executor ran before
        // the accumulators moved to fixed point.
        let mut prev = cap.energy().value();
        let (mut hv, mut cl, mut co) = (0.0_f64, 0.0, 0.0);
        for sample in trace.samples() {
            let offered = sample.harvest.value().max(0.0) * dt_s;
            let banked = offered.min(e_max - prev).max(0.0);
            hv += banked;
            cl += offered - banked;
            co += (prev + banked - sample.stored.value()).max(0.0);
            prev = sample.stored.value();
        }
        let tolerance = 1e-12 + trace.len() as f64 * 2e-18;
        prop_assert!((stats.energy_harvested.as_joules() - hv).abs() <= tolerance,
            "harvested {} vs reference {hv}", stats.energy_harvested.as_joules());
        prop_assert!((stats.energy_clipped.as_joules() - cl).abs() <= tolerance,
            "clipped {} vs reference {cl}", stats.energy_clipped.as_joules());
        prop_assert!((stats.energy_consumed.as_joules() - co).abs() <= tolerance,
            "consumed {} vs reference {co}", stats.energy_consumed.as_joules());

        // Exact conservation, attojoule for attojoule.
        prop_assert_eq!(
            stats.energy_harvested - stats.energy_consumed,
            exec.capacitor().energy_fx() - initial_fx,
            "conservation violated: harvested {} consumed {} initial {} final {}",
            stats.energy_harvested, stats.energy_consumed, initial_fx,
            exec.capacitor().energy_fx()
        );

        // Time accounting: tick counters scale back to the f64 duration.
        let ticks = stats.total_ticks();
        prop_assert_eq!(ticks, trace.len() as u64);
        prop_assert!((stats.total_time().as_seconds() - dt_s * ticks as f64).abs() < 1e-9);
    }
}

/// The paper-shaped 216-scenario campaign must fast-forward a majority of
/// its ticks — this is the deterministic telemetry check backing the PR's
/// speedup claim (and `ticks_fast_forwarded > 0` in particular).
#[test]
fn the_paper_campaign_fast_forwards_most_ticks() {
    let space = ScenarioSpace::paper_grid(vec![
        BackupSizing::BaselineBits(64),
        BackupSizing::BaselineBits(256),
    ]);
    let scenarios = space.scenarios(0xD1AC);
    assert_eq!(scenarios.len(), 216);
    let (duration, dt) = (Seconds::new(1500.0), Seconds::new(0.5));
    let mut batch = BatchExecutor::new(64);
    let mut scratch = SourceScratch::new();
    for scenario in &scenarios {
        batch.enqueue(scenario.batch_job(duration, dt, &mut scratch));
    }
    let _ = batch.run_to_completion();
    let telemetry = batch.telemetry();
    assert_eq!(telemetry.ticks_total, 216 * 3000);
    assert!(telemetry.ticks_fast_forwarded > 0, "{telemetry:?}");
    assert!(telemetry.fast_forward_fraction() > 0.5, "{telemetry:?}");
    assert!(telemetry.horizon_recomputes > 0, "{telemetry:?}");
}

/// Runs one job through a two-lane bank and through the scalar oracle,
/// returning `(scalar, batched)` statistics.
fn scalar_and_batched<S: HarvestSource + Clone>(
    config: FsmConfig,
    cap: Capacitor,
    source: S,
    duration: f64,
    dt: f64,
) -> (RunStats, RunStats) {
    let (duration, dt) = (Seconds::new(duration), Seconds::new(dt));
    let mut batch = BatchExecutor::new(2);
    batch.enqueue(BatchJob::new(config.clone(), source.clone(), duration, dt).with_capacitor(cap));
    let batched = batch.run_to_completion().remove(0);
    let mut scalar = IntermittentExecutor::with_source(config, source).with_capacitor(cap);
    (scalar.run(duration, dt), batched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Timer fires landing exactly on segment edges: every segment of a
    /// cyclic schedule starts on a multiple of the sampling interval, so the
    /// tick that polls the timer is also the first tick of a new source
    /// window — the tick an idle-sleep stretch must stop before.  Where
    /// `interval / dt` is integral on the f64 grid both edges fall on the
    /// very same tick; `dt = 0.3` lets rounding split them by one tick.
    #[test]
    fn timer_fires_on_segment_edges_preserve_bit_identity(
        powers_uw in prop::collection::vec(0.0_f64..900.0, 2..5),
        interval_s in (0_usize..3).prop_map(|i| [30.0_f64, 15.0, 7.5][i]),
        dt_s in (0_usize..3).prop_map(|i| [0.5_f64, 0.25, 0.3][i]),
        initial_mj in 0.0_f64..25.0,
        seed in 0_u64..u64::MAX,
        duration in 200.0_f64..1500.0,
    ) {
        let mut config = FsmConfig::paper_default().with_seed(seed);
        config.sampling_interval = Seconds::new(interval_s);
        let segments = powers_uw
            .iter()
            .enumerate()
            .map(|(k, &uw)| (Seconds::new(k as f64 * interval_s), Power::from_microwatts(uw)))
            .collect();
        let total = Seconds::new(powers_uw.len() as f64 * interval_s);
        let source = PiecewiseSource::new(segments, true, total);
        let cap = Capacitor::paper_default().with_energy(Energy::from_millijoules(initial_mj));
        let (scalar, batched) = scalar_and_batched(config, cap, source, duration, dt_s);
        prop_assert_eq!(scalar, batched);
    }

    /// A capacitor pinned at capacity across a segment edge: the lane boots
    /// full under supplies well above its sleep draw, the supply steps from
    /// one clipping level to another mid-window of the pinned stretch, and a
    /// final trickle segment drains it away again — so the clamped
    /// fixed-point fold hands over at the edge and folds the new segment's
    /// own clipped offer.
    #[test]
    fn a_capacitor_pinned_across_a_segment_edge_preserves_bit_identity(
        high_mw in prop::collection::vec(0.2_f64..2.0, 2..4),
        edge_s in 20.0_f64..200.0,
        trickle_uw in 0.0_f64..20.0,
        cyclic in (0_u8..2).prop_map(|b| b == 1),
        dt_s in (0_usize..3).prop_map(|i| [0.5_f64, 0.25, 0.7][i]),
        seed in 0_u64..u64::MAX,
        duration in 200.0_f64..1200.0,
    ) {
        let mut segments: Vec<(Seconds, Power)> = high_mw
            .iter()
            .enumerate()
            .map(|(k, &mw)| (Seconds::new(k as f64 * edge_s), Power::from_milliwatts(mw)))
            .collect();
        let trickle_start = high_mw.len() as f64 * edge_s;
        segments.push((Seconds::new(trickle_start), Power::from_microwatts(trickle_uw)));
        let source = PiecewiseSource::new(segments, cyclic, Seconds::new(trickle_start + 300.0));
        let full = Capacitor::paper_default();
        let cap = full.with_energy(full.max_energy());
        let config = FsmConfig::paper_default().with_seed(seed);
        let (scalar, batched) = scalar_and_batched(config, cap, source, duration, dt_s);
        prop_assert!(scalar.energy_clipped > EnergyFx::ZERO, "the capacitor never pinned");
        prop_assert_eq!(scalar, batched);
    }

    /// Ragged lifetimes that retire in the middle of a window: sources
    /// whose windows outlive every lane (constant levels, zero power, the
    /// single-segment plentiful schedule, long Markov dwells), lifetimes off
    /// the tick grid, a bank narrower than the queue so refills land
    /// mid-window of their neighbours, and a prefix of single-tick blocks
    /// that cuts every live window at block edges.
    #[test]
    fn ragged_lifetimes_retiring_mid_window_preserve_bit_identity(
        picks in prop::collection::vec(0_usize..5, 3..7),
        durations in prop::collection::vec(1.0_f64..900.0, 7..8),
        seeds in prop::collection::vec(0_u64..u64::MAX, 7..8),
        width in 1_usize..4,
        single_ticks in 0_usize..40,
        dt_s in (0_usize..2).prop_map(|i| [0.5_f64, 0.3][i]),
    ) {
        let mw = Power::from_milliwatts;
        let long_window = |pick: usize| match pick {
            0 => SourceSpec::Constant { power: mw(0.02) },
            1 => SourceSpec::Constant { power: Power::ZERO },
            2 => SourceSpec::Constant { power: mw(1.5) },
            3 => SourceSpec::Schedule(Schedule::plentiful()),
            _ => SourceSpec::Markov {
                on_power: mw(0.4),
                mean_on: Seconds::new(400.0),
                mean_off: Seconds::new(400.0),
                seed: 5,
            },
        };
        let dt = Seconds::new(dt_s);
        let mut scratch = SourceScratch::new();
        let jobs: Vec<BatchJob<AnySource>> = picks
            .iter()
            .zip(&durations)
            .zip(&seeds)
            .map(|((&pick, &duration), &seed)| {
                let config = FsmConfig::paper_default().with_seed(seed);
                let source = long_window(pick).build_seeded(seed, &mut scratch);
                BatchJob::new(config, source, Seconds::new(duration), dt)
            })
            .collect();
        let mut batch = BatchExecutor::new(width);
        for job in &jobs {
            batch.enqueue(job.clone());
        }
        for _ in 0..single_ticks {
            batch.tick();
        }
        let batched = batch.run_to_completion();
        for (k, (job, batched)) in jobs.into_iter().zip(&batched).enumerate() {
            let mut scalar = IntermittentExecutor::with_source(job.config, job.source);
            prop_assert_eq!(&scalar.run(job.duration, job.dt), batched, "job {}", k);
        }
    }
}
