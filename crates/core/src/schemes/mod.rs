//! The four intermittent-computing schemes compared in the paper's Fig. 5.
//!
//! All four share one accounting path (so that, per the paper's fairness
//! condition, "the same NVM technology is leveraged" and only the *placement
//! and number of NVM writes* plus the run-time cost of the state elements
//! differ):
//!
//! * [`SchemeKind::NvBased`] — every flip-flop becomes an NV-FF; backups
//!   store every architectural state bit and the heavier flip-flops slow down
//!   and energise every single register update.
//! * [`SchemeKind::NvClustering`] — the LE-FF approach of Roohi & DeMara:
//!   logic cones embedded into the state element reduce both the run-time
//!   penalty and the per-backup traffic.
//! * [`SchemeKind::Diac`] — the proposed flow: volatile flip-flops at run
//!   time, backups restricted to the tree-selected NVM boundaries.
//! * [`SchemeKind::DiacOptimized`] — DIAC plus the `Th_SafeZone` mechanism,
//!   which skips the backups for emergencies that recover before `Th_Bk`.
//!
//! Each scheme differs from the others only in five parameters, the
//! crate-private `match` methods on [`SchemeKind`] that
//! [`compare_all_schemes`] reads: the run-time cost factors of its state
//! element, whether it uses the safe zone, whether it runs the tree flow, the
//! bits per backup and the re-execution exposure.
//!
//! # Model constants
//!
//! A [`SchemeContext`] holds only what a sweep varies: the intermittency
//! profile, the restructuring policy, the NVM technology and the replacement
//! budget.  Everything else the PDP model reads is a constant of this module.
//! The absolute values are surrogate (the paper's were obtained from HSPICE,
//! Design Compiler and a modified CACTI on hardware we do not have); they are
//! chosen so that one backup costs on the order of a millijoule — consistent
//! with the paper's `Th_Bk` = 4 mJ reserve:
//!
//! | constant | value |
//! |---|---|
//! | compute energy of one task | 30 mJ |
//! | fixed energy / latency of one backup | 2 mJ / 1 ms |
//! | energy / latency per backed-up bit (MRAM) | 3 µJ / 2 µs |
//! | restore cost relative to backup cost | 0.25 |
//! | flip-flop switching activity | 0.5 |
//! | control bits per DIAC backup | 8 |
//! | gates per LE-FF cluster | 5 |
//!
//! The circuit side is fixed too: [`CircuitArtifacts`] prices gates with
//! [`tech45::energy_model::estimate`], which reads one constant cell table at
//! a combinational switching activity of 0.2, and clusters eight gates per
//! operand.

use std::fmt;

use netlist::levelize::Levels;
use netlist::Netlist;
use tech45::cells::CellKind;
use tech45::nvm::{NvmCell, NvmTechnology};
use tech45::units::{Energy, Seconds};

use crate::error::DiacError;
use crate::pdp::{IntermittencyProfile, PdpBreakdown};
use crate::pipeline::CircuitArtifacts;
use crate::policy::Policy;
use crate::replacement::{ReplacementConfig, ReplacementSummary};

/// Energy one benchmark task must spend on computation.  Per the paper's
/// assumption (1) this exceeds the 25 mJ storage capacity, so every task
/// spans several charge cycles.
const TASK_COMPUTE_ENERGY: Energy = Energy::from_millijoules(30.0);
/// Fixed energy of one backup (memory-controller wake-up, regulator and
/// peripheral losses), independent of how many bits are stored.
const BACKUP_FIXED_ENERGY: Energy = Energy::from_millijoules(2.0);
/// System-level energy per backed-up bit for the MRAM reference technology
/// (other technologies scale by their device write-energy ratio).
const BACKUP_ENERGY_PER_BIT: Energy = Energy::from_microjoules(3.0);
/// Fixed latency of one backup.
const BACKUP_FIXED_LATENCY: Seconds = Seconds::from_millis(1.0);
/// Per-bit backup latency (serial transfer into the backup array).
const BACKUP_LATENCY_PER_BIT: Seconds = Seconds::from_micros(2.0);
/// Restore cost relative to backup cost (NVM reads are much cheaper than
/// writes).
const RESTORE_COST_RATIO: f64 = 0.25;
/// Switching activity of flip-flops (fraction updating per evaluation).
const FF_ACTIVITY: f64 = 0.5;
/// Extra bits stored per DIAC backup for the `Reg_Flag` and FSM state.
const CONTROL_STATE_BITS: f64 = 8.0;
/// Average number of logic gates embedded per LE-FF cluster.
const CLUSTER_SIZE: f64 = 5.0;

/// Which of the four schemes is being evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Conventional checkpointing with one NV-FF per flip-flop.
    ///
    /// "The NV-based method operates similarly to conventional
    /// checkpointing, where flip-flops (FFs) are replaced by the NV-FFs to
    /// store states.  It provides the highest resiliency at the cost of
    /// significant overhead."  (Section IV.B of the paper.)
    NvBased,
    /// NV-Clustering with logic-embedded flip-flops (LE-FF).
    ///
    /// Reproduces the first-order behaviour of Roohi & DeMara,
    /// "NV-Clustering: Normally-Off Computing Using Non-Volatile Datapaths"
    /// (IEEE TC 2018), the second comparison point of the paper: Boolean
    /// logic is embedded into the state-holding cell, so clusters of gates
    /// share one non-volatile element — cheaper run-time updates than one
    /// NV-FF per bit and better-packed backup writes, but still no tree-level
    /// placement optimisation and no safe zone.
    NvClustering,
    /// DIAC without the safe zone.
    ///
    /// The design keeps plain volatile flip-flops at run time (no per-update
    /// penalty) and commits to NVM only at the tree-selected boundaries when
    /// the power-management unit raises a backup interrupt.  Because the
    /// replacement criteria prefer narrow, well-connected cuts near the
    /// outputs, a backup moves far fewer bits than checkpointing every state
    /// element.
    Diac,
    /// DIAC with the safe zone (the "optimized DIAC" of the paper).
    ///
    /// "To make the evaluation more comprehensive, we have considered two
    /// DIAC-based implementations, excluding and including Th_SafeZone […]
    /// this state allows us to reduce power consumption and delay by reducing
    /// the number of NVM writes required."  (Section IV.B.)  Whenever the
    /// stored energy dips below the operating threshold but recovers before
    /// reaching `Th_Bk`, the pending backup is skipped entirely; the fraction
    /// of emergencies that recover this way comes from the intermittency
    /// profile.
    DiacOptimized,
}

impl SchemeKind {
    /// All schemes in the order Fig. 5 reports them.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::NvBased,
        SchemeKind::NvClustering,
        SchemeKind::Diac,
        SchemeKind::DiacOptimized,
    ];

    /// Human-readable name matching the paper's legend.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::NvBased => "NV-based",
            SchemeKind::NvClustering => "NV-Clustering",
            SchemeKind::Diac => "DIAC",
            SchemeKind::DiacOptimized => "Optimized DIAC",
        }
    }

    /// Energy and delay of one register update of the scheme's state
    /// element, as factors of the library's volatile DFF.
    pub(crate) fn update_cost_factors(self) -> (f64, f64) {
        match self {
            // The MTJ / ferroelectric stack loads the internal nodes of the
            // NV-FF, so even ordinary (volatile) updates are noticeably
            // slower and hungrier than a plain DFF — this is the run-time
            // overhead the paper attributes to the NV-based baseline.
            SchemeKind::NvBased => (1.45, 1.35),
            // Embedding the logic cone keeps the LE-FF lighter than a full
            // NV-FF, but the state node still carries the MTJ stack, so
            // updates are noticeably costlier than a plain DFF (between the
            // volatile and NV-FF extremes).
            SchemeKind::NvClustering => (1.25, 1.20),
            // DIAC keeps plain volatile flip-flops at run time.
            SchemeKind::Diac | SchemeKind::DiacOptimized => (1.0, 1.0),
        }
    }

    /// Whether the scheme implements the `Th_SafeZone` mechanism.
    pub(crate) fn uses_safe_zone(self) -> bool {
        self == SchemeKind::DiacOptimized
    }

    /// Whether the scheme runs the DIAC tree flow (policy + replacement).
    pub(crate) fn needs_tree(self) -> bool {
        matches!(self, SchemeKind::Diac | SchemeKind::DiacOptimized)
    }

    /// Bits written per backup event.
    pub(crate) fn bits_per_backup(
        self,
        state_bits: u64,
        replacement: Option<&ReplacementSummary>,
    ) -> f64 {
        match self {
            // Every architectural state bit lives in its own scattered NV-FF,
            // so every backup commits all of them and cannot share write
            // peripherals the way a packed backup array can.
            SchemeKind::NvBased => state_bits as f64 * 1.25,
            SchemeKind::NvClustering => {
                // Clustering lets several state bits share one write driver:
                // the commits are grouped per cluster, but each clustered
                // commit carries a packing premium because the embedded cone
                // needs a stronger driver.  Net effect: noticeably cheaper
                // than one scattered NV-FF write per bit, yet still
                // proportional to the full architectural state.
                let commits = (state_bits as f64 / CLUSTER_SIZE).ceil();
                let bits_per_commit = CLUSTER_SIZE * (1.0 + 0.15 * CLUSTER_SIZE.sqrt()) * 0.78;
                commits * bits_per_commit
            }
            // Both DIAC schemes store the live boundary cut plus the control
            // state (`Reg_Flag`, FSM state) that the backup routine always
            // stores.
            SchemeKind::Diac | SchemeKind::DiacOptimized => {
                let boundary_bits = replacement
                    .map(|r| r.average_boundary_bits)
                    .filter(|&b| b > 0.0)
                    // Without a replacement summary fall back to the
                    // architectural state, which is what a naive backup of
                    // the design would store.
                    .unwrap_or(state_bits as f64);
                boundary_bits + CONTROL_STATE_BITS
            }
        }
    }

    /// Fraction of one cycle's usable energy that is lost (and must be
    /// re-executed) when power fails completely.
    pub(crate) fn reexecution_exposure(self) -> f64 {
        match self {
            // With every flip-flop non-volatile, only the work of the cycle
            // in flight is lost on a sudden failure.
            SchemeKind::NvBased => 0.02,
            SchemeKind::NvClustering => 0.05,
            // Work since the last committed boundary is lost on a sudden
            // failure; the boundaries are spaced by the replacement budget,
            // so the exposure is larger than for the always-persistent
            // baselines.
            SchemeKind::Diac | SchemeKind::DiacOptimized => 0.10,
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a scheme evaluation needs besides the netlist itself: the
/// values a design-space sweep varies.  The library, the tree clustering and
/// the model constants are fixed (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeContext {
    /// Intermittency of the ambient supply.
    pub profile: IntermittencyProfile,
    /// Restructuring policy applied before NVM insertion (DIAC schemes only).
    pub policy: Policy,
    /// NVM technology and replacement budget.  Its `technology` is the NVM
    /// technology every scheme retains state in (the paper's fairness
    /// condition), not only the DIAC backup arrays.
    pub replacement: ReplacementConfig,
}

impl Default for SchemeContext {
    fn default() -> Self {
        Self {
            profile: IntermittencyProfile::default(),
            policy: Policy::Policy3,
            replacement: ReplacementConfig::default(),
        }
    }
}

impl SchemeContext {
    /// Same context with a different NVM technology (used by the sensitivity
    /// study of Section IV.C).
    #[must_use]
    pub fn with_nvm(mut self, nvm: NvmTechnology) -> Self {
        self.replacement.technology = nvm;
        self
    }

    /// Same context with a different intermittency profile.
    #[must_use]
    pub fn with_profile(mut self, profile: IntermittencyProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Same context with a different restructuring policy.
    #[must_use]
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }
}

/// Result of evaluating one scheme on one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// Which scheme was evaluated.
    pub kind: SchemeKind,
    /// Circuit name.
    pub circuit: String,
    /// Full energy/delay breakdown of one task.
    pub breakdown: PdpBreakdown,
    /// Run-time energy overhead factor relative to a volatile design.
    pub runtime_energy_factor: f64,
    /// Run-time delay overhead factor relative to a volatile design.
    pub runtime_delay_factor: f64,
    /// Bits written per backup event.
    pub bits_per_backup: f64,
    /// Replacement summary (only for the DIAC schemes).
    pub replacement: Option<ReplacementSummary>,
}

impl SchemeResult {
    /// The power-delay product of this result.
    #[must_use]
    pub fn pdp(&self) -> f64 {
        self.breakdown.pdp()
    }
}

/// Results of all four schemes on one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeComparison {
    /// Circuit name.
    pub circuit: String,
    /// One result per scheme, in [`SchemeKind::ALL`] order.
    pub results: Vec<SchemeResult>,
}

impl SchemeComparison {
    /// The result of one scheme.
    #[must_use]
    pub fn result(&self, kind: SchemeKind) -> Option<&SchemeResult> {
        self.results.iter().find(|r| r.kind == kind)
    }

    /// PDP of `kind` normalised against the NV-based baseline (the y-axis of
    /// Fig. 5).
    #[must_use]
    pub fn normalized_pdp(&self, kind: SchemeKind) -> f64 {
        let (Some(r), Some(base)) = (self.result(kind), self.result(SchemeKind::NvBased)) else {
            return 0.0;
        };
        r.breakdown.normalized_pdp(&base.breakdown)
    }

    /// PDP improvement of scheme `a` over scheme `b` in percent.
    #[must_use]
    pub fn improvement(&self, a: SchemeKind, b: SchemeKind) -> f64 {
        let (Some(ra), Some(rb)) = (self.result(a), self.result(b)) else {
            return 0.0;
        };
        ra.breakdown.improvement_over(&rb.breakdown)
    }
}

/// Structural/energetic figures shared by all schemes for one circuit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CircuitFigures {
    comb_energy: Energy,
    comb_delay: Seconds,
    /// Energy and delay of one update of the volatile DFF.
    dff_energy: Energy,
    dff_delay: Seconds,
    flip_flops: u64,
    state_bits: u64,
}

pub(crate) fn circuit_figures(netlist: &Netlist, levels: &Levels) -> CircuitFigures {
    let mut cells = Vec::new();
    for gate in netlist.iter().filter(|g| g.kind.is_combinational()) {
        gate.kind.decompose_into(gate.fanin_count(), &mut cells);
    }
    let estimate = tech45::energy_model::estimate(&cells, Some(levels.depth().max(1) as usize));
    let dff = CellKind::Dff.cell();
    CircuitFigures {
        comb_energy: estimate.total(),
        comb_delay: estimate.critical_path,
        dff_energy: dff.switching_energy(),
        dff_delay: dff.delay,
        flip_flops: netlist.flip_flop_count() as u64,
        state_bits: netlist.architectural_state_bits(),
    }
}

/// Per-evaluation energy/delay of the circuit whose flip-flop updates cost
/// the DFF's times `(energy_factor, delay_factor)`.
fn evaluation_cost(
    figures: &CircuitFigures,
    (energy_factor, delay_factor): (f64, f64),
) -> (Energy, Seconds) {
    let ff_updates = figures.flip_flops as f64 * FF_ACTIVITY;
    let energy = figures.comb_energy + (figures.dff_energy * energy_factor) * ff_updates;
    // One register stage sits on the critical path of every evaluation.
    let delay = figures.comb_delay + figures.dff_delay * delay_factor;
    (energy, delay)
}

/// Evaluates one scheme against prepared circuit artifacts.  The expensive
/// scheme-independent products (figures, operand tree, policy restructuring,
/// NVM replacement) come from the artifact caches; everything per-scheme is
/// recomputed here.
pub(crate) fn evaluate_scheme_with(
    artifacts: &CircuitArtifacts<'_>,
    ctx: &SchemeContext,
    kind: SchemeKind,
) -> Result<SchemeResult, DiacError> {
    if !ctx.profile.is_valid() {
        return Err(DiacError::InvalidConfig {
            message: format!("intermittency profile is invalid: {}", ctx.profile),
        });
    }
    let figures = *artifacts.figures();

    // Run-time cost of the scheme's state elements vs. a volatile design.
    let (e_eval_ref, t_eval_ref) = evaluation_cost(&figures, (1.0, 1.0));
    let (e_eval, t_eval) = evaluation_cost(&figures, kind.update_cost_factors());
    let runtime_energy_factor = e_eval.ratio(e_eval_ref);
    let runtime_delay_factor = t_eval.ratio(t_eval_ref);

    // DIAC schemes run the tree flow to find their backup boundaries.
    let replacement =
        if kind.needs_tree() { Some(artifacts.replacement_summary(ctx)?) } else { None };

    // --- task-level accounting ----------------------------------------------
    let task_energy_ref = TASK_COMPUTE_ENERGY;
    let evaluations = task_energy_ref.ratio(e_eval_ref);
    let compute_energy = task_energy_ref * runtime_energy_factor;
    let compute_delay = Seconds::new(t_eval.as_seconds() * evaluations);

    let usable = ctx.profile.usable_energy_per_cycle;
    let cycles = (compute_energy.ratio(usable)).max(1.0);
    let safe_fraction =
        if kind.uses_safe_zone() { ctx.profile.safe_zone_recovery_fraction } else { 0.0 };
    let backups = cycles * (1.0 - safe_fraction);
    let restores = backups * ctx.profile.power_loss_fraction;

    // Backup / restore cost per event, scaled by the NVM technology.
    let cell = NvmCell::for_technology(ctx.replacement.technology);
    let write_ratio = cell.write_energy_vs_mram();
    let latency_ratio =
        cell.write_latency.ratio(NvmCell::for_technology(NvmTechnology::Mram).write_latency);
    let bits = kind.bits_per_backup(figures.state_bits, replacement.as_ref());
    let backup_energy_per_event =
        BACKUP_FIXED_ENERGY + BACKUP_ENERGY_PER_BIT * (bits * write_ratio);
    let backup_latency_per_event =
        BACKUP_FIXED_LATENCY + BACKUP_LATENCY_PER_BIT * (bits * latency_ratio);
    let restore_energy_per_event = backup_energy_per_event * RESTORE_COST_RATIO;
    let restore_latency_per_event = backup_latency_per_event * RESTORE_COST_RATIO;

    let checkpoint_energy = backup_energy_per_event * backups;
    let checkpoint_delay = backup_latency_per_event * backups;
    let restore_energy = restore_energy_per_event * restores;
    let restore_delay = restore_latency_per_event * restores;

    // Work lost to complete power failures and redone afterwards.
    let reexecution_energy = usable * (kind.reexecution_exposure() * restores);
    let compute_power = e_eval_ref / t_eval_ref;
    let reexecution_delay = reexecution_energy / compute_power;

    // Dead time recharging between bursts.
    let recharge_delay = ctx.profile.recharge_time_per_cycle() * cycles;

    let breakdown = PdpBreakdown {
        compute_energy,
        checkpoint_energy,
        restore_energy,
        reexecution_energy,
        compute_delay,
        checkpoint_delay,
        restore_delay,
        reexecution_delay,
        recharge_delay,
        nvm_bits_written: (bits * backups).round() as u64,
        cycles,
        backups,
        restores,
    };

    Ok(SchemeResult {
        kind,
        circuit: artifacts.name().to_string(),
        breakdown,
        runtime_energy_factor,
        runtime_delay_factor,
        bits_per_backup: bits,
        replacement,
    })
}

/// Evaluates all four schemes on one circuit.
///
/// The netlist is parsed, levelized and clustered into the operand tree
/// exactly once; the four schemes share those artifacts through
/// [`CircuitArtifacts`], and the two DIAC variants additionally share one
/// policy + replacement run.
///
/// # Errors
///
/// Propagates netlist analysis, tree construction and configuration errors.
pub fn compare_all_schemes(
    netlist: &Netlist,
    ctx: &SchemeContext,
) -> Result<SchemeComparison, DiacError> {
    compare_with(&CircuitArtifacts::build(netlist)?, ctx)
}

/// Evaluates all four schemes, in [`SchemeKind::ALL`] order, against
/// prepared artifacts.
pub(crate) fn compare_with(
    artifacts: &CircuitArtifacts<'_>,
    ctx: &SchemeContext,
) -> Result<SchemeComparison, DiacError> {
    let results = SchemeKind::ALL
        .into_iter()
        .map(|kind| evaluate_scheme_with(artifacts, ctx, kind))
        .collect::<Result<_, _>>()?;
    Ok(SchemeComparison { circuit: artifacts.name().to_string(), results })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::suite::BenchmarkSuite;

    fn circuit(name: &str) -> Netlist {
        BenchmarkSuite::diac_paper().materialize(name).unwrap()
    }

    #[test]
    fn all_four_schemes_are_evaluated() {
        let cmp = compare_all_schemes(&circuit("s298"), &SchemeContext::default()).unwrap();
        assert_eq!(cmp.results.len(), 4);
        for kind in SchemeKind::ALL {
            assert!(cmp.result(kind).is_some(), "{kind}");
        }
    }

    #[test]
    fn the_paper_ordering_holds_on_a_mid_size_circuit() {
        let cmp = compare_all_schemes(&circuit("s400"), &SchemeContext::default()).unwrap();
        let pdp = |k: SchemeKind| cmp.result(k).unwrap().pdp();
        assert!(pdp(SchemeKind::DiacOptimized) < pdp(SchemeKind::Diac));
        assert!(pdp(SchemeKind::Diac) < pdp(SchemeKind::NvClustering));
        assert!(pdp(SchemeKind::NvClustering) < pdp(SchemeKind::NvBased));
    }

    #[test]
    fn normalized_pdp_of_the_baseline_is_one() {
        let cmp = compare_all_schemes(&circuit("s344"), &SchemeContext::default()).unwrap();
        assert!((cmp.normalized_pdp(SchemeKind::NvBased) - 1.0).abs() < 1e-12);
        assert!(cmp.normalized_pdp(SchemeKind::DiacOptimized) < 1.0);
    }

    #[test]
    fn improvements_are_positive_and_bounded() {
        let cmp = compare_all_schemes(&circuit("s386"), &SchemeContext::default()).unwrap();
        let imp = cmp.improvement(SchemeKind::DiacOptimized, SchemeKind::NvBased);
        assert!(imp > 0.0 && imp < 100.0, "improvement {imp}");
        let self_imp = cmp.improvement(SchemeKind::Diac, SchemeKind::Diac);
        assert!(self_imp.abs() < 1e-9);
    }

    #[test]
    fn diac_schemes_carry_a_replacement_summary() {
        let cmp = compare_all_schemes(&circuit("s298"), &SchemeContext::default()).unwrap();
        assert!(cmp.result(SchemeKind::Diac).unwrap().replacement.is_some());
        assert!(cmp.result(SchemeKind::DiacOptimized).unwrap().replacement.is_some());
        assert!(cmp.result(SchemeKind::NvBased).unwrap().replacement.is_none());
        assert!(cmp.result(SchemeKind::NvClustering).unwrap().replacement.is_none());
    }

    #[test]
    fn nv_based_has_the_highest_runtime_overhead() {
        let cmp = compare_all_schemes(&circuit("s344"), &SchemeContext::default()).unwrap();
        let nv = cmp.result(SchemeKind::NvBased).unwrap();
        let cl = cmp.result(SchemeKind::NvClustering).unwrap();
        let diac = cmp.result(SchemeKind::Diac).unwrap();
        assert!(nv.runtime_energy_factor > cl.runtime_energy_factor);
        assert!(cl.runtime_energy_factor > diac.runtime_energy_factor);
        assert!((diac.runtime_energy_factor - 1.0).abs() < 1e-9);
        assert!(nv.runtime_delay_factor > 1.0);
    }

    #[test]
    fn optimized_diac_takes_fewer_backups_than_diac() {
        let cmp = compare_all_schemes(&circuit("s510"), &SchemeContext::default()).unwrap();
        let diac = cmp.result(SchemeKind::Diac).unwrap();
        let opt = cmp.result(SchemeKind::DiacOptimized).unwrap();
        assert!(opt.breakdown.backups < diac.breakdown.backups);
        assert!(opt.breakdown.checkpoint_energy < diac.breakdown.checkpoint_energy);
    }

    #[test]
    fn reram_widens_the_gap_as_the_paper_argues() {
        let circuit = circuit("s526");
        let mram_cmp = compare_all_schemes(&circuit, &SchemeContext::default()).unwrap();
        let reram_cmp =
            compare_all_schemes(&circuit, &SchemeContext::default().with_nvm(NvmTechnology::Reram))
                .unwrap();
        let mram_gain = mram_cmp.improvement(SchemeKind::DiacOptimized, SchemeKind::NvBased);
        let reram_gain = reram_cmp.improvement(SchemeKind::DiacOptimized, SchemeKind::NvBased);
        assert!(
            reram_gain > mram_gain,
            "ReRAM should widen the gap: {reram_gain:.1}% vs {mram_gain:.1}%"
        );
    }

    #[test]
    fn an_invalid_profile_is_rejected() {
        let mut ctx = SchemeContext::default();
        ctx.profile.safe_zone_recovery_fraction = 2.0;
        let err = compare_all_schemes(&circuit("s27"), &ctx).unwrap_err();
        assert!(matches!(err, DiacError::InvalidConfig { .. }));
    }

    #[test]
    fn scheme_names_match_the_paper_legend() {
        assert_eq!(SchemeKind::NvBased.to_string(), "NV-based");
        assert_eq!(SchemeKind::NvClustering.to_string(), "NV-Clustering");
        assert_eq!(SchemeKind::Diac.to_string(), "DIAC");
        assert_eq!(SchemeKind::DiacOptimized.to_string(), "Optimized DIAC");
    }
}

// The parameter checks of each scheme, one module per scheme.

#[cfg(test)]
mod nv_based {
    mod tests {
        use crate::schemes::SchemeKind::NvBased;

        #[test]
        fn uses_nv_ffs_and_no_safe_zone() {
            // Every NV-FF update costs more energy and time than a DFF's.
            let (energy, delay) = NvBased.update_cost_factors();
            assert!(energy > 1.0 && delay > 1.0, "({energy}, {delay})");
            assert!(!NvBased.uses_safe_zone());
            assert!(!NvBased.needs_tree());
        }

        #[test]
        fn backs_up_every_state_bit_with_a_scatter_penalty() {
            let bits = NvBased.bits_per_backup(100, None);
            assert!((bits - 125.0).abs() < 1e-9);
        }

        #[test]
        fn has_the_smallest_reexecution_exposure() {
            assert!(NvBased.reexecution_exposure() < 0.1);
        }
    }
}

#[cfg(test)]
mod nv_clustering {
    mod tests {
        use crate::schemes::SchemeKind::{Diac, NvBased, NvClustering};

        #[test]
        fn uses_le_ffs_without_a_safe_zone_or_tree() {
            // An LE-FF update sits strictly between a volatile DFF's and an
            // NV-FF's, in both energy and delay.
            let (le_energy, le_delay) = NvClustering.update_cost_factors();
            let (dff_energy, dff_delay) = Diac.update_cost_factors();
            let (nv_energy, nv_delay) = NvBased.update_cost_factors();
            assert!(dff_energy < le_energy && le_energy < nv_energy);
            assert!(dff_delay < le_delay && le_delay < nv_delay);
            assert!(!NvClustering.uses_safe_zone());
            assert!(!NvClustering.needs_tree());
        }

        #[test]
        fn backup_traffic_sits_between_diac_and_nv_based() {
            let bits = NvClustering.bits_per_backup(100, None);
            assert!(bits < 125.0, "must beat NV-based ({bits})");
            assert!(bits > 10.0, "must not be implausibly small ({bits})");
        }

        #[test]
        fn exposure_is_between_the_extremes() {
            assert!(NvClustering.reexecution_exposure() > 0.02);
            assert!(NvClustering.reexecution_exposure() < 0.5);
        }
    }
}

#[cfg(test)]
mod diac {
    mod tests {
        use crate::replacement::ReplacementSummary;
        use crate::schemes::SchemeKind::Diac;
        use tech45::units::{Energy, Seconds};

        #[test]
        fn uses_volatile_ffs_and_the_tree_flow() {
            assert_eq!(Diac.update_cost_factors(), (1.0, 1.0));
            assert!(!Diac.uses_safe_zone());
            assert!(Diac.needs_tree());
        }

        #[test]
        fn backup_bits_come_from_the_boundary_cut() {
            let summary = ReplacementSummary {
                boundaries: 5,
                total_boundary_bits: 60,
                average_boundary_bits: 12.0,
                energy_budget: Energy::from_millijoules(1.0),
                max_unsaved_energy: Energy::from_millijoules(1.0),
                backup_energy: Energy::ZERO,
                backup_latency: Seconds::ZERO,
                restore_energy: Energy::ZERO,
                restore_latency: Seconds::ZERO,
            };
            let bits = Diac.bits_per_backup(200, Some(&summary));
            assert!((bits - 20.0).abs() < 1e-9, "12 boundary bits + 8 control bits, got {bits}");
        }

        #[test]
        fn falls_back_to_state_bits_without_a_summary() {
            let bits = Diac.bits_per_backup(40, None);
            assert!((bits - 48.0).abs() < 1e-9);
        }

        #[test]
        fn exposure_reflects_the_coarser_checkpoints() {
            assert!(Diac.reexecution_exposure() > 0.05);
        }
    }
}

#[cfg(test)]
mod diac_opt {
    mod tests {
        use crate::schemes::SchemeKind::DiacOptimized;

        #[test]
        fn is_diac_plus_the_safe_zone() {
            assert_eq!(DiacOptimized.update_cost_factors(), (1.0, 1.0));
            assert!(DiacOptimized.uses_safe_zone());
            assert!(DiacOptimized.needs_tree());
        }

        #[test]
        fn backup_bits_match_plain_diac() {
            let a = DiacOptimized.bits_per_backup(64, None);
            let b = crate::schemes::SchemeKind::Diac.bits_per_backup(64, None);
            assert!((a - b).abs() < 1e-12);
        }
    }
}
