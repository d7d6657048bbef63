//! The four intermittent-computing schemes compared in the paper's Fig. 5.
//!
//! All four share one accounting path (so that, per the paper's fairness
//! condition, "the same NVM technology is leveraged" and only the *placement
//! and number of NVM writes* plus the run-time cost of the state elements
//! differ):
//!
//! * [`NvBased`] — every flip-flop becomes an NV-FF; backups store every
//!   architectural state bit and the heavier flip-flops slow down and
//!   energise every single register update.
//! * [`NvClustering`] — the LE-FF approach of Roohi & DeMara: logic cones
//!   embedded into the state element reduce both the run-time penalty and the
//!   per-backup traffic.
//! * [`Diac`] — the proposed flow: volatile flip-flops at run time, backups
//!   restricted to the tree-selected NVM boundaries.
//! * [`DiacOptimized`] — DIAC plus the `Th_SafeZone` mechanism, which skips the
//!   backups for emergencies that recover before `Th_Bk`.

mod diac;
mod diac_opt;
mod nv_based;
mod nv_clustering;

pub use diac::Diac;
pub use diac_opt::DiacOptimized;
pub use nv_based::NvBased;
pub use nv_clustering::NvClustering;

use std::fmt;

use netlist::levelize::Levels;
use netlist::Netlist;
use tech45::cells::CellLibrary;
use tech45::flipflop::{FlipFlopKind, FlipFlopModel};
use tech45::nvm::{NvmCell, NvmTechnology};
use tech45::units::{Energy, Seconds};

use crate::error::DiacError;
use crate::pdp::{IntermittencyProfile, PdpBreakdown};
use crate::pipeline::CircuitArtifacts;
use crate::policy::Policy;
use crate::replacement::{ReplacementConfig, ReplacementSummary};
use crate::tree::TreeGeneratorConfig;

/// Which of the four schemes is being evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Conventional checkpointing with one NV-FF per flip-flop.
    NvBased,
    /// NV-Clustering with logic-embedded flip-flops (LE-FF).
    NvClustering,
    /// DIAC without the safe zone.
    Diac,
    /// DIAC with the safe zone (the "optimized DIAC" of the paper).
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
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// System-level calibration constants of the PDP model.
///
/// The absolute values are surrogate (the paper's were obtained from HSPICE,
/// Design Compiler and a modified CACTI on hardware we do not have); they are
/// chosen so that one backup costs on the order of a millijoule — consistent
/// with the paper's `Th_Bk` = 4 mJ reserve — and are documented here so every
/// experiment states its assumptions explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Energy one benchmark task must spend on computation.  Per the paper's
    /// assumption (1) this exceeds the 25 mJ storage capacity, so every task
    /// spans several charge cycles.
    pub task_compute_energy: Energy,
    /// Fixed energy of one backup (memory-controller wake-up, regulator and
    /// peripheral losses), independent of how many bits are stored.
    pub backup_fixed_energy: Energy,
    /// System-level energy per backed-up bit for the MRAM reference
    /// technology (other technologies scale by their device write-energy
    /// ratio).
    pub backup_energy_per_bit: Energy,
    /// Fixed latency of one backup.
    pub backup_fixed_latency: Seconds,
    /// Per-bit backup latency (serial transfer into the backup array).
    pub backup_latency_per_bit: Seconds,
    /// Restore cost relative to backup cost (NVM reads are much cheaper than
    /// writes).
    pub restore_cost_ratio: f64,
    /// Switching activity of flip-flops (fraction updating per evaluation).
    pub ff_activity: f64,
    /// Switching activity of combinational gates.
    pub comb_activity: f64,
    /// Extra bits stored per DIAC backup for the `Reg_Flag` and FSM state.
    pub control_state_bits: u64,
    /// Average number of logic gates embedded per LE-FF cluster.
    pub cluster_size: usize,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            task_compute_energy: Energy::from_millijoules(30.0),
            backup_fixed_energy: Energy::from_millijoules(2.0),
            backup_energy_per_bit: Energy::from_microjoules(3.0),
            backup_fixed_latency: Seconds::from_millis(1.0),
            backup_latency_per_bit: Seconds::from_micros(2.0),
            restore_cost_ratio: 0.25,
            ff_activity: 0.5,
            comb_activity: tech45::constants::DEFAULT_ACTIVITY,
            control_state_bits: 8,
            cluster_size: 5,
        }
    }
}

/// Everything a scheme evaluation needs besides the netlist itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeContext {
    /// Standard-cell library used for the energy estimates.
    pub library: CellLibrary,
    /// NVM technology used for state retention (same for all schemes).
    pub nvm: NvmTechnology,
    /// Intermittency of the ambient supply.
    pub profile: IntermittencyProfile,
    /// Restructuring policy applied before NVM insertion (DIAC schemes only).
    pub policy: Policy,
    /// Netlist-to-tree clustering configuration.
    pub tree_config: TreeGeneratorConfig,
    /// NVM-boundary insertion configuration.
    pub replacement: ReplacementConfig,
    /// System-level calibration constants.
    pub calibration: Calibration,
}

impl Default for SchemeContext {
    fn default() -> Self {
        Self {
            library: CellLibrary::nangate45_surrogate(),
            nvm: NvmTechnology::Mram,
            profile: IntermittencyProfile::default(),
            policy: Policy::Policy3,
            tree_config: TreeGeneratorConfig::default(),
            replacement: ReplacementConfig::default(),
            calibration: Calibration::default(),
        }
    }
}

impl SchemeContext {
    /// Same context with a different NVM technology (used by the sensitivity
    /// study of Section IV.C).
    #[must_use]
    pub fn with_nvm(mut self, nvm: NvmTechnology) -> Self {
        self.nvm = nvm;
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

/// The per-scheme knobs of the shared accounting path.
pub(crate) trait SchemeSpec {
    /// Which scheme this is.
    fn kind(&self) -> SchemeKind;

    /// The state element the scheme uses at run time.
    fn flip_flop(&self, ctx: &SchemeContext) -> FlipFlopKind;

    /// Whether the scheme implements the `Th_SafeZone` mechanism.
    fn uses_safe_zone(&self) -> bool;

    /// Whether the scheme runs the DIAC tree flow (policy + replacement).
    fn needs_tree(&self) -> bool;

    /// Bits written per backup event.
    fn bits_per_backup(
        &self,
        state_bits: u64,
        replacement: Option<&ReplacementSummary>,
        calibration: &Calibration,
    ) -> f64;

    /// Fraction of one cycle's usable energy that is lost (and must be
    /// re-executed) when power fails completely.
    fn reexecution_exposure(&self) -> f64;
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
    flip_flops: u64,
    state_bits: u64,
}

pub(crate) fn circuit_figures(
    netlist: &Netlist,
    levels: &Levels,
    ctx: &SchemeContext,
) -> CircuitFigures {
    let mut cells = Vec::new();
    for gate in netlist.iter().filter(|g| g.kind.is_combinational()) {
        gate.kind.decompose_into(gate.fanin_count(), &mut cells);
    }
    let estimate = tech45::energy_model::estimate(
        &cells,
        Some(levels.depth().max(1) as usize),
        ctx.calibration.comb_activity,
        &ctx.library,
    );
    CircuitFigures {
        comb_energy: estimate.total(),
        comb_delay: estimate.critical_path,
        flip_flops: netlist.flip_flop_count() as u64,
        state_bits: netlist.architectural_state_bits(),
    }
}

/// Per-evaluation energy/delay of the circuit with a given state element.
fn evaluation_cost(
    figures: &CircuitFigures,
    ff: &FlipFlopModel,
    calibration: &Calibration,
) -> (Energy, Seconds) {
    let ff_updates = figures.flip_flops as f64 * calibration.ff_activity;
    let energy = figures.comb_energy + ff.update_energy * ff_updates;
    // One register stage sits on the critical path of every evaluation.
    let delay = figures.comb_delay + ff.update_delay;
    (energy, delay)
}

/// The spec of one scheme kind.
pub(crate) fn spec_for(kind: SchemeKind) -> &'static dyn SchemeSpec {
    match kind {
        SchemeKind::NvBased => &NvBased,
        SchemeKind::NvClustering => &NvClustering,
        SchemeKind::Diac => &Diac,
        SchemeKind::DiacOptimized => &DiacOptimized,
    }
}

/// Evaluates one scheme against prepared circuit artifacts.  The expensive
/// scheme-independent products (figures, operand tree, policy restructuring,
/// NVM replacement) come from the artifact caches; everything per-scheme is
/// recomputed here.
pub(crate) fn evaluate_scheme_with(
    artifacts: &CircuitArtifacts<'_>,
    ctx: &SchemeContext,
    spec: &dyn SchemeSpec,
) -> Result<SchemeResult, DiacError> {
    if !ctx.profile.is_valid() {
        return Err(DiacError::InvalidConfig {
            message: format!("intermittency profile is invalid: {}", ctx.profile),
        });
    }
    let calibration = &ctx.calibration;
    let figures = *artifacts.figures();

    // Run-time cost of the scheme's state elements vs. a volatile design.
    let volatile = FlipFlopModel::for_kind(FlipFlopKind::Volatile, &ctx.library);
    let scheme_ff = FlipFlopModel::for_kind(spec.flip_flop(ctx), &ctx.library);
    let (e_eval_ref, t_eval_ref) = evaluation_cost(&figures, &volatile, calibration);
    let (e_eval, t_eval) = evaluation_cost(&figures, &scheme_ff, calibration);
    let runtime_energy_factor = e_eval.ratio(e_eval_ref);
    let runtime_delay_factor = t_eval.ratio(t_eval_ref);

    // DIAC schemes run the tree flow to find their backup boundaries.
    let replacement =
        if spec.needs_tree() { Some(artifacts.replacement_summary(ctx)?) } else { None };

    // --- task-level accounting ----------------------------------------------
    let task_energy_ref = calibration.task_compute_energy;
    let evaluations = task_energy_ref.ratio(e_eval_ref);
    let compute_energy = task_energy_ref * runtime_energy_factor;
    let compute_delay = Seconds::new(t_eval.as_seconds() * evaluations);

    let usable = ctx.profile.usable_energy_per_cycle;
    let cycles = (compute_energy.ratio(usable)).max(1.0);
    let safe_fraction =
        if spec.uses_safe_zone() { ctx.profile.safe_zone_recovery_fraction } else { 0.0 };
    let backups = cycles * (1.0 - safe_fraction);
    let restores = backups * ctx.profile.power_loss_fraction;

    // Backup / restore cost per event, scaled by the NVM technology.
    let cell = NvmCell::for_technology(ctx.nvm);
    let write_ratio = cell.write_energy_vs_mram();
    let latency_ratio =
        cell.write_latency.ratio(NvmCell::for_technology(NvmTechnology::Mram).write_latency);
    let bits = spec.bits_per_backup(figures.state_bits, replacement.as_ref(), calibration);
    let backup_energy_per_event =
        calibration.backup_fixed_energy + calibration.backup_energy_per_bit * (bits * write_ratio);
    let backup_latency_per_event = calibration.backup_fixed_latency
        + calibration.backup_latency_per_bit * (bits * latency_ratio);
    let restore_energy_per_event = backup_energy_per_event * calibration.restore_cost_ratio;
    let restore_latency_per_event = backup_latency_per_event * calibration.restore_cost_ratio;

    let checkpoint_energy = backup_energy_per_event * backups;
    let checkpoint_delay = backup_latency_per_event * backups;
    let restore_energy = restore_energy_per_event * restores;
    let restore_delay = restore_latency_per_event * restores;

    // Work lost to complete power failures and redone afterwards.
    let reexecution_energy = usable * (spec.reexecution_exposure() * restores);
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
        kind: spec.kind(),
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
    let artifacts = CircuitArtifacts::build(netlist, ctx)?;
    let mut results = Vec::with_capacity(SchemeKind::ALL.len());
    for kind in SchemeKind::ALL {
        results.push(evaluate_scheme_with(&artifacts, ctx, spec_for(kind))?);
    }
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
