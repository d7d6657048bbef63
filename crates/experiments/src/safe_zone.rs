//! Ablation — effect of the `Th_SafeZone` margin.
//!
//! The safe zone is the mechanism that separates "optimized DIAC" from plain
//! DIAC: emergencies that recover before the stored energy reaches `Th_Bk`
//! skip the NVM backup entirely.  This ablation sweeps the width of the zone
//! (0 = disabled, up to 6 mJ) and reports, from the runtime simulation, how
//! many backups were avoided and what that does to the node-level PDP proxy
//! (energy consumed × time to finish the same work).

use ehsim::schedule::Schedule;
use isim::executor::IntermittentExecutor;
use isim::fsm::FsmConfig;
use tech45::units::{Energy, Seconds};

use crate::report::Table;
use crate::suite_runner::SuiteRunner;

/// Result of one safe-zone margin setting.
#[derive(Debug, Clone, PartialEq)]
pub struct SafeZoneRow {
    /// Width of the safe zone above `Th_Bk` (mJ).
    pub margin_mj: f64,
    /// NVM backups taken over the run.
    pub backups: u64,
    /// Safe-zone dips that recovered without a backup.
    pub recoveries: u64,
    /// Completed sense/compute tasks (forward progress).
    pub completed_tasks: u64,
    /// Energy consumed over the run (mJ).
    pub energy_consumed_mj: f64,
    /// Node-level PDP proxy: consumed energy × time per completed task.
    pub pdp_proxy: f64,
}

/// The whole ablation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SafeZoneAblation {
    /// One row per margin value, in sweep order.
    pub rows: Vec<SafeZoneRow>,
}

impl SafeZoneAblation {
    /// The ablation as a table.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Ablation — Th_SafeZone margin vs. NVM backups and PDP proxy",
            &["margin (mJ)", "backups", "recoveries", "tasks", "energy (mJ)", "PDP proxy"],
        );
        for row in &self.rows {
            table.push_row(vec![
                format!("{:.1}", row.margin_mj),
                row.backups.to_string(),
                row.recoveries.to_string(),
                row.completed_tasks.to_string(),
                format!("{:.1}", row.energy_consumed_mj),
                format!("{:.3e}", row.pdp_proxy),
            ]);
        }
        table
    }
}

/// Runs the ablation over the given margins (in millijoules).  Every margin
/// is an independent runtime simulation, so the sweep is fanned out across
/// cores by the [`SuiteRunner`]; rows come back in sweep order.
#[must_use]
pub fn run_with_margins(margins_mj: &[f64], duration: Seconds) -> SafeZoneAblation {
    let rows = SuiteRunner::new().map(margins_mj, |_, &margin| {
        let mut config = FsmConfig::paper_default();
        config.thresholds =
            config.thresholds.with_safe_zone_margin(Energy::from_millijoules(margin));
        let mut exec = IntermittentExecutor::new(config, Schedule::scarce());
        let stats = exec.run(duration, Seconds::new(0.1));
        let tasks = stats.completed_tasks().max(1);
        let pdp_proxy = stats.energy_consumed.as_joules() * duration.as_seconds() / tasks as f64;
        SafeZoneRow {
            margin_mj: margin,
            backups: stats.backups,
            recoveries: stats.safe_zone_recoveries,
            completed_tasks: stats.completed_tasks(),
            energy_consumed_mj: stats.energy_consumed.as_millijoules(),
            pdp_proxy,
        }
    });
    SafeZoneAblation { rows }
}

/// Runs the default sweep (0 to 6 mJ) over a 6000 s simulation.
#[must_use]
pub fn run() -> SafeZoneAblation {
    run_with_margins(&[0.0, 1.0, 2.0, 4.0, 6.0], Seconds::new(6000.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_safe_zones_avoid_backups() {
        let ablation = run_with_margins(&[0.0, 2.0, 6.0], Seconds::new(6000.0));
        assert_eq!(ablation.rows.len(), 3);
        let disabled = &ablation.rows[0];
        let paper = &ablation.rows[1];
        let wide = &ablation.rows[2];
        assert!(disabled.recoveries == 0, "no safe zone, no recoveries: {disabled:?}");
        assert!(paper.recoveries >= 1, "{paper:?}");
        assert!(
            wide.backups <= disabled.backups,
            "wide {} vs disabled {}",
            wide.backups,
            disabled.backups
        );
    }

    #[test]
    fn forward_progress_does_not_collapse_with_the_safe_zone() {
        let ablation = run_with_margins(&[0.0, 2.0], Seconds::new(6000.0));
        let without = ablation.rows[0].completed_tasks;
        let with = ablation.rows[1].completed_tasks;
        assert!(
            with + 2 >= without,
            "safe zone should not cost much progress: {with} vs {without}"
        );
    }

    #[test]
    fn the_table_has_one_row_per_margin() {
        let ablation = run_with_margins(&[0.0, 3.0], Seconds::new(2000.0));
        assert_eq!(ablation.to_table().len(), 2);
    }
}
