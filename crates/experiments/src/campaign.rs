//! Scenario-campaign tables — the reporting face of the `scenarios` engine.
//!
//! The engine itself (space expansion, parallel fan-out, online aggregation)
//! lives in the `scenarios` crate; this module supplies the two pieces that
//! need the rest of the experiment stack: a DIAC-derived backup sizing
//! (obtained by actually running the replacement procedure on a registry
//! circuit) and the markdown/CSV campaign tables.

use diac_core::prelude::*;
use diac_core::replacement::{insert_nvm_boundaries, ReplacementConfig};
use netlist::parser::parse_bench;
use scenarios::campaign::{CampaignConfig, CampaignResult};
use scenarios::space::{BackupSizing, ScenarioSpace};

use crate::report::Table;

/// Derives the DIAC backup sizing for the campaign's sizing axis by running
/// the replacement procedure on the embedded `s27` circuit — the boundary
/// registers a DIAC node actually has to save, as opposed to the full
/// architectural state of the baseline.
///
/// # Errors
///
/// Propagates parsing, tree-generation and replacement failures.
pub fn diac_backup_sizing() -> Result<BackupSizing, DiacError> {
    let nl = parse_bench("s27", netlist::embedded::S27_BENCH)?;
    let tree = OperandTree::from_netlist(&nl)?;
    let run = insert_nvm_boundaries(tree, &ReplacementConfig::default())?;
    Ok(BackupSizing::DiacReplacement(*run.summary()))
}

/// The paper-flavoured campaign: the full five-family grid with both backup
/// sizings (baseline 64-bit architectural state vs. the DIAC replacement
/// summary of [`diac_backup_sizing`]) — 216 scenarios.
///
/// # Errors
///
/// Propagates the synthesis-side failures of [`diac_backup_sizing`].
pub fn paper_campaign(seed: u64) -> Result<CampaignConfig, DiacError> {
    let sizings = vec![BackupSizing::BaselineBits(64), diac_backup_sizing()?];
    Ok(CampaignConfig::new(ScenarioSpace::paper_grid(sizings), seed))
}

/// Renders a campaign as one table: the overall aggregate first, then one
/// row group per source family, one row per metric.
#[must_use]
pub fn to_table(result: &CampaignResult) -> Table {
    let mut table = Table::new(
        format!("Scenario campaign — {} runs, digest {:#018x}", result.runs, result.digest()),
        &["group", "runs", "metric", "mean", "min", "p50", "p90", "p99", "max"],
    );
    let mut push_group = |group: &str, summary: &scenarios::CampaignSummary| {
        for row in &summary.rows {
            table.push_row(vec![
                group.to_string(),
                summary.runs.to_string(),
                row.name.clone(),
                format!("{:.3}", row.mean),
                format!("{:.3}", row.min),
                format!("{:.3}", row.p50),
                format!("{:.3}", row.p90),
                format!("{:.3}", row.p99),
                format!("{:.3}", row.max),
            ]);
        }
    };
    push_group("overall", &result.overall);
    for (family, summary) in &result.by_family {
        push_group(family.label(), summary);
    }
    for (label, summary) in &result.by_sizing {
        push_group(label, summary);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenarios::{ParallelRunner, METRIC_NAMES};

    #[test]
    fn the_diac_sizing_is_leaner_than_the_baseline() {
        let diac = diac_backup_sizing().expect("replacement runs on s27");
        let BackupSizing::DiacReplacement(summary) = &diac else {
            panic!("expected a replacement-derived sizing");
        };
        assert!(summary.boundaries >= 1);
        let tech = tech45::nvm::NvmTechnology::Mram;
        assert!(
            diac.unit(tech).backup_energy()
                < BackupSizing::BaselineBits(64).unit(tech).backup_energy(),
            "the DIAC boundary cut of s27 must be cheaper to save than 64 baseline bits"
        );
    }

    #[test]
    fn the_paper_campaign_spans_the_advertised_space() {
        let config = paper_campaign(1).expect("campaign config builds");
        assert!(config.space.len() >= 200, "space has {} scenarios", config.space.len());
        assert_eq!(config.space.sizings.len(), 2);
    }

    #[test]
    fn the_smoke_campaign_table_covers_every_group_and_metric() {
        let result = scenarios::run_with(&ParallelRunner::new(), &CampaignConfig::smoke());
        let table = to_table(&result);
        // overall + one group per family and per sizing, each with all
        // metrics.
        assert_eq!(
            table.len(),
            (1 + result.by_family.len() + result.by_sizing.len()) * METRIC_NAMES.len()
        );
        let markdown = table.to_markdown();
        assert!(markdown.contains("overall"));
        assert!(markdown.contains("| rfid |"));
        assert!(markdown.contains("| baseline-64b |"));
        for metric in METRIC_NAMES {
            assert!(markdown.contains(metric), "metric {metric} missing from the table");
        }
        assert!(markdown.contains("digest"));
    }
}
