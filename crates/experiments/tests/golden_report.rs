//! Golden-file regression tests for the report formatting: any drift in the
//! markdown/CSV rendering of the fig5, improvement and campaign tables —
//! column set, number formatting, separator layout, or the numbers
//! themselves — fails here before it reaches a README or a CI artifact.
//!
//! To re-bless after an intentional change:
//! `BLESS=1 cargo test -p experiments --test golden_report`.

use std::fs;
use std::path::PathBuf;

use experiments::campaign;
use experiments::fig5;
use experiments::ImprovementSummary;
use scenarios::{CampaignConfig, ParallelRunner};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `actual` against the committed golden file, or rewrites the
/// golden when the `BLESS` environment variable is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {}; run with BLESS=1 to create it", name));
    assert!(
        expected == actual,
        "output drifted from tests/golden/{name}; \
         re-bless with `BLESS=1 cargo test -p experiments --test golden_report` if intentional.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn fig5_small_tables_match_the_goldens() {
    let result = fig5::run_small().expect("fig5 sweep runs");
    let table = result.to_table();
    check_golden("fig5_small.md", &table.to_markdown());
    check_golden("fig5_small.csv", &table.to_csv());
}

#[test]
fn improvement_tables_match_the_goldens() {
    let fig5 = fig5::run_small().expect("fig5 sweep runs");
    let table = ImprovementSummary::from_fig5(&fig5).to_table();
    check_golden("improvements_small.md", &table.to_markdown());
    check_golden("improvements_small.csv", &table.to_csv());
}

#[test]
fn campaign_tables_match_the_goldens() {
    let result = scenarios::run_with(&ParallelRunner::new(), &CampaignConfig::smoke());
    let table = campaign::to_table(&result);
    check_golden("campaign_smoke.md", &table.to_markdown());
    check_golden("campaign_smoke.csv", &table.to_csv());
}
