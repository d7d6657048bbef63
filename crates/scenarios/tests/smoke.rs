//! The campaign smoke test: a small seeded campaign must complete on the
//! parallel engine and reproduce its aggregate digest exactly.
//!
//! It runs with the rest of the workspace suite (`cargo test`); run it
//! alone with `cargo test -p scenarios --test smoke`.  Keep it free of
//! heavyweight sweeps.

use scenarios::campaign::{run_with, CampaignConfig};
use scenarios::ParallelRunner;

#[test]
fn the_smoke_campaign_digest_is_deterministic() {
    let config = CampaignConfig::smoke();
    let runner = ParallelRunner::new();
    let first = run_with(&runner, &config);
    let second = run_with(&runner, &config);
    assert_eq!(first.runs, config.space.len());
    assert_eq!(
        first.digest(),
        second.digest(),
        "two invocations with the same seed diverged:\n{}\nvs\n{}",
        first.overall,
        second.overall
    );
    assert_eq!(first, second);
    // And the parallel digest matches the serial baseline.
    let serial = run_with(&ParallelRunner::serial(), &config);
    assert_eq!(serial.digest(), first.digest());
}
