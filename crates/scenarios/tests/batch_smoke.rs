//! Smoke test of the batched campaign path: the smoke campaign's digest
//! must be bit-identical between the scalar per-scenario executor and the
//! batch executor, across batch widths and worker counts, and
//! reproducible across invocations.

use scenarios::{run_batched_with, run_with, CampaignConfig, ParallelRunner};

#[test]
fn the_batched_smoke_campaign_digest_matches_the_scalar_oracle() {
    let config = CampaignConfig::smoke();
    let scalar = run_with(&ParallelRunner::serial(), &config);
    for width in [1, 4, 16, 64] {
        for threads in [1, 4] {
            let batched = run_batched_with(&ParallelRunner::with_threads(threads), &config, width);
            assert_eq!(
                scalar, batched,
                "batch width {width} on {threads} worker(s) diverged from the scalar campaign"
            );
            assert_eq!(scalar.digest(), batched.digest());
        }
    }
}

#[test]
fn the_batched_digest_is_reproducible_across_invocations() {
    let config = CampaignConfig::smoke();
    let first = run_batched_with(&ParallelRunner::new(), &config, 8);
    let second = run_batched_with(&ParallelRunner::new(), &config, 8);
    assert_eq!(first, second);
    assert_eq!(first.digest(), second.digest());
    assert_eq!(first.runs, config.space.len());
}
