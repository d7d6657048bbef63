//! Shard-service smoke: checkpoint, kill, resume — one digest.
//!
//! The in-process counterpart of the CI `shard-smoke` job: the smoke
//! campaign runs as 1, 3 and 8 shards with checkpoints on disk, one shard's
//! checkpoint is "killed" (truncated mid-record, the atomic-rename `.tmp`
//! left behind), the campaign resumes, and every variant must equal the
//! unsharded scalar oracle — full [`scenarios::CampaignResult`] equality and
//! the widened digest.

use std::path::PathBuf;

use scenarios::campaign::{run_with, CampaignConfig};
use scenarios::shard::{run_sharded_with, Execution, ShardSpec};
use scenarios::ParallelRunner;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diac-shard-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sharded_checkpointed_campaigns_match_the_unsharded_oracle() {
    let config = CampaignConfig::smoke();
    let runner = ParallelRunner::serial();
    let oracle = run_with(&runner, &config);
    for shard_count in [1, 3, 8] {
        let dir = scratch_dir(&format!("count{shard_count}"));
        let result = run_sharded_with(&runner, &config, shard_count, Execution::Scalar, Some(&dir))
            .expect("shards run and checkpoint");
        assert_eq!(result, oracle, "{shard_count} shards diverged from the oracle");
        assert_eq!(result.digest(), oracle.digest());
        // Every shard left a checkpoint; a second pass resumes them all
        // (bit-identical again, now without running anything).
        for index in 0..shard_count {
            let spec = ShardSpec::new(config.clone(), index, shard_count);
            assert!(spec.load_checkpoint(&dir).is_some(), "shard {index}/{shard_count} left none");
        }
        let resumed =
            run_sharded_with(&runner, &config, shard_count, Execution::Scalar, Some(&dir))
                .expect("checkpoints resume");
        assert_eq!(resumed, oracle);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_killed_shard_resumes_to_the_same_digest() {
    let config = CampaignConfig::smoke();
    let runner = ParallelRunner::serial();
    let oracle = run_with(&runner, &config);
    let dir = scratch_dir("kill");
    let shard_count = 3;

    // First pass completes all three shards.
    let first = run_sharded_with(&runner, &config, shard_count, Execution::Scalar, Some(&dir))
        .expect("shards run and checkpoint");
    assert_eq!(first, oracle);

    // "Kill" shard 1: truncate its checkpoint mid-record (a write that died
    // before the end sentinel) and leave a stale `.tmp` behind, as a kill
    // between `write` and `rename` would.
    let spec = ShardSpec::new(config.clone(), 1, shard_count);
    let ckpt = spec.checkpoint_path(&dir);
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint exists");
    std::fs::write(&ckpt, &text[..text.len() / 2]).expect("truncate");
    std::fs::write(ckpt.with_extension("ckpt.tmp"), &text[..text.len() / 4]).expect("stale tmp");
    assert!(spec.load_checkpoint(&dir).is_none(), "a truncated checkpoint must not resume");

    // Resume: shard 1 re-runs, shards 0 and 2 load — same digest.
    let resumed = run_sharded_with(&runner, &config, shard_count, Execution::Scalar, Some(&dir))
        .expect("shard 1 re-runs and checkpoints");
    assert_eq!(resumed, oracle, "kill-and-resume changed the campaign result");
    assert_eq!(resumed.digest(), oracle.digest());
    assert_eq!(spec.load_checkpoint(&dir).map(|s| s.runs()), Some(spec.range().len()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_shards_and_parallel_runners_share_the_digest() {
    let config = CampaignConfig::smoke();
    let oracle = run_with(&ParallelRunner::serial(), &config);
    for shard_count in [1, 3, 8] {
        let batched = run_sharded_with(
            &ParallelRunner::with_threads(4),
            &config,
            shard_count,
            Execution::Batched { width: 4 },
            None,
        )
        .expect("no checkpoint to write");
        assert_eq!(batched, oracle, "{shard_count} batched shards diverged");
    }
}
