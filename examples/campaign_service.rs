//! Scenario campaigns: Monte-Carlo sweeps of intermittent lifetimes over the
//! cartesian scenario space (source family × PMU thresholds × NVM technology
//! × backup sizing), run in-process or as shards — separate processes,
//! separate hosts — that checkpoint and merge back into one digest that is
//! bit-identical to the unsharded run.
//!
//! ```text
//! # One process, one shard (the default):
//! cargo run --release --example campaign_service                  # full paper grid (216 runs)
//! cargo run --release --example campaign_service -- smoke         # CI-sized grid (16 runs)
//! cargo run --release --example campaign_service -- seed 7        # full grid, custom seed
//! cargo run --release --example campaign_service -- --mode batch  # batch executor, same digest
//!
//! # One worker per shard (run these anywhere, any order, kill and re-run):
//! cargo run --release --example campaign_service -- smoke --shards 3 --shard 0 --checkpoint /tmp/ckpt
//! cargo run --release --example campaign_service -- smoke --shards 3 --shard 1 --checkpoint /tmp/ckpt
//! cargo run --release --example campaign_service -- smoke --shards 3 --shard 2 --checkpoint /tmp/ckpt
//!
//! # Merge: resume every shard from its checkpoint, or run and save it:
//! cargo run --release --example campaign_service -- smoke --shards 3 --checkpoint /tmp/ckpt
//!
//! # Or do everything in-process (no checkpoint dir needed):
//! cargo run --release --example campaign_service -- smoke --shards 8
//! ```
//!
//! Without `smoke` the full paper grid (216 runs) runs; `seed N` reseeds
//! either grid.  `--mode serial|parallel|batch` picks the engine: one
//! worker, the all-cores scalar fan-out (default), or the batch executor,
//! which runs one lane per sibling group (the technology × sizing siblings
//! of one stochastic point), forks the siblings from it at its first backup
//! or copies its statistics to them if it never backs up, and burns
//! provably quiescent ticks in closed form.  Every combination of shard
//! count, engine and worker count prints the same digest, and a
//! kill-and-resume cannot change it: checkpoints are written atomically and
//! validated against the campaign fingerprint, so a partial write is
//! indistinguishable from no write at all.

use std::path::PathBuf;

use experiments::campaign;
use scenarios::{CampaignConfig, Execution, ParallelRunner, ShardSpec};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serial,
    Parallel,
    Batch,
}

struct Args {
    smoke: bool,
    seed: u64,
    mode: Mode,
    shards: usize,
    shard: Option<usize>,
    checkpoint: Option<PathBuf>,
}

fn parse_args() -> Result<Args, Box<dyn std::error::Error>> {
    let mut args = Args {
        smoke: false,
        seed: 0xD1AC,
        mode: Mode::Parallel,
        shards: 1,
        shard: None,
        checkpoint: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "smoke" => args.smoke = true,
            "seed" => args.seed = iter.next().ok_or("seed needs a value")?.parse()?,
            "--shards" => args.shards = iter.next().ok_or("--shards needs a value")?.parse()?,
            "--shard" => {
                args.shard = Some(iter.next().ok_or("--shard needs a value")?.parse()?);
            }
            "--checkpoint" => {
                args.checkpoint =
                    Some(PathBuf::from(iter.next().ok_or("--checkpoint needs a value")?));
            }
            "--mode" => {
                args.mode = match iter.next().ok_or("--mode needs a value")?.as_str() {
                    "serial" => Mode::Serial,
                    "parallel" => Mode::Parallel,
                    "batch" => Mode::Batch,
                    other => return Err(format!("unknown mode `{other}`").into()),
                };
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    if args.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if let Some(index) = args.shard {
        if index >= args.shards {
            return Err(format!("--shard {index} out of range for {} shards", args.shards).into());
        }
        if args.checkpoint.is_none() {
            return Err("--shard needs --checkpoint (where else would the result go?)".into());
        }
    }
    Ok(args)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    let config = if args.smoke {
        CampaignConfig { seed: args.seed, ..CampaignConfig::smoke() }
    } else {
        campaign::paper_campaign(args.seed)?
    };
    let runner = match args.mode {
        Mode::Serial => ParallelRunner::serial(),
        Mode::Parallel | Mode::Batch => ParallelRunner::new(),
    };
    let execution = match args.mode {
        Mode::Serial | Mode::Parallel => Execution::Scalar,
        Mode::Batch => Execution::Batched { width: scenarios::DEFAULT_BATCH_WIDTH },
    };
    let dir = args.checkpoint.as_deref();

    if let Some(index) = args.shard {
        // Worker role: run (or resume) exactly one shard and checkpoint it.
        let spec = ShardSpec::new(config, index, args.shards);
        let result = spec.run_or_resume_with(&runner, execution, dir)?;
        println!(
            "shard {}/{}: scenarios {:?} ({} runs), fingerprint {:#018x}",
            index,
            args.shards,
            result.range(),
            result.runs(),
            result.fingerprint(),
        );
        if let Some(dir) = dir {
            println!("checkpoint: {}", spec.checkpoint_path(dir).display());
        }
        return Ok(());
    }

    // Merge role: every shard in order — with `--checkpoint DIR` resumed from
    // its checkpoint when one is valid, run and saved otherwise — merged.
    let result = scenarios::run_sharded_with(&runner, &config, args.shards, execution, dir)?;
    println!("{}", campaign::to_table(&result));
    println!("overall digest: {:#018x}  ({} runs)", result.digest(), result.runs);
    Ok(())
}
