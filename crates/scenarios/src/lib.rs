//! Monte-Carlo scenario campaigns for the intermittent execution stack.
//!
//! The paper validates its FSM against one predetermined harvest schedule
//! (the Fig. 4 trace).  This crate turns that one-shot reproduction into a
//! workload generator: a *campaign* fans out hundreds of deterministic
//! `(config, seed)` scenarios over a cartesian space —
//!
//! * harvest source family × parameters × seed ([`space::SourceSpec`]),
//! * PMU thresholds (`Th_SafeZone`, `Th_Bk`, …) ([`space::threshold_grid`]),
//! * NVM technology (MRAM / ReRAM / FeRAM / PCM),
//! * backup sizing (baseline architectural state vs. a DIAC replacement
//!   summary) ([`space::BackupSizing`]),
//!
//! — runs each through [`isim::executor::IntermittentExecutor`] on the
//! order-preserving parallel work-queue ([`runner::ParallelRunner`], which
//! `experiments` re-exports as `SuiteRunner` for the circuit sweeps) or,
//! batched, through [`isim::batch::BatchExecutor`], which burns provably quiescent ticks in
//! closed form ([`campaign::run_batched_with`], bit-identical digests),
//! reduces every run to one row of scalar metrics without retaining
//! per-run traces, and summarises the rows once ([`aggregate::CampaignSummary::of_rows`]:
//! mean/min/max and p50/p90/p99 of forward progress, backups, dead time,
//! energy wasted).  Every campaign is bit-reproducible from its seed;
//! [`aggregate::CampaignSummary::digest`] pins that in CI.
//!
//! Campaigns also run as a *service*: [`shard::ShardSpec`] splits the
//! expanded scenario list into contiguous ranges that execute in separate
//! processes, checkpoint their rows atomically (`diac-shard-v2` records)
//! and concatenate back — bit-identically, at any shard count, resumable
//! after a kill.
//!
//! See `DESIGN.md` at the repository root for where campaigns sit in the
//! experiment index.
//!
//! # Example
//!
//! ```
//! use scenarios::{run_with, CampaignConfig, ParallelRunner};
//!
//! let config = CampaignConfig::smoke();
//! let runner = ParallelRunner::new();
//! let first = run_with(&runner, &config);
//! let second = run_with(&runner, &config);
//! assert_eq!(first.digest(), second.digest());
//! assert_eq!(first.runs, config.space.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod campaign;
pub mod runner;
pub mod scenario;
pub mod seed;
pub mod shard;
pub mod space;

pub use aggregate::{Aggregator, CampaignSummary, MetricRow, METRIC_NAMES};
pub use campaign::{
    run_batched_with, run_with, CampaignConfig, CampaignResult, DEFAULT_BATCH_WIDTH,
};
pub use runner::ParallelRunner;
pub use scenario::Scenario;
pub use shard::{
    run_range_with, run_sharded_with, Execution, ShardError, ShardRecord, ShardResult, ShardSpec,
    SHARD_SCHEMA,
};
pub use space::{AnySource, BackupSizing, ScenarioSpace, SourceFamily, SourceSpec};
