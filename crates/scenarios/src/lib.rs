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
//! plus an *equivalence-smoke* axis ([`equiv::EquivalenceAxis`]) asserting
//! that every DIAC-replaced circuit of the evaluation suite still computes
//! the original function under seeded random vectors —
//!
//! — runs each through [`isim::executor::IntermittentExecutor`] on the
//! order-preserving parallel work-queue ([`runner::ParallelRunner`], shared
//! with `experiments::SuiteRunner`) or, batched, through the lockstep
//! structure-of-arrays [`isim::batch::BatchExecutor`]
//! ([`campaign::run_batched`], bit-identical digests), and streams the
//! per-run statistics into an online aggregator
//! ([`aggregate::Aggregator`]: mean/min/max and p50/p90/p99 of forward
//! progress, backups, dead time, energy wasted) without retaining per-run
//! traces.  Every campaign is bit-reproducible from its seed;
//! [`aggregate::CampaignSummary::digest`] pins that in CI.
//!
//! Campaigns also run as a *service*: [`shard::ShardSpec`] splits the
//! expanded scenario list into contiguous ranges that execute in separate
//! processes, checkpoint atomically (`diac-shard-v1` records) and merge
//! back — bit-identically, at any shard count, resumable after a kill.
//!
//! See `DESIGN.md` at the repository root for where campaigns sit in the
//! experiment index.
//!
//! # Example
//!
//! ```
//! use scenarios::campaign::{run, CampaignConfig};
//!
//! let config = CampaignConfig::smoke();
//! let first = run(&config);
//! let second = run(&config);
//! assert_eq!(first.digest(), second.digest());
//! assert_eq!(first.runs, config.space.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod campaign;
pub mod equiv;
pub mod runner;
pub mod scenario;
pub mod seed;
pub mod shard;
pub mod space;

pub use aggregate::{Aggregator, CampaignSummary, MetricRow, METRIC_NAMES};
pub use campaign::{
    run, run_batched, run_batched_with, run_with, CampaignConfig, CampaignResult,
    DEFAULT_BATCH_WIDTH,
};
pub use equiv::{run_equivalence_axis, EquivalenceAxis, EquivalenceOutcome, EquivalenceSmoke};
pub use runner::ParallelRunner;
pub use scenario::Scenario;
pub use shard::{
    run_range_with, run_sharded, run_sharded_with, Execution, ShardError, ShardRecord, ShardResult,
    ShardSpec, SHARD_SCHEMA,
};
pub use space::{AnySource, BackupSizing, ScenarioSpace, SourceFamily, SourceSpec};
