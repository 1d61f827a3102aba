//! Streaming Multi-Query Diversification (Section 5 of the EDBT 2014
//! paper): progressively report a small lambda-cover of an unbounded post
//! stream, releasing every reported post within delay `tau` of its
//! timestamp.
//!
//! Engines:
//!
//! * [`StreamScan`] / `StreamScan::new_plus` — per-label pending groups with
//!   the `min(time(P_lu)+tau, time(P_ou)+lambda)` flush rule (Section 5.1);
//!   equals offline Scan when `tau >= lambda`.
//! * [`StreamGreedy`] / `StreamGreedy::new_plus` — windowed greedy set
//!   cover over `[time(P'), time(P')+tau]` (Section 5.2).
//! * [`InstantScan`] — the `tau = 0` cache scheme with the `2s` bound.
//!
//! Use [`run_stream`] to replay an [`mqd_core::Instance`] through an engine
//! and obtain the emitted sub-stream plus delay statistics.
//!
//! Scale-out layers (all parallelism comes from `mqd-par`; this crate
//! spawns no thread and opens no channel of its own):
//!
//! * [`run_supervised_stream`] — labels partitioned across supervised
//!   shards, each one `mqd-par` slot that runs its own engine over the
//!   shard's arrivals; merged output keeps the per-post delay bound `tau`
//!   ([`run_sharded_reference`] is the thread-free reference of the same
//!   decomposition).
//! * [`solve_batch_users`] — many users' offline digests solved in parallel
//!   over one shared read-only instance.

#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod density;
pub mod engine;
pub mod greedy;
pub mod instant;
pub mod multiuser;
pub mod repair;
pub mod scan;
pub mod shard;
pub mod simulator;
pub mod supervisor;
pub mod timeline;

pub use chaos::{Fault, FaultKind, FaultPlan, FaultReport, RestartRecord, ShardCounters};
pub use checkpoint::{encode_checkpoint, resume_supervised};
pub use density::{AdaptiveEngine, AdaptiveInstant, OnlineLambda};
pub use engine::{Emission, EngineSnapshot, StreamContext, StreamEngine};
pub use greedy::StreamGreedy;
pub use instant::InstantScan;
pub use repair::CoverRepair;

pub use multiuser::{
    solve_batch_users, solve_batch_users_threads, BatchUser, MultiUserHub, UserStats,
};
pub use scan::StreamScan;
pub use shard::{run_sharded_reference, ShardEngineKind};
pub use simulator::{run_stream, StreamRunResult};
pub use supervisor::{
    run_supervised_reference, run_supervised_stream, SupervisedEmission, SupervisedRun,
    SupervisedRunResult,
};
pub use timeline::{TimelinePost, WindowedTimeline};
