//! SIFT's sharded crawl: a coordinator/worker cluster over `sift-net`.
//!
//! The paper's crawl is embarrassingly parallel across regions — each of
//! the 51 study regions is an independent frame workload — so the
//! natural scale-out is to shard *regions* across worker processes. This
//! crate promotes the old `examples/distributed_crawl.rs` sketch into an
//! architecture:
//!
//! * [`proto`] — the compact JSON job protocol (join / lease /
//!   heartbeat / result / status) spoken over the `sift-net` HTTP stack,
//!   with trace context riding the existing `X-Sift-Trace` header,
//! * [`coord`] — the [`Coordinator`]: shard table, pull placement,
//!   lease epochs, heartbeat-based death detection, bounded reroutes,
//! * [`recovery`] — the coordinator's durable table as a fold over its
//!   `sift-journal` WAL: control state is durable before it is
//!   acknowledged, so a killed coordinator replays, re-fences, resumes,
//! * [`worker`] — the worker thread: lease → crawl via
//!   [`sift_core::run_region_study`] → upload.
//!
//! The design invariant is **bit-identical assembly**: workers run the
//! same deterministic per-region pipeline the in-process driver runs,
//! and the coordinator folds their outcomes through
//! [`sift_core::assemble_study`] — so a sharded run (even one that loses
//! a worker mid-crawl and reroutes its shards) produces a `StudyResult`
//! equal to single-process `run_study` on the same parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coord;
pub mod proto;
pub mod recovery;
pub mod worker;

pub use coord::{cluster_router, ClusterConfig, ClusterError, Coordinator, RerouteReason};
pub use proto::{
    HeartbeatReply, HeartbeatRequest, JoinReply, JoinRequest, LeaseReply, LeaseRequest,
    ResultReply, ResultUpload, ShardJob, StatusReply,
};
pub use recovery::{
    outcome_digest, CoordDurability, CoordRecord, CoordRecovery, CoordTable, Shard,
};
pub use worker::{spawn_worker, WorkerConfig, WorkerHandle, WorkerSummary};
