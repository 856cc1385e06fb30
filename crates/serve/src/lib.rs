//! SIFT-as-a-service: a crash-recoverable online detector daemon with
//! bounded staleness and graceful degradation.
//!
//! The batch pipeline answers "what outages happened in this range?"
//! after the fact. This crate turns the same detector into a *service*:
//! frames stream in as the simulated clock advances, each region's
//! series updates incrementally (`sift_core::IncrementalDetector`,
//! proven equivalent to batch detection), and sealed spikes are served
//! over HTTP the moment their closing edge passes the noise floor.
//!
//! Three properties define the service:
//!
//! * **Crash recoverability** — every accepted frame hits the
//!   write-ahead journal *before* it mutates in-memory state, and the
//!   full region state is checkpointed atomically every few frames. A
//!   `kill -9` anywhere restarts to the identical spike set, re-ingesting
//!   at most the un-checkpointed WAL tail.
//! * **Bounded staleness** — every response carries
//!   `X-Sift-Staleness-Ms`, the host time since the region last
//!   advanced, so clients always know how fresh their answer is.
//! * **Graceful degradation** — when ingest falls behind (missing
//!   frames, failing checkpoints, lagging detector) reads keep
//!   serving last-good data, tagged with a [`DegradeReason`] and counted
//!   in `sift_serve_degraded_reads_total{reason=…}`, instead of turning
//!   into errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod daemon;
mod degrade;
mod region;

pub use config::ServeConfig;
pub use daemon::{Daemon, RegionStatus, RegionsReply, SpikesReply};
pub use degrade::DegradeReason;
