//! Test-only fault injection for SIFT.
//!
//! The paper's crawl ran for months against a live service that
//! throttles, drops connections and intermittently fails; SIFT's claim
//! is that the pipeline recovers a clean signal anyway. This crate makes
//! those failures happen on purpose, at the boundary, so the product
//! crates never see a fault type: only the root package's tests and
//! examples depend on it, as a dev-dependency.
//!
//! * [`proxy`] — the [`FaultProxy`]: a stable-address HTTP proxy that
//!   decides each request's fate before forwarding it,
//! * [`fault`] — the seeded per-request [`FaultPlan`] it executes,
//! * [`nemesis`] — seeded cluster schedules ([`NemesisPlan`]) and the
//!   link-fault table they install into the proxy,
//! * [`cluster`] — the [`NemesisCluster`] harness that runs a sharded
//!   study behind a proxy and kills and restarts its coordinator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod fault;
pub mod nemesis;
pub mod proxy;

pub use cluster::{NemesisCluster, NemesisReport, COORDINATOR};
pub use fault::{FaultKind, FaultPlan};
pub use nemesis::{NemesisOp, NemesisPlan};
pub use proxy::FaultProxy;
