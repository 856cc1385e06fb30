//! SIFT's collection module.
//!
//! "As the data collection module's primary bottleneck is GT's IP-based
//! rate-limiting, the collection module first maps the queued workload
//! into fetcher units hosted behind separate IP addresses. The collection
//! module then merges the responses gathered from the fetchers into a
//! unified database" (§4, *Implementation*). This crate is that module:
//!
//! * [`plan`] — partitions a study range into consecutive, overlapping
//!   weekly frames and expands them into the full request workload,
//! * [`serve`] — hosts a [`sift_trends::TrendsService`] behind a
//!   `sift-net` HTTP router (the service side of the crawl),
//! * [`unit`] — fetcher units: one identity each, in-process or HTTP,
//! * [`queue`] — maps the workload across units on worker threads and
//!   gathers responses,
//! * [`store`] — the unified response database, JSON-persistable.
//!
//! The store is in memory: a crawl that must survive a crash journals
//! through `sift_core::RegionJournal` (`run_study_durable`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan {
    //! Re-export of the frame planner (the plan is SIFT core logic, §3.1;
    //! it lives in `sift-core` and is re-exported here for crawl code).
    pub use sift_core::plan::*;
}
pub mod queue;
pub mod serve;
pub mod store;
pub mod unit;

pub use queue::{CollectionRun, FailedWork, RunReport, ShedCause, ShedWork, WorkItem};
pub use serve::trends_router;
pub use sift_core::plan::{plan_frames, FramePlan, PlanParams};
pub use store::{MergeReport, ResponseStore};
pub use unit::{FetchError, HttpTrendsClient, InProcessClient, RoundRobin, TrendsClient};
