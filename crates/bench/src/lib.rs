//! Shared harness code for the experiments and calibration binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sift_core::StudyResult;
use sift_trends::{Scenario, ServiceConfig, TrendsService};

/// Builds the full two-year US world service (the paper's study setting).
pub fn full_service() -> TrendsService {
    TrendsService::new(Scenario::us_2020_2021(), ServiceConfig::default())
}

/// One-line summary of a study result for harness logs.
pub fn summarize(result: &StudyResult) -> String {
    format!(
        "{} spikes, {} clusters, {} frames requested, {} rising requested",
        result.spikes.len(),
        result.clusters.len(),
        result.stats.frames_requested,
        result.stats.rising_requested
    )
}
