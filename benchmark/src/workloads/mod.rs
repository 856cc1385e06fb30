//! The four workloads.

pub mod batch;
pub mod cluster;
pub mod serve;

use crate::report::{Report, RunCfg};

/// Runs the workload `cfg` names.
pub fn run(cfg: &RunCfg) -> Report {
    match cfg.workload {
        "study_full" => batch::run(cfg, false),
        "crawl_http" => batch::run(cfg, true),
        "cluster_shards" => cluster::run(cfg),
        "serve_online" => serve::run(cfg),
        other => unreachable!("unknown workload {other}"),
    }
}
