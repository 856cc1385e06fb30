//! The nemesis harness: a full sharded study run under a seeded chaos
//! schedule.
//!
//! A [`NemesisCluster`] owns every process of one sharded run — the
//! durable coordinator, its HTTP server, and N worker threads — plus the
//! [`FaultProxy`] the workers reach the coordinator through. Driving a
//! [`NemesisPlan`] through [`NemesisCluster::run`] executes the
//! schedule's two halves in one place:
//!
//! * **network operations** (partitions, heartbeat delay, heals) are
//!   installed into the proxy's link table, and
//! * **process operations** (kill/restart the coordinator) drop the
//!   coordinator's in-memory state and reboot it from its journal via
//!   [`Coordinator::durable`].
//!
//! The proxy's address is stable: killing the coordinator unplugs its
//! upstream (dials are closed at once, exactly like a dead process), and
//! the restarted incarnation — listening on a fresh ephemeral port — is
//! plugged back in. This sidesteps `TIME_WAIT` rebind flakiness while
//! keeping the worker-visible behaviour of a crash: refused connections,
//! then a coordinator that answers again but fences every pre-crash
//! epoch.
//!
//! The run's acceptance bar is the same as the clean sharded path: the
//! final [`StudyResult`] must be bit-identical to an uninterrupted run,
//! with already-accepted shards never re-crawled.

use crate::fault::FaultPlan;
use crate::nemesis::{NemesisOp, NemesisPlan};
use crate::proxy::FaultProxy;
use sift_cluster::{
    cluster_router, spawn_worker, ClusterConfig, ClusterError, Coordinator, StatusReply,
    WorkerConfig, WorkerHandle, WorkerSummary,
};
use sift_core::{StudyParams, StudyResult};
use sift_net::{Server, ServerHandle};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The endpoint name plans use for the coordinator's side of a link.
pub const COORDINATOR: &str = "coordinator";

/// How a nemesis run can fail beyond the ordinary cluster outcomes.
#[derive(Debug)]
pub enum NemesisError {
    /// The underlying sharded run failed (timeout or a failed shard).
    Cluster(ClusterError),
    /// A process-level operation could not be executed (e.g. the
    /// coordinator restart could not reopen its journal).
    Io(io::Error),
}

impl std::fmt::Display for NemesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NemesisError::Cluster(e) => write!(f, "nemesis run failed: {e}"),
            NemesisError::Io(e) => write!(f, "nemesis process op failed: {e}"),
        }
    }
}

impl std::error::Error for NemesisError {}

/// What a completed nemesis run looked like, for audits.
#[derive(Debug)]
pub struct NemesisReport {
    /// The converged study result (the thing baseline equality checks).
    pub result: StudyResult,
    /// The coordinator's final status snapshot.
    pub status: StatusReply,
    /// The status captured immediately before the (first) coordinator
    /// kill — the re-crawl audit compares per-shard grant counts against
    /// it: a shard done before the kill must show no further grants.
    pub pre_kill_status: Option<StatusReply>,
    /// Coordinator kills executed.
    pub coordinator_kills: u32,
    /// Coordinator restarts executed.
    pub coordinator_restarts: u32,
    /// Requests dropped by link rules (request or reply side).
    pub link_dropped: u64,
    /// Requests delayed by link rules.
    pub link_delayed: u64,
    /// Whether every scheduled step fired before the run converged.
    pub plan_exhausted: bool,
    /// Per-worker exit summaries, in spawn order.
    pub worker_summaries: Vec<WorkerSummary>,
}

/// One sharded study's processes under nemesis control.
pub struct NemesisCluster {
    params: StudyParams,
    config: ClusterConfig,
    dir: PathBuf,
    proxy: FaultProxy,
    coord: Option<(Arc<Coordinator>, ServerHandle)>,
    workers: Vec<WorkerHandle>,
}

impl NemesisCluster {
    /// Boots a durable coordinator under `dir`, its HTTP server, the
    /// proxy in front of it, and one worker per entry of `worker_ids`,
    /// each crawling against the trends service at `trends_addr`.
    pub fn start(
        params: StudyParams,
        config: ClusterConfig,
        trends_addr: SocketAddr,
        dir: PathBuf,
        worker_ids: &[String],
        worker_config: &WorkerConfig,
    ) -> io::Result<NemesisCluster> {
        let proxy = FaultProxy::start(FaultPlan::new(0))?;
        let (coord, server) = boot_coordinator(&params, config, &dir)?;
        proxy.set_upstream(Some(server.addr()));
        let workers = worker_ids
            .iter()
            .map(|id| {
                spawn_worker(
                    id.clone(),
                    proxy.addr(),
                    trends_addr,
                    params.clone(),
                    worker_config.clone(),
                )
            })
            .collect();
        Ok(NemesisCluster {
            params,
            config,
            dir,
            proxy,
            coord: Some((coord, server)),
            workers,
        })
    }

    /// Drives `plan` against the live cluster until the study converges
    /// or `timeout` passes. Each step fires once its time has come and is
    /// counted under `sift_cluster_nemesis_faults_total{kind=…}`; network
    /// steps go into the proxy's link table, process steps (coordinator
    /// kill/restart) are executed here. Consumes the cluster: workers are
    /// joined and every server shut down on the way out, success or not.
    #[expect(clippy::disallowed_methods, reason = "the nemesis runs on host time")]
    pub fn run(
        mut self,
        plan: NemesisPlan,
        timeout: Duration,
    ) -> Result<NemesisReport, NemesisError> {
        let started = Instant::now();
        let mut next = 0;
        let mut pre_kill_status: Option<StatusReply> = None;
        let mut kills = 0u32;
        let mut restarts = 0u32;

        let result = loop {
            let now_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            while let Some(step) = plan.steps.get(next).filter(|s| s.at_ms <= now_ms) {
                next += 1;
                sift_obs::counter(
                    "sift_cluster_nemesis_faults_total",
                    &[("kind", step.op.label())],
                )
                .inc();
                if self.proxy.links().apply(&step.op) {
                    continue;
                }
                match step.op {
                    NemesisOp::KillCoordinator => {
                        if let Some((coord, server)) = self.coord.take() {
                            // The audit baseline: everything done before
                            // this instant must never be granted again.
                            if pre_kill_status.is_none() {
                                pre_kill_status = Some(coord.status());
                            }
                            kills += 1;
                            // Unplug first so new dials are refused like
                            // a dead process, then drop the in-memory
                            // state. Only the journal survives.
                            self.proxy.set_upstream(None);
                            server.shutdown();
                            drop(coord);
                        }
                    }
                    NemesisOp::RestartCoordinator if self.coord.is_none() => {
                        let (coord, server) =
                            match boot_coordinator(&self.params, self.config, &self.dir) {
                                Ok(up) => up,
                                Err(e) => {
                                    self.teardown();
                                    return Err(NemesisError::Io(e));
                                }
                            };
                        restarts += 1;
                        self.proxy.set_upstream(Some(server.addr()));
                        self.coord = Some((coord, server));
                    }
                    _ => {}
                }
            }
            if let Some((coord, _)) = &self.coord {
                // Short slices keep the schedule responsive: the
                // coordinator Arc may be swapped out by the very next
                // fired step.
                match coord.wait_result(Duration::from_millis(30)) {
                    Ok(result) => break result,
                    Err(ClusterError::Timeout { .. }) => {}
                    Err(e) => {
                        self.teardown();
                        return Err(NemesisError::Cluster(e));
                    }
                }
            } else {
                std::thread::sleep(Duration::from_millis(10));
            }
            if started.elapsed() >= timeout {
                let (done, total) = match &self.coord {
                    Some((coord, _)) => {
                        let s = coord.status();
                        (s.done, s.total)
                    }
                    None => (0, self.params.regions.len()),
                };
                self.teardown();
                return Err(NemesisError::Cluster(ClusterError::Timeout { done, total }));
            }
        };

        let status = match &self.coord {
            Some((coord, _)) => coord.status(),
            None => StatusReply::default(),
        };
        let worker_summaries = self.teardown();
        Ok(NemesisReport {
            result,
            status,
            pre_kill_status,
            coordinator_kills: kills,
            coordinator_restarts: restarts,
            link_dropped: self.proxy.links().dropped_total(),
            link_delayed: self.proxy.links().delayed_total(),
            plan_exhausted: next >= plan.steps.len(),
            worker_summaries,
        })
    }

    /// Stops every process: workers are asked to stop (killed ones are
    /// already gone), joined, and the coordinator server shut down.
    fn teardown(&mut self) -> Vec<WorkerSummary> {
        for w in &self.workers {
            w.stop();
        }
        let summaries = self.workers.drain(..).map(WorkerHandle::join).collect();
        if let Some((_, server)) = self.coord.take() {
            server.shutdown();
        }
        summaries
    }
}

fn boot_coordinator(
    params: &StudyParams,
    config: ClusterConfig,
    dir: &Path,
) -> io::Result<(Arc<Coordinator>, ServerHandle)> {
    let (coord, _recovery) = Coordinator::durable(params.clone(), config, dir)?;
    let coord = Arc::new(coord);
    let server = Server::new(cluster_router(&coord))
        .with_workers(8)
        .bind("127.0.0.1:0")?;
    Ok((coord, server))
}
