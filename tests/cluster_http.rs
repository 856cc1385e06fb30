//! Sharded-crawl acceptance: a coordinator plus N worker threads talking
//! over real sockets must produce a `StudyResult` bit-identical to the
//! single-process `run_study` on the same parameters — including when one
//! worker is killed mid-run, its heartbeats go silent, and its shards are
//! rerouted to the survivors.

mod common;

use common::world;
use sift::cluster::{
    cluster_router, spawn_worker, ClusterConfig, Coordinator, StatusReply, WorkerConfig,
    WorkerHandle,
};
use sift::core::{run_study, StudyParams, StudyResult};
use sift::fetcher::{trends_router, HttpTrendsClient};
use sift::geo::State;
use sift::journal::testutil::{scratch_dir, ScratchDir};
use sift::net::{HttpClient, Server, ServerHandle};
use sift::simtime::{Hour, HourRange};
use sift::trends::TrendsService;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn study_params(regions: &[State]) -> StudyParams {
    StudyParams {
        range: HourRange::new(Hour(0), Hour(800)),
        regions: regions.to_vec(),
        threads: 2,
        ..StudyParams::default()
    }
}

fn serve_trends(regions: &[State]) -> ServerHandle {
    Server::new(trends_router(Arc::new(TrendsService::with_defaults(
        world(regions),
    ))))
    .with_workers(8)
    .bind("127.0.0.1:0")
    .expect("bind trends service")
}

fn assert_same_result(sharded: &StudyResult, baseline: &StudyResult, what: &str) {
    assert_eq!(
        sharded.spikes.len(),
        baseline.spikes.len(),
        "{what}: spike count diverged"
    );
    for (a, b) in sharded.spikes.iter().zip(baseline.spikes.iter()) {
        assert_eq!(a.spike, b.spike, "{what}: spike diverged");
        assert_eq!(a.annotations, b.annotations, "{what}: annotations diverged");
    }
    assert_eq!(
        sharded.timelines, baseline.timelines,
        "{what}: timelines diverged"
    );
    assert_eq!(
        sharded.clusters.len(),
        baseline.clusters.len(),
        "{what}: clusters diverged"
    );
    assert_eq!(
        sharded.heavy_hitters, baseline.heavy_hitters,
        "{what}: heavy hitters diverged"
    );
    assert_eq!(
        sharded.stats.frames_requested, baseline.stats.frames_requested,
        "{what}: frame accounting diverged"
    );
    assert_eq!(
        sharded.stats.rising_requested, baseline.stats.rising_requested,
        "{what}: rising accounting diverged"
    );
}

/// The single-process reference run, over HTTP like the workers.
fn baseline(regions: &[State]) -> StudyResult {
    let server = serve_trends(regions);
    let client = HttpTrendsClient::new(server.addr(), "127.0.0.20");
    let result = run_study(&client, &study_params(regions)).expect("baseline study");
    server.shutdown();
    result
}

struct Cluster {
    /// The coordinator's run directory, removed when the cluster drops.
    _dir: ScratchDir,
    coord: Arc<Coordinator>,
    coord_server: ServerHandle,
    trends_server: ServerHandle,
    workers: Vec<WorkerHandle>,
}

fn start_cluster(regions: &[State], n_workers: usize) -> Cluster {
    let params = study_params(regions);
    let dir = scratch_dir("cluster_http");
    let (coord, _) = Coordinator::durable(
        params.clone(),
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(75),
            miss_threshold: 4,
            poll_ms: 10,
            attempt_budget: 3,
        },
        &dir,
    )
    .expect("open coordinator");
    let coord = Arc::new(coord);
    let coord_server = Server::new(cluster_router(&coord))
        .with_workers(8)
        .bind("127.0.0.1:0")
        .expect("bind coordinator");
    let trends_server = serve_trends(regions);
    let workers = (0..n_workers)
        .map(|i| {
            spawn_worker(
                format!("worker-{i}"),
                coord_server.addr(),
                trends_server.addr(),
                params.clone(),
                WorkerConfig::default(),
            )
        })
        .collect();
    Cluster {
        _dir: dir,
        coord,
        coord_server,
        trends_server,
        workers,
    }
}

impl Cluster {
    fn shutdown(self) -> Vec<sift::cluster::WorkerSummary> {
        let summaries = self.workers.into_iter().map(WorkerHandle::join).collect();
        self.coord_server.shutdown();
        self.trends_server.shutdown();
        summaries
    }
}

#[test]
fn sharded_crawl_matches_single_process_run_study() {
    let regions = [State::TX, State::CA];
    let reference = baseline(&regions);

    let cluster = start_cluster(&regions, 2);
    let result = cluster
        .coord
        .wait_result(Duration::from_secs(120))
        .expect("sharded study");
    let status = cluster.coord.status();
    let summaries = cluster.shutdown();

    assert_same_result(&result, &reference, "2-worker smoke");
    assert_eq!(status.done, regions.len());
    assert_eq!(status.failed, 0);
    let done: usize = summaries.iter().map(|s| s.shards_done).sum();
    assert_eq!(done, regions.len(), "every shard was uploaded by a worker");
}

#[test]
fn killing_a_worker_mid_run_still_converges_to_the_identical_result() {
    let regions = [State::TX, State::CA, State::NY, State::FL];
    let reference = baseline(&regions);

    let cluster = start_cluster(&regions, 3);
    let status_client = HttpClient::new(cluster.coord_server.addr());

    // Wait (over the wire, like any external driver would) until some
    // worker holds a lease; that one is the victim. Killing it mid-crawl
    // stops its heartbeats cold: no result upload.
    let hunt_deadline = Instant::now() + Duration::from_secs(30);
    let victim = loop {
        let status: StatusReply = status_client
            .get_json("/cluster/status")
            .expect("status poll");
        if let Some((worker, _)) = status.leases.first() {
            break worker.clone();
        }
        assert!(
            status.done < status.total,
            "run finished before any worker held a lease"
        );
        assert!(
            Instant::now() < hunt_deadline,
            "no worker ever acquired a lease: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let victim_idx = cluster
        .workers
        .iter()
        .position(|w| w.id() == victim)
        .expect("victim is one of ours");
    cluster.workers[victim_idx].kill();

    let result = cluster
        .coord
        .wait_result(Duration::from_secs(120))
        .expect("sharded study despite worker death");
    let status: StatusReply = status_client
        .get_json("/cluster/status")
        .expect("final status");
    let summaries = cluster.shutdown();

    assert_same_result(&result, &reference, "worker-kill");
    assert!(
        summaries[victim_idx].killed,
        "the victim must report a killed exit"
    );
    assert!(
        status.rerouted >= 1,
        "the victim's leased shard must have been rerouted: {status:?}"
    );
    assert_eq!(
        status.dead,
        vec![victim],
        "the victim must be detected dead via missed heartbeats"
    );
    assert_eq!(status.done, regions.len());
    assert_eq!(status.failed, 0);
}
