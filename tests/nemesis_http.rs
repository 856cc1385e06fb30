//! Nemesis acceptance: a sharded study run under a seeded chaos schedule
//! — the coordinator killed and restarted mid-run, a worker partitioned
//! from it and healed — must converge to a `StudyResult` spike-for-spike
//! identical to the clean baseline, re-crawling at most the shards that
//! were in flight when the coordinator died.
//!
//! The schedule is `NemesisPlan::random(seed, …)`: a pure function of
//! the seed, so a failure replays exactly.

mod common;

use common::world;
use sift::cluster::{ClusterConfig, StatusReply, WorkerConfig};
use sift::core::{run_study, StudyParams, StudyResult};
use sift::fetcher::{trends_router, HttpTrendsClient};
use sift::geo::State;
use sift::journal::testutil::scratch_dir;
use sift::net::Server;
use sift::simtime::{Hour, HourRange};
use sift::trends::TrendsService;
use sift_chaos::{
    FaultKind, FaultPlan, FaultProxy, NemesisCluster, NemesisPlan, NemesisReport, COORDINATOR,
};
use std::sync::Arc;
use std::time::Duration;

fn study_params(regions: &[State]) -> StudyParams {
    StudyParams {
        range: HourRange::new(Hour(0), Hour(800)),
        regions: regions.to_vec(),
        threads: 2,
        ..StudyParams::default()
    }
}

/// The trends service, optionally slowed down: a deterministic stall on
/// every `/api` request floors the crawl duration so fixed-offset
/// nemesis operations land mid-run instead of after convergence. A
/// stall changes timing only — response bytes stay a pure function of
/// the request — so the stalled run must still equal the clean baseline.
fn serve_trends(regions: &[State], stall: Option<Duration>) -> FaultProxy {
    let server = Server::new(trends_router(Arc::new(TrendsService::with_defaults(
        world(regions),
    ))))
    .with_workers(8)
    .bind("127.0.0.1:0")
    .expect("bind trends service");
    let mut plan = FaultPlan::new(0);
    if let Some(stall) = stall {
        plan = plan
            .route("/api", &[(FaultKind::Stall, 1.0)])
            .with_stall(stall);
    }
    FaultProxy::front(server, plan).expect("start proxy")
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
        sharded.heavy_hitters, baseline.heavy_hitters,
        "{what}: heavy hitters diverged"
    );
    assert_eq!(
        sharded.stats.frames_requested, baseline.stats.frames_requested,
        "{what}: frame accounting diverged"
    );
}

/// The clean single-process reference, over HTTP like the workers.
fn baseline(regions: &[State]) -> StudyResult {
    let server = serve_trends(regions, None);
    let client = HttpTrendsClient::new(server.addr(), "127.0.0.20");
    let result = run_study(&client, &study_params(regions)).expect("baseline study");
    server.shutdown();
    result
}

/// One full nemesis run: boot the cluster, drive the seeded schedule,
/// return the report for audits.
fn run_under_nemesis(seed: u64, regions: &[State], tag: &str) -> NemesisReportPair {
    let params = study_params(regions);
    let trends = serve_trends(regions, Some(Duration::from_millis(8)));
    let dir = scratch_dir(&format!("nemesis_http_{tag}"));
    let worker_ids: Vec<String> = (0..3).map(|i| format!("worker-{i}")).collect();
    let config = ClusterConfig {
        heartbeat_interval: Duration::from_millis(75),
        miss_threshold: 4,
        poll_ms: 10,
        // Nemesis burns attempts freely (every expiry of a partitioned
        // holder counts); the budget bounds pathology, not chaos.
        attempt_budget: 10,
    };
    let worker_config = WorkerConfig {
        // Sized to span the schedule's kill→restart gap with margin.
        coord_down_grace: Some(Duration::from_secs(20)),
    };
    let cluster = NemesisCluster::start(
        params,
        config,
        trends.addr(),
        dir.to_path_buf(),
        &worker_ids,
        &worker_config,
    )
    .expect("boot nemesis cluster");
    let plan = NemesisPlan::random(seed, COORDINATOR, &worker_ids, 4_000);
    let report = cluster
        .run(plan.clone(), Duration::from_secs(180))
        .expect("nemesis run converges");
    trends.shutdown();
    NemesisReportPair { plan, report }
}

struct NemesisReportPair {
    plan: NemesisPlan,
    report: NemesisReport,
}

fn grants_for(status: &StatusReply, state: State) -> u32 {
    status
        .shard_attempts
        .iter()
        .find(|(s, _)| *s == state)
        .map(|(_, g)| *g)
        .unwrap_or(0)
}

#[test]
fn seeded_nemesis_schedule_converges_to_the_clean_baseline() {
    let regions = [State::TX, State::CA, State::NY, State::FL];
    let reference = baseline(&regions);
    let NemesisReportPair { plan, report } = run_under_nemesis(42, &regions, "seed42");

    // The schedule really did both halves of the chaos contract.
    assert_eq!(report.coordinator_kills, 1, "plan kills the coordinator");
    assert_eq!(report.coordinator_restarts, 1, "plan restarts it");
    assert!(
        plan.steps
            .iter()
            .any(|s| s.op.to_string().starts_with("partition")),
        "plan partitions a worker: {plan:?}"
    );

    // Spike-for-spike equality with the uninterrupted run.
    assert_same_result(&report.result, &reference, "nemesis seed 42");
    assert_eq!(report.status.done, regions.len());
    assert_eq!(report.status.failed, 0);

    // The restart is visible in the audit trail: exactly one recovery,
    // and the fencing epoch cleared everything the first incarnation
    // granted.
    assert_eq!(report.status.recoveries, 1, "{:?}", report.status);
    let pre_kill = report
        .pre_kill_status
        .as_ref()
        .expect("kill captured a pre-crash snapshot");
    assert!(
        report.status.epoch > pre_kill.epoch,
        "fence must move past the first incarnation: {} <= {}",
        report.status.epoch,
        pre_kill.epoch
    );

    // Re-crawl bound: a shard accepted before the kill must never be
    // granted again — only in-flight shards may burn extra grants.
    for state in &pre_kill.done_states {
        assert_eq!(
            grants_for(&report.status, *state),
            grants_for(pre_kill, *state),
            "done shard {state} was re-granted after the coordinator restart"
        );
    }
    // And the accepted set only ever grows across the crash.
    for state in &pre_kill.done_states {
        assert!(
            report.status.done_states.contains(state),
            "accepted shard {state} was lost by the restart"
        );
    }
}

#[test]
fn asymmetric_partition_zombie_uploads_are_fenced_but_the_run_converges() {
    use sift_chaos::NemesisOp;
    let regions = [State::TX, State::CA];
    let reference = baseline(&regions);

    let params = study_params(&regions);
    let trends = serve_trends(&regions, Some(Duration::from_millis(8)));
    let dir = scratch_dir("nemesis_http_asym");
    let worker_ids: Vec<String> = (0..2).map(|i| format!("worker-{i}")).collect();
    let config = ClusterConfig {
        heartbeat_interval: Duration::from_millis(75),
        miss_threshold: 4,
        poll_ms: 10,
        attempt_budget: 10,
    };
    let cluster = NemesisCluster::start(
        params,
        config,
        trends.addr(),
        dir.to_path_buf(),
        &worker_ids,
        &WorkerConfig::default(),
    )
    .expect("boot nemesis cluster");

    // A hand-built schedule: requests from worker-0 are delivered but
    // its replies vanish (the zombie-lease shape), healed a second
    // later. No coordinator kill here — this isolates epoch fencing.
    let plan = NemesisPlan::new(0)
        .step(
            400,
            NemesisOp::PartitionAsym {
                from: "worker-0".into(),
                to: COORDINATOR.into(),
            },
        )
        .step(
            1_400,
            NemesisOp::Heal {
                a: "worker-0".into(),
                b: COORDINATOR.into(),
            },
        );
    let report = cluster
        .run(plan, Duration::from_secs(180))
        .expect("asym partition run converges");
    trends.shutdown();

    assert_same_result(&report.result, &reference, "asym partition");
    assert_eq!(report.status.done, regions.len());
    assert_eq!(report.status.failed, 0);
    assert_eq!(report.coordinator_kills, 0);
}
