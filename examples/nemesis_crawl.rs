//! A full sharded study under a seeded nemesis schedule: the coordinator
//! is killed mid-run and recovered from its journal, a worker is
//! partitioned from it and healed — and the converged result is diffed
//! against the clean single-process baseline inside the example itself.
//!
//! Everything printed to **stdout** is a pure function of `--seed`: the
//! schedule (derived from the seed), the final spikes (which must equal
//! the deterministic baseline), and the process-level audit counts the
//! schedule fixes in advance. Timing-dependent observations — how many
//! requests the partition actually caught, lease retries, reroutes — go
//! to **stderr**. `scripts/check.sh` byte-diffs stdout across two
//! same-seed runs.
//!
//! Run with: `cargo run --release --example nemesis_crawl -- --seed 42`
//! (add `--quick` for the reduced-scale variant the gate uses).

use sift::cluster::{ClusterConfig, NemesisCluster, WorkerConfig, COORDINATOR};
use sift::core::{run_study, StudyParams, StudyResult};
use sift::fetcher::{trends_router, HttpTrendsClient};
use sift::geo::State;
use sift::net::{FaultKind, FaultPlan, NemesisPlan, Server, ServerHandle};
use sift::simtime::{Hour, HourRange};
use sift::trends::events::{Cause, OutageEvent, PowerTrigger};
use sift::trends::terms::Provider;
use sift::trends::{Scenario, TrendsService};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    seed: u64,
    quick: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        seed: 42,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                out.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--quick" => out.quick = true,
            other => panic!("unknown argument {other}; try --seed N / --quick"),
        }
    }
    out
}

/// The deterministic world: two target events on TX/CA plus an anchor
/// chain that keeps the frame calibration stable everywhere. Responses
/// are a pure function of request coordinates, so re-crawls after a
/// crash fetch identical bytes.
fn world(regions: &[State], horizon: Hour) -> Scenario {
    let mut events = vec![
        OutageEvent {
            id: 0,
            name: "power".into(),
            cause: Cause::Power(PowerTrigger::Storm),
            start: Hour(horizon.0 * 3 / 8),
            duration_h: 8,
            states: vec![(State::TX, 0.3), (State::CA, 0.2)],
            severity: 9_000.0,
            lags_h: vec![0, 0],
        },
        OutageEvent {
            id: 1,
            name: "isp".into(),
            cause: Cause::IspNetwork(Provider::Spectrum),
            start: Hour(horizon.0 * 3 / 4),
            duration_h: 5,
            states: vec![(State::CA, 0.2)],
            severity: 8_000.0,
            lags_h: vec![0],
        },
    ];
    for (i, start) in (40..horizon.0).step_by(70).enumerate() {
        for (j, state) in [State::TX, State::CA].into_iter().enumerate() {
            events.push(OutageEvent {
                id: 100 + u32::try_from(i * 2 + j).unwrap_or(u32::MAX),
                name: format!("anchor-{i}-{state}"),
                cause: Cause::IspNetwork(Provider::Frontier),
                start: Hour(start + 11 * i64::try_from(j).unwrap_or(0)),
                duration_h: 2,
                states: vec![(state, 0.02)],
                severity: 8_000.0,
                lags_h: vec![0],
            });
        }
    }
    let mut scenario = Scenario::single_region(State::TX, vec![]);
    scenario.params.regions = regions.to_vec();
    scenario.events = events;
    scenario.events.sort_by_key(|e| (e.start, e.id));
    scenario
}

fn serve_trends(regions: &[State], horizon: Hour, stall: Option<Duration>) -> ServerHandle {
    let mut server = Server::new(trends_router(Arc::new(TrendsService::with_defaults(
        world(regions, horizon),
    ))))
    .with_workers(8);
    if let Some(stall) = stall {
        // A deterministic per-request stall floors the crawl duration so
        // the schedule's fixed offsets land mid-run.
        server = server.with_fault_plan(
            FaultPlan::new(0)
                .route("/api", &[(FaultKind::Stall, 1.0)])
                .with_stall(stall),
        );
    }
    server.bind("127.0.0.1:0").expect("bind trends service")
}

fn same_result(a: &StudyResult, b: &StudyResult) -> bool {
    a.spikes.len() == b.spikes.len()
        && a.spikes
            .iter()
            .zip(b.spikes.iter())
            .all(|(x, y)| x.spike == y.spike && x.annotations == y.annotations)
        && a.timelines == b.timelines
        && a.heavy_hitters == b.heavy_hitters
        && a.stats.frames_requested == b.stats.frames_requested
}

fn main() {
    let args = parse_args();
    // The per-request stall floors the crawl duration above the nemesis
    // horizon, so every scheduled operation lands mid-run: the quick
    // profile crawls fewer frames and compensates with a longer stall.
    let (regions, horizon, range_h, nemesis_horizon_ms, n_workers, stall_ms) = if args.quick {
        (
            vec![State::TX, State::CA],
            Hour(500),
            500i64,
            2_500u64,
            2usize,
            25u64,
        )
    } else {
        (
            vec![State::TX, State::CA, State::NY, State::FL],
            Hour(800),
            800i64,
            4_000u64,
            3usize,
            8u64,
        )
    };
    let params = StudyParams {
        range: HourRange::new(Hour(0), Hour(range_h)),
        regions: regions.clone(),
        threads: 2,
        ..StudyParams::default()
    };

    println!(
        "nemesis crawl, seed {} ({})",
        args.seed,
        if args.quick { "quick" } else { "full" }
    );

    // --- The clean baseline, single-process over HTTP.
    let clean = serve_trends(&regions, horizon, None);
    let client = HttpTrendsClient::new(clean.addr(), "127.0.0.20");
    let reference = run_study(&client, &params).expect("baseline study");
    clean.shutdown();

    // --- The seeded schedule: a pure function of the seed, printed
    // before the run so a diff pins schedule drift, not just outcomes.
    let worker_ids: Vec<String> = (0..n_workers).map(|i| format!("worker-{i}")).collect();
    let plan = NemesisPlan::random(args.seed, COORDINATOR, &worker_ids, nemesis_horizon_ms);
    println!("\nschedule over {nemesis_horizon_ms} ms:");
    for step in &plan.steps {
        println!("  t+{:>5} ms  {}", step.at_ms, step.op);
    }

    // --- The sharded run under that schedule.
    let trends = serve_trends(&regions, horizon, Some(Duration::from_millis(stall_ms)));
    let dir = std::env::temp_dir().join(format!(
        "sift-nemesis-crawl-{}-{}",
        args.seed,
        std::process::id()
    ));
    // A fresh directory every run: this example demonstrates recovery
    // *within* a run, not resumption across runs.
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    let config = ClusterConfig {
        heartbeat_interval: Duration::from_millis(75),
        miss_threshold: 4,
        poll_ms: 10,
        attempt_budget: 10,
    };
    let worker_config = WorkerConfig {
        coord_down_grace: Some(Duration::from_secs(20)),
        ..WorkerConfig::default()
    };
    let cluster = NemesisCluster::start(
        params,
        config,
        trends.addr(),
        dir.clone(),
        &worker_ids,
        &worker_config,
    )
    .expect("boot nemesis cluster");
    let report = cluster
        .run(plan, Duration::from_secs(300))
        .expect("nemesis run converges");
    trends.shutdown();
    // Scratch cleanup is best-effort; the OS temp dir reaps leftovers.
    let _ = std::fs::remove_dir_all(&dir);

    // --- The deterministic verdict.
    println!("\nconverged spikes:");
    for a in &report.result.spikes {
        println!(
            "  spike {} peak h{} magnitude {:.2}",
            a.spike.state, a.spike.peak.0, a.spike.magnitude
        );
    }
    println!(
        "coordinator kills {} restarts {} recoveries {}",
        report.coordinator_kills, report.coordinator_restarts, report.status.recoveries
    );
    println!(
        "shards done {}/{} failed {}",
        report.status.done, report.status.total, report.status.failed
    );
    println!(
        "matches clean baseline: {}",
        same_result(&report.result, &reference)
    );

    // --- Timing-dependent observations: real, useful, and deliberately
    // kept off the byte-diffed stream.
    eprintln!(
        "link faults: {} dropped, {} delayed; reroutes {}; plan exhausted {}",
        report.link_dropped, report.link_delayed, report.status.rerouted, report.plan_exhausted
    );
    if let Some(pre) = &report.pre_kill_status {
        eprintln!(
            "pre-kill snapshot: {}/{} done, epoch {}",
            pre.done, pre.total, pre.epoch
        );
    }
    eprintln!(
        "lease retries {}",
        sift::obs::counter("sift_cluster_worker_lease_retry_total", &[]).get()
    );
}
