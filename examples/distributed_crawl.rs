//! The collection module over real sockets: a rate-limited trends service
//! behind `sift-net`'s HTTP server, crawled by four fetcher units with
//! distinct identities — the paper's answer to the service's IP-based
//! rate limiting (§4, Implementation).
//!
//! This example is the *single-process* fleet: every unit lives in this
//! process and takes one contiguous chunk of the workload. The
//! multi-process promotion of the same idea — a coordinator leasing
//! region shards to workers over a job protocol, with heartbeat failover
//! and bit-identical assembly — is the
//! `sift-cluster` crate (see DESIGN.md, *Cluster model*, and the
//! "Sharded crawl" section of the README).
//!
//! Run with: `cargo run --release --example distributed_crawl`

use sift::core::{plan_frames, run_study, PlanParams, StudyParams};
use sift::fetcher::{
    queue::WorkItem, CollectionRun, HttpTrendsClient, ResponseStore, RoundRobin, TrendsClient,
};
use sift::geo::State;
use sift::net::{RateLimiterConfig, Server};
use sift::simtime::{Hour, HourRange};
use sift::trends::{FrameRequest, Scenario, ScenarioParams, SearchTerm, TrendsService};
use std::sync::Arc;

fn main() {
    // The service side: a rate limiter tight enough that a single client
    // identity cannot sustain the crawl alone.
    let scenario = Scenario::generate(ScenarioParams {
        background_scale: 0.1,
        ..ScenarioParams::default()
    });
    let service = Arc::new(TrendsService::with_defaults(scenario));
    let server = Server::new(sift::fetcher::trends_router(Arc::clone(&service)))
        .with_rate_limiter(RateLimiterConfig {
            capacity: 20.0,
            refill_per_sec: 40.0,
            ..RateLimiterConfig::default()
        })
        .with_workers(8)
        .bind("127.0.0.1:0")
        .expect("bind server");
    println!("trends service listening on {}", server.addr());

    // The client side: four fetcher units, each with its own declared
    // source identity and thus its own rate-limit bucket.
    let units: Vec<Arc<dyn TrendsClient>> = (1..=4)
        .map(|i| {
            Arc::new(HttpTrendsClient::new(server.addr(), format!("127.0.0.{i}")))
                as Arc<dyn TrendsClient>
        })
        .collect();

    // --- Low-level path: map a raw workload across the units.
    let range = HourRange::new(
        Hour::from_ymdh(2020, 3, 1, 0),
        Hour::from_ymdh(2020, 4, 30, 0),
    );
    let plan = plan_frames(range, PlanParams::default());
    let workload: Vec<WorkItem> = [State::CA, State::TX, State::NY]
        .iter()
        .flat_map(|state| {
            plan.frames.iter().map(move |f| {
                WorkItem::Frame(FrameRequest {
                    term: SearchTerm::parse("topic:Internet outage"),
                    state: *state,
                    start: f.start,
                    len: u32::try_from(f.len()).unwrap_or(u32::MAX),
                    tag: 0,
                })
            })
        })
        .collect();
    println!(
        "\nsplitting {} frame requests across 4 units ...",
        workload.len()
    );
    let run = CollectionRun::new(units.clone());
    let mut store = ResponseStore::new();
    let report = run.execute(workload, &mut store);
    println!(
        "collected {} frames ({} failed); store holds {} frames",
        report.completed,
        report.failed,
        store.frame_count()
    );
    for (identity, served) in &report.per_unit {
        println!("  unit {identity}: {served} responses");
    }

    // --- High-level path: the full SIFT study over the same units via
    // the round-robin combinator.
    let client = RoundRobin::new(units);
    let params = StudyParams {
        range,
        regions: vec![State::CA, State::TX, State::NY],
        daily_rising: false,
        threads: 3,
        ..StudyParams::default()
    };
    println!("\nrunning the SIFT study over HTTP ...");
    let result = run_study(&client, &params).expect("study over http");
    println!(
        "{} spikes detected; service served {} frames total",
        result.spikes.len(),
        service.stats().frames_served
    );

    server.shutdown();
    println!("server shut down cleanly");
}
