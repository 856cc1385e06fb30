//! A seeded chaos run end-to-end: the trends service behind deterministic
//! fault injection (resets, error bursts, truncated bodies), crawled by
//! retrying clients and the requeueing collection run. Every fault
//! decision is a pure function of (seed, request, arrival count), so two
//! executions with the same `--seed` print byte-identical reports —
//! `scripts/check.sh` diffs exactly that.
//!
//! Run with: `cargo run --release --example chaos_crawl -- --seed 7`

use sift::core::{plan_frames, run_study, PlanParams, StudyParams};
use sift::fetcher::{
    trends_router, CollectionRun, HttpTrendsClient, ResponseStore, TrendsClient, WorkItem,
};
use sift::geo::State;
use sift::net::{FaultKind, FaultPlan, RetryPolicy, Server};
use sift::simtime::{Hour, HourRange};
use sift::trends::events::{Cause, OutageEvent, PowerTrigger};
use sift::trends::terms::Provider;
use sift::trends::{FrameRequest, Scenario, SearchTerm, TrendsService};
use std::sync::Arc;
use std::time::Duration;

fn seed_from_args() -> u64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--seed" {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--seed takes an integer");
        }
    }
    7
}

fn world() -> Scenario {
    let mut events = vec![
        OutageEvent {
            id: 0,
            name: "power".into(),
            cause: Cause::Power(PowerTrigger::Storm),
            start: Hour(300),
            duration_h: 8,
            states: vec![(State::TX, 0.3)],
            severity: 9_000.0,
            lags_h: vec![0],
        },
        OutageEvent {
            id: 1,
            name: "isp".into(),
            cause: Cause::IspNetwork(Provider::Spectrum),
            start: Hour(700),
            duration_h: 5,
            states: vec![(State::TX, 0.2)],
            severity: 8_000.0,
            lags_h: vec![0],
        },
    ];
    for (i, start) in (40..900).step_by(70).enumerate() {
        events.push(OutageEvent {
            id: 100 + u32::try_from(i).unwrap_or(u32::MAX),
            name: format!("anchor-{i}"),
            cause: Cause::IspNetwork(Provider::Frontier),
            start: Hour(start),
            duration_h: 2,
            states: vec![(State::TX, 0.02)],
            severity: 8_000.0,
            lags_h: vec![0],
        });
    }
    let mut scenario = Scenario::single_region(State::TX, vec![]);
    scenario.events = events;
    scenario.events.sort_by_key(|e| (e.start, e.id));
    scenario
}

fn main() {
    let seed = seed_from_args();
    println!("chaos crawl, fault seed {seed}");

    // 5% connection resets + 5% internal errors + 2% truncated bodies on
    // every API route. No rate limiter: limiter 429s depend on wall-clock
    // timing and would break the byte-identical replay this example
    // demonstrates.
    let service = Arc::new(TrendsService::with_defaults(world()));
    let server = Server::new(trends_router(Arc::clone(&service)))
        .with_fault_plan(FaultPlan::new(seed).route(
            "/api",
            &[
                (FaultKind::Reset, 0.05),
                (FaultKind::InternalError, 0.05),
                (FaultKind::Truncate, 0.02),
            ],
        ))
        .with_workers(4)
        .bind("127.0.0.1:0")
        .expect("bind server");

    // --- The full study through a retrying client: faults are absorbed
    // below the pipeline, which sees a clean service.
    let range = HourRange::new(Hour(0), Hour(900));
    let unit = HttpTrendsClient::new(server.addr(), "127.0.0.41").with_retry(RetryPolicy {
        max_attempts: 12,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(40),
    });
    let params = StudyParams {
        range,
        regions: vec![State::TX],
        threads: 1,
        ..StudyParams::default()
    };
    let result = run_study(&unit, &params).expect("chaos study completes");

    println!("\nstudy under chaos:");
    for a in &result.spikes {
        println!(
            "  spike {} peak h{} magnitude {:.2}",
            a.spike.state, a.spike.peak.0, a.spike.magnitude
        );
    }
    for (state, coverage) in &result.stats.coverage_by_state {
        println!("  coverage {state}: {coverage:.3}");
    }
    println!("  frames degraded: {}", result.stats.frames_degraded);

    // --- The raw collection run with client retries OFF: the same faults
    // now surface as transport failures and the queue's requeue machinery
    // recovers them instead.
    let units: Vec<Arc<dyn TrendsClient>> = (1..=3)
        .map(|i| {
            Arc::new(
                HttpTrendsClient::new(server.addr(), format!("127.0.0.5{i}")).with_retry(
                    RetryPolicy {
                        max_attempts: 1,
                        base_backoff: Duration::from_millis(1),
                        max_backoff: Duration::from_millis(1),
                    },
                ),
            ) as Arc<dyn TrendsClient>
        })
        .collect();
    let plan = plan_frames(range, PlanParams::default());
    let items: Vec<WorkItem> = plan
        .frames
        .iter()
        .map(|f| {
            WorkItem::Frame(FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::TX,
                start: f.start,
                len: u32::try_from(f.len()).unwrap_or(u32::MAX),
                tag: 99,
            })
        })
        .collect();
    let total = items.len();
    let run = CollectionRun::new(units).with_attempt_budget(12);
    let mut store = ResponseStore::new();
    let report = run.execute(items, &mut store);
    println!("\ncollection run without client retries:");
    println!(
        "  completed {}/{total}, requeued {}, permanently failed {}",
        report.completed, report.requeued, report.failed
    );

    // --- What the injector actually did, straight from the registry the
    // server exposes at GET /metrics.
    println!("\ninjected faults by kind:");
    for kind in FaultKind::ALL {
        let n =
            sift::obs::counter("sift_net_faults_injected_total", &[("kind", kind.label())]).get();
        println!("  {}: {n}", kind.label());
    }
    println!("\nclient retries by cause:");
    for status in ["io", "500", "503", "429"] {
        let n = sift::obs::counter("sift_client_retries_total", &[("status", status)]).get();
        println!("  {status}: {n}");
    }

    server.shutdown();
}
