//! Chaos integration: the full study over live HTTP with seeded fault
//! injection must end with zero permanently-failed frames, the same
//! spike set as the fault-free run, fault/recovery counters visible in
//! `GET /metrics` — and replay bit-identically under the same seed.
//!
//! The chaos servers deliberately run *without* a rate limiter: limiter
//! 429s depend on wall-clock timing, while fault decisions are a pure
//! function of (seed, request, arrival count), which is what makes two
//! same-seed executions comparable.

use sift::core::{run_study, StudyParams, StudyResult};
use sift::fetcher::{
    plan_frames, trends_router, CollectionRun, HttpTrendsClient, PlanParams, ResponseStore,
    TrendsClient, WorkItem,
};
use sift::geo::State;
use sift::net::{HttpClient, Request, RetryPolicy, Server};
use sift::simtime::{Hour, HourRange};
use sift::trends::terms::Provider;
use sift::trends::{
    Cause, FrameRequest, OutageEvent, PowerTrigger, Scenario, SearchTerm, TrendsService,
};
use sift_chaos::{FaultKind, FaultPlan, FaultProxy};
use std::sync::Arc;
use std::time::Duration;

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
            id: 100 + i as u32,
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

/// The acceptance mix: 5% resets, 5% internal errors, 2% truncations on
/// every API route.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).route(
        "/api",
        &[
            (FaultKind::Reset, 0.05),
            (FaultKind::InternalError, 0.05),
            (FaultKind::Truncate, 0.02),
        ],
    )
}

/// The trends service behind a fault proxy executing `chaos_plan(seed)`.
fn chaos_server(service: &Arc<TrendsService>, seed: u64) -> FaultProxy {
    let server = Server::new(trends_router(Arc::clone(service)))
        .with_workers(4)
        .bind("127.0.0.1:0")
        .expect("bind");
    FaultProxy::front(server, chaos_plan(seed)).expect("start proxy")
}

fn params() -> StudyParams {
    StudyParams {
        range: HourRange::new(Hour(0), Hour(900)),
        regions: vec![State::TX],
        threads: 1,
        ..StudyParams::default()
    }
}

/// A unit whose client retries absorb the injected faults.
fn retrying_unit(server: &FaultProxy, identity: &str) -> HttpTrendsClient {
    HttpTrendsClient::new(server.addr(), identity).with_retry(RetryPolicy {
        max_attempts: 12,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(40),
    })
}

fn study_over(server: &FaultProxy, identity: &str) -> StudyResult {
    run_study(&retrying_unit(server, identity), &params()).expect("chaos study completes")
}

fn assert_same_spikes(a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.spikes.len(), b.spikes.len());
    for (x, y) in a.spikes.iter().zip(b.spikes.iter()) {
        assert_eq!(x.spike, y.spike);
        assert_eq!(x.annotations, y.annotations);
    }
}

#[test]
fn chaos_study_matches_fault_free_and_replays_bit_identically() {
    let service = Arc::new(TrendsService::with_defaults(world()));

    // Fault-free reference: transport does not affect responses (see
    // pipeline_http.rs), so the in-process run is the baseline spike set.
    let baseline = run_study(service.as_ref(), &params()).expect("baseline study");

    let server = chaos_server(&service, 3);
    let chaos = study_over(&server, "127.0.0.21");

    // Same spike set as the fault-free run, with full frame coverage:
    // every injected fault was absorbed by a retry, none leaked into a
    // degraded or missing frame.
    assert_same_spikes(&chaos, &baseline);
    assert_eq!(chaos.stats.frames_degraded, 0);
    assert!(chaos
        .stats
        .coverage_by_state
        .iter()
        .all(|(_, c)| (c - 1.0).abs() < 1e-12));

    // The injected faults and the client's recoveries are both visible in
    // the live exposition.
    let metrics_client = HttpClient::new(server.addr());
    let resp = metrics_client
        .send_with_retry(&Request::get("/metrics"))
        .expect("metrics");
    let text = String::from_utf8(resp.body.to_vec()).expect("utf8 metrics");
    assert!(
        text.contains("sift_net_faults_injected_total{"),
        "missing fault counter in:\n{text}"
    );
    assert!(
        text.contains("sift_client_retries_total{status=\"io\"}"),
        "missing io-retry counter in:\n{text}"
    );
    server.shutdown();

    // Replay: a fresh server with the same seed and the same traffic
    // produces the exact same study — fault decisions are a function of
    // (seed, request, arrival), not of timing.
    let replay_server = chaos_server(&service, 3);
    let replay = study_over(&replay_server, "127.0.0.21");
    assert_same_spikes(&replay, &chaos);
    assert_eq!(replay.stats.frames_requested, chaos.stats.frames_requested);
    assert_eq!(replay.stats.rising_requested, chaos.stats.rising_requested);
    replay_server.shutdown();
}

#[test]
fn chaos_study_yields_one_connected_trace_per_region() {
    let service = Arc::new(TrendsService::with_defaults(world()));
    let server = chaos_server(&service, 3);

    // Root the run explicitly: everything the study does — pipeline
    // stages, every HTTP attempt, every server-side serve — must join
    // this one trace even while faults force retries and replays.
    let root = sift::obs::span_root("chaos-study");
    let trace_id = root.context().trace_id;
    let _chaos = study_over(&server, "127.0.0.22");
    drop(root);

    let trace = sift::obs::trace::wait_completed(trace_id, Duration::from_secs(30))
        .expect("chaos trace completes");
    server.shutdown();

    // One connected tree: a single root and no severed parentage — a
    // retry or fault replay must never surface as an orphan root.
    let roots: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.parent_id.is_none())
        .collect();
    assert_eq!(roots.len(), 1, "exactly one root span: {roots:?}");
    assert_eq!(roots[0].name, "chaos-study");
    assert!(
        trace.orphans().is_empty(),
        "no orphaned spans: {:?}",
        trace.orphans()
    );
    assert_eq!(
        trace.spans.iter().filter(|s| s.name == "region").count(),
        params().regions.len(),
        "one region span per studied region"
    );

    // The seeded fault mix forces client retries; each one must appear
    // as an attempt-numbered "request" child span inside the same trace.
    let request_spans: Vec<_> = trace.spans.iter().filter(|s| s.name == "request").collect();
    assert!(!request_spans.is_empty());
    assert!(request_spans.iter().all(|s| s.arg("attempt").is_some()));
    assert!(
        request_spans
            .iter()
            .any(|s| s.arg("attempt").is_some_and(|a| a >= 2)),
        "seeded faults must force at least one numbered retry attempt"
    );

    // Server-side spans joined the same tree across the HTTP boundary,
    // each parented on the exact client attempt that carried its header.
    let request_ids: std::collections::HashSet<u64> =
        request_spans.iter().map(|s| s.span_id).collect();
    let serve_spans: Vec<_> = trace.spans.iter().filter(|s| s.name == "serve").collect();
    assert!(!serve_spans.is_empty(), "server spans must join the trace");
    assert!(
        serve_spans
            .iter()
            .all(|s| s.parent_id.is_some_and(|p| request_ids.contains(&p))),
        "every serve span hangs off a client request attempt"
    );
}

#[test]
fn collection_run_over_chaos_http_recovers_every_frame() {
    let service = Arc::new(TrendsService::with_defaults(world()));
    let server = chaos_server(&service, 3);

    // Each unit answers its chunk in one pipelined exchange; the injected
    // faults are absorbed by the units' own client retries.
    let units: Vec<Arc<dyn TrendsClient>> = (1..=3)
        .map(|i| {
            Arc::new(retrying_unit(&server, &format!("127.0.0.3{i}"))) as Arc<dyn TrendsClient>
        })
        .collect();

    let plan = plan_frames(HourRange::new(Hour(0), Hour(900)), PlanParams::default());
    let items: Vec<WorkItem> = plan
        .frames
        .iter()
        .map(|f| {
            WorkItem::Frame(FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::TX,
                start: f.start,
                len: f.len() as u32,
                tag: 0,
            })
        })
        .collect();
    let n = items.len();
    let planned: Vec<Hour> = plan.frames.iter().map(|f| f.start).collect();

    let run = CollectionRun::new(units);
    let mut store = ResponseStore::new();
    let report = run.execute(items, &mut store);

    assert_eq!(report.completed, n, "{report:?}");
    assert_eq!(report.failed, 0, "{report:?}");
    assert_eq!(store.frame_count(), n);
    assert!(
        store.missing_frames(State::TX, 0, &planned).is_empty(),
        "all planned frames recovered"
    );
    server.shutdown();
}
