//! Live telemetry end-to-end: a study crawled over real HTTP sockets must
//! leave a consistent trail in `GET /metrics` — the service-side frame
//! counter and the per-route request-latency histogram both agree with the
//! client-side `StudyStats`.
//!
//! This file is its own test process, so the global registry holds exactly
//! the series this study produces.

use sift::core::{run_study, StudyParams};
use sift::fetcher::{trends_router, HttpTrendsClient};
use sift::geo::State;
use sift::net::{HttpClient, RateLimiterConfig, Request, Server};
use sift::simtime::{Hour, HourRange};
use sift::trends::terms::Provider;
use sift::trends::{Cause, OutageEvent, Scenario, TrendsService};
use std::sync::Arc;

/// The value of the first sample whose series line starts with `prefix`
/// (metric name plus any leading label block), or `None` if absent.
/// Counters and histogram counts parse as `u64`, sums as `f64`.
fn sample_value<T: std::str::FromStr>(exposition: &str, prefix: &str) -> Option<T> {
    exposition
        .lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_endpoint_agrees_with_study_stats() {
    let mut scenario = Scenario::single_region(State::TX, vec![]);
    scenario.events = vec![OutageEvent {
        id: 0,
        name: "isp".into(),
        cause: Cause::IspNetwork(Provider::Spectrum),
        start: Hour(200),
        duration_h: 6,
        states: vec![(State::TX, 0.25)],
        severity: 9_000.0,
        lags_h: vec![0],
    }];
    let service = Arc::new(TrendsService::with_defaults(scenario));
    let server = Server::new(trends_router(Arc::clone(&service)))
        .bind("127.0.0.1:0")
        .expect("bind");

    let unit = HttpTrendsClient::new(server.addr(), "127.0.0.21");
    let params = StudyParams {
        range: HourRange::new(Hour(0), Hour(400)),
        regions: vec![State::TX],
        threads: 1,
        daily_rising: false,
        ..StudyParams::default()
    };
    let result = run_study(&unit, &params).expect("study over http");
    let frames = result.stats.frames_requested;
    assert!(frames > 0);

    // The observability routes, hit once each: every dispatched route is
    // counted under its own label, so none can go unobserved.
    let client = HttpClient::new(server.addr());
    let routes = ["/healthz", "/trace/recent"];
    for route in routes {
        let resp = client.send(&Request::get(route)).expect("send");
        assert_eq!(resp.status.0, 200, "{route}");
    }

    let resp = client
        .send(&Request::get("/metrics"))
        .expect("fetch /metrics");
    assert_eq!(resp.status.0, 200);
    assert_eq!(
        resp.headers.get("content-type"),
        Some(sift::net::METRICS_CONTENT_TYPE)
    );
    let text = String::from_utf8(resp.body.to_vec()).expect("utf-8 exposition");

    // Every frame the study requested was served by this process and is
    // visible in the live exposition.
    assert!(
        text.contains("# TYPE sift_trends_frames_served_total counter"),
        "missing frames-served TYPE line:\n{text}"
    );
    assert_eq!(
        sample_value(&text, "sift_trends_frames_served_total "),
        Some(frames),
        "frames served must match StudyStats.frames_requested:\n{text}"
    );

    // The request-latency histogram carries the same story per route.
    assert!(
        text.contains("# TYPE sift_http_request_seconds histogram"),
        "missing latency TYPE line:\n{text}"
    );
    let frame_count: u64 = sample_value(
        &text,
        "sift_http_request_seconds_count{route=\"/api/frame\"}",
    )
    .expect("frame-route latency count present");
    assert_eq!(frame_count, frames);
    let inf_bucket: u64 = sample_value(
        &text,
        "sift_http_request_seconds_bucket{route=\"/api/frame\",le=\"+Inf\"}",
    )
    .expect("+Inf bucket present");
    assert_eq!(inf_bucket, frames);
    let latency_sum: f64 =
        sample_value(&text, "sift_http_request_seconds_sum{route=\"/api/frame\"}")
            .expect("latency sum present");
    assert!(
        latency_sum > 0.0,
        "latencies must accumulate: {latency_sum}"
    );

    // Request totals cover the frame posts (status 200) as well.
    let ok_frames: u64 = sample_value(
        &text,
        "sift_http_requests_total{route=\"/api/frame\",status=\"200\"}",
    )
    .expect("per-status request counter present");
    assert_eq!(ok_frames, frames);
    for route in routes {
        for series in [
            format!("sift_http_requests_total{{route=\"{route}\",status=\"200\"}}"),
            format!("sift_http_request_seconds_count{{route=\"{route}\"}}"),
        ] {
            let n: Option<u64> = sample_value(&text, &series);
            assert!(n.is_some_and(|n| n >= 1), "{series} missing:\n{text}");
        }
    }

    // Study-stage spans recorded while the study ran over HTTP.
    assert!(
        text.contains("sift_span_seconds_count{span=\"fetch\"}"),
        "missing fetch span series:\n{text}"
    );
    assert!(!result.stats.telemetry.stages.is_empty());

    server.shutdown();
}

#[test]
fn metrics_expose_rate_limit_rejections() {
    let service = Arc::new(TrendsService::with_defaults(Scenario::single_region(
        State::TX,
        vec![],
    )));
    let server = Server::new(trends_router(Arc::clone(&service)))
        .with_rate_limiter(RateLimiterConfig {
            capacity: 2.0,
            refill_per_sec: 0.5,
            ..RateLimiterConfig::default()
        })
        .bind("127.0.0.1:0")
        .expect("bind");

    // Hammer past the 2-token burst under a declared identity; send() does
    // not retry, so each 429 surfaces directly.
    let hammer = HttpClient::new(server.addr()).with_identity("unit-hammer");
    let mut limited = 0u64;
    for _ in 0..6 {
        let resp = hammer.send(&Request::get("/healthz")).expect("send");
        if resp.status.0 == 429 {
            limited += 1;
        }
    }
    assert!(limited > 0, "expected the tight limiter to reject");

    // The scrape comes from a different identity (the peer IP), whose
    // fresh bucket admits it.
    let resp = HttpClient::new(server.addr())
        .send(&Request::get("/metrics"))
        .expect("fetch /metrics");
    assert_eq!(resp.status.0, 200);
    let text = String::from_utf8(resp.body.to_vec()).expect("utf-8 exposition");
    let rejected: u64 = sample_value(
        &text,
        "sift_ratelimit_rejected_total{identity=\"unit-hammer\"}",
    )
    .expect("rejection counter present in exposition");
    assert_eq!(rejected, limited);

    server.shutdown();
}
