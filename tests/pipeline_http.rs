//! End-to-end integration: the full SIFT study over real HTTP sockets,
//! behind per-identity rate limiting, must agree exactly with the
//! in-process path (responses are determined by request coordinates and
//! sample tags, not by transport or unit scheduling).

use sift::core::{run_study, StudyParams};
use sift::fetcher::{trends_router, HttpTrendsClient, RoundRobin, TrendsClient};
use sift::geo::State;
use sift::net::{RateLimiterConfig, RetryPolicy, Server};
use sift::simtime::{Hour, HourRange};
use sift::trends::terms::Provider;
use sift::trends::{Cause, OutageEvent, PowerTrigger, Scenario, TrendsService};
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
            states: vec![(State::TX, 0.3), (State::CA, 0.2)],
            severity: 9_000.0,
            lags_h: vec![0, 0],
        },
        OutageEvent {
            id: 1,
            name: "isp".into(),
            cause: Cause::IspNetwork(Provider::Spectrum),
            start: Hour(700),
            duration_h: 5,
            states: vec![(State::CA, 0.2)],
            severity: 8_000.0,
            lags_h: vec![0],
        },
    ];
    for (i, start) in (40..1000).step_by(70).enumerate() {
        for (j, state) in [State::TX, State::CA].into_iter().enumerate() {
            events.push(OutageEvent {
                id: 100 + (i * 2 + j) as u32,
                name: format!("anchor-{i}-{state}"),
                cause: Cause::IspNetwork(Provider::Frontier),
                start: Hour(start + 11 * j as i64),
                duration_h: 2,
                states: vec![(state, 0.02)],
                severity: 8_000.0,
                lags_h: vec![0],
            });
        }
    }
    let mut scenario = Scenario::single_region(State::TX, vec![]);
    scenario.params.regions = vec![State::TX, State::CA];
    scenario.events = events;
    scenario.events.sort_by_key(|e| (e.start, e.id));
    scenario
}

#[test]
fn http_study_matches_in_process_study() {
    let scenario = world();
    let service = Arc::new(TrendsService::with_defaults(scenario));

    let server = Server::new(trends_router(Arc::clone(&service)))
        .with_rate_limiter(RateLimiterConfig {
            capacity: 60.0,
            refill_per_sec: 400.0,
            ..RateLimiterConfig::default()
        })
        .with_workers(6)
        .bind("127.0.0.1:0")
        .expect("bind");

    let units: Vec<Arc<dyn TrendsClient>> = (1..=3)
        .map(|i| {
            Arc::new(
                HttpTrendsClient::new(server.addr(), format!("127.0.0.{i}")).with_retry(
                    RetryPolicy {
                        max_attempts: 20,
                        base_backoff: Duration::from_millis(5),
                        max_backoff: Duration::from_millis(200),
                    },
                ),
            ) as Arc<dyn TrendsClient>
        })
        .collect();
    let http_client = RoundRobin::new(units);

    let params = StudyParams {
        range: HourRange::new(Hour(0), Hour(1000)),
        regions: vec![State::TX, State::CA],
        threads: 2,
        ..StudyParams::default()
    };

    let over_http = run_study(&http_client, &params).expect("study over http");
    let direct = run_study(service.as_ref(), &params).expect("study in process");

    assert_eq!(over_http.spikes.len(), direct.spikes.len());
    for (a, b) in over_http.spikes.iter().zip(direct.spikes.iter()) {
        assert_eq!(a.spike, b.spike);
        assert_eq!(a.annotations, b.annotations);
    }
    assert_eq!(over_http.clusters.len(), direct.clusters.len());
    assert_eq!(over_http.heavy_hitters, direct.heavy_hitters);

    // Both injected events were found and annotated sensibly.
    let power = over_http
        .spikes
        .iter()
        .find(|a| a.spike.state == State::TX && a.spike.window().contains(Hour(303)))
        .expect("power spike detected over http");
    assert!(power.power_annotated());

    server.shutdown();
}

#[test]
fn batches_over_two_units_match_single_fetches_and_the_service() {
    use sift::trends::{FrameRequest, SearchTerm};
    let service = Arc::new(TrendsService::with_defaults(world()));
    let server = Server::new(trends_router(Arc::clone(&service)))
        .bind("127.0.0.1:0")
        .expect("bind");
    let units: Vec<Arc<dyn TrendsClient>> = (1..=2)
        .map(|i| {
            Arc::new(HttpTrendsClient::new(
                server.addr(),
                format!("127.0.0.4{i}"),
            )) as Arc<dyn TrendsClient>
        })
        .collect();
    let fleet = RoundRobin::new(units);
    // Three rounds' worth of requests, with one the service rejects.
    let requests: Vec<FrameRequest> = (0..3u64)
        .flat_map(|tag| {
            [
                (State::TX, 0, 168),
                (State::CA, 150, 168),
                (State::TX, 300, 999),
            ]
            .into_iter()
            .map(move |(state, start, len)| FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state,
                start: Hour(start),
                len,
                tag,
            })
        })
        .collect();
    let show = |r: &dyn std::fmt::Debug| format!("{r:?}");
    let direct: Vec<String> = requests
        .iter()
        .map(|r| {
            show(
                &service
                    .as_ref()
                    .fetch_frame(r)
                    .map_err(sift::trends::FetchError::Service),
            )
        })
        .collect();
    let single: Vec<String> = requests
        .iter()
        .map(|r| show(&fleet.fetch_frame(r)))
        .collect();
    // Batches of three alternate between the two units.
    let batched: Vec<String> = requests
        .chunks(3)
        .flat_map(|round| fleet.fetch_frames(round))
        .map(|r| show(&r))
        .collect();
    assert_eq!(single, direct);
    assert_eq!(batched, direct);
    assert!(direct[2].contains("FrameTooLong"), "{}", direct[2]);
    server.shutdown();
}

#[test]
fn rate_limited_single_identity_still_completes() {
    // One unit behind a tight limiter: the crawl must finish (slowly)
    // thanks to Retry-After handling, and the results stay correct. The
    // bucket is small enough that back-to-back in-process requests are
    // guaranteed to overrun it (the client would need >20ms between
    // requests to stay under the refill rate).
    let scenario = world();
    let service = Arc::new(TrendsService::with_defaults(scenario));
    let server = Server::new(trends_router(Arc::clone(&service)))
        .with_rate_limiter(RateLimiterConfig {
            capacity: 2.0,
            refill_per_sec: 50.0,
            ..RateLimiterConfig::default()
        })
        .bind("127.0.0.1:0")
        .expect("bind");

    let unit = HttpTrendsClient::new(server.addr(), "127.0.0.9").with_retry(RetryPolicy {
        max_attempts: 50,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
    });
    let params = StudyParams {
        range: HourRange::new(Hour(0), Hour(400)),
        regions: vec![State::TX],
        threads: 1,
        daily_rising: false,
        ..StudyParams::default()
    };
    let result = run_study(&unit, &params).expect("rate-limited study completes");
    assert!(result.stats.frames_requested > 0);

    // The tight limiter must actually have fired, and every rejection is
    // accounted per identity in the global registry (the identity is unique
    // to this test, so concurrent tests cannot disturb the counter).
    let rejected = sift::obs::counter(
        "sift_ratelimit_rejected_total",
        &[("identity", "127.0.0.9")],
    )
    .get();
    assert!(
        rejected > 0,
        "expected the 25-token limiter to reject at least once"
    );
    server.shutdown();
}
