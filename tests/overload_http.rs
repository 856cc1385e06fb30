//! Overload acceptance: the full overload-control stack over real
//! sockets.
//!
//! A trends server with tight admission limits is pinned by held and
//! queued connections, then hit with a 4× burst: every burst request must
//! be *shed* (instant `503 + Retry-After`, written before the request is
//! even parsed) rather than timed out. Every request of a collection run
//! against the overloaded server is shed the same way and fails after the
//! unit's one attempt, and so is every request of a second run. Once the
//! overload clears, a fetch succeeds again, and a post-burst study over
//! the same server matches the unloaded in-process study exactly. The
//! whole choreography is deterministic: two runs produce identical
//! reports.

use sift::core::{run_study, StudyParams};
use sift::fetcher::{
    trends_router, CollectionRun, HttpTrendsClient, ResponseStore, RunReport, TrendsClient,
    WorkItem,
};
use sift::geo::State;
use sift::net::{
    AdmissionConfig, HttpClient, Method, Request, Response, RetryPolicy, Server, StatusCode,
};
use sift::simtime::{Hour, HourRange};
use sift::trends::terms::Provider;
use sift::trends::{Cause, FrameRequest, OutageEvent, Scenario, SearchTerm, TrendsService};
use std::io::Read;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The run choreography below reads global gauges (accept-queue depth,
/// in-flight); concurrent integration tests in this binary would race
/// them, so everything serialises here.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// A manually-opened gate parking the `/hold` handler.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        *open = true;
        self.cv.notify_all();
    }

    fn wait_open(&self) {
        let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        while !*open {
            let (guard, timeout) = self
                .cv
                .wait_timeout(open, Duration::from_secs(30))
                .unwrap_or_else(|e| e.into_inner());
            open = guard;
            assert!(!timeout.timed_out(), "gate never opened");
        }
    }
}

/// Opens the gate when dropped so a failing assertion cannot leave the
/// server's workers parked forever (the handle drop joins them).
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

fn world() -> Scenario {
    let mut events = vec![OutageEvent {
        id: 0,
        name: "isp".into(),
        cause: Cause::IspNetwork(Provider::Spectrum),
        start: Hour(300),
        duration_h: 6,
        states: vec![(State::CA, 0.25)],
        severity: 9_000.0,
        lags_h: vec![0],
    }];
    for (i, start) in (40..760).step_by(60).enumerate() {
        events.push(OutageEvent {
            id: 100 + i as u32,
            name: format!("anchor-{i}"),
            cause: Cause::IspNetwork(Provider::Frontier),
            start: Hour(start),
            duration_h: 2,
            states: vec![(State::CA, 0.02)],
            severity: 8_000.0,
            lags_h: vec![0],
        });
    }
    let mut scenario = Scenario::single_region(State::CA, vec![]);
    scenario.events = events;
    scenario.events.sort_by_key(|e| (e.start, e.id));
    scenario
}

fn frame_items() -> Vec<WorkItem> {
    (0..6)
        .map(|i| {
            WorkItem::Frame(FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::CA,
                start: Hour(i * 168),
                len: 168,
                tag: 0,
            })
        })
        .collect()
}

fn poll_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One full overload → shed → recover choreography. Returns the two
/// collection reports for the replay comparison.
fn overload_run(service: &Arc<TrendsService>) -> [RunReport; 2] {
    let gate = Gate::new();
    let hold_gate = Arc::clone(&gate);
    let router = trends_router(Arc::clone(service)).route(Method::Get, "/hold", move |_| {
        hold_gate.wait_open();
        Response::text(StatusCode(200), "held")
    });
    let server = Server::new(router)
        .with_workers(2)
        .with_admission(AdmissionConfig {
            max_inflight: 2,
            max_queue: 2,
            retry_after_secs: 2,
        })
        .bind("127.0.0.1:0")
        .expect("bind");
    let _open_guard = OpenOnDrop(Arc::clone(&gate));
    let addr = server.addr();

    // Pin both workers on held requests…
    let holders: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let c = HttpClient::new(addr);
                c.send(&Request::get("/hold")).expect("held request")
            })
        })
        .collect();
    poll_until("both workers held", || server.inflight() == 2);

    // …and fill the accept queue with two parked connections.
    let parkers: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("parker connects"))
        .collect();
    let queue_depth = sift::obs::gauge("sift_net_accept_queue_depth", &[]);
    poll_until("accept queue full", || queue_depth.get() == 2);

    // 4× burst against an in-flight capacity of 2: every connection is
    // shed at accept — an instant canned 503 with a Retry-After hint,
    // written before any request bytes are read, not a timeout.
    for i in 0..8 {
        let started = Instant::now();
        let mut conn = TcpStream::connect(addr).expect("burst connects");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut wire = String::new();
        conn.read_to_string(&mut wire).expect("read shed response");
        assert!(
            wire.starts_with("HTTP/1.1 503"),
            "burst {i} expected a shed 503, got: {wire:?}"
        );
        assert!(wire.contains("retry-after: 2"), "burst {i}: {wire:?}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "burst {i} waited {:?}: shed must not be a timeout",
            started.elapsed()
        );
    }

    // A collection run against the overloaded server: each of its six
    // requests reaches the server, is shed at accept, and fails after
    // the unit's one attempt.
    let unit = Arc::new(
        HttpTrendsClient::new(addr, "127.0.0.77").with_retry(RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
        }),
    );
    let run = CollectionRun::new(vec![Arc::clone(&unit) as Arc<dyn TrendsClient>]);
    let refused = sift::obs::counter("sift_net_admission_shed_total", &[("reason", "queue_full")]);
    let refused_before = refused.get();
    let mut store = ResponseStore::new();
    let report = run.execute(frame_items(), &mut store);

    assert_eq!(report.completed, 0, "{report:?}");
    assert_eq!(report.failed, 6, "{report:?}");
    assert_eq!(report.shed, 0, "{report:?}");
    assert_eq!(store.frame_count(), 0);
    assert_eq!(
        refused.get() - refused_before,
        6,
        "all six requests reach the server"
    );

    // A second run while the server is still overloaded fares the same.
    let second = run.execute(frame_items(), &mut store);
    assert_eq!(second.failed, 6, "{second:?}");
    assert_eq!((second.completed, second.shed), (0, 0), "{second:?}");
    assert_eq!(refused.get() - refused_before, 12, "{second:?}");
    assert_eq!(store.frame_count(), 0);

    // Clear the overload: open the gate, let the holders finish, release
    // the parked connections.
    gate.open();
    for h in holders {
        let resp = h.join().expect("holder thread");
        assert_eq!(resp.status, StatusCode(200));
    }
    drop(parkers);
    poll_until("server drained", || server.inflight() == 0);

    // The shed storm is visible in the exposition.
    let metrics = HttpClient::new(addr)
        .send(&Request::get("/metrics"))
        .expect("metrics");
    let text = String::from_utf8(metrics.body.to_vec()).expect("utf8 metrics");
    assert!(
        text.contains("sift_net_admission_shed_total{reason=\"queue_full\"}"),
        "metrics must expose the shed counter:\n{text}"
    );
    assert!(text.contains("sift_net_inflight"), "{text}");

    // Recovery: with the overload cleared, the same unit fetches again.
    let frame = unit
        .fetch_frame(&FrameRequest {
            term: SearchTerm::parse("topic:Internet outage"),
            state: State::CA,
            start: Hour(0),
            len: 168,
            tag: 0,
        })
        .expect("a fetch succeeds against the unloaded server");
    assert_eq!(frame.values.len(), 168);

    server.shutdown();
    [report, second]
}

#[test]
fn overload_burst_sheds_deterministically_then_recovers() {
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let service = Arc::new(TrendsService::with_defaults(world()));

    // The same choreography twice: overload control is deterministic, so
    // the reports must be identical.
    let report_a = overload_run(&service);
    let report_b = overload_run(&service);
    assert_eq!(
        report_a, report_b,
        "replay must produce an identical report"
    );
}

#[test]
fn post_burst_study_matches_the_unloaded_one() {
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let service = Arc::new(TrendsService::with_defaults(world()));

    // First an overload round against this very service…
    let _reports = overload_run(&service);

    // …then a fresh study over HTTP against the same (now unloaded)
    // service: the burst must leave no trace in the results.
    let server = Server::new(trends_router(Arc::clone(&service)))
        .with_workers(2)
        .bind("127.0.0.1:0")
        .expect("bind");
    let unit = HttpTrendsClient::new(server.addr(), "127.0.0.8").with_retry(RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
    });
    let params = StudyParams {
        range: HourRange::new(Hour(0), Hour(760)),
        regions: vec![State::CA],
        threads: 1,
        daily_rising: false,
        ..StudyParams::default()
    };
    let over_http = run_study(&unit, &params).expect("post-burst study");
    let direct = run_study(service.as_ref(), &params).expect("in-process study");

    assert_eq!(over_http.bare_spikes(), direct.bare_spikes());
    assert_eq!(over_http.clusters.len(), direct.clusters.len());
    assert_eq!(over_http.heavy_hitters, direct.heavy_hitters);
    server.shutdown();
}
