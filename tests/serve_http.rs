//! Serving acceptance: the online detector daemon over real sockets.
//!
//! Four properties are exercised end-to-end:
//!
//! 1. **Crash recovery, in-process** — the ingest thread is killed by an
//!    injected panic at each durability boundary (mid-record, after a
//!    record, between a checkpoint's temp write and rename, and between
//!    rename and WAL truncation); the HTTP front keeps serving last-good
//!    data, and a daemon restarted on the same directory catches up to
//!    the *identical* spike set an uninterrupted daemon produces,
//!    re-fetching at most the single torn frame.
//! 2. **Crash recovery, out-of-process** — this test binary is spawned
//!    as a child that `abort()`s mid-ingest (no unwinding, no flushing —
//!    the closest stand-in for `kill -9`); the parent resumes from the
//!    orphaned files to the identical spike set.
//! 3. **Overload** — three long-poll subscribers park (holding worker
//!    threads but no admission slots, so a fresh read still succeeds
//!    with `max_inflight = 1`); with the accept queue then pinned, a 4×
//!    burst is shed instantly with `503 + Retry-After`, and when the
//!    clock advances every parked subscriber still receives its spikes.
//! 4. **Graceful degradation** — an unhealthy or failing upstream turns
//!    reads degraded, labelled by reason in the `X-Sift-Degraded` header
//!    and counted in `sift_serve_degraded_reads_total{reason=…}`, while
//!    the reads themselves keep answering `200`.

mod common;

use common::world;
use sift::geo::State;
use sift::journal::testutil::scratch_dir;
use sift::journal::{CrashInjector, CrashMode, CrashPlan, CrashSite};
use sift::net::{AdmissionConfig, HttpClient, Request, Response, StatusCode};
use sift::serve::{Daemon, RegionsReply, ServeConfig, SpikesReply};
use sift::simtime::{Hour, HourRange, SimClock};
use sift::trends::{
    FetchError, FrameRequest, FrameResponse, RisingRequest, RisingResponse, SearchTerm,
    TrendsClient, TrendsService,
};
use std::io::Read;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Several tests below read global gauges (parked waiters, accept-queue
/// depth); concurrent tests in this binary would race them.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// An in-process upstream: the deterministic trends service behind a
/// [`TrendsClient`] with test-controlled health, failure injection and a
/// fetch counter (for the zero-refetch accounting).
struct Upstream {
    service: Arc<TrendsService>,
    healthy: AtomicBool,
    failing: AtomicBool,
    fetches: AtomicU64,
}

impl Upstream {
    fn new() -> Arc<Upstream> {
        Arc::new(Upstream {
            service: Arc::new(TrendsService::with_defaults(world(&[State::TX, State::CA]))),
            healthy: AtomicBool::new(true),
            failing: AtomicBool::new(false),
            fetches: AtomicU64::new(0),
        })
    }
}

impl TrendsClient for Upstream {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        if self.failing.load(Ordering::SeqCst) {
            return Err(FetchError::Transport("injected upstream outage".into()));
        }
        self.fetches.fetch_add(1, Ordering::SeqCst);
        self.service.fetch_frame(req).map_err(FetchError::Service)
    }

    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
        self.service.fetch_rising(req).map_err(FetchError::Service)
    }

    fn identity(&self) -> &str {
        "serve-test"
    }

    fn healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }
}

const RANGE_END: i64 = 800;

fn serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(
        SearchTerm::parse("topic:Internet outage"),
        vec![State::TX, State::CA],
        HourRange::new(Hour(0), Hour(RANGE_END)),
    );
    cfg.checkpoint_every = 3;
    cfg
}

fn get(addr: std::net::SocketAddr, path: &str) -> Response {
    HttpClient::new(addr)
        .with_timeout(Duration::from_secs(60))
        .send(&Request::get(path))
        .expect("http request")
}

fn body_json<T: serde::de::DeserializeOwned>(resp: &Response) -> T {
    let text = std::str::from_utf8(&resp.body).expect("utf8 body");
    serde_json::from_str(text).expect("json body")
}

fn staleness_ms(resp: &Response) -> u128 {
    resp.headers
        .get("x-sift-staleness-ms")
        .expect("every serve response carries X-Sift-Staleness-Ms")
        .parse()
        .expect("staleness header is a number")
}

fn poll_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs an uninterrupted daemon over the full range and returns its
/// per-region spike replies plus the number of upstream fetches it cost.
fn baseline(upstream: &Arc<Upstream>, tag: &str) -> (SpikesReply, SpikesReply, u64) {
    let before = upstream.fetches.load(Ordering::SeqCst);
    let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
    let dir = scratch_dir(&format!("serve_http_baseline_{tag}"));
    let daemon = Daemon::start(
        serve_config(),
        Arc::clone(upstream) as Arc<dyn TrendsClient>,
        clock,
        &dir,
    )
    .expect("start baseline daemon");
    assert!(
        daemon.wait_caught_up(Duration::from_secs(30)),
        "baseline daemon must catch up"
    );
    let tx = body_json::<SpikesReply>(&get(daemon.addr(), "/spikes?region=TX"));
    let ca = body_json::<SpikesReply>(&get(daemon.addr(), "/spikes?region=CA"));
    daemon.shutdown();
    assert!(
        !tx.spikes.is_empty() && !ca.spikes.is_empty(),
        "the seeded world must produce sealed spikes (TX {}, CA {})",
        tx.spikes.len(),
        ca.spikes.len()
    );
    (tx, ca, upstream.fetches.load(Ordering::SeqCst) - before)
}

fn assert_same_spikes(resumed: &SpikesReply, reference: &SpikesReply, what: &str) {
    assert_eq!(
        resumed.spikes, reference.spikes,
        "{what}: resumed spike set diverged for {}",
        reference.region
    );
    assert_eq!(
        resumed.watermark, reference.watermark,
        "{what}: watermark diverged"
    );
}

#[test]
fn daemon_killed_at_each_crash_point_resumes_to_identical_spikes() {
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let upstream = Upstream::new();
    let (ref_tx, ref_ca, fetches_uninterrupted) = baseline(&upstream, "inproc");

    let crash_points = [
        (CrashSite::MidJournalRecord, 4, "mid-journal-record"),
        (CrashSite::AfterJournalRecord, 7, "after-journal-record"),
        (
            CrashSite::CheckpointTempWritten,
            2,
            "checkpoint temp-vs-rename",
        ),
        (
            CrashSite::AfterCheckpointRename,
            2,
            "checkpoint rename-vs-truncate",
        ),
    ];

    for (site, occurrence, what) in crash_points {
        let before = upstream.fetches.load(Ordering::SeqCst);
        let dir = scratch_dir(&format!("serve_http_{}", site.label()));
        let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
        let inj = Arc::new(CrashInjector::new(
            CrashPlan::nowhere().at(site, occurrence),
        ));

        let crashed = Daemon::start_with_crash(
            serve_config(),
            Arc::clone(&upstream) as Arc<dyn TrendsClient>,
            Arc::clone(&clock),
            &dir,
            Some(Arc::clone(&inj)),
        )
        .expect("start crashing daemon");
        poll_until(&format!("{what}: ingest death"), || crashed.ingest_dead());
        assert!(inj.tripped(), "{what}: injected crash must fire");

        // The front survives its ingest thread: reads still answer 200
        // from last-good state.
        let during = get(crashed.addr(), "/spikes?region=TX");
        assert_eq!(during.status, StatusCode::OK, "{what}: read during outage");
        let _ = staleness_ms(&during);
        crashed.shutdown();

        // Restart on the same directory: checkpoint + WAL-tail replay
        // must reach the identical spike set.
        let resumed = Daemon::start(
            serve_config(),
            Arc::clone(&upstream) as Arc<dyn TrendsClient>,
            clock,
            &dir,
        )
        .expect("restart daemon");
        assert!(
            resumed.wait_caught_up(Duration::from_secs(30)),
            "{what}: resumed daemon must catch up"
        );
        let tx = body_json::<SpikesReply>(&get(resumed.addr(), "/spikes?region=TX"));
        let ca = body_json::<SpikesReply>(&get(resumed.addr(), "/spikes?region=CA"));
        assert_same_spikes(&tx, &ref_tx, what);
        assert_same_spikes(&ca, &ref_ca, what);

        // Zero-refetch accounting: across both lives the upstream served
        // the uninterrupted workload plus at most the one frame whose
        // record was torn mid-append.
        let fetched = upstream.fetches.load(Ordering::SeqCst) - before;
        assert!(
            fetched >= fetches_uninterrupted && fetched <= fetches_uninterrupted + 1,
            "{what}: {fetched} fetches vs uninterrupted {fetches_uninterrupted} — \
             journaled frames must replay, not refetch"
        );
        resumed.shutdown();
    }
}

#[test]
fn spikes_endpoint_filters_validates_and_reports_status() {
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let upstream = Upstream::new();
    let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
    let dir = scratch_dir("serve_http_endpoints");
    let daemon = Daemon::start(
        serve_config(),
        Arc::clone(&upstream) as Arc<dyn TrendsClient>,
        clock,
        &dir,
    )
    .expect("start daemon");
    assert!(daemon.wait_caught_up(Duration::from_secs(30)));
    let addr = daemon.addr();

    let all = body_json::<SpikesReply>(&get(addr, "/spikes?region=TX"));
    let mid = all.spikes[all.spikes.len() / 2].end.0;
    let since = body_json::<SpikesReply>(&get(addr, &format!("/spikes?region=TX&since={mid}")));
    assert!(since.spikes.len() < all.spikes.len());
    assert!(since.spikes.iter().all(|s| s.end.0 > mid));
    assert_eq!(since.cursor, all.cursor, "since filters, cursor does not");

    assert_eq!(
        get(addr, "/spikes").status,
        StatusCode::BAD_REQUEST,
        "missing region"
    );
    assert_eq!(
        get(addr, "/spikes?region=ZZ").status,
        StatusCode::BAD_REQUEST,
        "unknown region"
    );
    assert_eq!(
        get(addr, "/spikes?region=NY").status,
        StatusCode::NOT_FOUND,
        "valid but unserved region"
    );

    let status = body_json::<RegionsReply>(&get(addr, "/regions"));
    assert_eq!(status.now, RANGE_END);
    assert_eq!(status.regions.len(), 2);
    for r in &status.regions {
        assert_eq!(r.frames_ingested, r.frames_planned, "{r:?} not caught up");
        assert!(r.degraded.is_none(), "{r:?} unexpectedly degraded");
        assert!(r.sealed_spikes > 0, "{r:?} sealed nothing");
    }
    daemon.shutdown();
}

const CHILD_ENV: &str = "SIFT_SERVE_CHILD_DIR";

/// The child's half of the out-of-process harness: ingest against its
/// own in-process upstream and die by `abort()` at a journal boundary.
/// Never returns unless the injector failed to fire — then it exits 0,
/// which the parent treats as a harness failure.
fn child_ingest_and_abort(dir: &Path) {
    let upstream = Upstream::new();
    let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
    let inj = Arc::new(CrashInjector::new(
        CrashPlan::nowhere()
            .at(CrashSite::AfterJournalRecord, 9)
            .with_mode(CrashMode::Abort),
    ));
    let daemon = Daemon::start_with_crash(
        serve_config(),
        upstream as Arc<dyn TrendsClient>,
        clock,
        dir,
        Some(inj),
    )
    .expect("child daemon");
    // The abort (whole-process death, no unwinding) fires from the
    // ingest thread long before this times out.
    let _ = daemon.wait_caught_up(Duration::from_secs(30));
    std::process::exit(0);
}

#[test]
fn process_aborted_mid_ingest_resumes_to_identical_spikes() {
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        child_ingest_and_abort(Path::new(&dir));
        unreachable!("child must abort");
    }

    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let upstream = Upstream::new();
    let (ref_tx, ref_ca, _) = baseline(&upstream, "abort");
    let dir = scratch_dir("serve_http_child");

    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(exe)
        .arg("process_aborted_mid_ingest_resumes_to_identical_spikes")
        .arg("--exact")
        .arg("--test-threads=1")
        .env(CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn child test process");
    assert!(
        !status.success(),
        "child must die at the injected abort, not complete"
    );

    // The orphaned checkpoint + WAL survive the kill; a daemon resumed
    // on them reproduces the uninterrupted spike set exactly.
    let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
    let resumed = Daemon::start(
        serve_config(),
        Arc::clone(&upstream) as Arc<dyn TrendsClient>,
        clock,
        &dir,
    )
    .expect("resume from the killed child's files");
    assert!(resumed.wait_caught_up(Duration::from_secs(30)));
    let tx = body_json::<SpikesReply>(&get(resumed.addr(), "/spikes?region=TX"));
    let ca = body_json::<SpikesReply>(&get(resumed.addr(), "/spikes?region=CA"));
    assert_same_spikes(&tx, &ref_tx, "out-of-process abort");
    assert_same_spikes(&ca, &ref_ca, "out-of-process abort");
    resumed.shutdown();
}

#[test]
fn burst_sheds_while_parked_subscribers_survive() {
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let upstream = Upstream::new();
    // One admission slot, three workers, a two-deep accept queue: the
    // tightest front that still shows parked waiters freeing their slot.
    let mut cfg = serve_config();
    cfg.workers = 3;
    cfg.admission = AdmissionConfig {
        max_inflight: 1,
        max_queue: 2,
        retry_after_secs: 1,
    };
    cfg.long_poll_max = Duration::from_secs(30);

    let clock = Arc::new(SimClock::new(Hour(500)));
    let dir = scratch_dir("serve_http_burst");
    let daemon = Daemon::start(
        cfg,
        Arc::clone(&upstream) as Arc<dyn TrendsClient>,
        Arc::clone(&clock),
        &dir,
    )
    .expect("start daemon");
    assert!(daemon.wait_caught_up(Duration::from_secs(30)));
    let addr = daemon.addr();
    let cursor = body_json::<SpikesReply>(&get(addr, "/spikes?region=TX")).cursor;

    let parked_gauge = sift::obs::gauge("sift_net_parked_waiters", &[]);
    let subscribe = move |cursor: u64| {
        std::thread::spawn(move || {
            get(
                addr,
                &format!("/spikes/subscribe?region=TX&cursor={cursor}"),
            )
        })
    };

    // Two subscribers park. They hold worker threads but *no* admission
    // slots — so with max_inflight = 1 a fresh read still answers 200.
    // One at a time: a subscriber holds the single admission slot until
    // it parks, and one that arrives before that is shed, not parked.
    let sub_a = subscribe(cursor);
    poll_until("one waiter parked", || parked_gauge.get() >= 1);
    let sub_b = subscribe(cursor);
    poll_until("two waiters parked", || parked_gauge.get() >= 2);
    let fresh = get(addr, "/spikes?region=TX");
    assert_eq!(
        fresh.status,
        StatusCode::OK,
        "parked subscribers must not starve fresh reads"
    );

    // A third subscriber pins the last worker; two idle connections fill
    // the accept queue.
    let sub_c = subscribe(cursor);
    poll_until("three waiters parked", || parked_gauge.get() >= 3);
    let _parkers: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("parker connects"))
        .collect();
    let queue_depth = sift::obs::gauge("sift_net_accept_queue_depth", &[]);
    poll_until("accept queue full", || queue_depth.get() == 2);

    // 4× burst against capacity: every connection sheds instantly with a
    // canned 503 + Retry-After, written before the request is parsed.
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
        assert!(wire.contains("retry-after: 1"), "burst {i}: {wire:?}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "burst {i} waited {:?}: shed must not be a timeout",
            started.elapsed()
        );
    }

    // The overload was graceful: advancing the clock seals new spikes
    // and every parked subscriber receives them.
    clock.set(Hour(RANGE_END));
    for (name, sub) in [("a", sub_a), ("b", sub_b), ("c", sub_c)] {
        let resp = sub.join().expect("subscriber thread");
        assert_eq!(resp.status, StatusCode::OK, "subscriber {name}");
        let reply = body_json::<SpikesReply>(&resp);
        assert!(
            reply.cursor > cursor,
            "subscriber {name} must see newly sealed spikes ({} vs {cursor})",
            reply.cursor
        );
        let _ = staleness_ms(&resp);
    }

    let metrics = get(addr, "/metrics");
    let text = std::str::from_utf8(&metrics.body).expect("utf8 metrics");
    assert!(
        text.contains("sift_net_admission_shed_total"),
        "metrics must expose the shed counter:\n{text}"
    );
    assert!(text.contains("sift_net_parked_waiters"), "{text}");
    daemon.shutdown();
}

#[test]
fn degraded_reads_serve_last_good_data_with_reason_labels() {
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let upstream = Upstream::new();
    let clock = Arc::new(SimClock::new(Hour(RANGE_END)));

    // An upstream that fails every fetch from the start: the watermark
    // never advances, so reads degrade as MissingFrames — but still 200.
    upstream.failing.store(true, Ordering::SeqCst);
    let dir = scratch_dir("serve_http_degraded");
    let daemon = Daemon::start(
        serve_config(),
        Arc::clone(&upstream) as Arc<dyn TrendsClient>,
        Arc::clone(&clock),
        &dir,
    )
    .expect("start daemon");
    let addr = daemon.addr();

    let resp = get(addr, "/spikes?region=TX");
    assert_eq!(resp.status, StatusCode::OK, "degraded reads still answer");
    assert_eq!(resp.headers.get("x-sift-degraded"), Some("missing_frames"));
    assert_eq!(
        body_json::<SpikesReply>(&resp).degraded.as_deref(),
        Some("missing_frames")
    );

    // An open breaker outranks missing frames in the degrade lattice.
    upstream.healthy.store(false, Ordering::SeqCst);
    let resp = get(addr, "/spikes?region=TX");
    assert_eq!(resp.headers.get("x-sift-degraded"), Some("breaker_open"));

    // Both degraded reads were counted under their reason label.
    let metrics = get(addr, "/metrics");
    let text = std::str::from_utf8(&metrics.body).expect("utf8 metrics");
    assert!(
        text.contains("sift_serve_degraded_reads_total{reason=\"missing_frames\"}"),
        "{text}"
    );
    assert!(
        text.contains("sift_serve_degraded_reads_total{reason=\"breaker_open\"}"),
        "{text}"
    );

    // Recovery: heal the upstream and the degradation clears.
    upstream.healthy.store(true, Ordering::SeqCst);
    upstream.failing.store(false, Ordering::SeqCst);
    assert!(daemon.wait_caught_up(Duration::from_secs(30)));
    let resp = get(addr, "/spikes?region=TX");
    assert_eq!(resp.headers.get("x-sift-degraded"), None);
    assert!(!body_json::<SpikesReply>(&resp).spikes.is_empty());
    daemon.shutdown();

    // A daemon that cannot checkpoint (zero backlog budget, checkpoints
    // effectively disabled) degrades as WalBacklog.
    let mut cfg = serve_config();
    cfg.checkpoint_every = 1_000;
    cfg.max_wal_backlog = 0;
    let dir = scratch_dir("serve_http_wal_backlog");
    let daemon = Daemon::start(
        cfg,
        Arc::clone(&upstream) as Arc<dyn TrendsClient>,
        clock,
        &dir,
    )
    .expect("start daemon");
    assert!(daemon.wait_caught_up(Duration::from_secs(30)));
    let resp = get(daemon.addr(), "/spikes?region=TX");
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(resp.headers.get("x-sift-degraded"), Some("wal_backlog"));
    daemon.shutdown();
}
