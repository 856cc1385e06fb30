//! Serving acceptance: the online detector daemon over real sockets.
//!
//! Four properties are exercised end-to-end:
//!
//! 1. **Crash recovery, in-process** — a region's WAL is append-only, so
//!    every state a crash can leave it in is a prefix of the finished
//!    file: the sweep runs a daemon once, cuts one region's WAL at every
//!    record boundary and half-way through every record, and restarts a
//!    daemon on each cut. Without checkpoints the cut is the whole
//!    state; at the checkpoint cadence it is the tail behind the last
//!    checkpoint. The two checkpoint boundaries (between a checkpoint's
//!    temp write and its rename, and just after the rename) kill the
//!    ingest thread with an injected panic; the HTTP front keeps serving
//!    last-good data. Every restart catches up to the *identical* spike
//!    set an uninterrupted daemon produces, fetching only the frames the
//!    crash lost.
//! 2. **Crash recovery, out-of-process** — this test binary is spawned
//!    as a child that ingests from a paced upstream; the parent kills it
//!    (SIGKILL: no unwinding, no flushing) once its first checkpoint
//!    lands, and resumes from the orphaned files to the identical spike
//!    set.
//! 3. **Overload** — three long-poll subscribers park (holding worker
//!    threads but no admission slots, so a fresh read still succeeds
//!    with `max_inflight = 1`); with the accept queue then pinned, a 4×
//!    burst is shed instantly with `503 + Retry-After`, and when the
//!    clock advances every parked subscriber still receives its spikes.
//! 4. **Graceful degradation** — a failing upstream or a stalled
//!    checkpoint turns reads degraded, labelled by reason in the `X-Sift-Degraded` header
//!    and counted in `sift_serve_degraded_reads_total{reason=…}`, while
//!    the reads themselves keep answering `200`.

mod common;

use common::world;
use sift::geo::State;
use sift::journal::testutil::{copy_dir, scratch_dir, wal_cuts};
use sift::journal::{CrashInjector, CrashSite};
use sift::net::{AdmissionConfig, HttpClient, Request, Response, StatusCode};
use sift::serve::{Daemon, RegionsReply, ServeConfig, SpikesReply};
use sift::simtime::{Hour, HourRange, SimClock};
use sift::trends::{
    FetchError, FrameRequest, FrameResponse, RisingRequest, RisingResponse, SearchTerm,
    TrendsClient, TrendsService,
};
use std::io::Read;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Several tests below read global gauges (parked waiters, accept-queue
/// depth); concurrent tests in this binary would race them.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// An in-process upstream: the deterministic trends service behind a
/// [`TrendsClient`] with test-controlled failure injection and a fetch
/// counter (for the zero-refetch accounting).
struct Upstream {
    service: Arc<TrendsService>,
    failing: AtomicBool,
    fetches: AtomicU64,
}

impl Upstream {
    fn new() -> Arc<Upstream> {
        Arc::new(Upstream {
            service: Arc::new(TrendsService::with_defaults(world(&[State::TX, State::CA]))),
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
}

const RANGE_END: i64 = 800;

/// The served study at the default checkpoint cadence.
fn default_config() -> ServeConfig {
    ServeConfig::new(
        SearchTerm::parse("topic:Internet outage"),
        vec![State::TX, State::CA],
        HourRange::new(Hour(0), Hour(RANGE_END)),
    )
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        checkpoint_every: 3,
        ..default_config()
    }
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
fn baseline(upstream: &Arc<Upstream>, tag: &str) -> ([SpikesReply; 2], u64) {
    let before = upstream.fetches.load(Ordering::SeqCst);
    let dir = scratch_dir(&format!("serve_http_baseline_{tag}"));
    let replies = run_to_the_end(upstream, serve_config(), &dir, "baseline");
    for reply in &replies {
        assert!(
            !reply.spikes.is_empty(),
            "the seeded world must produce sealed spikes in {}",
            reply.region
        );
    }
    (replies, upstream.fetches.load(Ordering::SeqCst) - before)
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

/// Starts a daemon on `dir`, waits for it to catch up with the clock at
/// the range's end, and returns its TX and CA spike replies.
fn run_to_the_end(
    upstream: &Arc<Upstream>,
    cfg: ServeConfig,
    dir: &Path,
    what: &str,
) -> [SpikesReply; 2] {
    let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
    let daemon = Daemon::start(
        cfg,
        Arc::clone(upstream) as Arc<dyn TrendsClient>,
        clock,
        dir,
    )
    .unwrap_or_else(|e| panic!("{what}: start daemon: {e}"));
    assert!(
        daemon.wait_caught_up(Duration::from_secs(30)),
        "{what}: daemon must catch up"
    );
    let replies =
        ["TX", "CA"].map(|r| body_json(&get(daemon.addr(), &format!("/spikes?region={r}"))));
    daemon.shutdown();
    replies
}

fn wal_path(dir: &Path, state: State) -> PathBuf {
    dir.join(state.abbrev()).join("region.wal")
}

/// Runs a daemon at `checkpoint_every` once, then restarts one on every
/// cut of each region's finished WAL (the other region whole): each
/// catches up to the reference spikes, fetching exactly the frames whose
/// records the cut lost, and writes the finished WAL again. Returns the
/// number of crash states.
fn sweep_wal_cuts(
    upstream: &Arc<Upstream>,
    checkpoint_every: u64,
    reference: &[SpikesReply; 2],
) -> usize {
    let cfg = ServeConfig {
        checkpoint_every,
        ..serve_config()
    };
    let finished = scratch_dir(&format!("serve_http_finished_{checkpoint_every}"));
    let replies = run_to_the_end(upstream, cfg.clone(), &finished, "uninterrupted");
    for (got, want) in replies.iter().zip(reference) {
        assert_same_spikes(got, want, &format!("checkpoint_every {checkpoint_every}"));
    }
    let mut states = 0;
    for region in [State::TX, State::CA] {
        let wal = std::fs::read(wal_path(&finished, region)).unwrap();
        let cuts = wal_cuts(&wal);
        let records = cuts.last().unwrap().records;
        for cut in cuts {
            let what = format!("checkpoint_every {checkpoint_every}, {region} cut {cut:?}");
            let dir = scratch_dir("serve_http_cut");
            copy_dir(&finished, &dir);
            std::fs::write(wal_path(&dir, region), &wal[..cut.len]).unwrap();
            let before = upstream.fetches.load(Ordering::SeqCst);
            let replies = run_to_the_end(upstream, cfg.clone(), &dir, &what);
            for (got, want) in replies.iter().zip(reference) {
                assert_same_spikes(got, want, &what);
            }
            let fetched = upstream.fetches.load(Ordering::SeqCst) - before;
            assert_eq!(fetched as usize, records - cut.records, "{what}: fetches");
            assert!(
                std::fs::read(wal_path(&dir, region)).unwrap() == wal,
                "{what}: the restarted daemon's WAL differs"
            );
            states += 1;
        }
    }
    states
}

#[test]
fn daemon_killed_at_each_crash_point_resumes_to_identical_spikes() {
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let upstream = Upstream::new();
    let (reference, fetches_uninterrupted) = baseline(&upstream, "inproc");

    // With no checkpoint, a cut WAL is the daemon's whole durable state.
    let states = sweep_wal_cuts(&upstream, u64::MAX, &reference);
    assert!(states >= 38, "{states} crash states without checkpoints");
    // At the default cadence, the cut is the tail behind the last
    // checkpoint.
    let states = sweep_wal_cuts(&upstream, default_config().checkpoint_every, &reference);
    assert!(states > 2, "{states} crash states in the checkpointed tail");

    let crash_points = [
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

    let ingest_deaths = || sift::obs::counter("sift_serve_ingest_deaths_total", &[]).get();
    for (site, occurrence, what) in crash_points {
        let before = upstream.fetches.load(Ordering::SeqCst);
        let deaths_before = ingest_deaths();
        let dir = scratch_dir(&format!("serve_http_{site:?}"));
        let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
        let inj = Arc::new(CrashInjector::new(site, occurrence));

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
        assert!(
            ingest_deaths() > deaths_before,
            "{what}: ingest death counted"
        );

        // The front survives its ingest thread: reads still answer 200
        // from last-good state.
        let during = get(crashed.addr(), "/spikes?region=TX");
        assert_eq!(during.status, StatusCode::OK, "{what}: read during outage");
        let _ = staleness_ms(&during);
        crashed.shutdown();

        // Restart on the same directory: checkpoint + WAL-tail replay
        // must reach the identical spike set.
        let replies = run_to_the_end(&upstream, serve_config(), &dir, what);
        for (got, want) in replies.iter().zip(&reference) {
            assert_same_spikes(got, want, what);
        }

        // Zero-refetch accounting: both lives together fetched the
        // uninterrupted workload, plus at most the frame in flight.
        let fetched = upstream.fetches.load(Ordering::SeqCst) - before;
        assert!(
            fetched >= fetches_uninterrupted && fetched <= fetches_uninterrupted + 1,
            "{what}: {fetched} fetches vs uninterrupted {fetches_uninterrupted} — \
             journaled frames must replay, not refetch"
        );
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

/// The child's half of the out-of-process harness: ingest from an
/// upstream that pauses before each frame, so the kill lands mid-ingest,
/// then wait to be killed.
fn child_ingest(dir: &Path) -> ! {
    struct Paced(Arc<Upstream>);
    impl TrendsClient for Paced {
        fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
            std::thread::sleep(Duration::from_millis(20));
            self.0.fetch_frame(req)
        }
        fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
            self.0.fetch_rising(req)
        }
    }
    let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
    let upstream = Arc::new(Paced(Upstream::new()));
    let _daemon = Daemon::start(serve_config(), upstream, clock, dir).expect("child daemon");
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

#[test]
fn process_aborted_mid_ingest_resumes_to_identical_spikes() {
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        child_ingest(Path::new(&dir));
    }

    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let upstream = Upstream::new();
    let (reference, _) = baseline(&upstream, "kill");
    let dir = scratch_dir("serve_http_child");

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .arg("process_aborted_mid_ingest_resumes_to_identical_spikes")
        .arg("--exact")
        .arg("--test-threads=1")
        .env(CHILD_ENV, &*dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child test process");

    // Kill it once TX's first checkpoint has landed. The kill may land
    // anywhere, mid-record or mid-checkpoint included: every instant is
    // a crash state.
    let checkpoint = dir.join("TX").join("region.ckpt");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !checkpoint.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("kill child");
    let status = child.wait().expect("reap child");
    assert!(checkpoint.exists(), "the child never checkpointed");
    assert!(!status.success(), "the child must die by the kill");

    // The orphaned checkpoint + WAL survive the kill; a daemon resumed
    // on them reproduces the uninterrupted spike set exactly.
    let replies = run_to_the_end(&upstream, serve_config(), &dir, "out-of-process kill");
    for (got, want) in replies.iter().zip(&reference) {
        assert_same_spikes(got, want, "out-of-process kill");
    }
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

    // The degraded read was counted under its reason label.
    let metrics = get(addr, "/metrics");
    let text = std::str::from_utf8(&metrics.body).expect("utf8 metrics");
    assert!(
        text.contains("sift_serve_degraded_reads_total{reason=\"missing_frames\"}"),
        "{text}"
    );

    // Recovery: heal the upstream and the degradation clears.
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
