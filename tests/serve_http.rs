//! Serving acceptance: the online detector daemon over real sockets.
//!
//! Five properties are exercised end-to-end:
//!
//! 1. **Crash recovery, in-process** — every state a crash can leave is
//!    built from files (Pillai et al., OSDI 2014). A region's WAL is
//!    append-only, so each such state is a prefix of the finished file:
//!    the sweep runs a daemon once, cuts one region's WAL at every record
//!    boundary and half-way through every record, and restarts a daemon
//!    on each cut. A checkpoint install writes `region.ckpt.tmp`, renames
//!    it over `region.ckpt`, then truncates the WAL: a second daemon
//!    steps the simulated clock frame by frame, each region's files are
//!    read after every frame, and every install of both regions yields
//!    its two states — the temp file written but not renamed, and the
//!    rename landed with the WAL not yet truncated. Every restart catches
//!    up to the *identical* spike set an uninterrupted daemon produces,
//!    fetching only the frames the crash lost, and leaves the region's
//!    files as the uninterrupted run did.
//! 2. **Ingest death** — an upstream that panics at a chosen fetch kills
//!    the ingest thread; the HTTP front keeps serving last-good data, and
//!    a restart reaches the identical spike set without refetching a
//!    journaled frame.
//! 3. **Crash recovery, out-of-process** — this test binary is spawned
//!    as a child that ingests from a paced upstream; the parent kills it
//!    (SIGKILL: no unwinding, no flushing) once its first checkpoint
//!    lands, and resumes from the orphaned files to the identical spike
//!    set.
//! 4. **Overload** — three long-poll subscribers park (holding worker
//!    threads but no admission slots, so a fresh read still succeeds
//!    with `max_inflight = 1`); with the accept queue then pinned, a 4×
//!    burst is shed instantly with `503 + Retry-After`, and when the
//!    clock advances every parked subscriber still receives its spikes.
//! 5. **Graceful degradation** — a failing upstream, or a region whose
//!    checkpoints cannot be installed, turns reads degraded, labelled by
//!    reason in the `X-Sift-Degraded` header and counted in
//!    `sift_serve_degraded_reads_total{reason=…}`, while the reads
//!    themselves keep answering `200`.

mod common;

use common::world;
use sift::core::plan_frames;
use sift::geo::State;
use sift::journal::testutil::{copy_dir, scratch_dir, wal_cuts};
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
/// [`TrendsClient`] with test-controlled failure injection, a fetch
/// counter (for the zero-refetch accounting) and a fetch it panics at.
struct Upstream {
    service: Arc<TrendsService>,
    failing: AtomicBool,
    fetches: AtomicU64,
    /// The value of `fetches` at which the next fetch panics, once;
    /// `u64::MAX` for never.
    dies_at: AtomicU64,
}

impl Upstream {
    fn new() -> Arc<Upstream> {
        Arc::new(Upstream {
            service: Arc::new(TrendsService::with_defaults(world(&[State::TX, State::CA]))),
            failing: AtomicBool::new(false),
            fetches: AtomicU64::new(0),
            dies_at: AtomicU64::new(u64::MAX),
        })
    }
}

impl TrendsClient for Upstream {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        if self.failing.load(Ordering::SeqCst) {
            return Err(FetchError::Transport("injected upstream outage".into()));
        }
        let n = self.fetches.load(Ordering::SeqCst);
        let dies = self
            .dies_at
            .compare_exchange(n, u64::MAX, Ordering::SeqCst, Ordering::SeqCst);
        if dies.is_ok() {
            panic!("upstream panics at fetch {n}");
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

fn start(upstream: &Arc<Upstream>, cfg: ServeConfig, clock: &Arc<SimClock>, dir: &Path) -> Daemon {
    Daemon::start(
        cfg,
        Arc::clone(upstream) as Arc<dyn TrendsClient>,
        Arc::clone(clock),
        dir,
    )
    .expect("start daemon")
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

fn ckpt_path(dir: &Path, state: State) -> PathBuf {
    dir.join(state.abbrev()).join("region.ckpt")
}

/// One region's durable files: its checkpoint, if any, and its WAL.
#[derive(Clone, Debug, Default, PartialEq)]
struct RegionFiles {
    ckpt: Option<Vec<u8>>,
    wal: Vec<u8>,
}

fn read_region(dir: &Path, state: State) -> RegionFiles {
    RegionFiles {
        ckpt: std::fs::read(ckpt_path(dir, state)).ok(),
        wal: std::fs::read(wal_path(dir, state)).unwrap(),
    }
}

/// Replaces `state`'s files under `dir` with `files`, plus a
/// `region.ckpt.tmp` holding `tmp` when given.
fn write_region(dir: &Path, state: State, files: &RegionFiles, tmp: Option<&[u8]>) {
    match &files.ckpt {
        Some(bytes) => std::fs::write(ckpt_path(dir, state), bytes).unwrap(),
        None => std::fs::remove_file(ckpt_path(dir, state)).unwrap(),
    }
    std::fs::write(wal_path(dir, state), &files.wal).unwrap();
    if let Some(bytes) = tmp {
        let tmp_path = dir.join(state.abbrev()).join("region.ckpt.tmp");
        std::fs::write(tmp_path, bytes).unwrap();
    }
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

/// Steps a daemon at `cfg` through the plan one frame at a time (the
/// clock set to each frame's end in turn) and returns both regions'
/// files, `[TX, CA]`, after every frame.
fn files_frame_by_frame(upstream: &Arc<Upstream>, cfg: &ServeConfig) -> Vec<[RegionFiles; 2]> {
    let dir = scratch_dir("serve_http_stepped");
    let clock = Arc::new(SimClock::new(cfg.range.start));
    let daemon = start(upstream, cfg.clone(), &clock, &dir);
    let steps = plan_frames(cfg.range, cfg.plan)
        .frames
        .iter()
        .map(|frame| {
            clock.set(frame.end);
            assert!(daemon.wait_caught_up(Duration::from_secs(30)));
            [State::TX, State::CA].map(|r| read_region(&dir, r))
        })
        .collect();
    daemon.shutdown();
    steps
}

/// Restarts a daemon on both crash states of every checkpoint install
/// of each region (the other region whole). The install at frame `j`
/// leaves, if the process dies inside it, either the old checkpoint with
/// the WAL through frame `j` and `region.ckpt.tmp` holding the new
/// checkpoint (*temp written*), or the new checkpoint with that same WAL
/// (*renamed, WAL not yet truncated*). Each restart catches up to the
/// reference spikes, fetches exactly the frames after `j`, and finishes
/// with the uninterrupted run's WAL and checkpoint. Returns the number
/// of crash states.
fn sweep_checkpoint_installs(upstream: &Arc<Upstream>, reference: &[SpikesReply; 2]) -> usize {
    let cfg = serve_config();
    let finished = scratch_dir("serve_http_installs_finished");
    let replies = run_to_the_end(upstream, cfg.clone(), &finished, "uninterrupted");
    for (got, want) in replies.iter().zip(reference) {
        assert_same_spikes(got, want, "installs: uninterrupted");
    }
    // Frame j's WAL record is the j-th record of a WAL never truncated.
    let untruncated = scratch_dir("serve_http_installs_untruncated");
    let no_checkpoints = ServeConfig {
        checkpoint_every: u64::MAX,
        ..cfg.clone()
    };
    run_to_the_end(upstream, no_checkpoints, &untruncated, "no checkpoints");
    let steps = files_frame_by_frame(upstream, &cfg);
    let frames = steps.len();

    let mut states = 0;
    for (r, region) in [State::TX, State::CA].into_iter().enumerate() {
        let finished_files = read_region(&finished, region);
        assert_eq!(
            steps[frames - 1][r],
            finished_files,
            "{region}: stepped run"
        );
        let full_wal = std::fs::read(wal_path(&untruncated, region)).unwrap();
        let ends: Vec<usize> = wal_cuts(&full_wal)
            .into_iter()
            .filter(|cut| !cut.torn)
            .map(|cut| cut.len)
            .collect();
        assert_eq!(ends.len(), frames + 1, "{region}: one record per frame");
        for j in 0..frames {
            let before = if j == 0 {
                RegionFiles::default()
            } else {
                steps[j - 1][r].clone()
            };
            let after = &steps[j][r];
            if after.ckpt == before.ckpt {
                continue; // no install at frame j
            }
            assert!(after.wal.is_empty(), "{region} frame {j}: WAL truncated");
            let wal = [before.wal.as_slice(), &full_wal[ends[j]..ends[j + 1]]].concat();
            let temp_written = RegionFiles {
                ckpt: before.ckpt.clone(),
                wal: wal.clone(),
            };
            let renamed = RegionFiles {
                ckpt: after.ckpt.clone(),
                wal,
            };
            for (state, tmp, site) in [
                (&temp_written, after.ckpt.as_deref(), "temp written"),
                (&renamed, None, "renamed, WAL not yet truncated"),
            ] {
                let what = format!("{region} install at frame {j}, {site}");
                let dir = scratch_dir("serve_http_install");
                copy_dir(&finished, &dir);
                write_region(&dir, region, state, tmp);
                let before = upstream.fetches.load(Ordering::SeqCst);
                let replies = run_to_the_end(upstream, cfg.clone(), &dir, &what);
                for (got, want) in replies.iter().zip(reference) {
                    assert_same_spikes(got, want, &what);
                }
                let fetched = upstream.fetches.load(Ordering::SeqCst) - before;
                assert_eq!(fetched as usize, frames - (j + 1), "{what}: fetches");
                assert!(
                    read_region(&dir, region) == finished_files,
                    "{what}: the restarted daemon's files differ"
                );
                states += 1;
            }
        }
    }
    let installs = frames as u64 / cfg.checkpoint_every;
    assert_eq!(states as u64, 2 * 2 * installs, "two states per install");
    states
}

#[test]
fn daemon_killed_at_each_crash_point_resumes_to_identical_spikes() {
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let upstream = Upstream::new();
    let (reference, _) = baseline(&upstream, "inproc");

    // With no checkpoint, a cut WAL is the daemon's whole durable state.
    let states = sweep_wal_cuts(&upstream, u64::MAX, &reference);
    assert!(states >= 38, "{states} crash states without checkpoints");
    // At the default cadence, the cut is the tail behind the last
    // checkpoint.
    let states = sweep_wal_cuts(&upstream, default_config().checkpoint_every, &reference);
    assert!(states > 2, "{states} crash states in the checkpointed tail");
    // Inside every checkpoint install of both regions.
    let states = sweep_checkpoint_installs(&upstream, &reference);
    assert!(
        states >= 12,
        "{states} crash states inside checkpoint installs"
    );
}

#[test]
fn ingest_death_keeps_reads_answering_and_a_restart_catches_up() {
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let upstream = Upstream::new();
    let (reference, fetches_uninterrupted) = baseline(&upstream, "death");
    let deaths = || sift::obs::counter("sift_serve_ingest_deaths_total", &[]).get();
    let deaths_before = deaths();

    // TX ingests first: its sixth fetch panics, two frames past its first
    // checkpoint, so the restart has a WAL tail to replay.
    let before = upstream.fetches.load(Ordering::SeqCst);
    upstream.dies_at.store(before + 5, Ordering::SeqCst);
    let dir = scratch_dir("serve_http_ingest_death");
    let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
    let daemon = start(&upstream, serve_config(), &clock, &dir);
    poll_until("ingest death", || daemon.ingest_dead());
    assert_eq!(deaths(), deaths_before + 1, "ingest death counted");

    // The front survives its ingest thread: reads still answer 200 from
    // last-good state.
    let during = get(daemon.addr(), "/spikes?region=TX");
    assert_eq!(during.status, StatusCode::OK, "read after ingest death");
    let _ = staleness_ms(&during);
    daemon.shutdown();
    assert_eq!(upstream.fetches.load(Ordering::SeqCst), before + 5);

    // Restart on the same directory: checkpoint + WAL-tail replay reaches
    // the identical spike set, and both lives together fetch exactly the
    // uninterrupted workload — journaled frames replay, not refetch.
    let replies = run_to_the_end(&upstream, serve_config(), &dir, "after ingest death");
    for (got, want) in replies.iter().zip(&reference) {
        assert_same_spikes(got, want, "after ingest death");
    }
    let fetched = upstream.fetches.load(Ordering::SeqCst) - before;
    assert_eq!(fetched, fetches_uninterrupted, "fetches across both lives");
}

#[test]
fn spikes_endpoint_filters_validates_and_reports_status() {
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let upstream = Upstream::new();
    let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
    let dir = scratch_dir("serve_http_endpoints");
    let daemon = start(&upstream, serve_config(), &clock, &dir);
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
    let daemon = start(&upstream, cfg, &clock, &dir);
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
    let daemon = start(&upstream, serve_config(), &clock, &dir);
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

    // A region whose checkpoints cannot be installed: a directory sits
    // where TX's temp file goes, so every install fails at its first
    // step. TX keeps ingesting and serving, counts each failure, and its
    // reads degrade as WalBacklog once the WAL tail exceeds four
    // checkpoint intervals, not before. CA checkpoints as usual.
    let cfg = ServeConfig {
        checkpoint_every: 1,
        ..serve_config()
    };
    let backlog = 4 * cfg.checkpoint_every;
    let dir = scratch_dir("serve_http_wal_backlog");
    std::fs::create_dir_all(dir.join("TX").join("region.ckpt.tmp")).unwrap();
    let failures = || sift::obs::counter("sift_serve_checkpoint_failures_total", &[]).get();
    let failures_before = failures();
    let clock = Arc::new(SimClock::new(Hour(0)));
    let daemon = start(&upstream, cfg.clone(), &clock, &dir);
    let frames = plan_frames(cfg.range, cfg.plan).frames;
    assert!(
        frames.len() as u64 > backlog,
        "the plan outgrows the backlog"
    );
    for (j, frame) in frames.iter().enumerate() {
        clock.set(frame.end);
        assert!(daemon.wait_caught_up(Duration::from_secs(30)));
        let tail = j as u64 + 1;
        assert_eq!(
            failures() - failures_before,
            tail,
            "frame {j}: failed installs"
        );
        let want = (tail > backlog).then_some("wal_backlog");
        for (region, degraded) in [("TX", want), ("CA", None)] {
            let resp = get(daemon.addr(), &format!("/spikes?region={region}"));
            assert_eq!(resp.status, StatusCode::OK, "{region} frame {j}");
            assert_eq!(
                resp.headers.get("x-sift-degraded"),
                degraded,
                "{region} after frame {j}"
            );
            assert_eq!(body_json::<SpikesReply>(&resp).watermark, frame.end.0);
        }
    }
    assert!(
        !ckpt_path(&dir, State::TX).exists(),
        "no TX checkpoint landed"
    );
    daemon.shutdown();
}
