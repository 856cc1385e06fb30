//! The online detector daemon: continuous ingest + bounded-staleness
//! HTTP serving.
//!
//! One ingest thread walks the frame plan region by region as the shared
//! [`SimClock`] advances, fetching every frame whose window has closed,
//! journaling it (WAL-before-apply), stitching it into the streaming
//! series and sealing spikes with the incremental walk. Readers go
//! through `sift-net` behind the admission layer:
//!
//! * `GET /spikes?region=TX&since=<hour>` — the region's sealed spikes,
//!   filtered to those ending after `since`.
//! * `GET /spikes/subscribe?region=TX&cursor=<n>` — long-poll: parks
//!   (releasing its admission slot) until the region holds more than `n`
//!   sealed spikes, the poll budget expires, or the server drains.
//! * `GET /regions` — per-region ingest status.
//!
//! Every response carries `X-Sift-Staleness-Ms` (host milliseconds since
//! the region last advanced) and, when the region is degraded, an
//! `X-Sift-Degraded` header naming the [`DegradeReason`] — the read
//! still serves last-good data.

use crate::config::{ServeConfig, LAG_BUDGET_HOURS, POLL_INTERVAL, WAL_BACKLOG_CHECKPOINTS};
use crate::degrade::DegradeReason;
use crate::region::RegionCore;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sift_core::{plan_frames, FramePlan, Spike};
use sift_geo::State;
use sift_net::{
    mount_observability, AdmissionController, Method, Request, Response, Router, Server,
    ServerHandle, StatusCode,
};
use sift_simtime::{Hour, SimClock};
use sift_trends::{FrameRequest, TrendsClient};
use std::io;
use std::net::SocketAddr;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reply body of `/spikes` and `/spikes/subscribe`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpikesReply {
    /// The region asked about.
    pub region: State,
    /// One past the last hour the region's series covers.
    pub watermark: i64,
    /// Total sealed spikes (pass back as `cursor` to subscribe for the
    /// next one).
    pub cursor: u64,
    /// Degrade label when the region serves last-good data, else `None`.
    pub degraded: Option<String>,
    /// Sealed spikes (raw magnitudes on the first frame's scale),
    /// filtered by `since` when given.
    pub spikes: Vec<Spike>,
}

/// One region's ingest status in `/regions`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegionStatus {
    /// The region.
    pub region: State,
    /// One past the last hour covered.
    pub watermark: i64,
    /// Frames ingested so far.
    pub frames_ingested: u64,
    /// Frames the plan holds in total.
    pub frames_planned: u64,
    /// Spikes sealed so far.
    pub sealed_spikes: u64,
    /// Hours buffered in the detector's open segment.
    pub open_hours: u64,
    /// Degrade label, if any.
    pub degraded: Option<String>,
}

/// Reply body of `/regions`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegionsReply {
    /// The simulated present.
    pub now: i64,
    /// Status per served region.
    pub regions: Vec<RegionStatus>,
}

/// One region's runtime: the core under its mutex plus the condvar that
/// wakes long-poll subscribers when a spike seals.
struct RegionRuntime {
    state: State,
    core: Mutex<RegionCore>,
    cv: Condvar,
}

/// State shared by the ingest thread and every HTTP handler.
struct Shared {
    cfg: ServeConfig,
    plan: FramePlan,
    clock: Arc<SimClock>,
    client: Arc<dyn TrendsClient>,
    admission: Arc<AdmissionController>,
    regions: Vec<Arc<RegionRuntime>>,
    epoch: Instant,
    shutdown: AtomicBool,
    ingest_dead: AtomicBool,
}

impl Shared {
    fn region(&self, state: State) -> Option<&Arc<RegionRuntime>> {
        self.regions.iter().find(|r| r.state == state)
    }

    /// How far the simulated present allows ingest to have progressed.
    fn fetchable_until(&self) -> Hour {
        let now = self.clock.now();
        if now > self.cfg.range.end {
            self.cfg.range.end
        } else {
            now
        }
    }

    /// The most severe degrade condition a locked region core is in.
    fn degrade(&self, core: &RegionCore) -> Option<DegradeReason> {
        core.degrade(
            self.fetchable_until(),
            LAG_BUDGET_HOURS,
            WAL_BACKLOG_CHECKPOINTS.saturating_mul(self.cfg.checkpoint_every),
        )
    }

    /// Builds the `/spikes` reply for a locked region core.
    fn spikes_reply(
        &self,
        core: &RegionCore,
        since: Option<i64>,
    ) -> (SpikesReply, Option<DegradeReason>) {
        let degraded = self.degrade(core);
        let spikes: Vec<Spike> = match since {
            Some(h) => core
                .spikes
                .iter()
                .filter(|s| s.end > Hour(h))
                .copied()
                .collect(),
            None => core.spikes.clone(),
        };
        let reply = SpikesReply {
            region: core.state,
            watermark: core.watermark().0,
            cursor: u64::try_from(core.spikes.len()).unwrap_or(u64::MAX),
            degraded: degraded.map(|d| d.label().to_owned()),
            spikes,
        };
        (reply, degraded)
    }

    fn status(&self) -> RegionsReply {
        let mut regions = Vec::with_capacity(self.regions.len());
        for rt in &self.regions {
            let core = rt.core.lock();
            let degraded = self.degrade(&core);
            regions.push(RegionStatus {
                region: rt.state,
                watermark: core.watermark().0,
                frames_ingested: u64::try_from(core.next_frame).unwrap_or(u64::MAX),
                frames_planned: u64::try_from(self.plan.len()).unwrap_or(u64::MAX),
                sealed_spikes: u64::try_from(core.spikes.len()).unwrap_or(u64::MAX),
                open_hours: u64::try_from(core.open_hours()).unwrap_or(u64::MAX),
                degraded: degraded.map(|d| d.label().to_owned()),
            });
        }
        RegionsReply {
            now: self.clock.now().0,
            regions,
        }
    }
}

/// A value of the `region=` query parameter, parsed into a [`State`].
fn query_param<'a>(path: &'a str, key: &str) -> Option<&'a str> {
    let (_, qs) = path.split_once('?')?;
    qs.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == key {
            Some(v)
        } else {
            None
        }
    })
}

fn region_from_query(path: &str) -> Result<State, Response> {
    query_param(path, "region")
        .and_then(|s| s.parse::<State>().ok())
        .ok_or_else(|| {
            Response::text(
                StatusCode::BAD_REQUEST,
                "missing or unknown `region` query parameter",
            )
        })
}

fn json_response(reply: &impl Serialize) -> Response {
    match Response::json(reply) {
        Ok(resp) => resp,
        Err(_) => Response::text(StatusCode::INTERNAL_SERVER_ERROR, "serialization failed"),
    }
}

/// Stamps the bounded-staleness headers every serve response carries.
fn stamp(
    mut resp: Response,
    region: State,
    staleness_ms: u128,
    degraded: Option<DegradeReason>,
) -> Response {
    resp.headers
        .set("x-sift-staleness-ms", staleness_ms.to_string());
    sift_obs::gauge("sift_serve_staleness_ms", &[("region", region.abbrev())])
        .set(i64::try_from(staleness_ms).unwrap_or(i64::MAX));
    if let Some(reason) = degraded {
        resp.headers.set("x-sift-degraded", reason.label());
        reason.count_read();
    }
    resp
}

/// The running daemon: ingest thread + HTTP server + shared state.
pub struct Daemon {
    shared: Arc<Shared>,
    server: Option<ServerHandle>,
    ingest: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon: recovers every region from `dir` (checkpoint +
    /// WAL tail), binds the HTTP server on a free localhost port, and
    /// spawns the ingest thread against `clock`.
    #[expect(clippy::disallowed_methods, reason = "staleness is host time")]
    pub fn start(
        cfg: ServeConfig,
        client: Arc<dyn TrendsClient>,
        clock: Arc<SimClock>,
        dir: &Path,
    ) -> io::Result<Daemon> {
        let plan = plan_frames(cfg.range, cfg.plan);
        let cores = open_regions(&cfg, dir)?;
        publish_checkpoint_age(&cores);
        let regions = cores
            .into_iter()
            .map(|core| {
                Arc::new(RegionRuntime {
                    state: core.state,
                    core: Mutex::new(core),
                    cv: Condvar::new(),
                })
            })
            .collect();

        let admission = Arc::new(AdmissionController::new(cfg.admission));
        let workers = cfg.workers;
        let shared = Arc::new(Shared {
            cfg,
            plan,
            clock,
            client,
            admission: Arc::clone(&admission),
            regions,
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            ingest_dead: AtomicBool::new(false),
        });

        let router = build_router(&shared);
        let server = Server::new(router)
            .with_admission(Arc::clone(&admission))
            .with_workers(workers)
            .bind("127.0.0.1:0")?;

        let ingest = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sift-serve-ingest".into())
                .spawn(move || ingest_loop(&shared))?
        };

        Ok(Daemon {
            shared,
            server: Some(server),
            ingest: Some(ingest),
        })
    }

    /// The HTTP address the daemon serves on.
    pub fn addr(&self) -> SocketAddr {
        // The handle is only `None` transiently inside `shutdown`.
        match &self.server {
            Some(s) => s.addr(),
            None => SocketAddr::from(([127, 0, 0, 1], 0)),
        }
    }

    /// The admission controller shared with the HTTP front.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.shared.admission
    }

    /// True when the ingest thread has died (a panic in the upstream
    /// client, or a bug). The HTTP front keeps serving last-good data;
    /// reads will degrade as the watermark falls behind.
    pub fn ingest_dead(&self) -> bool {
        self.shared.ingest_dead.load(Ordering::SeqCst)
    }

    /// Blocks until every region has ingested all frames the simulated
    /// clock currently allows, or `timeout` elapses, or ingest dies.
    /// Returns whether the daemon is fully caught up.
    #[expect(clippy::disallowed_methods, reason = "the timeout is host time")]
    pub fn wait_caught_up(&self, timeout: std::time::Duration) -> bool {
        let started = Instant::now();
        loop {
            let until = self.shared.fetchable_until();
            let target = self
                .shared
                .plan
                .frames
                .iter()
                .take_while(|f| f.end <= until)
                .count();
            let caught_up = self
                .shared
                .regions
                .iter()
                .all(|rt| rt.core.lock().next_frame >= target);
            if caught_up {
                return true;
            }
            if self.ingest_dead() || started.elapsed() >= timeout {
                return false;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// In-process status snapshot (what `/regions` serves).
    pub fn status(&self) -> RegionsReply {
        self.shared.status()
    }

    /// In-process read of a region's sealed spikes (what `/spikes`
    /// serves, minus transport).
    pub fn spikes(&self, region: State) -> Option<SpikesReply> {
        let rt = self.shared.region(region)?;
        let core = rt.core.lock();
        Some(self.shared.spikes_reply(&core, None).0)
    }

    /// Stops ingest, drains the HTTP front, and joins every thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.admission.begin_drain();
        for rt in &self.shared.regions {
            rt.cv.notify_all();
        }
        if let Some(ingest) = self.ingest.take() {
            // A crashed ingest thread already unwound; joining it then
            // just collects the panic.
            #[expect(clippy::let_underscore_must_use, reason = "the panic is expected")]
            let _ = ingest.join();
        }
        if let Some(server) = self.server.take() {
            server.drain(std::time::Duration::from_secs(2));
        }
    }
}

/// Recovers every region of `cfg.regions` from `dir` (checkpoint + WAL
/// tail), on up to one thread per available core. [`sift_obs::fan_out`]
/// hands out regions one at a time rather than in contiguous chunks: the
/// leading regions hold the largest checkpoints, so chunks would leave
/// one thread with most of the work. The cores come back in
/// `cfg.regions` order, and the error is that of the first failing
/// region in that order, whichever thread opened what.
fn open_regions(cfg: &ServeConfig, dir: &Path) -> io::Result<Vec<RegionCore>> {
    #[expect(
        clippy::disallowed_methods,
        reason = "read once per start: each call re-reads the cgroup limits"
    )]
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    sift_obs::fan_out(&cfg.regions, threads, |&state| {
        RegionCore::open(
            &dir.join(state.abbrev()),
            state,
            &cfg.term,
            cfg.range.start,
            cfg.plan,
            cfg.detect,
            cfg.checkpoint_every,
        )
    })
    .into_iter()
    .collect()
}

/// Publishes the age of the oldest checkpoint `cores` recovered from as
/// `sift_journal_checkpoint_age_seconds` (untouched when none did), and
/// returns it.
fn publish_checkpoint_age(cores: &[RegionCore]) -> Option<Duration> {
    let oldest = cores.iter().filter_map(|c| c.checkpoint_age).max()?;
    sift_obs::gauge("sift_journal_checkpoint_age_seconds", &[])
        .set(i64::try_from(oldest.as_secs()).unwrap_or(i64::MAX));
    Some(oldest)
}

/// The ingest thread: poll the clock, fetch every closed frame, sleep
/// when idle. A panic (in the upstream client, or a bug) marks
/// ingest dead and leaves the HTTP front serving last-good data —
/// graceful degradation, not collapse.
#[expect(clippy::disallowed_methods, reason = "the idle wait is host time")]
fn ingest_loop(shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match catch_unwind(AssertUnwindSafe(|| ingest_tick(shared))) {
            Ok(true) => {}
            Ok(false) => std::thread::sleep(POLL_INTERVAL),
            Err(_) => {
                // Counted before it is published: whoever sees the flag
                // sees the count.
                sift_obs::counter("sift_serve_ingest_deaths_total", &[]).inc();
                shared.ingest_dead.store(true, Ordering::SeqCst);
                break;
            }
        }
    }
}

/// One pass over every region: ingest each frame whose window the clock
/// has closed. Returns whether any frame was applied.
fn ingest_tick(shared: &Shared) -> bool {
    let mut progressed = false;
    for rt in &shared.regions {
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return progressed;
            }
            let until = shared.fetchable_until();
            let idx = rt.core.lock().next_frame;
            let Some(frame) = shared.plan.frames.get(idx) else {
                break; // plan exhausted for this region
            };
            if frame.end > until {
                break; // the frame's window is still open
            }
            let req = FrameRequest {
                term: shared.cfg.term.clone(),
                state: rt.state,
                start: frame.start,
                len: shared.cfg.plan.frame_len,
                tag: 0,
            };
            // Fetch outside the region lock: a slow or faulty upstream
            // must not block reads.
            match shared.client.fetch_frame(&req) {
                Ok(resp) => {
                    let span = sift_obs::span_root("serve.ingest_frame");
                    let sealed = rt
                        .core
                        .lock()
                        .ingest(idx, &resp, shared.cfg.checkpoint_every);
                    drop(span);
                    match sealed {
                        Ok(n) => {
                            progressed = true;
                            sift_obs::counter(
                                "sift_serve_frames_ingested_total",
                                &[("region", rt.state.abbrev())],
                            )
                            .inc();
                            if n > 0 {
                                rt.cv.notify_all();
                            }
                        }
                        Err(_) => break,
                    }
                }
                Err(_) => {
                    sift_obs::counter(
                        "sift_serve_fetch_errors_total",
                        &[("region", rt.state.abbrev())],
                    )
                    .inc();
                    break;
                }
            }
        }
    }
    progressed
}

#[expect(clippy::disallowed_methods, reason = "long-poll budgets are host time")]
fn build_router(shared: &Arc<Shared>) -> Router {
    let router = Router::new();

    let spikes_shared = Arc::clone(shared);
    let router = router.route(Method::Get, "/spikes", move |req: &Request| {
        sift_obs::counter("sift_serve_spikes_reads_total", &[]).inc();
        let region = match region_from_query(&req.path) {
            Ok(r) => r,
            Err(resp) => return resp,
        };
        let since = query_param(&req.path, "since").and_then(|s| s.parse::<i64>().ok());
        let Some(rt) = spikes_shared.region(region) else {
            return Response::text(StatusCode::NOT_FOUND, "region not served");
        };
        let core = rt.core.lock();
        let (reply, degraded) = spikes_shared.spikes_reply(&core, since);
        let staleness = core.staleness_ms(spikes_shared.epoch);
        drop(core);
        stamp(json_response(&reply), region, staleness, degraded)
    });

    let sub_shared = Arc::clone(shared);
    let router = router.route(Method::Get, "/spikes/subscribe", move |req: &Request| {
        sift_obs::counter("sift_serve_subscribe_reads_total", &[]).inc();
        let region = match region_from_query(&req.path) {
            Ok(r) => r,
            Err(resp) => return resp,
        };
        let cursor = query_param(&req.path, "cursor")
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
        let Some(rt) = sub_shared.region(region) else {
            return Response::text(StatusCode::NOT_FOUND, "region not served");
        };

        // Park the admission slot for the whole wait: a thousand idle
        // subscribers must not shed fresh /spikes reads (see
        // `AdmissionController::park`).
        let parked = sub_shared.admission.park();
        let started = Instant::now();
        let budget = sub_shared.cfg.long_poll_max;
        let mut core = rt.core.lock();
        loop {
            if u64::try_from(core.spikes.len()).unwrap_or(u64::MAX) > cursor {
                break;
            }
            if sub_shared.admission.is_draining()
                || sub_shared.shutdown.load(Ordering::SeqCst)
                || started.elapsed() >= budget
            {
                break;
            }
            // Short slices keep the waiter responsive to drain even if a
            // notification is missed.
            let slice = (budget - started.elapsed()).min(std::time::Duration::from_millis(50));
            let (guard, _) = rt
                .cv
                .wait_timeout(core, slice)
                .unwrap_or_else(PoisonError::into_inner);
            core = guard;
        }
        let (reply, degraded) = sub_shared.spikes_reply(&core, None);
        let staleness = core.staleness_ms(sub_shared.epoch);
        drop(core);
        drop(parked); // re-takes the in-flight slot for the send
        stamp(json_response(&reply), region, staleness, degraded)
    });

    let regions_shared = Arc::clone(shared);
    let router = router.route(Method::Get, "/regions", move |_req: &Request| {
        sift_obs::counter("sift_serve_regions_reads_total", &[]).inc();
        let reply = regions_shared.status();
        let mut resp = json_response(&reply);
        let staleness = regions_shared
            .regions
            .iter()
            .map(|rt| rt.core.lock().staleness_ms(regions_shared.epoch))
            .max()
            .unwrap_or(0);
        resp.headers
            .set("x-sift-staleness-ms", staleness.to_string());
        resp
    });

    mount_observability(router)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_journal::testutil::{backdate, scratch_dir, ScratchDir};
    use sift_journal::Journal;
    use sift_simtime::HourRange;
    use sift_trends::{Scenario, ScenarioParams, SearchTerm, TrendsService};

    /// Eight regions, the four largest first, as in the full region order.
    const REGIONS: [State; 8] = [
        State::TX,
        State::CA,
        State::FL,
        State::NY,
        State::IL,
        State::PA,
        State::OH,
        State::WA,
    ];
    const RANGE_END: i64 = 800;

    /// Nine frames at the default plan over `RANGE_END` hours, one
    /// checkpoint every four: each region ends on two checkpoints and a
    /// one-record WAL tail.
    fn config(regions: &[State]) -> ServeConfig {
        ServeConfig::new(
            SearchTerm::parse("topic:Internet outage"),
            regions.to_vec(),
            HourRange::new(Hour(0), Hour(RANGE_END)),
        )
    }

    fn upstream() -> Arc<dyn TrendsClient> {
        Arc::new(TrendsService::with_defaults(Scenario::generate(
            ScenarioParams {
                regions: REGIONS.to_vec(),
                ..ScenarioParams::default()
            },
        )))
    }

    /// The clock stands at the end of the range, so a daemon catches up
    /// at once and a restart has nothing left to fetch.
    fn start(cfg: ServeConfig, client: &Arc<dyn TrendsClient>, dir: &Path) -> io::Result<Daemon> {
        let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
        Daemon::start(cfg, Arc::clone(client), clock, dir)
    }

    /// What `/regions` and `/spikes` serve, region for region.
    type Served = Vec<(State, i64, u64, Vec<Spike>)>;

    fn served(daemon: &Daemon) -> Served {
        daemon
            .status()
            .regions
            .into_iter()
            .map(|s| {
                let spikes = daemon.spikes(s.region).expect("served").spikes;
                (s.region, s.watermark, s.frames_ingested, spikes)
            })
            .collect()
    }

    /// Ingests the whole plan for `regions` into a fresh directory and
    /// shuts down, leaving a checkpoint and a WAL tail per region.
    /// Returns the directory and what the daemon served at shutdown.
    fn ingested_dir(
        tag: &str,
        regions: &[State],
        client: &Arc<dyn TrendsClient>,
    ) -> (ScratchDir, Served) {
        let dir = scratch_dir(tag);
        let daemon = start(config(regions), client, &dir).expect("start");
        assert!(daemon.wait_caught_up(Duration::from_secs(60)), "caught up");
        let served = served(&daemon);
        daemon.shutdown();
        for r in regions {
            let region = dir.join(r.abbrev());
            assert!(region.join("region.ckpt").exists(), "{r} checkpointed");
            let (_, recovery) = Journal::open(&region.join("region.wal")).expect("wal");
            assert!(!recovery.records.is_empty(), "{r} left a WAL tail");
        }
        (dir, served)
    }

    /// Recovery opens regions on several threads; ten restarts in a row
    /// each serve, region for region, the spikes and watermarks the
    /// daemon held before shutdown.
    #[test]
    fn every_restart_recovers_the_same_regions() {
        let client = upstream();
        let (dir, before) = ingested_dir("serve_daemon_restarts", &REGIONS, &client);
        assert!(before.iter().any(|(.., spikes)| !spikes.is_empty()));
        for restart in 0..10 {
            let daemon = start(config(&REGIONS), &client, &dir).expect("restart");
            assert_eq!(served(&daemon), before, "restart {restart}");
            daemon.shutdown();
        }
    }

    /// With two regions holding another region's checkpoint, the error is
    /// the earlier one's in `cfg.regions` order, whichever thread failed
    /// first.
    #[test]
    fn the_first_foreign_checkpoint_in_region_order_is_reported() {
        let client = upstream();
        let (dir, _) = ingested_dir("serve_daemon_foreign", &REGIONS, &client);
        let ckpt = |r: State| dir.join(r.abbrev()).join("region.ckpt");
        std::fs::copy(ckpt(State::TX), ckpt(State::FL)).expect("copy");
        std::fs::copy(ckpt(State::CA), ckpt(State::WA)).expect("copy");
        let expected = ckpt(State::FL).display().to_string();
        for attempt in 0..20 {
            match start(config(&REGIONS), &client, &dir) {
                Ok(_) => panic!("a foreign checkpoint was accepted"),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    assert!(e.to_string().contains(&expected), "attempt {attempt}: {e}");
                }
            }
        }
    }

    /// The published checkpoint age is the oldest recovered, not the
    /// last region's in order nor the last thread's to finish.
    #[test]
    fn the_published_checkpoint_age_is_the_oldest() {
        let client = upstream();
        let pair = [State::TX, State::CA];
        let (dir, _) = ingested_dir("serve_daemon_ckpt_age", &pair, &client);
        for (r, secs) in [(State::TX, 100), (State::CA, 1_000)] {
            backdate(
                &dir.join(r.abbrev()).join("region.ckpt"),
                Duration::from_secs(secs),
            );
        }
        for order in [pair, [State::CA, State::TX]] {
            let cores = open_regions(&config(&order), &dir).expect("open");
            let oldest = publish_checkpoint_age(&cores).expect("recovered");
            assert!((1_000..1_060).contains(&oldest.as_secs()), "{oldest:?}");
        }
    }
}
