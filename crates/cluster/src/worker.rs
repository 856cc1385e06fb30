//! The worker role: lease shards, crawl them, upload outcomes.
//!
//! A worker is one OS thread (plus a heartbeat thread per active lease)
//! speaking the `/cluster/*` protocol to the coordinator and the
//! `/api/*` crawl protocol to the trends service. Each leased shard runs
//! through the public [`sift_core::run_region_study`] with a locally
//! computed [`sift_core::plan_frames`] plan — both deterministic
//! functions of the study parameters, which is the worker-side half of
//! the bit-identical guarantee. Nothing a worker fetches is kept past
//! the upload: the coordinator's WAL holds every accepted outcome.

use crate::proto::{
    HeartbeatReply, HeartbeatRequest, JoinReply, JoinRequest, LeaseReply, LeaseRequest,
    ResultReply, ResultUpload,
};
use sift_core::{plan_frames, run_region_study, StudyParams};
use sift_fetcher::HttpTrendsClient;
use sift_net::{ClientError, HttpClient, Request};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker tuning.
#[derive(Clone, Debug, Default)]
pub struct WorkerConfig {
    /// How long the worker keeps retrying (with full-jitter backoff)
    /// when the coordinator is unreachable before giving up — sized to
    /// span a coordinator crash-and-restart. Defaults to 5 s.
    pub coord_down_grace: Option<Duration>,
}

/// What a worker thread did, reported by [`WorkerHandle::join`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Shards whose results the coordinator accepted.
    pub shards_done: usize,
    /// Whether the worker exited via [`WorkerHandle::kill`].
    pub killed: bool,
}

/// A handle on a spawned worker thread.
pub struct WorkerHandle {
    id: String,
    stop: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<WorkerSummary>,
}

impl WorkerHandle {
    /// The worker's identity.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Simulates abrupt worker death: the thread stops cold at its next
    /// checkpoint — no release heartbeat, no result upload. The
    /// coordinator only learns of it by missed heartbeats.
    pub fn kill(&self) {
        self.kill.store(true, Ordering::SeqCst);
    }

    /// Requests a graceful stop: the worker exits after the shard it is
    /// crawling, leasing nothing further.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Waits for the worker thread to exit.
    pub fn join(self) -> WorkerSummary {
        self.thread
            .join()
            .unwrap_or_else(|_| WorkerSummary::default())
    }
}

/// Spawns a worker thread that joins the coordinator at `coord_addr`,
/// leases shards until the run completes, and crawls each shard against
/// the trends service at `trends_addr`.
///
/// `params` must equal the coordinator's study parameters — the frame
/// plan is recomputed locally from them, not shipped over the wire.
pub fn spawn_worker(
    id: impl Into<String>,
    coord_addr: SocketAddr,
    trends_addr: SocketAddr,
    params: StudyParams,
    config: WorkerConfig,
) -> WorkerHandle {
    let id = id.into();
    let stop = Arc::new(AtomicBool::new(false));
    let kill = Arc::new(AtomicBool::new(false));
    let thread = {
        let id = id.clone();
        let stop = Arc::clone(&stop);
        let kill = Arc::clone(&kill);
        std::thread::spawn(move || {
            run_worker(&id, coord_addr, trends_addr, &params, &config, &stop, &kill)
        })
    };
    WorkerHandle {
        id,
        stop,
        kill,
        thread,
    }
}

#[expect(clippy::disallowed_methods, reason = "the outage grace is host time")]
fn run_worker(
    id: &str,
    coord_addr: SocketAddr,
    trends_addr: SocketAddr,
    params: &StudyParams,
    config: &WorkerConfig,
    stop: &AtomicBool,
    kill: &Arc<AtomicBool>,
) -> WorkerSummary {
    let coord = HttpClient::new(coord_addr).with_identity(id.to_string());
    let mut summary = WorkerSummary::default();

    // Join, and reopen the coordinator's trace root so every span this
    // thread opens hangs off the run's single trace tree.
    let join: Result<JoinReply, _> = coord.post_json(
        "/cluster/join",
        &JoinRequest {
            worker: id.to_string(),
        },
    );
    let joined = join.ok();
    // Heartbeat cadence: the one the coordinator advertised at join
    // (derived from the same interval its death threshold is), else a
    // conservative default.
    let heartbeat_every = joined.as_ref().map_or(Duration::from_millis(100), |j| {
        Duration::from_millis(j.heartbeat_ms.max(1))
    });
    let trace = joined
        .and_then(|j| j.trace)
        .and_then(|h| sift_obs::SpanContext::from_header(&h));
    let _worker_span = match trace {
        Some(ctx) => sift_obs::span_in(ctx, "worker"),
        None => sift_obs::span_root("worker"),
    };

    // The worker id doubles as the source identity the crawl runs under.
    let client = HttpTrendsClient::new(trends_addr, id);
    let coord_down_grace = config.coord_down_grace.unwrap_or(Duration::from_secs(5));

    // The frame plan is a pure function of the study parameters, so
    // every worker (and the single-process driver) computes the same one.
    let plan = plan_frames(params.range, params.plan);

    // Consecutive lease failures: (first failure instant, attempt count).
    let mut outage: Option<(Instant, u32)> = None;
    loop {
        if kill.load(Ordering::SeqCst) {
            summary.killed = true;
            return summary;
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (reply, retry_after) = match lease_once(&coord, id) {
            Ok(ok) => ok,
            Err(_) => {
                // Coordinator unreachable — quite possibly restarting.
                // Back off with full jitter instead of hammering it the
                // moment it comes back, and only give up once the grace
                // window (sized to span a crash-and-restart) is spent.
                let (since, attempt) = match outage {
                    Some((since, attempt)) => (since, attempt.saturating_add(1)),
                    None => (Instant::now(), 1),
                };
                if since.elapsed() > coord_down_grace {
                    break;
                }
                outage = Some((since, attempt));
                sift_obs::counter("sift_cluster_worker_lease_retry_total", &[]).inc();
                sleep_watching(full_jitter_backoff(id, attempt), stop, kill);
                continue;
            }
        };
        outage = None;
        match reply {
            LeaseReply::Done => break,
            LeaseReply::Wait { poll_ms } => {
                let wait = match retry_after {
                    // An explicit `Retry-After` is the coordinator saying
                    // polling sooner cannot help (benched, or nothing
                    // pending anywhere): honour it over local preference.
                    Some(hint) => hint.clamp(Duration::from_millis(1), Duration::from_secs(2)),
                    None => Duration::from_millis(poll_ms.clamp(1, 250)),
                };
                sleep_watching(wait, stop, kill);
            }
            LeaseReply::Job(job) => {
                let done = run_shard(
                    id,
                    &coord,
                    coord_addr,
                    &client,
                    params,
                    &plan.frames,
                    job,
                    heartbeat_every,
                    kill,
                );
                if done {
                    summary.shards_done += 1;
                }
                if kill.load(Ordering::SeqCst) {
                    summary.killed = true;
                    return summary;
                }
            }
        }
    }
    summary
}

/// One lease request over the wire, surfacing the `Retry-After` header
/// alongside the decoded reply. `HttpClient::post_json` discards
/// response headers, so the hint needs the raw send path.
fn lease_once(
    coord: &HttpClient,
    worker: &str,
) -> Result<(LeaseReply, Option<Duration>), ClientError> {
    let req = Request::post_json(
        "/cluster/lease",
        &LeaseRequest {
            worker: worker.to_string(),
        },
    )
    .map_err(ClientError::Json)?;
    let resp = coord.send_with_retry(&req)?;
    let reply = resp.parse_json().map_err(ClientError::Json)?;
    Ok((reply, resp.retry_after()))
}

/// Full-jitter backoff for coordinator outages: uniform over
/// `(0, min(25 ms × 2^(attempt−1), 1 s)]`, drawn from a deterministic
/// hash of `(worker, attempt)` so a seeded nemesis schedule replays the
/// exact same waits.
fn full_jitter_backoff(worker: &str, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(6);
    let ceiling_ms = (25u64 << exp).min(1_000);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in worker.bytes().chain(*b"CBKF") {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= u64::from(attempt);
    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    Duration::from_millis(hash % ceiling_ms + 1)
}

/// Sleeps up to `total`, waking early on stop or kill so a backing-off
/// worker still dies (or exits) promptly.
#[expect(clippy::disallowed_methods, reason = "backoff is host time")]
fn sleep_watching(total: Duration, stop: &AtomicBool, kill: &AtomicBool) {
    let deadline = Instant::now() + total;
    loop {
        if stop.load(Ordering::SeqCst) || kill.load(Ordering::SeqCst) {
            return;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(10)));
    }
}

/// Crawls one leased shard; returns whether its result was accepted.
#[expect(
    clippy::too_many_arguments,
    reason = "called once, from the lease loop, which owns every input"
)]
#[expect(clippy::disallowed_methods, reason = "heartbeats are host time")]
fn run_shard(
    id: &str,
    coord: &HttpClient,
    coord_addr: SocketAddr,
    client: &HttpTrendsClient,
    params: &StudyParams,
    frames: &[sift_simtime::HourRange],
    job: crate::proto::ShardJob,
    heartbeat_every: Duration,
    kill: &Arc<AtomicBool>,
) -> bool {
    // The heartbeat thread renews the lease while the crawl runs. It
    // uses its own connection so a long fetch cannot starve renewals,
    // and it watches the kill flag so a killed worker goes silent
    // immediately — even while the crawl thread is still mid-fetch —
    // which is what lets the coordinator detect the death mid-run.
    let hb_stop = Arc::new(AtomicBool::new(false));
    let lost = Arc::new(AtomicBool::new(false));
    let hb_thread = {
        let hb_stop = Arc::clone(&hb_stop);
        let lost = Arc::clone(&lost);
        let kill = Arc::clone(kill);
        let worker = id.to_string();
        let every = heartbeat_every;
        let ctx = sift_obs::SpanContext::current();
        std::thread::spawn(move || {
            let hb = HttpClient::new(coord_addr).with_identity(worker.clone());
            let _span = ctx.map(|c| sift_obs::span_in(c, "heartbeat"));
            while !hb_stop.load(Ordering::SeqCst) && !kill.load(Ordering::SeqCst) {
                std::thread::sleep(every);
                if hb_stop.load(Ordering::SeqCst) || kill.load(Ordering::SeqCst) {
                    break;
                }
                let reply: Result<HeartbeatReply, _> = hb.post_json(
                    "/cluster/heartbeat",
                    &HeartbeatRequest {
                        worker: worker.clone(),
                        state: job.state,
                        epoch: job.epoch,
                        releasing: false,
                    },
                );
                if let Ok(HeartbeatReply { keep: false }) = reply {
                    // Lease revoked: flag the crawl as wasted work.
                    lost.store(true, Ordering::SeqCst);
                    break;
                }
            }
        })
    };

    let outcome = {
        let _span = sift_obs::span("region");
        run_region_study(client, params, frames, job.state, None)
    };

    hb_stop.store(true, Ordering::SeqCst);
    #[expect(clippy::let_underscore_must_use, reason = "lease expiry reroutes")]
    let _ = hb_thread.join();

    if kill.load(Ordering::SeqCst) {
        // Died mid-shard: say nothing, upload nothing. The coordinator
        // finds out the hard way, via the missed heartbeat deadline.
        return false;
    }

    match outcome {
        Ok(outcome) if !lost.load(Ordering::SeqCst) => {
            let reply: Result<ResultReply, _> = coord.post_json(
                "/cluster/result",
                &ResultUpload {
                    worker: id.to_string(),
                    epoch: job.epoch,
                    outcome,
                },
            );
            matches!(reply, Ok(ResultReply { accepted: true }))
        }
        Ok(_) => false,
        Err(_) => {
            // Hand the shard back so another attempt can start now
            // rather than after the heartbeat timeout.
            #[expect(clippy::let_underscore_must_use, reason = "expiry reroutes it anyway")]
            let _: Result<HeartbeatReply, _> = coord.post_json(
                "/cluster/heartbeat",
                &HeartbeatRequest {
                    worker: id.to_string(),
                    state: job.state,
                    epoch: job.epoch,
                    releasing: true,
                },
            );
            false
        }
    }
}
