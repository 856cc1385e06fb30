//! The crawl coordinator: shard table, leases, heartbeats, reroutes.
//!
//! One [`Coordinator`] owns one study: it partitions `params.regions`
//! into shards, hands the first pending shard to whichever live worker
//! asks next (workers pull; see [`Coordinator::lease_at`]), and tracks
//! progress through lease epochs. A worker that misses its heartbeat
//! deadline is declared dead and benched; its shards go back to pending
//! for the survivors to pull, and an attempt budget bounds how often a
//! shard may bounce before the run is declared failed — the same
//! bounce-then-shed shape the fetcher queue applies to individual
//! requests.
//!
//! A coordinator ([`Coordinator::durable`]) journals every control-state
//! transition through `sift-journal` before acknowledging it (see
//! [`crate::recovery`]): kill the process at any point and a restart
//! replays the WAL, bumps the fencing epoch past everything it ever
//! granted, and resumes the run without re-crawling accepted shards.
//!
//! Once every shard has an accepted [`RegionOutcome`], the coordinator
//! folds them through [`sift_core::assemble_study`] — the *same* global
//! phase the in-process driver runs — which is what makes the sharded
//! result bit-identical to single-process [`sift_core::run_study`].

use crate::proto::{
    HeartbeatReply, HeartbeatRequest, JoinReply, JoinRequest, LeaseReply, LeaseRequest,
    ResultReply, ResultUpload, ShardJob, StatusReply,
};
use crate::recovery::{outcome_digest, CoordDurability, CoordRecord, CoordRecovery, CoordTable};
use parking_lot::Mutex;
use sift_core::{assemble_study, RegionOutcome, StudyParams, StudyResult};
use sift_geo::State;
use sift_net::{Method, Request, Response, Router, StatusCode};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a shard was taken from its worker and rerouted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RerouteReason {
    /// The lease holder missed its heartbeat deadline — the worker is
    /// presumed dead and benched for the rest of the run.
    HeartbeatMissed,
    /// The holder handed the lease back voluntarily (graceful shutdown or
    /// a failed crawl attempt it could not complete).
    WorkerLeft,
}

impl RerouteReason {
    /// Every reason, in declaration order.
    pub const ALL: [RerouteReason; 2] = [RerouteReason::HeartbeatMissed, RerouteReason::WorkerLeft];

    /// The metric label this reason is counted under in
    /// `sift_cluster_reroute_total{reason=…}`.
    pub fn label(self) -> &'static str {
        match self {
            RerouteReason::HeartbeatMissed => "heartbeat_missed",
            RerouteReason::WorkerLeft => "worker_left",
        }
    }
}

impl std::fmt::Display for RerouteReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

fn count_reroute(reason: RerouteReason) {
    sift_obs::counter("sift_cluster_reroute_total", &[("reason", reason.label())]).inc();
}

/// Coordinator tuning.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// The heartbeat cadence workers are asked to beat at (advertised in
    /// the join reply, so both sides share one number).
    pub heartbeat_interval: Duration,
    /// Missed beats before a lease holder is declared dead. The death
    /// timeout is *derived* — [`ClusterConfig::heartbeat_timeout`] =
    /// interval × threshold — so the cadence and the tolerance can never
    /// silently disagree the way two hardcoded constants could.
    pub miss_threshold: u32,
    /// The wait hint handed to workers with nothing to do.
    pub poll_ms: u64,
    /// Times a shard may be (re)issued before the run fails. Mirrors the
    /// fetcher queue's per-item attempt budget.
    pub attempt_budget: u32,
}

impl ClusterConfig {
    /// The lease expiry window: a lease not renewed within
    /// `heartbeat_interval × miss_threshold` is expired and its worker
    /// declared dead.
    pub fn heartbeat_timeout(&self) -> Duration {
        self.heartbeat_interval
            .saturating_mul(self.miss_threshold.max(1))
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(250),
            miss_threshold: 4,
            poll_ms: 25,
            attempt_budget: 3,
        }
    }
}

/// How a sharded run can fail.
#[derive(Debug)]
pub enum ClusterError {
    /// Not every shard completed within the caller's wait budget.
    Timeout {
        /// Shards with an accepted result.
        done: usize,
        /// Total shards.
        total: usize,
    },
    /// A shard exhausted its attempt budget.
    ShardFailed {
        /// The region that could not be completed.
        state: State,
        /// Lease attempts consumed.
        attempts: u32,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Timeout { done, total } => {
                write!(f, "cluster run timed out with {done}/{total} shards done")
            }
            ClusterError::ShardFailed { state, attempts } => {
                write!(f, "shard {state} failed after {attempts} lease attempts")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A live lease: a promise about one worker's heartbeat stream. Held
/// beside the durable table, never in it — it does not survive the
/// coordinator process.
struct Lease {
    worker: String,
    epoch: u64,
    hb_deadline_ms: u64,
}

struct CoordState {
    /// The durable state. Changed only through [`CoordState::commit`] and
    /// [`CoordState::record`], i.e. only by [`CoordTable::apply`] (the one
    /// exception is the epoch burned in [`Coordinator::lease_at`]).
    table: CoordTable,
    /// Live leases, one slot per shard in `table.shards` order.
    leases: Vec<Option<Lease>>,
    /// The WAL. Living inside the state mutex means journal order
    /// provably equals apply order.
    durability: CoordDurability,
}

impl CoordState {
    /// WAL before acknowledgement: applies `rec` only once it is durable.
    /// Returns `false`, with the table untouched, when it could not be
    /// made durable — the caller must then withhold the acknowledgement.
    fn commit(&mut self, rec: CoordRecord) -> bool {
        let durable = self.log(&rec);
        if durable {
            self.table.apply(rec);
        }
        durable
    }

    /// For transitions that acknowledge nothing to a worker (`Joined`,
    /// `Expired`): a failed append is survivable — a recovered
    /// coordinator re-learns the worker from its first lease and the
    /// death from a missed heartbeat deadline — so apply regardless.
    fn record(&mut self, rec: CoordRecord) {
        self.log(&rec);
        self.table.apply(rec);
    }

    /// Appends `rec`; `false` when the append failed.
    fn log(&mut self, rec: &CoordRecord) -> bool {
        match self.durability.append(rec) {
            Ok(()) => true,
            Err(_) => {
                sift_obs::counter("sift_cluster_wal_errors_total", &[]).inc();
                false
            }
        }
    }

    /// Neither done, failed nor leased.
    fn is_pending(&self, idx: usize) -> bool {
        let sh = &self.table.shards[idx];
        sh.done.is_none() && !sh.failed && self.leases[idx].is_none()
    }

    /// The shard `worker` holds a live lease on under `epoch`, if any.
    fn held_by(&self, state: State, worker: &str, epoch: u64) -> Option<usize> {
        let idx = self.table.shards.iter().position(|sh| sh.state == state)?;
        let lease = self.leases[idx].as_ref()?;
        (lease.worker == worker && lease.epoch == epoch).then_some(idx)
    }

    fn admit(&mut self, worker: &str) {
        if !self.table.workers.iter().any(|w| w == worker) {
            self.record(CoordRecord::Joined {
                worker: worker.to_owned(),
            });
        }
    }
}

/// The coordinator role: owns the shard table for one study.
pub struct Coordinator {
    params: StudyParams,
    config: ClusterConfig,
    /// Monotonic clock anchor; all protocol timing is milliseconds since
    /// this instant, never wall-clock time-of-day. Every decision takes
    /// that number as an argument (the `*_at` methods), so only the thin
    /// public wrappers read the clock.
    epoch: Instant,
    /// The trace context workers parent their spans onto, as its
    /// `X-Sift-Trace` header.
    trace_root: Option<String>,
    inner: Mutex<CoordState>,
}

impl Coordinator {
    /// A crash-recoverable coordinator for `params`, one shard per
    /// region, whose control state lives under `dir`. A fresh directory
    /// starts a fresh run; a directory holding a prior coordinator's WAL
    /// *recovers* it: the shard table is folded back from the records,
    /// in-flight leases revert to pending, the fencing epoch is bumped
    /// strictly past every epoch the previous incarnation granted, and
    /// already-accepted outcomes are restored so their shards are never
    /// re-crawled. The span active at construction time (if any) becomes
    /// the run's trace root, propagated to workers at join.
    #[expect(clippy::disallowed_methods, reason = "leases time real processes")]
    pub fn durable(
        params: StudyParams,
        config: ClusterConfig,
        dir: &Path,
    ) -> io::Result<(Coordinator, CoordRecovery)> {
        let (mut durability, mut table, recovery) = CoordDurability::open(dir, &params.regions)?;
        if recovery.had_state {
            // Durable before the first new acknowledgement, like any
            // other transition: record, then apply.
            let rec = CoordRecord::Recovered {
                next_epoch: table.next_epoch.saturating_add(1),
            };
            durability.append(&rec)?;
            table.apply(rec);
            sift_obs::counter("sift_cluster_coord_recoveries_total", &[]).inc();
            sift_obs::counter("sift_cluster_epoch_bumps_total", &[]).inc();
        }
        let pending = table
            .shards
            .iter()
            .filter(|sh| sh.done.is_none() && !sh.failed)
            .count();
        sift_obs::gauge("sift_cluster_shards_pending", &[])
            .set(i64::try_from(pending).unwrap_or(i64::MAX));
        let coord = Coordinator {
            params,
            config,
            epoch: Instant::now(),
            trace_root: sift_obs::SpanContext::current().map(|c| c.to_header()),
            inner: Mutex::new(CoordState {
                leases: table.shards.iter().map(|_| None).collect(),
                table,
                durability,
            }),
        };
        Ok((coord, recovery))
    }

    /// The study parameters this run shards over.
    pub fn params(&self) -> &StudyParams {
        &self.params
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn timeout_ms(&self) -> u64 {
        u64::try_from(self.config.heartbeat_timeout().as_millis()).unwrap_or(u64::MAX)
    }

    /// The `Retry-After` hint (whole seconds) for a worker with nothing
    /// leasable: roughly one death-detection window, when new work could
    /// plausibly exist.
    fn retry_after_secs(&self) -> u64 {
        self.timeout_ms().div_ceil(1000).clamp(1, 5)
    }

    /// Expires stale leases: holders past their heartbeat deadline are
    /// declared dead and their shards rerouted (or failed once the
    /// attempt budget is spent). Called from every protocol handler and
    /// from the wait loop, so detection does not depend on traffic from
    /// the dead worker itself.
    fn expire(&self, s: &mut CoordState, now_ms: u64) {
        for idx in 0..s.leases.len() {
            let Some(lease) = s.leases[idx].take_if(|l| now_ms > l.hb_deadline_ms) else {
                continue;
            };
            let shard = &s.table.shards[idx];
            let state = shard.state;
            let failed = shard.attempts.saturating_add(1) >= self.config.attempt_budget;
            if failed {
                sift_obs::counter("sift_cluster_shards_failed_total", &[]).inc();
            }
            count_reroute(RerouteReason::HeartbeatMissed);
            s.record(CoordRecord::Expired {
                state,
                worker: lease.worker,
                epoch: lease.epoch,
                failed,
            });
        }
    }

    fn join(&self, req: &JoinRequest) -> JoinReply {
        let mut s = self.inner.lock();
        s.admit(&req.worker);
        sift_obs::gauge("sift_cluster_workers", &[])
            .set(i64::try_from(s.table.workers.len()).unwrap_or(i64::MAX));
        JoinReply {
            accepted: !s.table.dead.contains(&req.worker),
            trace: self.trace_root.clone(),
            shards: s.table.shards.len(),
            heartbeat_ms: u64::try_from(self.config.heartbeat_interval.as_millis())
                .unwrap_or(u64::MAX),
        }
    }

    fn lease(&self, req: &LeaseRequest) -> (LeaseReply, Option<u64>) {
        self.lease_at(self.now_ms(), req)
    }

    /// Grants a lease, or explains the wait. Placement is pull: the first
    /// pending shard goes to whichever live, un-benched worker asks, so a
    /// requester waits only when nothing is pending. The second component
    /// is a `Retry-After` hint in seconds, set when polling sooner cannot
    /// help: the requester is benched, or no shard is pending at all.
    fn lease_at(&self, now_ms: u64, req: &LeaseRequest) -> (LeaseReply, Option<u64>) {
        let mut s = self.inner.lock();
        self.expire(&mut s, now_ms);
        // Tolerate a lease before (or instead of) an explicit join.
        s.admit(&req.worker);
        let shards = &s.table.shards;
        if shards.iter().all(|sh| sh.done.is_some() || sh.failed) {
            return (LeaseReply::Done, None);
        }
        let wait = LeaseReply::Wait {
            poll_ms: self.config.poll_ms,
        };
        if s.table.dead.contains(&req.worker) {
            // Benched: a presumed-dead worker gets no new work; its old
            // epochs are already fenced off. Nothing will change for it
            // before the next death-detection window.
            return (wait, Some(self.retry_after_secs()));
        }
        let Some(idx) = (0..shards.len()).find(|&i| s.is_pending(i)) else {
            // Every unfinished shard is leased: only an expiry or a
            // release can create work; hint a long poll.
            return (wait, Some(self.retry_after_secs()));
        };
        let job = ShardJob {
            state: shards[idx].state,
            epoch: s.table.next_epoch,
        };
        // WAL before acknowledgement: the epoch may reach the worker only
        // once the grant is durable.
        let granted = s.commit(CoordRecord::Leased {
            state: job.state,
            worker: req.worker.clone(),
            epoch: job.epoch,
        });
        if !granted {
            // The shard stays pending, and the epoch is burned: the
            // record may have reached the disk even though the append
            // reported failure, and burning a number is safe where
            // reusing one is not. The one durable-field write outside
            // `CoordTable::apply`.
            s.table.next_epoch = job.epoch.saturating_add(1);
            return (wait, None);
        }
        s.leases[idx] = Some(Lease {
            worker: req.worker.clone(),
            epoch: job.epoch,
            hb_deadline_ms: now_ms.saturating_add(self.timeout_ms()),
        });
        sift_obs::counter("sift_cluster_lease_total", &[]).inc();
        (LeaseReply::Job(job), None)
    }

    fn heartbeat(&self, req: &HeartbeatRequest) -> HeartbeatReply {
        self.heartbeat_at(self.now_ms(), req)
    }

    fn heartbeat_at(&self, now_ms: u64, req: &HeartbeatRequest) -> HeartbeatReply {
        let mut s = self.inner.lock();
        self.expire(&mut s, now_ms);
        sift_obs::counter("sift_cluster_heartbeat_total", &[]).inc();
        let Some(idx) = s.held_by(req.state, &req.worker, req.epoch) else {
            return HeartbeatReply { keep: false };
        };
        if !req.releasing {
            if let Some(lease) = s.leases[idx].as_mut() {
                lease.hb_deadline_ms = now_ms.saturating_add(self.timeout_ms());
            }
            return HeartbeatReply { keep: true };
        }
        // Voluntary handback: reroute immediately, and — unlike an expiry
        // — without burning an attempt or benching the worker. If the
        // release cannot be journaled the lease simply stands until its
        // heartbeat deadline expires it.
        let released = s.commit(CoordRecord::Released {
            state: req.state,
            epoch: req.epoch,
        });
        if released {
            s.leases[idx] = None;
            count_reroute(RerouteReason::WorkerLeft);
        }
        HeartbeatReply { keep: false }
    }

    fn result(&self, up: ResultUpload) -> ResultReply {
        self.result_at(self.now_ms(), up)
    }

    fn result_at(&self, now_ms: u64, up: ResultUpload) -> ResultReply {
        let mut s = self.inner.lock();
        self.expire(&mut s, now_ms);
        let state = up.outcome.state;
        // Epoch fencing: only the current holder's upload counts. A
        // zombie that lost its lease (and whose shard was re-issued
        // under a newer epoch) is rejected here even if it finished.
        let mut accepted = false;
        if let Some(idx) = s.held_by(state, &up.worker, up.epoch) {
            // WAL before acknowledgement: the outcome (and its digest)
            // must be durable before the worker is told "accepted" and
            // stops heartbeating — otherwise a crash here would lose the
            // shard with nobody left responsible for it.
            accepted = s.commit(CoordRecord::Done {
                state,
                worker: up.worker,
                epoch: up.epoch,
                digest: outcome_digest(&up.outcome),
                outcome: Box::new(up.outcome),
            });
            if accepted {
                s.leases[idx] = None;
            }
        }
        sift_obs::counter(
            "sift_cluster_result_total",
            &[("accepted", bool_label(accepted))],
        )
        .inc();
        let done = s.table.shards.iter().filter(|sh| sh.done.is_some()).count();
        sift_obs::gauge("sift_cluster_shards_done", &[])
            .set(i64::try_from(done).unwrap_or(i64::MAX));
        ResultReply { accepted }
    }

    /// A progress snapshot (the `GET /cluster/status` payload).
    pub fn status(&self) -> StatusReply {
        self.status_at(self.now_ms())
    }

    fn status_at(&self, now_ms: u64) -> StatusReply {
        let mut s = self.inner.lock();
        self.expire(&mut s, now_ms);
        let table = &s.table;
        let mut reply = StatusReply {
            total: table.shards.len(),
            rerouted: table.rerouted,
            epoch: table.next_epoch,
            recoveries: table.recoveries,
            workers: table.workers.clone(),
            dead: table.dead.iter().cloned().collect(),
            ..StatusReply::default()
        };
        for (sh, lease) in table.shards.iter().zip(&s.leases) {
            reply.shard_attempts.push((sh.state, sh.grants));
            if sh.done.is_some() {
                reply.done += 1;
                reply.done_states.push(sh.state);
            } else if sh.failed {
                reply.failed += 1;
            } else if let Some(lease) = lease {
                reply.leases.push((lease.worker.clone(), sh.state));
            }
        }
        reply
    }

    /// Blocks until every shard has an accepted outcome, then assembles
    /// the final [`StudyResult`] exactly as single-process
    /// [`sift_core::run_study`] would. The wait loop also drives lease
    /// expiry, so worker death is detected even with no surviving
    /// protocol traffic.
    #[expect(clippy::disallowed_methods, reason = "polls real worker processes")]
    pub fn wait_result(&self, timeout: Duration) -> Result<StudyResult, ClusterError> {
        let deadline_ms = self
            .now_ms()
            .saturating_add(u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX));
        loop {
            if let Some(outcomes) = self.poll_at(self.now_ms(), deadline_ms)? {
                // The table covers the global phase alone: worker spans
                // join by header, which carries no tally.
                let assemble = sift_obs::span_tallied("assemble");
                let mut result = assemble_study(&self.params, outcomes, false);
                result.stats.telemetry = assemble.stages();
                return Ok(result);
            }
            std::thread::sleep(Duration::from_millis(self.config.poll_ms.clamp(1, 100)));
        }
    }

    /// One turn of the wait loop: the accepted outcomes once every shard
    /// has one (cloned out then, and only then), `None` while the run is
    /// still going, an error once a shard failed or `deadline_ms` passed.
    fn poll_at(
        &self,
        now_ms: u64,
        deadline_ms: u64,
    ) -> Result<Option<Vec<RegionOutcome>>, ClusterError> {
        let mut s = self.inner.lock();
        self.expire(&mut s, now_ms);
        let shards = &s.table.shards;
        if let Some(sh) = shards.iter().find(|sh| sh.failed) {
            return Err(ClusterError::ShardFailed {
                state: sh.state,
                attempts: sh.attempts,
            });
        }
        let done = shards.iter().filter(|sh| sh.done.is_some()).count();
        if done == shards.len() {
            let outcomes = shards.iter().filter_map(|sh| sh.done.as_ref());
            return Ok(Some(outcomes.map(|(_, o)| (**o).clone()).collect()));
        }
        if now_ms >= deadline_ms {
            return Err(ClusterError::Timeout {
                done,
                total: shards.len(),
            });
        }
        Ok(None)
    }
}

fn bool_label(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// The coordinator's HTTP surface: the five `/cluster/*` routes plus the
/// standard observability mounts. Serve it with [`sift_net::Server`].
pub fn cluster_router(coord: &Arc<Coordinator>) -> Router {
    let join_c = Arc::clone(coord);
    let lease_c = Arc::clone(coord);
    let hb_c = Arc::clone(coord);
    let result_c = Arc::clone(coord);
    let status_c = Arc::clone(coord);

    sift_net::mount_observability(Router::new())
        .route(Method::Post, "/cluster/join", move |req: &Request| {
            sift_obs::counter("sift_cluster_join_total", &[]).inc();
            match req.json::<JoinRequest>() {
                Ok(body) => json_reply(&join_c.join(&body)),
                Err(e) => Response::text(StatusCode::BAD_REQUEST, format!("bad join: {e}")),
            }
        })
        .route(
            Method::Post,
            "/cluster/lease",
            move |req: &Request| match req.json::<LeaseRequest>() {
                Ok(body) => {
                    let (reply, retry_after) = lease_c.lease(&body);
                    let mut resp = json_reply(&reply);
                    if let Some(secs) = retry_after {
                        resp.headers.set("retry-after", secs.to_string());
                    }
                    resp
                }
                Err(e) => Response::text(StatusCode::BAD_REQUEST, format!("bad lease: {e}")),
            },
        )
        .route(
            Method::Post,
            "/cluster/heartbeat",
            move |req: &Request| match req.json::<HeartbeatRequest>() {
                Ok(body) => json_reply(&hb_c.heartbeat(&body)),
                Err(e) => Response::text(StatusCode::BAD_REQUEST, format!("bad heartbeat: {e}")),
            },
        )
        .route(
            Method::Post,
            "/cluster/result",
            move |req: &Request| match req.json::<ResultUpload>() {
                Ok(body) => json_reply(&result_c.result(body)),
                Err(e) => Response::text(StatusCode::BAD_REQUEST, format!("bad result: {e}")),
            },
        )
        .route(Method::Get, "/cluster/status", move |_req: &Request| {
            sift_obs::counter("sift_cluster_status_total", &[]).inc();
            json_reply(&status_c.status())
        })
}

fn json_reply<T: serde::Serialize>(value: &T) -> Response {
    Response::json(value)
        .unwrap_or_else(|e| Response::text(StatusCode::INTERNAL_SERVER_ERROR, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_core::Timeline;
    use sift_journal::testutil::{scratch_dir, ScratchDir};
    use sift_simtime::{Hour, HourRange};
    use std::collections::HashSet;

    fn params(regions: Vec<State>) -> StudyParams {
        StudyParams {
            range: HourRange::new(Hour(0), Hour(336)),
            regions,
            ..StudyParams::default()
        }
    }

    /// 25 ms beats × 2 misses: a lease granted or renewed at `t` stands
    /// through `t + 50` and is expired by any call made after that. The
    /// tests below pass `t` by hand; nothing here sleeps.
    fn config() -> ClusterConfig {
        ClusterConfig {
            heartbeat_interval: Duration::from_millis(25),
            miss_threshold: 2,
            poll_ms: 5,
            attempt_budget: 3,
        }
    }

    /// A fresh coordinator for `regions` in its own scratch directory
    /// (held for as long as the coordinator is used).
    fn fresh(regions: Vec<State>, config: ClusterConfig) -> (ScratchDir, Coordinator) {
        let dir = scratch_dir("coord");
        let (c, rec) = Coordinator::durable(params(regions), config, &dir).expect("durable");
        assert!(!rec.had_state);
        (dir, c)
    }

    fn lease_at(c: &Coordinator, now_ms: u64, worker: &str) -> (LeaseReply, Option<u64>) {
        c.lease_at(
            now_ms,
            &LeaseRequest {
                worker: worker.into(),
            },
        )
    }

    fn job_at(c: &Coordinator, now_ms: u64, worker: &str) -> ShardJob {
        match lease_at(c, now_ms, worker).0 {
            LeaseReply::Job(job) => job,
            other => panic!("expected a job for {worker} at {now_ms} ms, got {other:?}"),
        }
    }

    fn beat_at(c: &Coordinator, now_ms: u64, worker: &str, job: ShardJob, releasing: bool) -> bool {
        c.heartbeat_at(
            now_ms,
            &HeartbeatRequest {
                worker: worker.into(),
                state: job.state,
                epoch: job.epoch,
                releasing,
            },
        )
        .keep
    }

    fn upload(worker: &str, job: ShardJob) -> ResultUpload {
        ResultUpload {
            worker: worker.into(),
            epoch: job.epoch,
            outcome: RegionOutcome {
                state: job.state,
                timeline: Timeline {
                    state: job.state,
                    start: Hour(0),
                    values: vec![1.0, 2.0, 3.0],
                },
                rounds: 1,
                converged: true,
                frames_requested: 3,
                frames_degraded: 0,
                coverage: 1.0,
                resumed_from_round: 0,
                frames_replayed: 0,
                rising_requested: 0,
                spikes: Vec::new(),
            },
        }
    }

    #[test]
    fn reroute_reason_labels_cover_every_variant() {
        let labels: Vec<_> = RerouteReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, ["heartbeat_missed", "worker_left"]);
    }

    #[test]
    fn heartbeat_timeout_derives_from_interval_and_threshold() {
        let cfg = config();
        assert_eq!(cfg.heartbeat_timeout(), Duration::from_millis(50));
        let degenerate = ClusterConfig {
            miss_threshold: 0,
            ..config()
        };
        assert_eq!(
            degenerate.heartbeat_timeout(),
            degenerate.heartbeat_interval,
            "a zero threshold still tolerates one full interval"
        );
    }

    #[test]
    fn epochs_are_unique_and_a_dead_workers_shard_goes_to_a_survivor() {
        let (_dir, c) = fresh(vec![State::CA, State::TX, State::NY], config());
        let jobs: Vec<ShardJob> = (0..3).map(|_| job_at(&c, 0, "w0")).collect();
        assert!(matches!(lease_at(&c, 0, "w0").0, LeaseReply::Wait { .. }));
        // w0 goes silent; whoever asks next takes its shards over.
        let rejobs: Vec<ShardJob> = (0..3).map(|_| job_at(&c, 51, "w1")).collect();
        let states = |jobs: &[ShardJob]| jobs.iter().map(|j| j.state).collect::<Vec<_>>();
        assert_eq!(states(&rejobs), states(&jobs));
        let epochs: HashSet<u64> = jobs.iter().chain(&rejobs).map(|j| j.epoch).collect();
        assert_eq!(epochs.len(), 6, "every lease gets a fresh epoch");
    }

    /// Placement is pull: with k shards pending and two live workers
    /// asking in every one of the 2^k orders, each request is granted
    /// until nothing is pending — no requester is told to wait while a
    /// peer works through a tail reserved for it.
    #[test]
    fn every_lease_request_is_granted_until_nothing_is_pending() {
        let regions = vec![State::CA, State::TX, State::NY, State::FL, State::WA];
        let k = regions.len();
        for order in 0u32..1 << k {
            let (_dir, c) = fresh(regions.clone(), config());
            for worker in ["w0", "w1"] {
                c.join(&JoinRequest {
                    worker: worker.into(),
                });
            }
            let jobs: Vec<ShardJob> = (0..k)
                .map(|i| job_at(&c, 0, if order >> i & 1 == 0 { "w0" } else { "w1" }))
                .collect();
            let states: HashSet<State> = jobs.iter().map(|j| j.state).collect();
            assert_eq!(states.len(), k, "order {order:#b}: a shard granted twice");
            let epochs: HashSet<u64> = jobs.iter().map(|j| j.epoch).collect();
            assert_eq!(epochs.len(), k, "order {order:#b}: an epoch reused");
            for worker in ["w0", "w1"] {
                let (reply, hint) = lease_at(&c, 0, worker);
                assert!(matches!(reply, LeaseReply::Wait { .. }), "{reply:?}");
                assert_eq!(hint, Some(1), "nothing pending: long-poll hint");
            }
        }
        // A benched worker is the one requester refused while shards are
        // pending: w0 went silent on CA, so at 51 ms all k are pending.
        let (_dir, c) = fresh(regions, config());
        job_at(&c, 0, "w0");
        let (reply, hint) = lease_at(&c, 51, "w0");
        assert!(matches!(reply, LeaseReply::Wait { .. }), "{reply:?}");
        assert_eq!(hint, Some(1));
        for _ in 0..k {
            job_at(&c, 51, "w1");
        }
    }

    #[test]
    fn missed_heartbeats_reroute_to_survivors_with_fencing() {
        // Process-global: compare deltas, other tests reroute too.
        let reroutes = || {
            let reason = RerouteReason::HeartbeatMissed.label();
            sift_obs::counter("sift_cluster_reroute_total", &[("reason", reason)]).get()
        };
        let reroutes_before = reroutes();
        let (_dir, c) = fresh(vec![State::CA], config());
        c.join(&JoinRequest {
            worker: "w0".into(),
        });
        c.join(&JoinRequest {
            worker: "w1".into(),
        });
        let (holder, other) = ("w0", "w1");
        let job = job_at(&c, 0, holder);
        // Heartbeats renew the lease: beaten at 30, it stands at 80 —
        // past the original deadline of 50...
        assert!(beat_at(&c, 30, holder, job, false));
        assert_eq!(c.status_at(80).leases.len(), 1);
        // ...until the holder goes silent past the timeout.
        let status = c.status_at(81);
        assert_eq!(status.rerouted, 1, "{status:?}");
        assert!(reroutes() > reroutes_before);
        assert_eq!(status.dead, vec![holder.to_string()]);
        // The survivor takes the shard over.
        let rejob = job_at(&c, 81, other);
        assert_eq!(rejob.state, job.state);
        assert!(rejob.epoch > job.epoch, "reroute issues a fresh epoch");
        // The dead worker is benched and its stale epoch fenced off.
        assert!(matches!(
            lease_at(&c, 81, holder).0,
            LeaseReply::Wait { .. }
        ));
        assert!(!beat_at(&c, 81, holder, job, false));
        assert!(!c.result_at(81, upload(holder, job)).accepted);
    }

    #[test]
    fn attempt_budget_fails_the_shard_eventually() {
        let mut cfg = config();
        cfg.attempt_budget = 2;
        let (_dir, c) = fresh(vec![State::CA], cfg);
        // Each holder goes silent; the next worker asks 51 ms later.
        job_at(&c, 0, "w0");
        job_at(&c, 51, "w1");
        let (reply, _) = lease_at(&c, 102, "w2");
        assert!(
            matches!(reply, LeaseReply::Done),
            "two expiries spend a budget of two; nothing is left to lease: {reply:?}"
        );
        let err = c.poll_at(102, u64::MAX).unwrap_err();
        assert!(
            matches!(
                err,
                ClusterError::ShardFailed {
                    state: State::CA,
                    attempts: 2,
                }
            ),
            "{err}"
        );
        assert_eq!(c.status_at(102).failed, 1);
    }

    #[test]
    fn voluntary_release_reroutes_without_benching() {
        let (_dir, c) = fresh(vec![State::CA], config());
        let job = job_at(&c, 0, "w0");
        assert!(!beat_at(&c, 0, "w0", job, true));
        let status = c.status_at(0);
        assert_eq!(status.rerouted, 1);
        assert!(status.dead.is_empty(), "a graceful release is not a death");
        // The same worker may take the shard right back.
        job_at(&c, 0, "w0");
    }

    #[test]
    fn benched_worker_and_empty_table_get_a_retry_after_hint() {
        let (_dir, c) = fresh(vec![State::CA], config());
        job_at(&c, 0, "w0");
        // Another worker with nothing pending: long-poll hint.
        let (reply, hint) = lease_at(&c, 0, "w1");
        assert!(matches!(reply, LeaseReply::Wait { .. }));
        assert_eq!(hint, Some(1), "no pending shard anywhere");
        // Bench w0 by letting its lease expire.
        let (reply, hint) = lease_at(&c, 51, "w0");
        assert!(matches!(reply, LeaseReply::Wait { .. }));
        assert_eq!(hint, Some(1), "benched workers are told to back off");
        // The survivor's re-lease carries no hint: it got a job.
        let (reply, hint) = lease_at(&c, 51, "w1");
        assert!(matches!(reply, LeaseReply::Job(_)));
        assert_eq!(hint, None);
    }

    #[test]
    fn status_reports_epoch_recoveries_and_per_shard_grants() {
        let (_dir, c) = fresh(vec![State::CA, State::TX], config());
        job_at(&c, 0, "w0");
        job_at(&c, 0, "w0");
        let status = c.status_at(0);
        assert_eq!(status.epoch, 2, "two grants consumed two epochs");
        assert_eq!(status.recoveries, 0);
        assert_eq!(
            status.shard_attempts,
            vec![(State::CA, 1), (State::TX, 1)],
            "{status:?}"
        );
        assert!(status.done_states.is_empty());
    }

    #[test]
    fn poll_yields_outcomes_once_complete_and_a_count_on_timeout() {
        let (_dir, c) = fresh(vec![State::CA, State::TX], config());
        for _ in 0..2 {
            assert!(matches!(c.poll_at(0, u64::MAX), Ok(None)));
            let job = job_at(&c, 0, "w0");
            assert!(c.result_at(0, upload("w0", job)).accepted);
        }
        let outcomes = c.poll_at(0, u64::MAX).expect("no failure").expect("done");
        let states: Vec<State> = outcomes.iter().map(|o| o.state).collect();
        assert_eq!(states, [State::CA, State::TX], "shard order");
        // An incomplete run past its deadline reports how far it got.
        let (_dir, c) = fresh(vec![State::CA, State::TX], config());
        let job = job_at(&c, 0, "w0");
        assert!(c.result_at(0, upload("w0", job)).accepted);
        let err = c.poll_at(10, 10).unwrap_err();
        assert!(
            matches!(err, ClusterError::Timeout { done: 1, total: 2 }),
            "{err}"
        );
    }

    #[test]
    fn durable_coordinator_recovers_epochs_and_benchings_across_a_crash() {
        let dir = scratch_dir("coord_durable_crash");
        let p = params(vec![State::CA, State::TX]);
        let first_epochs: Vec<u64> = {
            let (c, rec) = Coordinator::durable(p.clone(), config(), &dir).expect("fresh durable");
            assert!(!rec.had_state);
            (0..2).map(|_| job_at(&c, 0, "w0").epoch).collect()
            // `c` dropped here with leases in flight — the crash.
        };
        let recoveries = || sift_obs::counter("sift_cluster_coord_recoveries_total", &[]).get();
        let recoveries_before = recoveries();
        let (c, rec) = Coordinator::durable(p, config(), &dir).expect("recovered durable");
        assert!(rec.had_state);
        assert!(recoveries() > recoveries_before);
        let status = c.status_at(0);
        assert_eq!(status.recoveries, 1);
        assert!(
            status.epoch > *first_epochs.iter().max().expect("epochs"),
            "the fence must clear every pre-crash grant: {status:?}"
        );
        assert!(status.leases.is_empty(), "leases do not survive a restart");
        assert_eq!(status.done, 0);
        // Old-incarnation epochs are fenced: a zombie heartbeat is refused.
        let zombie = ShardJob {
            state: State::CA,
            epoch: first_epochs[0],
        };
        assert!(!beat_at(&c, 0, "w0", zombie, false));
        // And fresh grants are strictly newer.
        assert!(job_at(&c, 0, "w0").epoch > first_epochs[1]);
    }

    #[test]
    fn each_restart_is_one_durable_recovery_and_one_epoch_bump() {
        let dir = scratch_dir("coord_restarts");
        let p = params(vec![State::CA]);
        for k in 0..4u64 {
            let (c, rec) = Coordinator::durable(p.clone(), config(), &dir).expect("durable");
            assert_eq!(rec.had_state, k > 0);
            let status = c.status_at(0);
            assert_eq!(status.recoveries, k, "restart {k}");
            assert_eq!(
                status.epoch, k,
                "with no grants the fence still moves once a restart"
            );
        }
    }

    /// The acknowledgement rule, record by record, on a WAL that refuses
    /// every append: `Leased`, `Released` and `Done` take effect only once
    /// durable and the reply is withheld otherwise; `Joined` and `Expired`
    /// acknowledge nothing and apply in memory regardless.
    #[test]
    fn acknowledgements_wait_for_the_wal_and_the_rest_apply_anyway() {
        let dir = scratch_dir("coord_wal_refuses");
        let p = params(vec![State::CA, State::TX]);
        let (c, _) = Coordinator::durable(p.clone(), config(), &dir).expect("durable");
        let fail_appends = |on: bool| {
            let mut s = c.inner.lock();
            s.durability.fail_appends = on;
        };
        let ca = job_at(&c, 0, "w0");
        assert_eq!(ca.epoch, 0);

        fail_appends(true);
        // Leased: no job, no grant counted — and the epoch is burned.
        let (reply, hint) = lease_at(&c, 0, "w0");
        assert!(matches!(reply, LeaseReply::Wait { .. }), "{reply:?}");
        assert_eq!(hint, None, "TX is still pending");
        // Released: the lease stands (the worker is told to stop either way).
        assert!(!beat_at(&c, 0, "w0", ca, true));
        // Done: not accepted, the shard is not done, the lease stands.
        assert!(!c.result_at(0, upload("w0", ca)).accepted);
        // Joined: membership applies although the record was lost.
        c.join(&JoinRequest {
            worker: "w9".into(),
        });
        let status = c.status_at(0);
        assert_eq!(status.leases, vec![("w0".to_string(), State::CA)]);
        assert_eq!(status.shard_attempts, vec![(State::CA, 1), (State::TX, 0)]);
        assert_eq!((status.done, status.rerouted), (0, 0));
        assert_eq!(status.epoch, 2, "epoch 1 was burned by the refused grant");
        assert_eq!(status.workers, ["w0", "w9"]);
        // Expired: the holder is benched and the shard rerouted in memory.
        let status = c.status_at(51);
        assert_eq!(status.dead, ["w0"]);
        assert_eq!(status.rerouted, 1);
        assert!(status.leases.is_empty());

        fail_appends(false);
        let again = job_at(&c, 51, "w9");
        assert_eq!(
            (again.state, again.epoch),
            (State::CA, 2),
            "the rerouted shard, under an epoch above the burned one"
        );
        assert!(c.result_at(51, upload("w9", again)).accepted);
        drop(c);
        // The WAL holds exactly what was acknowledged.
        let (c, _) = Coordinator::durable(p, config(), &dir).expect("recovered");
        let status = c.status_at(0);
        assert_eq!(status.done_states, [State::CA]);
        assert_eq!(status.shard_attempts, vec![(State::CA, 2), (State::TX, 0)]);
        assert_eq!(status.workers, ["w0", "w9"], "w9 re-learned from its lease");
        assert!(status.dead.is_empty(), "the lost expiry was never durable");
        assert_eq!(status.rerouted, 0);
    }
}
