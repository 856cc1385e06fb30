//! The nemesis harness: a full sharded study run under a seeded chaos
//! schedule.
//!
//! A [`NemesisCluster`] owns every process of one sharded run — the
//! durable coordinator, its HTTP server, and N worker threads — plus the
//! cluster-shared [`sift_net::NemesisState`] link-fault table. Driving a
//! [`sift_net::NemesisPlan`] through [`NemesisCluster::run`] executes the
//! schedule's two halves in one place:
//!
//! * **network operations** (partitions, heartbeat delay, heals) are
//!   installed into the shared table by the [`sift_net::NemesisDriver`]
//!   and take effect inside every nemesis-aware server, and
//! * **process operations** (kill/restart the coordinator) are handed
//!   back to the harness, which actually drops the coordinator's
//!   in-memory state and reboots it from its journal via
//!   [`Coordinator::durable`].
//!
//! Workers reach the coordinator through a harness-owned TCP relay with
//! a stable address: killing the coordinator unplugs the relay's
//! backend (connections are refused, exactly like a dead process), and
//! the restarted incarnation — listening on a fresh ephemeral port — is
//! plugged back in. This sidesteps `TIME_WAIT` rebind flakiness while
//! keeping the worker-visible behaviour of a crash: refused
//! connections, then a coordinator that answers again but fences every
//! pre-crash epoch.
//!
//! The run's acceptance bar is the same as the clean sharded path: the
//! final [`StudyResult`] must be bit-identical to an uninterrupted run,
//! with already-accepted shards never re-crawled.

use crate::coord::{cluster_router, ClusterConfig, ClusterError, Coordinator};
use crate::proto::StatusReply;
use crate::worker::{spawn_worker, WorkerConfig, WorkerHandle, WorkerSummary};
use parking_lot::Mutex;
use sift_core::{StudyParams, StudyResult};
use sift_net::{NemesisDriver, NemesisOp, NemesisPlan, NemesisState, Server, ServerHandle};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The endpoint name the coordinator's server registers under in the
/// nemesis link-fault table. Plans that partition a worker from the
/// coordinator name this side of the link.
pub const COORDINATOR: &str = "coordinator";

/// How a nemesis run can fail beyond the ordinary cluster outcomes.
#[derive(Debug)]
pub enum NemesisError {
    /// The underlying sharded run failed (timeout or a failed shard).
    Cluster(ClusterError),
    /// A process-level operation could not be executed (e.g. the
    /// coordinator restart could not reopen its journal).
    Io(io::Error),
}

impl std::fmt::Display for NemesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NemesisError::Cluster(e) => write!(f, "nemesis run failed: {e}"),
            NemesisError::Io(e) => write!(f, "nemesis process op failed: {e}"),
        }
    }
}

impl std::error::Error for NemesisError {}

impl From<ClusterError> for NemesisError {
    fn from(e: ClusterError) -> NemesisError {
        NemesisError::Cluster(e)
    }
}

impl From<io::Error> for NemesisError {
    fn from(e: io::Error) -> NemesisError {
        NemesisError::Io(e)
    }
}

/// What a completed nemesis run looked like, for audits.
#[derive(Debug)]
pub struct NemesisReport {
    /// The converged study result (the thing baseline equality checks).
    pub result: StudyResult,
    /// The coordinator's final status snapshot.
    pub status: StatusReply,
    /// The status captured immediately before the (first) coordinator
    /// kill — the re-crawl audit compares per-shard grant counts against
    /// it: a shard done before the kill must show no further grants.
    pub pre_kill_status: Option<StatusReply>,
    /// Coordinator kills executed.
    pub coordinator_kills: u32,
    /// Coordinator restarts executed.
    pub coordinator_restarts: u32,
    /// Requests dropped by link rules (request or reply side).
    pub link_dropped: u64,
    /// Requests delayed by link rules.
    pub link_delayed: u64,
    /// Whether every scheduled step fired before the run converged.
    pub plan_exhausted: bool,
    /// Per-worker exit summaries, in spawn order.
    pub worker_summaries: Vec<WorkerSummary>,
}

/// One sharded study's processes under nemesis control.
pub struct NemesisCluster {
    params: StudyParams,
    config: ClusterConfig,
    dir: PathBuf,
    nemesis: Arc<NemesisState>,
    relay: Relay,
    coord: Option<(Arc<Coordinator>, ServerHandle)>,
    workers: Vec<WorkerHandle>,
}

impl NemesisCluster {
    /// Boots a durable coordinator under `dir`, its HTTP server (nemesis
    /// aware, named [`COORDINATOR`]), the stable-address relay, and one
    /// worker per entry of `worker_ids`, each crawling against the
    /// trends service at `trends_addr`.
    pub fn start(
        params: StudyParams,
        config: ClusterConfig,
        trends_addr: SocketAddr,
        dir: PathBuf,
        worker_ids: &[String],
        worker_config: &WorkerConfig,
    ) -> io::Result<NemesisCluster> {
        let nemesis = Arc::new(NemesisState::new());
        let relay = Relay::start()?;
        let (coord, server) = boot_coordinator(&params, config, &dir, &nemesis)?;
        relay.set_backend(Some(server.addr()));
        let workers = worker_ids
            .iter()
            .map(|id| {
                spawn_worker(
                    id.clone(),
                    relay.addr(),
                    trends_addr,
                    params.clone(),
                    worker_config.clone(),
                )
            })
            .collect();
        Ok(NemesisCluster {
            params,
            config,
            dir,
            nemesis,
            relay,
            coord: Some((coord, server)),
            workers,
        })
    }

    /// The stable coordinator address workers dial (the relay front).
    pub fn coord_addr(&self) -> SocketAddr {
        self.relay.addr()
    }

    /// Drives `plan` against the live cluster until the study converges
    /// or `timeout` passes, executing process operations (coordinator
    /// kill/restart) as they come due. Consumes the cluster: workers are
    /// joined and every server shut down on the way out, success or not.
    pub fn run(
        mut self,
        plan: NemesisPlan,
        timeout: Duration,
    ) -> Result<NemesisReport, NemesisError> {
        let deadline = Instant::now() + timeout;
        let mut driver = NemesisDriver::new(plan, Arc::clone(&self.nemesis));
        let mut pre_kill_status: Option<StatusReply> = None;
        let mut kills = 0u32;
        let mut restarts = 0u32;

        let result = loop {
            for op in driver.due() {
                match op {
                    NemesisOp::KillCoordinator => {
                        if let Some((coord, server)) = self.coord.take() {
                            // The audit baseline: everything done before
                            // this instant must never be granted again.
                            if pre_kill_status.is_none() {
                                pre_kill_status = Some(coord.status());
                            }
                            kills += 1;
                            // Unplug first so new dials are refused like
                            // a dead process, then drop the in-memory
                            // state. Only the journal survives.
                            self.relay.set_backend(None);
                            server.shutdown();
                            drop(coord);
                        }
                    }
                    NemesisOp::RestartCoordinator if self.coord.is_none() => {
                        let (coord, server) = match boot_coordinator(
                            &self.params,
                            self.config,
                            &self.dir,
                            &self.nemesis,
                        ) {
                            Ok(up) => up,
                            Err(e) => {
                                self.teardown();
                                return Err(NemesisError::Io(e));
                            }
                        };
                        restarts += 1;
                        self.relay.set_backend(Some(server.addr()));
                        self.coord = Some((coord, server));
                    }
                    // Network operations were already installed into the
                    // shared table by the driver.
                    _ => {}
                }
            }
            if let Some((coord, _)) = &self.coord {
                // Short slices keep the schedule responsive: the
                // coordinator Arc may be swapped out by the very next
                // fired step.
                match coord.wait_result(Duration::from_millis(30)) {
                    Ok(result) => break result,
                    Err(ClusterError::Timeout { .. }) => {}
                    Err(e) => {
                        self.teardown();
                        return Err(NemesisError::Cluster(e));
                    }
                }
            } else {
                std::thread::sleep(Duration::from_millis(10));
            }
            if Instant::now() >= deadline {
                let (done, total) = match &self.coord {
                    Some((coord, _)) => {
                        let s = coord.status();
                        (s.done, s.total)
                    }
                    None => (0, self.params.regions.len()),
                };
                self.teardown();
                return Err(NemesisError::Cluster(ClusterError::Timeout { done, total }));
            }
        };

        let status = match &self.coord {
            Some((coord, _)) => coord.status(),
            None => StatusReply::default(),
        };
        let plan_exhausted = driver.finished();
        let worker_summaries = self.teardown();
        Ok(NemesisReport {
            result,
            status,
            pre_kill_status,
            coordinator_kills: kills,
            coordinator_restarts: restarts,
            link_dropped: self.nemesis.dropped_total(),
            link_delayed: self.nemesis.delayed_total(),
            plan_exhausted,
            worker_summaries,
        })
    }

    /// Stops every process: workers are asked to stop (killed ones are
    /// already gone), joined, and the coordinator server shut down.
    fn teardown(&mut self) -> Vec<WorkerSummary> {
        for w in &self.workers {
            w.stop();
        }
        let summaries = self.workers.drain(..).map(WorkerHandle::join).collect();
        if let Some((_, server)) = self.coord.take() {
            server.shutdown();
        }
        self.relay.stop();
        summaries
    }
}

fn boot_coordinator(
    params: &StudyParams,
    config: ClusterConfig,
    dir: &Path,
    nemesis: &Arc<NemesisState>,
) -> io::Result<(Arc<Coordinator>, ServerHandle)> {
    let (coord, _recovery) = Coordinator::durable(params.clone(), config, dir)?;
    let coord = Arc::new(coord);
    let server = Server::new(cluster_router(&coord))
        .with_workers(8)
        .with_nemesis(Arc::clone(nemesis), COORDINATOR)
        .bind("127.0.0.1:0")?;
    Ok((coord, server))
}

/// A stable-address TCP relay in front of the (restartable) coordinator.
///
/// The front listener never closes, so workers keep one coordinator
/// address for the whole run; the backend is swapped as coordinator
/// incarnations come and go. With no backend plugged in, accepted
/// connections are dropped on the floor — the worker-visible shape of a
/// dead process.
struct Relay {
    addr: SocketAddr,
    backend: Arc<Mutex<Option<SocketAddr>>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Relay {
    fn start() -> io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let backend: Arc<Mutex<Option<SocketAddr>>> = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let backend = Arc::clone(&backend);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &backend, &stop))
        };
        Ok(Relay {
            addr,
            backend,
            stop,
            thread: Some(thread),
        })
    }

    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn set_backend(&self, addr: Option<SocketAddr>) {
        *self.backend.lock() = addr;
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            // sift-lint: allow(swallowed-result) — a panicked accept loop cannot forward anything anyway; teardown proceeds regardless
            let _ = thread.join();
        }
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, backend: &Mutex<Option<SocketAddr>>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let Some(target) = *backend.lock() else {
                    // No coordinator: the dial is accepted by the kernel
                    // but immediately closed — the client sees the same
                    // dead-process reset a real crash produces.
                    continue;
                };
                match TcpStream::connect_timeout(&target, Duration::from_millis(500)) {
                    Ok(upstream) => pump_pair(client, upstream),
                    Err(_) => {
                        // Backend just died under us: drop the client.
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Shuttles bytes both ways between `client` and `upstream` on two
/// detached threads; each direction propagates EOF as a write shutdown
/// so connection-close semantics survive the hop.
fn pump_pair(client: TcpStream, upstream: TcpStream) {
    // sift-lint: allow(swallowed-result) — nodelay is best-effort; the relay still forwards without it
    let _ = client.set_nodelay(true);
    // sift-lint: allow(swallowed-result) — nodelay is best-effort; the relay still forwards without it
    let _ = upstream.set_nodelay(true);
    let (Ok(client_r), Ok(upstream_r)) = (client.try_clone(), upstream.try_clone()) else {
        return; // both halves close on drop; the client retries
    };
    pump_one_way(client_r, upstream);
    pump_one_way(upstream_r, client);
}

fn pump_one_way(mut from: TcpStream, mut to: TcpStream) {
    std::thread::spawn(move || {
        // sift-lint: allow(swallowed-result) — a failed copy is a closed connection; the shutdown below tells the peer either way
        let _ = io::copy(&mut from, &mut to);
        // sift-lint: allow(swallowed-result) — the peer may already be gone, which is the outcome shutdown was after
        let _ = to.shutdown(Shutdown::Write);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// One-shot echo server: accepts a single connection, echoes until
    /// EOF, exits.
    fn echo_once() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let thread = std::thread::spawn(move || {
            if let Ok((mut conn, _)) = listener.accept() {
                let mut buf = [0u8; 256];
                while let Ok(n) = conn.read(&mut buf) {
                    if n == 0 || conn.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, thread)
    }

    #[test]
    fn relay_forwards_bytes_when_a_backend_is_plugged_in() {
        let (echo_addr, echo) = echo_once();
        let mut relay = Relay::start().expect("start relay");
        relay.set_backend(Some(echo_addr));
        let mut conn = TcpStream::connect(relay.addr()).expect("dial relay");
        conn.write_all(b"ping").expect("write");
        conn.shutdown(Shutdown::Write).expect("half-close");
        let mut got = Vec::new();
        conn.read_to_end(&mut got).expect("read echo");
        assert_eq!(got, b"ping");
        relay.stop();
        echo.join().expect("echo thread");
    }

    #[test]
    fn relay_drops_connections_while_the_backend_is_unplugged() {
        let mut relay = Relay::start().expect("start relay");
        // Dialing succeeds (the kernel accepts), but the connection is
        // promptly closed with nothing read — the dead-process shape.
        let mut conn = TcpStream::connect(relay.addr()).expect("dial relay");
        conn.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut got = Vec::new();
        // A clean EOF with no bytes or a reset are both the dead shape.
        if let Ok(n) = conn.read_to_end(&mut got) {
            assert_eq!(n, 0, "an unplugged relay must return no bytes");
        }
        relay.stop();
    }

    #[test]
    fn relay_retargets_to_a_new_backend_after_a_swap() {
        let (first_addr, first) = echo_once();
        let mut relay = Relay::start().expect("start relay");
        relay.set_backend(Some(first_addr));
        {
            let mut conn = TcpStream::connect(relay.addr()).expect("dial relay");
            conn.write_all(b"one").expect("write");
            conn.shutdown(Shutdown::Write).expect("half-close");
            let mut got = Vec::new();
            conn.read_to_end(&mut got).expect("read");
            assert_eq!(got, b"one");
        }
        first.join().expect("first echo");
        // Swap in a fresh incarnation on a different port.
        let (second_addr, second) = echo_once();
        relay.set_backend(Some(second_addr));
        let mut conn = TcpStream::connect(relay.addr()).expect("redial relay");
        conn.write_all(b"two").expect("write");
        conn.shutdown(Shutdown::Write).expect("half-close");
        let mut got = Vec::new();
        conn.read_to_end(&mut got).expect("read");
        assert_eq!(got, b"two");
        relay.stop();
        second.join().expect("second echo");
    }
}
