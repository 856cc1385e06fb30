//! Threaded HTTP server.
//!
//! One acceptor thread hands connections to a fixed worker pool over a
//! crossbeam channel (the pool size bounds the connections served at
//! once); each worker runs a keep-alive loop per connection. The
//! complete requests a connection has buffered form a batch: the worker
//! decides each one's fate in arrival order (admission, then the
//! limiter), dispatches the admitted ones concurrently on itself plus up
//! to one helper per further core, and coalesces the replies, in request
//! order, into one write (see `REPLY_FLUSH_BYTES` for when it flushes).
//! An optional per-client token-bucket limiter answers 429 with a
//! `Retry-After` before the request ever reaches a handler, mirroring how
//! the real aggregation service throttles crawlers.
//!
//! Overload control (see DESIGN.md, "Overload model"): an
//! [`AdmissionController`] bounds the accept queue and the in-flight
//! request count, shedding excess connections with a canned
//! `503 + Retry-After` at the acceptor — before a single request byte is
//! parsed, and [`ServerHandle::drain`] finishes in-flight work while
//! refusing new connections instead of just flipping the shutdown flag.

#![expect(
    clippy::disallowed_methods,
    reason = "socket timeouts, drain grace and the limiter's clock measure the host by design"
)]

use crate::admission::{AdmissionConfig, AdmissionController, InflightGuard, ShedReason};
use crate::http::{parse_request, serialize_response, ParseError, Request, Response, StatusCode};
use crate::ratelimit::{RateLimitDecision, RateLimiter, RateLimiterConfig};
use crate::router::{Router, UNMATCHED_ROUTE};
use crate::{FETCHER_IDENTITY_HEADER, X_SIFT_TRACE};
use bytes::{Bytes, BytesMut};
use crossbeam::channel;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle keep-alive connections are dropped after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// A reply write that stalls this long fails the connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// Idle keep-alive reads wake this often to re-check the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// Server configuration and construction.
pub struct Server {
    router: Arc<Router>,
    limiter: Option<Arc<RateLimiter>>,
    workers: usize,
    admission: Arc<AdmissionController>,
}

impl Server {
    /// A server for the given router, with 4 workers and no rate limiter.
    pub fn new(router: Router) -> Self {
        Server {
            router: Arc::new(router),
            limiter: None,
            workers: 4,
            // No bounds unless asked for; the controller still powers
            // graceful drain.
            admission: Arc::new(AdmissionController::new(AdmissionConfig::unlimited())),
        }
    }

    /// Enables per-client rate limiting.
    pub fn with_rate_limiter(mut self, config: RateLimiterConfig) -> Self {
        self.limiter = Some(Arc::new(RateLimiter::new(config)));
        self
    }

    /// Bounds the accept queue and in-flight request count with
    /// `controller`; excess load is shed with `503 + Retry-After` (see
    /// [`crate::admission`]). Handlers that need admission state — a
    /// long-poll route parking its waiter via
    /// [`AdmissionController::park`], or a drain-aware wait loop — hold a
    /// clone of the same `Arc` the server sheds with.
    pub fn with_admission(mut self, controller: Arc<AdmissionController>) -> Self {
        self.admission = controller;
        self
    }

    /// Sets the worker-pool size: how many connections are served at
    /// once. A worker may add helper threads for a pipelined batch.
    pub fn with_workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one worker required");
        self.workers = n;
        self
    }

    /// Binds and starts serving. `addr` is typically `127.0.0.1:0` (pick a
    /// free port; read it back from [`ServerHandle::addr`]).
    pub fn bind(self, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let admission = self.admission;
        let started = Instant::now();
        #[expect(
            clippy::disallowed_methods,
            reason = "read once per server: each call re-reads the cgroup limits"
        )]
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);

        let (tx, rx) = channel::unbounded::<TcpStream>();

        let mut threads = Vec::with_capacity(self.workers + 1);
        for i in 0..self.workers {
            let rx = rx.clone();
            let ctx = ConnContext {
                router: Arc::clone(&self.router),
                limiter: self.limiter.clone(),
                admission: Arc::clone(&admission),
                epoch: started,
                shutdown: Arc::clone(&shutdown),
                cores,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sift-net-worker-{i}"))
                    .spawn(move || {
                        while let Ok(stream) = rx.recv() {
                            ctx.admission.dequeued();
                            #[expect(
                                clippy::let_underscore_must_use,
                                reason = "the route counters already saw the request"
                            )]
                            let _ = serve_connection(stream, &ctx);
                        }
                    })?,
            );
        }

        {
            // Nonblocking accept with a short poll interval: shutdown only
            // has to set the flag, with no self-connect handshake that
            // could fail under load and leave the acceptor blocked.
            listener.set_nonblocking(true)?;
            let shutdown = Arc::clone(&shutdown);
            let admission = Arc::clone(&admission);
            threads.push(
                std::thread::Builder::new()
                    .name("sift-net-acceptor".into())
                    .spawn(move || {
                        loop {
                            if shutdown.load(Ordering::SeqCst) {
                                break;
                            }
                            match listener.accept() {
                                Ok((s, _)) => {
                                    // Accepted sockets must be blocking
                                    // regardless of the listener's mode.
                                    if s.set_nonblocking(false).is_err() {
                                        continue;
                                    }
                                    match admission.try_enqueue() {
                                        Ok(()) => {
                                            if tx.send(s).is_err() {
                                                break;
                                            }
                                        }
                                        // Shed at the accept edge: the 503
                                        // goes out before any request byte
                                        // is read, let alone parsed.
                                        Err(reason) => {
                                            shed_at_accept(s, &admission, reason);
                                        }
                                    }
                                }
                                Err(e) => {
                                    // A persistent error (EMFILE/ENFILE
                                    // under a connection flood) must pause
                                    // like an empty backlog does, or the
                                    // acceptor spins and starves the
                                    // workers that would free descriptors.
                                    if e.kind() != std::io::ErrorKind::WouldBlock {
                                        sift_obs::counter("sift_http_accept_errors_total", &[])
                                            .inc();
                                    }
                                    std::thread::sleep(Duration::from_millis(10));
                                }
                            }
                        }
                        // Dropping `tx` closes the channel; workers drain
                        // and exit.
                    })?,
            );
        }

        Ok(ServerHandle {
            addr: local_addr,
            shutdown,
            admission,
            threads,
        })
    }
}

/// A running server. Dropping the handle shuts the server down and joins
/// its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    admission: Arc<AdmissionController>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins every server thread. In-flight
    /// responses may be cut short; use [`Self::drain`] for a graceful
    /// stop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Flips the server into drain mode without blocking: in-flight and
    /// keep-alive requests finish, new connections get `503 +
    /// Retry-After`. Follow up with [`Self::drain`] (or
    /// [`Self::shutdown`]) to actually stop.
    pub fn begin_drain(&self) {
        self.admission.begin_drain();
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.admission.is_draining()
    }

    /// Requests currently being processed (0 once drained).
    pub fn inflight(&self) -> usize {
        self.admission.inflight()
    }

    /// Gracefully stops the server: begins draining, waits up to `grace`
    /// for in-flight requests to finish, then shuts down and joins every
    /// thread. Returns `true` if the server drained fully within the
    /// grace period.
    pub fn drain(mut self, grace: Duration) -> bool {
        self.begin_drain();
        let waited = Instant::now();
        while self.admission.inflight() > 0 && waited.elapsed() < grace {
            std::thread::sleep(Duration::from_millis(2));
        }
        let drained = self.admission.inflight() == 0;
        self.shutdown_inner();
        drained
    }

    fn shutdown_inner(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The acceptor polls the flag every few milliseconds; workers
        // exit once it drops the channel sender.
        for t in self.threads.drain(..) {
            #[expect(clippy::let_underscore_must_use, reason = "reap even panicked workers")]
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Everything a worker needs to serve connections.
struct ConnContext {
    router: Arc<Router>,
    limiter: Option<Arc<RateLimiter>>,
    admission: Arc<AdmissionController>,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    /// The threads a pipelined batch is dispatched on, at most.
    cores: usize,
}

/// Writes the canned shed response to a just-accepted connection and
/// closes it gracefully, without ever parsing the request.
///
/// Runs on a short-lived thread so the accept loop keeps draining during
/// a shed storm. The lingering close matters: the client's request bytes
/// are still unread in the kernel buffer, and closing over them would
/// send an RST that can destroy the in-flight `503` before the client
/// reads it. Half-closing and discarding input until the peer hangs up
/// (bounded by a short timeout) delivers the response reliably.
/// Best-effort throughout: a client that vanished mid-shed loses nothing.
#[expect(clippy::let_underscore_must_use, reason = "best-effort shed")]
fn shed_at_accept(mut stream: TcpStream, admission: &AdmissionController, reason: ShedReason) {
    let wire = serialize_response(&admission.shed_response(reason));
    let lingering_close = move || {
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        if stream.write_all(&wire).is_err() {
            return;
        }
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    };
    if std::thread::Builder::new()
        .name("sift-net-shed".into())
        .spawn(lingering_close)
        .is_err()
    {
        // Out of threads: the connection just drops. The client's retry
        // path treats that like any other transport failure.
    }
}

/// The client identity a request is rate-limited under: the declared
/// fetcher identity header if present, otherwise the TCP peer IP.
fn client_identity(req: &Request, peer: &SocketAddr) -> String {
    req.headers
        .get(FETCHER_IDENTITY_HEADER)
        .map(str::to_owned)
        .unwrap_or_else(|| peer.ip().to_string())
}

/// The trace context a request carried over the wire, if any. A
/// malformed header parses to `None` — the request is served in a
/// detached trace, never failed.
fn trace_context(req: &Request) -> Option<sift_obs::SpanContext> {
    req.headers
        .get(X_SIFT_TRACE)
        .and_then(sift_obs::SpanContext::from_header)
}

/// Replies are coalesced: a pipelined batch that arrived together is
/// answered with one write. Buffered replies go out before the connection
/// blocks on a read, when it closes, and whenever this many bytes are
/// waiting.
const REPLY_FLUSH_BYTES: usize = 64 * 1024;

fn flush(stream: &mut TcpStream, out: &mut Vec<u8>) -> std::io::Result<()> {
    // Cleared either way: a write that failed part-way cannot be retried.
    let written = stream.write_all(out);
    out.clear();
    written
}

fn serve_connection(mut stream: TcpStream, ctx: &ConnContext) -> std::io::Result<()> {
    // Short socket timeout so idle keep-alive reads re-check the shutdown
    // flag frequently; `READ_TIMEOUT` bounds total idleness.
    stream.set_read_timeout(Some(IDLE_POLL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let peer = stream.peer_addr()?;
    let _active = sift_obs::gauge("sift_http_active_connections", &[]).track();

    // However the connection ends, the replies already produced are owed.
    let mut out = Vec::new();
    let served = serve_requests(&mut stream, &peer, ctx, &mut out);
    let flushed = flush(&mut stream, &mut out);
    served.and(flushed)
}

/// The keep-alive loop of one connection. Replies are appended to `out`;
/// the caller flushes what is left when the loop returns.
fn serve_requests(
    stream: &mut TcpStream,
    peer: &SocketAddr,
    ctx: &ConnContext,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    let mut buf = BytesMut::with_capacity(8 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut idle = Duration::ZERO;

    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let batch = match take_batch(&mut buf) {
            Ok(batch) => batch,
            Err(err) => {
                let resp = Response::text(StatusCode::BAD_REQUEST, format!("bad request: {err}"));
                out.extend_from_slice(&serialize_response(&resp));
                return Ok(()); // framing is lost; close
            }
        };
        if !batch.is_empty() {
            if !serve_batch(&batch, peer, ctx, out) {
                return Ok(());
            }
            if out.len() >= REPLY_FLUSH_BYTES {
                flush(stream, out)?;
            }
            continue;
        }
        flush(stream, out)?;
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // clean close
            Ok(n) => {
                idle = Duration::ZERO;
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A draining server closes idle keep-alive connections;
                // nothing is owed to a client with no request in flight.
                if ctx.admission.is_draining() && buf.is_empty() {
                    return Ok(());
                }
                idle += IDLE_POLL;
                if idle >= READ_TIMEOUT {
                    return Ok(()); // idle keep-alive expired
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Parses every complete request at the front of `buf`: the batch the
/// connection answers together, without reading more. The batch ends
/// after a request that asks to close, and before a request that does
/// not parse; that error is returned once it is first in the buffer.
fn take_batch(buf: &mut BytesMut) -> Result<Vec<Request>, ParseError> {
    let mut batch = Vec::new();
    loop {
        match parse_request(buf) {
            Ok(Some(req)) => {
                let close = req.headers.wants_close();
                batch.push(req);
                if close {
                    return Ok(batch);
                }
            }
            Ok(None) => return Ok(batch),
            Err(err) if batch.is_empty() => return Err(err),
            // Left in the buffer: answered with a 400 after this batch.
            Err(_) => return Ok(batch),
        }
    }
}

/// A request whose fate is decided: it holds an in-flight slot, and the
/// limiter has let it through or named the identity it limited.
struct Decided<'a> {
    req: &'a Request,
    limited: Option<(String, u64)>,
    _slot: InflightGuard<'a>,
}

/// Answers a batch, appending its replies to `out` in arrival order.
/// Returns whether the connection stays open.
///
/// Each request's fate is decided on this thread in arrival order
/// (`try_admit`, which refuses a draining server first, then the
/// limiter), so sheds and 429s fall where serial processing puts them.
/// Admission runs in waves: a wave is every request admitted in a row,
/// and a request refused while this connection holds slots waits for the
/// wave to finish and is asked again; it is shed only when refused with
/// no slot held, as one-at-a-time serving would have it. A wave's
/// requests are then dispatched concurrently (RFC 9112 §9.3.2: a client
/// pipelines only requests that do not depend on each other).
fn serve_batch(batch: &[Request], peer: &SocketAddr, ctx: &ConnContext, out: &mut Vec<u8>) -> bool {
    let mut next = 0;
    while next < batch.len() {
        let mut wave = Vec::new();
        for req in &batch[next..] {
            match ctx.admission.try_admit() {
                Ok(slot) => wave.push(Decided {
                    req,
                    limited: rate_limit(ctx, req, peer),
                    _slot: slot,
                }),
                Err(reason) if wave.is_empty() => {
                    out.extend_from_slice(&serialize_response(
                        &ctx.admission.shed_response(reason),
                    ));
                    return false;
                }
                Err(_) => break,
            }
        }
        next += wave.len();
        for reply in sift_obs::fan_out(&wave, ctx.cores, |decided| serve_one(decided, ctx)) {
            out.extend_from_slice(&reply);
        }
        // Dropping the wave frees its slots; the write is not covered.
    }
    !batch.last().is_some_and(|req| req.headers.wants_close())
}

/// The limiter's verdict on `req`: `None` lets it through, `Some` names
/// the identity it limited and the `Retry-After` seconds.
fn rate_limit(ctx: &ConnContext, req: &Request, peer: &SocketAddr) -> Option<(String, u64)> {
    let limiter = ctx.limiter.as_deref()?;
    let identity = client_identity(req, peer);
    #[expect(clippy::cast_possible_truncation, reason = "uptime ms fit u64")]
    let now_ms = ctx.epoch.elapsed().as_millis() as u64;
    match limiter.check(&identity, now_ms) {
        RateLimitDecision::Allowed => None,
        RateLimitDecision::Limited { retry_after_secs } => Some((identity, retry_after_secs)),
    }
}

/// Serves one decided request on the calling thread and returns its
/// reply's bytes.
fn serve_one(decided: &Decided<'_>, ctx: &ConnContext) -> Bytes {
    let req = decided.req;
    // Rejoin the caller's trace: the serve span parents onto the exact
    // client attempt that carried the X-Sift-Trace header, covering
    // dispatch and serialization, and recorded when the caller's trace
    // is. No (or bad) header: a detached, unrecorded root.
    let _serve_span = match trace_context(req) {
        Some(tc) => sift_obs::span_in(&tc, "serve"),
        None => sift_obs::span_root("serve"),
    };
    let started_at = Instant::now();
    let resolved = ctx.router.resolve(req);
    // Labelled with the registered path or `UNMATCHED_ROUTE`, so the
    // series are bounded by the route table whatever paths clients send.
    let route = resolved
        .as_ref()
        .map_or(UNMATCHED_ROUTE, |(route, _)| route);
    let resp = match (&decided.limited, resolved) {
        (Some((identity, retry_after_secs)), _) => {
            sift_obs::counter("sift_ratelimit_rejected_total", &[("identity", identity)]).inc();
            let mut resp = Response::text(StatusCode::TOO_MANY_REQUESTS, "rate limited");
            resp.headers
                .set("retry-after", retry_after_secs.to_string());
            resp
        }
        // One bad request cannot take a worker thread down.
        (None, Ok((_, handler))) => {
            catch_unwind(AssertUnwindSafe(|| handler(req))).unwrap_or_else(|_| {
                Response::text(StatusCode::INTERNAL_SERVER_ERROR, "handler panicked")
            })
        }
        (None, Err(refusal)) => refusal,
    };

    sift_obs::attr_set("status", u64::from(resp.status.0));
    sift_obs::attr_add("bytes", u64::try_from(resp.body.len()).unwrap_or(u64::MAX));
    sift_obs::counter(
        "sift_http_requests_total",
        &[("route", route), ("status", &resp.status.0.to_string())],
    )
    .inc();
    sift_obs::histogram("sift_http_request_seconds", &[("route", route)])
        .observe_duration(started_at.elapsed());
    serialize_response(&resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Condvar;
    use std::sync::Mutex as StdMutex;

    fn test_router() -> Router {
        Router::new()
            .route(Method::Get, "/ping", |_| {
                Response::text(StatusCode::OK, "pong")
            })
            .route(Method::Post, "/echo", |req| Response {
                status: StatusCode::OK,
                headers: crate::http::Headers::new(),
                body: req.body.clone(),
            })
            .route(Method::Get, "/boom", |_| panic!("kaboom"))
    }

    fn raw_roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw).expect("write");
        s.shutdown(std::net::Shutdown::Write)
            .expect("shutdown write");
        let mut out = Vec::new();
        s.read_to_end(&mut out).expect("read");
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn serves_and_shuts_down() {
        let h = Server::new(test_router())
            .bind("127.0.0.1:0")
            .expect("bind");
        let text = raw_roundtrip(h.addr(), b"GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.ends_with("pong"), "{text}");
        h.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let h = Server::new(test_router())
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        for _ in 0..3 {
            s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").expect("write");
            let mut buf = [0u8; 1024];
            let n = s.read(&mut buf).expect("read");
            let text = String::from_utf8_lossy(&buf[..n]);
            assert!(text.contains("pong"), "{text}");
        }
        h.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_and_a_lone_one_at_once() {
        let h = Server::new(test_router())
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        // Three requests in one write, the last split across two.
        s.write_all(
            b"POST /echo HTTP/1.1\r\ncontent-length: 3\r\n\r\noneGET /ping HTTP/1.1\r\n\r\nPOST /echo HTTP/1.1\r\ncontent-length: 5\r\n\r\nth",
        )
        .expect("write");
        s.write_all(b"ree").expect("write");
        // A reply held back in the server's buffer would time `read_n` out.
        assert_eq!(bodies(&read_n(&mut s, 3).1), ["one", "pong", "three"]);
        // The connection is still good, and a lone request does not wait
        // for company.
        s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").expect("write");
        assert_eq!(bodies(&read_n(&mut s, 1).1), ["pong"]);
        h.shutdown();
    }

    #[test]
    fn echo_posts_body() {
        let h = Server::new(test_router())
            .bind("127.0.0.1:0")
            .expect("bind");
        let text = raw_roundtrip(
            h.addr(),
            b"POST /echo HTTP/1.1\r\ncontent-length: 5\r\nconnection: close\r\n\r\nhello",
        );
        assert!(text.ends_with("hello"), "{text}");
        h.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        let h = Server::new(test_router())
            .bind("127.0.0.1:0")
            .expect("bind");
        let text = raw_roundtrip(h.addr(), b"NONSENSE\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        h.shutdown();
    }

    #[test]
    fn handler_panic_becomes_500_and_server_survives() {
        let h = Server::new(test_router())
            .bind("127.0.0.1:0")
            .expect("bind");
        let text = raw_roundtrip(h.addr(), b"GET /boom HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 500"), "{text}");
        // Server still answers afterwards.
        let text = raw_roundtrip(h.addr(), b"GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(text.contains("pong"), "{text}");
        h.shutdown();
    }

    #[test]
    fn rate_limiter_answers_429_with_retry_after() {
        let h = Server::new(test_router())
            .with_rate_limiter(RateLimiterConfig {
                capacity: 2.0,
                refill_per_sec: 0.5,
                ..RateLimiterConfig::default()
            })
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        let mut limited = false;
        for _ in 0..4 {
            s.write_all(b"GET /ping HTTP/1.1\r\nx-fetcher-ip: 127.0.0.7\r\n\r\n")
                .expect("write");
            let mut buf = [0u8; 1024];
            let n = s.read(&mut buf).expect("read");
            let text = String::from_utf8_lossy(&buf[..n]);
            if text.starts_with("HTTP/1.1 429") {
                assert!(text.to_lowercase().contains("retry-after:"), "{text}");
                limited = true;
            }
        }
        assert!(limited, "expected to hit the rate limit");
        // A different declared identity is not limited.
        s.write_all(b"GET /ping HTTP/1.1\r\nx-fetcher-ip: 127.0.0.8\r\n\r\n")
            .expect("write");
        let mut buf = [0u8; 1024];
        let n = s.read(&mut buf).expect("read");
        let text = String::from_utf8_lossy(&buf[..n]);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        h.shutdown();
    }

    /// A router whose `/slow` handler parks until released, signalling
    /// entry — the scaffolding for drain and overload tests.
    struct Gate {
        entered: AtomicBool,
        release: StdMutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate {
                entered: AtomicBool::new(false),
                release: StdMutex::new(false),
                cv: Condvar::new(),
            })
        }

        fn open(&self) {
            *self.release.lock().expect("gate lock") = true;
            self.cv.notify_all();
        }

        fn wait_entered(&self) {
            let waited = Instant::now();
            while !self.entered.load(Ordering::SeqCst) {
                assert!(
                    waited.elapsed() < Duration::from_secs(5),
                    "handler never entered"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Opens the gate when dropped, so a panicking assertion cannot leave
    /// a worker parked in the handler forever (the `ServerHandle` drop
    /// joins workers and would otherwise hang the whole test run).
    struct OpenOnDrop(Arc<Gate>);

    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            self.0.open();
        }
    }

    fn gated_router(gate: &Arc<Gate>) -> Router {
        let gate = Arc::clone(gate);
        test_router().route(Method::Get, "/slow", move |_| {
            gate.entered.store(true, Ordering::SeqCst);
            let mut released = gate.release.lock().expect("gate lock");
            while !*released {
                released = gate.cv.wait(released).expect("gate wait");
            }
            Response::text(StatusCode::OK, "slow done")
        })
    }

    #[test]
    fn drain_finishes_inflight_request_and_sheds_fresh_connections() {
        let gate = Gate::new();
        let h = Server::new(gated_router(&gate))
            .with_workers(2)
            .bind("127.0.0.1:0")
            .expect("bind");
        let _open_guard = OpenOnDrop(Arc::clone(&gate));
        let addr = h.addr();

        // A keep-alive connection parks mid-request in the handler.
        let inflight = std::thread::spawn(move || {
            let c = crate::client::HttpClient::new(addr);
            c.send(&Request::get("/slow")).expect("in-flight completes")
        });
        gate.wait_entered();

        // Drain begins while that request is still running.
        h.begin_drain();
        assert!(h.is_draining());

        // A fresh connection is refused at the accept edge with
        // `503 + Retry-After`, without its request being read.
        let text = raw_roundtrip(addr, b"GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        assert!(text.to_lowercase().contains("retry-after:"), "{text}");

        // The in-flight request still completes once released.
        gate.open();
        let resp = inflight.join().expect("client thread");
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(&resp.body[..], b"slow done");

        assert!(h.drain(Duration::from_secs(5)), "drained within grace");
    }

    #[test]
    fn inflight_cap_sheds_overload() {
        let gate = Gate::new();
        let h = Server::new(gated_router(&gate))
            .with_workers(2)
            .with_admission(Arc::new(AdmissionController::new(AdmissionConfig {
                max_inflight: 1,
                max_queue: 0,
                retry_after_secs: 3,
            })))
            .bind("127.0.0.1:0")
            .expect("bind");
        let _open_guard = OpenOnDrop(Arc::clone(&gate));
        let addr = h.addr();
        let inflight = std::thread::spawn(move || {
            let c = crate::client::HttpClient::new(addr);
            c.send(&Request::get("/slow")).expect("held request")
        });
        gate.wait_entered();
        // The single in-flight slot is taken: the next request sheds.
        let text = raw_roundtrip(addr, b"GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 503"), "{text}");
        assert!(text.contains("retry-after: 3"), "{text}");
        gate.open();
        let resp = inflight.join().expect("client thread");
        assert_eq!(resp.status, StatusCode::OK);
        h.shutdown();
    }

    /// Reads exactly `n` replies: the raw bytes and the parsed responses.
    fn read_n(s: &mut TcpStream, n: usize) -> (Vec<u8>, Vec<Response>) {
        s.set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            let mut buf = BytesMut::from(&raw[..]);
            let mut replies = Vec::new();
            while let Some(resp) = crate::http::parse_response(&mut buf).expect("parse") {
                replies.push(resp);
            }
            if replies.len() >= n {
                assert_eq!(replies.len(), n, "nothing unasked for");
                return (raw, replies);
            }
            let got = s.read(&mut chunk).expect("reply before the timeout");
            assert!(got > 0, "server closed after {} replies", replies.len());
            raw.extend_from_slice(&chunk[..got]);
        }
    }

    /// Every reply until the server closes the connection.
    fn read_to_close(s: &mut TcpStream) -> Vec<Response> {
        s.set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).expect("read to close");
        let mut buf = BytesMut::from(&raw[..]);
        let mut replies = Vec::new();
        while let Some(resp) = crate::http::parse_response(&mut buf).expect("parse") {
            replies.push(resp);
        }
        assert!(buf.is_empty(), "a partial reply");
        replies
    }

    fn post(path: &str, body: &str) -> Vec<u8> {
        format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    fn bodies(replies: &[Response]) -> Vec<String> {
        replies
            .iter()
            .map(|r| String::from_utf8_lossy(&r.body).into_owned())
            .collect()
    }

    fn host_cores() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Handlers that wait until `meet` of them are running at once, or
    /// 5 s, and answer their body plus whether they met.
    fn meeting_router(meet: usize) -> Router {
        let arrived = Arc::new((StdMutex::new(0usize), Condvar::new()));
        test_router().route(Method::Post, "/meet", move |req| {
            let (count, cv) = &*arrived;
            let mut n = count.lock().expect("meet lock");
            *n += 1;
            cv.notify_all();
            let (n, _) = cv
                .wait_timeout_while(n, Duration::from_secs(5), |n| *n < meet)
                .expect("meet wait");
            let met = if *n >= meet { "met" } else { "alone" };
            let body = String::from_utf8_lossy(&req.body);
            Response::text(StatusCode::OK, format!("{body}:{met}"))
        })
    }

    #[test]
    fn a_pipelined_batch_runs_its_handlers_at_once_and_replies_in_order() {
        let k = 6;
        let meet = k.min(host_cores());
        let h = Server::new(meeting_router(meet))
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        let wire: Vec<u8> = (0..k).flat_map(|i| post("/meet", &i.to_string())).collect();
        s.write_all(&wire).expect("write");
        let (_, replies) = read_n(&mut s, k);
        let expected: Vec<String> = (0..k).map(|i| format!("{i}:met")).collect();
        if meet > 1 {
            assert_eq!(bodies(&replies), expected);
        } else {
            // One core: nothing overlaps, so only the order is checked.
            let order: Vec<String> = bodies(&replies)
                .iter()
                .map(|b| b.split(':').next().unwrap_or("").to_owned())
                .collect();
            assert_eq!(order, (0..k).map(|i| i.to_string()).collect::<Vec<_>>());
        }
        h.shutdown();
    }

    #[test]
    fn replies_keep_request_order_and_bytes_whatever_finishes_first() {
        let k = 5usize;
        let router = test_router().route(Method::Post, "/nap", move |req| {
            let i: u64 = String::from_utf8_lossy(&req.body).parse().expect("index");
            std::thread::sleep(Duration::from_millis(10 * (k as u64 - i)));
            Response::text(StatusCode::OK, format!("napped {i}"))
        });
        let h = Server::new(router).bind("127.0.0.1:0").expect("bind");
        let requests: Vec<Vec<u8>> = (0..k).map(|i| post("/nap", &i.to_string())).collect();

        let mut one_at_a_time = Vec::new();
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        for req in &requests {
            s.write_all(req).expect("write");
            one_at_a_time.extend(read_n(&mut s, 1).0);
        }

        let mut s = TcpStream::connect(h.addr()).expect("connect");
        s.write_all(&requests.concat()).expect("write");
        let (raw, replies) = read_n(&mut s, k);
        let expected: Vec<String> = (0..k).map(|i| format!("napped {i}")).collect();
        assert_eq!(bodies(&replies), expected);
        assert_eq!(raw, one_at_a_time);
        h.shutdown();
    }

    #[test]
    fn a_batch_never_sheds_itself_under_an_inflight_cap_of_one() {
        let h = Server::new(test_router())
            .with_admission(Arc::new(AdmissionController::new(AdmissionConfig {
                max_inflight: 1,
                max_queue: 0,
                retry_after_secs: 3,
            })))
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        let wire: Vec<u8> = (0..3)
            .flat_map(|i| post("/echo", &format!("e{i}")))
            .collect();
        s.write_all(&wire).expect("write");
        let (_, replies) = read_n(&mut s, 3);
        assert!(replies.iter().all(|r| r.status == StatusCode::OK));
        assert_eq!(bodies(&replies), ["e0", "e1", "e2"]);
        h.shutdown();
    }

    #[test]
    fn the_limiter_decides_a_batch_in_arrival_order() {
        // A token comes back every 50 ms and a handler naps 60 ms, so a
        // decision deferred until a handler's turn would find a token.
        let router = test_router().route(Method::Get, "/nap", |_| {
            std::thread::sleep(Duration::from_millis(60));
            Response::text(StatusCode::OK, "napped")
        });
        let h = Server::new(router)
            .with_rate_limiter(RateLimiterConfig {
                capacity: 2.0,
                refill_per_sec: 20.0,
                ..RateLimiterConfig::default()
            })
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        for run in 0..50 {
            let one = format!("GET /nap HTTP/1.1\r\nx-fetcher-ip: 10.0.0.{run}\r\n\r\n");
            s.write_all(one.repeat(5).as_bytes()).expect("write");
            let (_, replies) = read_n(&mut s, 5);
            let statuses: Vec<u16> = replies.iter().map(|r| r.status.0).collect();
            assert_eq!(statuses, [200, 200, 429, 429, 429], "run {run}");
        }
        h.shutdown();
    }

    #[test]
    fn a_batch_ends_at_a_close_and_before_a_parse_error() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let router = test_router().route(Method::Get, "/count", move |_| {
            counted.fetch_add(1, Ordering::SeqCst);
            Response::text(StatusCode::OK, "counted")
        });
        let h = Server::new(router).bind("127.0.0.1:0").expect("bind");

        let mut s = TcpStream::connect(h.addr()).expect("connect");
        let mut wire = post("/echo", "a");
        wire.extend_from_slice(
            b"POST /echo HTTP/1.1\r\ncontent-length: 1\r\nconnection: close\r\n\r\nb",
        );
        wire.extend_from_slice(b"GET /count HTTP/1.1\r\n\r\n");
        s.write_all(&wire).expect("write");
        assert_eq!(bodies(&read_to_close(&mut s)), ["a", "b"]);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "nothing after the close runs"
        );

        let mut s = TcpStream::connect(h.addr()).expect("connect");
        let mut wire = post("/echo", "a");
        wire.extend_from_slice(b"NONSENSE\r\n\r\n");
        s.write_all(&wire).expect("write");
        let replies = read_to_close(&mut s);
        let statuses: Vec<u16> = replies.iter().map(|r| r.status.0).collect();
        assert_eq!(statuses, [200, 400]);
        h.shutdown();
    }

    #[test]
    fn a_panicking_handler_costs_only_its_own_reply() {
        let h = Server::new(test_router())
            .bind("127.0.0.1:0")
            .expect("bind");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        let ping = b"GET /ping HTTP/1.1\r\n\r\n".to_vec();
        let boom = b"GET /boom HTTP/1.1\r\n\r\n".to_vec();
        s.write_all(&[ping.clone(), boom, ping.clone()].concat())
            .expect("write");
        let (_, replies) = read_n(&mut s, 3);
        let statuses: Vec<u16> = replies.iter().map(|r| r.status.0).collect();
        assert_eq!(statuses, [200, 500, 200]);
        // The connection and the server both keep serving.
        s.write_all(&ping).expect("write");
        assert_eq!(bodies(&read_n(&mut s, 1).1), ["pong"]);
        let text = raw_roundtrip(h.addr(), b"GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(text.contains("pong"), "{text}");
        h.shutdown();
    }

    #[test]
    fn each_serve_span_of_a_batch_parents_onto_its_own_request_span() {
        let h = Server::new(test_router())
            .bind("127.0.0.1:0")
            .expect("bind");
        let client = crate::client::HttpClient::new(h.addr());
        // Body i is i + 1 bytes long, so each serve span's `bytes` names
        // the request it answered.
        let reqs: Vec<Request> = (0..6)
            .map(|i| Request {
                method: Method::Post,
                body: Bytes::from(vec![b'x'; i + 1]),
                ..Request::get("/echo")
            })
            .collect();
        let root = sift_obs::span_recorded("pipelined-batch");
        let trace_id = root.context().trace_id;
        for reply in client.send_pipelined(&reqs) {
            assert_eq!(reply.expect("reply").status, StatusCode::OK);
        }
        drop(root);
        let trace =
            sift_obs::trace::wait_completed(trace_id, Duration::from_secs(5)).expect("trace");
        // Request spans open in request order, so span ids rank them.
        let mut requests: Vec<&sift_obs::trace::SpanRecord> =
            trace.spans.iter().filter(|s| s.name == "request").collect();
        requests.sort_by_key(|s| s.span_id);
        let serves: Vec<_> = trace.spans.iter().filter(|s| s.name == "serve").collect();
        assert_eq!((requests.len(), serves.len()), (6, 6));
        for serve in serves {
            let i = serve.arg("bytes").expect("bytes") - 1;
            let own = requests[usize::try_from(i).expect("index")].span_id;
            assert_eq!(serve.parent_id, Some(own), "serve span of request {i}");
        }
        h.shutdown();
    }

    #[test]
    fn unmatched_paths_share_one_route_label() {
        let router = test_router().route(Method::Post, "/api/frame", |_| {
            Response::text(StatusCode::SERVICE_UNAVAILABLE, "busy")
        });
        let h = Server::new(router).bind("127.0.0.1:0").expect("bind");
        let dropped = |metric: &str| {
            sift_obs::counter("sift_obs_labels_dropped_total", &[("metric", metric)]).get()
        };
        let dropped_before = (
            dropped("sift_http_requests_total"),
            dropped("sift_http_request_seconds"),
        );
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        for chunk in (0..600).collect::<Vec<_>>().chunks(50) {
            let wire: String = chunk
                .iter()
                .map(|i| format!("GET /no/such/path/{i} HTTP/1.1\r\n\r\n"))
                .collect();
            s.write_all(wire.as_bytes()).expect("write");
            let (_, replies) = read_n(&mut s, chunk.len());
            assert!(replies.iter().all(|r| r.status == StatusCode::NOT_FOUND));
        }
        s.write_all(&post("/api/frame", "{}")).expect("write");
        assert_eq!(
            read_n(&mut s, 1).1[0].status,
            StatusCode::SERVICE_UNAVAILABLE
        );

        let frame_503 = sift_obs::counter(
            "sift_http_requests_total",
            &[("route", "/api/frame"), ("status", "503")],
        );
        assert_eq!(frame_503.get(), 1, "the real route kept its own series");
        assert_eq!(
            (
                dropped("sift_http_requests_total"),
                dropped("sift_http_request_seconds")
            ),
            dropped_before
        );
        let unmatched = sift_obs::counter(
            "sift_http_requests_total",
            &[("route", UNMATCHED_ROUTE), ("status", "404")],
        );
        assert!(unmatched.get() >= 600);
        h.shutdown();
    }
}
