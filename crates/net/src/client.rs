//! Pooling, retrying HTTP client.
//!
//! Connections are reused and retries are status-aware. Retry backoff
//! honours the server's `Retry-After` and otherwise applies full jitter
//! drawn from a per-request seeded RNG stream, keeping chaos replays
//! deterministic.
//!
//! Every attempt goes out through one exchange, whether it is a lone
//! [`HttpClient::send`], one try of [`HttpClient::send_with_retry`] or a
//! batch of first attempts pipelined on one connection by
//! [`HttpClient::send_pipelined`]. Each attempt opens its own
//! attempt-numbered `request` span and stamps it into its own
//! `X-Sift-Trace`, and every retried outcome is judged by the same rules.

use crate::http::{parse_response, serialize_request, ParseError, Request, Response, StatusCode};
use crate::{FETCHER_IDENTITY_HEADER, X_SIFT_TRACE};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read or write).
    Io(std::io::Error),
    /// The response could not be parsed.
    Parse(ParseError),
    /// The server kept answering 429 past the retry budget.
    RateLimited {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A non-success status after retries were exhausted (or the status is
    /// not retryable).
    Status {
        /// The final status.
        status: StatusCode,
        /// Body text (truncated) for diagnostics.
        body: String,
    },
    /// The response body was not the expected JSON document.
    Json(serde_json::Error),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Parse(e) => write!(f, "bad response: {e}"),
            ClientError::RateLimited { attempts } => {
                write!(f, "rate limited after {attempts} attempts")
            }
            ClientError::Status { status, body } => write!(f, "server said {status}: {body}"),
            ClientError::Json(e) => write!(f, "bad JSON payload: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Retry behaviour for transient failures (429 and 5xx).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Base backoff; unless the server sent a `Retry-After`, attempt `n`
    /// waits a full-jitter draw in `[0, base * 2^(n-1)]` from a
    /// per-request seeded RNG stream. Server hints are never jittered.
    pub base_backoff: Duration,
    /// Ceiling on any single wait.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
        }
    }
}

/// Upper bound on the request bytes [`HttpClient::send_pipelined`] writes
/// ahead of their replies. Both ends block on writes, so a window is only
/// safe while it fits the socket buffers between them whether or not the
/// server is reading; this is a fraction of the kernel's smallest
/// defaults. A single request over the bound travels alone, as in
/// [`HttpClient::send`]: the server reads all of it before it replies.
const PIPELINE_WINDOW_BYTES: usize = 16 * 1024;

/// An open connection with the bytes read off it but not yet parsed.
struct Conn {
    stream: TcpStream,
    buf: BytesMut,
}

/// What one attempt's outcome means to the retry loop.
enum Verdict {
    /// The request is settled, for better or worse.
    Done(Result<Response, ClientError>),
    /// Wait this long, then spend the next attempt.
    Retry(Duration),
}

/// A blocking HTTP/1.1 client with connection reuse.
///
/// Connections are pooled per client instance; a request taken over a
/// pooled connection that turns out to be dead is re-sent, on another
/// pooled or a fresh connection, without spending an attempt (the
/// standard keep-alive race).
pub struct HttpClient {
    addr: SocketAddr,
    identity: Option<String>,
    pool: Mutex<Vec<Conn>>,
    timeout: Duration,
    retry: RetryPolicy,
}

impl HttpClient {
    /// A client for one server address.
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient {
            addr,
            identity: None,
            pool: Mutex::new(Vec::new()),
            timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
        }
    }

    /// Declares this client's fetcher identity (sent as the
    /// [`FETCHER_IDENTITY_HEADER`] on every request).
    pub fn with_identity(mut self, identity: impl Into<String>) -> Self {
        self.identity = Some(identity.into());
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the per-operation socket timeout.
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.timeout = t;
        self
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends one request as one attempt: no status-based retries, and a
    /// keep-alive race is re-sent without counting as the attempt.
    pub fn send(&self, req: &Request) -> Result<Response, ClientError> {
        self.attempt(req, 1)
    }

    /// Sends a request, retrying 429 (honouring `Retry-After`), 5xx and
    /// transport-level I/O failures (connection refused, reset
    /// mid-exchange, truncated response) with full-jitter exponential
    /// backoff per the client's [`RetryPolicy`].
    pub fn send_with_retry(&self, req: &Request) -> Result<Response, ClientError> {
        self.retry_from(req, 1)
    }

    /// [`Self::send_with_retry`] for mutually independent requests: entry
    /// `i` settles `reqs[i]`. First attempts are pipelined — written back
    /// to back on one connection and answered in order — so a batch costs
    /// one exchange, not one round trip per request. Every outcome then
    /// takes the per-request path: a retryable one waits out its backoff
    /// or `Retry-After` and resumes at attempt 2, and a request the server
    /// closed the connection ahead of goes out again, with the rest of the
    /// batch, at attempt 1, so the server sees each request arrive as
    /// often as it would have one at a time.
    #[expect(clippy::disallowed_methods, reason = "backoff waits on the host")]
    pub fn send_pipelined(&self, reqs: &[Request]) -> Vec<Result<Response, ClientError>> {
        let mut results = Vec::with_capacity(reqs.len());
        while results.len() < reqs.len() {
            let rest = &reqs[results.len()..];
            let firsts = self.exchange(rest, 1);
            let answered = Instant::now();
            for (req, first) in rest.iter().zip(firsts) {
                // Never attempted: it and what follows go out on the next pass.
                let Some(outcome) = first else { break };
                results.push(match self.judge(req, 1, outcome) {
                    Verdict::Done(result) => result,
                    Verdict::Retry(wait) => {
                        // The wait began when the reply arrived.
                        std::thread::sleep(wait.saturating_sub(answered.elapsed()));
                        self.retry_from(req, 2)
                    }
                });
            }
        }
        results
    }

    /// Attempt `attempt` of `req`, exchanged until it is attempted.
    fn attempt(&self, req: &Request, attempt: u32) -> Result<Response, ClientError> {
        loop {
            let first = self.exchange(std::slice::from_ref(req), attempt).pop();
            if let Some(Some(outcome)) = first {
                return outcome;
            }
        }
    }

    /// Attempt `attempt` of as many leading `reqs` as fit the pipeline
    /// window (at least one), on one connection. `Some(outcome)` for each
    /// request that was attempted, in order; a `None` marks where the
    /// exchange stopped short: that request and any after it were not
    /// attempted.
    fn exchange(
        &self,
        reqs: &[Request],
        attempt: u32,
    ) -> Vec<Option<Result<Response, ClientError>>> {
        // What `wire` adds to a request — request line, content-length,
        // identity and trace headers — stays under 128 bytes plus the
        // identity itself.
        let overhead = 128 + self.identity.as_ref().map_or(0, String::len);
        let mut bytes = 0usize;
        let window = reqs
            .iter()
            .take_while(|req| {
                let headers: usize = req.headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
                bytes += overhead + req.path.len() + headers + req.body.len();
                bytes <= PIPELINE_WINDOW_BYTES
            })
            .count()
            .max(1);

        // One `request` span per request, all open at once: siblings under
        // the caller's span (with none open, each roots an unrecorded trace
        // of its own), each stamped into its own request so the
        // server-side work parents onto the exact attempt that carried it.
        let parent = sift_obs::SpanContext::current();
        let mut wire = Vec::with_capacity(bytes.min(2 * PIPELINE_WINDOW_BYTES));
        let spans: Vec<sift_obs::Span> = reqs[..window]
            .iter()
            .map(|req| {
                let span = match &parent {
                    Some(ctx) => sift_obs::span_in(ctx, "request"),
                    None => sift_obs::span_root("request"),
                };
                sift_obs::attr_set("attempt", u64::from(attempt));
                wire.extend_from_slice(&self.wire(req, span.context()));
                span
            })
            .collect();

        let pooled = self.pool.lock().pop();
        let reused = pooled.is_some();
        let mut conn = match pooled.map_or_else(|| self.connect(), Ok) {
            Ok(conn) => conn,
            Err(e) => return vec![Some(Err(e))],
        };

        let mut firsts = Vec::with_capacity(window);
        let mut failure = conn.stream.write_all(&wire).err().map(ClientError::Io);
        let mut open = failure.is_none();
        for span in spans {
            if !open {
                break;
            }
            match read_response(&mut conn) {
                Ok(resp) => {
                    if reused && firsts.is_empty() {
                        sift_obs::counter("sift_client_pool_total", &[("outcome", "hit")]).inc();
                    }
                    if resp.status.is_success() {
                        let len = u64::try_from(resp.body.len()).unwrap_or(u64::MAX);
                        span.attr_add("bytes", len);
                    }
                    // The server answers nothing past a `Connection: close`.
                    open = !resp.headers.wants_close();
                    firsts.push(Some(Ok(resp)));
                }
                Err(e) => {
                    failure = Some(e);
                    open = false;
                }
            }
        }
        match failure {
            // Bytes nobody asked for would be parsed as the next reply.
            None if open && conn.buf.is_empty() => {
                let mut pool = self.pool.lock();
                if pool.len() < 8 {
                    pool.push(conn);
                }
            }
            // On a reused connection any error may be the keep-alive race:
            // the request is left unattempted, to be re-sent without
            // spending an attempt.
            Some(e) if !reused => firsts.push(Some(Err(e))),
            _ => {}
        }
        firsts.resize_with(window, || None);
        firsts
    }

    /// The retry loop, entered at `attempt` (1, or 2 after a pipelined
    /// first attempt): one attempt, then its judgement.
    #[expect(clippy::disallowed_methods, reason = "backoff waits on the host")]
    fn retry_from(&self, req: &Request, mut attempt: u32) -> Result<Response, ClientError> {
        loop {
            match self.judge(req, attempt, self.attempt(req, attempt)) {
                Verdict::Done(result) => return result,
                Verdict::Retry(wait) => std::thread::sleep(wait),
            }
            attempt += 1;
        }
    }

    /// Decides whether one attempt's outcome settles the request or waits
    /// for another attempt.
    fn judge(
        &self,
        req: &Request,
        attempt: u32,
        outcome: Result<Response, ClientError>,
    ) -> Verdict {
        let resp = match outcome {
            Ok(resp) => resp,
            // A transport failure consumes an attempt like a 5xx does,
            // minus `Retry-After`.
            Err(ClientError::Io(e)) => {
                if attempt >= self.retry.max_attempts {
                    return Verdict::Done(Err(ClientError::Io(e)));
                }
                let wait = self.jittered_backoff(req, attempt);
                note_retry("io", wait);
                return Verdict::Retry(wait);
            }
            Err(other) => return Verdict::Done(Err(other)),
        };
        if resp.status.is_success() {
            return Verdict::Done(Ok(resp));
        }
        let retryable =
            resp.status == StatusCode::TOO_MANY_REQUESTS || (500..600).contains(&resp.status.0);
        if !retryable {
            return Verdict::Done(Err(ClientError::Status {
                status: resp.status,
                body: body_excerpt(&resp),
            }));
        }
        if attempt >= self.retry.max_attempts {
            if resp.status == StatusCode::TOO_MANY_REQUESTS {
                return Verdict::Done(Err(ClientError::RateLimited { attempts: attempt }));
            }
            return Verdict::Done(Err(ClientError::Status {
                status: resp.status,
                body: body_excerpt(&resp),
            }));
        }
        // An explicit server hint is an instruction, not a guess: it
        // is honoured as-is (capped), never jittered.
        let wait = match resp.retry_after() {
            Some(hint) => hint.min(self.retry.max_backoff),
            None => self.jittered_backoff(req, attempt),
        };
        note_retry(&resp.status.0.to_string(), wait);
        Verdict::Retry(wait)
    }

    /// POSTs a JSON document and decodes a JSON response, with retries.
    pub fn post_json<T: serde::Serialize, R: serde::de::DeserializeOwned>(
        &self,
        path: &str,
        body: &T,
    ) -> Result<R, ClientError> {
        let req = Request::post_json(path, body).map_err(ClientError::Json)?;
        let resp = self.send_with_retry(&req)?;
        resp.parse_json().map_err(ClientError::Json)
    }

    /// [`Self::post_json`] for mutually independent documents, through
    /// [`Self::send_pipelined`]; entry `i` answers `bodies[i]`.
    pub fn post_json_pipelined<T: serde::Serialize, R: serde::de::DeserializeOwned>(
        &self,
        path: &str,
        bodies: &[T],
    ) -> Vec<Result<R, ClientError>> {
        let reqs: Result<Vec<Request>, _> = bodies
            .iter()
            .map(|body| Request::post_json(path, body))
            .collect();
        match reqs {
            Ok(reqs) => self
                .send_pipelined(&reqs)
                .into_iter()
                .map(|sent| sent.and_then(|resp| resp.parse_json().map_err(ClientError::Json)))
                .collect(),
            // A document that does not encode fails on its own, one at a
            // time, exactly as `post_json` reports it.
            Err(_) => bodies
                .iter()
                .map(|body| self.post_json(path, body))
                .collect(),
        }
    }

    /// GETs a path and decodes a JSON response, with retries.
    pub fn get_json<R: serde::de::DeserializeOwned>(&self, path: &str) -> Result<R, ClientError> {
        let resp = self.send_with_retry(&Request::get(path))?;
        resp.parse_json().map_err(ClientError::Json)
    }

    /// Number of idle pooled connections (for tests and metrics).
    pub fn pooled_connections(&self) -> usize {
        self.pool.lock().len()
    }

    /// `req` as it goes on the wire: under this client's identity and,
    /// unless the caller set its own, with `trace` as its trace context.
    fn wire(&self, req: &Request, trace: sift_obs::SpanContext) -> Bytes {
        let mut req = req.clone();
        if let Some(id) = &self.identity {
            req.headers.set(FETCHER_IDENTITY_HEADER, id.clone());
        }
        if req.headers.get(X_SIFT_TRACE).is_none() {
            req.headers.set(X_SIFT_TRACE, trace.to_header());
        }
        serialize_request(&req)
    }

    fn connect(&self) -> Result<Conn, ClientError> {
        sift_obs::counter("sift_client_pool_total", &[("outcome", "miss")]).inc();
        let stream = TcpStream::connect(self.addr).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(ClientError::Io)?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        Ok(Conn {
            stream,
            buf: BytesMut::with_capacity(8 * 1024),
        })
    }

    /// Full-jitter exponential backoff: a uniform draw in `[0, backoff]`
    /// from a ChaCha8 stream keyed by (request, attempt) — deterministic
    /// per replay, decorrelated across requests.
    fn jittered_backoff(&self, req: &Request, attempt: u32) -> Duration {
        #[expect(clippy::cast_possible_truncation, reason = "backoff ms fit u64")]
        let span_ms = backoff_wait(&self.retry, attempt).as_millis() as u64;
        let key = request_key(&req.path, &req.body);
        let mut seed = [0u8; 32];
        seed[8..16].copy_from_slice(&key.to_le_bytes());
        seed[16..20].copy_from_slice(&attempt.to_le_bytes());
        // Domain tag ("JITR") keeps this stream disjoint from any other
        // stream seeded from the same request key.
        seed[24..28].copy_from_slice(&0x4a49_5452u32.to_le_bytes());
        let mut rng = ChaCha8Rng::from_seed(seed);
        Duration::from_millis(rng.next_u64() % (span_ms + 1))
    }
}

/// FNV-1a over route and body, with a separator so `("/a", b"b")` and
/// `("/ab", b"")` hash apart: the identity of a request across its
/// retries, which seeds its backoff jitter.
pub fn request_key(route: &str, body: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut step = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in route.bytes() {
        step(b);
    }
    step(0xff);
    for &b in body {
        step(b);
    }
    hash
}

/// Pure exponential backoff ceiling for `attempt` (the jitter draw spans
/// `[0, this]`; transport errors and `Retry-After`-less 429 storms land
/// here too).
fn backoff_wait(policy: &RetryPolicy, attempt: u32) -> Duration {
    let exp = policy
        .base_backoff
        .saturating_mul(1u32 << (attempt - 1).min(16));
    exp.min(policy.max_backoff)
}

/// Counts one retry decision. The attempt's span has closed by now, so
/// `retries` lands on the caller's span, whether the attempt went out
/// alone or pipelined.
fn note_retry(status: &str, wait: Duration) {
    sift_obs::attr_add("retries", 1);
    sift_obs::counter("sift_client_retries_total", &[("status", status)]).inc();
    sift_obs::histogram("sift_client_backoff_seconds", &[]).observe_duration(wait);
}

/// Reads until one whole response sits at the front of the connection's
/// buffer; bytes past it (the next pipelined reply) stay buffered.
fn read_response(conn: &mut Conn) -> Result<Response, ClientError> {
    loop {
        match parse_response(&mut conn.buf) {
            Ok(Some(resp)) => return Ok(resp),
            Ok(None) => {
                // Declared here: most pipelined replies are parsed out of
                // the buffer and never need it.
                let mut chunk = [0u8; 16 * 1024];
                let n = conn.stream.read(&mut chunk).map_err(ClientError::Io)?;
                if n == 0 {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    )));
                }
                conn.buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) => return Err(ClientError::Parse(e)),
        }
    }
}

fn body_excerpt(resp: &Response) -> String {
    let text = String::from_utf8_lossy(&resp.body);
    text.chars().take(200).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Method, MAX_SERVER_HINT};
    use crate::ratelimit::RateLimiterConfig;
    use crate::router::Router;
    use crate::server::Server;

    fn spawn_server() -> crate::server::ServerHandle {
        let router = Router::new()
            .route(Method::Get, "/ping", |_| {
                Response::text(StatusCode::OK, "pong")
            })
            .route(Method::Post, "/double", |req| {
                let n: u64 = req.json().expect("json body");
                Response::json(&(n * 2)).expect("encode")
            })
            .route(Method::Get, "/whoami", |req| {
                let id = req
                    .headers
                    .get(FETCHER_IDENTITY_HEADER)
                    .unwrap_or("anonymous")
                    .to_owned();
                Response::text(StatusCode::OK, id)
            })
            .route(Method::Get, "/fail", |_| {
                Response::text(StatusCode::INTERNAL_SERVER_ERROR, "always broken")
            });
        Server::new(router).bind("127.0.0.1:0").expect("bind")
    }

    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        }
    }

    #[test]
    fn get_and_pooling() {
        let h = spawn_server();
        let c = HttpClient::new(h.addr());
        for _ in 0..3 {
            let resp = c.send(&Request::get("/ping")).expect("send");
            assert_eq!(resp.status, StatusCode::OK);
            assert_eq!(&resp.body[..], b"pong");
        }
        assert_eq!(
            c.pooled_connections(),
            1,
            "connection reused, not re-opened"
        );
        h.shutdown();
    }

    #[test]
    fn typed_json_round_trip() {
        let h = spawn_server();
        let c = HttpClient::new(h.addr());
        let doubled: u64 = c.post_json("/double", &21u64).expect("post");
        assert_eq!(doubled, 42);
        h.shutdown();
    }

    #[test]
    fn identity_header_is_attached() {
        let h = spawn_server();
        let c = HttpClient::new(h.addr()).with_identity("127.0.0.42");
        let resp = c.send(&Request::get("/whoami")).expect("send");
        assert_eq!(&resp.body[..], b"127.0.0.42");
        h.shutdown();
    }

    #[test]
    fn non_retryable_status_is_an_error() {
        let h = spawn_server();
        let c = HttpClient::new(h.addr());
        let err = c.send_with_retry(&Request::get("/missing")).unwrap_err();
        match err {
            ClientError::Status { status, .. } => assert_eq!(status, StatusCode::NOT_FOUND),
            other => panic!("expected status error, got {other}"),
        }
        h.shutdown();
    }

    #[test]
    fn rate_limited_requests_retry_until_allowed() {
        let router = Router::new().route(Method::Get, "/ping", |_| {
            Response::text(StatusCode::OK, "pong")
        });
        let h = Server::new(router)
            .with_rate_limiter(RateLimiterConfig {
                capacity: 2.0,
                refill_per_sec: 50.0, // refills fast enough for the test
                ..RateLimiterConfig::default()
            })
            .bind("127.0.0.1:0")
            .expect("bind");
        let c = HttpClient::new(h.addr())
            .with_identity("unit-A")
            .with_retry(RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_millis(20),
                max_backoff: Duration::from_millis(100),
            });
        // Hammer past the burst capacity; retries absorb the 429s.
        for _ in 0..6 {
            let resp = c.send_with_retry(&Request::get("/ping")).expect("retry");
            assert_eq!(resp.status, StatusCode::OK);
        }
        h.shutdown();
    }

    #[test]
    fn stale_pooled_connection_recovers() {
        let h = spawn_server();
        let c = HttpClient::new(h.addr());
        let retried = HttpClient::new(h.addr());
        let _ = c.send(&Request::get("/ping")).expect("first");
        let _ = retried
            .send_with_retry(&Request::get("/ping"))
            .expect("first");
        assert_eq!(c.pooled_connections(), 1);
        // Kill the server; the pooled connection goes stale.
        let addr = h.addr();
        h.shutdown();
        // Restart on the same port (racy in principle; retry binds).
        let router = Router::new().route(Method::Get, "/ping", |_| {
            Response::text(StatusCode::OK, "pong2")
        });
        let h2 = Server::new(router)
            .bind(&addr.to_string())
            .expect("rebind same port");
        let resp = c.send(&Request::get("/ping")).expect("recovered send");
        assert_eq!(&resp.body[..], b"pong2");
        // Under retries the re-send on a fresh connection is still attempt
        // 1: the keep-alive race spends no attempt.
        let io = || sift_obs::counter("sift_client_retries_total", &[("status", "io")]).get();
        let before = io();
        let resp = retried
            .send_with_retry(&Request::get("/ping"))
            .expect("recovered retried send");
        assert_eq!(&resp.body[..], b"pong2");
        assert_eq!(io(), before, "the re-send spent no attempt");
        h2.shutdown();
    }

    #[test]
    fn server_hint_is_honoured_unjittered() {
        let mut resp = Response::text(StatusCode::TOO_MANY_REQUESTS, "slow down");
        resp.headers.set("retry-after", "2");
        assert_eq!(resp.retry_after(), Some(Duration::from_secs(2)));
        let resp = Response::text(StatusCode::INTERNAL_SERVER_ERROR, "oops");
        assert_eq!(resp.retry_after(), None);
        // The hintless ceiling is still the exponential curve.
        let policy = RetryPolicy::default();
        assert_eq!(backoff_wait(&policy, 1), policy.base_backoff);
        assert_eq!(backoff_wait(&policy, 3), policy.base_backoff * 4);
        assert!(backoff_wait(&policy, 30) <= policy.max_backoff);
    }

    /// Regression (`Retry-After` robustness): malformed, empty, or
    /// absurdly large header values must degrade to the jittered-backoff
    /// path (hint absent) or be capped — never trusted verbatim.
    #[test]
    fn server_hint_rejects_garbage_and_caps_huge_values() {
        let hint = |value: &str| {
            let mut resp = Response::text(StatusCode::TOO_MANY_REQUESTS, "slow down");
            resp.headers.set("retry-after", value);
            resp.retry_after()
        };
        // Garbage of every flavour parses as absent.
        assert_eq!(hint(""), None);
        assert_eq!(hint("   "), None);
        assert_eq!(hint("soon"), None);
        assert_eq!(hint("2.5"), None);
        assert_eq!(hint("-1"), None);
        assert_eq!(hint("1e9"), None);
        assert_eq!(hint("Fri, 31 Dec 1999 23:59:59 GMT"), None);
        // Overflow past u64 is a parse failure, not a huge wait.
        assert_eq!(hint("99999999999999999999999999"), None);
        // Valid values survive (whitespace-tolerant)...
        assert_eq!(hint("2"), Some(Duration::from_secs(2)));
        assert_eq!(hint(" 7 "), Some(Duration::from_secs(7)));
        // ...but are capped: a week-long hint becomes the ceiling.
        assert_eq!(hint("604800"), Some(MAX_SERVER_HINT));
        assert_eq!(hint(&u64::MAX.to_string()), Some(MAX_SERVER_HINT));
        // And the retry loop caps the hint again with its own policy.
        let policy = RetryPolicy::default();
        let wait = hint("604800").expect("capped hint").min(policy.max_backoff);
        assert_eq!(wait, policy.max_backoff);
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let h = spawn_server();
        let a = HttpClient::new(h.addr());
        let b = HttpClient::new(h.addr());
        let req = Request::get("/ping");
        let other = Request::get("/whoami");
        let mut requests_differ = false;
        for attempt in 1..=6 {
            let wa = a.jittered_backoff(&req, attempt);
            let wb = b.jittered_backoff(&req, attempt);
            assert_eq!(wa, wb, "same request, same attempt");
            assert!(
                wa <= backoff_wait(&a.retry, attempt),
                "full jitter stays in range"
            );
            if a.jittered_backoff(&other, attempt) != wa {
                requests_differ = true;
            }
        }
        assert!(requests_differ, "different requests decorrelate");
        h.shutdown();
    }

    fn doubles(range: std::ops::Range<u64>) -> Vec<Request> {
        range
            .map(|n| Request::post_json("/double", &n).expect("encode"))
            .collect()
    }

    fn doubled(sent: &Result<Response, ClientError>) -> u64 {
        sent.as_ref()
            .expect("settled")
            .parse_json()
            .expect("json reply")
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_on_one_connection() {
        let h = spawn_server();
        let c = HttpClient::new(h.addr());
        for _ in 0..3 {
            let results = c.send_pipelined(&doubles(0..40));
            let answers: Vec<u64> = results.iter().map(doubled).collect();
            assert_eq!(answers, (0..40).map(|n| n * 2).collect::<Vec<_>>());
            assert_eq!(c.pooled_connections(), 1, "one connection, kept");
        }
        // An empty batch and a lone request are fine too.
        assert!(c.send_pipelined(&[]).is_empty());
        assert_eq!(doubled(&c.send_pipelined(&doubles(7..8))[0]), 14);
        // Statuses come back per request, in place.
        let mixed = [
            Request::get("/ping"),
            Request::get("/missing"),
            Request::get("/ping"),
        ];
        let results = c.send_pipelined(&mixed);
        assert!(results[0].is_ok() && results[2].is_ok());
        assert!(matches!(
            &results[1],
            Err(ClientError::Status { status, .. }) if *status == StatusCode::NOT_FOUND
        ));
        assert_eq!(c.pooled_connections(), 1);
        h.shutdown();
    }

    #[test]
    fn full_windows_against_large_replies_do_not_deadlock() {
        // Each reply is far larger than any socket buffer, and each
        // window of requests fills `PIPELINE_WINDOW_BYTES`: were requests
        // written without bound, both ends would block on their writes.
        let router = Router::new().route(Method::Post, "/inflate", |req| Response {
            status: StatusCode::OK,
            headers: crate::http::Headers::new(),
            body: vec![req.body[0]; 2 * 1024 * 1024].into(),
        });
        let h = Server::new(router).bind("127.0.0.1:0").expect("bind");
        let c = HttpClient::new(h.addr()).with_timeout(Duration::from_secs(10));
        let sized = |i: u8, len: usize| Request {
            method: Method::Post,
            path: "/inflate".into(),
            headers: crate::http::Headers::new(),
            body: vec![i; len].into(),
        };
        // Four to a window, then one request larger than the window on
        // its own, then more.
        let mut reqs: Vec<Request> = (0..10).map(|i| sized(i, 3_900)).collect();
        reqs.push(sized(10, 8 * PIPELINE_WINDOW_BYTES));
        reqs.extend((11..16).map(|i| sized(i, 3_900)));
        let results = c.send_pipelined(&reqs);
        for (i, sent) in results.iter().enumerate() {
            let resp = sent.as_ref().expect("no timeout, no deadlock");
            assert_eq!(resp.body.len(), 2 * 1024 * 1024);
            assert_eq!(usize::from(resp.body[0]), i, "replies in request order");
        }
        h.shutdown();
    }

    #[test]
    fn trace_context_joins_client_and_server_spans() {
        let h = spawn_server();
        let c = HttpClient::new(h.addr());
        let tid = {
            let root = sift_obs::span_recorded("client-server-trace-test");
            let resp = c.send_with_retry(&Request::get("/ping")).expect("send");
            assert_eq!(resp.status, StatusCode::OK);
            root.context().trace_id
        };
        let trace =
            sift_obs::trace::wait_completed(tid, Duration::from_secs(5)).expect("trace completed");
        let request = trace
            .spans
            .iter()
            .find(|s| s.name == "request")
            .expect("attempt span recorded");
        assert_eq!(request.arg("attempt"), Some(1));
        assert!(request.arg("bytes").is_some(), "response bytes attributed");
        let serve = trace
            .spans
            .iter()
            .find(|s| s.name == "serve")
            .expect("server span joined the client trace");
        assert_eq!(
            serve.parent_id,
            Some(request.span_id),
            "serve parents onto the exact attempt"
        );
        assert_eq!(serve.arg("status"), Some(200));
        assert!(trace.orphans().is_empty());
        h.shutdown();
    }

    #[test]
    fn a_bare_send_stamps_a_fresh_root_and_records_only_under_a_recording_root() {
        // The handler answers with the trace context its request carried.
        let router = Router::new().route(Method::Get, "/trace", |req| {
            let carried = req.headers.get(X_SIFT_TRACE).unwrap_or("").to_owned();
            Response::text(StatusCode::OK, carried)
        });
        let h = Server::new(router).bind("127.0.0.1:0").expect("bind");
        let c = HttpClient::new(h.addr());
        let carried = |resp: &Response| {
            sift_obs::SpanContext::from_header(&String::from_utf8_lossy(&resp.body))
                .expect("the request carried a trace context")
        };

        // With no span open, the send roots a trace of its own, stamps it
        // on the request, and records nothing.
        assert_eq!(sift_obs::SpanContext::current(), None, "no span is open");
        let bare = carried(&c.send(&Request::get("/trace")).expect("send"));
        assert!(!bare.is_recorded());
        assert!(sift_obs::trace::wait_completed(bare.trace_id, Duration::from_secs(5)).is_none());

        // Under a recording root, the same send records exactly one
        // `request` span, and the server's `serve` span joins it.
        let root = sift_obs::span_recorded("bare-send-test");
        let root_ctx = root.context();
        let sent = carried(&c.send(&Request::get("/trace")).expect("send"));
        drop(root);
        assert_eq!(sent.trace_id, root_ctx.trace_id);
        let trace = sift_obs::trace::wait_completed(sent.trace_id, Duration::from_secs(5))
            .expect("trace completed");
        let requests: Vec<_> = trace.spans.iter().filter(|s| s.name == "request").collect();
        assert_eq!(requests.len(), 1, "exactly one request span");
        let request = requests[0];
        assert_eq!(request.span_id, sent.span_id);
        assert_eq!(request.parent_id, Some(root_ctx.span_id));
        assert_eq!(request.arg("attempt"), Some(1));
        assert!(request.arg("bytes").is_some(), "response bytes attributed");
        let serve = trace
            .spans
            .iter()
            .find(|s| s.name == "serve")
            .expect("server span joined the client trace");
        assert_eq!(serve.parent_id, Some(request.span_id));
        assert!(trace.orphans().is_empty());
        h.shutdown();
    }

    #[test]
    fn retries_are_counted_on_the_callers_span_whether_lone_or_pipelined() {
        let h = spawn_server();
        let c = HttpClient::new(h.addr()).with_retry(fast_retry(3));
        let traced = |send: &dyn Fn()| {
            let root = sift_obs::span_recorded("retries-test");
            let tid = root.context().trace_id;
            send();
            drop(root);
            sift_obs::trace::wait_completed(tid, Duration::from_secs(5)).expect("trace completed")
        };
        let lone = traced(&|| {
            let failed = c.send_with_retry(&Request::get("/fail"));
            assert!(matches!(failed, Err(ClientError::Status { .. })));
        });
        let pipelined = traced(&|| {
            let failed = c.send_pipelined(&[Request::get("/fail"), Request::get("/fail")]);
            assert!(failed
                .iter()
                .all(|r| matches!(r, Err(ClientError::Status { .. }))));
        });
        // Two retries per request, each noted after its attempt's span
        // closed: on the caller's span, never on a `request` span.
        for (trace, retries) in [(lone, 2), (pipelined, 4)] {
            let root = trace.root().expect("rooted");
            assert_eq!(root.name, "retries-test");
            assert_eq!(root.arg("retries"), Some(retries));
            assert!(trace
                .spans
                .iter()
                .filter(|s| s.name == "request")
                .all(|s| s.arg("retries").is_none()));
        }
        h.shutdown();
    }
}
