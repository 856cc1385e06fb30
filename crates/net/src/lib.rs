//! Networking substrate: a small, dependency-light HTTP/1.1 stack.
//!
//! SIFT's collection module crawls the trends service over HTTP, subject
//! to IP-based rate limiting (§4, *Implementation*). No HTTP crate is in
//! the sanctioned dependency set, so this crate implements the slice of
//! HTTP/1.1 the system needs, production-grade within that slice:
//!
//! * [`http`] — request/response types, an incremental zero-copy-ish
//!   parser over [`bytes`], and serializers; `Content-Length` framing,
//!   keep-alive and `Connection: close`, hard limits on head and body
//!   sizes.
//! * [`server`] — a threaded TCP server: acceptor thread + worker pool fed
//!   over a crossbeam channel, per-connection keep-alive loops that
//!   dispatch each pipelined batch on every core, graceful shutdown.
//! * [`router`] — exact-match method/path routing with typed JSON helpers.
//! * [`client`] — a pooling, retrying client with timeouts; honours
//!   `Retry-After` on 429 responses, applies full-jitter backoff, and
//!   pipelines independent requests over one keep-alive connection.
//! * [`admission`] — server-side admission control: bounded accept queue
//!   and in-flight cap shedding excess load with `503 + Retry-After`,
//!   graceful drain.
//! * [`ratelimit`] — the per-client token-bucket limiter the service runs,
//!   which is exactly why the paper's fetcher spreads load across units
//!   "hosted behind separate IP addresses".
//!
//! Threads rather than an async runtime: the workload is a few dozen
//! long-lived connections moving small JSON bodies, squarely in the regime
//! where the async-Rust guides themselves recommend blocking I/O on a
//! thread pool over pulling in a runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod http;
pub mod obs;
pub mod ratelimit;
pub mod router;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionController, ParkedSlot, ShedReason};
pub use client::{ClientError, HttpClient, RetryPolicy};
pub use http::{Headers, Method, ParseError, Request, Response, StatusCode};
pub use obs::{mount_observability, METRICS_CONTENT_TYPE};
pub use ratelimit::{RateLimitDecision, RateLimiter, RateLimiterConfig};
pub use router::Router;
pub use server::{Server, ServerHandle};

/// The header a fetcher unit uses to declare its source identity.
///
/// The paper's collection module hosts fetcher units "behind separate IP
/// addresses" to spread the service's IP-keyed rate limiting. The standard
/// library cannot bind a specific source address before connecting, so
/// units declare their identity in this header and the service's limiter
/// keys on it (falling back to the TCP peer address when absent) — the
/// same mechanism, observable end-to-end over real sockets. See DESIGN.md.
pub const FETCHER_IDENTITY_HEADER: &str = "x-fetcher-ip";

/// The header carrying a request's trace context across the HTTP
/// boundary.
///
/// Value format: `<trace_id hex16>-<span_id hex16>`
/// ([`sift_obs::SpanContext::to_header`]). Every attempt the client makes,
/// lone, retried or pipelined, opens its own attempt-numbered `request`
/// span (a child of the caller's span, or a trace root when none is open)
/// and stamps that span here, so each attempt's server-side work parents
/// onto that very attempt. The server reopens the context around
/// dispatch, joining fetcher → HTTP → trends spans into one trace tree
/// even across retries and fault-injected replays, recorded when the
/// client's trace is (the top bit of the trace id). A
/// missing or malformed header starts a detached, unrecorded server-side
/// trace; it never fails the request.
pub const X_SIFT_TRACE: &str = "x-sift-trace";
