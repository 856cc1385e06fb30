//! Fetcher units: named identities crawling the service.
//!
//! The client abstraction itself ([`TrendsClient`], [`FetchError`]) lives
//! in `sift-trends`; this module provides the two deployable unit kinds —
//! in-process (labelled) and HTTP.

use sift_geo::State;
use sift_net::{CircuitBreaker, ClientError, HttpClient};
use sift_simtime::Hour;
use sift_trends::{
    FrameRequest, FrameResponse, RisingRequest, RisingResponse, ServiceError, TrendsService,
};
use std::sync::Arc;

pub use sift_trends::client::{FetchError, TrendsClient};

/// In-process access to the service under a distinct unit identity.
///
/// Useful to run the full multi-unit collection machinery without sockets
/// (and in tests).
pub struct InProcessClient {
    service: Arc<TrendsService>,
    identity: String,
}

impl InProcessClient {
    /// Wraps a shared service under the default identity.
    pub fn new(service: Arc<TrendsService>) -> Self {
        Self::with_identity(service, "in-process")
    }

    /// Wraps a shared service under an explicit unit identity.
    pub fn with_identity(service: Arc<TrendsService>, identity: impl Into<String>) -> Self {
        InProcessClient {
            service,
            identity: identity.into(),
        }
    }
}

impl TrendsClient for InProcessClient {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        self.service.fetch_frame(req).map_err(FetchError::Service)
    }

    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
        self.service.fetch_rising(req).map_err(FetchError::Service)
    }

    fn identity(&self) -> &str {
        &self.identity
    }
}

/// The wire envelope the HTTP endpoints answer with: the payload or a
/// typed service error. Shared with [`crate::serve`].
#[derive(serde::Serialize, serde::Deserialize)]
pub(crate) enum ApiResult<T> {
    /// Success payload.
    Ok(T),
    /// Service-level rejection.
    Err(ServiceError),
}

/// Access to the service over HTTP, crawling under a declared fetcher
/// identity. Retries, `Retry-After` handling and circuit breaking come
/// from the underlying [`HttpClient`] policy.
pub struct HttpTrendsClient {
    client: HttpClient,
    identity: String,
    breaker: Option<Arc<CircuitBreaker>>,
}

impl HttpTrendsClient {
    /// A unit crawling `addr` under `identity` (e.g. `"127.0.0.7"`).
    pub fn new(addr: std::net::SocketAddr, identity: impl Into<String>) -> Self {
        let identity = identity.into();
        HttpTrendsClient {
            client: HttpClient::new(addr).with_identity(identity.clone()),
            identity,
            breaker: None,
        }
    }

    /// Replaces the underlying client's retry policy.
    pub fn with_retry(mut self, retry: sift_net::RetryPolicy) -> Self {
        self.client = self.client.with_retry(retry);
        self
    }

    /// Routes every request through `breaker` and reflects its state in
    /// [`TrendsClient::healthy`]. Share one breaker across a unit fleet
    /// (and the collection queue) so an outage observed by any unit
    /// pauses them all.
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> Self {
        self.client = self.client.with_breaker(Arc::clone(&breaker));
        self.breaker = Some(breaker);
        self
    }
}

/// A body that decodes but echoes other coordinates than the request's
/// is a transport failure, like a garbled one: callers retry or degrade
/// on those, whereas a wrong frame handed back as a success is journaled
/// and then refused by the stitcher on every replay.
fn answers_another_request(path: &str, state: State, start: Hour) -> FetchError {
    FetchError::Transport(format!(
        "{path} answered a different request than {state} from {start}"
    ))
}

/// What the `/api/frame` reply to `req` amounts to.
fn frame_of(
    req: &FrameRequest,
    reply: Result<ApiResult<FrameResponse>, ClientError>,
) -> Result<FrameResponse, FetchError> {
    match reply.map_err(|e| FetchError::Transport(e.to_string()))? {
        ApiResult::Ok(resp)
            if (resp.state, resp.start) != (req.state, req.start)
                || u32::try_from(resp.values.len()) != Ok(req.len) =>
        {
            Err(answers_another_request("/api/frame", req.state, req.start))
        }
        ApiResult::Ok(resp) => {
            sift_obs::attr_add("frames", 1);
            Ok(resp)
        }
        ApiResult::Err(e) => Err(FetchError::Service(e)),
    }
}

/// What the `/api/rising` reply to `req` amounts to.
fn rising_of(
    req: &RisingRequest,
    reply: Result<ApiResult<RisingResponse>, ClientError>,
) -> Result<RisingResponse, FetchError> {
    match reply.map_err(|e| FetchError::Transport(e.to_string()))? {
        ApiResult::Ok(resp) if (resp.state, resp.start) != (req.state, req.start) => {
            Err(answers_another_request("/api/rising", req.state, req.start))
        }
        ApiResult::Ok(resp) => Ok(resp),
        ApiResult::Err(e) => Err(FetchError::Service(e)),
    }
}

impl TrendsClient for HttpTrendsClient {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        // Child of the queue worker's restored fetch span (same thread),
        // so each frame's HTTP attempts hang off the run's trace.
        let _span = sift_obs::span("frame");
        frame_of(req, self.client.post_json("/api/frame", req))
    }

    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
        let _span = sift_obs::span("rising");
        rising_of(req, self.client.post_json("/api/rising", req))
    }

    /// One pipelined exchange on the keep-alive connection (see
    /// [`HttpClient::send_pipelined`]); every reply goes through the same
    /// checks as a lone [`Self::fetch_frame`]'s.
    fn fetch_frames(&self, reqs: &[FrameRequest]) -> Vec<Result<FrameResponse, FetchError>> {
        let _span = sift_obs::span("frame");
        let replies = self.client.post_json_pipelined("/api/frame", reqs);
        reqs.iter()
            .zip(replies)
            .map(|(req, reply)| frame_of(req, reply))
            .collect()
    }

    fn fetch_risings(&self, reqs: &[RisingRequest]) -> Vec<Result<RisingResponse, FetchError>> {
        let _span = sift_obs::span("rising");
        let replies = self.client.post_json_pipelined("/api/rising", reqs);
        reqs.iter()
            .zip(replies)
            .map(|(req, reply)| rising_of(req, reply))
            .collect()
    }

    fn identity(&self) -> &str {
        &self.identity
    }

    fn healthy(&self) -> bool {
        // A peek, not an admission: half-open probe slots stay available
        // for the request that actually goes out.
        self.breaker.as_ref().map_or(true, |b| b.would_allow())
    }
}

/// Spreads requests across several fetcher units round-robin.
///
/// This is how a study is pointed at the whole unit fleet: wrap the units
/// and hand the combinator to `sift_core::run_study`. Because responses
/// are determined by request coordinates and tag — not by which unit asks
/// — the distribution order does not affect results, only throughput
/// (each unit has its own rate-limit bucket).
pub struct RoundRobin {
    units: Vec<Arc<dyn TrendsClient>>,
    next: std::sync::atomic::AtomicUsize,
    identity: String,
}

impl RoundRobin {
    /// Builds a combinator over at least one unit.
    pub fn new(units: Vec<Arc<dyn TrendsClient>>) -> Self {
        assert!(!units.is_empty(), "at least one fetcher unit required");
        let identity = format!("round-robin({})", units.len());
        RoundRobin {
            units,
            next: std::sync::atomic::AtomicUsize::new(0),
            identity,
        }
    }

    fn pick(&self) -> &dyn TrendsClient {
        let i = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.units[i % self.units.len()].as_ref()
    }
}

impl TrendsClient for RoundRobin {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        self.pick().fetch_frame(req)
    }

    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
        self.pick().fetch_rising(req)
    }

    // A batch goes to one unit whole: splitting it would trade its single
    // exchange for one per unit.
    fn fetch_frames(&self, reqs: &[FrameRequest]) -> Vec<Result<FrameResponse, FetchError>> {
        self.pick().fetch_frames(reqs)
    }

    fn fetch_risings(&self, reqs: &[RisingRequest]) -> Vec<Result<RisingResponse, FetchError>> {
        self.pick().fetch_risings(reqs)
    }

    fn identity(&self) -> &str {
        &self.identity
    }

    fn healthy(&self) -> bool {
        // The fleet is healthy while any unit would still attempt work.
        self.units.iter().any(|u| u.healthy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_trends::{Scenario, SearchTerm};

    fn service() -> Arc<TrendsService> {
        Arc::new(TrendsService::with_defaults(Scenario::single_region(
            State::CA,
            vec![],
        )))
    }

    #[test]
    fn in_process_client_round_trips() {
        let c = InProcessClient::with_identity(service(), "unit-3");
        let resp = c
            .fetch_frame(&FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::CA,
                start: Hour(0),
                len: 168,
                tag: 0,
            })
            .expect("frame");
        assert_eq!(resp.values.len(), 168);
        assert_eq!(c.identity(), "unit-3");
    }

    #[test]
    fn round_robin_spreads_requests() {
        let service = service();
        let units: Vec<Arc<dyn TrendsClient>> = (0..3)
            .map(|i| {
                Arc::new(InProcessClient::with_identity(
                    Arc::clone(&service),
                    format!("unit-{i}"),
                )) as Arc<dyn TrendsClient>
            })
            .collect();
        let rr = RoundRobin::new(units);
        assert_eq!(rr.identity(), "round-robin(3)");
        let req = FrameRequest {
            term: SearchTerm::parse("topic:Internet outage"),
            state: State::CA,
            start: Hour(0),
            len: 168,
            tag: 0,
        };
        let a = rr.fetch_frame(&req).expect("frame");
        let b = rr.fetch_frame(&req).expect("frame");
        assert_eq!(a, b, "unit choice must not change the sample");
        assert_eq!(service.stats().frames_served, 2);
    }

    #[test]
    fn round_robin_hands_a_batch_to_one_unit_whole() {
        /// Counts what reaches it through each entry.
        struct Counting {
            inner: Arc<TrendsService>,
            single: std::sync::atomic::AtomicUsize,
            batches: std::sync::Mutex<Vec<usize>>,
        }
        impl TrendsClient for Counting {
            fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
                self.single
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.inner.fetch_frame(req).map_err(FetchError::Service)
            }
            fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
                self.inner.fetch_rising(req).map_err(FetchError::Service)
            }
            fn fetch_frames(
                &self,
                reqs: &[FrameRequest],
            ) -> Vec<Result<FrameResponse, FetchError>> {
                self.batches.lock().expect("lock").push(reqs.len());
                reqs.iter()
                    .map(|r| self.inner.fetch_frame(r).map_err(FetchError::Service))
                    .collect()
            }
        }
        let service = service();
        let units: Vec<Arc<Counting>> = (0..2)
            .map(|_| {
                Arc::new(Counting {
                    inner: Arc::clone(&service),
                    single: std::sync::atomic::AtomicUsize::new(0),
                    batches: std::sync::Mutex::new(Vec::new()),
                })
            })
            .collect();
        let rr = RoundRobin::new(
            units
                .iter()
                .map(|u| Arc::clone(u) as Arc<dyn TrendsClient>)
                .collect(),
        );
        let reqs: Vec<FrameRequest> = (0..5)
            .map(|i| FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::CA,
                start: Hour(i * 100),
                len: 168,
                tag: 0,
            })
            .collect();
        let first = rr.fetch_frames(&reqs);
        let second = rr.fetch_frames(&reqs[..2]);
        assert!(first.iter().chain(&second).all(Result::is_ok));
        for (unit, batches) in units.iter().zip([vec![5], vec![2]]) {
            assert_eq!(*unit.batches.lock().expect("lock"), batches);
            assert_eq!(unit.single.load(std::sync::atomic::Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn in_process_client_surfaces_service_errors() {
        let c = InProcessClient::new(service());
        let err = c
            .fetch_frame(&FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::CA,
                start: Hour(0),
                len: 1000,
                tag: 0,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            FetchError::Service(ServiceError::FrameTooLong { .. })
        ));
        assert!(err.to_string().contains("168"));
    }
}
