//! Fetcher units: named identities crawling the service.
//!
//! The client abstraction itself ([`TrendsClient`], [`FetchError`]) lives
//! in `sift-trends`; this module provides the two deployable unit kinds —
//! in-process (labelled) and HTTP.

use sift_geo::State;
use sift_net::{ClientError, HttpClient};
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
/// identity. Retries and `Retry-After` handling come from the underlying
/// [`HttpClient`] policy.
pub struct HttpTrendsClient {
    client: HttpClient,
    identity: String,
}

impl HttpTrendsClient {
    /// A unit crawling `addr` under `identity` (e.g. `"127.0.0.7"`).
    pub fn new(addr: std::net::SocketAddr, identity: impl Into<String>) -> Self {
        let identity = identity.into();
        HttpTrendsClient {
            client: HttpClient::new(addr).with_identity(identity.clone()),
            identity,
        }
    }

    /// Replaces the underlying client's retry policy.
    pub fn with_retry(mut self, retry: sift_net::RetryPolicy) -> Self {
        self.client = self.client.with_retry(retry);
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
        // Child of the caller's fetch span (same thread), so each frame's
        // HTTP attempts hang off the run's trace.
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

    /// The next unit in rotation.
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
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::test_runner::TestRng;
    use sift_trends::{Scenario, SearchTerm};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// `value` encodes to `doc`, the document the `Value`-tree codec wrote
    /// before the direct one replaced it, and `doc` decodes back to it.
    #[track_caller]
    fn assert_pinned<T>(value: &ApiResult<T>, doc: &str)
    where
        T: serde::Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
    {
        assert_eq!(serde_json::to_string(value).expect("encode"), doc);
        let back: ApiResult<T> = serde_json::from_str(doc).expect("decode");
        match (&back, value) {
            (ApiResult::Ok(a), ApiResult::Ok(b)) => assert_eq!(a, b),
            (ApiResult::Err(a), ApiResult::Err(b)) => assert_eq!(a, b),
            _ => panic!("{doc} decoded to the other variant"),
        }
    }

    /// `value` encodes to the `Value` tree's bytes, and its document
    /// decodes as the tree decodes it.
    #[track_caller]
    pub(crate) fn assert_one_codec<T>(value: &T)
    where
        T: serde::Serialize + serde::de::DeserializeOwned,
    {
        let direct = serde_json::to_string(value).expect("encode");
        let tree = serde_json::to_value(value).expect("tree");
        assert_eq!(direct, serde_json::to_string(&tree).expect("encode"));
        let back: T = serde_json::from_str(&direct).expect("decode");
        let oracle: T = serde_json::from_value(tree).expect("decode");
        assert_eq!(
            serde_json::to_string(&back).expect("encode"),
            serde_json::to_string(&oracle).expect("encode")
        );
    }

    pub(crate) fn any_text(rng: &mut TestRng) -> String {
        const PIECES: [&str; 6] = ["a", " ", "\"", "\\", "\u{1}", "é☃"];
        (0..rng.below(4))
            .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
            .collect()
    }

    pub(crate) fn any_frame(rng: &mut TestRng) -> FrameResponse {
        FrameResponse {
            term: match rng.below(2) {
                0 => SearchTerm::Topic(sift_trends::terms::Topic::InternetOutage),
                _ => SearchTerm::Query(any_text(rng)),
            },
            state: State::from_index(rng.below(51) as usize),
            start: Hour(rng.next_u64() as i64 >> rng.below(64)),
            values: (0..rng.below(169)).map(|_| rng.below(256) as u8).collect(),
        }
    }

    pub(crate) fn any_rising(rng: &mut TestRng) -> RisingResponse {
        RisingResponse {
            state: State::from_index(rng.below(51) as usize),
            start: Hour(rng.next_u64() as i64 >> rng.below(64)),
            rising: (0..rng.below(4))
                .map(|_| sift_trends::RisingTerm {
                    term: any_text(rng),
                    weight: rng.next_u32(),
                })
                .collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(128))]

        #[test]
        fn reply_envelopes_take_one_codec(seed in proptest::arbitrary::any::<u64>()) {
            let rng = &mut TestRng::new(seed);
            assert_one_codec(&ApiResult::<FrameResponse>::Ok(any_frame(rng)));
            assert_one_codec(&ApiResult::<RisingResponse>::Ok(any_rising(rng)));
            let err = ServiceError::FrameTooLong {
                requested: rng.next_u32(),
                max: rng.next_u32(),
            };
            assert_one_codec(&ApiResult::<FrameResponse>::Err(err));
            assert_one_codec(&ApiResult::<RisingResponse>::Err(ServiceError::EmptyFrame));
        }
    }

    #[test]
    fn reply_documents_match_the_previous_codec() {
        let frame = ApiResult::Ok(FrameResponse {
            term: SearchTerm::Topic(sift_trends::terms::Topic::InternetOutage),
            state: State::CA,
            start: Hour(9874),
            values: vec![0, 100, 37, 255],
        });
        assert_pinned(
            &frame,
            r#"{"Ok":{"term":{"Topic":"InternetOutage"},"state":"CA","start":9874,"values":[0,100,37,255]}}"#,
        );
        let too_long = ApiResult::<FrameResponse>::Err(ServiceError::FrameTooLong {
            requested: 200,
            max: 168,
        });
        assert_pinned(
            &too_long,
            r#"{"Err":{"FrameTooLong":{"requested":200,"max":168}}}"#,
        );
        let empty = ApiResult::<FrameResponse>::Err(ServiceError::EmptyFrame);
        assert_pinned(&empty, r#"{"Err":"EmptyFrame"}"#);
    }

    fn service() -> Arc<TrendsService> {
        Arc::new(TrendsService::with_defaults(Scenario::single_region(
            State::CA,
            vec![],
        )))
    }

    /// An in-process unit that counts what reaches it through each entry.
    pub(crate) struct Counting {
        inner: Arc<TrendsService>,
        /// Single-frame calls.
        pub(crate) single: AtomicUsize,
        /// The size of each `fetch_frames` batch, in call order.
        pub(crate) batches: Mutex<Vec<usize>>,
    }

    impl Counting {
        pub(crate) fn new(inner: Arc<TrendsService>) -> Self {
            Counting {
                inner,
                single: AtomicUsize::new(0),
                batches: Mutex::new(Vec::new()),
            }
        }
    }

    impl TrendsClient for Counting {
        fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
            self.single.fetch_add(1, Ordering::Relaxed);
            self.inner.fetch_frame(req).map_err(FetchError::Service)
        }
        fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
            self.inner.fetch_rising(req).map_err(FetchError::Service)
        }
        fn fetch_frames(&self, reqs: &[FrameRequest]) -> Vec<Result<FrameResponse, FetchError>> {
            self.batches.lock().expect("lock").push(reqs.len());
            reqs.iter()
                .map(|r| self.inner.fetch_frame(r).map_err(FetchError::Service))
                .collect()
        }
    }

    fn frame_requests(n: i64) -> Vec<FrameRequest> {
        (0..n)
            .map(|i| FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::CA,
                start: Hour(i * 100),
                len: 168,
                tag: 0,
            })
            .collect()
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
        let service = service();
        let units: Vec<Arc<Counting>> = (0..2)
            .map(|_| Arc::new(Counting::new(Arc::clone(&service))))
            .collect();
        let rr = RoundRobin::new(
            units
                .iter()
                .map(|u| Arc::clone(u) as Arc<dyn TrendsClient>)
                .collect(),
        );
        let reqs = frame_requests(5);
        let first = rr.fetch_frames(&reqs);
        let second = rr.fetch_frames(&reqs[..2]);
        assert!(first.iter().chain(&second).all(Result::is_ok));
        for (unit, batches) in units.iter().zip([vec![5], vec![2]]) {
            assert_eq!(*unit.batches.lock().expect("lock"), batches);
            assert_eq!(unit.single.load(Ordering::Relaxed), 0);
        }
    }

    /// A unit whose every fetch fails at the transport, after whatever
    /// retries its client made; `healthy` is what it reports.
    pub(crate) struct Failing {
        pub(crate) healthy: bool,
    }

    impl TrendsClient for Failing {
        fn fetch_frame(&self, _: &FrameRequest) -> Result<FrameResponse, FetchError> {
            Err(FetchError::Transport("injected reset".into()))
        }
        fn fetch_rising(&self, _: &RisingRequest) -> Result<RisingResponse, FetchError> {
            Err(FetchError::Transport("injected reset".into()))
        }
        fn healthy(&self) -> bool {
            self.healthy
        }
    }

    #[test]
    fn round_robin_takes_turns_even_past_an_unhealthy_unit() {
        let up = Arc::new(Counting::new(service()));
        let rr = RoundRobin::new(vec![
            Arc::new(Failing { healthy: false }) as Arc<dyn TrendsClient>,
            Arc::clone(&up) as Arc<dyn TrendsClient>,
        ]);
        let reqs = frame_requests(3);
        assert!(rr.fetch_frames(&reqs).iter().all(Result::is_err));
        assert!(rr.fetch_frames(&reqs[..2]).iter().all(Result::is_ok));
        assert!(rr.fetch_frames(&reqs).iter().all(Result::is_err));
        assert_eq!(*up.batches.lock().expect("lock"), vec![2]);
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
