//! The client abstraction over the trends service.
//!
//! The SIFT pipeline is agnostic to *how* it reaches the service: directly
//! in-process (the experiments harness's fast path) or over HTTP through
//! fetcher units (the deployment path, implemented in `sift-fetcher`).
//! Both implement [`TrendsClient`].

use crate::api::{FrameRequest, FrameResponse, RisingRequest, RisingResponse};
use crate::service::{ServiceError, TrendsService};
use std::fmt;

/// Errors surfaced while fetching from the service.
#[derive(Debug)]
pub enum FetchError {
    /// The service rejected the request (frame limits etc.).
    Service(ServiceError),
    /// Transport-level failure (HTTP path).
    Transport(String),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Service(e) => write!(f, "service error: {e}"),
            FetchError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// Anything that can answer trends requests.
pub trait TrendsClient: Send + Sync {
    /// Fetches one indexed time frame.
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError>;
    /// Fetches the rising suggestions of a frame.
    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError>;
    /// Fetches mutually independent frames — a re-fetch round's — in one
    /// call; entry `i` answers `reqs[i]` exactly as [`Self::fetch_frame`]
    /// would have. A client whose transport can overlap requests
    /// overrides this; the default asks one at a time.
    fn fetch_frames(&self, reqs: &[FrameRequest]) -> Vec<Result<FrameResponse, FetchError>> {
        reqs.iter().map(|req| self.fetch_frame(req)).collect()
    }
    /// [`Self::fetch_frames`] for rising suggestions.
    fn fetch_risings(&self, reqs: &[RisingRequest]) -> Vec<Result<RisingResponse, FetchError>> {
        reqs.iter().map(|req| self.fetch_rising(req)).collect()
    }
    /// The identity this client crawls under (diagnostics, rate-limit
    /// keying on the HTTP path).
    fn identity(&self) -> &str {
        "anonymous"
    }
    /// Whether the client believes a request would currently be attempted.
    ///
    /// The HTTP path overrides this with its circuit-breaker state so
    /// orchestration layers (the fetcher queue, the re-fetch loop) can
    /// shed or pause optional work instead of queueing doomed requests
    /// behind an open breaker. Must not mutate breaker state: it is a
    /// peek, not an admission.
    fn healthy(&self) -> bool {
        true
    }
}

impl TrendsClient for TrendsService {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        TrendsService::fetch_frame(self, req).map_err(FetchError::Service)
    }

    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
        TrendsService::fetch_rising(self, req).map_err(FetchError::Service)
    }

    fn identity(&self) -> &str {
        "in-process"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::terms::SearchTerm;
    use sift_geo::State;
    use sift_simtime::Hour;

    #[test]
    fn service_is_a_client() {
        let service = TrendsService::with_defaults(Scenario::single_region(State::CA, vec![]));
        let client: &dyn TrendsClient = &service;
        let resp = client
            .fetch_frame(&FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::CA,
                start: Hour(0),
                len: 168,
                tag: 0,
            })
            .expect("frame");
        assert_eq!(resp.values.len(), 168);
        assert_eq!(client.identity(), "in-process");
    }

    #[test]
    fn service_errors_map() {
        let service = TrendsService::with_defaults(Scenario::single_region(State::CA, vec![]));
        let client: &dyn TrendsClient = &service;
        let err = client
            .fetch_frame(&FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::CA,
                start: Hour(0),
                len: 500,
                tag: 0,
            })
            .unwrap_err();
        assert!(matches!(err, FetchError::Service(_)));
        assert!(err.to_string().contains("168"));
    }
}
