//! The trends-service facade.
//!
//! [`TrendsService`] is the single entry point clients talk to (directly
//! in-process, or over HTTP via `sift-net`). It enforces the service's
//! frame limits, draws a fresh random sample per request, counts requests,
//! and serves rising suggestions.

use crate::api::{FrameRequest, FrameResponse, RisingRequest, RisingResponse, ServiceStats};
use crate::frame::build_frame;
use crate::interest::{InterestModel, ModelParams};
use crate::rising::rising_terms;
use crate::sampling::{request_rng, request_seed, SamplerConfig};
use crate::scenario::{EventIndex, Scenario};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Longest frame served at hourly resolution: one week, 168 blocks (§2).
pub const MAX_HOURLY_FRAME: u32 = 168;

/// Service configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Seed of the service's sampling randomness (independent of the
    /// scenario seed: re-deploying the service re-samples, the world stays
    /// the same).
    pub seed: u64,
    /// Sampling behaviour.
    pub sampler: SamplerConfig,
    /// Interest-model parameters.
    pub model: ModelParams,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 0x6007_1e7d,
            sampler: SamplerConfig::default(),
            model: ModelParams::default(),
        }
    }
}

/// Errors a request can fail with.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ServiceError {
    /// The requested frame exceeds the hourly-resolution limit.
    FrameTooLong {
        /// Requested length in hours.
        requested: u32,
        /// Maximum allowed length.
        max: u32,
    },
    /// The requested frame is empty.
    EmptyFrame,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::FrameTooLong { requested, max } => write!(
                f,
                "hourly frames are limited to {max} blocks, requested {requested}"
            ),
            ServiceError::EmptyFrame => write!(f, "requested frame is empty"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The simulated trends aggregation service.
pub struct TrendsService {
    config: ServiceConfig,
    scenario: Scenario,
    index: EventIndex,
    model: InterestModel,
    frames_served: AtomicU64,
    rising_served: AtomicU64,
}

impl TrendsService {
    /// Builds a service over a scenario with the given configuration.
    pub fn new(scenario: Scenario, config: ServiceConfig) -> Self {
        let model = InterestModel::with_params(&scenario, config.model);
        let index = scenario.build_index();
        TrendsService {
            config,
            scenario,
            index,
            model,
            frames_served: AtomicU64::new(0),
            rising_served: AtomicU64::new(0),
        }
    }

    /// Builds a service with default configuration.
    pub fn with_defaults(scenario: Scenario) -> Self {
        Self::new(scenario, ServiceConfig::default())
    }

    /// The scenario driving this service — ground truth, available to the
    /// evaluation harness but never exposed over the API.
    pub fn ground_truth(&self) -> &Scenario {
        &self.scenario
    }

    /// The interest model (ground truth, evaluation only).
    pub fn interest_model(&self) -> &InterestModel {
        &self.model
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Serves one indexed time frame.
    pub fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, ServiceError> {
        validate_len(req.len)?;
        self.frames_served.fetch_add(1, Ordering::Relaxed);
        sift_obs::counter("sift_trends_frames_served_total", &[]).inc();
        let seed = request_seed(self.config.seed, req.state, &req.term, req.start, req.tag);
        let mut rng = request_rng(seed);
        let values = build_frame(
            &mut rng,
            &self.config.sampler,
            &self.model,
            &req.term,
            req.state,
            req.range(),
        );
        Ok(FrameResponse {
            term: req.term.clone(),
            state: req.state,
            start: req.start,
            values,
        })
    }

    /// Serves the rising suggestions of a frame.
    pub fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, ServiceError> {
        validate_len(req.len)?;
        self.rising_served.fetch_add(1, Ordering::Relaxed);
        sift_obs::counter("sift_trends_rising_served_total", &[]).inc();
        // Distinct seed stream from frames: suggestions and indices are
        // sampled independently by the service.
        let seed = request_seed(
            self.config.seed ^ 0x5151_5151,
            req.state,
            &req.term,
            req.start,
            req.tag,
        );
        let mut rng = request_rng(seed);
        let rising = rising_terms(
            &mut rng,
            &self.scenario,
            &self.index,
            req.state,
            req.range(),
        );
        Ok(RisingResponse {
            state: req.state,
            start: req.start,
            rising,
        })
    }

    /// Request counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            frames_served: self.frames_served.load(Ordering::Relaxed),
            rising_served: self.rising_served.load(Ordering::Relaxed),
        }
    }
}

fn validate_len(len: u32) -> Result<(), ServiceError> {
    if len == 0 {
        return Err(ServiceError::EmptyFrame);
    }
    if len > MAX_HOURLY_FRAME {
        return Err(ServiceError::FrameTooLong {
            requested: len,
            max: MAX_HOURLY_FRAME,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Cause, OutageEvent};
    use crate::terms::{Provider, SearchTerm, Topic};
    use sift_geo::State;
    use sift_simtime::Hour;

    fn service() -> TrendsService {
        let event = OutageEvent {
            id: 0,
            name: "e".into(),
            cause: Cause::IspNetwork(Provider::Spectrum),
            start: Hour(1000),
            duration_h: 10,
            states: vec![(State::CA, 1.0)],
            severity: 25.0,
            lags_h: vec![0],
        };
        TrendsService::with_defaults(Scenario::single_region(State::CA, vec![event]))
    }

    fn frame_req(start: i64, len: u32, tag: u64) -> FrameRequest {
        FrameRequest {
            term: SearchTerm::Topic(Topic::InternetOutage),
            state: State::CA,
            start: Hour(start),
            len,
            tag,
        }
    }

    #[test]
    fn frame_limits_enforced() {
        let s = service();
        assert_eq!(
            s.fetch_frame(&frame_req(0, 169, 0)),
            Err(ServiceError::FrameTooLong {
                requested: 169,
                max: 168
            })
        );
        assert_eq!(
            s.fetch_frame(&frame_req(0, 0, 0)),
            Err(ServiceError::EmptyFrame)
        );
        assert!(s.fetch_frame(&frame_req(0, 168, 0)).is_ok());
        assert!(s.fetch_frame(&frame_req(0, 24, 0)).is_ok());
    }

    #[test]
    fn same_tag_same_sample_different_tag_differs() {
        let s = service();
        let a = s.fetch_frame(&frame_req(900, 168, 0)).expect("frame");
        let b = s.fetch_frame(&frame_req(900, 168, 0)).expect("frame");
        assert_eq!(a, b, "same coordinates and tag reproduce the sample");
        let c = s.fetch_frame(&frame_req(900, 168, 1)).expect("frame");
        assert_ne!(a.values, c.values, "a new tag draws a fresh sample");
    }

    #[test]
    fn stats_count_requests() {
        let s = service();
        let _ = s.fetch_frame(&frame_req(900, 168, 0));
        let _ = s.fetch_frame(&frame_req(900, 168, 1));
        let _ = s.fetch_rising(&RisingRequest {
            term: SearchTerm::Topic(Topic::InternetOutage),
            state: State::CA,
            start: Hour(900),
            len: 168,
            tag: 0,
        });
        let stats = s.stats();
        assert_eq!(stats.frames_served, 2);
        assert_eq!(stats.rising_served, 1);
    }

    #[test]
    fn rising_reflects_the_event() {
        let s = service();
        let r = s
            .fetch_rising(&RisingRequest {
                term: SearchTerm::Topic(Topic::InternetOutage),
                state: State::CA,
                start: Hour(900),
                len: 168,
                tag: 0,
            })
            .expect("rising");
        assert!(r.rising.iter().any(|t| t.term.contains("Spectrum")));
    }

    #[test]
    fn errors_render() {
        let e = ServiceError::FrameTooLong {
            requested: 700,
            max: 168,
        };
        assert!(e.to_string().contains("700"));
    }
}
