//! Hosting the trends service over HTTP.

use crate::unit::ApiResult;
use sift_net::{Method, Request, Response, Router, StatusCode};
use sift_trends::{FrameRequest, RisingRequest, TrendsService};
use std::sync::Arc;

/// Builds the HTTP router exposing a trends service:
///
/// * `POST /api/frame` — body: [`FrameRequest`] JSON; answers an
///   `ApiResult<FrameResponse>`.
/// * `POST /api/rising` — body: [`RisingRequest`] JSON; answers an
///   `ApiResult<RisingResponse>`.
/// * `GET /healthz` — liveness.
/// * `GET /stats` — service request counters.
/// * `GET /metrics` — live Prometheus text exposition (via
///   [`sift_net::mount_observability`]).
///
/// Attach a rate limiter via
/// [`sift_net::Server::with_rate_limiter`] to reproduce the
/// crawl bottleneck, and admission control via
/// [`sift_net::Server::with_admission`] to bound in-flight work and shed
/// overload with `503 + Retry-After` (see `sift_net::admission`).
pub fn trends_router(service: Arc<TrendsService>) -> Router {
    let frame_service = Arc::clone(&service);
    let rising_service = Arc::clone(&service);
    let stats_service = Arc::clone(&service);

    sift_net::mount_observability(Router::new())
        .route(Method::Get, "/stats", move |_| {
            sift_obs::counter("sift_trends_stats_served_total", &[]).inc();
            match Response::json(&stats_service.stats()) {
                Ok(r) => r,
                Err(e) => Response::text(StatusCode::INTERNAL_SERVER_ERROR, e.to_string()),
            }
        })
        .route(Method::Post, "/api/frame", move |req: &Request| {
            let parsed: FrameRequest = match req.json() {
                Ok(p) => p,
                Err(e) => {
                    return Response::text(
                        StatusCode::BAD_REQUEST,
                        format!("bad frame request: {e}"),
                    )
                }
            };
            let result = match frame_service.fetch_frame(&parsed) {
                Ok(resp) => ApiResult::Ok(resp),
                Err(e) => ApiResult::Err(e),
            };
            Response::json(&result).unwrap_or_else(|e| {
                Response::text(StatusCode::INTERNAL_SERVER_ERROR, e.to_string())
            })
        })
        .route(Method::Post, "/api/rising", move |req: &Request| {
            let parsed: RisingRequest = match req.json() {
                Ok(p) => p,
                Err(e) => {
                    return Response::text(
                        StatusCode::BAD_REQUEST,
                        format!("bad rising request: {e}"),
                    )
                }
            };
            let result = match rising_service.fetch_rising(&parsed) {
                Ok(resp) => ApiResult::Ok(resp),
                Err(e) => ApiResult::Err(e),
            };
            Response::json(&result).unwrap_or_else(|e| {
                Response::text(StatusCode::INTERNAL_SERVER_ERROR, e.to_string())
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{FetchError, HttpTrendsClient, TrendsClient};
    use sift_geo::State;
    use sift_net::Server;
    use sift_simtime::Hour;
    use sift_trends::{Scenario, SearchTerm};

    fn spawn() -> (sift_net::ServerHandle, Arc<TrendsService>) {
        let service = Arc::new(TrendsService::with_defaults(Scenario::single_region(
            State::TX,
            vec![],
        )));
        let handle = Server::new(trends_router(Arc::clone(&service)))
            .bind("127.0.0.1:0")
            .expect("bind");
        (handle, service)
    }

    #[test]
    fn frame_over_http_matches_in_process() {
        let (h, service) = spawn();
        let req = FrameRequest {
            term: SearchTerm::parse("topic:Internet outage"),
            state: State::TX,
            start: Hour(500),
            len: 168,
            tag: 7,
        };
        let client = HttpTrendsClient::new(h.addr(), "127.0.0.9");
        let over_http = client.fetch_frame(&req).expect("http frame");
        let direct = service.fetch_frame(&req).expect("direct frame");
        assert_eq!(over_http, direct, "same coordinates + tag → same sample");
        h.shutdown();
    }

    #[test]
    fn service_errors_cross_the_wire() {
        let (h, _service) = spawn();
        let client = HttpTrendsClient::new(h.addr(), "127.0.0.9");
        let err = client
            .fetch_frame(&FrameRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::TX,
                start: Hour(0),
                len: 999,
                tag: 0,
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                FetchError::Service(sift_trends::ServiceError::FrameTooLong { .. })
            ),
            "{err}"
        );
        h.shutdown();
    }

    /// The batch entries are the single ones, item for item: payloads,
    /// service rejections and their places in the batch.
    #[test]
    fn batches_answer_item_for_item_like_single_fetches() {
        let (h, _service) = spawn();
        let client = HttpTrendsClient::new(h.addr(), "127.0.0.9");
        let term = SearchTerm::parse("topic:Internet outage");
        let frames: Vec<FrameRequest> = [(0, 168), (100, 168), (0, 999), (300, 24), (400, 168)]
            .into_iter()
            .map(|(start, len)| FrameRequest {
                term: term.clone(),
                state: State::TX,
                start: Hour(start),
                len,
                tag: 3,
            })
            .collect();
        let risings: Vec<RisingRequest> = [(0, 168), (0, 999), (168, 168)]
            .into_iter()
            .map(|(start, len)| RisingRequest {
                term: term.clone(),
                state: State::TX,
                start: Hour(start),
                len,
                tag: 0,
            })
            .collect();
        let show = |r: &dyn std::fmt::Debug| format!("{r:?}");
        let batch: Vec<_> = client
            .fetch_frames(&frames)
            .iter()
            .map(|r| show(r))
            .collect();
        let single: Vec<_> = frames
            .iter()
            .map(|r| show(&client.fetch_frame(r)))
            .collect();
        assert_eq!(batch, single);
        assert!(batch[2].contains("FrameTooLong"), "{}", batch[2]);
        assert!(
            batch[4].starts_with("Ok("),
            "a rejection spoils only its item"
        );
        let batch: Vec<_> = client
            .fetch_risings(&risings)
            .iter()
            .map(|r| show(r))
            .collect();
        let single: Vec<_> = risings
            .iter()
            .map(|r| show(&client.fetch_rising(r)))
            .collect();
        assert_eq!(batch, single);
        assert!(batch[1].starts_with("Err(Service("), "{}", batch[1]);
        h.shutdown();
    }

    #[test]
    fn rising_and_stats_endpoints() {
        let (h, _service) = spawn();
        let client = HttpTrendsClient::new(h.addr(), "127.0.0.9");
        let rising = client
            .fetch_rising(&RisingRequest {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::TX,
                start: Hour(0),
                len: 168,
                tag: 0,
            })
            .expect("rising");
        assert_eq!(rising.state, State::TX);

        let raw = sift_net::HttpClient::new(h.addr());
        let stats: sift_trends::api::ServiceStats = raw.get_json("/stats").expect("stats json");
        assert_eq!(stats.rising_served, 1);
        h.shutdown();
    }

    /// A server that answers every request with one fixed CA week from
    /// hour 0: the client must refuse it for any other request rather
    /// than hand a frame to the journal that the stitcher will reject.
    #[test]
    fn answer_to_another_request_is_a_transport_error() {
        use sift_trends::{FrameResponse, RisingResponse};
        let term = SearchTerm::parse("topic:Internet outage");
        let frame = ApiResult::Ok(FrameResponse {
            term: term.clone(),
            state: State::CA,
            start: Hour(0),
            values: vec![1; 168],
        });
        let rising = ApiResult::Ok(RisingResponse {
            state: State::CA,
            start: Hour(0),
            rising: Vec::new(),
        });
        let router = Router::new()
            .route(Method::Post, "/api/frame", move |_| {
                Response::json(&frame).expect("encode")
            })
            .route(Method::Post, "/api/rising", move |_| {
                Response::json(&rising).expect("encode")
            });
        let h = Server::new(router).bind("127.0.0.1:0").expect("bind");
        let client = HttpTrendsClient::new(h.addr(), "127.0.0.9");

        let ask = |state, start, len| FrameRequest {
            term: term.clone(),
            state,
            start: Hour(start),
            len,
            tag: 0,
        };
        client
            .fetch_frame(&ask(State::CA, 0, 168))
            .expect("the matching request is served");
        let mismatched = [
            ask(State::TX, 0, 168),
            ask(State::CA, 24, 168),
            ask(State::CA, 0, 24),
        ];
        for req in &mismatched {
            let err = client.fetch_frame(req).expect_err("mismatched frame");
            assert!(matches!(err, FetchError::Transport(_)), "{err}");
        }
        // A batch refuses the same replies, each in its own place.
        let mut batch = mismatched.to_vec();
        batch.insert(1, ask(State::CA, 0, 168));
        let answers = client.fetch_frames(&batch);
        assert!(answers[1].is_ok(), "{:?}", answers[1]);
        for i in [0, 2, 3] {
            assert!(
                matches!(answers[i], Err(FetchError::Transport(_))),
                "{:?}",
                answers[i]
            );
        }
        let err = client
            .fetch_rising(&RisingRequest {
                term: term.clone(),
                state: State::TX,
                start: Hour(0),
                len: 168,
                tag: 0,
            })
            .expect_err("mismatched rising");
        assert!(matches!(err, FetchError::Transport(_)), "{err}");
        h.shutdown();
    }

    #[test]
    fn malformed_body_is_bad_request() {
        let (h, _service) = spawn();
        let raw = sift_net::HttpClient::new(h.addr());
        let mut req =
            sift_net::Request::post_json("/api/frame", &"not a frame request").expect("encode");
        req.headers.set("content-type", "application/json");
        let resp = raw.send(&req).expect("send");
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        h.shutdown();
    }
}
