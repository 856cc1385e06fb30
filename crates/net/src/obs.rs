//! Observability endpoints: `GET /metrics`, `GET /healthz` and
//! `GET /trace/recent`.
//!
//! [`mount_observability`] adds the routes to any [`Router`], so every
//! server built on this crate (the trends service included) exposes its
//! live metrics in the Prometheus text format alongside a liveness probe
//! and the most recent completed trace trees as JSON.

use crate::http::{Method, Response, StatusCode};
use crate::router::Router;
use bytes::Bytes;

/// The content type Prometheus scrapers expect from `/metrics`.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Adds `GET /metrics` (global-registry Prometheus text exposition),
/// `GET /healthz` (liveness, answers `ok`) and `GET /trace/recent` (the
/// last completed *recorded* trace trees as a JSON array, oldest first;
/// see `sift_obs::span_recorded`) to `router`.
///
/// Re-registering any of the routes replaces the previous handler, so
/// mounting on a router that already has a `/healthz` is harmless.
pub fn mount_observability(router: Router) -> Router {
    router
        .route(Method::Get, "/metrics", |_| {
            sift_obs::counter("sift_net_metrics_scrapes_total", &[]).inc();
            let text = sift_obs::global().render_prometheus();
            let mut resp = Response {
                status: StatusCode::OK,
                headers: crate::http::Headers::new(),
                body: Bytes::from(text.into_bytes()),
            };
            resp.headers.set("content-type", METRICS_CONTENT_TYPE);
            resp
        })
        .route(Method::Get, "/healthz", |_| {
            sift_obs::counter("sift_net_healthz_total", &[]).inc();
            Response::text(StatusCode::OK, "ok")
        })
        .route(Method::Get, "/trace/recent", |_| {
            sift_obs::counter("sift_net_trace_recent_scrapes_total", &[]).inc();
            let traces = sift_obs::trace::recent_traces();
            let body = sift_obs::trace::traces_json(&traces);
            let mut resp = Response {
                status: StatusCode::OK,
                headers: crate::http::Headers::new(),
                body: Bytes::from(body.into_bytes()),
            };
            resp.headers.set("content-type", "application/json");
            resp
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;

    #[test]
    fn healthz_answers_ok() {
        let r = mount_observability(Router::new());
        let resp = r.dispatch(&Request::get("/healthz"));
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(&resp.body[..], b"ok");
    }

    #[test]
    fn trace_recent_serves_completed_traces_as_json() {
        let ctx = {
            let root = sift_obs::span_recorded("net-obs-trace-test");
            let _child = sift_obs::span("net-obs-trace-child");
            root.context()
        };
        // The root guard dropped: the trace is complete and in the ring.
        let r = mount_observability(Router::new());
        let resp = r.dispatch(&Request::get("/trace/recent"));
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get("content-type"), Some("application/json"));
        let text = String::from_utf8_lossy(&resp.body);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert!(matches!(v, serde_json::Value::Array(_)), "{text}");
        assert!(
            text.contains(&format!("{:016x}", ctx.trace_id)),
            "trace id missing from {text}"
        );
        assert!(text.contains("net-obs-trace-child"), "{text}");
    }

    #[test]
    fn metrics_exposes_registered_series() {
        sift_obs::counter("net_obs_test_total", &[("case", "mount")]).inc();
        let r = mount_observability(Router::new());
        let resp = r.dispatch(&Request::get("/metrics"));
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get("content-type"), Some(METRICS_CONTENT_TYPE));
        let text = String::from_utf8_lossy(&resp.body);
        assert!(
            text.contains("net_obs_test_total{case=\"mount\"} 1"),
            "{text}"
        );
    }
}
