//! Retry-loop termination under a total fault rate, whatever the seed.
//! A binary of its own: it asserts an exact retry count on the
//! process-wide registry, which no other test may move meanwhile.

use proptest::prelude::*;
use sift_chaos::{FaultKind, FaultPlan, FaultProxy};
use sift_net::{
    Headers, HttpClient, Method, Request, Response, RetryPolicy, Router, Server, StatusCode,
};
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// At a 100% connection-reset rate, `send_with_retry` terminates:
    /// it makes exactly `max_attempts` tries (each retry counted under
    /// `status="io"`) and then surfaces the I/O error — no infinite loop,
    /// no hang, whatever the fault seed.
    #[test]
    fn retry_loop_terminates_under_total_faults(
        max_attempts in 1u32..4,
        seed in 0u64..1_000,
    ) {
        let router = Router::new().route(Method::Get, "/ping", |_| {
            Response::text(StatusCode(200), "pong")
        });
        let server = FaultProxy::front(
            Server::new(router).bind("127.0.0.1:0").expect("bind"),
            FaultPlan::new(seed).everywhere(&[(FaultKind::Reset, 1.0)]),
        )
        .expect("start proxy");
        let client = HttpClient::new(server.addr()).with_retry(RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        });
        let io_retries = sift_obs::counter("sift_client_retries_total", &[("status", "io")]);
        let before = io_retries.get();
        let req = Request {
            method: Method::Get,
            path: "/ping".into(),
            headers: Headers::new(),
            body: bytes::Bytes::new(),
        };
        let result = client.send_with_retry(&req);
        prop_assert!(result.is_err(), "100% resets cannot produce a response");
        prop_assert_eq!(io_retries.get() - before, u64::from(max_attempts - 1));
        server.shutdown();
    }
}
