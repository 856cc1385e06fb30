//! The client's retry and pipelining paths against faults
//! injected by the proxy, and the wire shape of every fault the proxy
//! produces.

use parking_lot::Mutex;
use sift_chaos::{FaultKind, FaultPlan, FaultProxy, NemesisOp, COORDINATOR};
use sift_net::{
    ClientError, HttpClient, Method, Request, Response, RetryPolicy, Router, Server, StatusCode,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `router` served behind a proxy executing `plan`.
fn behind_proxy(router: Router, plan: FaultPlan) -> FaultProxy {
    let server = Server::new(router).bind("127.0.0.1:0").expect("bind");
    FaultProxy::front(server, plan).expect("start proxy")
}

fn ping_router() -> Router {
    Router::new().route(Method::Get, "/ping", |_| {
        Response::text(StatusCode::OK, "pong")
    })
}

fn fast_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
    }
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
fn transport_errors_consume_retry_budget_then_surface() {
    let h = behind_proxy(
        ping_router(),
        FaultPlan::new(3).everywhere(&[(FaultKind::Reset, 1.0)]),
    );
    let c = HttpClient::new(h.addr()).with_retry(fast_retry(3));
    let before = sift_obs::counter("sift_client_retries_total", &[("status", "io")]).get();
    let err = c.send_with_retry(&Request::get("/ping")).unwrap_err();
    assert!(matches!(err, ClientError::Io(_)), "{err}");
    // Other tests share the global registry, so only a lower bound is
    // safe: attempts 1 and 2 retried, the 3rd surfaced.
    let after = sift_obs::counter("sift_client_retries_total", &[("status", "io")]).get();
    assert!(
        after - before >= 2,
        "io retries counted: {before} -> {after}"
    );
    h.shutdown();
}

#[test]
fn mixed_transport_and_status_faults_are_absorbed() {
    let h = behind_proxy(
        ping_router(),
        FaultPlan::new(11).everywhere(&[
            (FaultKind::Reset, 0.25),
            (FaultKind::Truncate, 0.15),
            (FaultKind::InternalError, 0.15),
            (FaultKind::RateStorm, 0.15),
        ]),
    );
    let c = HttpClient::new(h.addr()).with_retry(fast_retry(25));
    for _ in 0..10 {
        let resp = c.send_with_retry(&Request::get("/ping")).expect("absorbed");
        assert_eq!(&resp.body[..], b"pong");
    }
    h.shutdown();
}

#[test]
fn stalls_are_latency_not_errors() {
    let h = behind_proxy(
        ping_router(),
        FaultPlan::new(5)
            .everywhere(&[(FaultKind::Stall, 1.0)])
            .with_stall(Duration::from_millis(5)),
    );
    let c = HttpClient::new(h.addr());
    let resp = c.send(&Request::get("/ping")).expect("stalled but served");
    assert_eq!(&resp.body[..], b"pong");
    h.shutdown();
}

/// How a test run sends its batch: one at a time, or pipelined.
type Sender = dyn Fn(&HttpClient, &[Request]) -> Vec<Result<Response, ClientError>>;

/// What a chaos proxy decided and its upstream served, for comparing a
/// pipelined run against the same requests sent one at a time.
#[derive(Debug, PartialEq)]
struct ServerSide {
    answers: Vec<u64>,
    injected: u64,
    arrivals: Vec<(u64, u32)>,
    served: Vec<(u64, u32)>,
}

fn chaos_run(send: &Sender) -> ServerSide {
    let served = Arc::new(Mutex::new(std::collections::BTreeMap::<u64, u32>::new()));
    let counted = Arc::clone(&served);
    let router = Router::new().route(Method::Post, "/double", move |req| {
        let n: u64 = req.json().expect("json body");
        *counted.lock().entry(n).or_default() += 1;
        Response::json(&(n * 2)).expect("encode")
    });
    let h = behind_proxy(
        router,
        FaultPlan::new(17).everywhere(&[
            (FaultKind::Reset, 0.12),
            (FaultKind::Truncate, 0.08),
            (FaultKind::InternalError, 0.08),
        ]),
    );
    let c = HttpClient::new(h.addr()).with_retry(fast_retry(25));
    let results = send(&c, &doubles(0..60));
    let side = ServerSide {
        answers: results.iter().map(doubled).collect(),
        injected: h.faults().injected_total(),
        arrivals: h.faults().arrivals(),
        served: served.lock().iter().map(|(n, k)| (*n, *k)).collect(),
    };
    h.shutdown();
    side
}

#[test]
fn a_close_mid_batch_costs_the_server_what_one_at_a_time_would() {
    let serial = chaos_run(&|c, reqs| reqs.iter().map(|r| c.send_with_retry(r)).collect());
    let pipelined = chaos_run(&|c, reqs| c.send_pipelined(reqs));
    assert!(serial.injected >= 10, "the seed must bite: {serial:?}");
    assert_eq!(serial.answers, (0..60).map(|n| n * 2).collect::<Vec<_>>());
    // Replies that made it out before a reset or a truncation were
    // delivered, not asked for again; what followed the close was
    // re-sent: every request arrived, and was served, exactly as
    // often as it would have been on its own.
    assert_eq!(pipelined, serial);
}

#[test]
fn dropped_replies_mid_batch_cost_the_server_what_one_at_a_time_would() {
    let run = |send: &Sender| {
        let served = Arc::new(Mutex::new(Vec::<u64>::new()));
        let counted = Arc::clone(&served);
        let router = Router::new().route(Method::Post, "/double", move |req| {
            let n: u64 = req.json().expect("json body");
            counted.lock().push(n);
            Response::json(&(n * 2)).expect("encode")
        });
        let h = behind_proxy(router, FaultPlan::new(0));
        h.links().apply(&NemesisOp::PartitionAsym {
            from: "unit-x".into(),
            to: "srv".into(),
        });
        let c = HttpClient::new(h.addr())
            .with_identity("unit-x")
            .with_retry(fast_retry(2));
        let results = send(&c, &doubles(0..3));
        assert!(
            results.iter().all(|r| matches!(r, Err(ClientError::Io(_)))),
            "every reply is lost: {results:?}"
        );
        let dropped = h.links().dropped_total();
        h.shutdown();
        let mut served = served.lock().clone();
        served.sort_unstable();
        (served, dropped)
    };
    let serial = run(&|c, reqs| reqs.iter().map(|r| c.send_with_retry(r)).collect());
    let pipelined = run(&|c, reqs| c.send_pipelined(reqs));
    // The handler ran (the receiver acted) twice per request, once
    // per attempt, either way.
    assert_eq!(serial, (vec![0, 0, 1, 1, 2, 2], 6));
    assert_eq!(pipelined, serial);
}

#[test]
fn pipelined_failures_resume_at_attempt_two() {
    let h = behind_proxy(
        ping_router(),
        FaultPlan::new(3).everywhere(&[(FaultKind::InternalError, 1.0)]),
    );
    let c = HttpClient::new(h.addr()).with_retry(fast_retry(2));
    let pings = [
        Request::get("/ping"),
        Request::get("/ping"),
        Request::get("/ping"),
    ];
    let tid = {
        let root = sift_obs::span_root("pipelined-trace-test");
        let results = c.send_pipelined(&pings);
        // Each request spends both attempts on a 500.
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(ClientError::Status { .. }))));
        root.context().trace_id
    };
    let trace =
        sift_obs::trace::wait_completed(tid, Duration::from_secs(5)).expect("trace completed");
    let attempts = |n: u64| {
        trace
            .spans
            .iter()
            .filter(|s| s.name == "request" && s.arg("attempt") == Some(n))
            .count()
    };
    assert_eq!(attempts(1), 3, "one pipelined first attempt per request");
    assert_eq!(attempts(2), 3, "each retry resumes at attempt 2");
    // The proxy synthesizes the 500s: no attempt reaches the server.
    assert!(trace.spans.iter().all(|s| s.name != "serve"));
    assert!(trace.orphans().is_empty());
    h.shutdown();
}

/// What the client saw in one row of the wire-shape table.
#[derive(Debug, PartialEq)]
enum Seen {
    /// A transport error: reset, or a reply cut short.
    Io,
    /// A reply with this status (and no `Retry-After`).
    Status(u16),
}

/// Every fault kind and every link action, one row each: what the client
/// sees, and how many times the upstream handler ran.
#[test]
fn each_fault_has_its_wire_shape_and_upstream_cost() {
    const SLEEP: Duration = Duration::from_millis(40);
    let heartbeat = "/cluster/heartbeat";
    let fault = |kind| {
        FaultPlan::new(1)
            .everywhere(&[(kind, 1.0)])
            .with_stall(SLEEP)
    };
    let link = |op| (FaultPlan::new(1), Some(op));
    let unit = || "unit-t".to_owned();
    let coordinator = || COORDINATOR.to_owned();
    let rows = [
        ("reset", (fault(FaultKind::Reset), None), Seen::Io, 0),
        (
            "internal_error",
            (fault(FaultKind::InternalError), None),
            Seen::Status(500),
            0,
        ),
        (
            "rate_storm",
            (fault(FaultKind::RateStorm), None),
            Seen::Status(429),
            0,
        ),
        ("truncate", (fault(FaultKind::Truncate), None), Seen::Io, 1),
        (
            "stall",
            (fault(FaultKind::Stall), None),
            Seen::Status(200),
            1,
        ),
        (
            "drop_request",
            link(NemesisOp::PartitionSym {
                a: unit(),
                b: coordinator(),
            }),
            Seen::Io,
            0,
        ),
        (
            "drop_reply",
            link(NemesisOp::PartitionAsym {
                from: unit(),
                to: coordinator(),
            }),
            Seen::Io,
            1,
        ),
        (
            "delay",
            link(NemesisOp::HeartbeatDelay {
                worker: unit(),
                delay_ms: 40,
            }),
            Seen::Status(200),
            1,
        ),
    ];
    for (name, (plan, op), want, want_calls) in rows {
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let router = Router::new().route(Method::Get, heartbeat, move |_| {
            counted.fetch_add(1, Ordering::SeqCst);
            Response::text(StatusCode::OK, "a reply long enough to cut in half")
        });
        let h = behind_proxy(router, plan);
        if let Some(op) = &op {
            assert!(h.links().apply(op), "{name}: a link operation");
        }
        // A fresh client: its one attempt goes out on a fresh connection,
        // so no keep-alive re-send can hide a fault.
        let c = HttpClient::new(h.addr()).with_identity(unit());
        let sent_at = Instant::now();
        let seen = match c.send(&Request::get(heartbeat)) {
            Err(ClientError::Io(_)) => Seen::Io,
            Err(other) => panic!("{name}: unexpected {other}"),
            Ok(resp) => {
                assert_eq!(resp.headers.get("retry-after"), None, "{name}");
                if resp.status == StatusCode::OK {
                    assert_eq!(&resp.body[..], b"a reply long enough to cut in half");
                    assert!(
                        sent_at.elapsed() >= SLEEP,
                        "{name}: slept before forwarding"
                    );
                }
                Seen::Status(resp.status.0)
            }
        };
        assert_eq!(seen, want, "{name}: client-visible shape");
        assert_eq!(
            calls.load(Ordering::SeqCst),
            want_calls,
            "{name}: upstream calls"
        );
        h.shutdown();
    }
}

/// A reply carrying `Connection: close` closes the client's side of the
/// proxy too, even though the request asked to keep the connection.
#[test]
fn a_connection_close_reply_closes_the_client_side() {
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    let router = Router::new().route(Method::Get, "/last", move |_| {
        counted.fetch_add(1, Ordering::SeqCst);
        let mut resp = Response::text(StatusCode::OK, "bye");
        resp.headers.set("connection", "close");
        resp
    });
    let h = behind_proxy(router, FaultPlan::new(0));
    let mut s = TcpStream::connect(h.addr()).expect("dial proxy");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    s.write_all(b"GET /last HTTP/1.1\r\n\r\n").expect("write");
    let mut got = Vec::new();
    s.read_to_end(&mut got)
        .expect("the proxy closes before the timeout");
    let text = String::from_utf8_lossy(&got);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.ends_with("bye"), "{text}");
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    h.shutdown();
}
