//! The seeded HTTP fault proxy.
//!
//! A [`FaultProxy`] listens on a stable address in front of one upstream
//! server. Each client connection gets one upstream connection; each
//! request read off it is parsed with `sift-net`'s own parser, and its
//! fate is decided before anything is forwarded — first by the
//! [`NemesisState`] link table (keyed on the sender's identity and the
//! route), then by the [`FaultPlan`]. The proxy then forwards the request
//! or produces the fault itself:
//!
//! | fault | the upstream sees | the client sees |
//! |---|---|---|
//! | `Reset`, `DropRequest` | nothing | the connection closed |
//! | `InternalError`, `RateStorm` | nothing | a canned 500, or a 429 without `Retry-After` |
//! | `Truncate` | the request | the head and half the body, then a close |
//! | `DropReply` | the request | the connection closed |
//! | `Stall`, `Delay` | the request, late | the reply, late |
//!
//! The upstream can be swapped or unplugged at run time
//! ([`FaultProxy::set_upstream`]). With none plugged in, accepted
//! connections are closed at once — the client-visible shape of a dead
//! process.

#![expect(
    clippy::disallowed_methods,
    reason = "stalls, link delays and accept backoff wait on the host"
)]

use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::nemesis::{LinkAction, NemesisState};
use bytes::BytesMut;
use parking_lot::Mutex;
use sift_net::http::{
    parse_request, parse_response, serialize_request, serialize_response, ParseError,
};
use sift_net::{Response, ServerHandle, StatusCode, FETCHER_IDENTITY_HEADER};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Idle client reads wake this often to re-check the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// A running fault proxy. Dropping it stops the proxy (and the server it
/// fronts, if it owns one).
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    fronted: Option<ServerHandle>,
}

struct Shared {
    upstream: Mutex<Option<SocketAddr>>,
    faults: FaultInjector,
    links: NemesisState,
    stop: AtomicBool,
}

impl FaultProxy {
    /// A proxy executing `plan`, with no upstream plugged in yet.
    pub fn start(plan: FaultPlan) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            upstream: Mutex::new(None),
            faults: FaultInjector::new(plan),
            links: NemesisState::new(),
            stop: AtomicBool::new(false),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(FaultProxy {
            addr,
            shared,
            acceptor: Some(acceptor),
            fronted: None,
        })
    }

    /// `server` behind a proxy executing `plan`. The proxy owns the
    /// server and shuts it down with itself.
    pub fn front(server: ServerHandle, plan: FaultPlan) -> io::Result<FaultProxy> {
        let mut proxy = FaultProxy::start(plan)?;
        proxy.set_upstream(Some(server.addr()));
        proxy.fronted = Some(server);
        Ok(proxy)
    }

    /// The stable address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Plugs in (or, with `None`, unplugs) the upstream that new client
    /// connections are forwarded to.
    pub fn set_upstream(&self, upstream: Option<SocketAddr>) {
        *self.shared.upstream.lock() = upstream;
    }

    /// The per-request fault state.
    pub fn faults(&self) -> &FaultInjector {
        &self.shared.faults
    }

    /// The link-fault table.
    pub fn links(&self) -> &NemesisState {
        &self.shared.links
    }

    /// Stops accepting and serving, then shuts down the fronted server.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            #[expect(clippy::let_underscore_must_use, reason = "teardown proceeds anyway")]
            let _ = acceptor.join();
        }
        if let Some(server) = self.fronted.take() {
            server.shutdown();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        let Ok((client, _)) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        // No upstream, or one that just died: the dial was accepted by
        // the kernel and is closed at once, as a crashed process would.
        let Some(target) = *shared.upstream.lock() else {
            continue;
        };
        let Ok(upstream) = TcpStream::connect_timeout(&target, Duration::from_millis(500)) else {
            continue;
        };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            #[expect(clippy::let_underscore_must_use, reason = "either side may hang up")]
            let _ = proxy_connection(client, upstream, &shared);
        });
    }
}

/// Serves one client connection over its own upstream connection until
/// either side closes, a fault closes it, or the proxy stops.
fn proxy_connection(
    mut client: TcpStream,
    mut upstream: TcpStream,
    shared: &Shared,
) -> io::Result<()> {
    client.set_nonblocking(false)?;
    client.set_read_timeout(Some(IDLE_POLL))?;
    client.set_nodelay(true)?;
    upstream.set_nodelay(true)?;
    let peer_ip = client.peer_addr()?.ip().to_string();
    let (mut requests, mut replies) = (BytesMut::new(), BytesMut::new());
    while let Some(req) = read_message(&mut client, &mut requests, parse_request, &shared.stop)? {
        let route = req.path.split('?').next().unwrap_or("");
        let from = req.headers.get(FETCHER_IDENTITY_HEADER).unwrap_or(&peer_ip);
        let mut drop_reply = false;
        if let Some((kind, action)) = shared.links.decide(from, route) {
            sift_obs::counter("sift_cluster_nemesis_faults_total", &[("kind", kind)]).inc();
            match action {
                LinkAction::DropRequest => return Ok(()),
                LinkAction::Delay(d) => std::thread::sleep(d),
                LinkAction::DropReply => drop_reply = true,
            }
        }
        let fault = shared.faults.decide(route, &req.body);
        if let Some(kind) = fault {
            sift_obs::counter("sift_net_faults_injected_total", &[("kind", kind.label())]).inc();
        }
        let upstream_reply = |upstream: &mut TcpStream, replies: &mut BytesMut| {
            upstream.write_all(&serialize_request(&req))?;
            read_message(upstream, replies, parse_response, &shared.stop)
        };
        let reply = match fault {
            Some(FaultKind::Reset) => return Ok(()),
            Some(FaultKind::InternalError) => Some(Response::text(
                StatusCode::INTERNAL_SERVER_ERROR,
                "injected fault",
            )),
            Some(FaultKind::RateStorm) => Some(Response::text(
                StatusCode::TOO_MANY_REQUESTS,
                "injected fault",
            )),
            Some(FaultKind::Stall) => {
                std::thread::sleep(shared.faults.plan.stall);
                upstream_reply(&mut upstream, &mut replies)?
            }
            Some(FaultKind::Truncate) | None => upstream_reply(&mut upstream, &mut replies)?,
        };
        let Some(resp) = reply else {
            return Ok(()); // the upstream hung up
        };
        if drop_reply {
            return Ok(());
        }
        let wire = serialize_response(&resp);
        if fault == Some(FaultKind::Truncate) {
            // Head plus half the body: the client's parser reads a
            // complete head, then starves waiting for the rest.
            let body = resp.body.len();
            let keep = if body == 0 {
                wire.len() / 2
            } else {
                wire.len() - body + body / 2
            };
            return client.write_all(&wire[..keep]);
        }
        client.write_all(&wire)?;
        if req.headers.wants_close() || resp.headers.wants_close() {
            return Ok(());
        }
    }
    Ok(())
}

/// The next complete message parsed off `stream`, reading as needed;
/// `None` once the peer hangs up or the proxy stops. Unparseable bytes
/// fail the connection.
fn read_message<T>(
    stream: &mut TcpStream,
    buf: &mut BytesMut,
    parse: fn(&mut BytesMut) -> Result<Option<T>, ParseError>,
    stop: &AtomicBool,
) -> io::Result<Option<T>> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(message) = parse(buf).map_err(|e| io::Error::other(e.to_string()))? {
            return Ok(Some(message));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_net::{HttpClient, Method, Request, Router, Server};

    /// An upstream answering `GET /who` with `name`.
    fn upstream(name: &'static str) -> ServerHandle {
        let router = Router::new().route(Method::Get, "/who", move |_| {
            Response::text(StatusCode::OK, name)
        });
        Server::new(router)
            .bind("127.0.0.1:0")
            .expect("bind upstream")
    }

    fn who(proxy: &FaultProxy) -> Vec<u8> {
        let resp = HttpClient::new(proxy.addr())
            .send(&Request::get("/who"))
            .expect("forwarded");
        resp.body.to_vec()
    }

    #[test]
    fn proxy_forwards_when_an_upstream_is_plugged_in() {
        let proxy = FaultProxy::front(upstream("one"), FaultPlan::new(0)).expect("start proxy");
        assert_eq!(who(&proxy), b"one");
        proxy.shutdown();
    }

    #[test]
    fn proxy_drops_connections_while_the_upstream_is_unplugged() {
        let proxy = FaultProxy::start(FaultPlan::new(0)).expect("start proxy");
        // Dialing succeeds (the kernel accepts), but the connection is
        // promptly closed with nothing read — the dead-process shape.
        let mut conn = TcpStream::connect(proxy.addr()).expect("dial proxy");
        conn.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut got = Vec::new();
        // A clean EOF with no bytes or a reset are both the dead shape.
        if let Ok(n) = conn.read_to_end(&mut got) {
            assert_eq!(n, 0, "an unplugged proxy must return no bytes");
        }
        proxy.shutdown();
    }

    #[test]
    fn proxy_retargets_to_a_new_upstream_after_a_swap() {
        let (first, second) = (upstream("one"), upstream("two"));
        let proxy = FaultProxy::start(FaultPlan::new(0)).expect("start proxy");
        proxy.set_upstream(Some(first.addr()));
        assert_eq!(who(&proxy), b"one");
        // Swap in a fresh incarnation on a different port.
        proxy.set_upstream(Some(second.addr()));
        assert_eq!(who(&proxy), b"two");
        proxy.shutdown();
    }
}
