//! Server-side admission control and load shedding.
//!
//! Under a crawl storm the worst failure mode is not rejection but
//! *collapse*: every connection admitted, every worker saturated, every
//! client timing out and retrying into an ever-deeper queue. The
//! [`AdmissionController`] bounds both queues the server has — the accept
//! backlog and the in-flight request count — and sheds excess load with
//! `503 + Retry-After` instead, *before* the request body is ever parsed
//! on the accept path. It also owns the server's drain flag: a draining
//! server finishes in-flight work while refusing new connections.
//!
//! Shed decisions are counted per reason in
//! `sift_net_admission_shed_total{reason=…}` and the live in-flight count
//! is exposed as the `sift_net_inflight` gauge.
//!
//! Long-poll handlers *park* while they wait ([`AdmissionController::park`]):
//! a parked waiter consumes no worker-visible in-flight slot, so a
//! thousand idle subscribers cannot starve fresh requests into
//! `queue_full`/`overload` sheds. Parked waiters are tracked separately
//! in the `sift_net_parked_waiters` gauge.

use crate::http::{Response, StatusCode};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Why a request (or connection) was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded accept queue was full.
    QueueFull,
    /// The in-flight cap was reached.
    Overload,
    /// The server is draining: in-flight work finishes, new work is
    /// refused.
    Draining,
}

impl ShedReason {
    /// Every reason, in declaration order.
    pub const ALL: [ShedReason; 3] = [
        ShedReason::QueueFull,
        ShedReason::Overload,
        ShedReason::Draining,
    ];

    /// The metric label this reason is counted under in
    /// `sift_net_admission_shed_total{reason=…}`.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Overload => "overload",
            ShedReason::Draining => "draining",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Admission limits. Zero disables the corresponding bound.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum requests being processed at once (0 = unlimited).
    pub max_inflight: usize,
    /// Maximum accepted connections waiting for a worker (0 = unbounded).
    pub max_queue: usize,
    /// The `Retry-After` value (seconds) shed responses carry.
    pub retry_after_secs: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 64,
            max_queue: 128,
            retry_after_secs: 1,
        }
    }
}

impl AdmissionConfig {
    /// No bounds at all — the implicit config of a server built without
    /// [`crate::Server::with_admission`]. Draining still works.
    pub fn unlimited() -> Self {
        AdmissionConfig {
            max_inflight: 0,
            max_queue: 0,
            retry_after_secs: 1,
        }
    }
}

/// Tracks the server's two queues and its drain flag.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    inflight: AtomicUsize,
    queued: AtomicUsize,
    parked: AtomicUsize,
    draining: AtomicBool,
}

impl AdmissionController {
    /// A controller with the given limits.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            inflight: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// The configured limits.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Tries to account one accepted connection into the bounded accept
    /// queue. The acceptor calls this before handing the socket to the
    /// worker channel; on `Err` it sheds the connection with a canned
    /// `503` instead.
    pub fn try_enqueue(&self) -> Result<(), ShedReason> {
        if self.is_draining() {
            return Err(ShedReason::Draining);
        }
        let mut current = self.queued.load(Ordering::SeqCst);
        loop {
            if self.config.max_queue > 0 && current >= self.config.max_queue {
                return Err(ShedReason::QueueFull);
            }
            match self.queued.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        // Re-check the drain flag *after* the slot is registered (see
        // `try_admit` for the full interleaving argument): a drain that
        // began between the check above and the increment either sees our
        // count or we see its flag — never neither.
        if self.is_draining() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(ShedReason::Draining);
        }
        self.set_queue_gauge();
        Ok(())
    }

    /// A worker took one connection off the accept queue.
    pub fn dequeued(&self) {
        self.queued.fetch_sub(1, Ordering::SeqCst);
        self.set_queue_gauge();
    }

    /// Tries to admit one parsed request into processing. The returned
    /// guard holds an in-flight slot until dropped.
    ///
    /// Admission and drain are serialized through the SeqCst total order:
    /// the slot is registered *first* and the drain flag re-checked after.
    /// If a drain begins concurrently, either its settle loop observes our
    /// registered slot (and waits for the guard), or this re-check sees
    /// the flag (and rolls the slot back). The old check-then-register
    /// order had a window where a request could be admitted invisibly to
    /// `drain(grace)` — the server would settle and shut down around
    /// still-running work.
    pub fn try_admit(&self) -> Result<InflightGuard<'_>, ShedReason> {
        if self.is_draining() {
            return Err(ShedReason::Draining);
        }
        let mut current = self.inflight.load(Ordering::SeqCst);
        loop {
            if self.config.max_inflight > 0 && current >= self.config.max_inflight {
                return Err(ShedReason::Overload);
            }
            match self.inflight.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        // The guard is constructed before the re-check so the rollback
        // path is just a drop — one decrement, same as any release.
        let guard = InflightGuard { controller: self };
        if self.is_draining() {
            drop(guard);
            return Err(ShedReason::Draining);
        }
        self.set_inflight_gauge();
        Ok(guard)
    }

    /// Requests currently being processed.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Accepted connections currently waiting for a worker.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    /// Admitted requests currently parked in a long wait (not holding an
    /// in-flight slot).
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }

    /// Flips the server into drain mode: in-flight requests finish, new
    /// connections and requests are refused with `503 + Retry-After`.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Builds (and counts) the shed response for `reason`: a `503` with
    /// `Retry-After` and `Connection: close`.
    pub fn shed_response(&self, reason: ShedReason) -> Response {
        sift_obs::counter(
            "sift_net_admission_shed_total",
            &[("reason", reason.label())],
        )
        .inc();
        let mut resp = Response::text(StatusCode::SERVICE_UNAVAILABLE, "shedding load");
        resp.headers
            .set("retry-after", self.config.retry_after_secs.to_string());
        resp.headers.set("connection", "close");
        resp
    }

    fn set_inflight_gauge(&self) {
        sift_obs::gauge("sift_net_inflight", &[])
            .set(i64::try_from(self.inflight()).unwrap_or(i64::MAX));
    }

    fn set_queue_gauge(&self) {
        sift_obs::gauge("sift_net_accept_queue_depth", &[])
            .set(i64::try_from(self.queued()).unwrap_or(i64::MAX));
    }

    /// Releases the calling request's in-flight slot for the duration of
    /// a parked wait (a long-poll subscriber blocked until the next
    /// spike, say). The caller must hold an in-flight slot — i.e. run
    /// inside an admitted handler. While the returned [`ParkedSlot`]
    /// lives, the request counts in [`AdmissionController::parked`]
    /// instead of the in-flight total, so idle waiters cannot push fresh
    /// requests into `queue_full`/`overload` sheds. Dropping the slot
    /// re-takes the in-flight count *unconditionally* — the request
    /// already passed admission, and re-checking the cap on wake-up could
    /// deadlock a full server against its own waiters; the count may
    /// therefore transiently exceed `max_inflight` while woken waiters
    /// finish up.
    ///
    /// Parked waiters are invisible to `drain`'s settle loop (it watches
    /// in-flight only), so a parked handler must use bounded waits and
    /// check [`AdmissionController::is_draining`] on every wake-up.
    pub fn park(&self) -> ParkedSlot<'_> {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.parked.fetch_add(1, Ordering::SeqCst);
        self.set_inflight_gauge();
        self.set_parked_gauge();
        ParkedSlot { controller: self }
    }

    fn set_parked_gauge(&self) {
        sift_obs::gauge("sift_net_parked_waiters", &[])
            .set(i64::try_from(self.parked()).unwrap_or(i64::MAX));
    }
}

/// RAII in-flight slot; dropping it releases the slot.
#[derive(Debug)]
pub struct InflightGuard<'a> {
    controller: &'a AdmissionController,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.controller.inflight.fetch_sub(1, Ordering::SeqCst);
        self.controller.set_inflight_gauge();
    }
}

/// RAII parked wait (see [`AdmissionController::park`]); dropping it moves the
/// request back from the parked count to the in-flight count.
#[derive(Debug)]
pub struct ParkedSlot<'a> {
    controller: &'a AdmissionController,
}

impl Drop for ParkedSlot<'_> {
    fn drop(&mut self) {
        self.controller.parked.fetch_sub(1, Ordering::SeqCst);
        self.controller.inflight.fetch_add(1, Ordering::SeqCst);
        self.controller.set_parked_gauge();
        self.controller.set_inflight_gauge();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(max_inflight: usize, max_queue: usize) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            max_inflight,
            max_queue,
            retry_after_secs: 2,
        })
    }

    #[test]
    fn inflight_cap_is_enforced_and_released() {
        let c = controller(2, 0);
        let a = c.try_admit().expect("slot 1");
        let _b = c.try_admit().expect("slot 2");
        assert_eq!(c.try_admit().unwrap_err(), ShedReason::Overload);
        assert_eq!(c.inflight(), 2);
        drop(a);
        assert_eq!(c.inflight(), 1);
        let _c2 = c.try_admit().expect("slot freed");
    }

    #[test]
    fn queue_cap_is_enforced() {
        let c = controller(0, 2);
        c.try_enqueue().expect("queued 1");
        c.try_enqueue().expect("queued 2");
        assert_eq!(c.try_enqueue().unwrap_err(), ShedReason::QueueFull);
        c.dequeued();
        c.try_enqueue().expect("slot freed");
    }

    #[test]
    fn zero_means_unbounded() {
        let c = AdmissionController::new(AdmissionConfig::unlimited());
        let guards: Vec<_> = (0..100).map(|_| c.try_admit().expect("admit")).collect();
        for _ in 0..100 {
            c.try_enqueue().expect("enqueue");
        }
        assert_eq!(c.inflight(), 100);
        drop(guards);
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn draining_refuses_everything_new() {
        let c = controller(4, 4);
        let _held = c.try_admit().expect("pre-drain slot");
        c.begin_drain();
        assert!(c.is_draining());
        assert_eq!(c.try_admit().unwrap_err(), ShedReason::Draining);
        assert_eq!(c.try_enqueue().unwrap_err(), ShedReason::Draining);
        assert_eq!(c.inflight(), 1, "in-flight work is unaffected");
    }

    #[test]
    fn shed_response_carries_retry_after_and_close() {
        let c = controller(1, 1);
        let resp = c.shed_response(ShedReason::QueueFull);
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(resp.headers.get("retry-after"), Some("2"));
        assert_eq!(resp.headers.get("connection"), Some("close"));
    }

    #[test]
    fn labels_cover_every_reason() {
        let labels: Vec<_> = ShedReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, ["queue_full", "overload", "draining"]);
    }

    /// Regression (parked-waiter accounting): a long-poll subscriber
    /// blocked waiting for the next event must not hold an in-flight slot
    /// — before `park`, one idle subscriber on a `max_inflight: 1` server
    /// pushed every fresh request into an `overload` shed for as long as
    /// it waited.
    #[test]
    fn parked_waiter_does_not_shed_fresh_requests() {
        let c = controller(1, 0);
        let subscriber = c.try_admit().expect("subscriber admitted");
        assert_eq!(
            c.try_admit().unwrap_err(),
            ShedReason::Overload,
            "sanity: the cap really is 1"
        );

        let parked = c.park();
        assert_eq!(c.inflight(), 0);
        assert_eq!(c.parked(), 1);
        let fresh = c
            .try_admit()
            .expect("fresh request admitted while subscriber parked");
        drop(fresh);

        // Wake-up re-takes the slot unconditionally, even at the cap.
        let _held = c.try_admit().expect("slot free again");
        drop(parked);
        assert_eq!(c.parked(), 0);
        assert_eq!(
            c.inflight(),
            2,
            "woken waiter may transiently exceed the cap"
        );
        drop(subscriber);
        assert_eq!(c.inflight(), 1);
    }

    /// Regression (drain race): a request admitted concurrently with
    /// `begin_drain` must never be invisible to the settle loop. Either
    /// the admission fails with `Draining`, or its in-flight slot is
    /// observable before the drain can settle to zero. The old
    /// check-then-register order allowed "settled at zero" and "admitted,
    /// guard still held" to be true at once; repeated racing spawns would
    /// eventually catch the torn interleaving.
    #[test]
    fn drain_settle_cannot_miss_a_concurrent_admission() {
        use std::sync::mpsc;
        use std::sync::{Arc, Barrier};

        for _ in 0..1000 {
            let c = Arc::new(controller(0, 0));
            let start = Arc::new(Barrier::new(2));
            let (admitted_tx, admitted_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();

            let racer = {
                let c = Arc::clone(&c);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    match c.try_admit() {
                        Ok(guard) => {
                            admitted_tx.send(true).expect("report admit");
                            // Hold the slot until the main thread has run
                            // its settle loop, like an in-flight request.
                            release_rx.recv().expect("release signal");
                            drop(guard);
                        }
                        Err(reason) => {
                            assert_eq!(reason, ShedReason::Draining);
                            admitted_tx.send(false).expect("report shed");
                        }
                    }
                })
            };

            start.wait();
            c.begin_drain();
            // The settle loop from `drain(grace)`: spin briefly, consider
            // the server drained the moment in-flight reads zero.
            let mut settled = false;
            for _ in 0..10_000 {
                if c.inflight() == 0 {
                    settled = true;
                    break;
                }
                std::hint::spin_loop();
            }
            let admitted = admitted_rx.recv().expect("racer verdict");
            assert!(
                !(settled && admitted),
                "drain settled to zero while an admitted request held a slot"
            );
            release_tx.send(()).ok();
            racer.join().expect("racer thread");
        }
    }
}
