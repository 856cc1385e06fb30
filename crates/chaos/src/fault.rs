//! Seeded per-request faults.
//!
//! A [`FaultPlan`] gives per-route probabilities of injected failures —
//! error statuses, `Retry-After`-less 429 storms, connection resets,
//! truncated bodies and read stalls — and the [`FaultInjector`] executes
//! it inside the proxy.
//!
//! Every decision is *replayable*: instead of one shared random stream
//! (whose draws would depend on thread interleaving), the injector
//! derives an independent ChaCha8 stream from `(plan seed, request key,
//! arrival number)`, where the request key is
//! [`sift_net::client::request_key`] of the route and body. Identical
//! request traffic therefore produces the identical fault sequence in
//! every run — a chaos run with a pinned seed is bit-for-bit reproducible,
//! and `scripts/check.sh` verifies exactly that.

use parking_lot::Mutex;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sift_net::client::request_key;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One kind of injected misbehaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Answer `500 Internal Server Error` without forwarding.
    InternalError,
    /// Answer `429 Too Many Requests` *without* a `Retry-After` header
    /// (the client must fall back to its own exponential backoff).
    RateStorm,
    /// Close the connection after reading the request, before writing any
    /// byte of the response (the client sees a reset / unexpected EOF).
    Reset,
    /// Write a truncated prefix of the real response, then close (the
    /// declared `Content-Length` promises more bytes than ever arrive).
    Truncate,
    /// Sleep before forwarding (a read stall; absorbed by client
    /// timeouts, surfaced as latency).
    Stall,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::InternalError,
        FaultKind::RateStorm,
        FaultKind::Reset,
        FaultKind::Truncate,
        FaultKind::Stall,
    ];

    /// The metric label this kind is counted under in
    /// `sift_net_faults_injected_total{kind=…}` (snake_case of the
    /// variant name).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::InternalError => "internal_error",
            FaultKind::RateStorm => "rate_storm",
            FaultKind::Reset => "reset",
            FaultKind::Truncate => "truncate",
            FaultKind::Stall => "stall",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Fault probabilities for one route prefix.
#[derive(Clone, Debug)]
struct RouteFaults {
    /// Requests whose pre-query path starts with this prefix are subject
    /// to the rule (first matching rule wins).
    route_prefix: String,
    /// `(kind, probability)` pairs, summed cumulatively.
    faults: Vec<(FaultKind, f64)>,
}

/// A seeded, per-route chaos configuration for the
/// [`crate::FaultProxy`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    routes: Vec<RouteFaults>,
    pub(crate) stall: Duration,
}

impl FaultPlan {
    /// An empty plan (no faults) under `seed`: same seed + same traffic
    /// = same faults.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            routes: Vec::new(),
            stall: Duration::from_millis(25),
        }
    }

    /// Adds a rule for every route starting with `prefix`. The
    /// probabilities must sum to at most 1.0.
    pub fn route(mut self, prefix: impl Into<String>, faults: &[(FaultKind, f64)]) -> FaultPlan {
        let total: f64 = faults.iter().map(|(_, p)| p).sum();
        assert!(
            (0.0..=1.0).contains(&total),
            "fault probabilities must sum to [0, 1], got {total}"
        );
        self.routes.push(RouteFaults {
            route_prefix: prefix.into(),
            faults: faults.to_vec(),
        });
        self
    }

    /// Adds a rule matching every route (prefix `/`).
    pub fn everywhere(self, faults: &[(FaultKind, f64)]) -> FaultPlan {
        self.route("/", faults)
    }

    /// Sets how long a [`FaultKind::Stall`] sleeps before forwarding
    /// (25 ms unless set).
    pub fn with_stall(mut self, stall: Duration) -> FaultPlan {
        self.stall = stall;
        self
    }
}

/// The runtime state of a [`FaultPlan`]: per-request arrival counters and
/// an injected-fault tally.
pub struct FaultInjector {
    pub(crate) plan: FaultPlan,
    /// Arrival count per request key: the n-th arrival of the same
    /// (route, body) draws from its own derived stream, so a retried
    /// request gets a fresh (but still deterministic) decision.
    arrivals: Mutex<HashMap<u64, u32>>,
    injected: AtomicU64,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub(crate) fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            arrivals: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Decides the fate of one request arrival. `route` is the pre-query
    /// path; `body` the raw request body. Returns the fault to inject, or
    /// `None` to forward normally.
    pub(crate) fn decide(&self, route: &str, body: &[u8]) -> Option<FaultKind> {
        let rule = self
            .plan
            .routes
            .iter()
            .find(|r| route.starts_with(&r.route_prefix))?;
        let key = request_key(route, body);
        let arrival = {
            let mut arrivals = self.arrivals.lock();
            let slot = arrivals.entry(key).or_insert(0);
            let current = *slot;
            *slot = slot.saturating_add(1);
            current
        };
        let mut rng = ChaCha8Rng::from_seed(decision_seed(self.plan.seed, key, arrival));
        // One uniform draw in [0, 1) against the cumulative probabilities.
        let draw = f64::from(rng.next_u32()) / (f64::from(u32::MAX) + 1.0);
        let mut acc = 0.0f64;
        for (kind, p) in &rule.faults {
            acc += p;
            if draw < acc {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(*kind);
            }
        }
        None
    }

    /// Arrivals seen so far per request key, sorted by key.
    pub fn arrivals(&self) -> Vec<(u64, u32)> {
        let mut arrivals: Vec<_> = self.arrivals.lock().iter().map(|(k, n)| (*k, *n)).collect();
        arrivals.sort_unstable();
        arrivals
    }

    /// Total faults injected so far.
    pub fn injected_total(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// 32-byte ChaCha seed derived from (plan seed, request key, arrival).
fn decision_seed(seed: u64, key: u64, arrival: u32) -> [u8; 32] {
    let mut out = [0u8; 32];
    out[0..8].copy_from_slice(&seed.to_le_bytes());
    out[8..16].copy_from_slice(&key.to_le_bytes());
    out[16..20].copy_from_slice(&arrival.to_le_bytes());
    out[20..28].copy_from_slice(&(seed ^ key.rotate_left(17)).to_le_bytes());
    out[28..32].copy_from_slice(&0x5349_4654u32.to_le_bytes()); // "SIFT"
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(42).route(
            "/api",
            &[
                (FaultKind::Reset, 0.2),
                (FaultKind::InternalError, 0.2),
                (FaultKind::Truncate, 0.1),
            ],
        )
    }

    #[test]
    fn decisions_replay_exactly() {
        let a = FaultInjector::new(plan());
        let b = FaultInjector::new(plan());
        let bodies: Vec<Vec<u8>> = (0..200u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for body in &bodies {
            assert_eq!(a.decide("/api/frame", body), b.decide("/api/frame", body));
        }
        assert_eq!(a.injected_total(), b.injected_total());
        assert!(a.injected_total() > 0, "some faults must fire at 50%");
    }

    #[test]
    fn decisions_are_arrival_order_independent() {
        // The same multiset of arrivals, visited in different orders,
        // produces the same decision per (request, arrival index).
        let a = FaultInjector::new(plan());
        let b = FaultInjector::new(plan());
        let first: Vec<_> = (0..50u32)
            .map(|i| a.decide("/api/frame", &i.to_le_bytes()))
            .collect();
        let mut second = vec![None; 50];
        for i in (0..50u32).rev() {
            second[i as usize] = b.decide("/api/frame", &i.to_le_bytes());
        }
        assert_eq!(first, second);
    }

    #[test]
    fn retries_draw_fresh_decisions() {
        let inj = FaultInjector::new(FaultPlan::new(7).route("/", &[(FaultKind::Reset, 0.5)]));
        let decisions: Vec<_> = (0..64).map(|_| inj.decide("/x", b"same")).collect();
        assert!(decisions.iter().any(|d| d.is_some()));
        assert!(
            decisions.iter().any(|d| d.is_none()),
            "a 50% fault rate must let retries through eventually"
        );
    }

    #[test]
    fn unmatched_routes_are_untouched() {
        let inj = FaultInjector::new(plan());
        for i in 0..100u32 {
            assert_eq!(inj.decide("/healthz", &i.to_le_bytes()), None);
        }
        assert_eq!(inj.injected_total(), 0);
    }

    #[test]
    fn first_matching_prefix_wins() {
        let p = FaultPlan::new(1)
            .route("/api/frame", &[(FaultKind::Stall, 1.0)])
            .everywhere(&[(FaultKind::Reset, 1.0)]);
        let inj = FaultInjector::new(p);
        assert_eq!(inj.decide("/api/frame", b""), Some(FaultKind::Stall));
        assert_eq!(inj.decide("/api/rising", b""), Some(FaultKind::Reset));
    }

    #[test]
    fn labels_cover_every_kind_uniquely() {
        let mut labels: Vec<_> = FaultKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FaultKind::ALL.len());
    }

    #[test]
    #[should_panic(expected = "sum to [0, 1]")]
    fn overweight_plans_rejected() {
        let _ = FaultPlan::new(0).route("/", &[(FaultKind::Reset, 0.7), (FaultKind::Stall, 0.7)]);
    }
}
