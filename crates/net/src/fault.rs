//! Deterministic fault injection for the HTTP server.
//!
//! The paper's crawl ran for months against a live service that throttles,
//! drops connections and intermittently fails; SIFT's claim is that the
//! pipeline recovers a clean signal anyway. To test that claim the server
//! can be configured with a [`FaultPlan`]: per-route probabilities of
//! injected failures — error statuses, `Retry-After`-less 429 storms,
//! connection resets mid-response, truncated bodies and read stalls.
//!
//! Every decision is *replayable*: instead of one shared random stream
//! (whose draws would depend on worker-thread interleaving), the injector
//! derives an independent ChaCha8 stream from `(plan seed, request key,
//! arrival number)`, where the request key hashes the route and body.
//! Identical request traffic therefore produces the identical fault
//! sequence in every run — a chaos run with a pinned seed is bit-for-bit
//! reproducible, and `scripts/check.sh` verifies exactly that.

use parking_lot::Mutex;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One kind of injected misbehaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Answer `500 Internal Server Error` without running the handler.
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
    /// Sleep before serving the response normally (a read stall; absorbed
    /// by client timeouts, surfaced as latency).
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
pub struct RouteFaults {
    /// Requests whose pre-query path starts with this prefix are subject
    /// to the rule (first matching rule wins).
    pub route_prefix: String,
    /// `(kind, probability)` pairs; probabilities are cumulative-summed,
    /// so their total must stay ≤ 1.0.
    pub faults: Vec<(FaultKind, f64)>,
}

/// A seeded, per-route chaos configuration for [`crate::Server`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed of every fault decision; same seed + same traffic = same
    /// faults.
    pub seed: u64,
    /// Route rules, matched in order by prefix.
    pub routes: Vec<RouteFaults>,
    /// How long a [`FaultKind::Stall`] sleeps before serving.
    pub stall: Duration,
}

impl FaultPlan {
    /// An empty plan (no faults) under `seed`.
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

    /// Sets the [`FaultKind::Stall`] sleep.
    pub fn with_stall(mut self, stall: Duration) -> FaultPlan {
        self.stall = stall;
        self
    }
}

/// The runtime state of a [`FaultPlan`]: per-request arrival counters and
/// an injected-fault tally. One injector per server.
pub struct FaultInjector {
    plan: FaultPlan,
    /// Arrival count per request key: the n-th arrival of the same
    /// (route, body) draws from its own derived stream, so a retried
    /// request gets a fresh (but still deterministic) decision.
    arrivals: Mutex<HashMap<u64, u32>>,
    injected: AtomicU64,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            arrivals: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Decides the fate of one request arrival. `route` is the pre-query
    /// path; `body` the raw request body. Returns the fault to inject, or
    /// `None` to serve normally.
    pub fn decide(&self, route: &str, body: &[u8]) -> Option<FaultKind> {
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
    #[cfg(test)]
    pub(crate) fn arrivals(&self) -> Vec<(u64, u32)> {
        let mut arrivals: Vec<_> = self.arrivals.lock().iter().map(|(k, n)| (*k, *n)).collect();
        arrivals.sort_unstable();
        arrivals
    }

    /// Total faults injected so far.
    pub fn injected_total(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The configured stall duration.
    pub fn stall(&self) -> Duration {
        self.plan.stall
    }
}

/// FNV-1a over route and body, with a separator so `("/a", b"b")` and
/// `("/ab", b"")` hash apart.
pub(crate) fn request_key(route: &str, body: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut step = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in route.bytes() {
        step(b);
    }
    step(0xff);
    for &b in body {
        step(b);
    }
    hash
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

/// One kind of cluster-grade nemesis fault. Unlike [`FaultKind`] —
/// which misbehaves *inside* one server — a nemesis fault acts on the
/// cluster: links between named endpoints, or whole processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NemesisFaultKind {
    /// Both directions between two endpoints drop requests.
    PartitionSym,
    /// Requests are delivered but the replies are lost — the receiver
    /// acts, the sender never learns (the classic zombie-lease shape).
    PartitionAsym,
    /// One worker's heartbeats are delayed.
    HeartbeatDelay,
    /// The coordinator process is killed.
    KillCoordinator,
    /// The coordinator process is restarted (recovers from its journal).
    RestartCoordinator,
    /// Installed link faults are removed.
    Heal,
}

impl NemesisFaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [NemesisFaultKind; 6] = [
        NemesisFaultKind::PartitionSym,
        NemesisFaultKind::PartitionAsym,
        NemesisFaultKind::HeartbeatDelay,
        NemesisFaultKind::KillCoordinator,
        NemesisFaultKind::RestartCoordinator,
        NemesisFaultKind::Heal,
    ];

    /// The metric label this kind is counted under in
    /// `sift_cluster_nemesis_faults_total{kind=…}` (snake_case of the
    /// variant name).
    pub fn label(self) -> &'static str {
        match self {
            NemesisFaultKind::PartitionSym => "partition_sym",
            NemesisFaultKind::PartitionAsym => "partition_asym",
            NemesisFaultKind::HeartbeatDelay => "heartbeat_delay",
            NemesisFaultKind::KillCoordinator => "kill_coordinator",
            NemesisFaultKind::RestartCoordinator => "restart_coordinator",
            NemesisFaultKind::Heal => "heal",
        }
    }
}

impl std::fmt::Display for NemesisFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One concrete nemesis operation over named endpoints. Endpoint names
/// are client identities (`x-fetcher-ip` header, or peer IP) on the
/// `from` side and server names (see `Server::with_nemesis`) on the
/// `to` side.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NemesisOp {
    /// Drop requests in both directions between `a` and `b`.
    PartitionSym {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
    },
    /// Deliver requests from `from` to `to`, but lose the replies.
    PartitionAsym {
        /// The side whose requests still arrive.
        from: String,
        /// The side whose replies are lost.
        to: String,
    },
    /// Delay `worker`'s heartbeats by `delay_ms`.
    HeartbeatDelay {
        /// The affected worker identity.
        worker: String,
        /// Added heartbeat latency, milliseconds.
        delay_ms: u64,
    },
    /// Remove link faults between `a` and `b` (either direction).
    Heal {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
    },
    /// Kill the coordinator process (executed by the harness).
    KillCoordinator,
    /// Restart the coordinator process (executed by the harness).
    RestartCoordinator,
}

impl NemesisOp {
    /// The fault kind this operation is counted as.
    pub fn kind(&self) -> NemesisFaultKind {
        match self {
            NemesisOp::PartitionSym { .. } => NemesisFaultKind::PartitionSym,
            NemesisOp::PartitionAsym { .. } => NemesisFaultKind::PartitionAsym,
            NemesisOp::HeartbeatDelay { .. } => NemesisFaultKind::HeartbeatDelay,
            NemesisOp::Heal { .. } => NemesisFaultKind::Heal,
            NemesisOp::KillCoordinator => NemesisFaultKind::KillCoordinator,
            NemesisOp::RestartCoordinator => NemesisFaultKind::RestartCoordinator,
        }
    }
}

impl std::fmt::Display for NemesisOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NemesisOp::PartitionSym { a, b } => write!(f, "partition_sym {a} <-x-> {b}"),
            NemesisOp::PartitionAsym { from, to } => write!(f, "partition_asym {from} -> {to}"),
            NemesisOp::HeartbeatDelay { worker, delay_ms } => {
                write!(f, "heartbeat_delay {worker} +{delay_ms}ms")
            }
            NemesisOp::Heal { a, b } => write!(f, "heal {a} <-> {b}"),
            NemesisOp::KillCoordinator => f.write_str("kill_coordinator"),
            NemesisOp::RestartCoordinator => f.write_str("restart_coordinator"),
        }
    }
}

/// One scheduled nemesis operation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NemesisStep {
    /// When the operation fires, milliseconds after the run starts.
    pub at_ms: u64,
    /// What happens.
    pub op: NemesisOp,
}

/// A seeded, replayable nemesis schedule: "kill the coordinator at T1,
/// partition worker 2 at T2, heal at T3". The same plan over the same
/// deterministic world converges to the same final result, which is what
/// the nemesis acceptance gate byte-diffs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NemesisPlan {
    /// The seed the schedule was derived from (0 for hand-built plans).
    pub seed: u64,
    /// Operations in firing order.
    pub steps: Vec<NemesisStep>,
}

impl NemesisPlan {
    /// An empty schedule under `seed`.
    pub fn new(seed: u64) -> NemesisPlan {
        NemesisPlan {
            seed,
            steps: Vec::new(),
        }
    }

    /// Appends an operation at `at_ms` (keeps the schedule sorted).
    pub fn step(mut self, at_ms: u64, op: NemesisOp) -> NemesisPlan {
        self.steps.push(NemesisStep { at_ms, op });
        self.steps.sort_by_key(|x| x.at_ms);
        self
    }

    /// A randomized-but-seeded schedule over `horizon_ms`: the
    /// coordinator is killed and restarted in the first half, one worker
    /// is partitioned (symmetrically or asymmetrically, by coin) in the
    /// second half and healed before the horizon, and a second worker
    /// may get a heartbeat delay. A pure function of its arguments —
    /// replaying the seed replays the schedule exactly.
    pub fn random(
        seed: u64,
        coordinator: &str,
        workers: &[String],
        horizon_ms: u64,
    ) -> NemesisPlan {
        let mut rng = ChaCha8Rng::from_seed(nemesis_seed(seed));
        let h = horizon_ms.max(100);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "a fraction in [0, 1) of a u64 horizon; float `as` saturates"
        )]
        let frac = |rng: &mut ChaCha8Rng, lo: f64, hi: f64| -> u64 {
            let draw = f64::from(rng.next_u32()) / (f64::from(u32::MAX) + 1.0);
            let f = lo + draw * (hi - lo);
            ((h as f64) * f) as u64
        };
        let kill_at = frac(&mut rng, 0.20, 0.35);
        let restart_at = kill_at + frac(&mut rng, 0.10, 0.20);
        let mut plan = NemesisPlan::new(seed)
            .step(kill_at, NemesisOp::KillCoordinator)
            .step(restart_at, NemesisOp::RestartCoordinator);
        if !workers.is_empty() {
            let victim = workers[(rng.next_u32() as usize) % workers.len()].clone();
            let cut_at = frac(&mut rng, 0.55, 0.70);
            let heal_at = cut_at + frac(&mut rng, 0.15, 0.25);
            let cut = if rng.next_u32() % 2 == 0 {
                NemesisOp::PartitionSym {
                    a: victim.clone(),
                    b: coordinator.to_owned(),
                }
            } else {
                NemesisOp::PartitionAsym {
                    from: victim.clone(),
                    to: coordinator.to_owned(),
                }
            };
            plan = plan.step(cut_at, cut).step(
                heal_at,
                NemesisOp::Heal {
                    a: victim.clone(),
                    b: coordinator.to_owned(),
                },
            );
            if workers.len() > 1 && rng.next_u32() % 2 == 0 {
                let other = workers
                    .iter()
                    .find(|w| **w != victim)
                    .cloned()
                    .unwrap_or(victim);
                let delay_at = frac(&mut rng, 0.40, 0.55);
                plan = plan
                    .step(
                        delay_at,
                        NemesisOp::HeartbeatDelay {
                            worker: other.clone(),
                            delay_ms: 5 + u64::from(rng.next_u32() % 20),
                        },
                    )
                    .step(
                        delay_at + frac(&mut rng, 0.05, 0.10),
                        NemesisOp::Heal {
                            a: other,
                            b: coordinator.to_owned(),
                        },
                    );
            }
        }
        plan
    }
}

/// What an installed link rule does to a matched request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkAction {
    /// Drop the request before the handler runs (sender sees a reset).
    DropRequest,
    /// Run the handler but never write the reply (receiver acts, sender
    /// sees a reset — the asymmetric-partition shape).
    DropReply,
    /// Delay the request by this much, then serve normally.
    Delay(Duration),
}

/// One installed link fault: traffic `from → to` (with `"*"` matching
/// any endpoint), optionally scoped to a route prefix.
#[derive(Clone, Debug)]
pub struct LinkRule {
    /// Sender identity (`"*"` = any).
    pub from: String,
    /// Receiver (server) name (`"*"` = any).
    pub to: String,
    /// The fault kind counted when the rule matches.
    pub kind: NemesisFaultKind,
    /// What happens to matched traffic.
    pub action: LinkAction,
    /// Only routes starting with this prefix are affected, when set.
    pub route_prefix: Option<String>,
}

impl LinkRule {
    fn involves(&self, a: &str, b: &str) -> bool {
        (self.from == a && (self.to == b || self.to == "*"))
            || (self.from == b && (self.to == a || self.to == "*"))
    }
}

/// The cluster's shared link-fault table. One instance is handed to
/// every nemesis-aware server (`Server::with_nemesis`); the
/// [`NemesisDriver`] installs and removes rules as the schedule fires.
#[derive(Default)]
pub struct NemesisState {
    rules: Mutex<Vec<LinkRule>>,
    dropped: AtomicU64,
    delayed: AtomicU64,
}

impl NemesisState {
    /// An empty table (no link faults).
    pub fn new() -> NemesisState {
        NemesisState::default()
    }

    /// Applies a network-level operation to the table. Returns `false`
    /// for process-level operations (kill/restart), which only the
    /// harness that owns the processes can execute.
    pub fn apply(&self, op: &NemesisOp) -> bool {
        let kind = op.kind();
        let mut rules = self.rules.lock();
        match op {
            NemesisOp::PartitionSym { a, b } => {
                for (from, to) in [(a, b), (b, a)] {
                    rules.push(LinkRule {
                        from: from.clone(),
                        to: to.clone(),
                        kind,
                        action: LinkAction::DropRequest,
                        route_prefix: None,
                    });
                }
                true
            }
            NemesisOp::PartitionAsym { from, to } => {
                rules.push(LinkRule {
                    from: from.clone(),
                    to: to.clone(),
                    kind,
                    action: LinkAction::DropReply,
                    route_prefix: None,
                });
                true
            }
            NemesisOp::HeartbeatDelay { worker, delay_ms } => {
                rules.push(LinkRule {
                    from: worker.clone(),
                    to: "*".to_owned(),
                    kind,
                    action: LinkAction::Delay(Duration::from_millis(*delay_ms)),
                    route_prefix: Some("/cluster/heartbeat".to_owned()),
                });
                true
            }
            NemesisOp::Heal { a, b } => {
                rules.retain(|r| !r.involves(a, b));
                true
            }
            NemesisOp::KillCoordinator | NemesisOp::RestartCoordinator => false,
        }
    }

    /// The fate of one request `from → to` on `route`: the first
    /// matching rule's action, or `None` for clean delivery.
    pub fn decide(
        &self,
        from: &str,
        to: &str,
        route: &str,
    ) -> Option<(NemesisFaultKind, LinkAction)> {
        let rules = self.rules.lock();
        let hit = rules.iter().find(|r| {
            (r.from == "*" || r.from == from)
                && (r.to == "*" || r.to == to)
                && match r.route_prefix.as_deref() {
                    Some(p) => route.starts_with(p),
                    None => true,
                }
        })?;
        match hit.action {
            LinkAction::Delay(_) => {
                self.delayed.fetch_add(1, Ordering::Relaxed);
            }
            LinkAction::DropRequest | LinkAction::DropReply => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some((hit.kind, hit.action))
    }

    /// Installed rules right now (for audits).
    pub fn active_rules(&self) -> usize {
        self.rules.lock().len()
    }

    /// Requests dropped (request or reply side) so far.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Requests delayed so far.
    pub fn delayed_total(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }
}

/// Walks a [`NemesisPlan`] against the wall clock: network operations
/// are applied to the shared [`NemesisState`], process operations are
/// handed back for the owning harness to execute. Every fired step is
/// counted under `sift_cluster_nemesis_faults_total{kind=…}`.
pub struct NemesisDriver {
    plan: NemesisPlan,
    state: Arc<NemesisState>,
    started: Instant,
    next: usize,
}

impl NemesisDriver {
    /// A driver for `plan` over the cluster-shared `state`. The clock
    /// starts now.
    #[expect(clippy::disallowed_methods, reason = "nemesis steps fire on host time")]
    pub fn new(plan: NemesisPlan, state: Arc<NemesisState>) -> NemesisDriver {
        NemesisDriver {
            plan,
            state,
            started: Instant::now(),
            next: 0,
        }
    }

    /// Fires every step whose time has come. Network steps are applied
    /// in place; process steps are returned for the harness.
    pub fn due(&mut self) -> Vec<NemesisOp> {
        let now = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        let mut process = Vec::new();
        while let Some(step) = self.plan.steps.get(self.next) {
            if step.at_ms > now {
                break;
            }
            let op = step.op.clone();
            self.next += 1;
            sift_obs::counter(
                "sift_cluster_nemesis_faults_total",
                &[("kind", op.kind().label())],
            )
            .inc();
            if !self.state.apply(&op) {
                process.push(op);
            }
        }
        process
    }

    /// Whether every step has fired.
    pub fn finished(&self) -> bool {
        self.next >= self.plan.steps.len()
    }

    /// The schedule being driven.
    pub fn plan(&self) -> &NemesisPlan {
        &self.plan
    }
}

/// 32-byte ChaCha seed for schedule generation, tagged "NMSP" so it can
/// never collide with per-request fault streams.
fn nemesis_seed(seed: u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    out[0..8].copy_from_slice(&seed.to_le_bytes());
    out[8..16].copy_from_slice(&seed.rotate_left(23).to_le_bytes());
    out[28..32].copy_from_slice(&0x4e4d_5350u32.to_le_bytes()); // "NMSP"
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

    #[test]
    fn nemesis_labels_cover_every_kind_uniquely() {
        let mut labels: Vec<_> = NemesisFaultKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NemesisFaultKind::ALL.len());
    }

    #[test]
    fn random_schedules_replay_exactly_and_vary_by_seed() {
        let workers = vec!["w0".to_owned(), "w1".to_owned(), "w2".to_owned()];
        let a = NemesisPlan::random(7, "coord", &workers, 4_000);
        let b = NemesisPlan::random(7, "coord", &workers, 4_000);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert!(a.steps.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert!(a.steps.iter().any(|s| s.op == NemesisOp::KillCoordinator));
        assert!(a
            .steps
            .iter()
            .any(|s| s.op == NemesisOp::RestartCoordinator));
        assert!(a.steps.iter().any(|s| matches!(
            s.op.kind(),
            NemesisFaultKind::PartitionSym | NemesisFaultKind::PartitionAsym
        )));
        assert!(a
            .steps
            .iter()
            .any(|s| s.op.kind() == NemesisFaultKind::Heal));
        let c = NemesisPlan::random(8, "coord", &workers, 4_000);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn symmetric_partition_cuts_both_directions_until_healed() {
        let state = NemesisState::new();
        assert!(state.apply(&NemesisOp::PartitionSym {
            a: "w1".into(),
            b: "coord".into(),
        }));
        assert_eq!(
            state.decide("w1", "coord", "/cluster/lease"),
            Some((NemesisFaultKind::PartitionSym, LinkAction::DropRequest))
        );
        assert_eq!(
            state.decide("coord", "w1", "/anything"),
            Some((NemesisFaultKind::PartitionSym, LinkAction::DropRequest))
        );
        assert_eq!(state.decide("w2", "coord", "/cluster/lease"), None);
        assert!(state.apply(&NemesisOp::Heal {
            a: "coord".into(),
            b: "w1".into(),
        }));
        assert_eq!(state.decide("w1", "coord", "/cluster/lease"), None);
        assert_eq!(state.active_rules(), 0);
        assert!(state.dropped_total() >= 2);
    }

    #[test]
    fn asymmetric_partition_loses_only_the_reply() {
        let state = NemesisState::new();
        assert!(state.apply(&NemesisOp::PartitionAsym {
            from: "w0".into(),
            to: "coord".into(),
        }));
        assert_eq!(
            state.decide("w0", "coord", "/cluster/result"),
            Some((NemesisFaultKind::PartitionAsym, LinkAction::DropReply)),
            "requests arrive, replies are lost"
        );
        assert_eq!(
            state.decide("coord", "w0", "/x"),
            None,
            "the reverse direction is untouched"
        );
    }

    #[test]
    fn heartbeat_faults_are_route_scoped() {
        let state = NemesisState::new();
        assert!(state.apply(&NemesisOp::HeartbeatDelay {
            worker: "w2".into(),
            delay_ms: 7,
        }));
        assert_eq!(
            state.decide("w2", "coord", "/cluster/heartbeat"),
            Some((
                NemesisFaultKind::HeartbeatDelay,
                LinkAction::Delay(Duration::from_millis(7))
            ))
        );
        assert_eq!(
            state.decide("w2", "coord", "/cluster/lease"),
            None,
            "only heartbeats are affected"
        );
    }

    #[test]
    fn process_ops_are_for_the_harness_not_the_link_table() {
        let state = NemesisState::new();
        assert!(!state.apply(&NemesisOp::KillCoordinator));
        assert!(!state.apply(&NemesisOp::RestartCoordinator));
        assert_eq!(state.active_rules(), 0);
    }

    #[test]
    fn driver_applies_network_steps_and_hands_back_process_steps() {
        let state = Arc::new(NemesisState::new());
        let plan = NemesisPlan::new(0)
            .step(
                0,
                NemesisOp::PartitionSym {
                    a: "w0".into(),
                    b: "coord".into(),
                },
            )
            .step(0, NemesisOp::KillCoordinator)
            .step(60_000, NemesisOp::RestartCoordinator);
        let mut driver = NemesisDriver::new(plan, Arc::clone(&state));
        let process = driver.due();
        assert_eq!(process, vec![NemesisOp::KillCoordinator]);
        assert_eq!(state.active_rules(), 2, "partition rules installed");
        assert!(!driver.finished(), "the far-future restart has not fired");
    }
}
