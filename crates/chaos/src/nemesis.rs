//! Nemesis schedules and the link-fault table they drive.
//!
//! Unlike a [`crate::FaultKind`] — which misbehaves on one request — a
//! nemesis operation acts on the cluster: links between named endpoints,
//! or whole processes. A [`NemesisPlan`] is a seeded, replayable schedule
//! of [`NemesisOp`]s; network operations become rules in the
//! [`NemesisState`] link table that the [`crate::FaultProxy`] consults on
//! every request, and process operations are executed by
//! [`crate::NemesisCluster::run`].

use parking_lot::Mutex;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One concrete nemesis operation over named endpoints. Endpoint names
/// are client identities (`x-fetcher-ip` header, or peer IP); the
/// receiving side is the one endpoint the proxy fronts.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// The label this operation is counted under in
    /// `sift_cluster_nemesis_faults_total{kind=…}` (snake_case of the
    /// variant name).
    pub fn label(&self) -> &'static str {
        match self {
            NemesisOp::PartitionSym { .. } => "partition_sym",
            NemesisOp::PartitionAsym { .. } => "partition_asym",
            NemesisOp::HeartbeatDelay { .. } => "heartbeat_delay",
            NemesisOp::Heal { .. } => "heal",
            NemesisOp::KillCoordinator => "kill_coordinator",
            NemesisOp::RestartCoordinator => "restart_coordinator",
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
pub(crate) enum LinkAction {
    /// Drop the request before it is forwarded (sender sees a reset).
    DropRequest,
    /// Forward the request but never deliver the reply (receiver acts,
    /// sender sees a reset — the asymmetric-partition shape).
    DropReply,
    /// Delay the request by this much, then forward it.
    Delay(Duration),
}

/// One installed link fault: traffic from `from` into the fronted
/// endpoint, optionally scoped to a route prefix.
#[derive(Clone, Debug)]
struct LinkRule {
    from: String,
    /// The label of the operation that installed the rule.
    kind: &'static str,
    action: LinkAction,
    /// Only routes starting with this prefix are affected (`""`: all).
    route_prefix: &'static str,
}

/// A proxy's link-fault table: rules are installed and removed as a
/// schedule fires, and consulted once per request.
#[derive(Default)]
pub struct NemesisState {
    rules: Mutex<Vec<LinkRule>>,
    dropped: AtomicU64,
    delayed: AtomicU64,
}

impl NemesisState {
    /// An empty table (no link faults).
    pub(crate) fn new() -> NemesisState {
        NemesisState::default()
    }

    /// Applies a network-level operation to the table. Returns `false`
    /// for process-level operations (kill/restart), which only the
    /// harness that owns the processes can execute.
    pub fn apply(&self, op: &NemesisOp) -> bool {
        let kind = op.label();
        let rule = |from: &String, action, route_prefix| LinkRule {
            from: from.clone(),
            kind,
            action,
            route_prefix,
        };
        let mut rules = self.rules.lock();
        match op {
            NemesisOp::PartitionSym { a, b } => {
                rules.push(rule(a, LinkAction::DropRequest, ""));
                rules.push(rule(b, LinkAction::DropRequest, ""));
            }
            NemesisOp::PartitionAsym { from, .. } => {
                rules.push(rule(from, LinkAction::DropReply, ""));
            }
            NemesisOp::HeartbeatDelay { worker, delay_ms } => {
                let delay = LinkAction::Delay(Duration::from_millis(*delay_ms));
                rules.push(rule(worker, delay, "/cluster/heartbeat"));
            }
            NemesisOp::Heal { a, b } => rules.retain(|r| r.from != *a && r.from != *b),
            NemesisOp::KillCoordinator | NemesisOp::RestartCoordinator => return false,
        }
        true
    }

    /// The fate of one request from `from` on `route`: the first
    /// matching rule's label and action, or `None` for clean delivery.
    pub(crate) fn decide(&self, from: &str, route: &str) -> Option<(&'static str, LinkAction)> {
        let rules = self.rules.lock();
        let hit = rules
            .iter()
            .find(|r| r.from == from && route.starts_with(r.route_prefix))?;
        let tally = match hit.action {
            LinkAction::Delay(_) => &self.delayed,
            LinkAction::DropRequest | LinkAction::DropReply => &self.dropped,
        };
        tally.fetch_add(1, Ordering::Relaxed);
        Some((hit.kind, hit.action))
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

    #[test]
    fn nemesis_labels_cover_every_kind_uniquely() {
        let ops = [
            NemesisOp::PartitionSym {
                a: "a".into(),
                b: "b".into(),
            },
            NemesisOp::PartitionAsym {
                from: "a".into(),
                to: "b".into(),
            },
            NemesisOp::HeartbeatDelay {
                worker: "a".into(),
                delay_ms: 1,
            },
            NemesisOp::Heal {
                a: "a".into(),
                b: "b".into(),
            },
            NemesisOp::KillCoordinator,
            NemesisOp::RestartCoordinator,
        ];
        let mut labels: Vec<_> = ops.iter().map(NemesisOp::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ops.len());
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
            s.op,
            NemesisOp::PartitionSym { .. } | NemesisOp::PartitionAsym { .. }
        )));
        assert!(a
            .steps
            .iter()
            .any(|s| matches!(s.op, NemesisOp::Heal { .. })));
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
            state.decide("w1", "/cluster/lease"),
            Some(("partition_sym", LinkAction::DropRequest))
        );
        assert_eq!(
            state.decide("coord", "/anything"),
            Some(("partition_sym", LinkAction::DropRequest))
        );
        assert_eq!(state.decide("w2", "/cluster/lease"), None);
        assert!(state.apply(&NemesisOp::Heal {
            a: "coord".into(),
            b: "w1".into(),
        }));
        assert_eq!(state.decide("w1", "/cluster/lease"), None);
        assert_eq!(state.decide("coord", "/anything"), None);
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
            state.decide("w0", "/cluster/result"),
            Some(("partition_asym", LinkAction::DropReply)),
            "requests arrive, replies are lost"
        );
        assert_eq!(
            state.decide("coord", "/x"),
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
            state.decide("w2", "/cluster/heartbeat"),
            Some((
                "heartbeat_delay",
                LinkAction::Delay(Duration::from_millis(7))
            ))
        );
        assert_eq!(
            state.decide("w2", "/cluster/lease"),
            None,
            "only heartbeats are affected"
        );
    }

    #[test]
    fn process_ops_are_for_the_harness_not_the_link_table() {
        let state = NemesisState::new();
        assert!(!state.apply(&NemesisOp::KillCoordinator));
        assert!(!state.apply(&NemesisOp::RestartCoordinator));
        assert_eq!(state.decide("coordinator", "/"), None);
    }
}
