//! Client-side overload protection: the circuit breaker.
//!
//! The paper's premise is that search-interest spikes arrive exactly when
//! everyone's Internet is broken — the crawler hammers the trends service
//! hardest at the worst possible moment. Per-request retries (PR 3) make a
//! single fetch robust; this module keeps the *fleet* from amplifying a
//! degraded endpoint into a collapse. [`CircuitBreaker`] is a
//! per-endpoint closed → open → half-open state machine: after
//! `failure_threshold` consecutive failures the breaker opens and callers
//! fail fast instead of queueing against a dead endpoint; after
//! `cooldown` a single probe is allowed through and a success closes the
//! circuit again.
//!
//! Like [`crate::ratelimit`], time is injected in milliseconds so the
//! state machine is exactly testable; the public methods wire in a
//! monotonic clock. [`CircuitBreaker::fast_forward`] advances that clock
//! artificially — deterministic recovery drills don't have to sleep
//! through a real cooldown.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The three breaker states.
///
/// Gauge exposition: `sift_client_breaker_state{endpoint=…}` carries the
/// numeric state (0 closed, 1 open, 2 half-open).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are counted.
    Closed,
    /// Requests fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: probes are allowed; a success closes the
    /// circuit, a failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Every state, in escalation order.
    pub const ALL: [BreakerState; 3] = [
        BreakerState::Closed,
        BreakerState::Open,
        BreakerState::HalfOpen,
    ];

    /// The metric label of this state (snake_case of the variant).
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// The value `sift_client_breaker_state` reports for this state.
    fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Circuit-breaker thresholds.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open (≥ 1).
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a probe.
    pub cooldown: Duration,
    /// Successful half-open probes required to close the circuit (≥ 1).
    pub success_threshold: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_secs(1),
            success_threshold: 1,
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    opened_at_ms: u64,
    /// Every `(from, to)` transition since construction, in order. No
    /// timestamps on purpose: two same-seed chaos runs must produce
    /// comparable logs even though their wall-clocks differ.
    transitions: Vec<(BreakerState, BreakerState)>,
}

/// A per-endpoint circuit breaker.
///
/// Thread-safe; clone the [`std::sync::Arc`] it is usually wrapped in to
/// share one breaker between a client and the collection queue consulting
/// its state.
#[derive(Debug)]
pub struct CircuitBreaker {
    endpoint: String,
    config: BreakerConfig,
    epoch: Instant,
    /// Artificial clock advance in ms (see [`Self::fast_forward`]).
    skew_ms: AtomicU64,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker for `endpoint` (the gauge label).
    #[expect(clippy::disallowed_methods, reason = "the breaker times real sockets")]
    pub fn new(endpoint: impl Into<String>, config: BreakerConfig) -> Self {
        assert!(config.failure_threshold >= 1, "threshold must be ≥ 1");
        assert!(config.success_threshold >= 1, "threshold must be ≥ 1");
        let endpoint = endpoint.into();
        sift_obs::gauge("sift_client_breaker_state", &[("endpoint", &endpoint)])
            .set(BreakerState::Closed.gauge_value());
        CircuitBreaker {
            endpoint,
            config,
            epoch: Instant::now(),
            skew_ms: AtomicU64::new(0),
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                half_open_successes: 0,
                opened_at_ms: 0,
                transitions: Vec::new(),
            }),
        }
    }

    /// The endpoint label this breaker guards.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// Whether a request may proceed right now. An open breaker whose
    /// cooldown has elapsed transitions to half-open and admits the call
    /// as a probe.
    pub fn allow(&self) -> bool {
        self.allow_at(self.now_ms())
    }

    /// Non-mutating preview of [`Self::allow`]: reports whether a request
    /// *would* be admitted without consuming the half-open transition.
    /// This is what pipeline stages consult before re-planning work.
    pub fn would_allow(&self) -> bool {
        let inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => self.cooldown_elapsed(&inner, self.now_ms()),
        }
    }

    /// [`Self::allow`] at an explicit time (for tests).
    pub fn allow_at(&self, now_ms: u64) -> bool {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.cooldown_elapsed(&inner, now_ms) {
                    inner.half_open_successes = 0;
                    self.transition(&mut inner, BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful call.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => inner.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                inner.half_open_successes += 1;
                if inner.half_open_successes >= self.config.success_threshold {
                    inner.consecutive_failures = 0;
                    self.transition(&mut inner, BreakerState::Closed);
                }
            }
            // A late success from a call issued before the circuit opened
            // carries no signal about the endpoint *now*.
            BreakerState::Open => {}
        }
    }

    /// Records a failed call (transport error or 5xx).
    pub fn record_failure(&self) {
        self.record_failure_at(self.now_ms());
    }

    /// [`Self::record_failure`] at an explicit time (for tests).
    pub fn record_failure_at(&self, now_ms: u64) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    inner.opened_at_ms = now_ms;
                    self.transition(&mut inner, BreakerState::Open);
                }
            }
            BreakerState::HalfOpen => {
                // The probe failed: back to open, cooldown restarts.
                inner.opened_at_ms = now_ms;
                self.transition(&mut inner, BreakerState::Open);
            }
            BreakerState::Open => {}
        }
    }

    /// Every `(from, to)` transition so far, in order.
    pub fn transitions(&self) -> Vec<(BreakerState, BreakerState)> {
        self.inner.lock().transitions.clone()
    }

    /// The transition log as `"closed->open"`-style strings — the
    /// replay-comparable artifact chaos runs assert on.
    pub fn transition_log(&self) -> Vec<String> {
        self.inner
            .lock()
            .transitions
            .iter()
            .map(|(from, to)| format!("{from}->{to}"))
            .collect()
    }

    /// Advances the breaker's clock by `d` without sleeping. Recovery
    /// drills (and the overload acceptance test) use this to elapse a
    /// long cooldown deterministically instead of racing a real timer.
    pub fn fast_forward(&self, d: Duration) {
        self.skew_ms.fetch_add(duration_ms(d), Ordering::Relaxed);
    }

    fn cooldown_elapsed(&self, inner: &BreakerInner, now_ms: u64) -> bool {
        now_ms.saturating_sub(inner.opened_at_ms) >= duration_ms(self.config.cooldown)
    }

    fn now_ms(&self) -> u64 {
        duration_ms(self.epoch.elapsed()) + self.skew_ms.load(Ordering::Relaxed)
    }

    fn transition(&self, inner: &mut BreakerInner, to: BreakerState) {
        let from = inner.state;
        inner.state = to;
        inner.transitions.push((from, to));
        sift_obs::gauge("sift_client_breaker_state", &[("endpoint", &self.endpoint)])
            .set(to.gauge_value());
    }
}

fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(
            "test",
            BreakerConfig {
                failure_threshold: threshold,
                cooldown: Duration::from_millis(cooldown_ms),
                success_threshold: 1,
            },
        )
    }

    #[test]
    fn opens_after_consecutive_failures_only() {
        let b = breaker(3, 1000);
        b.record_failure_at(0);
        b.record_failure_at(0);
        b.record_success(); // resets the streak
        b.record_failure_at(0);
        b.record_failure_at(0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure_at(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow_at(500), "cooldown not elapsed");
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let b = breaker(1, 1000);
        b.record_failure_at(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow_at(1000), "cooldown elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(
            b.transition_log(),
            vec!["closed->open", "open->half_open", "half_open->closed"]
        );
    }

    #[test]
    fn half_open_probe_failure_reopens_and_restarts_cooldown() {
        let b = breaker(1, 1000);
        b.record_failure_at(0);
        assert!(b.allow_at(1000));
        b.record_failure_at(1000);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow_at(1500), "cooldown restarted at reopen");
        assert!(b.allow_at(2000));
    }

    #[test]
    fn would_allow_is_a_pure_peek() {
        let b = breaker(1, 1000);
        b.record_failure_at(0);
        assert!(!b.would_allow());
        b.fast_forward(Duration::from_secs(2));
        assert!(b.would_allow());
        assert_eq!(b.state(), BreakerState::Open, "peek must not transition");
        assert!(b.allow(), "the real allow performs the transition");
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn success_threshold_requires_multiple_probes() {
        let b = CircuitBreaker::new(
            "test",
            BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_millis(100),
                success_threshold: 2,
            },
        );
        b.record_failure_at(0);
        assert!(b.allow_at(100));
        b.record_success();
        assert_eq!(
            b.state(),
            BreakerState::HalfOpen,
            "one success is not enough"
        );
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn fast_forward_elapses_the_cooldown() {
        let b = breaker(1, 60_000);
        b.record_failure();
        assert!(!b.allow(), "a minute-long cooldown has not elapsed");
        b.fast_forward(Duration::from_secs(61));
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn labels_cover_every_state() {
        let labels: Vec<_> = BreakerState::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["closed", "open", "half_open"]);
        let gauges: Vec<_> = BreakerState::ALL.iter().map(|s| s.gauge_value()).collect();
        assert_eq!(gauges, [0, 1, 2]);
    }
}
