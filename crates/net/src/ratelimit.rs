//! Per-client token-bucket rate limiting.
//!
//! "The data collection module's primary bottleneck is GT's IP-based
//! rate-limiting" (§4). The service side of that bottleneck lives here: a
//! token bucket per client identity. Time is injected in milliseconds so
//! behaviour is exactly testable; the server wires in a monotonic clock.
//!
//! The identity map is bounded: identities idle past
//! [`RateLimiterConfig::idle_ttl_ms`] are evicted on a periodic sweep, so
//! a scan of millions of one-shot client keys cannot grow memory forever.
//! Eviction is semantically invisible — only buckets that have fully
//! refilled are dropped, and a fresh bucket is exactly what a fully
//! refilled one looks like. Evictions are counted in
//! `sift_ratelimit_evicted_total`.

use parking_lot::Mutex;
use std::collections::HashMap;

/// Token-bucket parameters.
#[derive(Clone, Copy, Debug)]
pub struct RateLimiterConfig {
    /// Maximum burst size (bucket capacity, in requests).
    pub capacity: f64,
    /// Sustained request rate (tokens added per second).
    pub refill_per_sec: f64,
    /// Evict identities idle for longer than this many milliseconds
    /// (0 disables eviction). Only fully-refilled buckets are evicted, so
    /// the limiter's decisions are unaffected.
    pub idle_ttl_ms: u64,
}

impl Default for RateLimiterConfig {
    fn default() -> Self {
        RateLimiterConfig {
            capacity: 30.0,
            refill_per_sec: 10.0,
            idle_ttl_ms: 600_000, // 10 minutes
        }
    }
}

/// Outcome of a rate-limit check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RateLimitDecision {
    /// The request may proceed.
    Allowed,
    /// The client is over its budget and should retry after the given
    /// number of seconds (sent as `Retry-After`). Always at least 1.
    Limited {
        /// Whole seconds until a token will be available.
        retry_after_secs: u64,
    },
}

#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: f64,
    last_ms: u64,
    rejections: u64,
}

/// The bucket map plus the bookkeeping that keeps it bounded.
#[derive(Debug, Default)]
struct Buckets {
    map: HashMap<String, Bucket>,
    last_sweep_ms: u64,
    /// Rejections that belonged to since-evicted identities, folded in so
    /// `total_rejections` stays monotone across evictions.
    evicted_rejections: u64,
}

/// A token-bucket rate limiter keyed by client identity.
#[derive(Debug)]
pub struct RateLimiter {
    config: RateLimiterConfig,
    buckets: Mutex<Buckets>,
}

impl RateLimiter {
    /// Builds a limiter with the given parameters.
    pub fn new(config: RateLimiterConfig) -> Self {
        assert!(config.capacity >= 1.0, "capacity must admit one request");
        assert!(config.refill_per_sec > 0.0, "refill rate must be positive");
        RateLimiter {
            config,
            buckets: Mutex::new(Buckets::default()),
        }
    }

    /// Checks (and on success, charges) one request for `key` at time
    /// `now_ms`.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "`retry_after_secs` is at least 1.0; float `as` saturates"
    )]
    pub fn check(&self, key: &str, now_ms: u64) -> RateLimitDecision {
        let mut buckets = self.buckets.lock();
        self.maybe_sweep(&mut buckets, now_ms);
        let bucket = buckets.map.entry(key.to_owned()).or_insert(Bucket {
            tokens: self.config.capacity,
            last_ms: now_ms,
            rejections: 0,
        });

        // Refill for elapsed time. A clock that goes backwards (shouldn't
        // happen with a monotonic source) simply refills nothing.
        let elapsed_ms = now_ms.saturating_sub(bucket.last_ms);
        bucket.tokens = (bucket.tokens + elapsed_ms as f64 / 1000.0 * self.config.refill_per_sec)
            .min(self.config.capacity);
        bucket.last_ms = now_ms.max(bucket.last_ms);

        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            RateLimitDecision::Allowed
        } else {
            bucket.rejections += 1;
            let deficit = 1.0 - bucket.tokens;
            let secs = (deficit / self.config.refill_per_sec).ceil().max(1.0);
            RateLimitDecision::Limited {
                retry_after_secs: secs as u64,
            }
        }
    }

    /// Number of tracked client identities.
    pub fn tracked_clients(&self) -> usize {
        self.buckets.lock().map.len()
    }

    /// How many requests from `key` have been rejected so far (0 for an
    /// unseen or since-evicted key).
    pub fn rejections(&self, key: &str) -> u64 {
        self.buckets.lock().map.get(key).map_or(0, |b| b.rejections)
    }

    /// Total rejections across every client identity, including
    /// identities that have since been evicted.
    pub fn total_rejections(&self) -> u64 {
        let buckets = self.buckets.lock();
        buckets.evicted_rejections + buckets.map.values().map(|b| b.rejections).sum::<u64>()
    }

    /// Evicts identities idle past the TTL. Runs at most every TTL/4 so a
    /// hot limiter is not scanning its whole map on every request.
    fn maybe_sweep(&self, buckets: &mut Buckets, now_ms: u64) {
        let ttl = self.config.idle_ttl_ms;
        if ttl == 0 {
            return;
        }
        if now_ms.saturating_sub(buckets.last_sweep_ms) < ttl / 4 {
            return;
        }
        buckets.last_sweep_ms = now_ms;
        let capacity = self.config.capacity;
        let refill = self.config.refill_per_sec;
        let mut evicted_rejections = 0u64;
        let before = buckets.map.len();
        buckets.map.retain(|_, b| {
            let idle_ms = now_ms.saturating_sub(b.last_ms);
            if idle_ms < ttl {
                return true;
            }
            // Past the TTL: materialize the refill the bucket would apply
            // lazily on its next check, then evict only if that leaves it
            // effectively full — i.e. the identity's debt is repaid and a
            // fresh bucket is indistinguishable from this one. Deciding on
            // the materialized state (rather than a separate projection)
            // keeps the sweep and the lazy refill in `check` agreeing by
            // construction: a depleted identity can never be dropped and
            // recreated at full capacity, which would hand an over-limit
            // client a free burst every TTL.
            b.tokens = (b.tokens + idle_ms as f64 / 1000.0 * refill).min(capacity);
            b.last_ms = now_ms;
            // Tiny epsilon absorbs float drift from repeated partial
            // refills; a bucket within 1e-9 of full is full.
            let full = b.tokens >= capacity - 1e-9;
            if full {
                evicted_rejections += b.rejections;
            }
            !full
        });
        let evicted = before - buckets.map.len();
        if evicted > 0 {
            buckets.evicted_rejections += evicted_rejections;
            sift_obs::counter("sift_ratelimit_evicted_total", &[])
                .add(u64::try_from(evicted).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limiter(capacity: f64, refill: f64) -> RateLimiter {
        RateLimiter::new(RateLimiterConfig {
            capacity,
            refill_per_sec: refill,
            ..RateLimiterConfig::default()
        })
    }

    fn limiter_with_ttl(capacity: f64, refill: f64, ttl_ms: u64) -> RateLimiter {
        RateLimiter::new(RateLimiterConfig {
            capacity,
            refill_per_sec: refill,
            idle_ttl_ms: ttl_ms,
        })
    }

    #[test]
    fn burst_up_to_capacity_then_limited() {
        let l = limiter(5.0, 1.0);
        for i in 0..5 {
            assert_eq!(l.check("a", 0), RateLimitDecision::Allowed, "req {i}");
        }
        assert!(matches!(
            l.check("a", 0),
            RateLimitDecision::Limited { retry_after_secs } if retry_after_secs >= 1
        ));
    }

    #[test]
    fn refill_restores_budget() {
        let l = limiter(2.0, 2.0); // 2 tokens/sec
        assert_eq!(l.check("a", 0), RateLimitDecision::Allowed);
        assert_eq!(l.check("a", 0), RateLimitDecision::Allowed);
        assert!(matches!(l.check("a", 0), RateLimitDecision::Limited { .. }));
        // After 500ms one token has refilled.
        assert_eq!(l.check("a", 500), RateLimitDecision::Allowed);
        assert!(matches!(
            l.check("a", 500),
            RateLimitDecision::Limited { .. }
        ));
    }

    #[test]
    fn keys_are_independent() {
        let l = limiter(1.0, 0.1);
        assert_eq!(l.check("unit-1", 0), RateLimitDecision::Allowed);
        assert!(matches!(
            l.check("unit-1", 0),
            RateLimitDecision::Limited { .. }
        ));
        // A different fetcher unit has its own bucket — this is exactly
        // why the collection module spreads load across units.
        assert_eq!(l.check("unit-2", 0), RateLimitDecision::Allowed);
        assert_eq!(l.tracked_clients(), 2);
    }

    #[test]
    fn rejections_are_counted_per_key() {
        let l = limiter(1.0, 0.1);
        assert_eq!(l.check("a", 0), RateLimitDecision::Allowed);
        assert!(matches!(l.check("a", 0), RateLimitDecision::Limited { .. }));
        assert!(matches!(l.check("a", 0), RateLimitDecision::Limited { .. }));
        assert_eq!(l.check("b", 0), RateLimitDecision::Allowed);
        assert_eq!(l.rejections("a"), 2);
        assert_eq!(l.rejections("b"), 0);
        assert_eq!(l.rejections("never-seen"), 0);
        assert_eq!(l.total_rejections(), 2);
    }

    #[test]
    fn retry_after_reflects_deficit() {
        let l = limiter(1.0, 0.5); // 2 seconds per token
        assert_eq!(l.check("a", 0), RateLimitDecision::Allowed);
        match l.check("a", 0) {
            RateLimitDecision::Limited { retry_after_secs } => {
                assert_eq!(retry_after_secs, 2);
            }
            other => panic!("expected limited, got {other:?}"),
        }
    }

    #[test]
    fn tokens_cap_at_capacity() {
        let l = limiter(3.0, 100.0);
        // A long idle period must not bank more than `capacity` tokens.
        assert_eq!(l.check("a", 1_000_000), RateLimitDecision::Allowed);
        assert_eq!(l.check("a", 1_000_000), RateLimitDecision::Allowed);
        assert_eq!(l.check("a", 1_000_000), RateLimitDecision::Allowed);
        assert!(matches!(
            l.check("a", 1_000_000),
            RateLimitDecision::Limited { .. }
        ));
    }

    #[test]
    fn backwards_clock_is_tolerated() {
        let l = limiter(2.0, 1.0);
        assert_eq!(l.check("a", 1000), RateLimitDecision::Allowed);
        // Clock jumps backwards: no refill, but no panic or inflation.
        assert_eq!(l.check("a", 500), RateLimitDecision::Allowed);
        assert!(matches!(
            l.check("a", 500),
            RateLimitDecision::Limited { .. }
        ));
    }

    #[test]
    fn stale_identities_are_evicted_after_ttl() {
        // Process-global: compare deltas, other tests evict too.
        let evicted = || sift_obs::counter("sift_ratelimit_evicted_total", &[]).get();
        let evicted_before = evicted();
        let l = limiter_with_ttl(2.0, 1.0, 1_000);
        // A scan of many one-shot identities...
        for i in 0..100 {
            assert_eq!(l.check(&format!("scan-{i}"), 0), RateLimitDecision::Allowed);
        }
        assert_eq!(l.tracked_clients(), 100);
        // ...is gone once they have been idle past the TTL.
        l.check("fresh", 10_000);
        assert_eq!(l.tracked_clients(), 1);
        assert!(evicted() >= evicted_before + 100);
    }

    #[test]
    fn active_identities_survive_the_sweep() {
        let l = limiter_with_ttl(2.0, 1.0, 1_000);
        l.check("steady", 0);
        l.check("one-shot", 0);
        // "steady" keeps talking; only "one-shot" goes idle past the TTL.
        l.check("steady", 900);
        l.check("steady", 1_800);
        l.check("steady", 2_700);
        assert_eq!(l.tracked_clients(), 1);
        assert_eq!(l.rejections("one-shot"), 0);
    }

    #[test]
    fn depleted_buckets_are_not_evicted_early() {
        // 1 token at 0.001/sec: refilling takes ~17 minutes, far past the
        // 1-second TTL. The depleted bucket must survive the sweep or a
        // limited client could reset its own budget by going briefly idle.
        let l = limiter_with_ttl(1.0, 0.001, 1_000);
        assert_eq!(l.check("greedy", 0), RateLimitDecision::Allowed);
        assert!(matches!(
            l.check("greedy", 0),
            RateLimitDecision::Limited { .. }
        ));
        l.check("other", 10_000); // triggers a sweep well past the TTL
        assert_eq!(l.tracked_clients(), 2, "depleted bucket retained");
        assert!(matches!(
            l.check("greedy", 10_000),
            RateLimitDecision::Limited { .. }
        ));
    }

    #[test]
    fn total_rejections_stays_monotone_across_eviction() {
        let l = limiter_with_ttl(1.0, 100.0, 1_000);
        assert_eq!(l.check("a", 0), RateLimitDecision::Allowed);
        assert!(matches!(l.check("a", 0), RateLimitDecision::Limited { .. }));
        assert!(matches!(l.check("a", 0), RateLimitDecision::Limited { .. }));
        assert_eq!(l.total_rejections(), 2);
        // Fast refill: "a" is fully refilled and idle at t=10s → evicted.
        l.check("b", 10_000);
        assert_eq!(l.tracked_clients(), 1);
        assert_eq!(l.rejections("a"), 0, "per-key count resets on eviction");
        assert_eq!(l.total_rejections(), 2, "aggregate survives eviction");
    }

    /// Regression (TTL eviction refill bug): an identity that is still
    /// throttled must not be able to launder its debt through the sweep.
    /// If the sweep evicted on idleness alone, the next request would
    /// recreate the bucket at full capacity — a free burst every TTL.
    #[test]
    fn throttled_identity_gets_no_free_burst_across_the_ttl() {
        // capacity 5, 0.5 tokens/sec, 2-second TTL.
        let l = limiter_with_ttl(5.0, 0.5, 2_000);
        for _ in 0..5 {
            assert_eq!(l.check("greedy", 0), RateLimitDecision::Allowed);
        }
        // Keeps hammering while over budget...
        for t in [0, 300, 600] {
            assert!(matches!(
                l.check("greedy", t),
                RateLimitDecision::Limited { .. }
            ));
        }
        // ...then goes idle past the TTL while another identity triggers
        // the sweep. 2.1s idle refills 1.05 of the 5 spent tokens: the
        // bucket is nowhere near full and must survive.
        l.check("other", 2_700);
        assert_eq!(l.tracked_clients(), 2, "depleted bucket not evicted");
        // Exactly one token has accrued — one request passes, not five.
        assert_eq!(l.check("greedy", 2_700), RateLimitDecision::Allowed);
        assert!(matches!(
            l.check("greedy", 2_700),
            RateLimitDecision::Limited { .. }
        ));
    }

    /// Eviction must be semantically invisible: the same call script gives
    /// identical decisions whether or not sweeps run in between.
    #[test]
    fn sweep_never_changes_decisions() {
        let swept = limiter_with_ttl(3.0, 2.0, 500);
        let unswept = limiter_with_ttl(3.0, 2.0, 0);
        let script = [
            ("a", 0u64),
            ("a", 0),
            ("a", 0),
            ("a", 0),
            ("b", 400),
            ("a", 900),
            ("b", 1_400),
            ("a", 2_100),
            ("c", 2_600),
            ("a", 2_650),
            ("b", 4_000),
            ("a", 4_100),
            ("c", 9_000),
            ("a", 9_050),
            ("a", 9_060),
        ];
        for (key, t) in script {
            assert_eq!(
                swept.check(key, t),
                unswept.check(key, t),
                "decision diverged for {key} at t={t}"
            );
        }
    }

    #[test]
    fn zero_ttl_disables_eviction() {
        let l = limiter_with_ttl(2.0, 100.0, 0);
        for i in 0..50 {
            l.check(&format!("scan-{i}"), 0);
        }
        l.check("late", 1_000_000_000);
        assert_eq!(l.tracked_clients(), 51);
    }
}
