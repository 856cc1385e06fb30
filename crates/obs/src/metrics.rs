//! Metric instruments: counters, gauges and log-bucketed histograms.
//!
//! Every instrument is a cheap clonable handle over shared atomics, so a
//! handle can be resolved once (through the registry) and incremented from
//! any thread without locking: the hot path of every instrument is a
//! single atomic RMW operation.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, unregistered counter (registries hand out shared ones).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (which may be negative).
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Increments now and decrements when the returned guard drops — for
    /// "currently active" gauges such as open connections.
    pub fn track(&self) -> GaugeGuard {
        self.add(1);
        GaugeGuard {
            gauge: self.clone(),
        }
    }
}

/// RAII guard from [`Gauge::track`]; decrements on drop.
#[derive(Debug)]
pub struct GaugeGuard {
    gauge: Gauge,
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.gauge.add(-1);
    }
}

/// Bucket layout of a histogram: a strictly increasing list of upper
/// bounds. Observations above the last bound land in an implicit overflow
/// (`+Inf`) bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSpec {
    bounds: Vec<f64>,
}

impl HistogramSpec {
    /// Log-spaced bounds: `start, start*factor, start*factor², …` with
    /// `count` bounds in total. Requires `start > 0`, `factor > 1`.
    pub fn log(start: f64, factor: f64, count: usize) -> HistogramSpec {
        assert!(start > 0.0 && start.is_finite(), "start must be positive");
        assert!(factor > 1.0 && factor.is_finite(), "factor must exceed 1");
        assert!(count >= 1, "at least one bound required");
        let mut bounds = Vec::with_capacity(count);
        let mut b = start;
        for _ in 0..count {
            bounds.push(b);
            b *= factor;
        }
        HistogramSpec { bounds }
    }

    /// Explicit bounds (must be strictly increasing and finite).
    pub fn explicit(bounds: Vec<f64>) -> HistogramSpec {
        assert!(!bounds.is_empty(), "at least one bound required");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "bounds must be strictly increasing and finite"
        );
        HistogramSpec { bounds }
    }

    /// The default duration layout: 1 µs to ~69 s at ×2 per bucket. Wide
    /// enough for a frame round-trip or a whole study stage.
    pub fn duration_seconds() -> HistogramSpec {
        HistogramSpec::log(1e-6, 2.0, 36)
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

impl Default for HistogramSpec {
    fn default() -> HistogramSpec {
        HistogramSpec::duration_seconds()
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    bounds: Vec<f64>,
    /// One slot per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, stored as `f64` bits and updated by CAS so the
    /// hot path stays lock-free.
    sum_bits: AtomicU64,
}

/// A log-bucketed histogram with quantile estimation.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// A fresh, unregistered histogram with the given bucket layout.
    pub fn with_spec(spec: &HistogramSpec) -> Histogram {
        let buckets = (0..=spec.bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(HistogramCore {
                bounds: spec.bounds.clone(),
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one observation. Lock-free: two atomic adds and one CAS
    /// loop on the sum.
    pub fn observe(&self, v: f64) {
        let idx = self.bucket_index(v);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.core.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.core.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// The bucket an observation falls into (`bounds.len()` = overflow).
    fn bucket_index(&self, v: f64) -> usize {
        self.core.bounds.partition_point(|b| v > *b)
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the bucket holding that rank. The estimate lands in the same
    /// bucket as the exact quantile, so its error is bounded by one bucket
    /// width. Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        self.state().quantile(q)
    }

    /// A point-in-time copy of the histogram's contents.
    pub fn state(&self) -> HistogramState {
        HistogramState {
            bounds: self.core.bounds.clone(),
            buckets: self
                .core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// A snapshot of a histogram's buckets, used for exposition, quantile
/// estimation and before/after differencing.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramState {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (last slot = overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramState {
    /// The observations recorded since `earlier` (which must be a snapshot
    /// of the same histogram, taken before this one).
    pub fn since(&self, earlier: &HistogramState) -> HistogramState {
        assert_eq!(
            self.bounds, earlier.bounds,
            "snapshots of different layouts"
        );
        HistogramState {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum - earlier.sum,
        }
    }

    /// See [`Histogram::quantile`].
    #[expect(clippy::expect_used, reason = "specs guarantee at least one bound")]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0.0;
        }
        // 1-based rank of the order statistic we are after.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "q is in [0, 1], so the product is in [0, count]; float `as` saturates"
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if cumulative + n >= rank {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = match self.bounds.get(i) {
                    Some(b) => *b,
                    // Overflow bucket is unbounded; the last bound is the
                    // best defensible answer.
                    None => return *self.bounds.last().expect("non-empty bounds"),
                };
                let into = (rank - cumulative) as f64 / *n as f64;
                // The interpolation can round one ulp past the bucket's
                // upper bound when `into` is 1; clamp so the estimate
                // always stays inside the bucket holding the exact rank.
                return (lower + (upper - lower) * into).min(upper);
            }
            cumulative += n;
        }
        *self.bounds.last().expect("non-empty bounds")
    }

    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
        {
            let _a = g.track();
            let _b = g.track();
            assert_eq!(g.get(), 0);
        }
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn clones_share_state() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.inc();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::with_spec(&HistogramSpec::explicit(vec![1.0, 2.0, 4.0]));
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let s = h.state();
        // le semantics: 1.0 falls into the first bucket.
        assert_eq!(s.buckets, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert!((s.sum - 106.0).abs() < 1e-9);
        assert!((s.mean() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_bucket() {
        let h = Histogram::with_spec(&HistogramSpec::explicit(vec![1.0, 2.0, 4.0]));
        for _ in 0..10 {
            h.observe(1.5); // all mass in (1, 2]
        }
        let q = h.quantile(0.5);
        assert!((1.0..=2.0).contains(&q), "{q}");
        assert_eq!(h.quantile(0.0).to_bits(), h.quantile(1e-9).to_bits());
    }

    #[test]
    fn overflow_quantile_reports_last_bound() {
        let h = Histogram::with_spec(&HistogramSpec::explicit(vec![1.0, 2.0]));
        h.observe(50.0);
        assert!((h.quantile(0.99) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn state_since_subtracts() {
        let h = Histogram::with_spec(&HistogramSpec::explicit(vec![1.0]));
        h.observe(0.5);
        let before = h.state();
        h.observe(0.7);
        h.observe(9.0);
        let delta = h.state().since(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.buckets, vec![1, 1]);
        assert!((delta.sum - 9.7).abs() < 1e-9);
    }

    #[test]
    fn log_spec_layout() {
        let spec = HistogramSpec::log(1e-3, 10.0, 4);
        assert_eq!(spec.bounds().len(), 4);
        assert!((spec.bounds()[3] - 1.0).abs() < 1e-12);
    }
}
