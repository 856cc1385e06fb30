//! Property tests: histogram quantile estimates stay within one bucket
//! of the exact order statistics, and instruments stay exact under
//! multi-threaded hammering.

use proptest::prelude::*;
use sift_obs::{Counter, Histogram, HistogramSpec};

/// The bucket (by index, `bounds.len()` = overflow) a value falls into,
/// mirroring the `le` semantics of the histogram itself.
fn bucket_of(bounds: &[f64], v: f64) -> usize {
    bounds.partition_point(|b| v > *b)
}

/// The exact `q`-quantile of `values` by sorted order statistic, using the
/// same rank convention as `HistogramState::quantile`.
fn exact_quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Asserts the histogram estimate for `q` is within one bucket boundary of
/// the exact quantile: both land in the same bucket, except that exact
/// values past the last bound are reported as the last bound.
fn assert_within_one_bucket(
    h: &Histogram,
    bounds: &[f64],
    values: &[f64],
    q: f64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let exact = exact_quantile(values, q);
    let est = h.quantile(q);
    if bucket_of(bounds, exact) == bounds.len() {
        // Overflow bucket is unbounded: the estimate clamps to the last
        // bound, which is below the exact value by construction.
        let last = *bounds.last().expect("non-empty bounds");
        prop_assert_eq!(est.to_bits(), last.to_bits());
        prop_assert!(exact >= last);
    } else {
        prop_assert_eq!(
            bucket_of(bounds, est),
            bucket_of(bounds, exact),
            "q={} est={} exact={}",
            q,
            est,
            exact
        );
    }
    Ok(())
}

proptest! {
    /// p50 and p99 estimates of the default duration layout land in the
    /// same bucket as the exact sorted-order quantiles.
    #[test]
    fn quantile_estimate_within_one_bucket_duration_layout(
        values in proptest::collection::vec(0.000001f64..80.0, 1..300),
    ) {
        let spec = HistogramSpec::duration_seconds();
        let h = Histogram::with_spec(&spec);
        for v in &values {
            h.observe(*v);
        }
        assert_within_one_bucket(&h, spec.bounds(), &values, 0.5)?;
        assert_within_one_bucket(&h, spec.bounds(), &values, 0.99)?;
    }

    /// The same bound holds for arbitrary explicit layouts, including
    /// observations past the last bucket.
    #[test]
    fn quantile_estimate_within_one_bucket_explicit_layout(
        start in 0.001f64..1.0,
        factor in 1.5f64..4.0,
        count in 3usize..12,
        values in proptest::collection::vec(0.0001f64..1000.0, 1..200),
    ) {
        let spec = HistogramSpec::log(start, factor, count);
        let h = Histogram::with_spec(&spec);
        for v in &values {
            h.observe(*v);
        }
        assert_within_one_bucket(&h, spec.bounds(), &values, 0.5)?;
        assert_within_one_bucket(&h, spec.bounds(), &values, 0.99)?;
    }

    /// The estimated quantile is monotone in `q` — sanity for any layout.
    #[test]
    fn quantile_estimate_is_monotone(
        values in proptest::collection::vec(0.000001f64..80.0, 1..200),
        lo in 0.0f64..1.0,
        hi in 0.0f64..1.0,
    ) {
        prop_assume!(lo <= hi);
        let h = Histogram::with_spec(&HistogramSpec::duration_seconds());
        for v in &values {
            h.observe(*v);
        }
        prop_assert!(h.quantile(lo) <= h.quantile(hi));
    }
}

/// Eight threads hammering shared handles: every increment is accounted,
/// with no locking on the hot path to lose one.
#[test]
fn hammered_counter_and_histogram_totals_are_exact() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 25_000;

    let counter = Counter::new();
    let histogram = Histogram::with_spec(&HistogramSpec::explicit(vec![1.0, 2.0]));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let counter = counter.clone();
            let histogram = histogram.clone();
            scope.spawn(move || {
                for _ in 0..PER_THREAD {
                    counter.inc();
                    counter.add(2);
                    // 1.5 is exactly representable, so the CAS-accumulated
                    // sum must come out exact, not merely close.
                    histogram.observe(1.5);
                }
            });
        }
    });

    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get(), 3 * total);
    let state = histogram.state();
    assert_eq!(state.count, total);
    assert_eq!(state.buckets, vec![0, total, 0]);
    assert_eq!(state.sum.to_bits(), (1.5 * total as f64).to_bits());
}
