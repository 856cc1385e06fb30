//! Instruments stay exact under multi-threaded hammering.

use sift_obs::{Counter, Histogram, HistogramSpec};

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
