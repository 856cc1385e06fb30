//! Order statistics: the percentile rule and the A/A spread.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile rule: a tail percentile is reported only as far out as
/// ten samples lie beyond it. Returns `p` lowered to `1 - 10/n` when the
/// sample cannot support it, and never below the median.
pub fn supported(n: usize, p: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    p.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// `percentile` at the highest level the sample supports, at most `p`.
/// Sorts `values` in place.
pub fn capped_percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, supported(values.len(), p))
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med.abs()
}

/// Median, extremes and count of one metric over repeats.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 104 samples support p90 (10.4 beyond), 99 do not.
        assert_eq!(supported(104, 0.90), 0.90);
        assert!(supported(99, 0.90) < 0.90);
        assert_eq!(supported(1_000, 0.99), 0.99);
        assert!(supported(999, 0.99) < 0.99);
        // Tiny samples fall back to the median.
        assert_eq!(supported(5, 0.99), 0.5);
        assert_eq!(supported(20, 0.99), 0.5);
        // The level returned always leaves ten samples beyond it.
        for n in [21usize, 60, 104, 999, 8_000] {
            let p = supported(n, 0.999);
            assert!(
                n as f64 * (1.0 - p) >= 10.0 - 1e-9 || p == 0.5,
                "n={n} p={p}"
            );
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        let mut small = vec![3.0, 1.0, 2.0];
        assert_eq!(capped_percentile(&mut small, 0.99), 2.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
    }
}
