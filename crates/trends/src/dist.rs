//! Small deterministic sampling distributions.
//!
//! `rand` (without `rand_distr`) only ships uniform primitives; the world
//! model needs normal, log-normal and Poisson draws. The implementations
//! here are the textbook ones — Box–Muller, exponentiation, Knuth /
//! normal-approximation — which are exact enough for a workload generator
//! and keep the dependency set at the sanctioned crates.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use rand::Rng;

/// A standard normal draw via the Box–Muller transform.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval away from zero.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A log-normal draw with the given median and shape `sigma`, clamped to
/// `[lo, hi]`.
pub(crate) fn lognormal_clamped<R: Rng + ?Sized>(
    rng: &mut R,
    median: f64,
    sigma: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    debug_assert!(median > 0.0 && sigma >= 0.0 && lo <= hi);
    let x = (median.ln() + sigma * standard_normal(rng)).exp();
    x.clamp(lo, hi)
}

/// A Poisson draw with mean `lambda`.
///
/// Knuth's product method below a mean of 30; above it the normal
/// approximation (with continuity correction) is indistinguishable for our
/// purposes and O(1).
#[expect(
    clippy::as_conversions,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "a non-negative draw; float-to-int `as` saturates and truncating is the draw"
)]
pub(crate) fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    debug_assert!(lambda >= 0.0);
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            // At lambda < 30 the probability of k exceeding a few hundred
            // is vanishing; the loop terminates with probability one.
        }
    } else {
        let x = lambda + lambda.sqrt() * standard_normal(rng) + 0.5;
        if x < 0.0 {
            0
        } else {
            x as u64
        }
    }
}

/// A binomial draw with `n` trials of probability `p`.
///
/// The service samples search hits out of sampled search volume; `n` is
/// large and `p` tiny, so Poisson(np) is used beyond small `n` — the same
/// regime approximation the normal-approximation argument in §3.2 rests
/// on.
#[expect(clippy::as_conversions, reason = "n ≪ 2⁵³, so f64 holds it exactly")]
pub(crate) fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if n <= 64 {
        let mut k = 0;
        for _ in 0..n {
            if rng.gen::<f64>() < p {
                k += 1;
            }
        }
        k
    } else {
        poisson(rng, n as f64 * p).min(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median_and_bounds() {
        let mut r = rng();
        let mut below = 0;
        let n = 10_000;
        for _ in 0..n {
            let x = lognormal_clamped(&mut r, 2.0, 0.8, 0.5, 50.0);
            assert!((0.5..=50.0).contains(&x));
            if x < 2.0 {
                below += 1;
            }
        }
        let frac = f64::from(below) / n as f64;
        assert!((0.45..0.55).contains(&frac), "median check: {frac}");
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut r = rng();
        for &lambda in &[0.5, 3.0, 20.0, 100.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| poisson(&mut r, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.sqrt() * 0.1 + 0.05,
                "lambda {lambda}: mean {mean}"
            );
        }
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn binomial_edges_and_mean() {
        let mut r = rng();
        assert_eq!(binomial(&mut r, 100, 0.0), 0);
        assert_eq!(binomial(&mut r, 100, 1.0), 100);
        assert_eq!(binomial(&mut r, 0, 0.5), 0);
        let n = 10_000u64;
        let total: u64 = (0..n).map(|_| binomial(&mut r, 40, 0.25)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
        // Never exceeds trials, even through the Poisson branch.
        for _ in 0..1000 {
            assert!(binomial(&mut r, 100, 0.9) <= 100);
        }
    }
}
