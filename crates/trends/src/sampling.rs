//! Request-level random sampling.
//!
//! "When a request arrives, GT draws an unbiased random sample of Google
//! search data for the given time frame and geographical area" (§2). The
//! sampler reproduces that: each request draws a fresh sample of the
//! region's search volume and counts the hits on the requested term, so
//! repeated requests for the same frame return *different* indices whose
//! error shrinks as `1/sqrt(sample size)` — the property SIFT's iterative
//! re-fetch averaging (§3.2) exploits.

use crate::dist;
use crate::interest::mix64;
use crate::terms::SearchTerm;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_simtime::Hour;

/// Sampling configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// Fraction of the search volume included in each request's sample.
    pub sample_rate: f64,
    /// Sampled counts strictly below this are rounded to zero before
    /// indexing, anonymising tiny volumes (§2, "Data points").
    pub anonymity_threshold: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            sample_rate: 0.20,
            anonymity_threshold: 4,
        }
    }
}

/// Derives the RNG seed for one request's sample.
///
/// The seed mixes the service seed, the request coordinates and a *sample
/// tag*. Two requests with identical coordinates and tag see the same
/// sample (making distributed fetching reproducible regardless of arrival
/// order); changing the tag — as the fetcher does per re-fetch round —
/// draws an independent sample.
#[expect(clippy::cast_sign_loss, reason = "hash mixing wraps on purpose")]
pub fn request_seed(
    service_seed: u64,
    state: State,
    term: &SearchTerm,
    frame_start: Hour,
    tag: u64,
) -> u64 {
    let mut h = service_seed;
    h = mix64(h ^ (state.index() as u64));
    for b in term.canonical().bytes() {
        h = mix64(h ^ u64::from(b));
    }
    h = mix64(h ^ (frame_start.0 as u64));
    mix64(h ^ tag)
}

/// Draws one hourly block's sample: `(sampled searches, term hits)`.
///
/// `volume` is the true number of searches that hour, `proportion` the
/// true share matching the term. The sample of searches is Poisson
/// (independent inclusion of each search at `sample_rate`), and hits
/// within the sample are binomial. The service's data point is the
/// *proportion estimate* `hits / sampled` — shares of all searches, not
/// absolute volumes (§2).
pub fn sample_hour(
    rng: &mut ChaCha8Rng,
    cfg: &SamplerConfig,
    volume: f64,
    proportion: f64,
) -> (u64, u64) {
    let sampled = dist::poisson(rng, volume * cfg.sample_rate);
    let hits = dist::binomial(rng, sampled, proportion.clamp(0.0, 1.0));
    (sampled, hits)
}

/// Applies the anonymity rounding: counts below the threshold become zero.
pub fn anonymize(cfg: &SamplerConfig, count: u64) -> u64 {
    if count < cfg.anonymity_threshold {
        0
    } else {
        count
    }
}

/// A convenience RNG for one request.
pub fn request_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::Topic;

    fn term() -> SearchTerm {
        SearchTerm::Topic(Topic::InternetOutage)
    }

    #[test]
    fn seed_is_stable_and_tag_sensitive() {
        let a = request_seed(1, State::TX, &term(), Hour(100), 0);
        let b = request_seed(1, State::TX, &term(), Hour(100), 0);
        let c = request_seed(1, State::TX, &term(), Hour(100), 1);
        let d = request_seed(1, State::CA, &term(), Hour(100), 0);
        let e = request_seed(2, State::TX, &term(), Hour(100), 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, e);
    }

    #[test]
    fn sampling_is_unbiased() {
        let cfg = SamplerConfig::default();
        let mut rng = request_rng(9);
        let volume = 200_000.0;
        let p = 2.0e-4;
        let n = 3000;
        let total: u64 = (0..n)
            .map(|_| sample_hour(&mut rng, &cfg, volume, p).1)
            .sum();
        let mean = total as f64 / n as f64;
        let expected = volume * cfg.sample_rate * p; // 4.0
        assert!(
            (mean - expected).abs() < expected * 0.05,
            "mean {mean}, expected {expected}"
        );
    }

    #[test]
    fn error_shrinks_with_volume() {
        let cfg = SamplerConfig::default();
        let mut rng = request_rng(10);
        let mut rel_sd = |volume: f64| {
            let p = 1.0e-3;
            let n = 2000;
            let samples: Vec<f64> = (0..n)
                .map(|_| sample_hour(&mut rng, &cfg, volume, p).1 as f64)
                .collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt() / mean
        };
        let small = rel_sd(50_000.0);
        let large = rel_sd(5_000_000.0);
        assert!(
            large < small * 0.25,
            "relative error must shrink with sample size: {small} vs {large}"
        );
    }

    #[test]
    fn anonymity_rounds_tiny_counts() {
        let cfg = SamplerConfig {
            sample_rate: 0.1,
            anonymity_threshold: 3,
        };
        assert_eq!(anonymize(&cfg, 0), 0);
        assert_eq!(anonymize(&cfg, 2), 0);
        assert_eq!(anonymize(&cfg, 3), 3);
        assert_eq!(anonymize(&cfg, 100), 100);
    }
}
