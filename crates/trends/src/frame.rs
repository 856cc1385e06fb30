//! Time-frame construction: sampling, anonymising and piecewise indexing.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::interest::InterestModel;
use crate::sampling::{self, SamplerConfig};
use crate::terms::SearchTerm;
use rand_chacha::ChaCha8Rng;
use sift_geo::State;
use sift_simtime::HourRange;

/// Builds the indexed data points of one time frame.
///
/// For every hourly block the sampler draws `(sampled, hits)`; the block's
/// data point is the proportion estimate `hits / sampled` ("its proportion
/// of all searches on all topics", §2) after anonymity rounding of tiny
/// hit counts. Proportions are then indexed **relative to the frame's own
/// maximum** on a 0–100 scale. This *piecewise* normalization is exactly
/// the property that prevents a client from comparing frames directly,
/// forcing SIFT's stitching step.
#[expect(clippy::as_conversions, reason = "hit counts ≪ 2⁵³ are exact in f64")]
pub fn build_frame(
    rng: &mut ChaCha8Rng,
    cfg: &SamplerConfig,
    model: &InterestModel,
    term: &SearchTerm,
    state: State,
    range: HourRange,
) -> Vec<u8> {
    let mut zeroed = 0u64;
    let proportions: Vec<f64> = range
        .iter()
        .zip(model.search_volumes(state, range))
        .map(|(h, volume)| {
            let p = model.proportion(term, state, h);
            let (sampled, hits) = sampling::sample_hour(rng, cfg, volume, p);
            let anon = sampling::anonymize(cfg, hits);
            if anon != hits {
                zeroed += 1;
            }
            if sampled == 0 {
                0.0
            } else {
                anon as f64 / sampled as f64
            }
        })
        .collect();
    if zeroed > 0 {
        sift_obs::counter("sift_trends_anonymized_points_total", &[]).add(zeroed);
    }
    index_values(&proportions)
}

/// Indexes raw values to the service's 0–100 scale, relative to the
/// maximum value in the slice. All-zero input stays all zero; values
/// under half an index unit round to 0, exactly as integer indexing does
/// on the real service.
#[expect(
    clippy::as_conversions,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "[0, 100] after scaling; float `as` saturates"
)]
pub fn index_values(values: &[f64]) -> Vec<u8> {
    let max = values.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return vec![0; values.len()];
    }
    values
        .iter()
        .map(|&v| (v * 100.0 / max).round() as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::request_rng;
    use crate::scenario::Scenario;
    use crate::terms::Topic;
    use crate::{Cause, OutageEvent};
    use sift_simtime::Hour;

    #[test]
    fn index_scales_to_100() {
        assert_eq!(index_values(&[0.0, 0.5, 1.0]), vec![0, 50, 100]);
        assert_eq!(index_values(&[0.0, 0.0, 0.0]), vec![0, 0, 0]);
        assert_eq!(index_values(&[0.7]), vec![100]);
    }

    #[test]
    fn tiny_values_round_to_zero_against_a_big_max() {
        // 1 against 1000 is 0.1 index units: rounds to 0, as on the real
        // service (this is what makes quiet baselines vanish in frames
        // containing a big spike).
        assert_eq!(index_values(&[1.0, 1000.0]), vec![0, 100]);
        assert_eq!(index_values(&[1.0, 100.0]), vec![1, 100]);
    }

    #[test]
    fn index_is_scale_invariant() {
        let a = index_values(&[2.0, 4.0, 8.0, 16.0]);
        let b = index_values(&[20.0, 40.0, 80.0, 160.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn frame_peaks_at_the_event() {
        let event = OutageEvent {
            id: 0,
            name: "e".into(),
            cause: Cause::IspNetwork(crate::terms::Provider::Verizon),
            start: Hour(1000),
            duration_h: 8,
            states: vec![(State::CA, 0.2)],
            severity: 9_000.0,
            lags_h: vec![0],
        };
        let s = Scenario::single_region(State::CA, vec![event]);
        let m = InterestModel::new(&s);
        let cfg = SamplerConfig::default();
        let mut rng = request_rng(1);
        let range = HourRange::with_len(Hour(900), 168);
        let frame = build_frame(
            &mut rng,
            &cfg,
            &m,
            &SearchTerm::Topic(Topic::InternetOutage),
            State::CA,
            range,
        );
        assert_eq!(frame.len(), 168);
        let (peak_idx, peak) = frame
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .expect("non-empty");
        assert_eq!(*peak, 100);
        // Peak falls within the event window (hours 100..108 of the frame).
        assert!((100..108).contains(&peak_idx), "peak at offset {peak_idx}");
    }

    #[test]
    fn small_region_baseline_mostly_anonymised_to_zero() {
        let s = Scenario::single_region(State::WY, vec![]);
        let m = InterestModel::new(&s);
        let cfg = SamplerConfig::default();
        let mut rng = request_rng(2);
        let range = HourRange::with_len(Hour(5000), 168);
        let frame = build_frame(
            &mut rng,
            &cfg,
            &m,
            &SearchTerm::Topic(Topic::InternetOutage),
            State::WY,
            range,
        );
        let zeros = frame.iter().filter(|v| **v == 0).count();
        assert!(
            zeros > 100,
            "Wyoming's quiet baseline should round to zero often, got {zeros} zeros"
        );
    }
}
