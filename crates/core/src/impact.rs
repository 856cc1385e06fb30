//! Impact analysis: magnitude and duration statistics (§4.1).
//!
//! "Since GT normalizes search interest over all queries in a selected
//! geographical area, magnitude fits well with temporal comparisons on a
//! fixed geography. However, duration is more stable for inter-state
//! comparisons" — the functions here compute the paper's duration-centric
//! distributions: the per-state spike shares (Fig. 3 left), the duration
//! CDF (Fig. 3 right), the weekday distribution (Fig. 4) and the top-k
//! table (Table 1).

use crate::detect::Spike;
use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_simtime::Weekday;

/// One state's spike count, ranked.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StateShare {
    /// The region.
    pub state: State,
    /// Spikes hosted by the region.
    pub count: usize,
    /// Cumulative share of all spikes up to and including this rank.
    pub cumulative_share: f64,
}

/// Ranks states by spike count (descending) with cumulative shares —
/// the Fig. 3 (left) curve.
pub fn state_ranking(spikes: &[Spike]) -> Vec<StateShare> {
    let mut counts = vec![0usize; State::COUNT];
    for s in spikes {
        counts[s.state.index()] += 1;
    }
    let total: usize = counts.iter().sum();
    let mut ranked: Vec<(State, usize)> =
        State::ALL.iter().map(|s| (*s, counts[s.index()])).collect();
    ranked.sort_by_key(|(s, c)| (std::cmp::Reverse(*c), s.index()));

    let mut cumulative = 0usize;
    ranked
        .into_iter()
        .map(|(state, count)| {
            cumulative += count;
            StateShare {
                state,
                count,
                cumulative_share: if total == 0 {
                    0.0
                } else {
                    cumulative as f64 / total as f64
                },
            }
        })
        .collect()
}

/// Empirical CDF of spike durations evaluated at each hour `1..=max_h` —
/// the Fig. 3 (right) curve. `cdf[h-1]` is the fraction of spikes with
/// duration ≤ `h`.
pub fn duration_cdf(spikes: &[Spike], max_h: usize) -> Vec<f64> {
    let mut counts = vec![0usize; max_h + 1];
    for s in spikes {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "a positive duration in hours; `min(max_h)` bounds it next"
        )]
        let d = (s.duration_h().max(1) as usize).min(max_h);
        counts[d] += 1;
    }
    let total = spikes.len().max(1) as f64;
    let mut cdf = Vec::with_capacity(max_h);
    let mut acc = 0usize;
    for &count in &counts[1..] {
        acc += count;
        cdf.push(acc as f64 / total);
    }
    cdf
}

/// Fraction of spikes with duration at least `h` hours (the paper: 10 %
/// last at least 3 hours; ≥ 5 h spikes are the top 3.5 %).
pub fn share_at_least(spikes: &[Spike], h: i64) -> f64 {
    if spikes.is_empty() {
        return 0.0;
    }
    spikes.iter().filter(|s| s.duration_h() >= h).count() as f64 / spikes.len() as f64
}

/// Distribution of spikes over the weekday of their start, as percentages
/// summing to 100 — the Fig. 4 bars.
pub fn weekday_distribution(spikes: &[Spike]) -> [f64; 7] {
    let mut counts = [0usize; 7];
    for s in spikes {
        counts[s.start.weekday().index()] += 1;
    }
    let total = spikes.len().max(1) as f64;
    let mut out = [0.0; 7];
    for (i, c) in counts.iter().enumerate() {
        out[i] = *c as f64 * 100.0 / total;
    }
    out
}

/// The `k` longest spikes, ties broken toward higher magnitude then
/// earlier start — the Table 1 ranking.
pub fn top_by_duration(spikes: &[Spike], k: usize) -> Vec<Spike> {
    let mut sorted: Vec<Spike> = spikes.to_vec();
    sorted.sort_by(|a, b| {
        b.duration_h()
            .cmp(&a.duration_h())
            .then(
                b.magnitude
                    .partial_cmp(&a.magnitude)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.start.cmp(&b.start))
    });
    sorted.truncate(k);
    sorted
}

/// Spike counts per calendar year of the spike start.
pub fn count_by_year(spikes: &[Spike]) -> Vec<(i32, usize)> {
    let mut by_year: std::collections::BTreeMap<i32, usize> = std::collections::BTreeMap::new();
    for s in spikes {
        *by_year.entry(s.start.year()).or_insert(0) += 1;
    }
    by_year.into_iter().collect()
}

/// Average weekday percentage vs average weekend percentage (a scalar
/// summary of Fig. 4's weekend dip).
pub fn weekend_dip(spikes: &[Spike]) -> (f64, f64) {
    let dist = weekday_distribution(spikes);
    let weekday = Weekday::ALL
        .iter()
        .filter(|w| !w.is_weekend())
        .map(|w| dist[w.index()])
        .sum::<f64>()
        / 5.0;
    let weekend = Weekday::ALL
        .iter()
        .filter(|w| w.is_weekend())
        .map(|w| dist[w.index()])
        .sum::<f64>()
        / 2.0;
    (weekday, weekend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_simtime::Hour;

    fn spike(state: State, start: i64, dur: i64, mag: f64) -> Spike {
        Spike {
            state,
            start: Hour(start),
            peak: Hour(start),
            end: Hour(start + dur),
            magnitude: mag,
        }
    }

    #[test]
    fn ranking_orders_and_accumulates() {
        let spikes = vec![
            spike(State::CA, 0, 2, 50.0),
            spike(State::CA, 10, 2, 50.0),
            spike(State::CA, 20, 2, 50.0),
            spike(State::TX, 0, 2, 50.0),
            spike(State::WY, 0, 2, 50.0),
        ];
        let ranking = state_ranking(&spikes);
        assert_eq!(ranking[0].state, State::CA);
        assert_eq!(ranking[0].count, 3);
        assert!((ranking[0].cumulative_share - 0.6).abs() < 1e-12);
        assert!((ranking.last().unwrap().cumulative_share - 1.0).abs() < 1e-12);
        assert_eq!(ranking.len(), State::COUNT);
    }

    #[test]
    fn duration_cdf_monotone_and_complete() {
        let spikes = vec![
            spike(State::CA, 0, 1, 10.0),
            spike(State::CA, 10, 2, 10.0),
            spike(State::CA, 20, 3, 10.0),
            spike(State::CA, 30, 40, 10.0),
        ];
        let cdf = duration_cdf(&spikes, 10);
        assert_eq!(cdf.len(), 10);
        for pair in cdf.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert!((cdf[0] - 0.25).abs() < 1e-12);
        assert!((cdf[2] - 0.75).abs() < 1e-12);
        // Durations beyond max_h clamp into the last bucket.
        assert!((cdf[9] - 1.0).abs() < 1e-12);
        assert!((share_at_least(&spikes, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weekday_distribution_sums_to_100() {
        let spikes: Vec<Spike> = (0..70).map(|i| spike(State::CA, i * 24, 2, 10.0)).collect();
        let dist = weekday_distribution(&spikes);
        let sum: f64 = dist.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        // 70 consecutive days = 10 of each weekday.
        for v in dist {
            assert!((v - 100.0 / 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn top_by_duration_ranks() {
        let spikes = vec![
            spike(State::CA, 0, 5, 10.0),
            spike(State::TX, 0, 45, 90.0),
            spike(State::GA, 0, 20, 50.0),
        ];
        let top = top_by_duration(&spikes, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].state, State::TX);
        assert_eq!(top[1].state, State::GA);
    }

    #[test]
    fn yearly_counts() {
        let spikes = vec![
            spike(State::CA, 100, 2, 10.0),  // 2020
            spike(State::CA, 9000, 2, 10.0), // 2021
            spike(State::CA, 9100, 2, 10.0), // 2021
        ];
        let by_year = count_by_year(&spikes);
        assert_eq!(by_year, vec![(2020, 1), (2021, 2)]);
    }

    #[test]
    fn empty_inputs_are_harmless() {
        assert_eq!(duration_cdf(&[], 5), vec![0.0; 5]);
        assert!(share_at_least(&[], 3).abs() < 1e-12);
        assert!(weekday_distribution(&[]).iter().all(|&share| share == 0.0));
        assert!(top_by_duration(&[], 5).is_empty());
        assert!(count_by_year(&[]).is_empty());
    }
}
