//! Area analysis: cross-state co-occurrence of spikes (§4.2).
//!
//! "SIFT analyzes the outage area by matching concurrent spikes from
//! distinct states." Spikes co-occurring with a common *anchor* spike form
//! an outage cluster; the cluster's state count is the paper's "number of
//! distinct states simultaneously observing a spike" (Fig. 5, Table 2).
//!
//! Clustering is anchor-based rather than transitive, and matches on
//! *peak proximity*: a spike joins the strongest anchor whose peak lies
//! within `slack_h` hours of its own. At the study's spike density
//! (several spikes peak somewhere in the country every hour), any looser
//! rule — window overlap, transitive chaining — would weld unrelated
//! regional outages into artifact clusters spanning dozens of states;
//! peak matching asks the paper's question: "spikes simultaneously
//! occurring ... for that particular time".

use crate::detect::Spike;
use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_simtime::{Hour, HourRange};
use std::collections::HashMap;

/// A group of spikes co-occurring in time across regions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OutageCluster {
    /// Member spikes, sorted by (start, state). Never empty.
    pub spikes: Vec<Spike>,
    /// Window of the anchor (strongest) spike.
    pub anchor_window: HourRange,
    /// The hull of all member windows.
    pub window: HourRange,
    /// Distinct regions spiking, sorted.
    pub states: Vec<State>,
}

impl OutageCluster {
    /// Number of distinct regions simultaneously spiking.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Hour of the earliest member peak.
    #[expect(clippy::expect_used, reason = "`spikes` is non-empty by construction")]
    pub fn first_peak(&self) -> Hour {
        self.spikes
            .iter()
            .map(|s| s.peak)
            .min()
            .expect("clusters are never empty")
    }

    /// The anchor spike: the member with the greatest magnitude.
    #[expect(clippy::expect_used, reason = "`spikes` is non-empty by construction")]
    pub fn anchor(&self) -> &Spike {
        self.spikes
            .iter()
            .max_by(|a, b| {
                a.magnitude
                    .partial_cmp(&b.magnitude)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("clusters are never empty")
    }

    /// Per-state lag of the earliest peak in that state behind the
    /// cluster's first peak, in hours — the §4.2 lag analysis of the
    /// Facebook outage.
    pub fn peak_lags(&self) -> Vec<(State, i64)> {
        let first = self.first_peak();
        let mut earliest: std::collections::BTreeMap<State, Hour> =
            std::collections::BTreeMap::new();
        for s in &self.spikes {
            let e = earliest.entry(s.state).or_insert(s.peak);
            if s.peak < *e {
                *e = s.peak;
            }
        }
        earliest
            .into_iter()
            .map(|(state, peak)| (state, peak - first))
            .collect()
    }
}

/// Hours per bucket of the anchor time index.
const BUCKET_H: i64 = 48;

/// Groups spikes into co-occurrence clusters.
///
/// Spikes are visited strongest-first. Each spike joins the cluster of the
/// strongest anchor whose *peak* is within `slack_h` hours of its own;
/// otherwise it becomes a new anchor. Runs in roughly `O(n · c)` where
/// `c` is the local density of anchors (indexed by time bucket).
pub fn cluster_spikes(spikes: &[Spike], slack_h: i64) -> Vec<OutageCluster> {
    assert!(slack_h >= 0);
    let mut order: Vec<usize> = (0..spikes.len()).collect();
    order.sort_by(|&a, &b| {
        spikes[b]
            .magnitude
            .partial_cmp(&spikes[a].magnitude)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(spikes[a].start.cmp(&spikes[b].start))
            .then(spikes[a].state.index().cmp(&spikes[b].state.index()))
    });

    struct Anchor {
        window: HourRange, // pre-widened by slack
        members: Vec<usize>,
    }
    let mut anchors: Vec<Anchor> = Vec::new();
    let mut index: HashMap<i64, Vec<usize>> = HashMap::new();

    for idx in order {
        // Peaks within `slack_h` of the anchor's peak connect. The
        // anchor's stored interval is its peak widened by the slack, so
        // matching the member's *raw* peak point gives |Δpeak| <= slack.
        let peak = spikes[idx].peak;
        let w = HourRange::new(peak - slack_h, peak + slack_h + 1);
        let point = HourRange::new(peak, peak + 1);
        let lo = w.start.0.div_euclid(BUCKET_H);
        let hi = w.end.0.div_euclid(BUCKET_H);
        // Earliest-created matching anchor = strongest one, because
        // anchors are created in descending magnitude order.
        let mut best: Option<usize> = None;
        for b in lo..=hi {
            if let Some(list) = index.get(&b) {
                for &a in list {
                    if anchors[a].window.overlaps(&point) && best.map_or(true, |cur| a < cur) {
                        best = Some(a);
                    }
                }
            }
        }
        match best {
            Some(a) => anchors[a].members.push(idx),
            None => {
                let a = anchors.len();
                anchors.push(Anchor {
                    window: w,
                    members: vec![idx],
                });
                for b in lo..=hi {
                    index.entry(b).or_default().push(a);
                }
            }
        }
    }

    let mut clusters: Vec<OutageCluster> = anchors
        .into_iter()
        .map(|a| {
            let anchor_window = HourRange::new(a.window.start + slack_h, a.window.end - slack_h);
            let mut members: Vec<Spike> = a.members.iter().map(|&i| spikes[i]).collect();
            members.sort_by_key(|s| (s.start, s.state.index()));
            #[expect(clippy::expect_used, reason = "every anchor starts with one member")]
            let window = members
                .iter()
                .map(|s| s.window())
                .reduce(|x, y| x.hull(&y))
                .expect("non-empty");
            let mut states: Vec<State> = members.iter().map(|s| s.state).collect();
            states.sort_by_key(|s| s.index());
            states.dedup();
            OutageCluster {
                spikes: members,
                anchor_window,
                window,
                states,
            }
        })
        .collect();
    clusters.sort_by_key(|c| (c.window.start, c.window.end));
    clusters
}

/// Empirical CDF of cluster state-counts evaluated at `1..=max_states` —
/// the Fig. 5 curve. `cdf[k-1]` is the fraction of clusters touching at
/// most `k` states.
pub fn state_count_cdf(clusters: &[OutageCluster], max_states: usize) -> Vec<f64> {
    let mut counts = vec![0usize; max_states + 1];
    for c in clusters {
        counts[c.state_count().min(max_states)] += 1;
    }
    let total = clusters.len().max(1) as f64;
    let mut out = Vec::with_capacity(max_states);
    let mut acc = 0usize;
    for &count in &counts[1..] {
        acc += count;
        out.push(acc as f64 / total);
    }
    out
}

/// Fraction of clusters spanning at least `k` states (the paper: 11 %
/// include 10 or more states).
pub fn share_spanning_at_least(clusters: &[OutageCluster], k: usize) -> f64 {
    if clusters.is_empty() {
        return 0.0;
    }
    clusters.iter().filter(|c| c.state_count() >= k).count() as f64 / clusters.len() as f64
}

/// The `k` widest clusters by state count — the Table 2 ranking.
pub fn top_by_extent(clusters: &[OutageCluster], k: usize) -> Vec<&OutageCluster> {
    let mut refs: Vec<&OutageCluster> = clusters.iter().collect();
    refs.sort_by_key(|c| (std::cmp::Reverse(c.state_count()), c.window.start));
    refs.truncate(k);
    refs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spike(state: State, start: i64, dur: i64) -> Spike {
        spike_mag(state, start, dur, 50.0)
    }

    fn spike_mag(state: State, start: i64, dur: i64, mag: f64) -> Spike {
        Spike {
            state,
            start: Hour(start),
            peak: Hour(start + dur / 2),
            end: Hour(start + dur),
            magnitude: mag,
        }
    }

    #[test]
    fn same_hour_peaks_cluster() {
        let spikes = vec![
            spike(State::CA, 0, 5), // peak at 2
            spike(State::TX, 0, 5), // peak at 2
            spike(State::NY, 100, 5),
        ];
        let clusters = cluster_spikes(&spikes, 0);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].state_count(), 2);
        assert_eq!(clusters[0].states, vec![State::CA, State::TX]);
        assert_eq!(clusters[1].state_count(), 1);
        assert_eq!(clusters[0].window, HourRange::new(Hour(0), Hour(5)));
    }

    #[test]
    fn no_transitive_chaining_past_the_anchor() {
        // B peaks within slack of anchor A; C within slack of B but not
        // of A: C must not be welded into A's cluster through B.
        let spikes = vec![
            spike_mag(State::CA, 0, 4, 90.0), // peak 2, anchor
            spike_mag(State::TX, 1, 4, 50.0), // peak 3, joins CA at slack 1
            spike_mag(State::NY, 2, 4, 40.0), // peak 4, outside anchor's reach
        ];
        let clusters = cluster_spikes(&spikes, 1);
        assert_eq!(clusters.len(), 2);
        let big = clusters
            .iter()
            .find(|c| c.state_count() == 2)
            .expect("2-state");
        assert_eq!(big.states, vec![State::CA, State::TX]);
        assert_eq!(big.anchor().state, State::CA);
    }

    #[test]
    fn spikes_join_the_strongest_concurrent_anchor() {
        let spikes = vec![
            spike_mag(State::CA, 0, 10, 100.0), // peak 5
            spike_mag(State::NY, 0, 10, 90.0),  // peak 5, joins CA
            spike_mag(State::TX, 4, 2, 10.0),   // peak 5, joins CA too
        ];
        let clusters = cluster_spikes(&spikes, 0);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].state_count(), 3);
        assert_eq!(clusters[0].anchor().state, State::CA);
    }

    #[test]
    fn slack_bridges_near_misses() {
        // Peaks at 2 and 3: apart at slack 0, together at slack 1.
        let spikes = vec![spike(State::CA, 0, 4), spike(State::TX, 1, 4)];
        assert_eq!(cluster_spikes(&spikes, 0).len(), 2);
        assert_eq!(cluster_spikes(&spikes, 1).len(), 1);
    }

    #[test]
    fn same_state_repeats_count_once() {
        let spikes = vec![
            spike_mag(State::CA, 0, 6, 80.0), // peak 3
            spike(State::CA, 2, 4),           // peak 4
            spike(State::TX, 3, 3),           // peak 4
        ];
        let clusters = cluster_spikes(&spikes, 1);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].state_count(), 2, "distinct states only");
        assert_eq!(clusters[0].spikes.len(), 3);
    }

    #[test]
    fn cdf_and_share() {
        let spikes = vec![
            // Cluster 1: 3 states (peaks 2, 2, 3).
            spike_mag(State::CA, 0, 5, 90.0),
            spike(State::TX, 1, 3),
            spike(State::NY, 2, 3),
            // Cluster 2: 1 state.
            spike(State::GA, 100, 5),
            // Cluster 3: 1 state.
            spike(State::FL, 200, 5),
        ];
        let clusters = cluster_spikes(&spikes, 1);
        assert_eq!(clusters.len(), 3);
        let cdf = state_count_cdf(&clusters, 5);
        assert!((cdf[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((cdf[2] - 1.0).abs() < 1e-12);
        assert!((share_spanning_at_least(&clusters, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert!(share_spanning_at_least(&[], 2).abs() < 1e-12);
    }

    #[test]
    fn top_by_extent_ranks() {
        let spikes = vec![
            spike_mag(State::CA, 0, 5, 90.0),
            spike(State::TX, 1, 3),
            spike(State::GA, 100, 5),
        ];
        let clusters = cluster_spikes(&spikes, 1);
        let top = top_by_extent(&clusters, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].state_count(), 2);
    }

    #[test]
    fn peak_lags_relative_to_first() {
        let mut a = spike_mag(State::CA, 0, 6, 90.0);
        a.peak = Hour(2);
        let mut b = spike(State::TX, 1, 5);
        b.peak = Hour(5);
        let clusters = cluster_spikes(&[a, b], 3);
        assert_eq!(clusters.len(), 1);
        let lags = clusters[0].peak_lags();
        assert_eq!(lags, vec![(State::CA, 0), (State::TX, 3)]);
    }

    #[test]
    fn bucket_boundaries_do_not_split_matches() {
        // Peaks straddling a 48h bucket boundary must still match.
        let spikes = vec![
            spike_mag(State::CA, 44, 6, 90.0), // peak 47 (bucket 0)
            spike(State::TX, 47, 2),           // peak 48 (bucket 1)
        ];
        let clusters = cluster_spikes(&spikes, 1);
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn empty_input() {
        assert!(cluster_spikes(&[], 0).is_empty());
        assert_eq!(state_count_cdf(&[], 3), vec![0.0, 0.0, 0.0]);
    }
}
