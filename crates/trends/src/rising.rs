//! Rising-suggestion computation.
//!
//! "The rising terms represent the search terms that see the most
//! significant increase in their search interests over the selected time
//! frame and geographical area of the input term. GT assigns weights to
//! these suggestions proportional to their percent increase" (§2).
//!
//! The simulator computes exactly that from ground truth: an event active
//! in the frame lifts its phrases' interest relative to the preceding
//! window, yielding a percent-increase weight per phrase, perturbed by
//! per-request sampling noise.

use crate::api::RisingTerm;
use crate::events::OutageEvent;
use crate::scenario::{EventIndex, Scenario};
use crate::terms::PhraseTable;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use sift_geo::State;
use sift_simtime::HourRange;

/// Maximum number of suggestions returned per request.
pub const MAX_SUGGESTIONS: usize = 25;

/// Computes the rising suggestions for a frame.
///
/// Visits only the `(event, region)` pairs of `state` that the index
/// files under the frame's buckets, and accumulates weights by interned
/// phrase id: the cost follows what the frame holds, and strings are
/// built only for the suggestions returned.
pub fn rising_terms(
    rng: &mut ChaCha8Rng,
    scenario: &Scenario,
    index: &EventIndex,
    state: State,
    range: HourRange,
) -> Vec<RisingTerm> {
    let table = PhraseTable::get();
    // Weight per phrase id, in first-seen order.
    let mut weights: Vec<(u32, f64)> = Vec::new();
    let mut add = |id: u32, w: f64| match weights.iter_mut().find(|(seen, _)| *seen == id) {
        Some((_, total)) => *total += w,
        None => weights.push((id, w)),
    };

    for (event, i) in index.in_state(state, range) {
        let e = &scenario.events[event as usize];
        let i = i as usize;
        let w = e.window_in(i);
        let Some(overlap) = w.intersect(&range) else {
            continue;
        };

        // Mean lift inside the frame vs the preceding window of the
        // same length: the "percent increase" the service reports.
        let mean_in = mean_lift(e, i, range);
        let prev = HourRange::new(range.start - range.len(), range.start);
        let mean_prev = mean_lift(e, i, prev);
        let increase = mean_in / (mean_prev + 1.0);
        if increase < 0.05 {
            continue;
        }
        let coverage = overlap.len() as f64 / w.len().max(1) as f64;
        let percent = 100.0 * increase * coverage.clamp(0.1, 1.0);

        for &id in table.phrases(e.phrase_key(state)) {
            // Each phrasing carries its own share of the event's
            // traffic, plus per-request sampling jitter.
            let jitter = rng.gen_range(0.75..1.25);
            let w = percent * table.share(id) * 0.05 * jitter;
            if w >= 1.0 {
                add(id, w);
            }
        }
    }

    // Ambient chatter: generic phrasings that drift upwards for no reason
    // users would care about, so clients must learn to rank them down.
    for &id in table.generic(state) {
        if rng.gen::<f64>() < 0.25 {
            let w = rng.gen_range(5.0..40.0);
            add(id, w);
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "float-to-int `as` saturates; weights are small and at least 1"
    )]
    let mut out: Vec<(&str, u32)> = weights
        .into_iter()
        .map(|(id, w)| (table.text(id), w.round().max(1.0) as u32))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    out.truncate(MAX_SUGGESTIONS);
    out.into_iter()
        .map(|(term, weight)| RisingTerm {
            term: term.to_owned(),
            weight,
        })
        .collect()
}

/// Mean lift of event `e` (region index `i`) over `range`, in baseline
/// units. Lift is zero outside the event's window and never negative, so
/// summing the overlap alone gives the whole range's sum bit for bit.
fn mean_lift(e: &OutageEvent, i: usize, range: HourRange) -> f64 {
    let Some(overlap) = e.window_in(i).intersect(&range) else {
        return 0.0;
    };
    overlap.iter().map(|h| e.lift_at(i, h)).sum::<f64>() / range.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Cause, OutageEvent, PowerTrigger};
    use crate::interest::query_share;
    use crate::sampling::request_rng;
    use crate::scenario::EVENT_INDEX_BUCKET_H;
    use crate::terms::{generic_outage_phrases, Provider};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};
    use sift_simtime::Hour;
    use std::collections::HashMap;

    /// The straightforward `rising_terms`, kept as the oracle: every
    /// candidate event of the frame's buckets, lift summed over the whole
    /// range, phrases built as strings and weighed in a `HashMap`.
    fn reference_rising_terms(
        rng: &mut ChaCha8Rng,
        scenario: &Scenario,
        index: &EventIndex,
        state: State,
        range: HourRange,
    ) -> Vec<RisingTerm> {
        let mut weights: HashMap<String, f64> = HashMap::new();

        for e in index
            .candidates(range)
            .iter()
            .map(|i| &scenario.events[*i as usize])
        {
            for (i, (s, _)) in e.states.iter().enumerate() {
                if *s != state {
                    continue;
                }
                let w = e.window_in(i);
                let Some(overlap) = w.intersect(&range) else {
                    continue;
                };
                let mean_in = reference_mean_lift(e, i, range);
                let prev = HourRange::new(range.start - range.len(), range.start);
                let mean_prev = reference_mean_lift(e, i, prev);
                let increase = mean_in / (mean_prev + 1.0);
                if increase < 0.05 {
                    continue;
                }
                let coverage = overlap.len() as f64 / w.len().max(1) as f64;
                let percent = 100.0 * increase * coverage.clamp(0.1, 1.0);

                for phrase in e.rising_phrases(state) {
                    let share = query_share(&phrase);
                    let jitter = rng.gen_range(0.75..1.25);
                    let w = percent * share * 0.05 * jitter;
                    if w >= 1.0 {
                        *weights.entry(phrase).or_insert(0.0) += w;
                    }
                }
            }
        }

        for phrase in generic_outage_phrases(state) {
            if rng.gen::<f64>() < 0.25 {
                let w = rng.gen_range(5.0..40.0);
                *weights.entry(phrase).or_insert(0.0) += w;
            }
        }

        let mut out: Vec<RisingTerm> = weights
            .into_iter()
            .map(|(term, w)| RisingTerm {
                term,
                weight: w.round().max(1.0) as u32,
            })
            .collect();
        out.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.term.cmp(&b.term)));
        out.truncate(MAX_SUGGESTIONS);
        out
    }

    fn reference_mean_lift(e: &OutageEvent, i: usize, range: HourRange) -> f64 {
        if range.is_empty() {
            return 0.0;
        }
        range.iter().map(|h| e.lift_at(i, h)).sum::<f64>() / range.len() as f64
    }

    /// First hour of the oracle worlds; the last event ends before
    /// `FIRST + 700`.
    const FIRST: i64 = 1_000;

    /// A small random world: events of every cause, each in 1–4 distinct
    /// states with random lags. New York is often among them: its name
    /// is also a city's, so a provider event's list repeats a phrase.
    fn random_scenario(rng: &mut ChaCha8Rng) -> Scenario {
        let n = rng.gen_range(1..25);
        let events = (0..n)
            .map(|k| {
                let provider = *Provider::ALL.choose(rng).expect("providers");
                let cause = match rng.gen_range(0..5) {
                    0 => Cause::Power(PowerTrigger::Storm),
                    1 => Cause::IspNetwork(provider),
                    2 => Cause::MobileCarrier(provider),
                    3 => Cause::CdnOrCloud(provider),
                    _ => Cause::Application(provider),
                };
                let mut states = State::ALL.to_vec();
                states.shuffle(rng);
                states.truncate(rng.gen_range(1..5));
                if rng.gen_bool(0.5) && !states.contains(&State::NY) {
                    states[0] = State::NY;
                }
                OutageEvent {
                    id: rng.gen_range(0..10_000),
                    name: format!("event {k}"),
                    cause,
                    start: Hour(FIRST + rng.gen_range(0..600i64)),
                    duration_h: rng.gen_range(1..40),
                    states: states
                        .iter()
                        .map(|s| (*s, rng.gen_range(0.05..1.0)))
                        .collect(),
                    severity: rng.gen_range(1.0..2_000.0),
                    lags_h: states
                        .iter()
                        .map(|_| {
                            if rng.gen_bool(0.3) {
                                rng.gen_range(1..12)
                            } else {
                                0
                            }
                        })
                        .collect(),
                }
            })
            .collect();
        Scenario::single_region(State::NY, events)
    }

    /// A frame of 1–168 hours: before the first bucket, past the last,
    /// straddling a bucket edge, or anywhere among the events.
    fn random_window(rng: &mut ChaCha8Rng) -> HourRange {
        let len = rng.gen_range(1..=168i64);
        let first_bucket = FIRST.div_euclid(EVENT_INDEX_BUCKET_H) * EVENT_INDEX_BUCKET_H;
        let start = match rng.gen_range(0..4) {
            0 => rng.gen_range(0..first_bucket - len),
            1 => FIRST + 800 + rng.gen_range(0..1_000i64),
            2 => {
                let edge = EVENT_INDEX_BUCKET_H * rng.gen_range(10..20i64);
                edge - rng.gen_range(1..=len)
            }
            _ => FIRST - 200 + rng.gen_range(0..900i64),
        };
        HourRange::with_len(Hour(start), len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The indexed, interned `rising_terms` returns what the oracle
        /// returns for every state, and leaves the request RNG where the
        /// oracle leaves it: the same draws, in the same order.
        #[test]
        fn rising_terms_match_the_reference(seed in any::<u64>()) {
            let mut world = ChaCha8Rng::seed_from_u64(seed);
            let scenario = random_scenario(&mut world);
            let index = scenario.build_index();
            for state in State::ALL {
                for _ in 0..3 {
                    let range = random_window(&mut world);
                    let request = world.gen::<u64>();
                    let (mut fast_rng, mut ref_rng) = (request_rng(request), request_rng(request));
                    let fast = rising_terms(&mut fast_rng, &scenario, &index, state, range);
                    let reference =
                        reference_rising_terms(&mut ref_rng, &scenario, &index, state, range);
                    prop_assert_eq!(&fast, &reference, "{:?} {:?}", state, range);
                    prop_assert_eq!(fast_rng.next_u64(), ref_rng.next_u64());
                }
            }
        }
    }

    fn scenario() -> Scenario {
        let events = vec![
            OutageEvent {
                id: 0,
                name: "verizon".into(),
                cause: Cause::IspNetwork(Provider::Verizon),
                start: Hour(1000),
                duration_h: 8,
                states: vec![(State::TX, 1.0)],
                severity: 25.0,
                lags_h: vec![0],
            },
            OutageEvent {
                id: 1,
                name: "power".into(),
                cause: Cause::Power(PowerTrigger::Storm),
                start: Hour(1004),
                duration_h: 12,
                states: vec![(State::TX, 1.0)],
                severity: 20.0,
                lags_h: vec![0],
            },
        ];
        Scenario::single_region(State::TX, events)
    }

    #[test]
    fn event_phrases_rise_during_event() {
        let s = scenario();
        let mut rng = request_rng(5);
        let range = HourRange::with_len(Hour(960), 168);
        let rising = rising_terms(&mut rng, &s, &s.build_index(), State::TX, range);
        assert!(!rising.is_empty());
        let has = |needle: &str| rising.iter().any(|t| t.term.contains(needle));
        assert!(has("Verizon") || has("verizon"), "rising: {rising:?}");
        assert!(has("power outage"), "rising: {rising:?}");
        // Sorted by weight, descending.
        for pair in rising.windows(2) {
            assert!(pair[0].weight >= pair[1].weight);
        }
    }

    #[test]
    fn quiet_frames_yield_little() {
        let s = scenario();
        let mut rng = request_rng(6);
        let range = HourRange::with_len(Hour(5000), 168);
        let rising = rising_terms(&mut rng, &s, &s.build_index(), State::TX, range);
        // Only ambient chatter possible; no event phrases.
        assert!(rising.iter().all(|t| !t.term.contains("Verizon")));
        assert!(rising.len() <= 4, "rising: {rising:?}");
    }

    #[test]
    fn daily_frame_targets_the_spike_day() {
        let s = scenario();
        let mut rng = request_rng(7);
        // The day containing the events.
        let range = HourRange::with_len(Hour(984), 24);
        let rising = rising_terms(&mut rng, &s, &s.build_index(), State::TX, range);
        assert!(rising.iter().any(|t| t.term.contains("Verizon")));
    }

    #[test]
    fn other_state_sees_nothing() {
        let s = scenario();
        let mut rng = request_rng(8);
        let range = HourRange::with_len(Hour(960), 168);
        let rising = rising_terms(&mut rng, &s, &s.build_index(), State::CA, range);
        assert!(rising.iter().all(|t| !t.term.contains("Verizon")));
    }

    #[test]
    fn suggestions_bounded_and_deduped() {
        let s = scenario();
        let mut rng = request_rng(9);
        let range = HourRange::with_len(Hour(960), 168);
        let rising = rising_terms(&mut rng, &s, &s.build_index(), State::TX, range);
        assert!(rising.len() <= MAX_SUGGESTIONS);
        let mut terms: Vec<&str> = rising.iter().map(|t| t.term.as_str()).collect();
        terms.sort_unstable();
        let before = terms.len();
        terms.dedup();
        assert_eq!(before, terms.len());
    }
}
