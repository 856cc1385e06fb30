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
use crate::interest::{query_share, InterestModel};
use crate::scenario::{EventIndex, Scenario};
use crate::terms::generic_outage_phrases;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use sift_geo::State;
use sift_simtime::HourRange;
use std::collections::HashMap;

/// Maximum number of suggestions returned per request.
pub const MAX_SUGGESTIONS: usize = 25;

/// Computes the rising suggestions for a frame.
pub fn rising_terms(
    rng: &mut ChaCha8Rng,
    scenario: &Scenario,
    index: &EventIndex,
    model: &InterestModel,
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

            // Mean lift inside the frame vs the preceding window of the
            // same length: the "percent increase" the service reports.
            let mean_in = mean_lift(model, state, e, i, range);
            let prev = HourRange::new(range.start - range.len(), range.start);
            let mean_prev = mean_lift(model, state, e, i, prev);
            let increase = mean_in / (mean_prev + 1.0);
            if increase < 0.05 {
                continue;
            }
            let coverage = overlap.len() as f64 / w.len().max(1) as f64;
            let percent = 100.0 * increase * coverage.clamp(0.1, 1.0);

            for phrase in e.rising_phrases(state) {
                // Each phrasing carries its own share of the event's
                // traffic, plus per-request sampling jitter.
                let share = query_share(&phrase);
                let jitter = rng.gen_range(0.75..1.25);
                let w = percent * share * 0.05 * jitter;
                if w >= 1.0 {
                    *weights.entry(phrase).or_insert(0.0) += w;
                }
            }
        }
    }

    // Ambient chatter: generic phrasings that drift upwards for no reason
    // users would care about, so clients must learn to rank them down.
    for phrase in generic_outage_phrases(state) {
        if rng.gen::<f64>() < 0.25 {
            let w = rng.gen_range(5.0..40.0);
            *weights.entry(phrase).or_insert(0.0) += w;
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "float-to-int `as` saturates; weights are small and at least 1"
    )]
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

/// Mean lift of event `e` (region index `i`) over `range`, in baseline
/// units.
fn mean_lift(
    model: &InterestModel,
    _state: State,
    e: &crate::events::OutageEvent,
    i: usize,
    range: HourRange,
) -> f64 {
    let _ = model;
    if range.is_empty() {
        return 0.0;
    }
    range.iter().map(|h| e.lift_at(i, h)).sum::<f64>() / range.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Cause, OutageEvent, PowerTrigger};
    use crate::sampling::request_rng;
    use crate::terms::Provider;
    use sift_simtime::Hour;

    fn scenario() -> (Scenario, InterestModel) {
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
        let s = Scenario::single_region(State::TX, events);
        let m = InterestModel::new(&s);
        (s, m)
    }

    #[test]
    fn event_phrases_rise_during_event() {
        let (s, m) = scenario();
        let mut rng = request_rng(5);
        let range = HourRange::with_len(Hour(960), 168);
        let rising = rising_terms(&mut rng, &s, &s.build_index(), &m, State::TX, range);
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
        let (s, m) = scenario();
        let mut rng = request_rng(6);
        let range = HourRange::with_len(Hour(5000), 168);
        let rising = rising_terms(&mut rng, &s, &s.build_index(), &m, State::TX, range);
        // Only ambient chatter possible; no event phrases.
        assert!(rising.iter().all(|t| !t.term.contains("Verizon")));
        assert!(rising.len() <= 4, "rising: {rising:?}");
    }

    #[test]
    fn daily_frame_targets_the_spike_day() {
        let (s, m) = scenario();
        let mut rng = request_rng(7);
        // The day containing the events.
        let range = HourRange::with_len(Hour(984), 24);
        let rising = rising_terms(&mut rng, &s, &s.build_index(), &m, State::TX, range);
        assert!(rising.iter().any(|t| t.term.contains("Verizon")));
    }

    #[test]
    fn other_state_sees_nothing() {
        let (s, m) = scenario();
        let mut rng = request_rng(8);
        let range = HourRange::with_len(Hour(960), 168);
        let rising = rising_terms(&mut rng, &s, &s.build_index(), &m, State::CA, range);
        assert!(rising.iter().all(|t| !t.term.contains("Verizon")));
    }

    #[test]
    fn suggestions_bounded_and_deduped() {
        let (s, m) = scenario();
        let mut rng = request_rng(9);
        let range = HourRange::with_len(Hour(960), 168);
        let rising = rising_terms(&mut rng, &s, &s.build_index(), &m, State::TX, range);
        assert!(rising.len() <= MAX_SUGGESTIONS);
        let mut terms: Vec<&str> = rising.iter().map(|t| t.term.as_str()).collect();
        terms.sort_unstable();
        let before = terms.len();
        terms.dedup();
        assert_eq!(before, terms.len());
    }
}
