//! The population-level search-interest model.
//!
//! For every region and hour the model answers two questions the service
//! needs: *how many searches happened* (the sampling denominator) and
//! *what fraction of them were about the tracked topic* (the quantity the
//! service estimates and indexes). Both are ground truth — the service
//! adds sampling noise on top, per request.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::events::Cause;
use crate::scenario::Scenario;
use crate::terms::{SearchTerm, Topic};
use serde::{Deserialize, Serialize};
use sift_geo::{population, utc_offset, utc_offset_until, State};
use sift_simtime::{Hour, HourRange, STUDY_RANGE};

/// Tuning knobs of the interest model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ModelParams {
    /// Baseline fraction of a region's searches on the `<Internet outage>`
    /// topic when nothing is wrong.
    pub baseline_proportion: f64,
    /// Baseline fraction for the `<Power outage>` topic (people also
    /// search it out of idle curiosity, so it sits a little higher).
    pub power_baseline_proportion: f64,
    /// Average searches per resident per hour (all topics).
    pub per_capita_hourly_searches: f64,
    /// Shape (sigma) of the multiplicative log-normal wobble on the
    /// baseline proportion, modelling organic day-to-day variation.
    pub baseline_noise_sigma: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        // Calibrated so the hourly `<Internet outage>` topic behaves like
        // the real thing: a *niche* topic. In populous states the daytime
        // baseline hovers just above the anonymity threshold (Fig. 1's
        // low-single-digit Texas texture, touching zero nightly and under
        // sampling noise), which is also what anchors frame stitching;
        // smaller states round to zero almost always. Outage lift is
        // generated reach-based (see the scenario generator): the
        // searching population is a fraction of the *affected users*, so
        // severities are thousands of baseline units and the same outage
        // reach yields similar sampled counts in every state.
        ModelParams {
            baseline_proportion: 4.0e-6,
            power_baseline_proportion: 1.0e-5,
            per_capita_hourly_searches: 0.05,
            baseline_noise_sigma: 0.25,
        }
    }
}

/// Hourly multipliers on search volume by local hour of day (mean ≈ 1):
/// the usual deep night trough and evening peak.
const SEARCH_DIURNAL: [f64; 24] = [
    0.55, 0.4, 0.3, 0.25, 0.25, 0.35, 0.55, 0.8, 1.0, 1.15, 1.2, 1.25, 1.25, 1.25, 1.25, 1.25, 1.3,
    1.35, 1.4, 1.45, 1.4, 1.3, 1.05, 0.8,
];

/// Ground-truth search behaviour for one scenario.
///
/// Event-driven interest lift is pre-computed into dense per-region hourly
/// arrays over the study window, so per-hour queries are O(1) — the
/// service samples hundreds of thousands of frames during a study.
#[derive(Clone, Debug)]
pub struct InterestModel {
    params: ModelParams,
    /// `lift[state][hour]`: summed event lift in baseline units at that
    /// hour, for the `<Internet outage>` topic.
    lift: Vec<Vec<f32>>,
    /// Same, restricted to power-caused events, for `<Power outage>`.
    power_lift: Vec<Vec<f32>>,
    noise_seed: u64,
}

impl InterestModel {
    /// Builds the model for a scenario with default parameters.
    pub fn new(scenario: &Scenario) -> Self {
        Self::with_params(scenario, ModelParams::default())
    }

    /// Builds the model with explicit parameters.
    pub fn with_params(scenario: &Scenario, params: ModelParams) -> Self {
        let len = usize::try_from(STUDY_RANGE.len()).unwrap_or(0);
        let mut lift = vec![vec![0.0f32; len]; State::COUNT];
        let mut power_lift = vec![vec![0.0f32; len]; State::COUNT];
        for e in &scenario.events {
            let is_power = matches!(e.cause, Cause::Power(_));
            for i in 0..e.states.len() {
                let state = e.states[i].0;
                let w = e.window_in(i);
                for h in w.iter() {
                    if !STUDY_RANGE.contains(h) {
                        continue;
                    }
                    // Nonnegative: `contains` was checked just above.
                    let idx = usize::try_from(h - STUDY_RANGE.start).unwrap_or(0);
                    #[expect(
                        clippy::as_conversions,
                        clippy::cast_possible_truncation,
                        reason = "f32 storage halves the table; lift precision is modeling noise"
                    )]
                    let l = e.lift_at(i, h) as f32;
                    lift[state.index()][idx] += l;
                    if is_power {
                        // Power searches rise a touch harder than internet
                        // searches during a blackout.
                        power_lift[state.index()][idx] += l * 1.25;
                    }
                }
            }
        }
        InterestModel {
            params,
            lift,
            power_lift,
            noise_seed: scenario.params.seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The model's parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Total searches (all topics) in `state` during hour `at`.
    pub fn search_volume(&self, state: State, at: Hour) -> f64 {
        self.volume_at_offset(state, at, utc_offset(state, at))
    }

    /// [`Self::search_volume`] for every hour of `range`, in order. The
    /// UTC offset is resolved once per run of hours that share it (a
    /// frame crosses a DST boundary at most once), not once per hour.
    pub fn search_volumes(&self, state: State, range: HourRange) -> impl Iterator<Item = f64> + '_ {
        let (mut offset, mut until) = (0, range.start);
        (range.start.0..range.end.0).map(Hour).map(move |at| {
            if at >= until {
                (offset, until) = utc_offset_until(state, at);
            }
            self.volume_at_offset(state, at, offset)
        })
    }

    #[expect(clippy::as_conversions, reason = "populations ≪ 2⁵³, exact in f64")]
    fn volume_at_offset(&self, state: State, at: Hour, utc_offset: i32) -> f64 {
        let diurnal = SEARCH_DIURNAL[usize::from(at.to_local(utc_offset).hour_of_day())];
        population(state) as f64 * self.params.per_capita_hourly_searches * diurnal
    }

    /// Event-driven lift (in baseline units) on the `<Internet outage>`
    /// topic; zero outside the study window.
    pub fn outage_lift(&self, state: State, at: Hour) -> f64 {
        if !STUDY_RANGE.contains(at) {
            return 0.0;
        }
        let idx = usize::try_from(at - STUDY_RANGE.start).unwrap_or(0);
        f64::from(self.lift[state.index()][idx])
    }

    /// The true proportion of searches matching `term` in `state` at `at`.
    ///
    /// This is what the service's random samples estimate. Queries map to
    /// a deterministic share of their parent topic: raw phrasings split
    /// the topic's traffic.
    pub fn proportion(&self, term: &SearchTerm, state: State, at: Hour) -> f64 {
        match term {
            SearchTerm::Topic(Topic::InternetOutage) => {
                let noise = self.baseline_noise(state, at, 0);
                self.params.baseline_proportion * (noise + self.outage_lift(state, at))
            }
            SearchTerm::Topic(Topic::PowerOutage) => {
                let noise = self.baseline_noise(state, at, 1);
                let lift = if STUDY_RANGE.contains(at) {
                    let idx = usize::try_from(at - STUDY_RANGE.start).unwrap_or(0);
                    f64::from(self.power_lift[state.index()][idx])
                } else {
                    0.0
                };
                self.params.power_baseline_proportion * (noise + lift)
            }
            SearchTerm::Query(q) => {
                let parent = if q.to_ascii_lowercase().contains("power") {
                    SearchTerm::Topic(Topic::PowerOutage)
                } else {
                    SearchTerm::Topic(Topic::InternetOutage)
                };
                let share = query_share(q);
                share * self.proportion(&parent, state, at)
            }
        }
    }

    /// Deterministic multiplicative wobble on the baseline, log-normal
    /// with sigma [`ModelParams::baseline_noise_sigma`], mean ≈ 1.
    fn baseline_noise(&self, state: State, at: Hour, stream: u64) -> f64 {
        #[expect(
            clippy::as_conversions,
            clippy::cast_sign_loss,
            reason = "hash mixing wraps on purpose"
        )]
        let h = mix64(
            self.noise_seed
                ^ (state.index() as u64).wrapping_mul(0x100_0000_01b3)
                ^ (at.0 as u64).wrapping_mul(0x9e37_79b9)
                ^ stream.wrapping_mul(0xdead_beef_cafe),
        );
        // Two 32-bit halves → Box–Muller.
        let half = |x: u64| f64::from(u32::try_from(x & 0xffff_ffff).unwrap_or(u32::MAX));
        let u1 = (half(h >> 32) + 1.0) / (f64::from(u32::MAX) + 2.0);
        let u2 = (half(h) + 1.0) / (f64::from(u32::MAX) + 2.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.params.baseline_noise_sigma * z).exp()
    }
}

/// The deterministic share of its parent topic's traffic a raw query
/// phrase carries, in `[0.04, 0.30]`.
#[expect(clippy::as_conversions, reason = "53-bit values, exact in f64")]
pub(crate) fn query_share(q: &str) -> f64 {
    let h = mix64(fnv(q.to_ascii_lowercase().as_bytes()));
    0.04 + 0.26 * (h >> 11) as f64 / (1u64 << 53) as f64
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: cheap, well-mixed 64-bit hashing.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{OutageEvent, PowerTrigger};

    fn event(state: State, start: i64, duration: u32, severity: f64, power: bool) -> OutageEvent {
        OutageEvent {
            id: 0,
            name: "e".into(),
            cause: if power {
                Cause::Power(PowerTrigger::Storm)
            } else {
                Cause::IspNetwork(crate::terms::Provider::Comcast)
            },
            start: Hour(start),
            duration_h: duration,
            states: vec![(state, 1.0)],
            severity,
            lags_h: vec![0],
        }
    }

    #[test]
    fn lift_matches_events() {
        let s = Scenario::single_region(State::TX, vec![event(State::TX, 100, 10, 20.0, false)]);
        let m = InterestModel::new(&s);
        assert!(m.outage_lift(State::TX, Hour(99)).abs() < 1e-12);
        assert!(m.outage_lift(State::TX, Hour(104)) > 10.0);
        assert!(m.outage_lift(State::CA, Hour(104)).abs() < 1e-12);
        assert!(m.outage_lift(State::TX, Hour(200)).abs() < 1e-12);
    }

    #[test]
    fn proportion_rises_during_event() {
        let s = Scenario::single_region(State::TX, vec![event(State::TX, 100, 10, 20.0, false)]);
        let m = InterestModel::new(&s);
        let term = SearchTerm::Topic(Topic::InternetOutage);
        let quiet = m.proportion(&term, State::TX, Hour(50));
        let busy = m.proportion(&term, State::TX, Hour(104));
        assert!(busy > quiet * 5.0, "busy {busy} quiet {quiet}");
        assert!(quiet > 0.0);
    }

    #[test]
    fn power_topic_only_sees_power_events() {
        let s = Scenario::single_region(
            State::TX,
            vec![
                event(State::TX, 100, 10, 20.0, false),
                event(State::TX, 500, 10, 20.0, true),
            ],
        );
        let m = InterestModel::new(&s);
        let power = SearchTerm::Topic(Topic::PowerOutage);
        let during_isp = m.proportion(&power, State::TX, Hour(104));
        let during_power = m.proportion(&power, State::TX, Hour(504));
        let quiet = m.proportion(&power, State::TX, Hour(300));
        assert!(during_power > quiet * 5.0);
        // ISP outages leave the power topic near baseline.
        assert!(during_isp < quiet * 3.0);
    }

    #[test]
    fn query_is_share_of_topic() {
        let s = Scenario::single_region(State::TX, vec![event(State::TX, 100, 10, 20.0, false)]);
        let m = InterestModel::new(&s);
        let topic = m.proportion(
            &SearchTerm::Topic(Topic::InternetOutage),
            State::TX,
            Hour(104),
        );
        let q = m.proportion(
            &SearchTerm::Query("comcast outage".into()),
            State::TX,
            Hour(104),
        );
        assert!(q > 0.0 && q < topic);
    }

    #[test]
    fn search_volume_tracks_population_and_time_of_day() {
        let s = Scenario::single_region(State::CA, vec![]);
        let m = InterestModel::new(&s);
        let noon = Hour::from_ymdh(2020, 6, 1, 20); // local daytime
        let night = Hour::from_ymdh(2020, 6, 1, 11); // 4am local in CA
        assert!(m.search_volume(State::CA, noon) > m.search_volume(State::CA, night) * 2.0);
        assert!(m.search_volume(State::CA, noon) > m.search_volume(State::WY, noon) * 20.0);
    }

    #[test]
    fn per_run_volumes_are_bit_identical_to_per_hour_volumes() {
        let s = Scenario::single_region(State::CA, vec![]);
        let m = InterestModel::new(&s);
        // Weekly frames stepping through a year and a half: both DST
        // boundaries fall inside some frame, at every offset into it.
        for state in [State::CA, State::NY, State::AZ, State::AK] {
            for start in (0..13_000).step_by(131) {
                let range = HourRange::with_len(Hour(start), 168);
                let per_run: Vec<u64> = m.search_volumes(state, range).map(f64::to_bits).collect();
                let per_hour: Vec<u64> = range
                    .iter()
                    .map(|h| m.search_volume(state, h).to_bits())
                    .collect();
                assert_eq!(per_run, per_hour, "{state} frame at {start}");
            }
        }
    }

    #[test]
    fn baseline_noise_is_deterministic_and_centred() {
        let s = Scenario::single_region(State::TX, vec![]);
        let m = InterestModel::new(&s);
        let a = m.baseline_noise(State::TX, Hour(77), 0);
        let b = m.baseline_noise(State::TX, Hour(77), 0);
        assert_eq!(a.to_bits(), b.to_bits());
        let mean: f64 = (0..2000)
            .map(|i| m.baseline_noise(State::TX, Hour(i), 0))
            .sum::<f64>()
            / 2000.0;
        assert!((mean - 1.0).abs() < 0.06, "noise mean {mean}");
    }

    #[test]
    fn query_share_bounds() {
        for q in ["a", "verizon outage", "power outage austin", ""] {
            let s = query_share(q);
            assert!((0.04..=0.30).contains(&s), "{q}: {s}");
        }
        assert_eq!(
            query_share("X").to_bits(),
            query_share("x").to_bits(),
            "case-insensitive"
        );
    }
}
