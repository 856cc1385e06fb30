//! The generative world model: two years of ground-truth US outages.
//!
//! The paper studies 2020–2021 in the United States and finds ~49 000
//! spikes whose shape is dictated by a handful of mechanisms: population/
//! infrastructure skew across states, heavy-tailed outage durations,
//! weekday-biased human error, seasonal storms, and two climate disasters
//! (the Aug–Sep 2020 western wildfires, the Feb 2021 Texas winter storm).
//! [`Scenario`] encodes those *mechanisms* — plus the specific headline
//! events of Tables 1–3 — and produces the event list that drives both the
//! trends service and the probing baseline.

use crate::dist;
use crate::events::{Cause, OutageEvent, PowerTrigger};
use crate::terms::Provider;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sift_geo::{population, State};
use sift_simtime::{Hour, HourRange, Month, Weekday};

/// Tuning knobs of the world model. [`ScenarioParams::default`] reproduces
/// the full two-year study; tests shrink `background_scale` or restrict
/// regions to keep runtimes tiny.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioParams {
    /// Seed for every random choice in the generator.
    pub seed: u64,
    /// Scales the number of background events (1.0 ≈ 54 000 over the two
    /// years, sized so SIFT detects on the order of the paper's 49 189
    /// spikes).
    pub background_scale: f64,
    /// Include the paper's named headline events (Tables 1–3, Figs 1–2).
    pub include_named: bool,
    /// Include the wildfire / winter-storm climate clusters (Fig. 6
    /// outliers).
    pub include_clusters: bool,
    /// Regions to generate events for; events touching none of these are
    /// dropped and multi-state events are trimmed to this set.
    pub regions: Vec<State>,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            seed: 0x51F7_2022,
            background_scale: 1.0,
            include_named: true,
            include_clusters: true,
            regions: State::ALL.to_vec(),
        }
    }
}

/// Background events generated per calendar year at `background_scale`
/// 1.0. 2020 runs slightly hotter, reproducing the paper's 25 494 vs
/// 23 695 spike split.
const BACKGROUND_2020: f64 = 28_800.0;
const BACKGROUND_2021: f64 = 25_800.0;

/// Fraction of background outages that are power-caused, per year. 2020 is
/// higher, contributing to its 50 % surplus of ≥ 5 h spikes.
const POWER_FRAC: [f64; 2] = [0.21, 0.17];
const MOBILE_FRAC: f64 = 0.09;
const APP_FRAC: f64 = 0.07;
const CDN_FRAC: f64 = 0.04;

/// (State, bucket)-keyed index over a scenario's events.
///
/// Buckets are [`EVENT_INDEX_BUCKET_H`]-hour wide. Each (bucket, state)
/// cell lists, in event order, the `(event, region position)` pairs whose
/// (lag-extended) window in that state touches the bucket, so a window
/// query scans only the pairs of its own buckets, and a per-state query
/// only those of its own state.
#[derive(Clone, Debug, Default)]
pub struct EventIndex {
    /// Every filed pair, cell by cell.
    pairs: Vec<(u32, u32)>,
    /// Cell `bucket * State::COUNT + state.index()` is
    /// `pairs[starts[cell]..starts[cell + 1]]`.
    starts: Vec<usize>,
    origin: i64,
}

/// Width of one event-index bucket, in hours.
pub const EVENT_INDEX_BUCKET_H: i64 = 96;

impl EventIndex {
    fn new(scenario: &Scenario) -> Self {
        let origin = scenario
            .events
            .first()
            .map(|e| e.start.0)
            .unwrap_or(0)
            .div_euclid(EVENT_INDEX_BUCKET_H);
        // One pass over the events files each pair under its cells; a
        // counting sort then groups them by cell, keeping event order.
        let mut filed: Vec<(usize, (u32, u32))> = Vec::new();
        let mut cells = 0;
        for (idx, e) in scenario.events.iter().enumerate() {
            let idx32 = u32::try_from(idx).unwrap_or(u32::MAX);
            for (i, (state, _)) in e.states.iter().enumerate() {
                let pos = u32::try_from(i).unwrap_or(u32::MAX);
                let w = e.window_in(i);
                let lo = w.start.0.div_euclid(EVENT_INDEX_BUCKET_H) - origin;
                let hi = (w.end.0 - 1).div_euclid(EVENT_INDEX_BUCKET_H) - origin;
                for b in lo..=hi {
                    #[expect(
                        clippy::cast_possible_truncation,
                        clippy::cast_sign_loss,
                        reason = "a clamped non-negative bucket number"
                    )]
                    let b = b.max(0) as usize;
                    cells = cells.max((b + 1) * State::COUNT);
                    filed.push((b * State::COUNT + state.index(), (idx32, pos)));
                }
            }
        }
        let mut starts = vec![0; cells + 1];
        for (cell, _) in &filed {
            starts[cell + 1] += 1;
        }
        for cell in 0..cells {
            starts[cell + 1] += starts[cell];
        }
        let mut next = starts.clone();
        let mut pairs = vec![(0, 0); filed.len()];
        for (cell, pair) in filed {
            pairs[next[cell]] = pair;
            next[cell] += 1;
        }
        EventIndex {
            pairs,
            starts,
            origin,
        }
    }

    /// The pairs of cell `cell`.
    fn cell(&self, cell: usize) -> &[(u32, u32)] {
        &self.pairs[self.starts[cell]..self.starts[cell + 1]]
    }

    /// The buckets `window` touches, clamped to the indexed span; `None`
    /// for an empty index or window.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        reason = "bucket numbers are clamped to [0, last]"
    )]
    fn buckets(&self, window: HourRange) -> Option<std::ops::RangeInclusive<usize>> {
        if self.pairs.is_empty() || window.is_empty() {
            return None;
        }
        let last = ((self.starts.len() - 1) / State::COUNT - 1) as i64;
        let bucket = |h: i64| (h.div_euclid(EVENT_INDEX_BUCKET_H) - self.origin).clamp(0, last);
        Some(bucket(window.start.0) as usize..=bucket(window.end.0 - 1) as usize)
    }

    /// Indices (into `scenario.events`) of events whose window in some
    /// region may intersect `window`. May contain a few false positives
    /// (bucket granularity); never misses an event.
    pub fn candidates(&self, window: HourRange) -> Vec<u32> {
        let Some(buckets) = self.buckets(window) else {
            return Vec::new();
        };
        let pairs = &self.pairs[self.starts[buckets.start() * State::COUNT]
            ..self.starts[(buckets.end() + 1) * State::COUNT]];
        let mut out: Vec<u32> = pairs.iter().map(|(e, _)| *e).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The `(event, region position)` pairs of `state` whose window may
    /// intersect `window`, ascending and without repeats: every pair of
    /// the buckets `window` touches, so a pair that meets `window` is
    /// never missed.
    pub fn in_state(&self, state: State, window: HourRange) -> Vec<(u32, u32)> {
        let Some(buckets) = self.buckets(window) else {
            return Vec::new();
        };
        let mut out: Vec<(u32, u32)> = buckets
            .flat_map(|b| self.cell(b * State::COUNT + state.index()))
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A fully-instantiated world: ground-truth events plus the parameters
/// that produced them.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Scenario {
    /// The parameters the scenario was generated with.
    pub params: ScenarioParams,
    /// Every ground-truth event, sorted by start hour.
    pub events: Vec<OutageEvent>,
}

impl Scenario {
    /// The full two-year US study world with the default seed.
    pub fn us_2020_2021() -> Self {
        Self::generate(ScenarioParams::default())
    }

    /// Generates a world from explicit parameters.
    pub fn generate(params: ScenarioParams) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        let mut events = Vec::new();
        let mut next_id = 0u32;

        if params.include_named {
            for mut e in named_events(&mut rng) {
                e.id = next_id;
                next_id += 1;
                events.push(e);
            }
        }
        if params.include_clusters {
            for mut e in climate_clusters(&mut rng, params.background_scale) {
                e.id = next_id;
                next_id += 1;
                events.push(e);
            }
        }
        for mut e in background_events(&mut rng, params.background_scale) {
            e.id = next_id;
            next_id += 1;
            events.push(e);
        }

        // Trim to the requested regions.
        if params.regions.len() < State::COUNT {
            let keep = |s: &State| params.regions.contains(s);
            events.retain_mut(|e| {
                let mut kept_states = Vec::new();
                let mut kept_lags = Vec::new();
                for (i, (s, w)) in e.states.iter().enumerate() {
                    if keep(s) {
                        kept_states.push((*s, *w));
                        kept_lags.push(e.lags_h[i]);
                    }
                }
                e.states = kept_states;
                e.lags_h = kept_lags;
                !e.states.is_empty()
            });
        }

        events.sort_by_key(|e| (e.start, e.id));
        Scenario { params, events }
    }

    /// A small single-region world for unit tests: a handful of explicit
    /// events, no background noise.
    pub fn single_region(state: State, events: Vec<OutageEvent>) -> Self {
        let params = ScenarioParams {
            background_scale: 0.0,
            include_named: false,
            include_clusters: false,
            regions: vec![state],
            ..ScenarioParams::default()
        };
        let mut events = events;
        events.sort_by_key(|e| (e.start, e.id));
        Scenario { params, events }
    }

    /// Builds the (state, bucket) index in one pass over the events. The
    /// service answers tens of thousands of rising-term requests per
    /// study, each for one state and at most a week: through the index a
    /// request visits the few `(event, region)` pairs of its own state and
    /// buckets, not every event of those buckets in every state.
    pub fn build_index(&self) -> EventIndex {
        EventIndex::new(self)
    }
}

/// Builds one multi-state event affecting the `n` most populous regions
/// with randomized intensities.
fn national_event(
    rng: &mut ChaCha8Rng,
    name: &str,
    cause: Cause,
    start: Hour,
    duration_h: u32,
    n_states: usize,
    severity: f64,
) -> OutageEvent {
    let mut by_pop: Vec<State> = State::ALL.to_vec();
    by_pop.sort_by_key(|s| std::cmp::Reverse(population(*s)));
    let states: Vec<(State, f64)> = by_pop
        .into_iter()
        .take(n_states)
        .map(|s| (s, rng.gen_range(0.25..0.5)))
        .collect();
    let lags = vec![0; states.len()];
    OutageEvent {
        id: 0,
        name: name.to_owned(),
        cause,
        start,
        duration_h,
        states,
        severity,
        lags_h: lags,
    }
}

/// The paper's headline events: every row of Tables 1–3 plus the Fig. 1
/// and Fig. 2 walkthrough spikes.
#[expect(
    clippy::vec_init_then_push,
    reason = "sequential pushes keep each table row next to its source comment"
)]
fn named_events(rng: &mut ChaCha8Rng) -> Vec<OutageEvent> {
    let h = Hour::from_ymdh;
    let mut out = Vec::new();

    // ---- Table 1 / Table 3: the Texas winter storm (45 h, TX). Also
    // drives Fig. 1's dominant spike. Neighbouring grid regions see
    // shorter, weaker interest.
    out.push(OutageEvent {
        id: 0,
        name: "Texas winter storm".into(),
        cause: Cause::Power(PowerTrigger::WinterStorm),
        start: h(2021, 2, 15, 10),
        duration_h: 45,
        states: vec![
            (State::TX, 0.7),
            (State::OK, 0.12),
            (State::LA, 0.1),
            (State::AR, 0.09),
            (State::MS, 0.07),
        ],
        severity: 15_000.0,
        lags_h: vec![0; 5],
    });

    // ---- Table 1 rows (most impactful by duration).
    out.push(national_event(
        rng,
        "Xfinity nationwide outage",
        Cause::IspNetwork(Provider::Xfinity),
        h(2021, 11, 9, 4),
        23,
        9,
        9_000.0,
    ));
    out.push(national_event(
        rng,
        "Fastly global outage",
        Cause::CdnOrCloud(Provider::Fastly),
        h(2021, 6, 8, 9),
        22,
        26,
        9_500.0,
    ));
    out.push(OutageEvent {
        id: 0,
        name: "AT&T Nashville outage".into(),
        cause: Cause::IspNetwork(Provider::Att),
        start: h(2020, 12, 26, 12),
        duration_h: 21,
        states: vec![(State::TN, 0.5), (State::KY, 0.12), (State::AL, 0.1)],
        severity: 10_500.0,
        lags_h: vec![0; 3],
    });
    out.push(OutageEvent {
        id: 0,
        name: "Comcast Georgia outage (tropical storm Zeta)".into(),
        cause: Cause::IspNetwork(Provider::Comcast),
        start: h(2020, 10, 29, 9),
        duration_h: 20,
        states: vec![
            (State::GA, 0.5),
            (State::AL, 0.16),
            (State::SC, 0.15),
            (State::TN, 0.12),
        ],
        severity: 9_500.0,
        lags_h: vec![0; 4],
    });
    out.push(national_event(
        rng,
        "T-Mobile nationwide outage",
        Cause::MobileCarrier(Provider::TMobile),
        h(2020, 6, 15, 14),
        19,
        15,
        9_000.0,
    ));
    out.push(OutageEvent {
        id: 0,
        name: "CenturyLink North Carolina outage".into(),
        cause: Cause::IspNetwork(Provider::CenturyLink),
        start: h(2020, 4, 13, 11),
        duration_h: 18,
        states: vec![(State::NC, 0.5), (State::VA, 0.12), (State::SC, 0.12)],
        severity: 8_500.0,
        lags_h: vec![0; 3],
    });

    // ---- Table 2 rows (most extensive), excluding Fastly (above).
    out.push(national_event(
        rng,
        "Akamai DNS misconfiguration",
        Cause::CdnOrCloud(Provider::Akamai),
        h(2021, 7, 22, 14),
        8,
        34,
        11_000.0,
    ));
    out.push(national_event(
        rng,
        "Cloudflare outage",
        Cause::CdnOrCloud(Provider::Cloudflare),
        h(2020, 7, 17, 19),
        6,
        30,
        10_500.0,
    ));
    // Facebook: spikes everywhere, but 22 (less populous, further-west)
    // regions lag behind — the paper attributes this to local-time
    // differences for leisure applications (§4.2).
    {
        let mut by_pop: Vec<State> = State::ALL.to_vec();
        by_pop.sort_by_key(|s| std::cmp::Reverse(population(*s)));
        let mut states = Vec::with_capacity(State::COUNT);
        let mut lags = Vec::with_capacity(State::COUNT);
        for (rank, s) in by_pop.into_iter().enumerate() {
            states.push((s, rng.gen_range(0.25..0.5)));
            if rank < 29 {
                lags.push(0);
            } else {
                // Lag grows westward: one hour per timezone west of
                // Eastern, at least one hour.
                let westness = u32::try_from((-5 - s.division_offset_proxy()).max(1)).unwrap_or(1);
                lags.push(westness);
            }
        }
        out.push(OutageEvent {
            id: 0,
            name: "Facebook global outage".into(),
            cause: Cause::Application(Provider::Facebook),
            start: h(2021, 10, 4, 15),
            duration_h: 7,
            states,
            severity: 12_000.0,
            lags_h: lags,
        });
    }
    out.push(national_event(
        rng,
        "Verizon east-coast outage",
        Cause::IspNetwork(Provider::Verizon),
        h(2021, 1, 26, 16),
        9,
        27,
        9_000.0,
    ));
    out.push(national_event(
        rng,
        "Youtube worldwide outage",
        Cause::Application(Provider::Youtube),
        h(2020, 11, 11, 23),
        5,
        27,
        10_000.0,
    ));
    out.push(national_event(
        rng,
        "AWS us-east outage",
        Cause::CdnOrCloud(Provider::Aws),
        h(2021, 12, 15, 14),
        6,
        26,
        9_000.0,
    ));
    out.push(national_event(
        rng,
        "Comcast nationwide outage",
        Cause::IspNetwork(Provider::Comcast),
        h(2020, 1, 23, 18),
        7,
        25,
        8_500.0,
    ));
    out.push(national_event(
        rng,
        "CenturyLink/Cloudflare outage",
        Cause::IspNetwork(Provider::CenturyLink),
        h(2020, 8, 30, 9),
        7,
        24,
        8_500.0,
    ));

    // ---- Table 3 rows (power, per state) not already present.
    let power = |name: &str,
                 trigger: PowerTrigger,
                 start: Hour,
                 duration_h: u32,
                 state: State,
                 severity: f64| OutageEvent {
        id: 0,
        name: name.to_owned(),
        cause: Cause::Power(trigger),
        start,
        duration_h,
        states: vec![(state, 0.5)],
        severity,
        lags_h: vec![0],
    };
    out.push(power(
        "California heat wave blackouts",
        PowerTrigger::HeatWave,
        h(2020, 9, 6, 18),
        18,
        State::CA,
        9_000.0,
    ));
    out.push(power(
        "Michigan storm flooding",
        PowerTrigger::HeavyRain,
        h(2021, 8, 11, 9),
        15,
        State::MI,
        8_200.0,
    ));
    out.push(power(
        "Washington Pacific Northwest storm",
        PowerTrigger::Storm,
        h(2021, 10, 24, 18),
        13,
        State::WA,
        7_800.0,
    ));
    out.push(power(
        "Colorado severed power line",
        PowerTrigger::SeveredLine,
        h(2021, 7, 22, 14),
        9,
        State::CO,
        7_000.0,
    ));
    out.push(power(
        "Ohio summer storm",
        PowerTrigger::Storm,
        h(2021, 8, 12, 20),
        7,
        State::OH,
        6_500.0,
    ));
    out.push(power(
        "Kentucky tornado outbreak",
        PowerTrigger::Tornado,
        h(2021, 12, 11, 23),
        7,
        State::KY,
        7_800.0,
    ));

    // ---- Fig. 1's second circled spike: the Verizon outage above covers
    // 26 Jan 2021. ---- Fig. 2's walkthrough spike: a Californian power
    // outage taking Spectrum and Metro PCS down, 17 Jul 2020 15:00, 10 h.
    out.push(OutageEvent {
        id: 0,
        name: "San Jose power outage".into(),
        cause: Cause::Power(PowerTrigger::GridFailure),
        start: h(2020, 7, 17, 15),
        duration_h: 10,
        states: vec![(State::CA, 0.035)],
        severity: 6_200.0,
        lags_h: vec![1],
    });

    out
}

/// The Fig. 6 outliers: dense clusters of long power outages during the
/// Aug–Sep 2020 western wildfires/heat events and the Jan–Feb 2021
/// southern winter storms. Each cluster member is a distinct local outage
/// (a different neighbourhood, town or utility), so each yields its own
/// spike.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "small positive counts and clamped durations; float `as` saturates"
)]
fn climate_clusters(rng: &mut ChaCha8Rng, scale: f64) -> Vec<OutageEvent> {
    let mut out = Vec::new();

    struct Cluster {
        name: &'static str,
        year: i32,
        month: u8,
        count: f64,
        states: &'static [(State, f64)],
        triggers: &'static [PowerTrigger],
    }
    let clusters = [
        Cluster {
            name: "western wildfires",
            year: 2020,
            month: 8,
            count: 210.0,
            states: &[
                (State::CA, 0.40),
                (State::OR, 0.16),
                (State::WA, 0.13),
                (State::NV, 0.11),
                (State::ID, 0.10),
                (State::CO, 0.10),
                (State::UT, 0.10),
            ],
            triggers: &[PowerTrigger::Wildfire, PowerTrigger::HeatWave],
        },
        Cluster {
            name: "western wildfires",
            year: 2020,
            month: 9,
            count: 320.0,
            states: &[
                (State::CA, 0.42),
                (State::OR, 0.16),
                (State::WA, 0.13),
                (State::NV, 0.10),
                (State::ID, 0.09),
                (State::CO, 0.05),
                (State::UT, 0.05),
            ],
            triggers: &[PowerTrigger::Wildfire, PowerTrigger::HeatWave],
        },
        Cluster {
            name: "southern cold snap",
            year: 2021,
            month: 1,
            count: 90.0,
            states: &[
                (State::TX, 0.4),
                (State::OK, 0.2),
                (State::AR, 0.15),
                (State::LA, 0.15),
                (State::MS, 0.1),
            ],
            triggers: &[PowerTrigger::WinterStorm, PowerTrigger::Storm],
        },
        Cluster {
            name: "winter storm Uri",
            year: 2021,
            month: 2,
            count: 260.0,
            states: &[
                (State::TX, 0.30),
                (State::OK, 0.11),
                (State::LA, 0.10),
                (State::AR, 0.09),
                (State::MS, 0.08),
                (State::KS, 0.08),
                (State::MO, 0.08),
                (State::TN, 0.08),
                (State::AL, 0.08),
            ],
            triggers: &[PowerTrigger::WinterStorm],
        },
    ];

    for c in &clusters {
        let n = (c.count * scale).round() as usize;
        for _ in 0..n {
            let state = pick_weighted(rng, c.states);
            #[expect(clippy::expect_used, reason = "const cluster tables are non-empty")]
            let trigger = *c.triggers.choose(rng).expect("non-empty triggers");
            // Winter storm Uri concentrated in a single week; wildfire
            // outages spread over their month.
            let day_range = if c.month == 2 { 18..27 } else { 1..28 };
            let day = rng.gen_range(day_range);
            let hour = rng.gen_range(6..23);
            let duration = dist::lognormal_clamped(rng, 7.0, 0.55, 3.0, 22.0) as u32;
            // Climate-cluster outages hit harder than background ones.
            let reach = dist::lognormal_clamped(rng, 650_000.0, 0.9, 80_000.0, 5_000_000.0);
            let (severity, intensity) = reach_to_lift(rng, reach, state);
            out.push(OutageEvent {
                id: 0,
                name: format!("{} local outage", c.name),
                cause: Cause::Power(trigger),
                start: Hour::from_ymdh(c.year, c.month, day, hour),
                duration_h: duration.max(3),
                states: vec![(state, intensity)],
                severity,
                lags_h: vec![0],
            });
        }
    }
    out
}

/// Converts an outage's user reach into the event lift parameters.
///
/// `severity` is the interest proportion lift, in baseline units, of a
/// fully-affected region; `intensity` is the affected fraction of the
/// given region's population (capped — no outage takes a whole state
/// offline). The per-event multiplier models how loudly users react.
fn reach_to_lift(rng: &mut ChaCha8Rng, reach: f64, state: State) -> (f64, f64) {
    // Search propensity of affected users over the baseline proportion:
    // at full intensity the topic occupies ~2% of the region's searches.
    const PROPENSITY_OVER_BASELINE: f64 = 10_000.0;
    let loudness = dist::lognormal_clamped(rng, 1.0, 0.4, 0.35, 3.0);
    let severity = PROPENSITY_OVER_BASELINE * loudness;
    let intensity = (reach / population(state) as f64).min(0.7);
    (severity, intensity)
}

#[expect(clippy::expect_used, reason = "callers pass const weight tables")]
fn pick_weighted(rng: &mut ChaCha8Rng, weights: &[(State, f64)]) -> State {
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0.0..total);
    for (s, w) in weights {
        x -= w;
        if x <= 0.0 {
            return *s;
        }
    }
    weights.last().expect("non-empty weights").0
}

/// Hour-of-day weighting of outage *onsets* (local time): failures are
/// noticed — and to a degree caused — during waking hours.
const ONSET_DIURNAL: [f64; 24] = [
    0.45, 0.35, 0.3, 0.3, 0.35, 0.5, 0.7, 0.95, 1.15, 1.3, 1.35, 1.35, 1.3, 1.3, 1.3, 1.3, 1.35,
    1.4, 1.45, 1.45, 1.35, 1.15, 0.85, 0.6,
];

/// Weekday weighting of outage onsets: the paper observes fewer outages on
/// weekends and conjectures less service-side human error (Fig. 4).
fn weekday_weight(w: Weekday) -> f64 {
    match w {
        Weekday::Sat => 0.72,
        Weekday::Sun => 0.68,
        _ => 1.0,
    }
}

/// Monthly weighting of *power* outage onsets: summer convective storms
/// and winter weather both elevate rates.
fn power_month_weight(m: Month) -> f64 {
    match m {
        Month::Jun | Month::Jul | Month::Aug => 1.35,
        Month::Dec | Month::Jan | Month::Feb => 1.15,
        Month::Mar | Month::Apr | Month::May => 1.0,
        _ => 0.95,
    }
}

/// The ~54 000 ordinary outages of the study period.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "small positive counts and clamped durations; float `as` saturates"
)]
fn background_events(rng: &mut ChaCha8Rng, scale: f64) -> Vec<OutageEvent> {
    let mut out = Vec::new();
    if scale <= 0.0 {
        return out;
    }

    // State selection weights: population with a mildly super-linear
    // exponent (infrastructure density compounds), which lands the
    // top-10 share near the paper's 51 %.
    let weights: Vec<(State, f64)> = State::ALL
        .iter()
        .map(|s| (*s, (population(*s) as f64).powf(1.1)))
        .collect();

    for (year_idx, (year, base_count)) in [(2020, BACKGROUND_2020), (2021, BACKGROUND_2021)]
        .iter()
        .enumerate()
    {
        let n = (base_count * scale).round() as usize;
        let power_frac = POWER_FRAC[year_idx];
        let year_start = Hour::from_ymdh(*year, 1, 1, 0);
        let year_hours = if *year == 2020 { 366 * 24 } else { 365 * 24 };

        for _ in 0..n {
            let state = pick_weighted(rng, &weights);
            let cause = sample_cause(rng, power_frac);

            // Rejection-sample the onset hour against the weekday, local
            // hour-of-day and (for power events) seasonal weights.
            let start = loop {
                let cand = year_start + rng.gen_range(0..year_hours);
                let local = cand.to_local(state_std_offset(state));
                let mut w = ONSET_DIURNAL[usize::from(local.hour_of_day())] / 1.45;
                w *= weekday_weight(local.weekday());
                if matches!(cause, Cause::Power(_)) {
                    w *= power_month_weight(cand.month()) / 1.35;
                }
                if rng.gen::<f64>() < w {
                    break cand;
                }
            };

            let duration_h = match cause {
                Cause::Power(_) => dist::lognormal_clamped(rng, 1.15, 0.8, 1.0, 24.0),
                _ => dist::lognormal_clamped(rng, 0.9, 0.45, 1.0, 12.0),
            }
            .round()
            .max(1.0) as u32;

            // Reach: how many users the outage affects. Interest lift
            // follows from reach as a fraction of the state's population,
            // so an equally-sized outage is *more* visible in a small
            // state — which is exactly how per-region normalization works
            // on the real service.
            let reach = dist::lognormal_clamped(rng, 400_000.0, 1.0, 60_000.0, 6_000_000.0);
            let (severity, intensity) = reach_to_lift(rng, reach, state);

            // Mostly single-state; occasionally a regional event spills
            // into division neighbours.
            let mut states = vec![(state, intensity)];
            let spill: f64 = rng.gen();
            if spill > 0.92 {
                let mut neighbors = state.division_neighbors();
                neighbors.shuffle(rng);
                let extra = if spill > 0.98 {
                    rng.gen_range(3..=5)
                } else {
                    rng.gen_range(1..=2)
                };
                for n in neighbors.into_iter().take(extra) {
                    let (_, spill_intensity) = reach_to_lift(rng, reach * 0.4, n);
                    states.push((n, spill_intensity));
                }
            }
            let lags = vec![0; states.len()];

            out.push(OutageEvent {
                id: 0,
                name: format!("background {} outage", cause.label()),
                cause,
                start,
                duration_h,
                states,
                severity,
                lags_h: lags,
            });
        }
    }
    out
}

#[expect(clippy::expect_used, reason = "const provider tables are non-empty")]
fn sample_cause(rng: &mut ChaCha8Rng, power_frac: f64) -> Cause {
    let x: f64 = rng.gen();
    if x < power_frac {
        let trigger = *[
            PowerTrigger::Storm,
            PowerTrigger::Storm,
            PowerTrigger::GridFailure,
            PowerTrigger::HeavyRain,
            PowerTrigger::SeveredLine,
            PowerTrigger::HeatWave,
            PowerTrigger::WinterStorm,
        ]
        .choose(rng)
        .expect("non-empty");
        Cause::Power(trigger)
    } else if x < power_frac + MOBILE_FRAC {
        Cause::MobileCarrier(*Provider::MOBILE.choose(rng).expect("non-empty"))
    } else if x < power_frac + MOBILE_FRAC + APP_FRAC {
        Cause::Application(*Provider::APPS.choose(rng).expect("non-empty"))
    } else if x < power_frac + MOBILE_FRAC + APP_FRAC + CDN_FRAC {
        Cause::CdnOrCloud(*Provider::CDN_CLOUD.choose(rng).expect("non-empty"))
    } else {
        Cause::IspNetwork(*Provider::ISPS.choose(rng).expect("non-empty"))
    }
}

/// Standard-time UTC offset used for onset local-time weighting. Kept
/// private to the generator: analysis code uses the DST-aware
/// `sift_geo::utc_offset`.
fn state_std_offset(s: State) -> i32 {
    sift_geo::utc_offset(s, Hour::from_ymdh(2020, 1, 15, 0))
}

/// Proxy for "how far west" a region is, used only for Facebook lag
/// synthesis; implemented on `State` here to keep `sift-geo` free of
/// scenario concerns.
trait DivisionOffsetProxy {
    fn division_offset_proxy(&self) -> i32;
}

impl DivisionOffsetProxy for State {
    fn division_offset_proxy(&self) -> i32 {
        state_std_offset(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_simtime::STUDY_RANGE;

    fn full() -> Scenario {
        Scenario::generate(ScenarioParams {
            background_scale: 0.05,
            ..ScenarioParams::default()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = full();
        let b = full();
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(b.events.iter()) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.name, y.name);
            assert_eq!(x.duration_h, y.duration_h);
        }
    }

    #[test]
    fn events_sorted_and_in_study_window() {
        let s = full();
        let mut prev = Hour(i64::MIN);
        for e in &s.events {
            assert!(e.start >= prev);
            prev = e.start;
            assert!(STUDY_RANGE.contains(e.start), "{:?}", e.start);
            assert!(e.duration_h >= 1);
            assert!(!e.states.is_empty());
            assert_eq!(e.states.len(), e.lags_h.len());
            for (_, w) in &e.states {
                assert!(*w > 0.0 && *w <= 1.0);
            }
        }
    }

    #[test]
    fn named_events_present() {
        let s = full();
        let named = |prefix: &str| s.events.iter().find(|e| e.name.starts_with(prefix));
        let storm = named("Texas winter storm").expect("storm exists");
        assert_eq!(storm.duration_h, 45);
        assert_eq!(storm.start, Hour::from_ymdh(2021, 2, 15, 10));
        assert!(storm.is_power());

        let akamai = named("Akamai").expect("akamai exists");
        assert_eq!(akamai.states.len(), 34);
        assert!(!akamai.cause.affects_reachability());

        let fb = named("Facebook").expect("facebook exists");
        assert_eq!(fb.states.len(), State::COUNT);
        let lagged = fb.lags_h.iter().filter(|l| **l > 0).count();
        assert_eq!(lagged, 22, "22 regions lag (paper §4.2)");
    }

    #[test]
    fn background_counts_scale() {
        let small = Scenario::generate(ScenarioParams {
            background_scale: 0.01,
            include_named: false,
            include_clusters: false,
            ..ScenarioParams::default()
        });
        let expected = ((BACKGROUND_2020 + BACKGROUND_2021) * 0.01) as usize;
        let got = small.events.len();
        assert!(
            (got as i64 - expected as i64).abs() <= 2,
            "expected ~{expected}, got {got}"
        );
    }

    #[test]
    fn weekend_onsets_are_rarer() {
        let s = Scenario::generate(ScenarioParams {
            background_scale: 0.2,
            include_named: false,
            include_clusters: false,
            ..ScenarioParams::default()
        });
        let mut by_day = [0usize; 7];
        for e in &s.events {
            by_day[e.start.weekday().index()] += 1;
        }
        let weekday_avg = by_day[..5].iter().sum::<usize>() as f64 / 5.0;
        let weekend_avg = by_day[5..].iter().sum::<usize>() as f64 / 2.0;
        assert!(
            weekend_avg < weekday_avg * 0.9,
            "weekend {weekend_avg} vs weekday {weekday_avg}"
        );
    }

    #[test]
    fn top_states_dominate() {
        let s = Scenario::generate(ScenarioParams {
            background_scale: 0.2,
            include_named: false,
            include_clusters: false,
            ..ScenarioParams::default()
        });
        let mut counts = vec![0usize; State::COUNT];
        for e in &s.events {
            for (st, _) in &e.states {
                counts[st.index()] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts[..10].iter().sum();
        let share = top10 as f64 / total as f64;
        assert!(
            (0.42..0.60).contains(&share),
            "top-10 share {share} out of calibration band"
        );
    }

    #[test]
    fn region_restriction_trims_events() {
        let s = Scenario::generate(ScenarioParams {
            background_scale: 0.02,
            regions: vec![State::TX],
            ..ScenarioParams::default()
        });
        for e in &s.events {
            assert_eq!(e.states.len(), 1);
            assert_eq!(e.states[0].0, State::TX);
        }
        assert!(s
            .events
            .iter()
            .any(|e| e.name.starts_with("Texas winter storm")));
    }

    #[test]
    fn event_index_handles_empty_and_out_of_range() {
        let empty = Scenario::single_region(State::CA, vec![]);
        let idx = empty.build_index();
        assert!(idx
            .candidates(HourRange::new(Hour(0), Hour(100)))
            .is_empty());

        let one = Scenario::single_region(
            State::CA,
            vec![OutageEvent {
                id: 7,
                name: "x".into(),
                cause: Cause::Power(PowerTrigger::Storm),
                start: Hour(500),
                duration_h: 5,
                states: vec![(State::CA, 0.1)],
                severity: 9_000.0,
                lags_h: vec![0],
            }],
        );
        let idx = one.build_index();
        assert_eq!(
            idx.candidates(HourRange::new(Hour(480), Hour(520))),
            vec![0]
        );
        // Windows far outside the indexed span clamp safely (no panic).
        let _ = idx.candidates(HourRange::new(Hour(-10_000), Hour(-9_000)));
        let far = idx.candidates(HourRange::new(Hour(1_000_000), Hour(1_000_100)));
        assert!(far.len() <= 1);
        assert!(idx.candidates(HourRange::new(Hour(0), Hour(0))).is_empty());
    }

    /// Brute force over random windows: `candidates` never misses an
    /// event that meets the window and is the union of the per-state
    /// queries, and `in_state` returns exactly its state's pairs filed
    /// under the window's (clamped) buckets, ascending.
    #[test]
    fn event_index_matches_brute_force() {
        let s = full();
        let idx = s.build_index();
        let bucket = |h: i64| h.div_euclid(EVENT_INDEX_BUCKET_H);
        // Every (event, position) pair with its state and bucket span, in
        // event order.
        let spans: Vec<((u32, u32), State, i64, i64)> = s
            .events
            .iter()
            .enumerate()
            .flat_map(|(k, e)| {
                e.states.iter().enumerate().map(move |(i, (state, _))| {
                    let w = e.window_in(i);
                    let pair = (k as u32, i as u32);
                    (pair, *state, bucket(w.start.0), bucket(w.end.0 - 1))
                })
            })
            .collect();
        let first = bucket(s.events[0].start.0);
        let last = spans.iter().map(|span| span.3).max().expect("events");
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..200 {
            let len = rng.gen_range(1..=168i64);
            let from = first * EVENT_INDEX_BUCKET_H - 400;
            let to = (last + 1) * EVENT_INDEX_BUCKET_H + 400;
            let w = HourRange::with_len(Hour(rng.gen_range(from..to)), len);

            let candidates = idx.candidates(w);
            for (k, e) in s.events.iter().enumerate() {
                if (0..e.states.len()).any(|i| e.window_in(i).overlaps(&w)) {
                    assert!(candidates.contains(&(k as u32)), "{w:?} misses {}", e.name);
                }
            }

            let (lo, hi) = (
                bucket(w.start.0).clamp(first, last),
                bucket(w.end.0 - 1).clamp(first, last),
            );
            let mut expected = vec![Vec::new(); State::COUNT];
            for (pair, state, from, to) in &spans {
                if *from <= hi && *to >= lo {
                    expected[state.index()].push(*pair);
                }
            }
            let mut union = Vec::new();
            for state in State::ALL {
                let pairs = idx.in_state(state, w);
                assert_eq!(pairs, expected[state.index()], "{state:?} {w:?}");
                union.extend(pairs.iter().map(|(k, _)| *k));
            }
            union.sort_unstable();
            union.dedup();
            assert_eq!(candidates, union, "{w:?}");
        }
    }

    #[test]
    fn single_region_scenario_for_tests() {
        let e = OutageEvent {
            id: 7,
            name: "x".into(),
            cause: Cause::Power(PowerTrigger::Storm),
            start: Hour(50),
            duration_h: 5,
            states: vec![(State::CA, 1.0)],
            severity: 10.0,
            lags_h: vec![0],
        };
        let s = Scenario::single_region(State::CA, vec![e]);
        assert_eq!(s.events.len(), 1);
    }
}
