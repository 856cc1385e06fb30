//! The round-based probing engine and its fast closed form.

use crate::address::{AddressPopulation, BlockProfile};
use crate::dataset::{OutageRecord, ProbeDataset};
use crate::infer::{BlockInference, InferenceParams};
use crate::vantage::{vantage_points, VantagePoint};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sift_geo::GeoDb;
use sift_simtime::HourRange;
use sift_trends::events::OutageEvent;
use sift_trends::Scenario;

/// Probing configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// Seed of the probing randomness.
    pub seed: u64,
    /// Addresses probed per block per round.
    pub probes_per_round: u32,
    /// Round length in minutes (the ANT dataset: eleven-minute slots).
    pub round_minutes: u32,
    /// Response-rate multiplier while a block's network is down. Not
    /// exactly zero: some CPE answers from battery or partial paths.
    pub down_response_factor: f64,
    /// Inference thresholds.
    pub infer: InferenceParams,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            seed: 0xA47,
            probes_per_round: 16,
            round_minutes: 11,
            down_response_factor: 0.01,
            infer: InferenceParams::default(),
        }
    }
}

/// The probing engine.
pub struct Prober<'a> {
    config: ProbeConfig,
    population: &'a AddressPopulation,
    geodb: &'a GeoDb,
}

impl<'a> Prober<'a> {
    /// A prober over a population with a geolocation database.
    pub fn new(config: ProbeConfig, population: &'a AddressPopulation, geodb: &'a GeoDb) -> Self {
        Prober {
            config,
            population,
            geodb,
        }
    }

    /// Deterministically decides whether a block participates in an
    /// event: a fraction `intensity` of the state's blocks goes down.
    fn block_affected(
        seed: u64,
        block: &BlockProfile,
        event: &OutageEvent,
        intensity: f64,
    ) -> bool {
        let h = mix(seed ^ u64::from(block.prefix.0) ^ (u64::from(event.id) << 32));
        (h >> 11) as f64 / (1u64 << 53) as f64 <= intensity
    }

    /// Events that can take this block down, with their per-block verdict
    /// and hour windows.
    fn down_windows(&self, scenario: &Scenario, block: &BlockProfile) -> Vec<HourRange> {
        let mut out = Vec::new();
        for e in &scenario.events {
            if !e.cause.affects_reachability() {
                continue;
            }
            for (i, (s, intensity)) in e.states.iter().enumerate() {
                if *s == block.state && Self::block_affected(self.config.seed, block, e, *intensity)
                {
                    out.push(e.window_in(i));
                }
            }
        }
        out
    }

    /// Runs the full round-by-round simulation over `window`.
    ///
    /// Exact but O(blocks × rounds); use [`Prober::synthesize`] for
    /// multi-month windows.
    #[expect(clippy::expect_used, reason = "geo db and population share a plan")]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        reason = "round numbers count the rounds of one window: small and non-negative"
    )]
    pub fn run(&self, scenario: &Scenario, window: HourRange) -> ProbeDataset {
        let vps = vantage_points();
        let rounds = (window.len() * 60 / i64::from(self.config.round_minutes)) as u64;
        let mut records = Vec::new();

        for block in self.population.wired_blocks() {
            let down_windows = self.down_windows(scenario, block);
            let mut rng = ChaCha8Rng::seed_from_u64(
                self.config.seed ^ u64::from(block.prefix.0).wrapping_mul(0x9e37_79b9),
            );
            let mut inference = BlockInference::new(self.config.infer);

            for round in 0..rounds {
                let minute =
                    window.start.0 * 60 + round as i64 * i64::from(self.config.round_minutes);
                let hour = sift_simtime::Hour(minute.div_euclid(60));
                let down = down_windows.iter().any(|w| w.contains(hour));
                let vp: &VantagePoint = &vps[(round as usize) % vps.len()];
                let rate = block.response_rate
                    * (1.0 - vp.path_loss)
                    * if down {
                        self.config.down_response_factor
                    } else {
                        1.0
                    };
                let mut responses = 0u64;
                for _ in 0..self.config.probes_per_round {
                    if rng.gen::<f64>() < rate {
                        responses += 1;
                    }
                }
                inference.observe(responses);
            }
            inference.finish();

            let located = self
                .geodb
                .locate(block.prefix)
                .expect("population prefixes are in the plan");
            for (start_round, end_round) in &inference.outages {
                let start_minute = window.start.0 * 60
                    + *start_round as i64 * i64::from(self.config.round_minutes);
                let duration = u32::try_from(end_round - start_round).unwrap_or(u32::MAX)
                    * self.config.round_minutes;
                records.push(OutageRecord {
                    prefix: block.prefix,
                    located_state: located,
                    start_minute,
                    duration_minutes: duration,
                    cause_event: None,
                });
            }
        }
        ProbeDataset::new(records)
    }

    /// Event-driven closed form of [`Prober::run`] for long windows.
    ///
    /// Instead of simulating every round, it walks the ground-truth
    /// events: each probe-visible event knocks out its deterministic
    /// subset of blocks, which (given the healthy response rates and
    /// inference thresholds) are detected after the expected
    /// `down_rounds` rounds with near-certainty; misses happen for events
    /// shorter than the detection horizon. Statistically equivalent to
    /// the exact engine on the same world — the equivalence is asserted
    /// by an integration test over a short window.
    pub fn synthesize(&self, scenario: &Scenario, window: HourRange) -> ProbeDataset {
        let round_m = i64::from(self.config.round_minutes);
        let horizon_rounds = i64::from(self.config.infer.down_rounds);
        let mut records = Vec::new();

        // Event-major iteration: each probe-visible event only touches the
        // wired blocks of its own regions, so a two-year national world
        // costs Σ(events × state blocks), not blocks × events.
        for e in &scenario.events {
            if !e.cause.affects_reachability() {
                continue;
            }
            for (i, (state, intensity)) in e.states.iter().enumerate() {
                let w = e.window_in(i);
                let Some(overlap) = w.intersect(&window) else {
                    continue;
                };
                for block in self.population.wired_blocks_of(*state) {
                    if !Self::block_affected(self.config.seed, block, e, *intensity) {
                        continue;
                    }
                    #[expect(clippy::expect_used, reason = "geo db and population share a plan")]
                    let located = self
                        .geodb
                        .locate(block.prefix)
                        .expect("population prefixes are in the plan");
                    let mut rng = ChaCha8Rng::seed_from_u64(
                        self.config.seed
                            ^ u64::from(block.prefix.0).wrapping_mul(0x51F7)
                            ^ (u64::from(e.id) << 17),
                    );
                    let outage_minutes = overlap.len() * 60;
                    // Detection needs the block silent for the full
                    // horizon.
                    let detect_delay_m = horizon_rounds * round_m;
                    if outage_minutes <= detect_delay_m {
                        continue; // too short for the belief to flip
                    }
                    // Phase of the first probing round inside the outage.
                    let phase = rng.gen_range(0..round_m);
                    let start_minute = overlap.start.0 * 60 + phase + detect_delay_m - round_m;
                    let clamped = (outage_minutes - phase - detect_delay_m + round_m).max(round_m);
                    let duration = u32::try_from(clamped).unwrap_or(u32::MAX);
                    records.push(OutageRecord {
                        prefix: block.prefix,
                        located_state: located,
                        start_minute,
                        duration_minutes: duration,
                        cause_event: Some(e.id),
                    });
                }
            }
        }
        ProbeDataset::new(records)
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::PopulationMix;
    use rand::SeedableRng;
    use sift_geo::{AddressPlan, State};
    use sift_simtime::Hour;
    use sift_trends::events::{Cause, PowerTrigger};
    use sift_trends::terms::Provider;

    fn world() -> (AddressPopulation, GeoDb, AddressPlan) {
        let plan = AddressPlan::proportional(600);
        let pop = AddressPopulation::new(&plan, PopulationMix::default(), 3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let db = GeoDb::from_plan(&plan, 0.0, &mut rng);
        (pop, db, plan)
    }

    fn event(cause: Cause, start: i64, duration: u32, state: State, intensity: f64) -> OutageEvent {
        OutageEvent {
            id: 1,
            name: "e".into(),
            cause,
            start: Hour(start),
            duration_h: duration,
            states: vec![(state, intensity)],
            severity: 9000.0,
            lags_h: vec![0],
        }
    }

    #[test]
    fn network_outage_is_detected() {
        let (pop, db, _plan) = world();
        let scenario = Scenario::single_region(
            State::CA,
            vec![event(
                Cause::Power(PowerTrigger::Storm),
                4,
                6,
                State::CA,
                0.8,
            )],
        );
        let prober = Prober::new(ProbeConfig::default(), &pop, &db);
        let ds = prober.run(&scenario, HourRange::new(Hour(0), Hour(16)));
        assert!(!ds.is_empty(), "outage must appear in the dataset");
        // Records geolocate to CA and overlap the event.
        let window = HourRange::new(Hour(4), Hour(10));
        assert!(ds.match_count(&window, &[State::CA]) > 0);
        // Starts are within the event, allowing the detection horizon.
        for r in &ds.records {
            assert!(r.start_minute >= 4 * 60);
            assert!(r.start_minute < 10 * 60 + 60);
        }
    }

    #[test]
    fn application_outage_is_invisible() {
        let (pop, db, _plan) = world();
        let scenario = Scenario::single_region(
            State::CA,
            vec![event(
                Cause::Application(Provider::Youtube),
                4,
                6,
                State::CA,
                0.9,
            )],
        );
        let prober = Prober::new(ProbeConfig::default(), &pop, &db);
        let ds = prober.run(&scenario, HourRange::new(Hour(0), Hour(16)));
        assert!(
            ds.is_empty(),
            "application outages leave hosts pingable: {ds:?}"
        );
    }

    #[test]
    fn mobile_outage_is_invisible() {
        let (pop, db, _plan) = world();
        let scenario = Scenario::single_region(
            State::CA,
            vec![event(
                Cause::MobileCarrier(Provider::TMobile),
                4,
                6,
                State::CA,
                0.9,
            )],
        );
        let prober = Prober::new(ProbeConfig::default(), &pop, &db);
        let ds = prober.run(&scenario, HourRange::new(Hour(0), Hour(16)));
        assert!(ds.is_empty(), "mobile space answers no probes: {ds:?}");
    }

    #[test]
    fn intensity_scales_affected_blocks() {
        let (pop, db, _plan) = world();
        let prober = Prober::new(ProbeConfig::default(), &pop, &db);
        let count_at = |intensity: f64| {
            let scenario = Scenario::single_region(
                State::CA,
                vec![event(
                    Cause::IspNetwork(Provider::Comcast),
                    4,
                    8,
                    State::CA,
                    intensity,
                )],
            );
            prober
                .run(&scenario, HourRange::new(Hour(0), Hour(16)))
                .len()
        };
        let low = count_at(0.2);
        let high = count_at(0.9);
        assert!(
            high > low * 2,
            "higher intensity must take down more blocks: {low} vs {high}"
        );
    }

    #[test]
    fn synthesize_matches_run_statistically() {
        let (pop, db, _plan) = world();
        let scenario = Scenario::single_region(
            State::CA,
            vec![event(
                Cause::Power(PowerTrigger::Storm),
                4,
                8,
                State::CA,
                0.6,
            )],
        );
        let prober = Prober::new(ProbeConfig::default(), &pop, &db);
        let window = HourRange::new(Hour(0), Hour(20));
        let exact = prober.run(&scenario, window);
        let fast = prober.synthesize(&scenario, window);
        assert!(!exact.is_empty() && !fast.is_empty());
        // Same affected-block universe: counts agree closely (the exact
        // engine can add/miss a couple through probe luck).
        let ratio = fast.len() as f64 / exact.len() as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "exact {} vs fast {}",
            exact.len(),
            fast.len()
        );
        // Durations similar in aggregate.
        let mean = |ds: &ProbeDataset| {
            ds.records
                .iter()
                .map(|r| f64::from(r.duration_minutes))
                .sum::<f64>()
                / ds.len() as f64
        };
        let (me, mf) = (mean(&exact), mean(&fast));
        assert!(
            (me - mf).abs() < 90.0,
            "mean durations diverge: exact {me} vs fast {mf}"
        );
    }

    #[test]
    fn geolocation_errors_shift_some_records() {
        let plan = AddressPlan::proportional(600);
        let pop = AddressPopulation::new(&plan, PopulationMix::default(), 3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let db = GeoDb::from_plan(&plan, 0.25, &mut rng);
        let scenario = Scenario::single_region(
            State::CA,
            vec![event(
                Cause::Power(PowerTrigger::Storm),
                4,
                8,
                State::CA,
                0.9,
            )],
        );
        let prober = Prober::new(ProbeConfig::default(), &pop, &db);
        let ds = prober.run(&scenario, HourRange::new(Hour(0), Hour(16)));
        let misplaced = ds
            .records
            .iter()
            .filter(|r| r.located_state != State::CA)
            .count();
        assert!(
            misplaced > 0,
            "a lossy geolocation database must misplace some records"
        );
        assert!(misplaced * 2 < ds.len(), "but not most of them");
    }
}
