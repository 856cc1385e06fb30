//! Integration: headline distribution shapes on a thinned version of the
//! full two-year world. These are the coarse "who wins, which way does it
//! lean" checks; exact paper-vs-measured numbers live in EXPERIMENTS.md.

use sift::core::{
    assemble_study, context, impact, plan_frames, run_region_study, run_study, StudyParams,
};
use sift::geo::State;
use sift::simtime::Hour;
use sift::trends::{Scenario, ScenarioParams, TrendsService};

fn thinned_service() -> TrendsService {
    let scenario = Scenario::generate(ScenarioParams {
        background_scale: 0.15,
        ..ScenarioParams::default()
    });
    TrendsService::with_defaults(scenario)
}

fn thinned_study() -> sift::core::StudyResult {
    let service = thinned_service();
    let params = StudyParams {
        regions: vec![
            State::TX,
            State::CA,
            State::NY,
            State::FL,
            State::OH,
            State::WY,
        ],
        threads: 6,
        daily_rising: false,
        ..StudyParams::default()
    };
    run_study(&service, &params).expect("study")
}

#[test]
fn headline_shapes_hold() {
    let result = thinned_study();
    let spikes = result.bare_spikes();
    assert!(spikes.len() > 500, "enough spikes to be meaningful");

    // Durations: the vast majority of spikes are short.
    let long_share = impact::share_at_least(&spikes, 3);
    assert!(
        (0.02..0.30).contains(&long_share),
        "share of >=3h spikes out of band: {long_share}"
    );

    // Weekend dip (Fig. 4).
    let (weekday, weekend) = impact::weekend_dip(&spikes);
    assert!(
        weekend < weekday,
        "weekends must see fewer outages: {weekend} vs {weekday}"
    );

    // Big states host more spikes than small ones (Fig. 3 left).
    let count = |s: State| spikes.iter().filter(|x| x.state == s).count();
    assert!(count(State::CA) > 5 * count(State::WY));

    // The winter storm is Texas's longest spike and power-annotated
    // (Table 1 / Fig. 1).
    let storm_hour = Hour::from_ymdh(2021, 2, 15, 20);
    let tx_longest = result
        .spikes
        .iter()
        .filter(|a| a.spike.state == State::TX)
        .max_by_key(|a| a.spike.duration_h())
        .expect("TX spikes exist");
    assert!(
        tx_longest.spike.window().contains(storm_hour),
        "TX's longest spike must be the winter storm: {:?}",
        tx_longest.spike
    );
    assert!(tx_longest.power_annotated());
    assert!(tx_longest.spike.duration_h() >= 30);

    // Power outage is a global heavy hitter (§4.3: ninth most popular
    // suggestion overall; dominant among long spikes).
    assert!(
        result
            .heavy_hitters
            .iter()
            .any(|(t, _)| t.contains("power outage")),
        "heavy hitters: {:?}",
        result.heavy_hitters
    );
}

/// The global phase annotates each distinct suggestion list once and
/// hands every spike a copy; each copy must be what annotating that
/// spike alone gives, at any thread count.
#[test]
fn assembled_annotations_are_each_spikes_own() {
    let service = thinned_service();
    let mut params = StudyParams {
        regions: vec![State::TX, State::CA],
        ..StudyParams::default()
    };
    let plan = plan_frames(params.range, params.plan);
    let regions: Vec<_> = params
        .regions
        .iter()
        .map(|&state| {
            run_region_study(&service, &params, &plan.frames, state, None).expect("region runs")
        })
        .collect();
    let gathered: Vec<_> = regions.iter().flat_map(|r| r.spikes.clone()).collect();
    let repeats = gathered
        .iter()
        .enumerate()
        .filter(|(i, (_, list))| gathered[..*i].iter().any(|(_, earlier)| earlier == list))
        .count();
    assert!(repeats > 0, "some spikes share a suggestion list");

    for threads in [1, 3] {
        params.threads = threads;
        let result = assemble_study(&params, regions.clone(), false);
        assert_eq!(result.spikes.len(), gathered.len());
        for got in &result.spikes {
            let (spike, list) = gathered
                .iter()
                .find(|(s, _)| *s == got.spike)
                .expect("annotated spike was gathered");
            let want = context::annotate(*spike, list, &result.heavy_hitters, &params.context);
            assert_eq!(
                got.annotations, want.annotations,
                "threads {threads}: {spike:?}"
            );
        }
    }
}
