//! Quick calibration probe: run the full two-year study on a few regions
//! and report spike statistics, to tune the world model against the
//! paper's headline numbers before running the full experiments.

use sift_core::{impact, run_study, StudyParams};
use sift_geo::State;
use sift_trends::{Scenario, ServiceConfig, TrendsService};

fn main() {
    let world_span = sift_obs::span("world");
    // The full two-year US world (the paper's study setting).
    let service = TrendsService::new(Scenario::us_2020_2021(), ServiceConfig::default());
    eprintln!(
        "world built in {:?} ({} events)",
        world_span.elapsed(),
        service.ground_truth().events.len()
    );
    drop(world_span);

    let regions = vec![State::TX, State::CA, State::WY, State::OH];
    let params = StudyParams {
        regions: regions.clone(),
        threads: 4,
        daily_rising: false,
        ..StudyParams::default()
    };
    let study_span = sift_obs::span("study");
    let result = run_study(&service, &params).expect("study");
    eprintln!(
        "study ran in {:?}: {} spikes, {} clusters, {} frames requested, {} rising requested",
        study_span.elapsed(),
        result.spikes.len(),
        result.clusters.len(),
        result.stats.frames_requested,
        result.stats.rising_requested
    );
    drop(study_span);
    eprint!("stage timings:\n{}", result.stats.telemetry);

    let spikes = result.bare_spikes();
    for state in &regions {
        let n = spikes.iter().filter(|s| s.state == *state).count();
        let long = spikes
            .iter()
            .filter(|s| s.state == *state && s.duration_h() >= 3)
            .count();
        eprintln!("  {state}: {n} spikes, {long} >=3h");
    }
    eprintln!("share >=3h: {:.3}", impact::share_at_least(&spikes, 3));
    eprintln!("share >=5h: {:.3}", impact::share_at_least(&spikes, 5));
    let by_year = impact::count_by_year(&spikes);
    eprintln!("by year: {by_year:?}");
    let (wd, we) = impact::weekend_dip(&spikes);
    eprintln!("weekday avg {wd:.2}% weekend avg {we:.2}%");
    // Biggest TX spikes:
    let mut tx: Vec<_> = spikes.iter().filter(|s| s.state == State::TX).collect();
    tx.sort_by_key(|s| std::cmp::Reverse(s.duration_h()));
    for s in tx.iter().take(5) {
        eprintln!(
            "  TX top: start {} dur {} mag {:.1}",
            s.start,
            s.duration_h(),
            s.magnitude
        );
    }
    let rounds: Vec<_> = result
        .stats
        .rounds_by_state
        .iter()
        .map(|(s, r)| format!("{s}:{r}"))
        .collect();
    eprintln!("rounds: {}", rounds.join(" "));
}
