//! The experiments harness: regenerates every table and figure of the
//! paper's evaluation from the simulated world.
//!
//! ```text
//! cargo run --release -p sift-bench --bin experiments            # everything
//! cargo run --release -p sift-bench --bin experiments -- --only fig3,tab1
//! cargo run --release -p sift-bench --bin experiments -- --quick # thinned world
//! cargo run --release -p sift-bench --bin experiments -- --quick --only none \
//!     --trace-out target/study-trace.json  # record the study's trace tree
//! ```
//!
//! `--trace-out <path>` records the study's trace (its root is opened
//! with `sift_obs::span_recorded`; without the flag nothing is recorded)
//! and writes it as Chrome trace-event JSON, loadable in Perfetto.
//!
//! Output is organised per experiment id (fig1..fig6, tab1..tab3, stats,
//! truth, ant, lag, ablation); EXPERIMENTS.md records
//! paper-vs-measured for each.

use sift_core::context::AnnotatedSpike;
use sift_core::detect::Spike;
use sift_core::study::drill_down_days;
use sift_core::{area, impact, report, run_study, StudyParams, StudyResult};
use sift_geo::{AddressPlan, GeoDb, State};
use sift_probe::address::PopulationMix;
use sift_probe::{cross_validate, AddressPopulation, ProbeConfig, Prober};
use sift_simtime::{format_day, format_spike_time, Hour, HourRange, Month, Weekday, STUDY_RANGE};
use sift_trends::{Scenario, ScenarioParams, ServiceConfig, TrendsService};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

struct Args {
    scale: f64,
    only: Option<HashSet<String>>,
    threads: usize,
    daily_rising: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        only: None,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8),
        daily_rising: true,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale <f64>");
            }
            "--only" => {
                let ids = it.next().expect("--only <id,id,...>");
                args.only = Some(ids.split(',').map(str::to_owned).collect());
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads <n>");
            }
            "--quick" => {
                args.scale = 0.25;
                args.daily_rising = false;
            }
            "--trace-out" => {
                args.trace_out = Some(it.next().expect("--trace-out <path>").into());
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let wants = |id: &str| args.only.as_ref().map_or(true, |set| set.contains(id));

    let total_span = sift_obs::span("experiments");
    let world_span = sift_obs::span("world");
    let scenario = Scenario::generate(ScenarioParams {
        background_scale: args.scale,
        ..ScenarioParams::default()
    });
    let service = TrendsService::new(scenario, ServiceConfig::default());
    eprintln!(
        "# world: {} ground-truth events ({:.1?})",
        service.ground_truth().events.len(),
        world_span.elapsed()
    );
    drop(world_span);

    // The study gets its own trace root (not a child of "experiments"),
    // so its tree completes — and can be exported and profiled — as soon
    // as the last region worker closes, independent of the rest of main.
    // Only `--trace-out` reads the tree, so only then is it recorded.
    let study_span = if args.trace_out.is_some() {
        sift_obs::span_recorded("bench")
    } else {
        sift_obs::span_root("bench")
    };
    let study_trace_id = study_span.context().trace_id;
    let params = StudyParams {
        threads: args.threads,
        daily_rising: args.daily_rising,
        ..StudyParams::default()
    };
    let result = run_study(&service, &params).expect("study");
    eprintln!(
        "# study: {} spikes, {} clusters, {} frames + {} rising requests ({:.1?})",
        result.spikes.len(),
        result.clusters.len(),
        result.stats.frames_requested,
        result.stats.rising_requested,
        study_span.elapsed()
    );
    drop(study_span);
    eprint!("# stage timings:\n{}", result.stats.telemetry);
    if let Some(path) = &args.trace_out {
        let trace = sift_obs::trace::wait_completed(study_trace_id, Duration::from_secs(30))
            .expect("study trace did not complete");
        std::fs::write(path, sift_obs::chrome_trace_json(&trace)).expect("write --trace-out");
        eprintln!("# trace: {} spans -> {}", trace.spans.len(), path.display());
    }

    let spikes = result.bare_spikes();

    if wants("stats") {
        exp_stats(&service, &params, &result, &spikes);
    }
    if wants("fig1") {
        exp_fig1(&result);
    }
    if wants("fig2") {
        exp_fig2(&result);
    }
    if wants("fig3") {
        exp_fig3(&spikes);
    }
    if wants("fig4") {
        exp_fig4(&spikes);
    }
    if wants("fig5") {
        exp_fig5(&result);
    }
    if wants("fig6") {
        exp_fig6(&result);
    }
    if wants("tab1") {
        exp_tab1(&result);
    }
    if wants("tab2") {
        exp_tab2(&result);
    }
    if wants("tab3") {
        exp_tab3(&result);
    }
    if wants("truth") {
        exp_truth(&service, &result);
    }
    if wants("ant") {
        exp_ant(&service, &spikes);
    }
    if wants("lag") {
        exp_lag(&result);
    }
    if wants("ablation") {
        exp_ablation(&service);
    }
    eprintln!("# total {:.1?}", total_span.elapsed());
}

fn section(id: &str, title: &str) {
    println!("\n== {id}: {title} ==");
}

/// §1/§4 headline numbers.
fn exp_stats(
    service: &TrendsService,
    params: &StudyParams,
    result: &StudyResult,
    spikes: &[Spike],
) {
    section("stats", "headline statistics (paper §1, §4)");
    println!("total spikes: {} (paper: 49 189)", spikes.len());
    for (year, n) in impact::count_by_year(spikes) {
        println!("  {year}: {n} (paper: 25 494 / 23 695)");
    }
    let long_2020 = spikes
        .iter()
        .filter(|s| s.start.year() == 2020 && s.duration_h() >= 5)
        .count();
    let long_2021 = spikes
        .iter()
        .filter(|s| s.start.year() == 2021 && s.duration_h() >= 5)
        .count();
    println!(
        "spikes >=5h: 2020 {} vs 2021 {} (ratio {:.2}; paper: 50% greater in 2020)",
        long_2020,
        long_2021,
        long_2020 as f64 / long_2021.max(1) as f64
    );
    println!(
        "share of spikes >=5h: {:.3} (paper: top 3.5%)",
        impact::share_at_least(spikes, 5)
    );
    let stats = service.stats();
    println!(
        "time frames requested: {} (+ {} rising) (paper: 160 238 frames)",
        stats.frames_served, stats.rising_served
    );
    // A region asks for each drill-down day once, however many spikes
    // share it; a day is weak when every spike it serves is under the
    // magnitude floor `truth` scores precision at.
    let mut strong_by_day: HashMap<(State, Hour), bool> = HashMap::new();
    for s in spikes {
        for day in drill_down_days(s, params) {
            *strong_by_day.entry((s.state, day)).or_default() |= s.magnitude >= 1.0;
        }
    }
    let weak = strong_by_day.values().filter(|strong| !**strong).count();
    println!(
        "daily drill-down requests: {} ; serving only spikes of magnitude < 1: {} ({:.3})",
        strong_by_day.len(),
        weak,
        weak as f64 / strong_by_day.len().max(1) as f64
    );
    println!(
        "distinct suggested terms: {} ; heavy hitters covering half the mass: {} (paper: 33 of 6655)",
        result.distinct_terms,
        result.heavy_hitters.len()
    );
    let top: Vec<String> = result
        .heavy_hitters
        .iter()
        .take(10)
        .map(|(t, n)| format!("{t} ({n})"))
        .collect();
    println!("top heavy hitters: {}", top.join(", "));
    let mut rounds: Vec<u32> = result
        .stats
        .rounds_by_state
        .iter()
        .map(|(_, r)| *r)
        .collect();
    rounds.sort_unstable();
    println!(
        "regions converged before round cap: {}/{} ; rounds used (min/median/max): {}/{}/{}",
        result.stats.converged_regions,
        result.stats.rounds_by_state.len(),
        rounds[0],
        rounds[rounds.len() / 2],
        rounds[rounds.len() - 1]
    );
}

/// Fig. 1: the Texas winter 2021 timeline.
fn exp_fig1(result: &StudyResult) {
    section(
        "fig1",
        "<Internet outage> popularity index, Texas, winter 2021",
    );
    let timeline = result.timeline(State::TX).expect("TX timeline");
    let cut = HourRange::new(
        Hour::from_ymdh(2021, 1, 19, 0),
        Hour::from_ymdh(2021, 2, 21, 0),
    );
    // Renormalize the cut to its own maximum, as the figure does.
    let values: Vec<f64> = cut.iter().filter_map(|h| timeline.value_at(h)).collect();
    let max = values.iter().copied().fold(0.0f64, f64::max).max(1e-9);
    let mut week_start = cut.start;
    let mut idx = 0usize;
    while week_start < cut.end {
        let week_len = 168.min((cut.end - week_start) as usize);
        let week: Vec<f64> = values[idx..idx + week_len]
            .iter()
            .map(|v| v * 100.0 / max)
            .collect();
        println!(
            "  {}  {}",
            format_day(week_start),
            report::sparkline(&report::downsample_max(&week, 56))
        );
        idx += week_len;
        week_start += week_len as i64;
    }
    for (name, at) in [
        ("Verizon outage (26 Jan)", Hour::from_ymdh(2021, 1, 26, 18)),
        ("winter storm (15 Feb)", Hour::from_ymdh(2021, 2, 15, 20)),
    ] {
        match result
            .spikes
            .iter()
            .find(|a| a.spike.state == State::TX && a.spike.window().contains(at))
        {
            Some(a) => println!(
                "  {name}: detected, duration {} h, magnitude {:.1}, [{}]",
                a.spike.duration_h(),
                a.spike.magnitude,
                labels(a)
            ),
            None => println!("  {name}: NOT detected"),
        }
    }
}

/// Fig. 2: the California walkthrough spike.
fn exp_fig2(result: &StudyResult) {
    section(
        "fig2",
        "workflow walkthrough: San Jose power outage, 17 Jul 2020",
    );
    let at = Hour::from_ymdh(2020, 7, 17, 18);
    match result
        .spikes
        .iter()
        .find(|a| a.spike.state == State::CA && a.spike.window().contains(at))
    {
        Some(a) => {
            println!(
                "  start time: {} (paper: 17 July 2020 15:00)",
                a.spike.start
            );
            println!("  peak time:  {} (paper: 17 July 2020 18:00)", a.spike.peak);
            println!(
                "  duration:   {} hours (paper: 10 hours)",
                a.spike.duration_h()
            );
            println!("  power-annotated: {}", a.power_annotated());
            for ann in &a.annotations {
                println!(
                    "  annotation: {:<32} weight {:>8.0} heavy-hitter {}",
                    ann.label, ann.weight, ann.heavy_hitter
                );
            }
        }
        None => println!("  walkthrough spike NOT detected"),
    }
}

/// Fig. 3: spike distribution over states and durations.
fn exp_fig3(spikes: &[Spike]) {
    section(
        "fig3",
        "characteristics of all spikes (state shares; duration CDF)",
    );
    let ranking = impact::state_ranking(spikes);
    println!("left: cumulative share of spikes by state rank");
    for rank in [1usize, 2, 5, 10, 20, 30, 51] {
        let row = &ranking[rank - 1];
        println!(
            "  rank {:>2}: {} ({} spikes) cumulative {:.3}{}",
            rank,
            row.state,
            row.count,
            row.cumulative_share,
            if rank == 10 { "  <- paper: 0.51" } else { "" }
        );
    }
    println!("right: duration CDF");
    let cdf = impact::duration_cdf(spikes, 40);
    for h in [1usize, 2, 3, 5, 10, 20, 40] {
        println!(
            "  <= {:>2} h: {:.3}{}",
            h,
            cdf[h - 1],
            if h == 3 { "  <- paper: 0.90" } else { "" }
        );
    }
    println!(
        "  share >=3h: {:.3} (paper: 0.10)",
        impact::share_at_least(spikes, 3)
    );
}

/// Fig. 4: daily distribution of spikes.
fn exp_fig4(spikes: &[Spike]) {
    section("fig4", "daily distribution of all spikes");
    let dist = impact::weekday_distribution(spikes);
    for wd in Weekday::ALL {
        let pct = dist[wd.index()];
        let bar = "#".repeat((pct * 3.0).round() as usize);
        println!("  {} {:>5.2}% {}", wd.abbrev(), pct, bar);
    }
    let (weekday, weekend) = impact::weekend_dip(spikes);
    println!(
        "  weekday avg {weekday:.2}% vs weekend avg {weekend:.2}% (paper: fewer outages on weekends)"
    );
}

/// Fig. 5: simultaneous outage extent.
fn exp_fig5(result: &StudyResult) {
    section("fig5", "distribution of simultaneous outage extent");
    let cdf = area::state_count_cdf(&result.clusters, 35);
    for k in [1usize, 2, 5, 10, 15, 25, 35] {
        println!(
            "  <= {:>2} states: {:.3}{}",
            k,
            cdf[k - 1],
            if k == 10 { "  <- paper: 0.89" } else { "" }
        );
    }
    println!(
        "  share spanning >=10 states: {:.3} (paper: 0.11)",
        area::share_spanning_at_least(&result.clusters, 10)
    );
}

/// Fig. 6: monthly power-annotated long spikes.
fn exp_fig6(result: &StudyResult) {
    section(
        "fig6",
        "power-annotated spikes with duration >= 5h, by month (2020 vs 2021)",
    );
    let mut by_month = [[0usize; 12]; 2];
    let mut long_total = 0usize;
    let mut long_power = 0usize;
    for a in &result.spikes {
        if a.spike.duration_h() < 5 {
            continue;
        }
        long_total += 1;
        if !a.power_annotated() {
            continue;
        }
        long_power += 1;
        let year = a.spike.start.year();
        if (2020..=2021).contains(&year) {
            by_month[(year - 2020) as usize][a.spike.start.month().index()] += 1;
        }
    }
    println!("  month   2020  2021");
    for m in Month::ALL {
        println!(
            "  {}   {:>5} {:>5}{}",
            m.abbrev(),
            by_month[0][m.index()],
            by_month[1][m.index()],
            match m {
                Month::Aug | Month::Sep => "   <- 2020 wildfires",
                Month::Jan | Month::Feb => "   <- 2021 winter storms",
                _ => "",
            }
        );
    }
    println!(
        "  power share of >=5h spikes: {:.2} (paper: 0.73); >=5h spikes are {:.1}% of all",
        long_power as f64 / long_total.max(1) as f64,
        100.0 * long_total as f64 / result.spikes.len().max(1) as f64
    );
}

/// Table 1: most impactful spikes by duration.
fn exp_tab1(result: &StudyResult) {
    section("tab1", "most impactful spikes by duration (paper Table 1)");
    let spikes = result.bare_spikes();
    let top = impact::top_by_duration(&spikes, 7);
    println!(
        "  {:<18} {:<5} {:>4}  annotation",
        "spike time", "state", "h"
    );
    for s in top {
        let annotated = find_annotated(result, &s);
        println!(
            "  {:<18} {:<5} {:>4}  {}",
            format_spike_time(s.start),
            s.state.abbrev(),
            s.duration_h(),
            annotated.map(labels).unwrap_or_else(|| "—".into())
        );
    }
    println!("  paper: TX 45h winter storm; CA 23h Xfinity; CA 22h Fastly; TN 21h AT&T; ...");
}

/// Table 2: most extensive spikes.
fn exp_tab2(result: &StudyResult) {
    section(
        "tab2",
        "most extensive spikes by state count (paper Table 2)",
    );
    let top = area::top_by_extent(&result.clusters, 9);
    println!("  {:<18} {:>6}  annotation", "spike time", "states");
    for c in top {
        let anchor = c.anchor();
        // The outage's label: the annotation most of the member states
        // agree on (weighted by annotation weight).
        let mut votes: std::collections::HashMap<&str, f64> = std::collections::HashMap::new();
        for member in &c.spikes {
            if let Some(a) = find_annotated(result, member) {
                for ann in &a.annotations {
                    *votes.entry(ann.label.as_str()).or_insert(0.0) += ann.weight;
                }
            }
        }
        let label = votes
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(l, _)| l.to_owned())
            .unwrap_or_else(|| "—".into());
        println!(
            "  {:<18} {:>6}  {}",
            format_spike_time(anchor.start),
            c.state_count(),
            label
        );
    }
    println!("  paper: Akamai 34; Cloudflare 30; Facebook 29; Verizon 27; Youtube 27; ...");
}

/// Table 3: most impactful power outages per state.
fn exp_tab3(result: &StudyResult) {
    section(
        "tab3",
        "most impactful power outages by state (paper Table 3)",
    );
    // Longest power-annotated spike per state, top 7 states.
    let mut best: Vec<&AnnotatedSpike> = Vec::new();
    for state in State::ALL {
        if let Some(a) = result
            .spikes
            .iter()
            .filter(|a| a.spike.state == state && a.power_annotated())
            .max_by_key(|a| a.spike.duration_h())
        {
            best.push(a);
        }
    }
    best.sort_by_key(|a| std::cmp::Reverse(a.spike.duration_h()));
    println!(
        "  {:<18} {:<5} {:>4}  annotation",
        "spike time", "state", "h"
    );
    for a in best.iter().take(7) {
        println!(
            "  {:<18} {:<5} {:>4}  {}",
            format_spike_time(a.spike.start),
            a.spike.state.abbrev(),
            a.spike.duration_h(),
            labels(a)
        );
    }
    println!("  paper: TX 45 winter storm; CA 18 heat wave; MI 15 storm; WA 13 storm; ...");
}

/// Ground-truth scoring — possible here, impossible in the paper.
fn exp_truth(service: &TrendsService, result: &StudyResult) {
    section(
        "truth",
        "detection scored against ground truth (not in the paper)",
    );
    let scenario = service.ground_truth();
    let spikes = result.bare_spikes();
    // Per-state sorted spikes for fast window matching.
    let mut per_state: Vec<Vec<&Spike>> = vec![Vec::new(); State::COUNT];
    for s in &spikes {
        per_state[s.state.index()].push(s);
    }
    let matches = |state: State, w: HourRange| {
        per_state[state.index()].iter().any(|s| {
            s.magnitude >= 1.0 && s.window().overlaps(&HourRange::new(w.start - 2, w.end + 2))
        })
    };
    let mut detected = 0usize;
    let mut total = 0usize;
    for e in &scenario.events {
        total += 1;
        if (0..e.states.len()).any(|i| matches(e.states[i].0, e.window_in(i))) {
            detected += 1;
        }
    }
    println!(
        "  event recall: {detected}/{total} = {:.3}",
        detected as f64 / total.max(1) as f64
    );
    // Precision: spikes (mag >= 1) near some ground-truth event.
    let index = scenario.build_index();
    let mut hits = 0usize;
    let mut strong = 0usize;
    for s in &spikes {
        if s.magnitude < 1.0 {
            continue;
        }
        strong += 1;
        let w = HourRange::new(s.start - 2, s.end + 2);
        let found = index.candidates(w).iter().any(|i| {
            let e = &scenario.events[*i as usize];
            (0..e.states.len()).any(|j| e.states[j].0 == s.state && e.window_in(j).overlaps(&w))
        });
        if found {
            hits += 1;
        }
    }
    println!(
        "  spike precision (magnitude >= 1): {hits}/{strong} = {:.3}",
        hits as f64 / strong.max(1) as f64
    );
}

/// §4.1/§4.2: SIFT vs the probing dataset.
fn exp_ant(service: &TrendsService, spikes: &[Spike]) {
    section(
        "ant",
        "cross-validation against the active-probing dataset (§4)",
    );
    let span = sift_obs::span("probe-synthesize");
    let plan = AddressPlan::proportional(10_000);
    let population = AddressPopulation::new(&plan, PopulationMix::default(), 0xA5);
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(0xA6);
    let geodb = GeoDb::from_plan(&plan, 0.03, &mut rng);
    let prober = Prober::new(ProbeConfig::default(), &population, &geodb);
    let dataset = prober.synthesize(service.ground_truth(), STUDY_RANGE);
    eprintln!(
        "# probing dataset: {} records ({:.1?})",
        dataset.len(),
        span.elapsed()
    );
    drop(span);

    let report = cross_validate(service.ground_truth(), spikes, &dataset, 5);
    println!(
        "  ground-truth events >=5h: both {}, SIFT-only {}, probes-only {}, neither {}",
        report.both, report.sift_only, report.probe_only, report.neither
    );
    let sift_only_invisible = report
        .events
        .iter()
        .filter(|e| e.sift_detected && !e.probe_detected && !e.probe_visible_in_principle)
        .count();
    println!(
        "  of the SIFT-only events, {} are ping-invisible causes (mobile/CDN/app)",
        sift_only_invisible
    );
    println!("  named events (paper's examples):");
    for name in [
        "T-Mobile nationwide outage",
        "Akamai DNS misconfiguration",
        "Youtube worldwide outage",
        "Texas winter storm",
        "CenturyLink North Carolina outage",
    ] {
        if let Some(e) = report.events.iter().find(|e| e.name == name) {
            println!(
                "    {:<36} SIFT {:<3} probes {:<3}{}",
                e.name,
                if e.sift_detected { "yes" } else { "NO" },
                if e.probe_detected { "yes" } else { "NO" },
                if !e.probe_visible_in_principle {
                    "  (ping-invisible)"
                } else {
                    ""
                }
            );
        }
    }
}

/// §4.2: the Facebook lag analysis.
///
/// The paper: "We discover a substantial spike in all the states for the
/// Facebook outage, but with certain lags for the remaining 22 states."
/// We scan each region for its first substantial spike around the event
/// and measure the lag of its peak behind the earliest region.
fn exp_lag(result: &StudyResult) {
    section("lag", "Facebook outage: lagged spikes (§4.2)");
    let at = Hour::from_ymdh(2021, 10, 4, 15);
    let window = HourRange::new(at - 3, at + 14);
    let mut earliest: Vec<Option<Hour>> = vec![None; State::COUNT];
    for a in &result.spikes {
        if a.spike.magnitude < 1.0 || !window.contains(a.spike.peak) {
            continue;
        }
        let slot = &mut earliest[a.spike.state.index()];
        if slot.map_or(true, |p| a.spike.peak < p) {
            *slot = Some(a.spike.peak);
        }
    }
    let observed: Vec<(State, Hour)> = State::ALL
        .iter()
        .filter_map(|s| earliest[s.index()].map(|p| (*s, p)))
        .collect();
    let Some(first) = observed.iter().map(|(_, p)| *p).min() else {
        println!("  facebook spikes NOT detected");
        return;
    };
    let sync = observed.iter().filter(|(_, p)| *p - first <= 1).count();
    let lagged = observed.len() - sync;
    println!(
        "  substantial spikes in {} of 51 states; {} synchronous (lag <= 1h), {} lagged (paper: all states; 29 + 22 lagged)",
        observed.len(),
        sync,
        lagged
    );
    let max_lag = observed.iter().map(|(_, p)| *p - first).max().unwrap_or(0);
    println!("  maximum lag: {max_lag} h (westernmost regions)");
}

/// Ablations called out in DESIGN.md: re-fetch rounds and stitch overlap.
fn exp_ablation(service: &TrendsService) {
    section("ablation", "re-fetch rounds and stitch-overlap ablations");
    use sift_core::plan::{plan_frames, PlanParams};
    use sift_core::refetch::{averaged_timeline, RefetchParams};
    use sift_core::DetectParams;
    use sift_trends::SearchTerm;

    // (a) Convergence: force all 8 rounds and report the similarity trace.
    let frames = plan_frames(STUDY_RANGE, PlanParams::default()).frames;
    let outcome = averaged_timeline(
        service,
        &SearchTerm::parse("topic:Internet outage"),
        State::TX,
        &frames,
        &RefetchParams {
            max_rounds: 8,
            convergence: 2.0, // unattainable: run every round
        },
        &DetectParams::default(),
    )
    .expect("ablation run");
    let trace: Vec<String> = outcome
        .similarity_trace
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    println!(
        "  TX spike-set similarity by round (paper: converges by round 6): {}",
        trace.join(" -> ")
    );

    // (b) Overlap width: 84h (default) vs 24h advance overlap.
    for (label, step) in [("84h overlap", 84u32), ("24h overlap", 144u32)] {
        let frames = plan_frames(
            STUDY_RANGE,
            PlanParams {
                frame_len: 168,
                step,
            },
        )
        .frames;
        let outcome = averaged_timeline(
            service,
            &SearchTerm::parse("topic:Internet outage"),
            State::TX,
            &frames,
            &RefetchParams::default(),
            &DetectParams::default(),
        )
        .expect("ablation run");
        println!(
            "  {label}: {} frames/round, {} rounds, {} spikes detected",
            frames.len(),
            outcome.rounds,
            outcome.spikes.len()
        );
    }
}

fn labels(a: &AnnotatedSpike) -> String {
    if a.annotations.is_empty() {
        return "—".into();
    }
    a.annotations
        .iter()
        .map(|x| x.label.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn find_annotated<'a>(result: &'a StudyResult, spike: &Spike) -> Option<&'a AnnotatedSpike> {
    result
        .spikes
        .iter()
        .find(|a| a.spike.state == spike.state && a.spike.start == spike.start)
}
