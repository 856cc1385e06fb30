//! A trace is recorded only when its root asks to be read. A study over
//! real HTTP with no recording root leaves the process's trace store
//! empty; the same study under `span_recorded` assembles client
//! `request` and server `serve` spans into one tree with no orphans.
//! Recorded or not, the study's stage table is the tally of its own
//! spans: the recorded tree, cut to the study's subtree, holds the same
//! counts and durations, bar the `serve` spans, which reach the tree by
//! header and so count in no table.
//!
//! One test in its own binary: the trace store is process-global, and
//! any other test recording beside it would fill it.

mod common;

use common::world;
use sift::core::{run_study, StudyParams, StudyResult};
use sift::fetcher::{trends_router, HttpTrendsClient};
use sift::geo::State;
use sift::net::Server;
use sift::obs::trace;
use sift::simtime::{Hour, HourRange};
use sift::trends::TrendsService;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn a_study_over_http_is_recorded_only_under_a_recording_root() {
    let regions = [State::TX];
    let service = Arc::new(TrendsService::with_defaults(world(&regions)));
    let server = Server::new(trends_router(service))
        .bind("127.0.0.1:0")
        .expect("bind");
    let client = HttpTrendsClient::new(server.addr(), "127.0.0.1");
    let params = StudyParams {
        range: HourRange::new(Hour(0), Hour(800)),
        regions: regions.to_vec(),
        threads: 2,
        daily_rising: false,
        ..StudyParams::default()
    };
    let study = || -> StudyResult { run_study(&client, &params).expect("study over http") };

    // Unrecorded: the spans still time every stage, but nothing reaches
    // the store, not even for a moment.
    let unrecorded = study();
    assert!(unrecorded.stats.frames_requested > 0);
    assert!(
        !unrecorded.stats.telemetry.stages.is_empty(),
        "the study tallies its own spans, recorded or not"
    );
    assert_eq!(trace::active_traces(), 0, "no trace left open");
    assert!(trace::recent_traces().is_empty(), "no trace completed");

    // Recorded: one tree, client attempts and server serves joined.
    let root = sift::obs::span_recorded("recorded-study");
    let trace_id = root.context().trace_id;
    let recorded = study();
    drop(root);
    assert_eq!(recorded.bare_spikes(), unrecorded.bare_spikes());
    let tree = trace::wait_completed(trace_id, Duration::from_secs(30)).expect("trace completes");
    server.shutdown();

    assert_eq!(tree.root().map(|s| s.name.as_str()), Some("recorded-study"));
    assert!(tree.orphans().is_empty(), "orphans: {:?}", tree.orphans());
    let requests: HashSet<u64> = tree
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.span_id)
        .collect();
    let serves: Vec<_> = tree.spans.iter().filter(|s| s.name == "serve").collect();
    assert!(!requests.is_empty());
    assert_eq!(serves.len(), requests.len(), "one serve per attempt");
    assert!(serves
        .iter()
        .all(|s| s.parent_id.is_some_and(|p| requests.contains(&p))));
    assert_eq!(trace::recent_traces().len(), 1, "only the recorded study");

    // The table agrees with the trace: per name, the study's subtree
    // (the `study` span itself still open when the table was read) holds
    // as many records as the row counts, their durations summing to the
    // row's total less under 1 µs per span (records truncate to whole
    // microseconds).
    let study = tree
        .spans
        .iter()
        .find(|s| s.name == "study")
        .expect("the study span is recorded");
    let mut subtree = HashSet::from([study.span_id]);
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut grew = true;
    while grew {
        grew = false;
        for s in &tree.spans {
            if s.parent_id.is_some_and(|p| subtree.contains(&p)) && subtree.insert(s.span_id) {
                let (count, dur_us) = by_name.entry(s.name.as_str()).or_default();
                *count += 1;
                *dur_us += s.dur_us;
                grew = true;
            }
        }
    }
    assert!(by_name.remove("serve").is_some(), "serves in the subtree");
    let rows = |r: &StudyResult| -> BTreeMap<String, u64> {
        let stages = &r.stats.telemetry.stages;
        stages.iter().map(|s| (s.name.clone(), s.count)).collect()
    };
    let traced: BTreeMap<String, u64> = by_name
        .iter()
        .map(|(name, (count, _))| ((*name).to_owned(), *count))
        .collect();
    let table = &recorded.stats.telemetry;
    assert_eq!(rows(&recorded), traced, "{table}");
    for stage in &table.stages {
        let (count, dur_us) = by_name[stage.name.as_str()];
        let lost_us = stage.total_seconds * 1e6 - dur_us as f64;
        assert!(
            (-1e-3..count as f64).contains(&lost_us),
            "{}: {lost_us} µs over {count} spans",
            stage.name
        );
    }
    assert_eq!(rows(&unrecorded), rows(&recorded), "{table}");
}
