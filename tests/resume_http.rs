//! Crash-consistency acceptance: a seeded HTTP crawl killed at each of
//! its durability boundaries — mid-journal-record, at the `RoundDone`
//! record that seals a re-fetch round (just after it lands, and half-way
//! through writing it) and mid-refetch-round — must resume to the
//! *identical* spike set, timelines and clusters an uninterrupted run
//! produces, re-fetching at most the single response that was in flight
//! when the process died. The in-process harness injects panics and
//! recovers under `catch_unwind`; the out-of-process harness spawns this
//! test binary as a child, aborts it at a journal boundary (no unwinding,
//! no flushing — the closest stand-in for `kill -9`) and resumes from the
//! orphaned journal files.

mod common;

use common::world;
use sift::core::{
    plan_frames, run_study, run_study_durable, StudyDurability, StudyParams, StudyResult,
};
use sift::fetcher::{trends_router, HttpTrendsClient};
use sift::journal::testutil::scratch_dir;
use sift::journal::{CrashInjector, CrashMode, CrashPlan, CrashSite};
use sift::net::{Server, ServerHandle};
use sift::simtime::{Hour, HourRange};
use sift::trends::TrendsService;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

fn study_params() -> StudyParams {
    StudyParams {
        range: HourRange::new(Hour(0), Hour(800)),
        regions: vec![sift::geo::State::TX, sift::geo::State::CA],
        threads: 2,
        ..StudyParams::default()
    }
}

/// A fresh service + HTTP server + client (no rate limiter: every
/// service-side `frames_served` tick is then exactly one study fetch,
/// which the zero-refetch accounting below relies on).
fn http_stack(identity: &str) -> (Arc<TrendsService>, ServerHandle, HttpTrendsClient) {
    let service = Arc::new(TrendsService::with_defaults(world(&[
        sift::geo::State::TX,
        sift::geo::State::CA,
    ])));
    let server = Server::new(trends_router(Arc::clone(&service)))
        .with_workers(4)
        .bind("127.0.0.1:0")
        .expect("bind");
    let client = HttpTrendsClient::new(server.addr(), identity);
    (service, server, client)
}

fn assert_same_result(resumed: &StudyResult, baseline: &StudyResult, what: &str) {
    assert_eq!(
        resumed.spikes.len(),
        baseline.spikes.len(),
        "{what}: spike count diverged"
    );
    for (a, b) in resumed.spikes.iter().zip(baseline.spikes.iter()) {
        assert_eq!(a.spike, b.spike, "{what}: spike diverged");
        assert_eq!(a.annotations, b.annotations, "{what}: annotations diverged");
    }
    assert_eq!(
        resumed.timelines, baseline.timelines,
        "{what}: timelines diverged"
    );
    assert_eq!(
        resumed.clusters.len(),
        baseline.clusters.len(),
        "{what}: clusters diverged"
    );
    assert_eq!(
        resumed.heavy_hitters, baseline.heavy_hitters,
        "{what}: heavy hitters diverged"
    );
}

/// Runs the uninterrupted reference crawls; returns the plain result and
/// the number of requests an uninterrupted *durable* run costs. The two
/// baselines differ: journaling dedupes repeat rising fetches within a
/// run (recorded once, replayed after), so the durable run is the fair
/// served-count yardstick — after first asserting it produces the exact
/// same result as the journal-free path.
fn baseline() -> (StudyResult, u64) {
    let (_plain_service, plain_server, plain_client) = http_stack("127.0.0.10");
    let result = run_study(&plain_client, &study_params()).expect("uninterrupted study");
    plain_server.shutdown();

    let (service, server, client) = http_stack("127.0.0.10");
    let durable = run_study_durable(
        &client,
        &study_params(),
        &StudyDurability::new(scratch_dir("resume_http_baseline")),
    )
    .expect("uninterrupted durable study");
    let stats = service.stats();
    server.shutdown();
    assert_same_result(&durable, &result, "uninterrupted durable vs plain");
    (result, stats.frames_served + stats.rising_served)
}

#[test]
fn crawl_killed_at_each_crash_point_resumes_to_the_identical_result() {
    let (reference, served_uninterrupted) = baseline();

    // The pinned crash points of the acceptance criteria: `(site,
    // occurrence, first-life threads, the round TX then resumes at)`.
    // The two at the round seal run their first life on one worker, so
    // that the occurrence is the same record every time: TX journals its
    // study record, then per round one frame per slot and the `RoundDone`
    // that seals it. Landed, round 1's seal resumes TX at round 2; torn,
    // at round 1, which is recovered slot by slot and sealed again.
    let params = study_params();
    let slots = u64::try_from(plan_frames(params.range, params.plan).len()).unwrap();
    let seal_of_round_1 = 2 * slots + 2;
    let crash_points = [
        (
            CrashSite::MidJournalRecord,
            5,
            2,
            None,
            "mid-journal-record",
        ),
        (
            CrashSite::AfterJournalRecord,
            seal_of_round_1,
            1,
            Some(2),
            "after the round seal",
        ),
        (
            CrashSite::MidJournalRecord,
            seal_of_round_1,
            1,
            Some(1),
            "torn round seal",
        ),
        (
            CrashSite::AfterJournalRecord,
            13,
            2,
            None,
            "mid-refetch-round",
        ),
    ];

    for (site, occurrence, threads, tx_resumes_at, what) in crash_points {
        // Crashed and resumed runs share one service instance, so its
        // counters accumulate the combined network cost of both lives.
        let (service, server, client) = http_stack("127.0.0.11");
        let dir = scratch_dir(&format!("resume_http_{}", site.label()));

        let inj = Arc::new(CrashInjector::new(
            CrashPlan::nowhere().at(site, occurrence),
        ));
        let first_life = StudyParams {
            threads,
            ..study_params()
        };
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            let durability = StudyDurability::new(&dir).with_crash(Arc::clone(&inj));
            let _ = run_study_durable(&client, &first_life, &durability);
        }))
        .is_err();
        assert!(crashed && inj.tripped(), "{what}: injected crash must fire");

        let resumed = run_study_durable(&client, &study_params(), &StudyDurability::new(&dir))
            .expect("resumed study");
        let stats = service.stats();
        server.shutdown();

        assert_same_result(&resumed, &reference, what);
        if let Some(round) = tx_resumes_at {
            assert!(
                resumed
                    .stats
                    .resumed_from_round
                    .contains(&(sift::geo::State::TX, round)),
                "{what}: the crash must land on the seal, stats: {:?}",
                resumed.stats
            );
        }
        assert!(
            resumed.stats.frames_replayed > 0,
            "{what}: resume must replay journaled work, stats: {:?}",
            resumed.stats
        );

        // Zero-refetch invariant: across both lives, the service saw the
        // uninterrupted workload plus at most the one response that was
        // in flight at the crash.
        let served = stats.frames_served + stats.rising_served;
        assert!(
            served >= served_uninterrupted,
            "{what}: served {served} < uninterrupted {served_uninterrupted}"
        );
        assert!(
            served <= served_uninterrupted + 1,
            "{what}: {} journaled responses were re-fetched",
            served - served_uninterrupted
        );
    }
}

const CHILD_ENV: &str = "SIFT_RESUME_CHILD_DIR";

/// The child's half of the out-of-process harness: crawl durably against
/// its own server and die by `abort()` at a journal boundary. Never
/// returns through the normal path unless the injector failed to fire —
/// then it exits 0, which the parent treats as a harness failure.
fn child_crawl_and_abort(dir: &Path) {
    let (_service, _server, client) = http_stack("127.0.0.12");
    let inj = Arc::new(CrashInjector::new(
        CrashPlan::nowhere()
            .at(CrashSite::AfterJournalRecord, 11)
            .with_mode(CrashMode::Abort),
    ));
    let durability = StudyDurability::new(dir).with_crash(inj);
    let _ = run_study_durable(&client, &study_params(), &durability);
    std::process::exit(0);
}

#[test]
fn process_killed_without_unwinding_resumes_to_the_identical_result() {
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        child_crawl_and_abort(Path::new(&dir));
        unreachable!("child must abort or exit");
    }

    let (reference, _) = baseline();
    let dir = scratch_dir("resume_http_child");

    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(exe)
        .arg("process_killed_without_unwinding_resumes_to_the_identical_result")
        .arg("--exact")
        .arg("--test-threads=1")
        .env(CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn child test process");
    assert!(
        !status.success(),
        "child must die at the injected abort, not complete"
    );

    // The orphaned journal files survive the kill; resuming from them in
    // this process reproduces the reference result.
    let resumed = run_study_durable(
        &http_stack("127.0.0.13").2,
        &study_params(),
        &StudyDurability::new(&dir),
    )
    .expect("resume from the killed child's journals");
    assert_same_result(&resumed, &reference, "out-of-process kill");
    assert!(
        resumed.stats.frames_replayed > 0,
        "resume must replay the child's journaled work"
    );
}
