//! Crash-consistency acceptance: a seeded crawl of two regions must
//! resume, from every state a crash can leave its journals in, to the
//! *identical* spike set, timelines, clusters and heavy hitters an
//! uninterrupted run produces, and write the uninterrupted journals
//! again byte for byte. A region's journal is append-only, so every
//! crash state is a prefix of the finished file (Pillai et al., OSDI
//! 2014): the sweep runs the study once, then cuts one region's journal
//! at every record boundary and half-way through every record, with the
//! other region's journal whole or empty, and resumes from each. The
//! second test kills a real child process (SIGKILL: no unwinding, no
//! flushing) while it crawls over HTTP, and resumes from the files it
//! left.

mod common;

use common::world;
use sift::core::{run_study, run_study_durable, StudyDurability, StudyParams, StudyResult};
use sift::fetcher::{trends_router, HttpTrendsClient};
use sift::geo::State;
use sift::journal::testutil::{copy_dir, scratch_dir, wal_cuts, ScratchDir};
use sift::journal::Journal;
use sift::net::{Server, ServerHandle};
use sift::simtime::{Hour, HourRange};
use sift::trends::{
    FetchError, FrameRequest, FrameResponse, RisingRequest, RisingResponse, TrendsClient,
    TrendsService,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const REGIONS: [State; 2] = [State::TX, State::CA];

fn study_params() -> StudyParams {
    StudyParams {
        range: HourRange::new(Hour(0), Hour(800)),
        regions: REGIONS.to_vec(),
        threads: 2,
        ..StudyParams::default()
    }
}

/// A fresh service + HTTP server + client.
fn http_stack(identity: &str) -> (ServerHandle, HttpTrendsClient) {
    let service = Arc::new(TrendsService::with_defaults(world(&REGIONS)));
    let server = Server::new(trends_router(service))
        .with_workers(4)
        .bind("127.0.0.1:0")
        .expect("bind");
    let client = HttpTrendsClient::new(server.addr(), identity);
    (server, client)
}

/// The in-process service behind a per-region fetch counter, frames and
/// rising suggestions alike.
struct Counting {
    service: TrendsService,
    fetches: Mutex<HashMap<State, u64>>,
}

impl Counting {
    fn new() -> Counting {
        Counting {
            service: TrendsService::with_defaults(world(&REGIONS)),
            fetches: Mutex::new(HashMap::new()),
        }
    }

    fn count(&self, state: State) {
        *self.fetches.lock().unwrap().entry(state).or_default() += 1;
    }

    fn fetches(&self, state: State) -> u64 {
        self.fetches
            .lock()
            .unwrap()
            .get(&state)
            .copied()
            .unwrap_or(0)
    }
}

impl TrendsClient for Counting {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        self.count(req.state);
        self.service.fetch_frame(req).map_err(FetchError::Service)
    }

    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
        self.count(req.state);
        self.service.fetch_rising(req).map_err(FetchError::Service)
    }
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

fn wal_path(dir: &Path, state: State) -> PathBuf {
    dir.join(state.abbrev()).join("region.wal")
}

fn assert_same_wals(dir: &Path, finished: &Path, what: &str) {
    for state in REGIONS {
        let (got, want) = (wal_path(dir, state), wal_path(finished, state));
        assert!(
            std::fs::read(got).unwrap() == std::fs::read(want).unwrap(),
            "{what}: {state}'s journal differs from the uninterrupted one"
        );
    }
}

/// The uninterrupted run: the plain result, the directory of a durable
/// run that finished (after asserting it produced the same result), and
/// what that durable run fetched per region.
fn uninterrupted(tag: &str) -> (StudyResult, ScratchDir, HashMap<State, u64>) {
    let service = TrendsService::with_defaults(world(&REGIONS));
    let reference = run_study(&service, &study_params()).expect("uninterrupted study");
    let finished = scratch_dir(&format!("resume_http_finished_{tag}"));
    let client = Counting::new();
    let durable = run_study_durable(&client, &study_params(), &StudyDurability::new(&finished))
        .expect("uninterrupted durable study");
    assert_same_result(&durable, &reference, "uninterrupted durable vs plain");
    let fetches = REGIONS.map(|s| (s, client.fetches(s))).into();
    (reference, finished, fetches)
}

#[test]
fn crawl_killed_at_each_crash_point_resumes_to_the_identical_result() {
    let (reference, finished, uninterrupted) = uninterrupted("sweep");
    let params = study_params();
    let round_1_seal = br#"{"RoundDone":{"round":1}}"#;
    let (mut states, mut at_round_1_seal) = (0, 0);

    for (region, other) in [(State::TX, State::CA), (State::CA, State::TX)] {
        let wal = std::fs::read(wal_path(&finished, region)).unwrap();
        let records = Journal::open(&wal_path(&finished, region))
            .unwrap()
            .1
            .records;
        let frame_records = |n: usize| {
            let frames = records[..n].iter().filter(|r| r.starts_with(b"{\"Frame\""));
            frames.count() as u64
        };
        let other_frames = {
            let other_records = Journal::open(&wal_path(&finished, other)).unwrap().1;
            let frames = other_records.records.iter();
            frames.filter(|r| r.starts_with(b"{\"Frame\"")).count() as u64
        };
        // What the resume fetched for `region` at the last record boundary.
        let mut at_boundary: Option<u64> = None;

        for cut in wal_cuts(&wal) {
            let prefix = &records[..cut.records];
            let seals = prefix.iter().filter(|r| r.starts_with(b"{\"RoundDone\""));
            let seals = seals.count() as u32;
            let mut costs = Vec::new();
            for other_whole in [true, false] {
                let what = format!(
                    "{region} cut {cut:?}, {other} {}",
                    if other_whole { "whole" } else { "empty" }
                );
                let dir = scratch_dir("resume_http_cut");
                copy_dir(&finished, &dir);
                std::fs::write(wal_path(&dir, region), &wal[..cut.len]).unwrap();
                if !other_whole {
                    std::fs::write(wal_path(&dir, other), b"").unwrap();
                }

                let client = Counting::new();
                let resumed = run_study_durable(&client, &params, &StudyDurability::new(&dir))
                    .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
                assert_same_result(&resumed, &reference, &what);
                assert_same_wals(&dir, &finished, &what);
                assert!(
                    resumed.stats.resumed_from_round.contains(&(region, seals)),
                    "{what}: {region} must resume after its last whole seal, stats: {:?}",
                    resumed.stats
                );
                let other_replayed = if other_whole { other_frames } else { 0 };
                assert_eq!(
                    resumed.stats.frames_replayed,
                    frame_records(cut.records) + other_replayed,
                    "{what}: every whole frame record replays"
                );
                let other_cost = if other_whole {
                    0
                } else {
                    uninterrupted[&other]
                };
                assert_eq!(client.fetches(other), other_cost, "{what}");
                costs.push(client.fetches(region));
                states += 1;
            }
            let what = format!("{region} cut {cut:?}");
            assert_eq!(
                costs[0], costs[1],
                "{what}: the other region changed the cost"
            );
            let cost = costs[0];

            // Round 1's seal: landed, the region resumes at round 2; torn,
            // at round 1, which it recovers slot by slot and seals again.
            let landed = !cut.torn && cut.records > 0 && records[cut.records - 1] == round_1_seal;
            let torn = cut.torn && records[cut.records] == round_1_seal;
            if landed || torn {
                assert_eq!(seals, if landed { 2 } else { 1 }, "{what}");
                at_round_1_seal += 1;
            }

            // Refetch accounting: a torn record costs what the boundary
            // before it costs; each whole record saves at most one fetch.
            match at_boundary {
                None => assert_eq!(cost, uninterrupted[&region], "{what}: the empty journal"),
                Some(before) if cut.torn => assert_eq!(cost, before, "{what}"),
                Some(before) => assert!(
                    cost == before || cost + 1 == before,
                    "{what}: one record saved {} fetches",
                    before as i64 - cost as i64
                ),
            }
            if !cut.torn {
                at_boundary = Some(cost);
            }
        }
        assert_eq!(
            at_boundary,
            Some(0),
            "{region}: the whole journal costs nothing"
        );
    }
    assert!(states >= 384, "{states} crash states");
    assert_eq!(
        at_round_1_seal,
        2 * 2,
        "round 1's seal, landed and torn, per region"
    );
}

const CHILD_ENV: &str = "SIFT_RESUME_CHILD_DIR";

/// Whole records TX's journal must hold before the parent kills the child.
const KILL_AFTER_RECORDS: usize = 10;

/// The child's half of the out-of-process harness: crawl durably over
/// HTTP, pausing before each fetch so the kill lands mid-crawl, then wait
/// to be killed.
fn child_crawl(dir: &Path) -> ! {
    let (_server, client) = http_stack("127.0.0.12");
    struct Paced(HttpTrendsClient);
    impl TrendsClient for Paced {
        fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
            std::thread::sleep(Duration::from_millis(5));
            self.0.fetch_frame(req)
        }
        fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
            std::thread::sleep(Duration::from_millis(5));
            self.0.fetch_rising(req)
        }
    }
    let _ = run_study_durable(&Paced(client), &study_params(), &StudyDurability::new(dir));
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

#[test]
fn process_killed_without_unwinding_resumes_to_the_identical_result() {
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        child_crawl(Path::new(&dir));
    }

    let (reference, finished, _) = uninterrupted("kill");
    let dir = scratch_dir("resume_http_child");
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("process_killed_without_unwinding_resumes_to_the_identical_result")
        .arg("--exact")
        .arg("--test-threads=1")
        .env(CHILD_ENV, &*dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child test process");

    // Kill it once TX's journal holds enough records. The kill may land
    // anywhere, mid-record included: every instant is a crash state.
    let deadline = Instant::now() + Duration::from_secs(60);
    let records = || {
        let wal = std::fs::read(wal_path(&dir, State::TX)).unwrap_or_default();
        wal_cuts(&wal).last().map_or(0, |cut| cut.records)
    };
    while records() < KILL_AFTER_RECORDS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("kill child");
    let status = child.wait().expect("reap child");
    assert!(
        records() >= KILL_AFTER_RECORDS,
        "the child journaled too little"
    );
    assert!(!status.success(), "the child must die by the kill");

    let (server, client) = http_stack("127.0.0.13");
    let resumed = run_study_durable(&client, &study_params(), &StudyDurability::new(&dir))
        .expect("resume from the killed child's journals");
    server.shutdown();
    assert_same_result(&resumed, &reference, "out-of-process kill");
    assert_same_wals(&dir, &finished, "out-of-process kill");
    assert!(
        resumed.stats.frames_replayed > 0,
        "resume must replay the child's journaled work"
    );
}
