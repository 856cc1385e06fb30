//! A resumable crawl end-to-end: the same seeded study is run three ways
//! — uninterrupted, cut short by a crash, and then resumed from the
//! journals the crash left behind — and the example diffs the resumed
//! result against the uninterrupted one field by field. A region's
//! journal is append-only, so a crash leaves a prefix of the finished
//! file: the crash state is built by cutting each region's journal of the
//! uninterrupted run inside, or just after, a seed-derived record. Every
//! fetch is a pure function of the scenario seed and the request
//! coordinates, so two executions with the same `--seed` and
//! `--crash-at` print byte-identical reports — `scripts/check.sh` diffs
//! exactly that.
//!
//! Run with:
//! `cargo run --release --example resumable_crawl -- --seed 7 --crash-at after_journal_record`
//! (`--crash-at` takes a label or index: mid_journal_record, the
//! default, cuts inside the record and leaves a torn tail;
//! after_journal_record cuts just after it.)

use sift::core::{run_study_durable, StudyDurability, StudyParams, StudyResult};
use sift::fetcher::{trends_router, HttpTrendsClient};
use sift::geo::State;
use sift::journal::testutil::{copy_dir, scratch_dir, wal_cuts};
use sift::net::Server;
use sift::simtime::{Hour, HourRange};
use sift::trends::events::{Cause, OutageEvent, PowerTrigger};
use sift::trends::terms::Provider;
use sift::trends::{Scenario, TrendsService};
use std::sync::Arc;

const CRASH_SITES: [&str; 2] = ["mid_journal_record", "after_journal_record"];

struct Args {
    seed: u64,
    /// Whether the cut leaves a torn record (mid_journal_record).
    torn: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        seed: 7,
        torn: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                out.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--crash-at" => {
                let v = args.next().expect("--crash-at takes a label or index");
                let site = CRASH_SITES
                    .iter()
                    .enumerate()
                    .position(|(i, s)| *s == v || i.to_string() == v)
                    .expect("--crash-at takes mid_journal_record or after_journal_record");
                out.torn = site == 0;
            }
            other => panic!("unknown flag {other}"),
        }
    }
    out
}

/// The seeded world: the seed shifts event timing and weight so different
/// seeds genuinely crawl different data, while the same seed replays the
/// same world in every process.
fn world(seed: u64) -> Scenario {
    let jitter = i64::try_from(seed % 37).unwrap_or(0);
    let mut events = vec![
        OutageEvent {
            id: 0,
            name: "power".into(),
            cause: Cause::Power(PowerTrigger::Storm),
            start: Hour(280 + jitter),
            duration_h: 8,
            states: vec![(State::TX, 0.3), (State::CA, 0.2)],
            severity: 9_000.0,
            lags_h: vec![0, 0],
        },
        OutageEvent {
            id: 1,
            name: "isp".into(),
            cause: Cause::IspNetwork(Provider::Spectrum),
            start: Hour(590 + jitter),
            duration_h: 5,
            states: vec![(State::CA, 0.2)],
            severity: 8_000.0,
            lags_h: vec![0],
        },
    ];
    for (i, start) in (40..800).step_by(70).enumerate() {
        for (j, state) in [State::TX, State::CA].into_iter().enumerate() {
            events.push(OutageEvent {
                id: 100 + u32::try_from(i * 2 + j).unwrap_or(u32::MAX),
                name: format!("anchor-{i}-{state}"),
                cause: Cause::IspNetwork(Provider::Frontier),
                start: Hour(start + 11 * i64::try_from(j).unwrap_or(0)),
                duration_h: 2,
                states: vec![(state, 0.02)],
                severity: 8_000.0,
                lags_h: vec![0],
            });
        }
    }
    let mut scenario = Scenario::single_region(State::TX, vec![]);
    scenario.params.regions = vec![State::TX, State::CA];
    scenario.events = events;
    scenario.events.sort_by_key(|e| (e.start, e.id));
    scenario
}

fn study_params() -> StudyParams {
    StudyParams {
        range: HourRange::new(Hour(0), Hour(800)),
        regions: vec![State::TX, State::CA],
        ..StudyParams::default()
    }
}

fn print_report(tag: &str, result: &StudyResult) {
    println!("\n{tag}:");
    for a in &result.spikes {
        println!(
            "  spike {} peak h{} magnitude {:.2}",
            a.spike.state, a.spike.peak.0, a.spike.magnitude
        );
    }
    println!(
        "  frames requested {}, replayed {}, clusters {}",
        result.stats.frames_requested,
        result.stats.frames_replayed,
        result.clusters.len()
    );
}

fn same_result(a: &StudyResult, b: &StudyResult) -> bool {
    a.spikes.len() == b.spikes.len()
        && a.spikes
            .iter()
            .zip(b.spikes.iter())
            .all(|(x, y)| x.spike == y.spike && x.annotations == y.annotations)
        && a.timelines == b.timelines
        && a.clusters.len() == b.clusters.len()
        && a.heavy_hitters == b.heavy_hitters
}

fn main() {
    let args = parse_args();
    let site = CRASH_SITES[usize::from(!args.torn)];
    println!("resumable crawl, seed {} crashing at {site}", args.seed);

    let service = Arc::new(TrendsService::with_defaults(world(args.seed)));
    let server = Server::new(trends_router(Arc::clone(&service)))
        .with_workers(4)
        .bind("127.0.0.1:0")
        .expect("bind server");
    let client = HttpTrendsClient::new(server.addr(), "127.0.0.61");

    // --- Reference life: the same study, never interrupted.
    let clean_dir = scratch_dir(&format!("resumable_crawl_clean_{}", args.seed));
    let reference = run_study_durable(&client, &study_params(), &StudyDurability::new(&clean_dir))
        .expect("uninterrupted study");
    print_report("uninterrupted run", &reference);

    // --- First life, as a crash leaves it: each region's journal of the
    // reference life cut inside, or just after, a seed-derived record.
    let crash_dir = scratch_dir(&format!("resumable_crawl_{}", args.seed));
    copy_dir(&clean_dir, &crash_dir);
    let record = usize::try_from(5 + args.seed % 13).expect("small record index");
    for state in [State::TX, State::CA] {
        let wal = crash_dir.join(state.abbrev()).join("region.wal");
        let bytes = std::fs::read(&wal).expect("read journal");
        let records = record + usize::from(!args.torn);
        let cut = wal_cuts(&bytes)
            .into_iter()
            .find(|cut| cut.records == records && cut.torn == args.torn)
            .expect("the journal holds the record");
        std::fs::write(&wal, &bytes[..cut.len]).expect("cut journal");
    }
    println!("\ncrashed at {site} (record {record} of each region's journal)");

    // --- Second life: reopen the cut directory and let recovery replay
    // the journaled work.
    let resumed = run_study_durable(&client, &study_params(), &StudyDurability::new(&crash_dir))
        .expect("resumed study");
    print_report("resumed run", &resumed);
    let mut resumed_from: Vec<(State, u32)> = resumed.stats.resumed_from_round.clone();
    resumed_from.sort_by_key(|(state, _)| *state);
    for (state, round) in &resumed_from {
        println!("  {state} resumed from round {round}");
    }

    // --- The invariant this subsystem exists for.
    println!("\njournal recovery:");
    println!(
        "  records replayed: {}",
        sift::obs::counter("sift_journal_records_replayed_total", &[]).get()
    );
    println!(
        "  torn tails truncated: {}",
        sift::obs::counter("sift_journal_torn_tail_truncated_total", &[]).get()
    );
    if same_result(&resumed, &reference) {
        println!("  resumed result identical to uninterrupted run: yes");
    } else {
        println!("  resumed result DIVERGED from uninterrupted run");
        server.shutdown();
        std::process::exit(1);
    }

    server.shutdown();
}
