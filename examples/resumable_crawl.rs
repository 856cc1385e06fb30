//! A resumable crawl end-to-end: the same seeded study is run three ways
//! — uninterrupted, killed at an injected durability boundary, and then
//! resumed from the journals the crash left behind — and the example
//! diffs the resumed result against the uninterrupted one field by
//! field. Every fetch is a pure function of the scenario seed and the
//! request coordinates, and the single-threaded schedule makes the crash
//! land at the same fetch every time, so two executions with the same
//! `--seed` and `--crash-at` print byte-identical reports —
//! `scripts/check.sh` diffs exactly that.
//!
//! Run with:
//! `cargo run --release --example resumable_crawl -- --seed 7 --crash-at after_journal_record`
//! (`--crash-at` takes a site label or index: mid_journal_record, the
//! default, or after_journal_record. A study's journals are never
//! checkpointed, so the two checkpoint sites are refused.)

use sift::core::{run_study_durable, StudyDurability, StudyParams, StudyResult};
use sift::fetcher::{trends_router, HttpTrendsClient};
use sift::geo::State;
use sift::journal::testutil::scratch_dir;
use sift::journal::{CrashInjector, CrashPlan, CrashSite};
use sift::net::Server;
use sift::simtime::{Hour, HourRange};
use sift::trends::events::{Cause, OutageEvent, PowerTrigger};
use sift::trends::terms::Provider;
use sift::trends::{Scenario, TrendsService};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

struct Args {
    seed: u64,
    crash_at: CrashSite,
}

fn parse_args() -> Args {
    let mut out = Args {
        seed: 7,
        crash_at: CrashSite::MidJournalRecord,
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
                let v = args.next().expect("--crash-at takes a site label or index");
                out.crash_at = CrashSite::ALL
                    .into_iter()
                    .enumerate()
                    .find(|(i, s)| s.label() == v || i.to_string() == v)
                    .map(|(_, s)| s)
                    .expect("unknown crash site");
                assert!(
                    matches!(
                        out.crash_at,
                        CrashSite::MidJournalRecord | CrashSite::AfterJournalRecord
                    ),
                    "{} never fires here: a study's journal is its whole state, so it is \
                     never checkpointed; use mid_journal_record or after_journal_record",
                    out.crash_at
                );
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
        // One worker: the crash occurrence then lands at the same fetch
        // in every execution, keeping the printed report byte-identical.
        threads: 1,
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
    println!(
        "resumable crawl, seed {} crashing at {}",
        args.seed,
        args.crash_at.label()
    );

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

    // --- First life: die at the requested durability boundary. The
    // occurrence is seed-derived, so different seeds die at different
    // fetches; the default panic hook's note on stderr is the expected
    // sign of the injected death.
    let crash_dir = scratch_dir(&format!("resumable_crawl_{}", args.seed));
    let occurrence = 1 + args.seed % 3;
    let inj = Arc::new(CrashInjector::new(
        CrashPlan::nowhere().at(args.crash_at, occurrence),
    ));
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let durability = StudyDurability::new(&crash_dir).with_crash(Arc::clone(&inj));
        let _ = run_study_durable(&client, &study_params(), &durability);
    }))
    .is_err();
    assert!(
        crashed && inj.tripped(),
        "the injected crash must fire before the study completes"
    );
    println!(
        "\ncrashed at {} (occurrence {occurrence})",
        args.crash_at.label()
    );

    // --- Second life: reopen the same directory with no injector and let
    // recovery replay the journaled work.
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
