//! The online detector daemon end-to-end: a seeded world is served by
//! the daemon as the simulated clock advances — spikes seal and stream
//! out over HTTP long-polls — then a second daemon's ingest thread dies
//! on an upstream that panics mid-fetch, two frames past a checkpoint,
//! the daemon is restarted, and the example diffs its recovered spike
//! set against the uninterrupted one. Everything printed
//! to stdout is a pure function of the scenario seed (staleness and
//! timing, which are host-dependent, go to stderr), so two executions
//! with the same `--seed` print byte-identical reports —
//! `scripts/check.sh` diffs exactly that.
//!
//! Run with:
//! `cargo run --release --example online_daemon -- --seed 7`

use sift::geo::State;
use sift::journal::testutil::scratch_dir;
use sift::net::{HttpClient, Request};
use sift::serve::{Daemon, ServeConfig, SpikesReply};
use sift::simtime::{Hour, HourRange, SimClock};
use sift::trends::events::{Cause, OutageEvent, PowerTrigger};
use sift::trends::terms::Provider;
use sift::trends::{
    FetchError, FrameRequest, FrameResponse, RisingRequest, RisingResponse, Scenario, SearchTerm,
    TrendsClient, TrendsService,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn parse_seed() -> u64 {
    let mut seed = 7;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            other => panic!("unknown flag {other}"),
        }
    }
    seed
}

/// The seeded world: the seed shifts event timing so different seeds
/// genuinely serve different data, while the same seed replays the same
/// world in every process.
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

fn serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(
        SearchTerm::parse("topic:Internet outage"),
        vec![State::TX, State::CA],
        HourRange::new(Hour(0), Hour(800)),
    );
    cfg.checkpoint_every = 3;
    cfg
}

/// The world's service behind a client whose `dies_at`-th frame fetch
/// (0-based) panics: the daemon's ingest thread dies there.
struct DyingUpstream {
    service: Arc<TrendsService>,
    fetches: AtomicU64,
    dies_at: u64,
}

impl TrendsClient for DyingUpstream {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        let n = self.fetches.fetch_add(1, Ordering::SeqCst);
        if n == self.dies_at {
            panic!("upstream died at frame fetch {n}");
        }
        TrendsClient::fetch_frame(&*self.service, req)
    }

    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
        TrendsClient::fetch_rising(&*self.service, req)
    }
}

fn read_spikes(daemon: &Daemon, region: &str) -> SpikesReply {
    let resp = HttpClient::new(daemon.addr())
        .with_timeout(Duration::from_secs(60))
        .send(&Request::get(format!("/spikes?region={region}")))
        .expect("read spikes");
    if let Some(ms) = resp.headers.get("x-sift-staleness-ms") {
        eprintln!("  [{region}] staleness {ms}ms");
    }
    let text = std::str::from_utf8(&resp.body).expect("utf8 body");
    serde_json::from_str(text).expect("spikes reply")
}

fn print_spikes(tag: &str, reply: &SpikesReply) {
    println!(
        "\n{tag} ({} spikes, watermark h{}):",
        reply.spikes.len(),
        reply.watermark
    );
    for s in &reply.spikes {
        println!(
            "  spike {} h{}..h{} peak h{} magnitude {:.2}",
            s.state, s.start.0, s.end.0, s.peak.0, s.magnitude
        );
    }
}

fn main() {
    let seed = parse_seed();
    println!("online daemon, seed {seed}");
    let upstream = Arc::new(TrendsService::with_defaults(world(seed)));

    // --- Life one: a daemon follows the clock through the range,
    // streaming newly sealed spikes to a long-poll subscriber.
    let clock = Arc::new(SimClock::new(Hour(400)));
    let dir = scratch_dir(&format!("online_daemon_clean_{seed}"));
    let daemon = Daemon::start(
        serve_config(),
        Arc::clone(&upstream) as Arc<dyn TrendsClient>,
        Arc::clone(&clock),
        &dir,
    )
    .expect("start daemon");
    assert!(daemon.wait_caught_up(Duration::from_secs(30)));
    let halfway = read_spikes(&daemon, "TX");
    print_spikes("TX at simulated hour 400", &halfway);

    // Subscribe past the current cursor, then advance the clock: the
    // parked long-poll wakes as soon as the next spike seals.
    let addr = daemon.addr();
    let cursor = halfway.cursor;
    let subscriber = std::thread::spawn(move || {
        let resp = HttpClient::new(addr)
            .with_timeout(Duration::from_secs(60))
            .send(&Request::get(format!(
                "/spikes/subscribe?region=TX&cursor={cursor}"
            )))
            .expect("subscribe");
        let text = std::str::from_utf8(&resp.body).expect("utf8 body");
        serde_json::from_str::<SpikesReply>(text).expect("subscribe reply")
    });
    clock.set(Hour(800));
    assert!(daemon.wait_caught_up(Duration::from_secs(30)));
    // How *many* spikes had sealed by wake time is a race between the
    // ingest thread and the long-poll; only the fact of waking past the
    // cursor is deterministic, so that is all the report states.
    let woke = subscriber.join().expect("subscriber thread");
    println!(
        "\nsubscriber long-poll woke past cursor {}: {}",
        halfway.cursor,
        if woke.cursor > halfway.cursor {
            "yes"
        } else {
            "no"
        }
    );

    let reference_tx = read_spikes(&daemon, "TX");
    let reference_ca = read_spikes(&daemon, "CA");
    print_spikes("TX at simulated hour 800", &reference_tx);
    print_spikes("CA at simulated hour 800", &reference_ca);
    daemon.shutdown();

    // --- Life two: the same world, but the upstream panics inside a
    // seed-derived frame fetch, two frames past one of TX's checkpoints
    // (one every three frames, and TX ingests first): the ingest thread
    // dies there and the front keeps serving.
    let crash_dir = scratch_dir(&format!("online_daemon_crash_{seed}"));
    let dies_at = 3 * (seed % 3) + 2;
    let dying = Arc::new(DyingUpstream {
        service: Arc::clone(&upstream),
        fetches: AtomicU64::new(0),
        dies_at,
    });
    let clock = Arc::new(SimClock::new(Hour(800)));
    let crashed = Daemon::start(serve_config(), dying, Arc::clone(&clock), &crash_dir)
        .expect("start dying daemon");
    while !crashed.ingest_dead() {
        std::thread::sleep(Duration::from_millis(2));
    }
    let during = read_spikes(&crashed, "TX");
    println!(
        "\ningest died on frame fetch {dies_at}; front still serves {} spike(s)",
        during.spikes.len()
    );
    crashed.shutdown();

    // --- Life three: restart on the previous checkpoint + WAL and let
    // recovery replay the tail through the same apply path.
    let resumed = Daemon::start(
        serve_config(),
        upstream as Arc<dyn TrendsClient>,
        clock,
        &crash_dir,
    )
    .expect("restart daemon");
    assert!(resumed.wait_caught_up(Duration::from_secs(30)));
    let resumed_tx = read_spikes(&resumed, "TX");
    let resumed_ca = read_spikes(&resumed, "CA");
    print_spikes("TX after crash + recovery", &resumed_tx);
    resumed.shutdown();

    println!("\ncrash recovery:");
    println!(
        "  frames replayed from WAL: {}",
        sift::obs::counter("sift_serve_frames_replayed_total", &[("region", "TX")]).get()
            + sift::obs::counter("sift_serve_frames_replayed_total", &[("region", "CA")]).get()
    );
    if resumed_tx.spikes == reference_tx.spikes && resumed_ca.spikes == reference_ca.spikes {
        println!("  recovered spike set identical to uninterrupted run: yes");
    } else {
        println!("  recovered spike set DIVERGED from uninterrupted run");
        std::process::exit(1);
    }
}
