//! `serve_online`: the daemon backfills half the study range, then
//! follows an open loop of clock ticks while one reader polls `/spikes`
//! and one subscriber long-polls, then restarts on its own directory,
//! from its checkpoints and the WAL tails behind them.

use crate::client::TimedClient;
use crate::layers;
use crate::measure::{peak_rss_mb, secs, write_trace, SETUPS};
use crate::report::{Report, RunCfg};
use crate::stats;
use crate::trace;
use crate::world;
use sift_core::{
    detect_spikes, plan_frames, IncrementalDetector, Spike, StreamStitcher, StudyParams, Timeline,
};
use sift_geo::State;
use sift_journal::Journal;
use sift_net::{HttpClient, Request};
use sift_serve::{Daemon, ServeConfig, SpikesReply};
use sift_simtime::{Hour, HourRange, SimClock, STUDY_RANGE};
use sift_trends::{FrameRequest, SearchTerm, TrendsClient, TrendsService};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` the live phase is spread over; the rest is for
/// backfill and restart.
const LIVE_SHARE: f64 = 0.7;

/// Restarts per run; `wall_s` is the median of their catch-up times.
const RESTARTS: usize = 7;

struct Sizes {
    regions: usize,
    range: HourRange,
}

struct Ctx {
    service: Arc<TrendsService>,
    cfg: ServeConfig,
    /// The frames the daemon ingests (see [`ingested_plan`]).
    frames: Vec<HourRange>,
    clock: Arc<SimClock>,
    daemon: Daemon,
}

/// The plan's frames, less the last one when their count is a multiple
/// of the checkpoint cadence: a region checkpoints and truncates its WAL
/// every `checkpoint_every` frames, and the restart is to find a WAL
/// tail to replay behind every checkpoint, not 51 empty journals.
fn ingested_plan(cfg: &ServeConfig) -> Vec<HourRange> {
    let mut frames = plan_frames(cfg.range, cfg.plan).frames;
    if frames.len() as u64 % cfg.checkpoint_every.max(1) == 0 {
        frames.pop();
    }
    frames
}

/// WAL records each region left behind its last checkpoint at shutdown.
fn wal_tails(dir: &Path, regions: &[State]) -> Vec<usize> {
    regions
        .iter()
        .map(|r| {
            Journal::open(&dir.join(r.abbrev()).join("region.wal"))
                .map_or(0, |(_, recovery)| recovery.records.len())
        })
        .collect()
}

/// Builds the world and starts the daemon on `dir`. A traced run puts a
/// [`TimedClient`] between the daemon and the service.
fn setup(seed: u64, s: &Sizes, dir: &Path, traced: bool) -> (Ctx, Option<Arc<TimedClient>>) {
    let regions = world::regions(s.regions);
    let service = world::build_service(seed, 1.0, &regions);
    let mut cfg = ServeConfig::new(SearchTerm::parse("topic:Internet outage"), regions, s.range);
    cfg.workers = 4;
    let frames = ingested_plan(&cfg);
    let clock = Arc::new(SimClock::new(s.range.start));
    let timed = traced.then(|| Arc::new(TimedClient::in_process(Arc::clone(&service) as _)));
    let client: Arc<dyn TrendsClient> = match &timed {
        Some(timed) => Arc::clone(timed) as _,
        None => Arc::clone(&service) as _,
    };
    let daemon = Daemon::start(cfg.clone(), client, Arc::clone(&clock), dir).expect("start daemon");
    let ctx = Ctx {
        service,
        cfg,
        frames,
        clock,
        daemon,
    };
    (ctx, timed)
}

/// One timed read.
struct Read {
    ms: f64,
    full: bool,
    bytes: usize,
    status: u16,
    staleness_ms: Option<f64>,
    degraded: bool,
}

/// The closed-loop reader: one keep-alive connection, regions in turn,
/// an incremental `since=` read except every 8th, which is a full dump.
fn reader(addr: SocketAddr, regions: Vec<State>, start: Hour, stop: Arc<AtomicBool>) -> Vec<Read> {
    let client = HttpClient::new(addr).with_timeout(Duration::from_secs(30));
    let mut watermark: Vec<i64> = vec![start.0; regions.len()];
    let mut reads = Vec::new();
    let mut i = 0usize;
    while !stop.load(Ordering::SeqCst) {
        let slot = i % regions.len();
        let region = regions[slot];
        let full = i % 8 == 7;
        let path = if full {
            format!("/spikes?region={region}")
        } else {
            format!("/spikes?region={region}&since={}", watermark[slot] - 168)
        };
        let span = trace::span(if full {
            "serve.full_read"
        } else {
            "serve.read"
        });
        let t = Instant::now();
        let resp = client.send(&Request::get(path));
        let ms = secs(t) * 1e3;
        drop(span);
        match resp {
            Ok(resp) => {
                if let Ok(reply) = resp.parse_json::<SpikesReply>() {
                    watermark[slot] = reply.watermark;
                }
                reads.push(Read {
                    ms,
                    full,
                    bytes: resp.body.len(),
                    status: resp.status.0,
                    staleness_ms: resp
                        .headers
                        .get("x-sift-staleness-ms")
                        .and_then(|v| v.parse().ok()),
                    degraded: resp.headers.get("x-sift-degraded").is_some(),
                });
            }
            Err(_) => reads.push(Read {
                ms,
                full,
                bytes: 0,
                status: 0,
                staleness_ms: None,
                degraded: false,
            }),
        }
        i += 1;
    }
    reads
}

/// The long-poll subscriber: returns the instants at which it was told
/// of newly sealed spikes, and how many of its polls failed.
fn subscriber(
    addr: SocketAddr,
    region: State,
    mut cursor: u64,
    stop: Arc<AtomicBool>,
) -> (Vec<Instant>, u64) {
    let client = HttpClient::new(addr).with_timeout(Duration::from_secs(30));
    let (mut notified, mut failed) = (Vec::new(), 0u64);
    while !stop.load(Ordering::SeqCst) {
        let span = trace::span("serve.notify");
        let resp = client.send(&Request::get(format!(
            "/spikes/subscribe?region={region}&cursor={cursor}"
        )));
        let at = Instant::now();
        drop(span);
        match resp.map(|r| (r.status.is_success(), r.parse_json::<SpikesReply>())) {
            Ok((true, Ok(reply))) => {
                if reply.cursor > cursor {
                    notified.push(at);
                    cursor = reply.cursor;
                }
            }
            // The daemon draining at the end of the live phase answers
            // the parked poll early or refuses the next one.
            _ if stop.load(Ordering::SeqCst) => break,
            _ => failed += 1,
        }
    }
    (notified, failed)
}

/// Replays one region's tag-0 frames through the streaming stitcher and
/// the incremental detector in memory, as the daemon applies them.
struct Replay {
    sealed: Vec<Spike>,
    /// The same series through batch `detect_spikes`.
    batch: Vec<Spike>,
    /// Sealed plus what `finish` closes: must equal `batch`.
    finished: Vec<Spike>,
    max_raw: f64,
}

fn replay_region(
    service: &TrendsService,
    cfg: &ServeConfig,
    frames: &[HourRange],
    state: State,
) -> Replay {
    let keep = usize::try_from(cfg.plan.frame_len).unwrap_or(usize::MAX);
    let mut stitcher = StreamStitcher::new(state, cfg.range.start, keep);
    let mut detector = IncrementalDetector::new(state, cfg.range.start, cfg.detect);
    let (mut sealed, mut raw, mut new_values) = (Vec::new(), Vec::new(), Vec::new());
    for frame in frames {
        let resp = service
            .fetch_frame(&FrameRequest {
                term: cfg.term.clone(),
                state,
                start: frame.start,
                len: cfg.plan.frame_len,
                tag: 0,
            })
            .expect("reference frame");
        stitcher
            .append(&resp, &mut new_values)
            .expect("reference stitch");
        detector.append(&new_values, &mut sealed);
        raw.extend_from_slice(&new_values);
    }
    let mut finished = sealed.clone();
    detector.finish(&mut finished);
    let batch = detect_spikes(
        &Timeline {
            state,
            start: cfg.range.start,
            values: raw,
        },
        &cfg.detect,
    );
    Replay {
        sealed,
        batch,
        finished,
        max_raw: stitcher.max_raw(),
    }
}

fn caught_up(ok: bool) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| "timed out".into())
}

fn positions(spikes: &[Spike]) -> Vec<(Hour, Hour, Hour)> {
    spikes.iter().map(|s| (s.start, s.peak, s.end)).collect()
}

pub fn run(cfg: &RunCfg) -> Report {
    let s = if cfg.smoke {
        Sizes {
            regions: 4,
            range: HourRange::new(Hour(0), Hour(2_016)),
        }
    } else {
        Sizes {
            regions: 51,
            range: STUDY_RANGE,
        }
    };
    let mut report = Report::default();
    let dir = cfg.state_dir.join("daemon");

    // Set-up, several times over, each on an empty directory: world,
    // service, daemon. The last daemon is the one the run measures: the
    // clock jumps to the end of the first half of the plan and it catches
    // up (the backfill). With tracing on, the set-up before the last also
    // backfills, untraced, for the traced one to be compared with.
    let (mut setup_times, mut backfills) = (Vec::new(), Vec::new());
    let (ctx, timed, root) = loop {
        let index = setup_times.len();
        let last = index + 1 == SETUPS;
        let traced = cfg.trace && last;
        let t = Instant::now();
        // One pass, so its world is the panel's: see `world::pass_world`.
        let (ctx, timed) = setup(world::pass_world(cfg.seed, 0, 1), &s, &dir, traced);
        setup_times.push(secs(t));

        trace::enable(traced);
        let root = trace::span("serve.run");
        if last || (cfg.trace && index + 2 == SETUPS) {
            let half = ctx.frames.len() / 2;
            let _span = trace::span("serve.backfill");
            let t = Instant::now();
            ctx.clock.set(ctx.frames[half - 1].end);
            let ok = ctx.daemon.wait_caught_up(Duration::from_secs(150));
            backfills.push(secs(t));
            report.check("backfill_catches_up", caught_up(ok));
        }
        if last {
            break (ctx, timed, root);
        }
        ctx.daemon.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    };
    let Ctx {
        service,
        cfg: serve_cfg,
        frames,
        clock,
        daemon,
    } = ctx;
    let regions = serve_cfg.regions.clone();
    let half = frames.len() / 2;
    let ticks = frames.len() - half;
    let interval = Duration::from_secs_f64(cfg.seconds * LIVE_SHARE / ticks as f64);
    report.note(format!(
        "sizes: scale 1 regions {} hours {} frames {} (backfill {half}, live {ticks} ticks every {:.1} ms)",
        regions.len(),
        s.range.len(),
        frames.len(),
        interval.as_secs_f64() * 1e3
    ));
    let backfill_s = *backfills.last().expect("a backfill ran");
    let backfill_frames = (regions.len() * half) as f64;

    // ---- live: an open loop of one tick per interval; tick k is due at
    // live_start + k * interval whatever the daemon is doing.
    let stop = Arc::new(AtomicBool::new(false));
    let reader_thread = {
        let (addr, regions, stop) = (daemon.addr(), regions.clone(), Arc::clone(&stop));
        let start = s.range.start;
        std::thread::spawn(move || reader(addr, regions, start, stop))
    };
    let subscriber_thread = {
        let cursor = daemon.spikes(State::TX).map_or(0, |r| r.cursor);
        let (addr, stop) = (daemon.addr(), Arc::clone(&stop));
        std::thread::spawn(move || subscriber(addr, State::TX, cursor, stop))
    };
    let live_span = trace::span("serve.live");
    let live_start = Instant::now();
    let due = |k: usize| live_start + interval * k as u32;
    let (mut issued, mut confirmed) = (0usize, 0usize);
    let (mut lag_ms, mut late_ms_max) = (Vec::with_capacity(ticks), 0.0f64);
    let give_up = due(ticks) + Duration::from_secs(60);
    while confirmed < ticks && Instant::now() < give_up {
        let now = Instant::now();
        if issued < ticks && now >= due(issued) {
            let _span = trace::span("serve.tick");
            late_ms_max = late_ms_max.max((now - due(issued)).as_secs_f64() * 1e3);
            clock.set(frames[half + issued].end);
            issued += 1;
        }
        // A tick is ingested once every region holds its frame.
        let ingested = daemon
            .status()
            .regions
            .iter()
            .map(|r| r.frames_ingested)
            .min()
            .unwrap_or(0) as usize;
        let now = Instant::now();
        while confirmed < issued && ingested > half + confirmed {
            lag_ms.push((now - due(confirmed)).as_secs_f64() * 1e3);
            confirmed += 1;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    drop(live_span);
    report.check(
        "live_ticks_all_ingested",
        (confirmed == ticks)
            .then_some(())
            .ok_or(format!("{confirmed} of {ticks} ticks ingested")),
    );
    stop.store(true, Ordering::SeqCst);
    let reads = reader_thread.join().expect("reader panicked");
    let rss = peak_rss_mb();

    // ---- restart on the same directory, several times over: shut down,
    // start, catch up from each region's checkpoint and the WAL tail
    // behind it (a restart checkpoints nothing, so every one replays the
    // same tail). No frame is fetched and nothing is fsynced on this
    // path, so unlike the backfill its time does not follow the disk.
    let before: Vec<Vec<Spike>> = regions
        .iter()
        .map(|r| daemon.spikes(*r).map_or(Vec::new(), |reply| reply.spikes))
        .collect();
    daemon.shutdown();
    let tails = wal_tails(&dir, &regions);
    report.check(
        "restart_replays_a_wal_tail",
        tails.iter().all(|n| *n > 0).then_some(()).ok_or(format!(
            "{} of {} regions shut down with an empty WAL",
            tails.iter().filter(|n| **n == 0).count(),
            tails.len()
        )),
    );
    let (notified, failed_polls) = subscriber_thread.join().expect("subscriber panicked");
    let client: Arc<dyn TrendsClient> = match &timed {
        Some(timed) => Arc::clone(timed) as Arc<dyn TrendsClient>,
        None => Arc::clone(&service) as Arc<dyn TrendsClient>,
    };
    let mut restarts = Vec::with_capacity(RESTARTS);
    let mut after = Vec::new();
    for _ in 0..RESTARTS {
        let span = trace::span("serve.restart");
        let t = Instant::now();
        let daemon = Daemon::start(
            serve_cfg.clone(),
            Arc::clone(&client),
            Arc::clone(&clock),
            &dir,
        )
        .expect("restart daemon");
        let ok = daemon.wait_caught_up(Duration::from_secs(120));
        restarts.push(secs(t));
        drop(span);
        report.check("restart_catches_up", caught_up(ok));
        after = regions
            .iter()
            .map(|r| daemon.spikes(*r).map_or(Vec::new(), |reply| reply.spikes))
            .collect();
        daemon.shutdown();
        report.check(
            "restart_serves_the_same_spikes",
            (before == after)
                .then_some(())
                .ok_or_else(|| "spikes changed across restart".into()),
        );
    }
    drop(root);
    trace::enable(false);
    let restart_s = stats::median(&restarts);
    let requests = service.stats().frames_served;

    // ---- output check against an in-memory replay of the same tag-0
    // frames, and that replay against batch detection.
    let mut served: Vec<Spike> = Vec::new();
    let mut mismatch = None;
    for (state, sealed) in regions.iter().zip(&after) {
        let replay = replay_region(&service, &serve_cfg, &frames, *state);
        if positions(sealed) != positions(&replay.sealed) && mismatch.is_none() {
            mismatch = Some(format!(
                "{state}: daemon sealed {} spikes, replay {}",
                sealed.len(),
                replay.sealed.len()
            ));
        }
        if replay.finished != replay.batch && mismatch.is_none() {
            mismatch = Some(format!(
                "{state}: incremental replay differs from batch detection"
            ));
        }
        // Served magnitudes are on the first frame's scale; rescale to
        // the global 0-100 scale the ground-truth scoring expects.
        let scale = if replay.max_raw > 0.0 {
            100.0 / replay.max_raw
        } else {
            1.0
        };
        served.extend(sealed.iter().map(|s| Spike {
            magnitude: s.magnitude * scale,
            ..*s
        }));
    }
    report.check(
        "sealed_spikes_equal_batch_positions",
        mismatch.map_or(Ok(()), Err),
    );

    let non2xx = reads
        .iter()
        .filter(|r| !(200..300).contains(&r.status))
        .count() as u64;
    report.check(
        "every_read_2xx",
        (non2xx + failed_polls == 0).then_some(()).ok_or(format!(
            "{non2xx} reads and {failed_polls} long-polls were not answered 2xx"
        )),
    );
    report.attempted += requests + reads.len() as u64 + notified.len() as u64 + failed_polls;
    report.failed += non2xx + failed_polls + timed.as_ref().map_or(0, |t| t.failed());

    let ingested = HourRange::new(s.range.start, frames[frames.len() - 1].end);
    let truth = world::score_truth(service.ground_truth(), &served, ingested, &regions);
    let frames_ingested = (regions.len() * frames.len()) as f64;
    let mut incr_ms: Vec<f64> = reads.iter().filter(|r| !r.full).map(|r| r.ms).collect();
    let mut full_ms: Vec<f64> = reads.iter().filter(|r| r.full).map(|r| r.ms).collect();
    report.note(format!(
        "backfill {:.3} s ({:.0} frames/s), {} lag samples, {} incremental + {} full reads, {} notifications, WAL tails of {}..{} records, restarts {:.1?} ms",
        backfill_s,
        backfill_frames / backfill_s,
        lag_ms.len(),
        incr_ms.len(),
        full_ms.len(),
        notified.len(),
        tails.iter().min().copied().unwrap_or(0),
        tails.iter().max().copied().unwrap_or(0),
        restarts.iter().map(|r| r * 1e3).collect::<Vec<_>>()
    ));

    if !cfg.trace {
        let mut scores = world::Scores::default();
        scores.record(requests, &truth);
        report.end_to_end(&setup_times, &restarts, &scores, rss);
        return report;
    }

    // ---- Per-layer numbers.
    let spans = trace::drain();
    write_trace(&cfg.out_dir, cfg.workload, "serve.run", &spans, &mut report);
    let totals = trace::totals_by_name(&spans);
    report.traced_walls(backfills[0], backfill_s, 1);
    if let Some(t) = totals.get("trends.frame") {
        report.metric("trends.frame_calls", t.calls as f64);
        report.metric("trends.frame_busy_s", t.busy_ns as f64 / 1e9);
        report.metric(
            "trends.frame_us_p50",
            stats::median(&trace::durations(&spans, "trends.frame")) / 1e3,
        );
    }
    report.metric("net.non2xx", (non2xx + failed_polls) as f64);
    report.metric("serve.frames_ingested", frames_ingested);
    report.metric("serve.backfill_s", backfill_s);
    report.metric("backfill_frames_per_s", backfill_frames / backfill_s);
    report.metric("ingest_lag_p50_ms", stats::median(&lag_ms));
    report.metric(
        "ingest_lag_p90_ms",
        stats::capped_percentile(&mut lag_ms, 0.90),
    );
    report.metric("read_p50_ms", stats::median(&incr_ms));
    report.metric("read_p99_ms", stats::capped_percentile(&mut incr_ms, 0.99));
    report.metric("serve.ticks", ticks as f64);
    report.metric("serve.tick_late_ms_max", late_ms_max);
    report.metric("serve.reads", reads.len() as f64);
    let bytes: Vec<f64> = reads.iter().map(|r| r.bytes as f64).collect();
    report.metric("serve.read_bytes_p50", stats::median(&bytes));
    report.metric(
        "serve.full_read_p50_ms",
        stats::capped_percentile(&mut full_ms, 0.5),
    );
    // A notification's latency runs from the due time of the latest tick
    // at or before it.
    let mut notify_ms: Vec<f64> = notified
        .iter()
        .filter(|at| **at >= live_start)
        .map(|at| {
            let k = ((*at - live_start).as_secs_f64() / interval.as_secs_f64()) as usize;
            (*at - due(k.min(ticks - 1))).as_secs_f64() * 1e3
        })
        .collect();
    report.metric("serve.notify_count", notify_ms.len() as f64);
    report.metric("serve.notify_p50_ms", stats::median(&notify_ms));
    report.metric(
        "serve.notify_p90_ms",
        stats::capped_percentile(&mut notify_ms, 0.90),
    );
    let staleness: Vec<f64> = reads.iter().filter_map(|r| r.staleness_ms).collect();
    report.metric("serve.staleness_header_p50_ms", stats::median(&staleness));
    report.metric(
        "serve.degraded_reads",
        reads.iter().filter(|r| r.degraded).count() as f64,
    );
    report.metric(
        "serve.shed_reads",
        reads.iter().filter(|r| r.status == 503).count() as f64,
    );
    report.metric("serve.restart_ms", restart_s * 1e3);

    let captured = timed
        .expect("a traced run has a timed client")
        .take_captured();
    let params = StudyParams {
        range: serve_cfg.range,
        regions: regions.clone(),
        term: serve_cfg.term.clone(),
        plan: serve_cfg.plan,
        detect: serve_cfg.detect,
        ..StudyParams::default()
    };
    layers::replay_pipeline(&captured, &[], &params, &mut report);
    layers::microbench(&service, &params, &cfg.state_dir, cfg.smoke, &mut report);
    report.failed_share();
    report
}
