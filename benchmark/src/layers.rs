//! The layers pass of a traced run: replays the inputs captured at the
//! client boundary through each layer's public functions, and times the
//! layers no workload reaches, all from outside the program.

use crate::client::{Captured, Logged};
use crate::measure::secs;
use crate::report::Report;
use crate::stats;
use crate::trace::{self, PerPass, SpanRec};
use bytes::BytesMut;
use sift_core::{
    area, context, detect_spikes, plan_frames, stitch, IncrementalDetector, RegionOutcome,
    StreamStitcher, StudyParams, Timeline,
};
use sift_fetcher::{trends_router, CollectionRun, InProcessClient, ResponseStore, WorkItem};
use sift_journal::{read_checkpoint, write_checkpoint, Journal};
use sift_net::http::{parse_request, serialize_request};
use sift_net::{HttpClient, RateLimiter, RateLimiterConfig, Request, Server};
use sift_nlp::{cluster_phrases, Embedding};
use sift_simtime::{Hour, HourRange};
use sift_trends::{
    FetchError, FrameRequest, FrameResponse, RisingRequest, RisingResponse, TrendsClient,
    TrendsService,
};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What replaying a captured request sequence against the in-process
/// service costs.
struct ServiceReplay {
    frame_calls: u64,
    frame_busy_s: f64,
    frame_us_p50: f64,
    rising_calls: u64,
    rising_busy_s: f64,
}

/// Replays `requests` against the in-process service: the time the same
/// sequence takes without a network in between.
fn replay_requests(service: &TrendsService, requests: &[Logged]) -> ServiceReplay {
    let mut frame_us = Vec::new();
    let (mut frame_busy_s, mut rising_busy_s, mut rising_calls) = (0.0, 0.0, 0u64);
    for req in requests {
        let t = Instant::now();
        match req {
            Logged::Frame(r) => {
                black_box(service.fetch_frame(r)).ok();
                let dt = secs(t);
                frame_busy_s += dt;
                frame_us.push(dt * 1e6);
            }
            Logged::Rising(r) => {
                black_box(service.fetch_rising(r)).ok();
                rising_busy_s += secs(t);
                rising_calls += 1;
            }
        }
    }
    ServiceReplay {
        frame_calls: frame_us.len() as u64,
        frame_busy_s,
        frame_us_p50: stats::median(&frame_us),
        rising_calls,
        rising_busy_s,
    }
}

/// What the traced study driver's spans say about `sift-core`,
/// `sift-trends` and `sift-net`, per traced pass. Over HTTP the service
/// runs behind the socket: it is priced by replaying the same request
/// sequence in process, and what is left of the round trips is the
/// network stack.
pub fn report_study_spans(
    spans: &[SpanRec],
    per_pass: &PerPass,
    service: &TrendsService,
    captured: &Captured,
    http: bool,
    report: &mut Report,
) {
    report.metric("core.region_calls", per_pass.calls("core.region"));
    report.metric("core.region_busy_s", per_pass.busy_s("core.region"));
    report.metric("core.region_self_s", per_pass.self_s("core.region"));
    report.metric("core.assemble_calls", per_pass.calls("core.assemble"));
    report.metric("core.assemble_busy_s", per_pass.busy_s("core.assemble"));
    if !http {
        report.metric("trends.frame_calls", per_pass.calls("trends.frame"));
        report.metric("trends.frame_busy_s", per_pass.busy_s("trends.frame"));
        report.metric(
            "trends.frame_us_p50",
            stats::median(&trace::durations(spans, "trends.frame")) / 1e3,
        );
        report.metric("trends.rising_calls", per_pass.calls("trends.rising"));
        report.metric("trends.rising_busy_s", per_pass.busy_s("trends.rising"));
        return;
    }
    let replay = replay_requests(service, &captured.requests);
    let roundtrips = per_pass.calls("net.roundtrip");
    let roundtrip_s = per_pass.busy_s("net.roundtrip");
    let overhead_s = roundtrip_s - replay.frame_busy_s - replay.rising_busy_s;
    report.metric("net.roundtrip_calls", roundtrips);
    report.metric("net.roundtrip_busy_s", roundtrip_s);
    report.metric("net.overhead_s", overhead_s);
    report.metric(
        "net.overhead_us_per_req",
        overhead_s * 1e6 / roundtrips.max(1.0),
    );
    report.metric("trends.frame_calls", replay.frame_calls as f64);
    report.metric("trends.frame_busy_s", replay.frame_busy_s);
    report.metric("trends.frame_us_p50", replay.frame_us_p50);
    report.metric("trends.rising_calls", replay.rising_calls as f64);
    report.metric("trends.rising_busy_s", replay.rising_busy_s);
}

/// Replays captured round-0 frames, final timelines and suggestion lists
/// through `sift-core` and `sift-nlp`.
pub fn replay_pipeline(
    captured: &Captured,
    outcomes: &[RegionOutcome],
    params: &StudyParams,
    report: &mut Report,
) {
    let t = Instant::now();
    for _ in 0..1_000 {
        black_box(plan_frames(black_box(params.range), params.plan));
    }
    report.metric("core.plan_us", secs(t) * 1e6 / 1_000.0);

    // Batch and streaming stitch over each region's round-0 frames.
    let (mut stitch_calls, mut stitch_s) = (0u64, 0.0);
    let (mut stream_calls, mut stream_s) = (0u64, 0.0);
    let keep = usize::try_from(params.plan.frame_len).unwrap_or(usize::MAX);
    for (state, frames) in captured.round0_regions() {
        let refs: Vec<&FrameResponse> = frames.iter().collect();
        let t = Instant::now();
        black_box(stitch(&refs)).ok();
        stitch_s += secs(t);
        stitch_calls += 1;

        let mut stitcher = StreamStitcher::new(state, params.range.start, keep);
        let mut new_values = Vec::new();
        let t = Instant::now();
        for frame in frames {
            black_box(stitcher.append(frame, &mut new_values)).ok();
            stream_calls += 1;
        }
        stream_s += secs(t);
    }
    report.metric("core.stitch_calls", stitch_calls as f64);
    report.metric("core.stitch_busy_s", stitch_s);
    report.metric("core.stream_stitch_calls", stream_calls as f64);
    report.metric("core.stream_stitch_busy_s", stream_s);

    // Batch and incremental detection over each final timeline (the
    // streaming path sees it one frame step at a time).
    let timelines: Vec<Timeline> = if outcomes.is_empty() {
        captured
            .round0_regions()
            .filter_map(|(_, frames)| stitch(&frames.iter().collect::<Vec<_>>()).ok())
            .collect()
    } else {
        outcomes.iter().map(|o| o.timeline.clone()).collect()
    };
    let (mut detect_s, mut incr_s, mut incr_calls) = (0.0, 0.0, 0u64);
    let step = usize::try_from(params.plan.step).unwrap_or(84).max(1);
    for timeline in &timelines {
        let t = Instant::now();
        black_box(detect_spikes(timeline, &params.detect));
        detect_s += secs(t);

        let mut det = IncrementalDetector::new(timeline.state, timeline.start, params.detect);
        let mut out = Vec::new();
        let t = Instant::now();
        for chunk in timeline.values.chunks(step) {
            det.append(chunk, &mut out);
            incr_calls += 1;
        }
        det.finish(&mut out);
        incr_s += secs(t);
        black_box(out);
    }
    report.metric("core.detect_calls", timelines.len() as f64);
    report.metric("core.detect_busy_s", detect_s);
    report.metric("core.incr_detect_calls", incr_calls as f64);
    report.metric("core.incr_detect_busy_s", incr_s);

    if outcomes.is_empty() {
        return;
    }
    report.metric(
        "core.rounds_total",
        outcomes.iter().map(|o| f64::from(o.rounds)).sum(),
    );
    report.metric(
        "core.converged_regions",
        outcomes.iter().filter(|o| o.converged).count() as f64,
    );

    // The global phase, one public function at a time.
    let t = Instant::now();
    let sets = outcomes.iter().flat_map(|r| {
        r.spikes
            .iter()
            .map(|(_, sugg)| sugg.iter().map(|s| s.term.clone()).collect::<Vec<_>>())
    });
    let (heavy, _) = context::heavy_hitters(sets, params.context.heavy_hitter_mass);
    report.metric("core.heavy_hitters_calls", 1.0);
    report.metric("core.heavy_hitters_busy_s", secs(t));

    let mut spikes = Vec::new();
    let t = Instant::now();
    for r in outcomes {
        for (spike, suggestions) in &r.spikes {
            spikes.push(context::annotate(*spike, suggestions, &heavy, &params.context).spike);
        }
    }
    report.metric("core.annotate_calls", spikes.len() as f64);
    report.metric("core.annotate_busy_s", secs(t));

    spikes.sort_by_key(|s| (s.start, s.state.index()));
    let t = Instant::now();
    black_box(area::cluster_spikes(&spikes, params.cluster_slack_h));
    report.metric("core.cluster_spikes_calls", 1.0);
    report.metric("core.cluster_spikes_busy_s", secs(t));

    // sift-nlp on each spike's merged phrase list, as `annotate` builds it.
    let phrase_lists: Vec<Vec<(String, f64)>> = outcomes
        .iter()
        .flat_map(|r| r.spikes.iter())
        .map(|(_, suggestions)| {
            let mut merged: HashMap<&str, f64> = HashMap::new();
            for s in suggestions {
                *merged.entry(s.term.as_str()).or_insert(0.0) += f64::from(s.weight);
            }
            let mut phrases: Vec<(String, f64)> =
                merged.into_iter().map(|(p, w)| (p.to_owned(), w)).collect();
            phrases.sort_by(|a, b| a.0.cmp(&b.0));
            phrases
        })
        .collect();
    let t = Instant::now();
    for phrases in &phrase_lists {
        black_box(cluster_phrases(
            phrases,
            params.context.similarity_threshold,
        ));
    }
    report.metric("nlp.cluster_calls", phrase_lists.len() as f64);
    report.metric("nlp.cluster_busy_s", secs(t));

    let occurrences: usize = phrase_lists.iter().map(Vec::len).sum();
    let t = Instant::now();
    for (phrase, _) in phrase_lists.iter().flatten() {
        black_box(Embedding::of_phrase(phrase));
    }
    report.metric("nlp.phrases_total", occurrences as f64);
    report.metric("nlp.embed_calls", occurrences as f64);
    report.metric("nlp.embed_busy_s", secs(t));
    let distinct: HashSet<&str> = phrase_lists
        .iter()
        .flatten()
        .map(|(p, _)| p.as_str())
        .collect();
    report.metric(
        "nlp.distinct_phrase_share",
        distinct.len() as f64 / occurrences.max(1) as f64,
    );
}

/// A fetcher unit that accounts the time spent inside it, so the queue's
/// own cost is what remains.
struct BusyUnit {
    inner: InProcessClient,
    busy_ns: AtomicU64,
}

impl BusyUnit {
    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = call();
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl TrendsClient for BusyUnit {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        self.timed(|| self.inner.fetch_frame(req))
    }
    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
        self.timed(|| self.inner.fetch_rising(req))
    }
    fn identity(&self) -> &str {
        self.inner.identity()
    }
}

/// Times the layers the workloads do not reach (the fetcher queue), and
/// the primitives under the ones they do (HTTP stack, rate limiter,
/// journal, observability), at sizes fixed here.
pub fn microbench(
    service: &Arc<TrendsService>,
    params: &StudyParams,
    dir: &Path,
    smoke: bool,
    report: &mut Report,
) {
    let scale = if smoke { 10 } else { 1 };
    let regions = &params.regions;

    // ---- sift-net: the floor of the HTTP stack, and its pieces.
    let server = Server::new(trends_router(Arc::clone(service)))
        .with_workers(2)
        .bind("127.0.0.1:0")
        .expect("bind ping server");
    let client = HttpClient::new(server.addr());
    let ping = Request::get("/healthz");
    let mut ping_us = Vec::new();
    let mut non2xx = 0u64;
    for _ in 0..2_000 / scale {
        let t = Instant::now();
        match client.send(&ping) {
            Ok(resp) if resp.status.is_success() => ping_us.push(secs(t) * 1e6),
            _ => non2xx += 1,
        }
    }
    server.shutdown();
    report.metric("net.ping_us_p50", stats::median(&ping_us));
    report.attempted += 2_000 / scale as u64;
    report.failed += non2xx;

    let frame_req = FrameRequest {
        term: params.term.clone(),
        state: regions[0],
        start: params.range.start,
        len: params.plan.frame_len,
        tag: 0,
    };
    let post = Request::post_json("/api/frame", &frame_req).expect("encode frame request");
    let wire = serialize_request(&post);
    let n = 20_000 / scale;
    let t = Instant::now();
    for _ in 0..n {
        black_box(serialize_request(black_box(&post)));
    }
    report.metric("net.serialize_request_us", secs(t) * 1e6 / n as f64);
    let t = Instant::now();
    for _ in 0..n {
        let mut buf = BytesMut::from(&wire[..]);
        black_box(parse_request(&mut buf)).ok();
    }
    report.metric("net.parse_request_us", secs(t) * 1e6 / n as f64);

    let limiter = RateLimiter::new(RateLimiterConfig::default());
    let n = 200_000 / scale as u64;
    let t = Instant::now();
    for i in 0..n {
        // One request per 200 simulated ms: always inside the refill rate.
        black_box(limiter.check("10.0.0.1", i * 200));
    }
    report.metric("net.ratelimit_check_ns", secs(t) * 1e9 / n as f64);

    // ---- sift-fetcher: one round of frames through the queue with two
    // in-process units. Queue cost = thread time not spent inside units.
    let round_range = HourRange::new(
        params.range.start,
        Hour(params.range.start.0 + params.range.len().min(1_008)),
    );
    let frames = plan_frames(round_range, params.plan).frames;
    let items: Vec<WorkItem> = regions
        .iter()
        .flat_map(|&state| {
            frames.iter().map(move |f| (state, *f)).map(|(state, f)| {
                WorkItem::Frame(FrameRequest {
                    term: params.term.clone(),
                    state,
                    start: f.start,
                    len: u32::try_from(f.len()).unwrap_or(u32::MAX),
                    tag: 0,
                })
            })
        })
        .collect();
    let units: Vec<Arc<BusyUnit>> = (0..2)
        .map(|i| {
            Arc::new(BusyUnit {
                inner: InProcessClient::with_identity(Arc::clone(service), format!("unit-{i}")),
                busy_ns: AtomicU64::new(0),
            })
        })
        .collect();
    let run = CollectionRun::new(
        units
            .iter()
            .map(|u| Arc::clone(u) as Arc<dyn TrendsClient>)
            .collect(),
    );
    let mut store = ResponseStore::new();
    let n_items = items.len();
    let t = Instant::now();
    let run_report = run.execute(items, &mut store);
    let wall = secs(t);
    let inside: f64 = units
        .iter()
        .map(|u| u.busy_ns.load(Ordering::Relaxed) as f64 / 1e9)
        .sum();
    report.metric("fetcher.queue_items", run_report.completed as f64);
    report.metric(
        "fetcher.queue_us_per_item",
        (units.len() as f64 * wall - inside).max(0.0) * 1e6 / n_items.max(1) as f64,
    );
    report.attempted += n_items as u64;
    report.failed += (run_report.failed + run_report.shed) as u64;

    let (mut left, mut right) = (ResponseStore::new(), ResponseStore::new());
    for (i, &state) in regions.iter().enumerate() {
        let half = if i % 2 == 0 { &mut left } else { &mut right };
        for frame in store.frames_for(state, 0) {
            half.insert_frame(0, frame.clone());
        }
    }
    let t = Instant::now();
    black_box(left.merge(right));
    report.metric("fetcher.store_merge_ms", secs(t) * 1e3);

    // ---- sift-journal, on the run's own state directory (a real file
    // system, not tmpfs), with a frame-sized payload.
    let journal_dir = dir.join("journal-bench");
    std::fs::create_dir_all(&journal_dir).expect("create journal bench dir");
    let frame = store
        .frames_for(regions[0], 0)
        .first()
        .map(|f| serde_json::to_vec(*f).expect("encode frame"))
        .unwrap_or_else(|| vec![b'x'; 700]);

    let (mut journal, _) = Journal::open(&journal_dir.join("sync.wal")).expect("open journal");
    journal.set_sync_every(1);
    let mut sync_us = Vec::new();
    for _ in 0..200 / scale {
        let t = Instant::now();
        journal.append(&frame).expect("append");
        journal.sync().expect("sync");
        sync_us.push(secs(t) * 1e6);
    }
    report.metric("journal.append_sync_us_p50", stats::median(&sync_us));

    let replay_path = journal_dir.join("replay.wal");
    let (mut journal, _) = Journal::open(&replay_path).expect("open journal");
    let n = 10_000 / scale;
    let t = Instant::now();
    for _ in 0..n {
        journal.append(&frame).expect("append");
    }
    journal.sync().expect("sync");
    report.metric("journal.append_batched_us", secs(t) * 1e6 / n as f64);
    drop(journal);
    let t = Instant::now();
    let (_, recovery) = Journal::open(&replay_path).expect("reopen journal");
    report.metric(
        "journal.replay_records_per_s",
        recovery.records.len() as f64 / secs(t).max(1e-9),
    );

    // A region-sized blob: one region's round-0 frames, as the daemon's
    // checkpoint holds about a frame of state plus the sealed spikes.
    let blob: Vec<u8> = frame
        .iter()
        .copied()
        .cycle()
        .take(frame.len() * 24)
        .collect();
    let ckpt = journal_dir.join("bench.ckpt");
    let (mut write_us, mut read_us) = (Vec::new(), Vec::new());
    for _ in 0..50 / scale {
        let t = Instant::now();
        write_checkpoint(&ckpt, &blob, None).expect("write checkpoint");
        write_us.push(secs(t) * 1e6);
    }
    for _ in 0..200 / scale {
        let t = Instant::now();
        black_box(read_checkpoint(&ckpt)).expect("read checkpoint");
        read_us.push(secs(t) * 1e6);
    }
    report.metric("journal.checkpoint_write_us_p50", stats::median(&write_us));
    report.metric("journal.checkpoint_read_us_p50", stats::median(&read_us));
    std::fs::remove_dir_all(&journal_dir).ok();

    // ---- sift-obs: what the program pays per span and per counter.
    let n = 200_000 / scale;
    let t = Instant::now();
    for _ in 0..n {
        drop(black_box(sift_obs::span("bench.noop")));
    }
    report.metric("obs.span_ns", secs(t) * 1e9 / n as f64);
    let n = 1_000_000 / scale;
    let t = Instant::now();
    for _ in 0..n {
        sift_obs::counter("sift_benchmark_noop_total", &[]).inc();
    }
    report.metric("obs.counter_inc_ns", secs(t) * 1e9 / n as f64);
}
