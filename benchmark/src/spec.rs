//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the layer they belong to and the
//! end-to-end metric they should move. `BENCHMARK.json` is this table
//! rendered by `--emit-benchmark-json`; a test keeps the two in step.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The workload seed used when none is given.
pub const DEFAULT_SEED: u64 = 20_221_025;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "study_full",
        why: "In-process run_study on the scale-1.0 world with daily rising at T threads: serial assemble/annotate/NLP dominates, fetching is cheap.",
    },
    Workload {
        name: "crawl_http",
        why: "The same run_study at scale 0.25, one thread, no daily rising, over one keep-alive HTTP connection: fetching is about 60 % of wall and assemble 30-40 %, the reverse of study_full.",
    },
    Workload {
        name: "cluster_shards",
        why: "Durable coordinator and 2 workers over HTTP, 51 leased shards: measures the control plane (lease, heartbeat, WAL fsync), not the pipeline.",
    },
    Workload {
        name: "serve_online",
        why: "The daemon's streaming stitcher/detector with WAL-before-apply: backfill, open-loop live ticks under reads and a long-poll, then timed restarts.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these with tracing off.
///
/// The bounds of the timings and of the memory high-water mark come from
/// this machine's A/A runs (`BASELINE.json`): at least three times the
/// widest quartile spread seen across ten seeds on any workload, which
/// puts them at the contract's cap of 0.25, because the machine (a
/// two-core VM on a shared host and disk) itself drifts by 10-15 % over
/// minutes. The counts and ratios are measured on a fixed panel of
/// worlds (`world::pass_world`) and repeat exactly, whatever the seed, so
/// their bound is the regression a change may cost, not noise.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "requests_total",
        unit: "count",
        better: "lower",
        bound: 0.005,
    },
    EndToEnd {
        name: "event_recall",
        unit: "ratio",
        better: "higher",
        bound: 0.005,
    },
    EndToEnd {
        name: "spike_precision",
        unit: "ratio",
        better: "higher",
        bound: 0.005,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The workspace crate the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const TRENDS_FRAME: &str =
    "wall_s on study_full and crawl_http; backfill_frames_per_s on serve_online";
const TRENDS_RISING: &str = "wall_s on study_full; no move predicted on crawl_http";
const NET: &str =
    "wall_s on crawl_http and cluster_shards; read_p50_ms on serve_online; none on study_full";
const FETCHER: &str = "none: no workload drives the queue (recorded gap)";
const CORE_REGION: &str = "wall_s on study_full, crawl_http and cluster_shards";
const CORE_COUNTS: &str = "requests_total on the three batch workloads";
const CORE_STREAM: &str =
    "backfill_frames_per_s, ingest_lag_* and wall_s (the restart replays a 3-frame WAL tail a region) on serve_online";
const CORE_ASSEMBLE: &str =
    "wall_s on study_full (about 80 % of it) and crawl_http (30-40 %); barely on the other two";
const NLP: &str =
    "core.annotate_busy_s, then wall_s on study_full and, by its smaller share, on crawl_http";
const JOURNAL: &str =
    "backfill_frames_per_s, ingest_lag_* and wall_s (restart: 51 checkpoints read, 51 WAL tails replayed) on serve_online; wall_s on cluster_shards";
const CLUSTER: &str = "wall_s on cluster_shards only";
const SERVE: &str = "wall_s (restart) on serve_online";
const SERVE_LIVE: &str =
    "user-visible on serve_online; not gated (other workloads cannot report it, and it follows the disk)";
const OBS: &str = "wall_s everywhere, by the share tracing costs";
const HARNESS: &str = "none: describes the run";

/// Every workload reports every one of these with tracing on; a layer a
/// workload does not exercise reports 0.
#[rustfmt::skip] // one metric a line
pub const PER_LAYER: [PerLayer; 86] = [
    // sift-trends: time inside TrendsService::fetch_frame / fetch_rising.
    m("trends.frame_calls", "count", "lower", "sift-trends", TRENDS_FRAME),
    m("trends.frame_busy_s", "s", "lower", "sift-trends", TRENDS_FRAME),
    m("trends.frame_us_p50", "us", "lower", "sift-trends", TRENDS_FRAME),
    m("trends.rising_calls", "count", "lower", "sift-trends", TRENDS_RISING),
    m("trends.rising_busy_s", "s", "lower", "sift-trends", TRENDS_RISING),
    // sift-net
    m("net.roundtrip_calls", "count", "lower", "sift-net", NET),
    m("net.roundtrip_busy_s", "s", "lower", "sift-net", NET),
    m("net.overhead_s", "s", "lower", "sift-net", NET),
    m("net.overhead_us_per_req", "us", "lower", "sift-net", NET),
    m("net.ping_us_p50", "us", "lower", "sift-net", NET),
    m("net.parse_request_us", "us", "lower", "sift-net", NET),
    m("net.serialize_request_us", "us", "lower", "sift-net", NET),
    m("net.ratelimit_check_ns", "ns", "lower", "sift-net", NET),
    m("net.non2xx", "count", "lower", "sift-net", "failed on every workload"),
    // sift-fetcher
    m("fetcher.queue_items", "count", "higher", "sift-fetcher", FETCHER),
    m("fetcher.queue_us_per_item", "us", "lower", "sift-fetcher", FETCHER),
    m("fetcher.store_merge_ms", "ms", "lower", "sift-fetcher", FETCHER),
    // sift-core
    m("core.plan_us", "us", "lower", "sift-core", CORE_REGION),
    m("core.region_calls", "count", "lower", "sift-core", CORE_REGION),
    m("core.region_busy_s", "s", "lower", "sift-core", CORE_REGION),
    m("core.region_self_s", "s", "lower", "sift-core", CORE_REGION),
    m("core.rounds_total", "count", "lower", "sift-core", CORE_COUNTS),
    m("core.converged_regions", "count", "higher", "sift-core", CORE_COUNTS),
    m("core.stitch_calls", "count", "lower", "sift-core", CORE_REGION),
    m("core.stitch_busy_s", "s", "lower", "sift-core", CORE_REGION),
    m("core.detect_calls", "count", "lower", "sift-core", CORE_REGION),
    m("core.detect_busy_s", "s", "lower", "sift-core", CORE_REGION),
    m("core.stream_stitch_calls", "count", "lower", "sift-core", CORE_STREAM),
    m("core.stream_stitch_busy_s", "s", "lower", "sift-core", CORE_STREAM),
    m("core.incr_detect_calls", "count", "lower", "sift-core", CORE_STREAM),
    m("core.incr_detect_busy_s", "s", "lower", "sift-core", CORE_STREAM),
    m("core.assemble_calls", "count", "lower", "sift-core", CORE_ASSEMBLE),
    m("core.assemble_busy_s", "s", "lower", "sift-core", CORE_ASSEMBLE),
    m("core.heavy_hitters_calls", "count", "lower", "sift-core", CORE_ASSEMBLE),
    m("core.heavy_hitters_busy_s", "s", "lower", "sift-core", CORE_ASSEMBLE),
    m("core.annotate_calls", "count", "lower", "sift-core", CORE_ASSEMBLE),
    m("core.annotate_busy_s", "s", "lower", "sift-core", CORE_ASSEMBLE),
    m("core.cluster_spikes_calls", "count", "lower", "sift-core", CORE_ASSEMBLE),
    m("core.cluster_spikes_busy_s", "s", "lower", "sift-core", CORE_ASSEMBLE),
    // sift-nlp
    m("nlp.cluster_calls", "count", "lower", "sift-nlp", NLP),
    m("nlp.cluster_busy_s", "s", "lower", "sift-nlp", NLP),
    m("nlp.phrases_total", "count", "lower", "sift-nlp", NLP),
    m("nlp.embed_calls", "count", "lower", "sift-nlp", NLP),
    m("nlp.embed_busy_s", "s", "lower", "sift-nlp", NLP),
    m("nlp.distinct_phrase_share", "ratio", "lower", "sift-nlp", NLP),
    // sift-journal
    m("journal.append_sync_us_p50", "us", "lower", "sift-journal", JOURNAL),
    m("journal.append_batched_us", "us", "lower", "sift-journal", JOURNAL),
    m("journal.replay_records_per_s", "1/s", "higher", "sift-journal", JOURNAL),
    m("journal.checkpoint_write_us_p50", "us", "lower", "sift-journal", JOURNAL),
    m("journal.checkpoint_read_us_p50", "us", "lower", "sift-journal", JOURNAL),
    // sift-cluster
    m("cluster.shards", "count", "higher", "sift-cluster", CLUSTER),
    m("cluster.shards_per_worker_min", "count", "higher", "sift-cluster", CLUSTER),
    m("cluster.shards_per_worker_max", "count", "lower", "sift-cluster", CLUSTER),
    m("cluster.reference_wall_s", "s", "lower", "sift-cluster", CLUSTER),
    m("cluster.overhead_s", "s", "lower", "sift-cluster", CLUSTER),
    m("cluster.overhead_ms_per_shard", "ms", "lower", "sift-cluster", CLUSTER),
    m("cluster.regrants", "count", "lower", "sift-cluster", CLUSTER),
    m("cluster.status_roundtrip_us", "us", "lower", "sift-cluster", CLUSTER),
    // sift-serve
    m("serve.frames_ingested", "count", "higher", "sift-serve", HARNESS),
    m("serve.backfill_s", "s", "lower", "sift-serve", SERVE_LIVE),
    m("backfill_frames_per_s", "1/s", "higher", "sift-serve", SERVE_LIVE),
    m("ingest_lag_p50_ms", "ms", "lower", "sift-serve", SERVE_LIVE),
    m("ingest_lag_p90_ms", "ms", "lower", "sift-serve", SERVE_LIVE),
    m("read_p50_ms", "ms", "lower", "sift-serve", SERVE_LIVE),
    m("read_p99_ms", "ms", "lower", "sift-serve", SERVE_LIVE),
    m("serve.ticks", "count", "higher", "sift-serve", HARNESS),
    m("serve.tick_late_ms_max", "ms", "lower", "sift-serve", HARNESS),
    m("serve.reads", "count", "higher", "sift-serve", SERVE_LIVE),
    m("serve.read_bytes_p50", "bytes", "lower", "sift-serve", SERVE_LIVE),
    m("serve.full_read_p50_ms", "ms", "lower", "sift-serve", SERVE_LIVE),
    m("serve.notify_count", "count", "higher", "sift-serve", SERVE_LIVE),
    m("serve.notify_p50_ms", "ms", "lower", "sift-serve", SERVE_LIVE),
    m("serve.notify_p90_ms", "ms", "lower", "sift-serve", SERVE_LIVE),
    m("serve.staleness_header_p50_ms", "ms", "lower", "sift-serve", SERVE_LIVE),
    m("serve.degraded_reads", "count", "lower", "sift-serve", SERVE_LIVE),
    m("serve.shed_reads", "count", "lower", "sift-serve", SERVE_LIVE),
    m("serve.restart_ms", "ms", "lower", "sift-serve", SERVE),
    // sift-obs
    m("obs.span_ns", "ns", "lower", "sift-obs", OBS),
    m("obs.counter_inc_ns", "ns", "lower", "sift-obs", OBS),
    m("obs.trace_overhead_share", "ratio", "lower", "benchmark", HARNESS),
    // The run itself.
    m("trace.spans", "count", "lower", "benchmark", HARNESS),
    m("trace.accounted_share", "ratio", "higher", "benchmark", HARNESS),
    m("trace.wall_untraced_s", "s", "lower", "benchmark", HARNESS),
    m("trace.wall_traced_s", "s", "lower", "benchmark", HARNESS),
    m("failed_share", "ratio", "lower", "benchmark", "failed on every workload"),
    m("threads", "count", "higher", "benchmark", HARNESS),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether `name` keeps to the contract's charset and length.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            e.name, e.unit, e.better, e.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, p) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            p.name, p.unit, p.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_keep_to_the_charset_and_are_used_once() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|e| e.name))
            .chain(PER_LAYER.iter().map(|p| p.name));
        for name in names {
            assert!(valid_name(name), "{name:?} breaks [A-Za-z0-9_.-]{{1,64}}");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("slash/name"));
    }

    #[test]
    fn units_bounds_and_whys_keep_to_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes().all(|b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
                })
        };
        for e in &END_TO_END {
            assert!(unit_ok(e.unit), "{}", e.name);
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
            assert!(matches!(e.better, "lower" | "higher"));
        }
        for p in &PER_LAYER {
            assert!(unit_ok(p.unit), "{}", p.name);
            assert!(matches!(p.better, "lower" | "higher"));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }
}
