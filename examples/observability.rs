//! Live telemetry: crawl a rate-limited trends service over HTTP, then
//! scrape the server's own `GET /metrics` endpoint — request latencies by
//! route, per-identity 429 counts, crawl throughput and study-stage span
//! timings, all in Prometheus text format. The run's trace tree (client
//! and server spans joined across the HTTP boundary by `X-Sift-Trace`),
//! recorded because its root is opened with `span_recorded`, is exported as Chrome trace-event JSON — load it at
//! <https://ui.perfetto.dev> — and summarized as a critical-path report.
//!
//! Run with: `cargo run --release --example observability`
//!
//! Set `SIFT_OBS_HOLD_SECS=60` to keep the server up after the crawl so an
//! external scraper can pull the same exposition:
//!
//! ```bash
//! SIFT_OBS_HOLD_SECS=60 cargo run --release --example observability &
//! curl http://<printed addr>/metrics
//! ```

use sift::core::{run_study, StudyParams};
use sift::fetcher::{trends_router, HttpTrendsClient, RoundRobin, TrendsClient};
use sift::geo::State;
use sift::net::{HttpClient, RateLimiterConfig, Request, Server};
use sift::simtime::{Hour, HourRange};
use sift::trends::{Scenario, ScenarioParams, TrendsService};
use std::sync::Arc;

fn main() {
    let scenario = Scenario::generate(ScenarioParams {
        background_scale: 0.1,
        ..ScenarioParams::default()
    });
    let service = Arc::new(TrendsService::with_defaults(scenario));
    let server = Server::new(trends_router(Arc::clone(&service)))
        .with_rate_limiter(RateLimiterConfig {
            capacity: 20.0,
            refill_per_sec: 40.0,
            ..RateLimiterConfig::default()
        })
        .with_workers(8)
        .bind("127.0.0.1:0")
        .expect("bind server");
    println!("trends service listening on http://{}", server.addr());

    // Two fetcher units behind distinct identities crawl one spring month.
    let units: Vec<Arc<dyn TrendsClient>> = (1..=2)
        .map(|i| {
            Arc::new(HttpTrendsClient::new(server.addr(), format!("127.0.0.{i}")))
                as Arc<dyn TrendsClient>
        })
        .collect();
    let client = RoundRobin::new(units);
    let params = StudyParams {
        range: HourRange::new(
            Hour::from_ymdh(2020, 3, 1, 0),
            Hour::from_ymdh(2020, 4, 30, 0),
        ),
        regions: vec![State::CA, State::TX],
        daily_rising: false,
        threads: 2,
        ..StudyParams::default()
    };
    println!("running the SIFT study over HTTP ...");
    // A recorded root span here makes the whole crawl one trace: the
    // study's pipeline spans, every HTTP attempt the queue issues, and
    // the server-side serve spans (joined via the X-Sift-Trace header,
    // which carries the recorded mark) all land in a single tree that
    // completes when the last one closes. Without it nothing is kept.
    // The per-stage table printed below is the study's own: its root
    // span's tally of every pipeline stage and HTTP attempt, recorded or
    // not. The server's serve spans join the trace by header, which
    // carries no tally, so they time into `/metrics` alone.
    let run_span = sift::obs::span_recorded("observability");
    let trace_id = run_span.context().trace_id;
    let result = run_study(&client, &params).expect("study over http");
    drop(run_span);
    println!(
        "{} spikes; {} frames requested\n\nper-stage telemetry:\n{}",
        result.spikes.len(),
        result.stats.frames_requested,
        result.stats.telemetry
    );

    // Export the finished trace for Perfetto and walk its critical path.
    let trace = sift::obs::trace::wait_completed(trace_id, std::time::Duration::from_secs(10))
        .expect("run trace completes");
    let trace_path = std::path::Path::new("target").join("observability-trace.json");
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write(&trace_path, sift::obs::chrome_trace_json(&trace)).expect("write trace export");
    println!(
        "exported {} spans ({} client request attempts, {} server serves) -> {}",
        trace.spans.len(),
        trace.spans.iter().filter(|s| s.name == "request").count(),
        trace.spans.iter().filter(|s| s.name == "serve").count(),
        trace_path.display()
    );
    let cp = sift::obs::critical_path(&trace).expect("trace has a root");
    print!("{cp}");

    // Scrape our own server the way any Prometheus collector would.
    let scrape = HttpClient::new(server.addr());
    let resp = scrape
        .send(&Request::get("/metrics"))
        .expect("scrape /metrics");
    let text = String::from_utf8_lossy(&resp.body);
    println!(
        "scraped /metrics: {} series lines; a sample:",
        text.lines().count()
    );
    for line in text.lines().filter(|l| {
        l.starts_with("sift_http_request_seconds_count")
            || l.starts_with("sift_trends_frames_served_total")
            || l.starts_with("sift_ratelimit_rejected_total")
            || l.starts_with("sift_span_seconds_count")
    }) {
        println!("  {line}");
    }

    let hold = std::env::var("SIFT_OBS_HOLD_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    if hold > 0 {
        println!(
            "\nholding the server for {hold}s — scrape http://{}/metrics",
            server.addr()
        );
        std::thread::sleep(std::time::Duration::from_secs(hold));
    }
    server.shutdown();
    println!("server shut down cleanly");
}
