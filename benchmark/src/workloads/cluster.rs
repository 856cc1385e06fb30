//! `cluster_shards`: a durable coordinator and two workers crawl 51
//! leased shards over HTTP. The pipeline inside each shard is small; the
//! wall time is the control plane.

use crate::client::{Captured, TimedClient};
use crate::layers;
use crate::measure::{peak_rss_mb, secs, write_trace};
use crate::report::{Report, RunCfg};
use crate::stats;
use crate::trace;
use crate::workloads::batch::traced_study;
use crate::world;
use sift_cluster::{cluster_router, spawn_worker, ClusterConfig, Coordinator, WorkerConfig};
use sift_core::{run_study, RegionOutcome, StudyParams, StudyResult};
use sift_fetcher::{trends_router, HttpTrendsClient};
use sift_net::{HttpClient, Request, Server, ServerHandle};
use sift_simtime::{Hour, HourRange};
use sift_trends::{TrendsClient, TrendsService};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;

/// Passes every run makes whatever `--seconds` says (see `batch`).
const FIXED_PASSES: usize = 2;

struct Sizes {
    regions: usize,
    hours: i64,
}

struct Ctx {
    service: Arc<TrendsService>,
    trends: ServerHandle,
    params: StudyParams,
    /// The single-process study over the same HTTP server.
    reference: StudyResult,
    reference_wall_s: f64,
}

fn setup(seed: u64, s: &Sizes, traced: Option<&mut Option<TracedReference>>) -> Ctx {
    let regions = world::regions(s.regions);
    let service = world::build_service(seed, 0.25, &regions);
    let trends = Server::new(trends_router(Arc::clone(&service)))
        .with_workers(4)
        .bind("127.0.0.1:0")
        .expect("bind trends server");
    let params = StudyParams {
        range: HourRange::new(Hour(0), Hour(s.hours)),
        regions,
        daily_rising: false,
        threads: 1,
        ..StudyParams::default()
    };
    let client: Arc<dyn TrendsClient> =
        Arc::new(HttpTrendsClient::new(trends.addr(), "127.0.0.20"));
    let t = Instant::now();
    let reference = match traced {
        // A traced run takes its reference through the traced driver, so
        // the layers pass can replay what the shards computed.
        Some(slot) => {
            let timed = TimedClient::over_http(client);
            trace::enable(true);
            let (reference, outcomes) =
                traced_study(&timed, &params).expect("single-process reference study");
            trace::enable(false);
            *slot = Some(TracedReference {
                captured: timed.take_captured(),
                outcomes,
            });
            reference
        }
        None => run_study(client.as_ref(), &params).expect("single-process reference study"),
    };
    Ctx {
        service,
        trends,
        params,
        reference,
        reference_wall_s: secs(t),
    }
}

/// What the reference study of a traced run left for the layers pass.
struct TracedReference {
    captured: Captured,
    outcomes: Vec<RegionOutcome>,
}

struct ClusterRun {
    coord_setup_s: f64,
    wall_s: f64,
    result: Result<StudyResult, String>,
    shards_per_worker: Vec<usize>,
    regrants: u64,
    failed_shards: usize,
    /// Status polls of the traced observer that were not answered 2xx.
    failed_polls: u64,
}

/// One sharded crawl on a fresh coordinator directory.
fn cluster_run(ctx: &Ctx, dir: &Path) -> ClusterRun {
    let t = Instant::now();
    let (coord, recovery) = Coordinator::durable(ctx.params.clone(), ClusterConfig::default(), dir)
        .expect("durable coordinator");
    assert!(!recovery.had_state, "the coordinator directory is fresh");
    let coord = Arc::new(coord);
    let coord_server = Server::new(cluster_router(&coord))
        .with_workers(8)
        .bind("127.0.0.1:0")
        .expect("bind coordinator");
    let coord_setup_s = secs(t);

    let root = trace::span("cluster.run");
    let t = Instant::now();
    let workers: Vec<_> = {
        let _span = trace::span("cluster.spawn_workers");
        (0..WORKERS)
            .map(|i| {
                spawn_worker(
                    format!("bench-worker-{i}"),
                    coord_server.addr(),
                    ctx.trends.addr(),
                    ctx.params.clone(),
                    WorkerConfig::default(),
                )
            })
            .collect()
    };
    // With tracing on, an observer polls the status route the way an
    // operator's dashboard would.
    let stop = Arc::new(AtomicBool::new(false));
    let poller = (root.id() != 0).then(|| {
        let (stop, addr, root_id) = (Arc::clone(&stop), coord_server.addr(), root.id());
        std::thread::spawn(move || {
            let client = HttpClient::new(addr);
            let status = Request::get("/cluster/status");
            let mut non2xx = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let span = trace::span_under(root_id, "cluster.status_roundtrip");
                let ok = client.send(&status).is_ok_and(|r| r.status.is_success());
                drop(span);
                non2xx += u64::from(!ok);
                std::thread::sleep(Duration::from_millis(50));
            }
            non2xx
        })
    });
    let result = {
        let _span = trace::span("cluster.wait_result");
        coord.wait_result(Duration::from_secs(120))
    };
    let wall_s = secs(t);
    stop.store(true, Ordering::SeqCst);
    let shards_per_worker = {
        let _span = trace::span("cluster.join_workers");
        workers.into_iter().map(|w| w.join().shards_done).collect()
    };
    let failed_polls = poller.map_or(0, |p| p.join().expect("status poller panicked"));
    drop(root);

    let status = coord.status();
    let grants: u64 = status
        .shard_attempts
        .iter()
        .map(|(_, g)| u64::from(*g))
        .sum();
    coord_server.shutdown();
    std::fs::remove_dir_all(dir).ok();
    ClusterRun {
        coord_setup_s,
        wall_s,
        result: result.map_err(|e| e.to_string()),
        shards_per_worker,
        regrants: grants.saturating_sub(status.total as u64),
        failed_shards: status.failed,
        failed_polls,
    }
}

/// Counts a sharded run's operations and checks it against the
/// single-process reference.
fn account(report: &mut Report, ctx: &Ctx, run: &ClusterRun) {
    report.attempted += ctx.params.regions.len() as u64;
    report.failed += run.failed_shards as u64 + run.failed_polls;
    match &run.result {
        Ok(result) => {
            report.attempted += result.stats.frames_requested + result.stats.rising_requested;
            report.failed += result.stats.frames_degraded;
            report.check(
                "sharded_equals_single_process",
                world::same_result(result, &ctx.reference),
            );
        }
        Err(e) => report.check("sharded_study_completes", Err(e.clone())),
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let s = if cfg.smoke {
        Sizes {
            regions: 4,
            hours: 1_008,
        }
    } else {
        Sizes {
            regions: 51,
            hours: 2_016,
        }
    };
    let fixed_passes = if cfg.trace || cfg.smoke {
        1
    } else {
        FIXED_PASSES
    };
    let mut report = Report::default();
    report.note(format!(
        "sizes: scale 0.25 regions {} hours {} workers {WORKERS} (default ClusterConfig / WorkerConfig)",
        s.regions, s.hours
    ));

    let (mut setup_times, mut walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut scores = world::Scores::default();
    let mut traced_reference = None;
    let mut last: Option<(Ctx, ClusterRun)> = None;
    let mut measured = 0.0;
    while walls.len() < fixed_passes || measured < cfg.seconds {
        let pass = walls.len();
        drop(last.take());
        trace::set_run(pass as u32);
        let dir = cfg.state_dir.join(format!("coord-{pass}"));
        let t = Instant::now();
        let ctx = setup(
            world::pass_world(cfg.seed, pass, fixed_passes),
            &s,
            cfg.trace.then_some(&mut traced_reference),
        );
        let world_setup_s = secs(t);

        let run = cluster_run(&ctx, &dir);
        setup_times.push(world_setup_s + run.coord_setup_s);
        walls.push(run.wall_s);
        measured += run.wall_s;
        account(&mut report, &ctx, &run);
        let run = if cfg.trace {
            trace::enable(true);
            let traced = cluster_run(&ctx, &dir);
            trace::enable(false);
            traced_walls.push(traced.wall_s);
            measured += traced.wall_s;
            account(&mut report, &ctx, &traced);
            traced
        } else {
            run
        };

        if pass < fixed_passes {
            let truth = world::score_truth(
                ctx.service.ground_truth(),
                &ctx.reference.bare_spikes(),
                ctx.params.range,
                &ctx.params.regions,
            );
            let stats = &ctx.reference.stats;
            scores.record(stats.frames_requested + stats.rising_requested, &truth);
        }
        report.note(format!(
            "pass {pass}: sharded {:.3} s, single-process {:.3} s, shards per worker {:?}",
            run.wall_s, ctx.reference_wall_s, run.shards_per_worker
        ));
        last = Some((ctx, run));
    }
    let rss = peak_rss_mb();
    let (ctx, run) = last.expect("at least one pass");

    if !cfg.trace {
        report.end_to_end(&setup_times, &walls, &scores, rss);
        return report;
    }

    let spans = trace::drain();
    write_trace(
        &cfg.out_dir,
        cfg.workload,
        "cluster.run",
        &spans,
        &mut report,
    );
    let wall_traced = stats::median(&traced_walls);
    report.traced_walls(stats::median(&walls), wall_traced, WORKERS);

    let shards = ctx.params.regions.len() as f64;
    let overhead = wall_traced - ctx.reference_wall_s / WORKERS as f64;
    report.metric("cluster.shards", shards);
    report.metric(
        "cluster.shards_per_worker_min",
        run.shards_per_worker.iter().copied().min().unwrap_or(0) as f64,
    );
    report.metric(
        "cluster.shards_per_worker_max",
        run.shards_per_worker.iter().copied().max().unwrap_or(0) as f64,
    );
    report.metric("cluster.reference_wall_s", ctx.reference_wall_s);
    report.metric("cluster.overhead_s", overhead);
    report.metric("cluster.overhead_ms_per_shard", overhead * 1e3 / shards);
    report.metric("cluster.regrants", run.regrants as f64);
    report.metric("net.non2xx", run.failed_polls as f64);
    report.metric(
        "cluster.status_roundtrip_us",
        stats::median(&trace::durations(&spans, "cluster.status_roundtrip")) / 1e3,
    );

    // The reference study went through the traced driver: its spans and
    // captured inputs price the pipeline the shards run.
    let reference = traced_reference.expect("a traced reference ran");
    let per_pass = trace::PerPass::new(&spans, traced_walls.len());
    layers::report_study_spans(
        &spans,
        &per_pass,
        &ctx.service,
        &reference.captured,
        true,
        &mut report,
    );
    layers::replay_pipeline(
        &reference.captured,
        &reference.outcomes,
        &ctx.params,
        &mut report,
    );
    layers::microbench(
        &ctx.service,
        &ctx.params,
        &cfg.state_dir,
        cfg.smoke,
        &mut report,
    );
    report.failed_share();
    report.note(format!(
        "control plane: sharded {:.3} s vs single-process {:.3} s / {WORKERS} workers = {:.1} ms per shard of overhead",
        wall_traced,
        ctx.reference_wall_s,
        overhead * 1e3 / shards
    ));
    report
}
