//! `study_full` and `crawl_http`: `run_study` end to end, in process at
//! T threads with daily rising, or single-threaded through one HTTP
//! keep-alive connection.

use crate::client::{Captured, TimedClient};
use crate::layers;
use crate::measure::{peak_rss_mb, secs, write_trace};
use crate::report::{Report, RunCfg};
use crate::stats;
use crate::trace;
use crate::world;
use sift_core::{
    assemble_study, plan_frames, run_region_study, run_study, RegionOutcome, StudyError,
    StudyParams, StudyResult,
};
use sift_fetcher::{trends_router, HttpTrendsClient};
use sift_geo::State;
use sift_net::{Server, ServerHandle};
use sift_simtime::{Hour, HourRange};
use sift_trends::{TrendsClient, TrendsService};
use std::sync::Arc;
use std::time::Instant;

/// `T`: the thread count of `study_full`.
pub fn study_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

struct Sizes {
    scale: f64,
    regions: usize,
    hours: i64,
    daily_rising: bool,
    threads: usize,
    /// Passes every run makes whatever `--seconds` says, over the fixed
    /// panel of worlds (`world::pass_world`): the count and quality
    /// metrics are medians over exactly these, so they repeat exactly
    /// however fast the machine is and whatever the seed.
    fixed_passes: usize,
}

fn sizes(http: bool, smoke: bool) -> Sizes {
    match (http, smoke) {
        // The paper-scale world, six weeks of it per pass so that a run
        // of `--seconds` holds several passes.
        (false, false) => Sizes {
            scale: 1.0,
            regions: 51,
            hours: 1_008,
            daily_rising: true,
            threads: study_threads(),
            fixed_passes: 6,
        },
        (true, false) => Sizes {
            scale: 0.25,
            regions: 51,
            hours: 2_016,
            daily_rising: false,
            threads: 1,
            fixed_passes: 6,
        },
        (false, true) => Sizes {
            scale: 1.0,
            regions: 4,
            hours: 504,
            daily_rising: true,
            threads: study_threads(),
            fixed_passes: 2,
        },
        (true, true) => Sizes {
            scale: 0.25,
            regions: 4,
            hours: 1_008,
            daily_rising: false,
            threads: 1,
            fixed_passes: 2,
        },
    }
}

struct Ctx {
    service: Arc<TrendsService>,
    /// What `run_study` talks to.
    client: Arc<dyn TrendsClient>,
    params: StudyParams,
    /// `crawl_http`: the in-process result the crawl must reproduce.
    reference: Option<StudyResult>,
    _server: Option<ServerHandle>,
}

fn setup(seed: u64, s: &Sizes, http: bool) -> Ctx {
    let regions = world::regions(s.regions);
    let service = world::build_service(seed, s.scale, &regions);
    let params = StudyParams {
        range: HourRange::new(Hour(0), Hour(s.hours)),
        regions,
        daily_rising: s.daily_rising,
        threads: s.threads,
        ..StudyParams::default()
    };
    if !http {
        return Ctx {
            client: Arc::clone(&service) as Arc<dyn TrendsClient>,
            service,
            params,
            reference: None,
            _server: None,
        };
    }
    // No rate limiter: the wall time measures the program, not a
    // configured sleep.
    let server = Server::new(trends_router(Arc::clone(&service)))
        .with_workers(2)
        .bind("127.0.0.1:0")
        .expect("bind trends server");
    let client = Arc::new(HttpTrendsClient::new(server.addr(), "127.0.0.7"));
    let reference = run_study(service.as_ref(), &params).expect("in-process reference study");
    Ctx {
        service,
        client,
        params,
        reference: Some(reference),
        _server: Some(server),
    }
}

/// `run_study` rebuilt from its public parts with a span around each:
/// the same plan, the same thread count and chunking, the same assemble.
pub(crate) fn traced_study(
    client: &TimedClient,
    params: &StudyParams,
) -> Result<(StudyResult, Vec<RegionOutcome>), StudyError> {
    let _root = trace::span("study");
    let plan = {
        let _span = trace::span("core.plan");
        plan_frames(params.range, params.plan)
    };
    let threads = params.threads.clamp(1, params.regions.len().max(1));
    let chunks: Vec<Vec<State>> = (0..threads)
        .map(|t| {
            params
                .regions
                .iter()
                .copied()
                .skip(t)
                .step_by(threads)
                .collect()
        })
        .collect();
    let outcomes: Vec<Result<RegionOutcome, StudyError>> = {
        let phase = trace::span("core.regions");
        let phase_id = phase.id();
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    let plan = &plan;
                    scope.spawn(move || {
                        chunk
                            .into_iter()
                            .map(|state| {
                                let _span = trace::span_under(phase_id, "core.region");
                                run_region_study(client, params, &plan.frames, state, None)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("region worker panicked"))
                .collect()
        })
    };
    let regions = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    let kept = {
        let _span = trace::span("bench.capture");
        regions.clone()
    };
    let result = {
        let _span = trace::span("core.assemble");
        assemble_study(params, regions, false)
    };
    Ok((result, kept))
}

pub fn run(cfg: &RunCfg, http: bool) -> Report {
    let s = sizes(http, cfg.smoke);
    let mut report = Report::default();
    report.note(format!(
        "sizes: scale {} regions {} hours {} daily_rising {} threads {} http {http}",
        s.scale, s.regions, s.hours, s.daily_rising, s.threads
    ));

    // Every pass studies its own world: how many re-fetch rounds a region
    // needs varies from world to world by several percent, and a median
    // over many worlds is steadier than many passes over one. With
    // tracing on, each world is studied twice, untraced then traced, so
    // both medians see the same inputs.
    let (mut setup_times, mut walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut scores = world::Scores::default();
    let mut last_traced: Option<(Captured, Vec<RegionOutcome>)> = None;
    let mut last_ctx: Option<Ctx> = None;
    let mut client_failures = 0u64;
    let mut measured = 0.0;
    while walls.len() < s.fixed_passes || measured < cfg.seconds {
        let pass = walls.len();
        drop(last_ctx.take());
        let t = Instant::now();
        let ctx = setup(world::pass_world(cfg.seed, pass, s.fixed_passes), &s, http);
        setup_times.push(secs(t));

        let t = Instant::now();
        let result = run_study(ctx.client.as_ref(), &ctx.params);
        walls.push(secs(t));
        measured += walls[pass];
        let Some(result) = account(&mut report, result) else {
            return report;
        };
        if let Some(reference) = &ctx.reference {
            report.check(
                "http_equals_in_process",
                world::same_result(&result, reference),
            );
        } else if pass == 0 && s.threads > 1 {
            let serial = StudyParams {
                threads: 1,
                ..ctx.params.clone()
            };
            let check = run_study(ctx.client.as_ref(), &serial)
                .map_err(|e| e.to_string())
                .and_then(|serial| world::same_result(&result, &serial));
            report.check("threads_equal_single_thread", check);
        }

        if cfg.trace {
            let timed = if http {
                TimedClient::over_http(Arc::clone(&ctx.client))
            } else {
                TimedClient::in_process(Arc::clone(&ctx.client))
            };
            trace::set_run(pass as u32);
            trace::enable(true);
            let t = Instant::now();
            let traced = traced_study(&timed, &ctx.params);
            traced_walls.push(secs(t));
            trace::enable(false);
            measured += traced_walls[pass];
            client_failures += timed.failed();
            let (traced, outcomes) = match traced {
                Ok((traced, outcomes)) => (Ok(traced), outcomes),
                Err(e) => (Err(e), Vec::new()),
            };
            if let Some(traced) = account(&mut report, traced) {
                report.check(
                    "traced_equals_untraced",
                    world::same_result(&traced, &result),
                );
            }
            last_traced = Some((timed.take_captured(), outcomes));
        }

        if pass < s.fixed_passes {
            let truth = world::score_truth(
                ctx.service.ground_truth(),
                &result.bare_spikes(),
                ctx.params.range,
                &ctx.params.regions,
            );
            report.check(
                "truth_floor",
                if truth.event_recall > 0.2 && truth.spike_precision > 0.5 {
                    Ok(())
                } else {
                    Err(format!(
                        "recall {:.3} precision {:.3}",
                        truth.event_recall, truth.spike_precision
                    ))
                },
            );
            scores.record(
                result.stats.frames_requested + result.stats.rising_requested,
                &truth,
            );
            if pass == 0 {
                report.note(format!(
                    "pass 0: {} frames + {} rising requests, {} spikes; {} events, {} strong spikes",
                    result.stats.frames_requested,
                    result.stats.rising_requested,
                    result.spikes.len(),
                    truth.events,
                    truth.strong_spikes
                ));
            }
        }
        last_ctx = Some(ctx);
    }
    let rss = peak_rss_mb();
    let ctx = last_ctx.expect("at least one pass");
    report.note(format!(
        "passes {} (wall min {:.4} max {:.4} s), set-ups {}",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        setup_times.len(),
    ));

    if !cfg.trace {
        report.end_to_end(&setup_times, &walls, &scores, rss);
        return report;
    }

    // ---- Per-layer numbers, per traced pass.
    let spans = trace::drain();
    write_trace(&cfg.out_dir, cfg.workload, "study", &spans, &mut report);
    let wall_traced = stats::median(&traced_walls);
    report.traced_walls(stats::median(&walls), wall_traced, s.threads);
    report.metric("net.non2xx", client_failures as f64);
    let (captured, outcomes) = last_traced.expect("a traced pass ran");
    let per_pass = trace::PerPass::new(&spans, traced_walls.len());
    layers::report_study_spans(
        &spans,
        &per_pass,
        &ctx.service,
        &captured,
        http,
        &mut report,
    );
    layers::replay_pipeline(&captured, &outcomes, &ctx.params, &mut report);
    layers::microbench(
        &ctx.service,
        &ctx.params,
        &cfg.state_dir,
        cfg.smoke,
        &mut report,
    );
    report.failed_share();

    // Shares of the traced wall time. Busy time is summed over threads,
    // so a layer inside the parallel region phase costs busy/T of wall.
    let share = |r: &Report, name: &str| r.get(name).unwrap_or(0.0) / wall_traced;
    report.note(format!(
        "layer shares of traced wall {:.3} s (T = {}): core.assemble {:.3}, core.region busy/T {:.3}, trends.frame busy/T {:.3}, trends.rising busy/T {:.3}, net.overhead busy/T {:.3}",
        wall_traced,
        s.threads,
        share(&report, "core.assemble_busy_s"),
        share(&report, "core.region_busy_s") / s.threads as f64,
        share(&report, "trends.frame_busy_s") / s.threads as f64,
        share(&report, "trends.rising_busy_s") / s.threads as f64,
        share(&report, "net.overhead_s") / s.threads as f64,
    ));
    report
}

/// Counts one pass's operations; `None` (with a failed check) when the
/// study itself failed.
fn account(report: &mut Report, result: Result<StudyResult, StudyError>) -> Option<StudyResult> {
    match result {
        Ok(result) => {
            report.attempted += result.stats.frames_requested + result.stats.rising_requested;
            report.failed += result.stats.frames_degraded;
            Some(result)
        }
        Err(e) => {
            report.check("study_completes", Err(e.to_string()));
            None
        }
    }
}
