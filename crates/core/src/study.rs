//! The end-to-end study driver.
//!
//! [`run_study`] performs the full SIFT workflow of Fig. 2 for a set of
//! regions: plan frames → collect with re-fetch averaging → detect spikes
//! → gather rising suggestions (weekly crawl + daily drill-downs on spike
//! days) → heavy hitters → annotate → cluster across states.
//!
//! A region's rising suggestions are one set of requests: the weekly
//! frames its spikes overlap, then each spike's drill-down days, every
//! `(start, len)` once however many spikes share it. The set is fetched
//! in one call (one request at a time when the study is durable), and
//! each spike's suggestion list is then read back out of the responses.

use crate::area::{cluster_spikes, OutageCluster};
use crate::context::{
    heavy_from_counts, AnnotatedSpike, Annotation, ContextParams, Interner, PhraseTable,
    SuggestionLists,
};
use crate::detect::{DetectParams, Spike};
use crate::durable::{RegionJournal, StudyDurability};
use crate::plan::{plan_frames, PlanParams};
use crate::refetch::{averaged_timeline, averaged_timeline_durable, RefetchError, RefetchParams};
use crate::timeline::Timeline;
use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_simtime::{Hour, HourRange, STUDY_RANGE};
use sift_trends::api::RisingTerm;
use sift_trends::client::{FetchError, TrendsClient};
use sift_trends::{RisingRequest, SearchTerm};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Parameters of one study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StudyParams {
    /// The time range to analyse.
    pub range: HourRange,
    /// Regions to analyse.
    pub regions: Vec<State>,
    /// The tracked search term (the paper: the `<Internet outage>` topic).
    pub term: SearchTerm,
    /// Frame planning.
    pub plan: PlanParams,
    /// Re-fetch averaging.
    pub refetch: RefetchParams,
    /// Spike detection.
    pub detect: DetectParams,
    /// Context analysis.
    pub context: ContextParams,
    /// Slack when matching concurrent spikes across regions, in hours.
    pub cluster_slack_h: i64,
    /// Fetch daily rising drill-downs on spike days (the paper does; turn
    /// off to skip about a quarter of a full study's requests in quick
    /// runs).
    pub daily_rising: bool,
    /// Worker threads across regions.
    pub threads: usize,
}

impl Default for StudyParams {
    fn default() -> Self {
        StudyParams {
            range: STUDY_RANGE,
            regions: State::ALL.to_vec(),
            term: SearchTerm::parse("topic:Internet outage"),
            plan: PlanParams::default(),
            refetch: RefetchParams::default(),
            detect: DetectParams::default(),
            context: ContextParams::default(),
            cluster_slack_h: 1,
            daily_rising: true,
            threads: 8,
        }
    }
}

/// Cap on daily drill-downs per spike (long spikes span many days).
pub const MAX_DAILY_PER_SPIKE: usize = 3;

/// Weight multiplier applied to daily drill-down suggestions when merging
/// them with the weekly crawl's: the daily frames are "more targeted and
/// fine-grained" (§3.1), so they should dominate the annotation ranking
/// for their spike.
pub const DAILY_WEIGHT_BOOST: f64 = 3.0;

/// Request accounting and convergence summary.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StudyStats {
    /// Time frames requested (the paper reports 160 238 over its study).
    pub frames_requested: u64,
    /// Distinct rising-suggestion requests, summed over regions: each
    /// `(region, start, len)` once, whether fetched or replayed.
    pub rising_requested: u64,
    /// Re-fetch rounds used per region.
    pub rounds_by_state: Vec<(State, u32)>,
    /// Regions whose spike set converged before the round cap.
    pub converged_regions: usize,
    /// Fresh-fetch share of frame slots per region (1.0 = no frame was
    /// degraded to a previous round's sample).
    #[serde(default)]
    pub coverage_by_state: Vec<(State, f64)>,
    /// Frame slots filled from a previous round after a fetch failure,
    /// across all regions.
    #[serde(default)]
    pub frames_degraded: u64,
    /// Per region, the re-fetch round the loop resumed at — nonzero only
    /// when a durable study picked up work a previous (crashed) run had
    /// already sealed. All zeros on a fresh or non-durable run.
    #[serde(default)]
    pub resumed_from_round: Vec<(State, u32)>,
    /// Of `frames_requested`, slots served from a recovered journal
    /// instead of the network, across all regions (durable resumes only).
    #[serde(default)]
    pub frames_replayed: u64,
    /// Per-stage timings of this study's own spans, as its root span
    /// tallied them (no other study's, no server's reached by header).
    pub telemetry: sift_obs::StageTable,
}

/// Everything a study produces.
#[derive(Clone, Debug)]
pub struct StudyResult {
    /// Annotated spikes over all regions, sorted by (start, region).
    pub spikes: Vec<AnnotatedSpike>,
    /// The calibrated timeline per region.
    pub timelines: Vec<(State, Timeline)>,
    /// Cross-region outage clusters.
    pub clusters: Vec<OutageCluster>,
    /// The global heavy-hitter terms with their frequencies.
    pub heavy_hitters: Vec<(String, u64)>,
    /// Distinct suggested terms observed across all spikes.
    pub distinct_terms: usize,
    /// Request accounting.
    pub stats: StudyStats,
}

impl StudyResult {
    /// The bare spikes (without annotations), in the same order.
    pub fn bare_spikes(&self) -> Vec<crate::detect::Spike> {
        self.spikes.iter().map(|a| a.spike).collect()
    }

    /// The timeline of one region, if it was part of the study.
    pub fn timeline(&self, state: State) -> Option<&Timeline> {
        self.timelines
            .iter()
            .find(|(s, _)| *s == state)
            .map(|(_, t)| t)
    }
}

/// Study failures, tagged with the region being processed.
#[derive(Debug)]
pub enum StudyError {
    /// Collection or stitching failed for a region.
    Region {
        /// The region that failed.
        state: State,
        /// The underlying failure.
        source: RefetchError,
    },
    /// A rising-suggestions request failed.
    Rising {
        /// The region that failed.
        state: State,
        /// The underlying failure.
        source: FetchError,
    },
    /// The region's write-ahead journal could not be read or written, or
    /// belongs to another study (durable studies only).
    Durability {
        /// The region that failed.
        state: State,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Region { state, source } => {
                write!(f, "study failed for {state}: {source}")
            }
            StudyError::Rising { state, source } => {
                write!(f, "rising suggestions failed for {state}: {source}")
            }
            StudyError::Durability { state, source } => {
                write!(f, "durability failed for {state}: {source}")
            }
        }
    }
}

impl std::error::Error for StudyError {}

/// Per-region intermediate result produced by the parallel phase.
///
/// This is the unit of work a study shards over: [`run_region_study`]
/// produces one per region, [`assemble_study`] folds a complete set back
/// into a [`StudyResult`]. It is serializable so a cluster worker
/// (`sift-cluster`) can compute it remotely and upload it to the
/// coordinator over the wire — the global phase then runs on outcomes
/// regardless of where they were computed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegionOutcome {
    /// The region this outcome describes.
    pub state: State,
    /// The calibrated, re-fetch-averaged timeline.
    pub timeline: Timeline,
    /// Re-fetch rounds used.
    pub rounds: u32,
    /// Whether the spike set converged before the round cap.
    pub converged: bool,
    /// Time frames requested while collecting this region.
    pub frames_requested: u64,
    /// Frame slots filled from a previous round after a fetch failure.
    pub frames_degraded: u64,
    /// Fresh-fetch share of frame slots (1.0 = nothing degraded).
    pub coverage: f64,
    /// The re-fetch round a durable resume picked up at (0 = fresh run).
    pub resumed_from_round: u32,
    /// Frame slots served from a recovered journal instead of the network.
    pub frames_replayed: u64,
    /// Distinct rising-suggestion requests of this region: each
    /// `(start, len)` once, whether fetched or replayed.
    pub rising_requested: u64,
    /// `(spike, its gathered suggestions)`.
    pub spikes: Vec<(crate::detect::Spike, Vec<RisingTerm>)>,
}

/// Runs the full study.
///
/// The client may be the in-process service or an HTTP fetcher unit; pass
/// a round-robin combinator (see `sift-fetcher`) to spread the crawl over
/// several units.
pub fn run_study(
    client: &dyn TrendsClient,
    params: &StudyParams,
) -> Result<StudyResult, StudyError> {
    run_study_impl(client, params, None)
}

/// [`run_study`] with crash-safe durability: every region journals its
/// responses and seals each completed re-fetch round with a synced
/// record under the durability directory, so a study killed in round
/// *k* of a region resumes at round *k* with rounds `< k` intact —
/// re-fetching at most the one response that was in flight — and produces
/// the same [`StudyResult`] an uninterrupted run would have.
/// [`StudyStats::resumed_from_round`] records, per region, where the
/// resumed loop picked up. A directory that holds the journals of a
/// different study (term or frame plan) is refused with
/// [`StudyError::Durability`].
pub fn run_study_durable(
    client: &dyn TrendsClient,
    params: &StudyParams,
    durability: &StudyDurability,
) -> Result<StudyResult, StudyError> {
    run_study_impl(client, params, Some(durability))
}

fn run_study_impl(
    client: &dyn TrendsClient,
    params: &StudyParams,
    durability: Option<&StudyDurability>,
) -> Result<StudyResult, StudyError> {
    // The study span is the end-to-end root every stage hangs off, and
    // its tally is the study's stage table. With no span open it roots
    // an unrecorded trace; a caller that reads the tree opens a
    // `span_recorded` root around the study.
    let study_span = sift_obs::span_tallied("study");
    let study_ctx = study_span.context();
    let plan = {
        let _span = sift_obs::span("plan");
        plan_frames(params.range, params.plan)
    };

    // ---- Parallel per-region phase: collect, average, detect, gather
    // rising suggestions.
    let regions = sift_obs::fan_out(&params.regions, params.threads, |&state| {
        // Reopen the study context: a helper thread's span stack is
        // empty and would orphan every region's spans.
        let _region_span = sift_obs::span_in(&study_ctx, "region");
        run_region_study(client, params, &plan.frames, state, durability)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    let mut result = assemble_study(params, regions, durability.is_some());
    result.stats.telemetry = study_span.stages();
    Ok(result)
}

/// The study's global phase: folds a complete set of per-region outcomes
/// into the final [`StudyResult`] — heavy hitters over every spike's
/// suggestion set, annotation, cross-region clustering, accounting.
///
/// Shared verbatim between the in-process driver and the cluster
/// coordinator (`sift-cluster`); this sharing is what makes a sharded run
/// bit-identical to a single-process one. Outcomes are sorted by region
/// index before anything else, so the caller's collection order (thread
/// interleaving, worker upload order) cannot influence the result.
/// `track_resume` mirrors the durable driver: when set, per-region resume
/// rounds are recorded in [`StudyStats::resumed_from_round`].
/// [`StudyStats::telemetry`] is left empty for the caller to fill.
pub fn assemble_study(
    params: &StudyParams,
    mut regions: Vec<RegionOutcome>,
    track_resume: bool,
) -> StudyResult {
    regions.sort_by_key(|r| r.state.index());

    // ---- Global phase: heavy hitters over every spike's suggestion set,
    // then annotation. One pass interns every suggestion occurrence,
    // counting it for the heavy hitters, and files each spike's list
    // under the distinct list it equals. Every distinct phrase is then
    // normalized and embedded once, and every distinct list annotated
    // once, against the table.
    let context_span = sift_obs::span("context");
    let (heavy, distinct_terms, mut spikes) = {
        let gathered: Vec<&(Spike, Vec<RisingTerm>)> =
            regions.iter().flat_map(|r| r.spikes.iter()).collect();
        let mut phrases = Interner::default();
        let mut lists = SuggestionLists::default();
        let list_of: Vec<usize> = gathered
            .iter()
            .map(|(_, suggestions)| {
                let mut fingerprint = DefaultHasher::new();
                for t in suggestions {
                    (phrases.intern(&t.term), t.weight).hash(&mut fingerprint);
                }
                lists.insert(fingerprint.finish(), suggestions)
            })
            .collect();
        context_span.attr_add(
            "suggestion_lists",
            u64::try_from(gathered.len()).unwrap_or(u64::MAX),
        );
        context_span.attr_add(
            "distinct_lists",
            u64::try_from(lists.distinct.len()).unwrap_or(u64::MAX),
        );

        let normalized = phrases.normalized();
        let (heavy, distinct_terms) = heavy_from_counts(
            &normalized,
            &phrases.counts,
            params.context.heavy_hitter_mass,
        );
        let table = PhraseTable::new(phrases, &normalized, &heavy);
        let annotated = annotate_lists(&table, &lists.distinct, params, context_span.context());
        // Each spike gets its own copy, made on this thread, and the
        // workers' results are dropped with this block, before the region
        // outcomes: a worker's labels left in its malloc arena on top of
        // the region phase's suggestion lists keep that arena from
        // shrinking when the lists are freed (peak RSS 66 MB instead of
        // 62 on `study_full`).
        let spikes: Vec<AnnotatedSpike> = gathered
            .iter()
            .zip(list_of)
            .map(|((spike, _), list)| AnnotatedSpike {
                spike: *spike,
                annotations: annotated[list].clone(),
            })
            .collect();
        (heavy, distinct_terms, spikes)
    };

    // ---- Assemble.
    let mut stats = StudyStats::default();
    let mut timelines = Vec::with_capacity(regions.len());
    for r in &regions {
        stats.frames_requested += r.frames_requested;
        stats.frames_degraded += r.frames_degraded;
        stats.rising_requested += r.rising_requested;
        stats.rounds_by_state.push((r.state, r.rounds));
        stats.coverage_by_state.push((r.state, r.coverage));
        stats.frames_replayed += r.frames_replayed;
        if track_resume {
            stats
                .resumed_from_round
                .push((r.state, r.resumed_from_round));
        }
        if r.converged {
            stats.converged_regions += 1;
        }
    }
    for r in regions {
        timelines.push((r.state, r.timeline));
    }
    spikes.sort_by_key(|a| (a.spike.start, a.spike.state.index()));
    drop(context_span);

    let clusters = {
        let _span = sift_obs::span("cluster");
        cluster_spikes(
            &spikes.iter().map(|a| a.spike).collect::<Vec<_>>(),
            params.cluster_slack_h,
        )
    };

    StudyResult {
        spikes,
        timelines,
        clusters,
        heavy_hitters: heavy,
        distinct_terms,
        stats,
    }
}

/// Annotates each distinct suggestion list against the study's phrase
/// table, on `params.threads` threads.
///
/// The lists are cut into one contiguous chunk per thread and fanned out
/// with [`sift_obs::fan_out`], each chunk under its own `annotate` span
/// parented on `context`. A list's annotations are a function of its
/// content and the read-only table alone, and the chunks are
/// concatenated in order, so the thread count cannot reach the result.
fn annotate_lists(
    table: &PhraseTable<'_>,
    lists: &[&[RisingTerm]],
    params: &StudyParams,
    context: sift_obs::SpanContext,
) -> Vec<Vec<Annotation>> {
    let per_thread = lists.len().div_ceil(params.threads.max(1)).max(1);
    let chunks: Vec<_> = lists.chunks(per_thread).collect();
    sift_obs::fan_out(&chunks, params.threads, |chunk| {
        let _span = sift_obs::span_in(&context, "annotate");
        sift_obs::attr_add(
            "lists_annotated",
            u64::try_from(chunk.len()).unwrap_or(u64::MAX),
        );
        chunk
            .iter()
            .map(|list| table.annotate(list, &params.context))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The per-region pipeline: averaging, detection, rising gathering.
///
/// One shard of [`run_study`]'s parallel phase, public so a cluster
/// worker can run exactly the code path the in-process driver runs.
/// `frames` must be the full deterministic plan for `params.range`
/// (`plan_frames(params.range, params.plan)` — every shard computes the
/// same plan locally). The caller owns the enclosing `region` span.
pub fn run_region_study(
    client: &dyn TrendsClient,
    params: &StudyParams,
    frames: &[HourRange],
    state: State,
    durability: Option<&StudyDurability>,
) -> Result<RegionOutcome, StudyError> {
    // One durability domain per region: the parallel workers never share
    // a journal file.
    let mut journal: Option<RegionJournal> = durability
        .map(|d| d.region(&params.term, state, frames))
        .transpose()
        .map_err(|source| StudyError::Durability { state, source })?;

    let outcome = match journal.as_mut() {
        Some(j) => averaged_timeline_durable(
            client,
            &params.term,
            state,
            frames,
            &params.refetch,
            &params.detect,
            j,
        ),
        None => averaged_timeline(
            client,
            &params.term,
            state,
            frames,
            &params.refetch,
            &params.detect,
        ),
    }
    .map_err(|source| StudyError::Region { state, source })?;

    // Rising suggestions: the weekly frames any spike overlaps, then every
    // spike's drill-down days. A response is a pure function of its frame
    // and is shared by every spike that frame covers, so the region asks
    // for each `(start, len)` once, in first-seen order — and, like a
    // re-fetch round's frames, all in one call unless a journal must
    // record each response before the next is requested.
    let _rising_span = sift_obs::span("rising");
    let mut requests: Vec<RisingRequest> = Vec::new();
    let mut asked: HashSet<(Hour, u32)> = HashSet::new();
    let frame_key = |f: &HourRange| (f.start, u32::try_from(f.len()).unwrap_or(u32::MAX));
    let weekly = frames
        .iter()
        .filter(|f| outcome.spikes.iter().any(|s| f.overlaps(&s.window())))
        .map(frame_key);
    let daily = outcome
        .spikes
        .iter()
        .flat_map(|s| drill_down_days(s, params))
        .map(|day| (day, 24));
    for (start, len) in weekly.chain(daily) {
        if asked.insert((start, len)) {
            requests.push(RisingRequest {
                term: params.term.clone(),
                state,
                start,
                len,
                tag: 0,
            });
        }
    }
    let rising_requested = u64::try_from(requests.len()).unwrap_or(u64::MAX);
    let mut responses: HashMap<(Hour, u32), Vec<RisingTerm>> =
        HashMap::with_capacity(requests.len());
    let mut next = 0;
    while next < requests.len() {
        let req = &requests[next];
        if let Some(resp) = journal
            .as_mut()
            .and_then(|j| j.replayed_rising(req.start.0, req.len))
        {
            responses.insert((req.start, req.len), resp.rising);
            next += 1;
            continue;
        }
        let end = if journal.is_some() {
            next + 1
        } else {
            requests.len()
        };
        let batch = &requests[next..end];
        for (req, fetched) in batch.iter().zip(client.fetch_risings(batch)) {
            let resp = fetched.map_err(|source| StudyError::Rising { state, source })?;
            if let Some(j) = journal.as_mut() {
                j.record_rising(req.start.0, req.len, &resp)
                    .map_err(|source| StudyError::Durability { state, source })?;
            }
            responses.insert((req.start, req.len), resp.rising);
        }
        next = end;
    }

    let mut spikes = Vec::with_capacity(outcome.spikes.len());
    for spike in &outcome.spikes {
        let mut suggestions: Vec<RisingTerm> = Vec::new();
        for frame in frames.iter().filter(|f| f.overlaps(&spike.window())) {
            let weekly = responses.get(&frame_key(frame)).into_iter().flatten();
            suggestions.extend(weekly.cloned());
        }
        for day in drill_down_days(spike, params) {
            let daily = responses.get(&(day, 24)).into_iter().flatten();
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "float `as u32` saturates; rounding the boosted weight down is intended"
            )]
            suggestions.extend(daily.map(|t| {
                let mut t = t.clone();
                t.weight = (f64::from(t.weight) * DAILY_WEIGHT_BOOST) as u32;
                t
            }));
        }
        spikes.push((*spike, suggestions));
    }

    // Seal the region so a resume of a *finished* study is a pure replay.
    if let Some(j) = journal.as_mut() {
        j.finish()
            .map_err(|source| StudyError::Durability { state, source })?;
    }

    Ok(RegionOutcome {
        state,
        timeline: outcome.timeline,
        rounds: outcome.rounds,
        converged: outcome.converged,
        frames_requested: outcome.frames_fetched,
        frames_degraded: outcome.frames_degraded,
        coverage: outcome.coverage,
        resumed_from_round: outcome.resumed_from_round,
        frames_replayed: outcome.frames_replayed,
        rising_requested,
        spikes,
    })
}

/// The days a spike's daily rising drill-down covers: "SIFT repeats this
/// process for daily time frames on spike days to capture more targeted
/// and fine-grained rising terms" (§3.1). Each day from the one the spike
/// starts in while it is before the spike's end, at most
/// [`MAX_DAILY_PER_SPIKE`] of them; none when `daily_rising` is off.
pub fn drill_down_days(spike: &Spike, params: &StudyParams) -> impl Iterator<Item = Hour> {
    let cap = if params.daily_rising {
        MAX_DAILY_PER_SPIKE
    } else {
        0
    };
    let end = spike.end;
    std::iter::successors(Some(spike.start.day_start()), |day| Some(*day + 24))
        .take_while(move |day| *day < end)
        .take(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_trends::events::{Cause, OutageEvent, PowerTrigger};
    use sift_trends::terms::Provider;
    use sift_trends::{Scenario, ScenarioParams, TrendsService};

    fn two_region_service() -> TrendsService {
        let events = vec![
            OutageEvent {
                id: 0,
                name: "verizon".into(),
                cause: Cause::IspNetwork(Provider::Verizon),
                start: Hour(300),
                duration_h: 9,
                states: vec![(State::TX, 0.25), (State::CA, 0.2)],
                severity: 9_000.0,
                lags_h: vec![0, 0],
            },
            OutageEvent {
                id: 1,
                name: "storm".into(),
                cause: Cause::Power(PowerTrigger::Storm),
                start: Hour(800),
                duration_h: 12,
                states: vec![(State::TX, 0.2)],
                severity: 8_000.0,
                lags_h: vec![0],
            },
        ];
        // Anchor events keep the frame chain calibrated (see the
        // refetch tests for why density matters).
        let mut events = events;
        for (i, start) in (40..1200).step_by(60).enumerate() {
            for (j, state) in [State::TX, State::CA].into_iter().enumerate() {
                events.push(OutageEvent {
                    id: 100 + (i * 2 + j) as u32,
                    name: format!("anchor-{i}-{state}"),
                    cause: Cause::IspNetwork(Provider::Frontier),
                    start: Hour(start + 13 * j as i64),
                    duration_h: 2,
                    states: vec![(state, 0.015)],
                    severity: 8_000.0,
                    lags_h: vec![0],
                });
            }
        }
        let params = ScenarioParams {
            background_scale: 0.0,
            include_named: false,
            include_clusters: false,
            regions: vec![State::TX, State::CA],
            ..ScenarioParams::default()
        };
        let mut scenario = Scenario::generate(params);
        scenario.events = events;
        scenario.events.sort_by_key(|e| (e.start, e.id));
        TrendsService::with_defaults(scenario)
    }

    fn small_params() -> StudyParams {
        let mut params = StudyParams {
            range: HourRange::new(Hour(0), Hour(1200)),
            regions: vec![State::TX, State::CA],
            threads: 2,
            ..StudyParams::default()
        };
        // This toy world's heavy-hitter set is dominated by the anchor
        // events' phrases (in the full study, power terms dominate);
        // keep more annotations so cause terms survive the heavy-first
        // ranking.
        params.context.max_annotations = 6;
        params
    }

    #[test]
    fn full_workflow_recovers_both_events() {
        let service = two_region_service();
        let result = run_study(&service, &small_params()).expect("study runs");

        // Both regions have timelines covering the range.
        assert_eq!(result.timelines.len(), 2);
        assert_eq!(result.timeline(State::TX).unwrap().range().len(), 1200);

        // The multi-state event shows up as a 2-state cluster.
        let wide = result
            .clusters
            .iter()
            .find(|c| c.state_count() == 2)
            .expect("2-state cluster");
        assert!(wide.window.contains(Hour(303)));

        // The power event is power-annotated; the ISP event is not.
        let tx_power = result
            .spikes
            .iter()
            .find(|a| a.spike.state == State::TX && a.spike.window().contains(Hour(805)))
            .expect("power spike detected");
        assert!(
            tx_power.power_annotated(),
            "annotations: {:?}",
            tx_power.annotations
        );

        let tx_verizon = result
            .spikes
            .iter()
            .find(|a| a.spike.state == State::TX && a.spike.window().contains(Hour(303)))
            .expect("verizon spike detected");
        assert!(
            tx_verizon
                .annotations
                .iter()
                .any(|ann| ann.label.to_lowercase().contains("verizon")),
            "annotations: {:?}",
            tx_verizon.annotations
        );

        // Stats add up.
        assert!(result.stats.frames_requested > 0);
        assert!(result.stats.rising_requested > 0);
        assert_eq!(result.stats.rounds_by_state.len(), 2);
        // The in-process client never fails, so coverage is full.
        assert_eq!(result.stats.frames_degraded, 0);
        assert_eq!(result.stats.coverage_by_state.len(), 2);
        assert!(result
            .stats
            .coverage_by_state
            .iter()
            .all(|(_, c)| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn spikes_sorted_and_within_range() {
        let service = two_region_service();
        let params = small_params();
        let result = run_study(&service, &params).expect("study runs");
        for pair in result.spikes.windows(2) {
            assert!(
                (pair[0].spike.start, pair[0].spike.state.index())
                    <= (pair[1].spike.start, pair[1].spike.state.index())
            );
        }
        for a in &result.spikes {
            assert!(a.spike.start >= params.range.start);
            assert!(a.spike.end <= params.range.end);
        }
    }

    #[test]
    fn daily_rising_can_be_disabled() {
        let service = two_region_service();
        let mut params = small_params();
        params.daily_rising = false;
        let without = run_study(&service, &params).expect("study runs");
        params.daily_rising = true;
        let with = run_study(&service, &params).expect("study runs");
        assert!(with.stats.rising_requested > without.stats.rising_requested);
    }

    /// The per-spike rising gather as it stood before a region's rising
    /// set was deduplicated, kept as the statement the set must reproduce:
    /// one `fetch_rising` per weekly frame the spike overlaps, in plan
    /// order, then one per drill-down day with its weights boosted.
    fn reference_suggestions(
        client: &dyn TrendsClient,
        params: &StudyParams,
        frames: &[HourRange],
        spike: &Spike,
    ) -> Vec<RisingTerm> {
        let ask = |start: Hour, len: u32| {
            let req = RisingRequest {
                term: params.term.clone(),
                state: spike.state,
                start,
                len,
                tag: 0,
            };
            client.fetch_rising(&req).expect("rising").rising
        };
        let mut suggestions = Vec::new();
        for frame in frames.iter().filter(|f| f.overlaps(&spike.window())) {
            suggestions.extend(ask(frame.start, u32::try_from(frame.len()).unwrap()));
        }
        if params.daily_rising {
            let mut day = spike.start.day_start();
            let mut fetched = 0usize;
            while day < spike.end && fetched < MAX_DAILY_PER_SPIKE {
                suggestions.extend(ask(day, 24).into_iter().map(|mut t| {
                    t.weight = (f64::from(t.weight) * DAILY_WEIGHT_BOOST) as u32;
                    t
                }));
                day += 24;
                fetched += 1;
            }
        }
        suggestions
    }

    /// `(region, day)` pairs that more than one spike drills down into.
    fn shared_days(spikes: &[Spike], params: &StudyParams) -> usize {
        let mut seen = HashMap::new();
        for s in spikes {
            for day in drill_down_days(s, params) {
                *seen.entry((s.state, day)).or_insert(0usize) += 1;
            }
        }
        seen.values().filter(|&&n| n > 1).count()
    }

    #[test]
    fn every_spike_gathers_what_the_per_spike_reference_gathers() {
        let service = two_region_service();
        let params = small_params();
        let plan = plan_frames(params.range, params.plan);
        let mut spikes = Vec::new();
        for &state in &params.regions {
            let region = run_region_study(&service, &params, &plan.frames, state, None)
                .expect("region runs");
            for (spike, got) in &region.spikes {
                let want = reference_suggestions(&service, &params, &plan.frames, spike);
                assert_eq!(got, &want, "{spike:?}");
                spikes.push(*spike);
            }
        }
        assert!(
            shared_days(&spikes, &params) > 0,
            "the fixture must have spikes of one region sharing a day"
        );
    }

    /// An in-process client that opens a `frame` span per frame fetched,
    /// as an HTTP fetcher unit does, and waits on `barrier` at its first
    /// one: two studies over two such clients are both under way before
    /// either fetches anything.
    struct MeetAtFirstFetch<'a> {
        inner: &'a TrendsService,
        barrier: &'a std::sync::Barrier,
        met: std::sync::atomic::AtomicBool,
    }

    impl TrendsClient for MeetAtFirstFetch<'_> {
        fn fetch_frame(
            &self,
            req: &sift_trends::FrameRequest,
        ) -> Result<sift_trends::FrameResponse, FetchError> {
            let _span = sift_obs::span("frame");
            if !self.met.swap(true, std::sync::atomic::Ordering::SeqCst) {
                self.barrier.wait();
            }
            TrendsClient::fetch_frame(self.inner, req)
        }

        fn fetch_rising(
            &self,
            req: &RisingRequest,
        ) -> Result<sift_trends::RisingResponse, FetchError> {
            TrendsClient::fetch_rising(self.inner, req)
        }
    }

    #[test]
    fn concurrent_studies_each_tally_only_their_own_spans() {
        let regions = [State::TX, State::CA, State::NY, State::FL];
        let service = TrendsService::with_defaults(Scenario::generate(ScenarioParams {
            background_scale: 0.2,
            regions: regions.to_vec(),
            ..ScenarioParams::default()
        }));
        let [one, three] = [&regions[..1], &regions[1..]].map(|regions| StudyParams {
            range: HourRange::new(Hour(0), Hour(600)),
            regions: regions.to_vec(),
            threads: 3,
            daily_rising: false,
            ..StudyParams::default()
        });
        let barrier = std::sync::Barrier::new(2);
        let results: Vec<StudyResult> = std::thread::scope(|s| {
            let studies: Vec<_> = [&one, &three]
                .map(|params| {
                    let (service, barrier) = (&service, &barrier);
                    s.spawn(move || {
                        let client = MeetAtFirstFetch {
                            inner: service,
                            barrier,
                            met: std::sync::atomic::AtomicBool::new(false),
                        };
                        run_study(&client, params).expect("study runs")
                    })
                })
                .into_iter()
                .collect();
            studies
                .into_iter()
                .map(|h| h.join().expect("study thread"))
                .collect()
        });
        for (params, result) in [(&one, &results[0]), (&three, &results[1])] {
            let count = |name: &str| {
                let stages = &result.stats.telemetry.stages;
                stages
                    .iter()
                    .find(|s| s.name == name)
                    .map_or(0, |s| s.count)
            };
            let table = &result.stats.telemetry;
            assert_eq!(count("region"), params.regions.len() as u64, "{table}");
            assert!(result.stats.frames_requested > 0);
            assert_eq!(count("frame"), result.stats.frames_requested, "{table}");
        }
    }

    /// The table's self times agree with the recorded trace of an
    /// in-process study at one thread: per name, the spans' `dur_us`
    /// less the `dur_us` of their children on the same thread. Records
    /// truncate to whole microseconds, so a span's term reads up to 1 µs
    /// low and each child's up to 1 µs high: the row may exceed the
    /// trace by under 1 µs per span and fall short of it by under 1 µs
    /// per child.
    #[test]
    fn stage_self_times_agree_with_the_recorded_trace() {
        let regions = [State::TX, State::CA];
        let service = TrendsService::with_defaults(Scenario::generate(ScenarioParams {
            background_scale: 0.2,
            regions: regions.to_vec(),
            ..ScenarioParams::default()
        }));
        let params = StudyParams {
            range: HourRange::new(Hour(0), Hour(600)),
            regions: regions.to_vec(),
            threads: 1,
            ..StudyParams::default()
        };
        let root = sift_obs::span_recorded("self-time-study");
        let trace_id = root.context().trace_id;
        let result = run_study(&service, &params).expect("study runs");
        drop(root);
        let trace = sift_obs::trace::wait_completed(trace_id, std::time::Duration::from_secs(30))
            .expect("trace completes");
        let span = |id: u64| trace.spans.iter().find(|s| s.span_id == id);
        // Per name: spans, same-thread children, and the trace's self
        // time in microseconds.
        let mut by_name: std::collections::BTreeMap<&str, (u64, u64, i64)> = Default::default();
        for s in &trace.spans {
            let (count, _, own) = by_name.entry(s.name.as_str()).or_default();
            *count += 1;
            *own += s.dur_us as i64;
            if let Some(parent) = s.parent_id.and_then(span).filter(|p| p.tid == s.tid) {
                let (_, children, own) = by_name.entry(parent.name.as_str()).or_default();
                *children += 1;
                *own -= s.dur_us as i64;
            }
        }
        let table = &result.stats.telemetry;
        assert!(table.stages.len() >= 4, "{table}");
        for stage in &table.stages {
            let (count, children, own_us) = by_name[stage.name.as_str()];
            assert_eq!(count, stage.count, "{}: {table}", stage.name);
            let over_us = stage.self_seconds * 1e6 - own_us as f64;
            assert!(
                (-(children as f64) - 1e-3..count as f64 + 1e-3).contains(&over_us),
                "{}: self time {over_us} µs over the trace's, {count} spans, {children} children",
                stage.name
            );
        }
    }

    /// A client the rising gather may only reach through the batch entry;
    /// it records the `(region, start, len)` of every request per call.
    struct CountingRisings {
        inner: TrendsService,
        calls: std::sync::Mutex<Vec<Vec<(State, Hour, u32)>>>,
    }

    impl TrendsClient for CountingRisings {
        fn fetch_frame(
            &self,
            req: &sift_trends::FrameRequest,
        ) -> Result<sift_trends::FrameResponse, FetchError> {
            TrendsClient::fetch_frame(&self.inner, req)
        }

        fn fetch_rising(
            &self,
            _: &RisingRequest,
        ) -> Result<sift_trends::RisingResponse, FetchError> {
            unreachable!("the rising gather asks through fetch_risings")
        }

        fn fetch_risings(
            &self,
            reqs: &[RisingRequest],
        ) -> Vec<Result<sift_trends::RisingResponse, FetchError>> {
            let asked = reqs.iter().map(|r| (r.state, r.start, r.len)).collect();
            self.calls.lock().expect("calls lock").push(asked);
            self.inner.fetch_risings(reqs)
        }
    }

    #[test]
    fn a_region_asks_for_each_rising_frame_once() {
        use sift_journal::testutil::scratch_dir;

        let params = small_params();
        let counting = || CountingRisings {
            inner: two_region_service(),
            calls: std::sync::Mutex::new(Vec::new()),
        };

        let plain = counting();
        let result = run_study(&plain, &params).expect("plain study");
        let plain_calls = plain.calls.lock().expect("calls lock").clone();
        assert!(shared_days(&result.bare_spikes(), &params) > 0);
        // One call per region, and no request asked twice.
        assert_eq!(plain_calls.len(), params.regions.len());
        for call in &plain_calls {
            assert!(call.iter().all(|(state, _, _)| *state == call[0].0));
        }
        let distinct: HashSet<_> = plain_calls.iter().flatten().collect();
        let distinct = distinct.len() as u64;
        assert_eq!(result.stats.rising_requested, distinct);
        assert_eq!(plain.inner.stats().rising_served, distinct);

        // A journal wants each response before the next is asked: the
        // same requests, one per call.
        let journaled = counting();
        let dir = scratch_dir("study_rising_once");
        let durability = StudyDurability::new(&dir);
        let durable = run_study_durable(&journaled, &params, &durability).expect("durable");
        let durable_calls = journaled.calls.lock().expect("calls lock").clone();
        assert!(durable_calls.iter().all(|call| call.len() == 1));
        let mut want: Vec<_> = plain_calls.into_iter().flatten().collect();
        let mut got: Vec<_> = durable_calls.into_iter().flatten().collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(
            durable.stats.rising_requested,
            result.stats.rising_requested
        );
        assert_eq!(outputs(&durable), outputs(&result));
    }

    /// Every crash state of TX's journal, with CA's never started,
    /// resumes to the uninterrupted result: TX resumes at the round after
    /// its last whole seal (so a torn seal re-opens its round and recovers
    /// it slot by slot), replays every whole frame record, and fetches
    /// only what the cut lost.
    #[test]
    fn durable_study_resumes_identically_from_every_cut() {
        use sift_journal::testutil::{scratch_dir, wal_cuts};
        use sift_journal::Journal;

        // Four weeks, so the sweep stays small: it reruns the study once
        // per cut.
        let params = StudyParams {
            range: HourRange::new(Hour(0), Hour(672)),
            ..small_params()
        };
        let clean = run_study(&two_region_service(), &params).expect("clean study");
        assert!(!clean.spikes.is_empty());
        let finished = scratch_dir("study_durable_finished");
        run_study_durable(
            &two_region_service(),
            &params,
            &StudyDurability::new(&finished),
        )
        .expect("uninterrupted durable study");
        let tx_wal = |dir: &std::path::Path| dir.join("TX").join("region.wal");
        let wal = std::fs::read(tx_wal(&finished)).expect("TX journal");
        let records = Journal::open(&tx_wal(&finished))
            .expect("journal")
            .1
            .records;
        let count = |prefix: &[Vec<u8>], kind: &[u8]| {
            u64::try_from(prefix.iter().filter(|r| r.starts_with(kind)).count()).unwrap()
        };

        for cut in wal_cuts(&wal) {
            let dir = scratch_dir("study_durable_cut");
            std::fs::create_dir_all(dir.join("TX")).expect("region dir");
            std::fs::write(tx_wal(&dir), &wal[..cut.len]).expect("cut");
            let prefix = &records[..cut.records];

            let service = two_region_service();
            let resumed = run_study_durable(&service, &params, &StudyDurability::new(&dir))
                .expect("resumed study");
            let seals = u32::try_from(count(prefix, b"{\"RoundDone\"")).unwrap();
            assert_eq!(
                resumed.stats.resumed_from_round,
                vec![(State::CA, 0), (State::TX, seals)],
                "{cut:?}"
            );
            let replayed = count(prefix, b"{\"Frame\"");
            assert_eq!(resumed.stats.frames_replayed, replayed, "{cut:?}");
            assert_eq!(
                service.stats().frames_served + replayed,
                clean.stats.frames_requested,
                "{cut:?}"
            );
            assert_eq!(outputs(&resumed), outputs(&clean), "{cut:?}");
            assert!(
                std::fs::read(tx_wal(&dir)).expect("TX journal") == wal,
                "{cut:?}: the resumed journal differs"
            );
        }

        // A resume of the *finished* study is a pure replay: zero fetches.
        let service = two_region_service();
        let replayed = run_study_durable(&service, &params, &StudyDurability::new(&finished))
            .expect("pure replay");
        assert_eq!(
            replayed.stats.frames_replayed,
            replayed.stats.frames_requested
        );
        let served = service.stats();
        assert_eq!((served.frames_served, served.rising_served), (0, 0));
        assert_eq!(outputs(&replayed), outputs(&clean));
    }

    #[test]
    fn durable_study_refuses_another_studys_directory() {
        use sift_journal::testutil::scratch_dir;

        let first = StudyParams {
            range: HourRange::new(Hour(0), Hour(1008)),
            ..small_params()
        };
        let dir = scratch_dir("study_foreign_dir");
        let durability = StudyDurability::new(&dir);
        run_study_durable(&two_region_service(), &first, &durability).expect("first study");

        // Another range over the same directory: its `(round, idx)` slots
        // would be answered with the first study's frames.
        let shifted = StudyParams {
            range: HourRange::new(Hour(504), Hour(1512)),
            ..first.clone()
        };
        let other_term = StudyParams {
            term: SearchTerm::parse("internet down"),
            ..first.clone()
        };
        for foreign in [shifted, other_term] {
            let service = two_region_service();
            let err = run_study_durable(&service, &foreign, &durability)
                .expect_err("foreign directory refused");
            assert!(matches!(err, StudyError::Durability { .. }), "{err}");
            let served = service.stats();
            assert_eq!((served.frames_served, served.rising_served), (0, 0));
        }

        // The study the directory belongs to still reopens, as a pure replay.
        let again = run_study_durable(&two_region_service(), &first, &durability)
            .expect("the same study reopens");
        assert_eq!(again.stats.frames_replayed, again.stats.frames_requested);
    }

    #[test]
    fn study_assembles_one_trace_with_all_stages_and_a_critical_path() {
        let service = two_region_service();
        let tid = {
            let root = sift_obs::span_recorded("study-trace-test");
            let _ = run_study(&service, &small_params()).expect("study runs");
            root.context().trace_id
        };
        let trace = sift_obs::trace::wait_completed(tid, std::time::Duration::from_secs(10))
            .expect("trace completed");
        assert!(trace.orphans().is_empty(), "no severed parentage");
        for name in [
            "study", "plan", "region", "fetch", "stitch", "detect", "annotate",
        ] {
            assert!(
                trace.spans.iter().any(|s| s.name == name),
                "stage span {name} missing from the study trace"
            );
        }
        let stitch = trace
            .spans
            .iter()
            .find(|s| s.name == "stitch")
            .expect("stitch span");
        assert!(stitch.arg("frames_stitched").is_some_and(|n| n > 0));
        let context = trace
            .spans
            .iter()
            .find(|s| s.name == "context")
            .expect("context span");
        let lists = context.arg("suggestion_lists").expect("suggestion_lists");
        let distinct = context.arg("distinct_lists").expect("distinct_lists");
        assert!(0 < distinct && distinct <= lists, "{distinct} of {lists}");
        // The walk telescopes: every microsecond of the root is charged
        // to exactly one span name, the time-consuming stages are on the
        // path, and nothing but the roots and the pipeline's own stage
        // spans is. (What *share* of a 3 ms study the stages cover is the
        // scheduler's to decide, not this test's: asserting ">= 90 %"
        // failed one release run in sixty.)
        let cp = sift_obs::critical_path(&trace).expect("critical path");
        let root = trace.root().expect("root span");
        assert_eq!(cp.total_us, root.dur_us);
        assert_eq!(
            cp.by_name.iter().map(|(_, us)| us).sum::<u64>(),
            cp.total_us
        );
        for name in ["study", "region", "fetch"] {
            assert!(
                cp.by_name.iter().any(|(n, _)| n == name),
                "{name} must be on the critical path: {cp}"
            );
        }
        let known = [
            "study-trace-test",
            "study",
            "stitch",
            "fetch",
            "region",
            "plan",
            "detect",
            "annotate",
            "context",
            "cluster",
            "rising",
        ];
        assert!(
            cp.by_name.iter().all(|(n, _)| known.contains(&n.as_str())),
            "only pipeline stages on the critical path: {cp}"
        );
    }

    /// Everything a study outputs except wall-clock telemetry, with
    /// float weights as bits.
    fn outputs(r: &StudyResult) -> String {
        let spikes: Vec<_> = r
            .spikes
            .iter()
            .map(|a| {
                let annotations: Vec<_> = a
                    .annotations
                    .iter()
                    .map(|n| (&n.label, n.weight.to_bits(), n.heavy_hitter))
                    .collect();
                (a.spike, annotations)
            })
            .collect();
        format!(
            "{spikes:?}\n{:?}\n{}\n{:?}\n{:?}",
            r.heavy_hitters, r.distinct_terms, r.clusters, r.timelines
        )
    }

    #[test]
    fn single_thread_matches_parallel() {
        let service = two_region_service();
        let mut params = small_params();
        params.threads = 1;
        let seq = run_study(&service, &params).expect("study runs");
        assert!(seq.spikes.len() > 8, "more spikes than the widest fan-out");
        for threads in [2, 3, 8] {
            params.threads = threads;
            let par = run_study(&service, &params).expect("study runs");
            assert_eq!(outputs(&seq), outputs(&par), "threads = {threads}");
        }
    }

    fn region_outcomes(params: &StudyParams) -> Vec<RegionOutcome> {
        let service = two_region_service();
        let plan = plan_frames(params.range, params.plan);
        params
            .regions
            .iter()
            .map(|&state| {
                run_region_study(&service, params, &plan.frames, state, None).expect("region runs")
            })
            .collect()
    }

    /// Assembles `regions` and checks the heavy hitters, the distinct
    /// term count and every spike's annotations against the string-keyed
    /// references, each spike against its own suggestion list.
    fn assert_assembly_matches_the_reference(
        params: &StudyParams,
        regions: Vec<RegionOutcome>,
    ) -> StudyResult {
        use crate::context::tests::{
            assert_same_annotations, reference_annotate, reference_heavy_hitters,
        };
        let gathered: Vec<(Spike, Vec<RisingTerm>)> =
            regions.iter().flat_map(|r| r.spikes.clone()).collect();
        let sets: Vec<Vec<String>> = gathered
            .iter()
            .map(|(_, sugg)| sugg.iter().map(|t| t.term.clone()).collect())
            .collect();
        let (heavy, distinct) = reference_heavy_hitters(&sets, params.context.heavy_hitter_mass);

        let result = assemble_study(params, regions, false);
        assert_eq!(result.heavy_hitters, heavy);
        assert_eq!(result.distinct_terms, distinct);
        assert_eq!(result.spikes.len(), gathered.len());
        for got in &result.spikes {
            let (spike, suggestions) = gathered
                .iter()
                .find(|(s, _)| *s == got.spike)
                .expect("annotated spike was gathered");
            let want = reference_annotate(*spike, suggestions, &heavy, &params.context);
            assert_same_annotations(got, &want);
        }
        result
    }

    #[test]
    fn study_annotations_match_the_string_keyed_reference() {
        let params = small_params();
        let result = assert_assembly_matches_the_reference(&params, region_outcomes(&params));
        assert!(result.spikes.iter().any(|a| a.annotations.len() > 1));
    }

    /// A region whose spikes, one every 50 hours, carry `lists`.
    fn hand_built_outcome(state: State, lists: Vec<Vec<RisingTerm>>) -> RegionOutcome {
        let spikes = (0i64..)
            .zip(lists)
            .map(|(i, list)| {
                let start = Hour(50 * i);
                let spike = Spike {
                    state,
                    start,
                    peak: start + 2,
                    end: start + 6,
                    magnitude: 40.0,
                };
                (spike, list)
            })
            .collect();
        RegionOutcome {
            state,
            timeline: Timeline {
                state,
                start: Hour(0),
                values: Vec::new(),
            },
            rounds: 1,
            converged: true,
            frames_requested: 0,
            frames_degraded: 0,
            coverage: 1.0,
            resumed_from_round: 0,
            frames_replayed: 0,
            rising_requested: 0,
            spikes,
        }
    }

    #[test]
    fn spikes_with_equal_lists_share_annotations_and_near_misses_do_not() {
        use crate::context::tests::term;
        let base = vec![
            term("verizon outage", 100),
            term("is verizon down", 60),
            term("power outage", 90),
            term("weird meme query", 80),
        ];
        // The daily drill-down's ×3 boost on one term.
        let mut boosted = base.clone();
        boosted[0].weight *= 3;
        let mut reordered = base.clone();
        reordered.reverse();
        let regions = vec![
            hand_built_outcome(
                State::TX,
                vec![base.clone(), boosted.clone(), base.clone(), Vec::new()],
            ),
            hand_built_outcome(
                State::CA,
                vec![boosted, reordered, Vec::new(), base.clone(), base],
            ),
        ];
        for threads in [1, 3] {
            let params = StudyParams {
                threads,
                ..small_params()
            };
            assert_assembly_matches_the_reference(&params, regions.clone());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Random regions whose spikes draw their lists from a small pool,
        /// as is, with one weight tripled, or reversed: the memoised
        /// assembly is the reference at every thread count.
        #[test]
        fn assembly_with_repeated_lists_matches_the_reference(
            pool in proptest::collection::vec(crate::context::tests::suggestions_strategy(), 1..5),
            picks in proptest::collection::vec(
                proptest::collection::vec((0usize..8, 0u8..3), 0..8),
                1..4,
            ),
        ) {
            let regions: Vec<RegionOutcome> = [State::TX, State::CA, State::NY]
                .into_iter()
                .zip(&picks)
                .map(|(state, region)| {
                    let lists = region
                        .iter()
                        .map(|&(pick, variant)| {
                            let mut list = pool[pick % pool.len()].clone();
                            match (variant, list.first_mut()) {
                                (1, Some(first)) => first.weight *= 3,
                                (2, _) => list.reverse(),
                                _ => {}
                            }
                            list
                        })
                        .collect();
                    hand_built_outcome(state, lists)
                })
                .collect();
            for threads in [1, 2, 3, 8] {
                let params = StudyParams { threads, ..small_params() };
                assert_assembly_matches_the_reference(&params, regions.clone());
            }
        }
    }

    #[test]
    fn assemble_handles_no_spikes_and_fewer_spikes_than_threads() {
        let mut params = small_params();
        params.threads = 8;
        let mut regions = region_outcomes(&params);

        // Three spikes for eight threads.
        regions[0].spikes.truncate(2);
        regions[1].spikes.truncate(1);
        let few = assemble_study(&params, regions.clone(), false);
        assert_eq!(few.spikes.len(), 3);
        assert!(few.spikes.iter().all(|a| !a.annotations.is_empty()));
        params.threads = 1;
        assert_eq!(
            outputs(&few),
            outputs(&assemble_study(&params, regions.clone(), false))
        );

        // None at all.
        params.threads = 8;
        for r in &mut regions {
            r.spikes.clear();
        }
        let none = assemble_study(&params, regions, false);
        assert!(none.spikes.is_empty() && none.clusters.is_empty());
        assert!(none.heavy_hitters.is_empty());
        assert_eq!(none.distinct_terms, 0);
        assert_eq!(none.timelines.len(), 2);
    }
}
