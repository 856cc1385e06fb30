//! Iterative re-fetch averaging.
//!
//! "We mitigate the sampling error with an iterative method. First, we
//! build a time series from a single set of time frames and detect the
//! resulting spikes. Then, we repeat this procedure but instead take the
//! average of two time frames to reduce the sampling error at each time
//! frame position. We follow this procedure until the set of spikes we
//! detect converge" (§3.2). The paper observes convergence after six
//! rounds.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::detect::{detect_spikes, DetectParams, Spike};
use crate::durable::RegionJournal;
use crate::timeline::{stitch, StitchError, Timeline};
use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_simtime::HourRange;
use sift_trends::client::{FetchError, TrendsClient};
use sift_trends::{FrameRequest, FrameResponse, SearchTerm};

/// Parameters of the averaging loop.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RefetchParams {
    /// Maximum re-fetch rounds (the paper needed six).
    pub max_rounds: u32,
    /// Spike-set similarity at which the loop declares convergence.
    pub convergence: f64,
}

/// Minimum rounds before the averaging loop may declare convergence.
pub const MIN_ROUNDS: u32 = 2;

/// Two spikes "match" across rounds when their peaks are within this many
/// hours.
pub const PEAK_TOLERANCE_H: i64 = 3;

/// Spikes below this magnitude are ignored by the convergence criterion
/// (they still appear in the final spike set). Near the detection floor,
/// sampling noise makes marginal spikes flicker between rounds; requiring
/// them to stabilise would keep the loop fetching long after the
/// meaningful spikes have settled.
pub const CONVERGENCE_FLOOR: f64 = 1.0;

impl Default for RefetchParams {
    fn default() -> Self {
        RefetchParams {
            max_rounds: 8,
            convergence: 0.95,
        }
    }
}

/// The outcome of the averaging loop for one region.
#[derive(Clone, Debug)]
pub struct RefetchOutcome {
    /// The averaged, renormalized timeline after the final round.
    pub timeline: Timeline,
    /// Spikes detected on the final timeline.
    pub spikes: Vec<Spike>,
    /// Rounds executed.
    pub rounds: u32,
    /// Whether the spike set converged (vs hitting `max_rounds`).
    pub converged: bool,
    /// Spike-set similarity after each round (starting with round 2).
    pub similarity_trace: Vec<f64>,
    /// Frame slots filled with a live or journal-replayed response
    /// (degraded slots are not counted). Replayed slots are included so a
    /// resumed run reports the same logical workload as an uninterrupted
    /// one; [`RefetchOutcome::frames_replayed`] says how many of them
    /// never touched the network this time.
    pub frames_fetched: u64,
    /// Of [`RefetchOutcome::frames_fetched`], slots served from a
    /// recovered journal instead of the network (resumed runs only).
    pub frames_replayed: u64,
    /// The re-fetch round this loop resumed at (0 for a fresh run): every
    /// earlier round was recovered whole from the journal.
    pub resumed_from_round: u32,
    /// Frame slots filled from the previous round's response because the
    /// fresh fetch failed (graceful degradation; only possible after
    /// round 1).
    pub frames_degraded: u64,
    /// Fresh-fetch share of all frame slots filled:
    /// `frames_fetched / (frames_fetched + frames_degraded)`. 1.0 means
    /// every frame of every round came from a live fetch.
    pub coverage: f64,
}

/// Errors of the averaging loop.
#[derive(Debug)]
pub enum RefetchError {
    /// A frame fetch failed (after the client's own retries).
    Fetch(FetchError),
    /// Fetched frames could not be stitched.
    Stitch(StitchError),
    /// The write-ahead journal could not be written. Raised only when
    /// durability was requested: a crawl that cannot uphold its
    /// crash-safety contract fails loudly instead of silently degrading
    /// to a non-resumable run.
    Durability(std::io::Error),
}

impl std::fmt::Display for RefetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefetchError::Fetch(e) => write!(f, "fetching failed: {e}"),
            RefetchError::Stitch(e) => write!(f, "stitching failed: {e}"),
            RefetchError::Durability(e) => write!(f, "journaling failed: {e}"),
        }
    }
}

impl std::error::Error for RefetchError {}

/// Magnitude-weighted similarity of two spike sets: the matched share of
/// spike mass, where a spike of set `a` matches at most one spike of set
/// `b` with a peak within `tolerance_h` hours, contributing the smaller of
/// the two magnitudes. Two empty sets are fully similar.
///
/// Weighting by magnitude makes the convergence criterion care about the
/// spikes that matter: marginal, noise-floor spikes flickering between
/// rounds barely move the score, while a major spike appearing or
/// disappearing does.
pub fn spike_set_similarity(a: &[Spike], b: &[Spike], tolerance_h: i64) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mass = |set: &[Spike]| set.iter().map(|s| s.magnitude).sum::<f64>();
    let denom = mass(a).max(mass(b));
    if denom <= 0.0 {
        return 1.0;
    }
    let mut used = vec![false; b.len()];
    let mut matched = 0.0f64;
    for sa in a {
        if let Some((idx, sb)) = b
            .iter()
            .enumerate()
            .filter(|(i, sb)| !used[*i] && (sb.peak - sa.peak).abs() <= tolerance_h)
            .min_by_key(|(_, sb)| (sb.peak - sa.peak).abs())
        {
            used[idx] = true;
            matched += sa.magnitude.min(sb.magnitude);
        }
    }
    matched / denom
}

/// Runs the averaging loop for one region over pre-planned frame ranges.
///
/// Each round fetches every frame with a fresh sample tag, stitches a
/// timeline, folds it into the running mean, re-detects spikes and
/// compares the spike set with the previous round's.
///
/// Degradation contract: a frame fetch that still fails after the
/// client's own retries aborts the loop only in round 1 (there is nothing
/// to fall back to). From round 2 on, the slot is filled with the
/// previous round's response for the same frame — the running mean keeps
/// its shape, the round merely adds no fresh sample there — and the loss
/// is surfaced in [`RefetchOutcome::frames_degraded`] /
/// [`RefetchOutcome::coverage`] and the
/// `sift_refetch_frames_degraded_total` counter.
pub fn averaged_timeline(
    client: &dyn TrendsClient,
    term: &SearchTerm,
    state: State,
    frames: &[HourRange],
    params: &RefetchParams,
    detect: &DetectParams,
) -> Result<RefetchOutcome, RefetchError> {
    averaged_timeline_impl(client, term, state, frames, params, detect, None)
}

/// [`averaged_timeline`] with crash-safe durability: every response is
/// journaled before it is folded into the running mean, each completed
/// round is sealed with a synced `RoundDone` record, and slots the
/// journal already holds are replayed instead of re-fetched. A loop
/// killed in round *k* therefore resumes at round *k*, re-fetching at
/// most the one response that was in flight — and, because replayed
/// responses flow through the same code path as live ones, converges to
/// the same outcome an uninterrupted run would have produced.
pub fn averaged_timeline_durable(
    client: &dyn TrendsClient,
    term: &SearchTerm,
    state: State,
    frames: &[HourRange],
    params: &RefetchParams,
    detect: &DetectParams,
    journal: &mut RegionJournal,
) -> Result<RefetchOutcome, RefetchError> {
    averaged_timeline_impl(client, term, state, frames, params, detect, Some(journal))
}

fn averaged_timeline_impl(
    client: &dyn TrendsClient,
    term: &SearchTerm,
    state: State,
    frames: &[HourRange],
    params: &RefetchParams,
    detect: &DetectParams,
    mut journal: Option<&mut RegionJournal>,
) -> Result<RefetchOutcome, RefetchError> {
    assert!(params.max_rounds >= 1);
    let resumed_from_round = journal.as_ref().map_or(0, |j| j.resumed_from_round());
    let state_label = state.to_string();
    let mut similarity_trace = Vec::new();
    let mut frames_fetched = 0u64;
    let mut frames_replayed = 0u64;
    let mut frames_degraded = 0u64;
    let mut rounds = 0u32;
    let mut converged = false;

    let mut responses: Vec<FrameResponse> = Vec::with_capacity(frames.len());
    // Empty until the first round completes: the degradation fallback
    // reads the previous round's response for the same slot.
    let mut prev_responses: Vec<FrameResponse> = Vec::new();
    // The running mean of the round timelines, un-renormalized.
    let mut mean: Option<Timeline> = None;
    let mut spikes: Vec<Spike> = Vec::new();
    let mut prev_strong: Option<Vec<Spike>> = None;
    // One request per slot, re-tagged per round: `SearchTerm` owns heap,
    // so building them per fetch would allocate once per frame per round.
    let mut requests: Vec<FrameRequest> = frames
        .iter()
        .map(|r| FrameRequest {
            term: term.clone(),
            state,
            start: r.start,
            len: u32::try_from(r.len()).unwrap_or(u32::MAX),
            tag: 0,
        })
        .collect();

    for round in 0..params.max_rounds {
        rounds = round + 1;
        {
            let _span = sift_obs::span("fetch");
            responses.clear();
            for request in &mut requests {
                request.tag = u64::from(round);
            }
            let mut next = 0;
            while next < frames.len() {
                let idx = u32::try_from(next).unwrap_or(u32::MAX);
                // A slot the journal holds was fetched in a previous life
                // of this process — replay it; fetching again would break
                // the zero-refetch resume contract.
                if let Some(resp) = journal.as_mut().and_then(|j| j.replayed_frame(round, idx)) {
                    frames_fetched += 1;
                    frames_replayed += 1;
                    responses.push(resp);
                    next += 1;
                    continue;
                }
                // A round's frames are independent of one another, so the
                // client gets the rest of the round in one call — except
                // under a journal, whose contract is that each response
                // is recorded before the next is requested (a crash then
                // costs at most the one in flight).
                let end = if journal.is_some() {
                    next + 1
                } else {
                    frames.len()
                };
                for (i, fetched) in (next..end).zip(client.fetch_frames(&requests[next..end])) {
                    let idx = u32::try_from(i).unwrap_or(u32::MAX);
                    match fetched {
                        Ok(resp) => {
                            if let Some(j) = journal.as_mut() {
                                j.record_frame(round, idx, &resp)
                                    .map_err(RefetchError::Durability)?;
                            }
                            frames_fetched += 1;
                            responses.push(resp);
                        }
                        Err(e) => {
                            // Round 1 has no previous sample to degrade to;
                            // later rounds reuse the same frame slot from the
                            // round before and carry on.
                            if prev_responses.is_empty() {
                                return Err(RefetchError::Fetch(e));
                            }
                            frames_degraded += 1;
                            sift_obs::counter(
                                "sift_refetch_frames_degraded_total",
                                &[("state", &state_label)],
                            )
                            .inc();
                            // Journal the degraded slot too: replay must
                            // reproduce the run exactly, including the slots
                            // that fell back to the previous round's sample.
                            if let Some(j) = journal.as_mut() {
                                j.record_frame(round, idx, &prev_responses[i])
                                    .map_err(RefetchError::Durability)?;
                            }
                            responses.push(prev_responses[i].clone());
                        }
                    }
                }
                next = end;
            }
            sift_obs::attr_add("frames", u64::try_from(responses.len()).unwrap_or(u64::MAX));
        }

        let round_timeline = {
            let _span = sift_obs::span("stitch");
            stitch(&responses).map_err(RefetchError::Stitch)?
        };
        std::mem::swap(&mut prev_responses, &mut responses);
        // Seal the round: a synced `RoundDone` record. A crash from here
        // on resumes at round + 1.
        if let Some(j) = journal.as_mut() {
            j.round_done(round).map_err(RefetchError::Durability)?;
        }

        let mean = match &mut mean {
            Some(mean) => {
                mean.accumulate_mean(&round_timeline, round + 1);
                mean
            }
            None => mean.insert(round_timeline),
        };
        // Work on a renormalized copy; the running mean itself must stay
        // un-renormalized so later rounds average in the same units.
        {
            let _span = sift_obs::span("detect");
            let mut detect_input = mean.clone();
            detect_input.renormalize();
            spikes = detect_spikes(&detect_input, detect);
        }

        let strong: Vec<Spike> = spikes
            .iter()
            .copied()
            .filter(|s| s.magnitude >= CONVERGENCE_FLOOR)
            .collect();
        if let Some(prev_strong) = &prev_strong {
            let sim = spike_set_similarity(prev_strong, &strong, PEAK_TOLERANCE_H);
            similarity_trace.push(sim);
            if rounds >= MIN_ROUNDS && sim >= params.convergence {
                converged = true;
                break;
            }
        }
        prev_strong = Some(strong);
    }

    sift_obs::counter("sift_refetch_rounds_total", &[("state", &state_label)])
        .add(u64::from(rounds));
    if converged {
        sift_obs::counter("sift_refetch_converged_total", &[("state", &state_label)]).inc();
    }
    sift_obs::counter("sift_spikes_detected_total", &[("state", &state_label)])
        .add(u64::try_from(spikes.len()).unwrap_or(u64::MAX));

    // `spikes` and `mean` hold the last completed round's detection and
    // running mean: round 1 always runs to completion or returns `Err`
    // above, and the convergence break leaves both intact.
    #[expect(clippy::expect_used, reason = "round 1 always completes")]
    let mut timeline = mean.expect("round 1 completed");
    timeline.renormalize();
    let slots = frames_fetched + frames_degraded;
    #[expect(clippy::as_conversions, reason = "slot counts ≪ 2⁵³ are exact in f64")]
    let coverage = if slots == 0 {
        1.0
    } else {
        frames_fetched as f64 / slots as f64
    };
    Ok(RefetchOutcome {
        timeline,
        spikes,
        rounds,
        converged,
        similarity_trace,
        frames_fetched,
        frames_replayed,
        resumed_from_round,
        frames_degraded,
        coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_simtime::Hour;
    use sift_trends::events::{Cause, OutageEvent};
    use sift_trends::terms::Provider;
    use sift_trends::{Scenario, TrendsService};

    fn spike(peak: i64) -> Spike {
        Spike {
            state: State::TX,
            start: Hour(peak - 1),
            peak: Hour(peak),
            end: Hour(peak + 2),
            magnitude: 50.0,
        }
    }

    fn close(x: f64, want: f64) -> bool {
        (x - want).abs() < 1e-12
    }

    #[test]
    fn similarity_edge_cases() {
        assert!(close(spike_set_similarity(&[], &[], 3), 1.0));
        assert!(close(spike_set_similarity(&[spike(10)], &[], 3), 0.0));
        assert!(close(spike_set_similarity(&[], &[spike(10)], 3), 0.0));
        assert!(close(
            spike_set_similarity(&[spike(10)], &[spike(11)], 3),
            1.0
        ));
        assert!(close(
            spike_set_similarity(&[spike(10)], &[spike(20)], 3),
            0.0
        ));
    }

    #[test]
    fn similarity_does_not_double_match() {
        // Two spikes in `a` near one spike in `b`: only one may match.
        let a = [spike(10), spike(12)];
        let b = [spike(11)];
        assert!(close(spike_set_similarity(&a, &b, 3), 0.5));
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = [spike(10), spike(40), spike(90)];
        let b = [spike(11), spike(41)];
        assert_eq!(
            spike_set_similarity(&a, &b, 3).to_bits(),
            spike_set_similarity(&b, &a, 3).to_bits()
        );
    }

    /// A realistic-density world: two target events plus periodic
    /// moderate "anchor" outages. Real states see several outages a day,
    /// which is what keeps every weekly frame's scaling ratio anchored;
    /// a world with two events in five weeks has quiet frames whose
    /// maxima are anonymity-noise flukes, and no stitcher can calibrate
    /// across a 100x dynamic-range jump quantized to integers.
    fn service_with_events() -> TrendsService {
        let mut events = vec![
            OutageEvent {
                id: 0,
                name: "big".into(),
                cause: Cause::IspNetwork(Provider::Verizon),
                start: Hour(200),
                duration_h: 10,
                states: vec![(State::TX, 0.25)],
                severity: 9_000.0,
                lags_h: vec![0],
            },
            OutageEvent {
                id: 1,
                name: "small".into(),
                cause: Cause::IspNetwork(Provider::Comcast),
                start: Hour(600),
                duration_h: 6,
                states: vec![(State::TX, 0.10)],
                severity: 9_000.0,
                lags_h: vec![0],
            },
        ];
        for (i, start) in (40..900).step_by(60).enumerate() {
            events.push(OutageEvent {
                id: 100 + i as u32,
                name: format!("anchor-{i}"),
                cause: Cause::IspNetwork(Provider::Frontier),
                start: Hour(start),
                duration_h: 2,
                states: vec![(State::TX, 0.015)],
                severity: 8_000.0,
                lags_h: vec![0],
            });
        }
        TrendsService::with_defaults(Scenario::single_region(State::TX, events))
    }

    fn weekly_frames(hours: i64) -> Vec<HourRange> {
        crate::plan::plan_frames(
            HourRange::new(Hour(0), Hour(hours)),
            crate::plan::PlanParams::default(),
        )
        .frames
    }

    #[test]
    fn averaging_converges_and_finds_events() {
        let service = service_with_events();
        let outcome = averaged_timeline(
            &service,
            &SearchTerm::parse("topic:Internet outage"),
            State::TX,
            &weekly_frames(900),
            &RefetchParams::default(),
            &DetectParams::default(),
        )
        .expect("averaging succeeds");

        assert!(outcome.rounds >= 2);
        assert!(
            outcome.converged,
            "similarity trace: {:?}",
            outcome.similarity_trace
        );
        // Both injected events are among the detected spikes.
        let has_peak_near = |h: i64| outcome.spikes.iter().any(|s| (s.peak - Hour(h)).abs() <= 6);
        assert!(has_peak_near(205), "spikes: {:?}", outcome.spikes);
        assert!(has_peak_near(603), "spikes: {:?}", outcome.spikes);
        assert_eq!(outcome.timeline.range().len(), 900);
        assert!(outcome.frames_fetched > 0);
        assert_eq!(outcome.frames_degraded, 0);
        assert!((outcome.coverage - 1.0).abs() < 1e-12);
    }

    /// A client that fails every `period`-th frame fetch (transport-style)
    /// once the first round has completed cleanly.
    struct FlakyAfterFirstRound {
        inner: TrendsService,
        round_len: usize,
        period: usize,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl sift_trends::client::TrendsClient for FlakyAfterFirstRound {
        fn fetch_frame(
            &self,
            req: &sift_trends::FrameRequest,
        ) -> Result<sift_trends::FrameResponse, sift_trends::client::FetchError> {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if call >= self.round_len && call % self.period == 0 {
                return Err(sift_trends::client::FetchError::Transport(
                    "injected reset".into(),
                ));
            }
            self.inner
                .fetch_frame(req)
                .map_err(sift_trends::client::FetchError::Service)
        }

        fn fetch_rising(
            &self,
            req: &sift_trends::RisingRequest,
        ) -> Result<sift_trends::RisingResponse, sift_trends::client::FetchError> {
            self.inner
                .fetch_rising(req)
                .map_err(sift_trends::client::FetchError::Service)
        }
    }

    /// `name{state="TX"}`: process-global, so tests compare deltas.
    fn tx_counter(name: &str) -> u64 {
        sift_obs::counter(name, &[("state", &State::TX.to_string())]).get()
    }

    #[test]
    fn fetch_failures_after_round_one_degrade_instead_of_aborting() {
        let degraded_before = tx_counter("sift_refetch_frames_degraded_total");
        let frames = weekly_frames(900);
        let client = FlakyAfterFirstRound {
            inner: service_with_events(),
            round_len: frames.len(),
            period: 5,
            calls: std::sync::atomic::AtomicUsize::new(0),
        };
        let outcome = averaged_timeline(
            &client,
            &SearchTerm::parse("topic:Internet outage"),
            State::TX,
            &frames,
            &RefetchParams::default(),
            &DetectParams::default(),
        )
        .expect("degraded averaging still succeeds");
        assert!(outcome.frames_degraded > 0, "{outcome:?}");
        assert!(tx_counter("sift_refetch_frames_degraded_total") > degraded_before);
        assert!(
            outcome.coverage < 1.0 && outcome.coverage > 0.5,
            "{outcome:?}"
        );
        // The injected events survive the degradation.
        let has_peak_near = |h: i64| outcome.spikes.iter().any(|s| (s.peak - Hour(h)).abs() <= 6);
        assert!(has_peak_near(205), "spikes: {:?}", outcome.spikes);
        assert_eq!(outcome.timeline.range().len(), 900);
    }

    #[test]
    fn round_one_failures_still_propagate() {
        // Fails from the very first call: there is no previous round to
        // degrade to, so the loop must surface the error.
        let frames = weekly_frames(900);
        let client = FlakyAfterFirstRound {
            inner: service_with_events(),
            round_len: 0,
            period: 1,
            calls: std::sync::atomic::AtomicUsize::new(0),
        };
        let err = averaged_timeline(
            &client,
            &SearchTerm::parse("topic:Internet outage"),
            State::TX,
            &frames,
            &RefetchParams::default(),
            &DetectParams::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RefetchError::Fetch(_)), "{err}");
    }

    #[test]
    fn averaging_suppresses_baseline_noise() {
        // One real event in an otherwise quiet world: the anonymity-
        // thresholded baseline noise (occasional counts of 2–3) must stay
        // far below the event once the series is globally calibrated.
        let mut events = vec![OutageEvent {
            id: 0,
            name: "main".into(),
            cause: Cause::IspNetwork(Provider::Verizon),
            start: Hour(400),
            duration_h: 8,
            states: vec![(State::TX, 0.25)],
            severity: 9_000.0,
            lags_h: vec![0],
        }];
        for (i, start) in (40..900).step_by(60).enumerate() {
            events.push(OutageEvent {
                id: 100 + i as u32,
                name: format!("anchor-{i}"),
                cause: Cause::IspNetwork(Provider::Frontier),
                start: Hour(start),
                duration_h: 2,
                states: vec![(State::TX, 0.015)],
                severity: 8_000.0,
                lags_h: vec![0],
            });
        }
        let service = TrendsService::with_defaults(Scenario::single_region(State::TX, events));
        let outcome = averaged_timeline(
            &service,
            &SearchTerm::parse("topic:Internet outage"),
            State::TX,
            &weekly_frames(900),
            &RefetchParams::default(),
            &DetectParams::default(),
        )
        .expect("averaging succeeds");
        let strong: Vec<_> = outcome
            .spikes
            .iter()
            .filter(|s| s.magnitude > 50.0)
            .collect();
        assert_eq!(strong.len(), 1, "spikes: {:?}", outcome.spikes);
        assert!(
            (strong[0].peak - Hour(403)).abs() <= 2,
            "peak {:?}",
            strong[0].peak
        );
        // Baseline texture may register as spikes (it does on the real
        // service too), but must stay an order of magnitude below the
        // event.
        let medium = outcome
            .spikes
            .iter()
            .filter(|s| s.magnitude > 12.0 && s.magnitude <= 50.0)
            .count();
        assert!(medium <= 3, "texture too strong: {:?}", outcome.spikes);
    }

    /// Every crash state of the round loop's journal resumes to the
    /// uninterrupted outcome, replaying each whole frame record instead
    /// of fetching it.
    #[test]
    fn durable_loop_resumes_to_the_identical_outcome_from_every_cut() {
        use crate::durable::StudyDurability;
        use sift_journal::testutil::{scratch_dir, wal_cuts};
        use sift_journal::Journal;

        let term = SearchTerm::parse("topic:Internet outage");
        let frames = weekly_frames(900);
        let run = |dir: &std::path::Path| {
            let mut j = StudyDurability::new(dir)
                .region(&term, State::TX, &frames)
                .expect("open");
            averaged_timeline_durable(
                &service_with_events(),
                &term,
                State::TX,
                &frames,
                &RefetchParams::default(),
                &DetectParams::default(),
                &mut j,
            )
            .expect("durable run")
        };
        let clean = averaged_timeline(
            &service_with_events(),
            &term,
            State::TX,
            &frames,
            &RefetchParams::default(),
            &DetectParams::default(),
        )
        .expect("clean run");

        let finished = scratch_dir("refetch_durable_finished");
        run(&finished);
        let path = finished.join("TX").join("region.wal");
        let wal = std::fs::read(&path).expect("journal");
        let records = Journal::open(&path).expect("journal").1.records;
        for cut in wal_cuts(&wal) {
            let dir = scratch_dir("refetch_durable_cut");
            std::fs::create_dir_all(dir.join("TX")).expect("region dir");
            std::fs::write(dir.join("TX").join("region.wal"), &wal[..cut.len]).expect("cut");
            let resumed = run(&dir);
            let journaled = records[..cut.records]
                .iter()
                .filter(|r| r.starts_with(b"{\"Frame\""))
                .count();
            assert_eq!(resumed.frames_replayed, journaled as u64, "{cut:?}");
            assert_eq!(resumed.timeline, clean.timeline, "{cut:?}");
            assert_eq!(resumed.spikes, clean.spikes, "{cut:?}");
            assert_eq!(resumed.rounds, clean.rounds, "{cut:?}");
            assert_eq!(resumed.converged, clean.converged, "{cut:?}");
            assert_eq!(
                resumed.frames_fetched, clean.frames_fetched,
                "{cut:?}: replayed slots count toward the same logical workload"
            );
        }
    }

    /// A client the round loop may only reach through the batch entry.
    /// It records each call's size, answers `swap.0` as if it were
    /// `swap.1` (same slot, another round's sample), and fails `fail`.
    struct Batched {
        inner: TrendsService,
        calls: std::sync::Mutex<Vec<usize>>,
        fail: Option<(u64, Hour)>,
        swap: Option<((u64, Hour), u64)>,
    }

    impl Batched {
        fn new() -> Self {
            Batched {
                inner: service_with_events(),
                calls: std::sync::Mutex::new(Vec::new()),
                fail: None,
                swap: None,
            }
        }
    }

    impl sift_trends::client::TrendsClient for Batched {
        fn fetch_frame(&self, _: &FrameRequest) -> Result<FrameResponse, FetchError> {
            unreachable!("the round loop asks through fetch_frames")
        }

        fn fetch_rising(
            &self,
            req: &sift_trends::RisingRequest,
        ) -> Result<sift_trends::RisingResponse, FetchError> {
            self.inner.fetch_rising(req).map_err(FetchError::Service)
        }

        fn fetch_frames(&self, reqs: &[FrameRequest]) -> Vec<Result<FrameResponse, FetchError>> {
            self.calls.lock().expect("calls lock").push(reqs.len());
            reqs.iter()
                .map(|req| {
                    let at = (req.tag, req.start);
                    if self.fail == Some(at) {
                        return Err(FetchError::Transport("injected reset".into()));
                    }
                    let mut req = req.clone();
                    if let Some((from, tag)) = self.swap {
                        if from == at {
                            req.tag = tag;
                        }
                    }
                    self.inner.fetch_frame(&req).map_err(FetchError::Service)
                })
                .collect()
        }
    }

    fn run(client: &Batched, frames: &[HourRange]) -> RefetchOutcome {
        averaged_timeline(
            client,
            &SearchTerm::parse("topic:Internet outage"),
            State::TX,
            frames,
            &RefetchParams::default(),
            &DetectParams::default(),
        )
        .expect("averaging succeeds")
    }

    #[test]
    fn a_failed_item_of_a_batch_degrades_exactly_its_slot() {
        let frames = weekly_frames(900);
        let slot = (1, frames[2].start);
        let failing = Batched {
            fail: Some(slot),
            ..Batched::new()
        };
        // Degrading a slot means averaging in the previous round's
        // response for it: a client that answers the round-2 request with
        // the round-1 sample must produce the same run, minus the count.
        let substituting = Batched {
            swap: Some((slot, 0)),
            ..Batched::new()
        };
        let degraded = run(&failing, &frames);
        let reference = run(&substituting, &frames);
        assert_eq!(degraded.frames_degraded, 1);
        assert_eq!(degraded.frames_fetched + 1, reference.frames_fetched);
        assert_eq!(reference.frames_degraded, 0);
        assert_eq!(degraded.timeline, reference.timeline);
        assert_eq!(degraded.spikes, reference.spikes);
        assert_eq!(degraded.rounds, reference.rounds);
        assert_ne!(
            degraded.timeline,
            run(&Batched::new(), &frames).timeline,
            "the lost sample must matter, or this test shows nothing"
        );
    }

    #[test]
    fn a_round_is_one_call_unless_a_journal_wants_each_response_first() {
        use crate::durable::StudyDurability;
        use sift_journal::testutil::scratch_dir;

        let term = SearchTerm::parse("topic:Internet outage");
        let frames = weekly_frames(900);
        let plain = Batched::new();
        let outcome = run(&plain, &frames);
        let calls = plain.calls.lock().expect("calls lock").clone();
        assert_eq!(calls, vec![frames.len(); outcome.rounds as usize]);

        let journaled = Batched::new();
        let dir = scratch_dir("refetch_batch_of_one");
        let mut j = StudyDurability::new(&dir)
            .region(&term, State::TX, &frames)
            .expect("open");
        let durable = averaged_timeline_durable(
            &journaled,
            &term,
            State::TX,
            &frames,
            &RefetchParams::default(),
            &DetectParams::default(),
            &mut j,
        )
        .expect("durable run");
        // Each response is journaled before the next is requested, so a
        // crash costs at most the one in flight.
        let calls = journaled.calls.lock().expect("calls lock").clone();
        assert_eq!(calls, vec![1; frames.len() * durable.rounds as usize]);
        assert_eq!(durable.timeline, outcome.timeline);
        assert_eq!(durable.spikes, outcome.spikes);
        assert_eq!(durable.rounds, outcome.rounds);
        assert_eq!(durable.frames_fetched, outcome.frames_fetched);
    }

    #[test]
    fn errors_propagate() {
        let service = service_with_events();
        // A frame over the service limit.
        let err = averaged_timeline(
            &service,
            &SearchTerm::parse("topic:Internet outage"),
            State::TX,
            &[HourRange::new(Hour(0), Hour(500))],
            &RefetchParams::default(),
            &DetectParams::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RefetchError::Fetch(_)), "{err}");
    }
}
