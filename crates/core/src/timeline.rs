//! Time-series reconstruction: stitching piecewise-normalized frames.
//!
//! "SIFT reconstructs a continuous time series from piecewise time frames
//! by initially fetching consecutive and overlapping time frames. Then,
//! SIFT uses the intersecting regions to identify the scaling ratio
//! between the consecutive time frames. Finally, SIFT rescales the
//! right-adjacent time frame by this ratio and appends it sequentially to
//! the preceding time series" (§3.2).
//!
//! The scaling ratio is estimated as the ratio of sums over the overlap
//! (`r = Σs / Σf`, scaling the incoming frame `f` onto the running series
//! `s`). Because consecutive frames are *independent random samples* of
//! the same search population, their per-hour values rarely coincide in
//! quiet regions (anonymity rounding leaves sparse nonzero blocks), so
//! estimators that need pointwise agreement (least squares `Σs·f/Σf²`)
//! collapse; the ratio of sums only needs the overlap *expectations* to
//! match, which sampling guarantees. Frames whose overlap carries no
//! signal on either side inherit the previous frame's scale: with both
//! sides at zero, any ratio is consistent with the data and continuity is
//! the best prior.

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_simtime::{Hour, HourRange};
use sift_trends::FrameResponse;
use std::borrow::Borrow;
use std::fmt;

/// A continuous, globally-calibrated interest time series for one region,
/// renormalized to a 0–100 index over its full range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// The region the series describes.
    pub state: State,
    /// Hour of `values[0]`.
    pub start: Hour,
    /// Hourly interest values on the global 0–100 scale.
    pub values: Vec<f64>,
}

/// Saturating `usize → i64` for lengths and indices: a series cannot
/// approach 2⁶³ hours, and saturation keeps the conversion total without
/// introducing a panic path.
pub(crate) fn to_i64(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

impl Timeline {
    /// The covered hour range.
    pub fn range(&self) -> HourRange {
        HourRange::with_len(self.start, to_i64(self.values.len()))
    }

    /// The value at `at`, or `None` outside the range.
    pub fn value_at(&self, at: Hour) -> Option<f64> {
        if at < self.start {
            return None;
        }
        self.values
            .get(usize::try_from(at - self.start).ok()?)
            .copied()
    }

    /// Index of an hour within `values`, or `None` outside the range.
    pub fn index_of(&self, at: Hour) -> Option<usize> {
        if at < self.start || at >= self.start + to_i64(self.values.len()) {
            None
        } else {
            usize::try_from(at - self.start).ok()
        }
    }

    /// The hour of `values[idx]`.
    pub fn hour_of(&self, idx: usize) -> Hour {
        self.start + to_i64(idx)
    }

    /// Renormalizes the series so its maximum is 100 (no-op if all zero).
    pub fn renormalize(&mut self) {
        let max = self.values.iter().copied().fold(0.0f64, f64::max);
        if max > 0.0 {
            for v in &mut self.values {
                *v *= 100.0 / max;
            }
        }
    }

    /// Averages `other` into this timeline with weight `1/n` (running mean
    /// after `n` accumulated series). Ranges must match.
    pub fn accumulate_mean(&mut self, other: &Timeline, n: u32) {
        assert_eq!(self.range(), other.range(), "timeline ranges must match");
        assert!(n >= 1);
        let w = 1.0 / f64::from(n);
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += (b - *a) * w;
        }
    }
}

/// Why frames could not be stitched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StitchError {
    /// No frames were provided.
    NoFrames,
    /// Frames belong to different regions.
    MixedStates,
    /// Consecutive frames leave a gap: nothing to calibrate against.
    Gap {
        /// End of the covered series so far.
        covered_until: Hour,
        /// Start of the offending frame.
        next_start: Hour,
    },
    /// A frame adds no new hours (duplicate or out of order).
    NoProgress {
        /// Start of the offending frame.
        frame_start: Hour,
    },
    /// A streaming stitcher's retained overlap window is shorter than the
    /// overlap a frame requires (the frame reaches further back than the
    /// stitcher kept raw values for).
    OverlapExceedsWindow {
        /// Overlap hours the frame requires.
        overlap: i64,
        /// Raw hours the stitcher retained.
        window: i64,
    },
}

impl fmt::Display for StitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StitchError::NoFrames => write!(f, "no frames to stitch"),
            StitchError::MixedStates => write!(f, "frames from different regions"),
            StitchError::Gap {
                covered_until,
                next_start,
            } => write!(
                f,
                "gap between frames: covered until {covered_until}, next starts {next_start}"
            ),
            StitchError::NoProgress { frame_start } => {
                write!(f, "frame starting {frame_start} adds no new hours")
            }
            StitchError::OverlapExceedsWindow { overlap, window } => {
                write!(
                    f,
                    "frame needs {overlap}h of overlap but only {window}h were retained"
                )
            }
        }
    }
}

impl std::error::Error for StitchError {}

/// Stitches consecutive overlapping frames into one calibrated, 0–100
/// renormalized [`Timeline`].
///
/// Frames must be sorted by start (the fetcher's response store returns
/// them this way), cover each hour at least once, and each frame must
/// overlap the series built so far and add at least one hour to it.
///
/// The batch entry of the one stitcher: every frame goes through a
/// [`StreamStitcher`] whose window holds the longest frame (no overlap
/// is wider than the frame that brings it), and the finished raw series
/// is renormalized.
pub fn stitch<T: Borrow<FrameResponse>>(frames: &[T]) -> Result<Timeline, StitchError> {
    let first = frames.first().ok_or(StitchError::NoFrames)?.borrow();
    if frames.iter().any(|f| f.borrow().state != first.state) {
        return Err(StitchError::MixedStates);
    }
    let keep = frames
        .iter()
        .map(|f| f.borrow().values.len())
        .max()
        .unwrap_or(0);
    let mut stitcher = StreamStitcher::new(first.state, first.start, keep);
    let mut out = Timeline {
        state: first.state,
        start: first.start,
        values: Vec::new(),
    };
    let mut new_hours = Vec::new();
    for frame in frames {
        stitcher.append(frame.borrow(), &mut new_hours)?;
        out.values.extend_from_slice(&new_hours);
    }
    out.renormalize();
    sift_obs::attr_add(
        "frames_stitched",
        u64::try_from(frames.len()).unwrap_or(u64::MAX),
    );
    Ok(out)
}

/// Serializable state of a [`StreamStitcher`], for checkpointing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StitcherSnapshot {
    state: State,
    start: Hour,
    covered: i64,
    prev_scale: f64,
    keep: usize,
    tail: Vec<f64>,
    max_raw: f64,
}

impl StitcherSnapshot {
    /// The series the snapshot was taken from: its region and first hour.
    /// A checkpoint reader compares this with the series it expects.
    pub fn series(&self) -> (State, Hour) {
        (self.state, self.start)
    }
}

/// Incrementally stitches frames as they arrive, producing the *raw*
/// calibrated series — the exact values `stitch` builds *before* its
/// final 0–100 renormalization.
///
/// Renormalization divides by the global maximum, which depends on data
/// that has not arrived yet; an online consumer that must never revise
/// what it already emitted therefore works on the raw series (anchored
/// to the first frame's scale) and renormalizes at read time if it needs
/// the batch presentation. [`stitch`] is this stitcher run to completion,
/// so multiplying the streamed values by `100 / max_raw()` at end of
/// stream reproduces the batch output bit for bit.
///
/// Only the last `keep` raw hours are retained (the widest overlap any
/// planned frame needs), so memory stays constant no matter how long the
/// daemon runs.
#[derive(Clone, Debug)]
pub struct StreamStitcher {
    state: State,
    start: Hour,
    /// Hours emitted so far.
    covered: i64,
    /// Scale applied to the previous frame, inherited on dead overlaps.
    prev_scale: f64,
    /// Maximum overlap supported; the retained tail is capped here.
    keep: usize,
    /// The last `keep` raw values of the series.
    tail: Vec<f64>,
    /// Running maximum of the raw series.
    max_raw: f64,
}

impl StreamStitcher {
    /// Creates a stitcher for a series beginning at `start`; the first
    /// appended frame must start exactly there. `keep` is the widest
    /// frame overlap the plan can produce (the planner's frame length
    /// covers every case).
    pub fn new(state: State, start: Hour, keep: usize) -> Self {
        StreamStitcher {
            state,
            start,
            covered: 0,
            prev_scale: 1.0,
            keep,
            tail: Vec::new(),
            max_raw: 0.0,
        }
    }

    /// Whether [`append`](Self::append) would accept `frame`, without
    /// changing anything; returns how many of the frame's leading hours
    /// overlap the series. A caller that journals a frame before applying
    /// it runs this first, so nothing `append` would refuse is journaled.
    pub fn check(&self, frame: &FrameResponse) -> Result<usize, StitchError> {
        if frame.state != self.state {
            return Err(StitchError::MixedStates);
        }
        let covered_until = self.start + self.covered;
        if frame.start > covered_until {
            return Err(StitchError::Gap {
                covered_until,
                next_start: frame.start,
            });
        }
        let frame_end = frame.start + to_i64(frame.values.len());
        if frame_end <= covered_until {
            return Err(StitchError::NoProgress {
                frame_start: frame.start,
            });
        }
        let overlap = covered_until - frame.start;
        let overlap_len = usize::try_from(overlap).unwrap_or(0);
        if overlap_len > self.tail.len() {
            return Err(StitchError::OverlapExceedsWindow {
                overlap,
                window: to_i64(self.tail.len()),
            });
        }
        Ok(overlap_len)
    }

    /// Appends the next frame: `out_new` is cleared and refilled with the
    /// newly covered raw hours (frames arrive overlapping; only the
    /// non-overlapping suffix is new).
    pub fn append(
        &mut self,
        frame: &FrameResponse,
        out_new: &mut Vec<f64>,
    ) -> Result<(), StitchError> {
        out_new.clear();
        let overlap_len = self.check(frame)?;

        // Ratio of sums over the overlap (see the module docs); an
        // overlap that sums to zero on either side keeps the previous
        // frame's scale.
        let series_tail = &self.tail[self.tail.len() - overlap_len..];
        let frame_head = &frame.values[..overlap_len];
        let sum_series: f64 = series_tail.iter().sum();
        let sum_frame: f64 = frame_head.iter().map(|f| f64::from(*f)).sum();
        let scale = if sum_series > 0.0 && sum_frame > 0.0 {
            sum_series / sum_frame
        } else {
            self.prev_scale
        };
        self.prev_scale = scale;

        for v in &frame.values[overlap_len..] {
            let raw = f64::from(*v) * scale;
            self.max_raw = self.max_raw.max(raw);
            out_new.push(raw);
            self.tail.push(raw);
        }
        if self.tail.len() > self.keep {
            let excess = self.tail.len() - self.keep;
            self.tail.drain(..excess);
        }
        self.covered += to_i64(out_new.len());
        Ok(())
    }

    /// One past the last hour covered so far.
    pub fn covered_until(&self) -> Hour {
        self.start + self.covered
    }

    /// Hours covered so far.
    pub fn covered(&self) -> i64 {
        self.covered
    }

    /// Running maximum of the raw series (0 until any signal arrives).
    /// `100 / max_raw` is the factor batch renormalization would apply.
    pub fn max_raw(&self) -> f64 {
        self.max_raw
    }

    /// Captures the stitcher state for checkpointing.
    pub fn snapshot(&self) -> StitcherSnapshot {
        StitcherSnapshot {
            state: self.state,
            start: self.start,
            covered: self.covered,
            prev_scale: self.prev_scale,
            keep: self.keep,
            tail: self.tail.clone(),
            max_raw: self.max_raw,
        }
    }

    /// Rebuilds a stitcher from a checkpoint; continues byte-identically
    /// to the stitcher the snapshot was taken from.
    pub fn restore(snap: StitcherSnapshot) -> Self {
        StreamStitcher {
            state: snap.state,
            start: snap.start,
            covered: snap.covered,
            prev_scale: snap.prev_scale,
            keep: snap.keep,
            tail: snap.tail,
            max_raw: snap.max_raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_trends::SearchTerm;

    fn term() -> SearchTerm {
        SearchTerm::parse("topic:Internet outage")
    }

    fn frame(state: State, start: i64, values: Vec<u8>) -> FrameResponse {
        FrameResponse {
            term: term(),
            state,
            start: Hour(start),
            values,
        }
    }

    /// Builds service-style frames from a known true series: each frame is
    /// independently scaled to its own maximum, like the real service.
    fn piecewise_frames(truth: &[f64], frame_len: usize, step: usize) -> Vec<FrameResponse> {
        let mut out = Vec::new();
        let mut start = 0usize;
        loop {
            let end = (start + frame_len).min(truth.len());
            let window = &truth[start..end];
            let max = window.iter().copied().fold(0.0f64, f64::max);
            let values: Vec<u8> = window
                .iter()
                .map(|v| {
                    if max <= 0.0 || *v <= 0.0 {
                        0
                    } else {
                        ((v * 100.0 / max).round() as u8).max(1)
                    }
                })
                .collect();
            out.push(frame(State::TX, start as i64, values));
            if end == truth.len() {
                break;
            }
            start += step;
        }
        out
    }

    #[test]
    fn recovers_relative_magnitudes_across_frames() {
        // Two spikes in different weeks: the piecewise indexing makes both
        // look like "100"; stitching must recover that the second is half
        // the first. The baseline sits at 10 so the service's integer
        // 0–100 quantization can still express the spike:baseline ratio.
        let mut truth = vec![10.0; 400];
        truth[50] = 200.0;
        truth[51] = 160.0;
        truth[300] = 100.0;
        truth[301] = 80.0;
        let frames = piecewise_frames(&truth, 168, 84);
        let refs: Vec<&FrameResponse> = frames.iter().collect();
        let tl = stitch(&refs).expect("stitch");

        let big = tl.values[50];
        let small = tl.values[300];
        assert!(
            (big - 100.0).abs() < 1.0,
            "biggest spike renormalizes to 100"
        );
        assert!(
            (small / big - 0.5).abs() < 0.1,
            "relative magnitude recovered: {small} vs {big}"
        );
    }

    #[test]
    fn output_covers_full_range() {
        let truth: Vec<f64> = (0..500).map(|i| 1.0 + (i % 37) as f64).collect();
        let frames = piecewise_frames(&truth, 168, 84);
        let refs: Vec<&FrameResponse> = frames.iter().collect();
        let tl = stitch(&refs).expect("stitch");
        assert_eq!(tl.values.len(), 500);
        assert_eq!(tl.start, Hour(0));
        assert_eq!(tl.range().len(), 500);
    }

    #[test]
    fn scale_invariance_of_result() {
        // Multiplying the true series by any constant must not change the
        // stitched, renormalized output (the service never reveals scale).
        let mut truth = vec![2.0; 300];
        truth[40] = 50.0;
        truth[200] = 30.0;
        let scaled: Vec<f64> = truth.iter().map(|v| v * 7.0).collect();
        let a = {
            let fs = piecewise_frames(&truth, 168, 84);
            let refs: Vec<&FrameResponse> = fs.iter().collect();
            stitch(&refs).expect("stitch")
        };
        let b = {
            let fs = piecewise_frames(&scaled, 168, 84);
            let refs: Vec<&FrameResponse> = fs.iter().collect();
            stitch(&refs).expect("stitch")
        };
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_overlap_inherits_scale() {
        // Middle frame's overlap with both neighbours is all zero; the
        // series must still come out continuous and finite.
        let mut truth = vec![0.0; 500];
        truth[10] = 50.0;
        truth[490] = 25.0;
        let frames = piecewise_frames(&truth, 168, 84);
        let refs: Vec<&FrameResponse> = frames.iter().collect();
        let tl = stitch(&refs).expect("stitch");
        assert!(tl.values.iter().all(|v| v.is_finite()));
        assert!((tl.values[10] - 100.0).abs() < 1.0);
        assert!(tl.values[490] > 0.0);
    }

    #[test]
    fn gap_is_an_error() {
        let frames = [
            frame(State::TX, 0, vec![10; 168]),
            frame(State::TX, 200, vec![10; 168]),
        ];
        let refs: Vec<&FrameResponse> = frames.iter().collect();
        match stitch(&refs) {
            Err(StitchError::Gap {
                covered_until,
                next_start,
            }) => {
                assert_eq!(covered_until, Hour(168));
                assert_eq!(next_start, Hour(200));
            }
            other => panic!("expected gap error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_frame_is_an_error() {
        let frames = [
            frame(State::TX, 0, vec![10; 168]),
            frame(State::TX, 0, vec![10; 168]),
        ];
        let refs: Vec<&FrameResponse> = frames.iter().collect();
        assert!(matches!(stitch(&refs), Err(StitchError::NoProgress { .. })));
    }

    #[test]
    fn mixed_states_is_an_error() {
        let frames = [
            frame(State::TX, 0, vec![10; 168]),
            frame(State::CA, 84, vec![10; 168]),
        ];
        let refs: Vec<&FrameResponse> = frames.iter().collect();
        assert_eq!(stitch(&refs), Err(StitchError::MixedStates));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(stitch::<FrameResponse>(&[]), Err(StitchError::NoFrames));
    }

    #[test]
    fn single_frame_passes_through_renormalized() {
        let f = frame(State::TX, 10, vec![0, 25, 50]);
        let tl = stitch(&[&f]).expect("stitch");
        assert_eq!(tl.values, vec![0.0, 50.0, 100.0]);
        assert_eq!(tl.start, Hour(10));
        assert_eq!(tl.value_at(Hour(11)), Some(50.0));
        assert_eq!(tl.value_at(Hour(9)), None);
        assert_eq!(tl.value_at(Hour(13)), None);
        assert_eq!(tl.index_of(Hour(12)), Some(2));
        assert_eq!(tl.hour_of(2), Hour(12));
    }

    #[test]
    fn accumulate_mean_averages() {
        let f1 = frame(State::TX, 0, vec![100, 0]);
        let f2 = frame(State::TX, 0, vec![0, 100]);
        let mut a = stitch(&[&f1]).expect("stitch");
        let b = stitch(&[&f2]).expect("stitch");
        a.accumulate_mean(&b, 2);
        assert_eq!(a.values, vec![50.0, 50.0]);
    }

    /// Streams `frames` through a [`StreamStitcher`] (snapshotting and
    /// restoring after `cut` frames) and returns the raw series.
    fn stream(frames: &[FrameResponse], keep: usize, cut: usize) -> Vec<f64> {
        let mut st = StreamStitcher::new(frames[0].state, frames[0].start, keep);
        let mut raw = Vec::new();
        let mut new = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            if i == cut {
                st = StreamStitcher::restore(st.snapshot());
            }
            st.append(f, &mut new).expect("stream append");
            raw.extend_from_slice(&new);
        }
        assert_eq!(st.covered(), to_i64(raw.len()));
        raw
    }

    #[test]
    fn snapshot_restore_is_transparent_at_every_cut() {
        let mut truth = vec![10.0; 600];
        truth[50] = 200.0;
        truth[51] = 160.0;
        truth[300] = 100.0;
        truth[301] = 80.0;
        truth[560] = 55.0;
        let frames = piecewise_frames(&truth, 168, 84);
        // `stitch` is the stitcher run to completion, so this half only
        // pins the restore; the values themselves are checked against
        // `reference_stitch` in `tests/prop.rs`.
        let uncut = stream(&frames, 168, frames.len());
        assert_eq!(uncut.len(), truth.len());
        for cut in 0..frames.len() {
            let raw = stream(&frames, 168, cut);
            assert!(
                raw.iter()
                    .map(|v| v.to_bits())
                    .eq(uncut.iter().map(|v| v.to_bits())),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn stream_keeps_bounded_tail() {
        let truth: Vec<f64> = (0..2000).map(|i| 1.0 + (i % 37) as f64).collect();
        let frames = piecewise_frames(&truth, 168, 84);
        let raw = stream(&frames, 168, 0);
        assert_eq!(raw.len(), truth.len());
    }

    #[test]
    fn stream_rejects_gap_and_no_progress() {
        let mut st = StreamStitcher::new(State::TX, Hour(0), 168);
        let mut new = Vec::new();
        st.append(&frame(State::TX, 0, vec![10; 168]), &mut new)
            .expect("first frame");
        assert!(matches!(
            st.append(&frame(State::TX, 200, vec![10; 168]), &mut new),
            Err(StitchError::Gap { .. })
        ));
        assert!(matches!(
            st.append(&frame(State::TX, 0, vec![10; 168]), &mut new),
            Err(StitchError::NoProgress { .. })
        ));
        assert!(matches!(
            st.append(&frame(State::CA, 84, vec![10; 168]), &mut new),
            Err(StitchError::MixedStates)
        ));
    }

    #[test]
    fn stream_rejects_overlap_beyond_window() {
        // keep=4 retains too little history for an 84-hour overlap.
        let mut st = StreamStitcher::new(State::TX, Hour(0), 4);
        let mut new = Vec::new();
        st.append(&frame(State::TX, 0, vec![10; 168]), &mut new)
            .expect("first frame");
        assert!(matches!(
            st.append(&frame(State::TX, 84, vec![10; 168]), &mut new),
            Err(StitchError::OverlapExceedsWindow { .. })
        ));
    }

    #[test]
    fn all_zero_series_stays_zero() {
        let f = frame(State::TX, 0, vec![0; 168]);
        let tl = stitch(&[&f]).expect("stitch");
        assert!(tl.values.iter().all(|v| v.abs() < f64::EPSILON));
    }
}
