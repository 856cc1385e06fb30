//! Property tests: stitching and detection invariants.

use proptest::prelude::*;
use sift_core::detect::{detect_spikes, DetectParams, Spike};
use sift_core::timeline::{stitch, StreamStitcher, Timeline};
use sift_geo::State;
use sift_simtime::Hour;
use sift_trends::{FrameResponse, SearchTerm};

/// Service-style piecewise frames over a known true series.
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
                if max <= 0.0 {
                    0
                } else {
                    (v * 100.0 / max).round() as u8
                }
            })
            .collect();
        out.push(FrameResponse {
            term: SearchTerm::parse("topic:Internet outage"),
            state: State::TX,
            start: Hour(start as i64),
            values,
        });
        if end == truth.len() {
            break;
        }
        start += step;
    }
    out
}

/// The prominence walk written straight from §3.3, rescanning the series
/// for every spike (O(n²)): the oracle `detect_spikes` is checked against.
fn reference_spikes(v: &[f64], p: &DetectParams) -> Vec<Spike> {
    let mut consumed = vec![false; v.len()];
    let mut spikes = Vec::new();
    while spikes.len() < p.max_spikes {
        // "Starts at the highest peak": the highest unconsumed block that
        // clears `min_peak`, the earliest on ties.
        let mut highest: Option<usize> = None;
        for i in 0..v.len() {
            if !consumed[i] && v[i] >= p.min_peak && highest.map_or(true, |j| v[i] > v[j]) {
                highest = Some(i);
            }
        }
        let Some(peak) = highest else { break };
        // Forward "until the current time block's value is less than half
        // of the value in the previous block (or zero)" or another spike.
        let mut end = peak + 1;
        while end < v.len()
            && !consumed[end]
            && v[end] > p.walk_floor
            && v[end] >= v[end - 1] * p.half_ratio
        {
            end += 1;
        }
        // Backward "until the current block's value is zero or the
        // endpoint of another spike".
        let mut start = peak;
        while start > 0 && !consumed[start - 1] && v[start - 1] > p.walk_floor {
            start -= 1;
        }
        consumed[start..end].fill(true);
        spikes.push(Spike {
            state: State::TX,
            start: Hour(start as i64),
            peak: Hour(peak as i64),
            end: Hour(end as i64),
            magnitude: v[peak],
        });
    }
    spikes.sort_by_key(|s| s.start);
    spikes
}

/// Overlap-ratio stitching written straight from §3.2, over the whole
/// series indexed from the first frame's hour: "uses the intersecting
/// regions to identify the scaling ratio" (ratio of sums, series over
/// frame), "rescales the right-adjacent time frame by this ratio and
/// appends it", then indexes the result to a maximum of 100. An
/// intersection that sums to zero on either side has no ratio to give, so
/// the frame keeps its predecessor's scale. The oracle `stitch` and
/// `StreamStitcher` are checked against, bit for bit — hence one
/// `100 / max` factor, the form `StreamStitcher::max_raw` promises.
fn reference_stitch(frames: &[FrameResponse]) -> Vec<f64> {
    let origin = frames[0].start;
    let mut series: Vec<f64> = Vec::new();
    let mut scale = 1.0;
    for frame in frames {
        let at = (frame.start - origin) as usize;
        let overlap = series.len() - at;
        let sum_series: f64 = series[at..].iter().sum();
        let sum_frame: f64 = frame.values[..overlap].iter().map(|&v| f64::from(v)).sum();
        if sum_series > 0.0 && sum_frame > 0.0 {
            scale = sum_series / sum_frame;
        }
        series.extend(
            frame.values[overlap..]
                .iter()
                .map(|&v| f64::from(v) * scale),
        );
    }
    let max = series.iter().copied().fold(0.0f64, f64::max);
    if max > 0.0 {
        let factor = 100.0 / max;
        series.iter_mut().for_each(|v| *v *= factor);
    }
    series
}

fn truth_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..50.0, 200..500)
}

/// Frame sets for the stitch oracle: the usual piecewise frames (whose
/// last frame is clipped to the series), the same with the leading or
/// trailing half of some frames blanked — an overlap with no signal on
/// one side or on both — and series short enough to be a single frame.
fn stitch_frames_strategy() -> impl Strategy<Value = Vec<FrameResponse>> {
    let blanked =
        (truth_strategy(), proptest::collection::vec(0u8..6, 8..9)).prop_map(|(truth, blank)| {
            let mut frames = piecewise_frames(&truth, 168, 84);
            for (frame, code) in frames.iter_mut().zip(blank) {
                let half = frame.values.len().min(84);
                match code {
                    0 => frame.values[..half].fill(0),
                    1 => frame.values[half..].fill(0),
                    2 => frame.values.fill(0),
                    _ => {}
                }
            }
            frames
        });
    prop_oneof![
        truth_strategy().prop_map(|truth| piecewise_frames(&truth, 168, 84)),
        blanked,
        proptest::collection::vec(0.0f64..50.0, 1..169)
            .prop_map(|truth| piecewise_frames(&truth, 168, 84)),
    ]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stitching output covers the full range, is finite, non-negative
    /// and renormalized to a max of 100 (when any signal exists).
    #[test]
    fn stitch_output_well_formed(truth in truth_strategy()) {
        let frames = piecewise_frames(&truth, 168, 84);
        let refs: Vec<&FrameResponse> = frames.iter().collect();
        let tl = stitch(&refs).expect("stitch");
        prop_assert_eq!(tl.values.len(), truth.len());
        let max = tl.values.iter().copied().fold(0.0f64, f64::max);
        for v in &tl.values {
            prop_assert!(v.is_finite() && *v >= 0.0);
        }
        if truth.iter().any(|v| *v >= 0.5) {
            prop_assert!((max - 100.0).abs() < 1e-9, "max {}", max);
        }
    }

    /// Scaling the true series by any positive constant leaves the
    /// stitched, renormalized series unchanged (the service hides scale,
    /// SIFT must not depend on it).
    #[test]
    fn stitch_scale_invariant(truth in truth_strategy(), scale in 0.5f64..20.0) {
        let frames_a = piecewise_frames(&truth, 168, 84);
        let scaled: Vec<f64> = truth.iter().map(|v| v * scale).collect();
        let frames_b = piecewise_frames(&scaled, 168, 84);
        let a = stitch(&frames_a.iter().collect::<Vec<_>>()).expect("stitch");
        let b = stitch(&frames_b.iter().collect::<Vec<_>>()).expect("stitch");
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// Detection invariants on arbitrary series: spikes are sorted,
    /// disjoint, within bounds, with start <= peak < end, and every peak
    /// clears the floor.
    #[test]
    fn detection_invariants(values in proptest::collection::vec(0.0f64..100.0, 0..600)) {
        let tl = Timeline {
            state: State::TX,
            start: Hour(0),
            values: values.clone(),
        };
        let params = DetectParams::default();
        let spikes = detect_spikes(&tl, &params);
        for s in &spikes {
            prop_assert!(s.start <= s.peak && s.peak < s.end);
            prop_assert!(s.start.0 >= 0);
            prop_assert!(s.end.0 <= values.len() as i64);
            prop_assert!(s.magnitude >= params.min_peak);
            // The reported magnitude really is the value at the peak.
            prop_assert!((s.magnitude - values[s.peak.0 as usize]).abs() < 1e-12);
        }
        for pair in spikes.windows(2) {
            prop_assert!(pair[0].end <= pair[1].start, "spikes overlap");
        }
        // Every block above the floor is covered by some spike.
        for (i, v) in values.iter().enumerate() {
            if *v >= params.min_peak {
                let h = Hour(i as i64);
                prop_assert!(
                    spikes.iter().any(|s| s.window().contains(h)),
                    "uncovered above-floor block at {} (value {})",
                    i,
                    v
                );
            }
        }
    }

    /// Up-scaling a series never loses detections: the detection floors
    /// (`min_peak`, `walk_floor`) are absolute, so scaling values up can
    /// only extend walks and merge neighbours — every original peak must
    /// still be covered by some spike afterwards.
    #[test]
    fn upscaling_never_loses_peaks(values in proptest::collection::vec(0.0f64..100.0, 10..300)) {
        let params = DetectParams::default();
        let a = detect_spikes(
            &Timeline { state: State::TX, start: Hour(0), values: values.clone() },
            &params,
        );
        // Rescale so the max is exactly 100 (what renormalize does).
        let max = values.iter().copied().fold(0.0f64, f64::max);
        prop_assume!(max > params.min_peak && max <= 100.0);
        let scaled: Vec<f64> = values.iter().map(|v| v * 100.0 / max).collect();
        let b = detect_spikes(
            &Timeline { state: State::TX, start: Hour(0), values: scaled },
            &params,
        );
        for sa in &a {
            prop_assert!(
                b.iter().any(|sb| sb.window().contains(sa.peak)),
                "peak of {:?} uncovered after upscale",
                sa
            );
        }
        prop_assert!(b.len() <= values.len());
    }
}

proptest! {
    /// `stitch`, and the raw stream of a `StreamStitcher` scaled by
    /// `100 / max_raw()`, are the literal §3.2 chain, bit for bit.
    #[test]
    fn stitch_and_stream_match_the_reference(frames in stitch_frames_strategy()) {
        let reference = bits(&reference_stitch(&frames));
        let batch = stitch(&frames).expect("stitch");
        prop_assert_eq!(batch.start, frames[0].start);
        prop_assert_eq!(bits(&batch.values), reference.clone());

        let mut stitcher = StreamStitcher::new(State::TX, frames[0].start, 168);
        let (mut raw, mut new_hours) = (Vec::new(), Vec::new());
        for frame in &frames {
            stitcher.append(frame, &mut new_hours).expect("append");
            raw.extend_from_slice(&new_hours);
        }
        let max_raw = stitcher.max_raw();
        let factor = if max_raw > 0.0 { 100.0 / max_raw } else { 1.0 };
        let streamed: Vec<f64> = raw.iter().map(|v| v * factor).collect();
        prop_assert_eq!(bits(&streamed), reference);
    }

    /// The sorted-visit detector finds exactly the spikes of the literal
    /// §3.3 walk, bounds and magnitudes included.
    #[test]
    fn detect_spikes_matches_the_reference_walk(
        values in proptest::collection::vec(0.0f64..100.0, 0..600),
    ) {
        let params = DetectParams::default();
        let reference = reference_spikes(&values, &params);
        let tl = Timeline { state: State::TX, start: Hour(0), values };
        prop_assert_eq!(detect_spikes(&tl, &params), reference);
    }
}
