//! Property tests: the online (incremental) pipeline is *byte-identical*
//! to the batch pipeline — for any series, any chunking of its arrival,
//! and any snapshot/restore (crash/recover) point.
//!
//! These are the equivalence proofs the serve daemon leans on: if they
//! hold, a daemon that crashed and recovered mid-ingest answers exactly
//! what a batch run over the same data would have answered. Batch and
//! online are two drivers of one stitcher and one walk; what the values
//! should *be* is pinned by the references in `prop.rs`.

use proptest::prelude::*;
use sift_core::detect::{detect_spikes, DetectParams};
use sift_core::timeline::{stitch, Timeline};
use sift_core::{DetectorSnapshot, IncrementalDetector, StitcherSnapshot, StreamStitcher};
use sift_geo::State;
use sift_journal::codec::Reader;
use sift_simtime::Hour;
use sift_trends::{FrameResponse, SearchTerm};

/// Service-style piecewise frames over a known true series (same shape
/// as `prop.rs`): each frame independently renormalized to max 100.
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

/// Feed `values` to an incremental detector in the given chunk sizes,
/// snapshotting and restoring (via the serialized checkpoint bytes, the
/// same medium the daemon persists) after every `restore_every`-th
/// chunk. Returns the full sealed spike set.
fn run_incremental(
    values: &[f64],
    chunks: &[usize],
    restore_every: usize,
) -> Vec<sift_core::Spike> {
    let params = DetectParams::default();
    let mut det = IncrementalDetector::new(State::TX, Hour(0), params);
    let mut out = Vec::new();
    let mut fed = 0usize;
    for (i, &chunk) in chunks.iter().enumerate() {
        if fed >= values.len() {
            break;
        }
        let end = (fed + chunk.max(1)).min(values.len());
        det.append(&values[fed..end], &mut out);
        fed = end;
        if restore_every > 0 && i % restore_every == 0 {
            // Crash here: round-trip the snapshot through its binary
            // form, exactly like the daemon's checkpoint file.
            let mut bytes = Vec::new();
            det.snapshot().encode(&mut bytes);
            let mut r = Reader::new(&bytes);
            let snap = DetectorSnapshot::decode(&mut r).expect("decode snapshot");
            r.finish("detector snapshot").expect("nothing left over");
            det = IncrementalDetector::restore(snap);
        }
    }
    if fed < values.len() {
        det.append(&values[fed..], &mut out);
    }
    det.finish(&mut out);
    out
}

fn values_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, 20..400)
}

fn chunks_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..60, 10..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental detection over any chunking of the series, with
    /// binary snapshot/restore at arbitrary points, yields the exact
    /// spike set batch detection computes — same count, same bounds,
    /// bit-identical magnitudes.
    #[test]
    fn incremental_detector_equals_batch(
        values in values_strategy(),
        chunks in chunks_strategy(),
        restore_every in 0usize..5,
    ) {
        let batch = detect_spikes(
            &Timeline { state: State::TX, start: Hour(0), values: values.clone() },
            &DetectParams::default(),
        );
        let online = run_incremental(&values, &chunks, restore_every);
        prop_assert_eq!(online, batch);
    }

    /// The streaming stitcher, fed the frames one at a time with a
    /// binary snapshot/restore after an arbitrary frame, reproduces
    /// the uninterrupted batch run bit-for-bit modulo the final global
    /// renormalization factor (which needs future data and is therefore
    /// deferred by the daemon): a restore loses nothing.
    #[test]
    fn stream_stitcher_restored_mid_series_equals_batch(
        truth in values_strategy(),
        cut in 0usize..16,
    ) {
        prop_assume!(truth.len() >= 168);
        let frames = piecewise_frames(&truth, 168, 84);
        let refs: Vec<&FrameResponse> = frames.iter().collect();
        let batch = stitch(&refs).expect("batch stitch");

        let mut st = StreamStitcher::new(State::TX, Hour(0), 168);
        let mut raw = Vec::new();
        let mut new_values = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            st.append(frame, &mut new_values).expect("stream stitch");
            raw.extend_from_slice(&new_values);
            if i == cut {
                let mut bytes = Vec::new();
                st.snapshot().encode(&mut bytes);
                let mut r = Reader::new(&bytes);
                let snap = StitcherSnapshot::decode(&mut r).expect("decode snapshot");
                r.finish("stitcher snapshot").expect("nothing left over");
                st = StreamStitcher::restore(snap);
            }
        }
        prop_assert_eq!(raw.len(), batch.values.len());
        let max_raw = st.max_raw();
        if max_raw > 0.0 {
            let scale = 100.0 / max_raw;
            for (r, b) in raw.iter().zip(batch.values.iter()) {
                // Exact equality: same f64 ops in the same order.
                prop_assert_eq!((r * scale).to_bits(), b.to_bits());
            }
        }
    }

    /// End-to-end online pipeline (stream-stitch then incremental detect
    /// on the raw series, rescaled at the end) finds spikes at the same
    /// positions as the batch pipeline run over the renormalized series
    /// whenever the first frame carries the global maximum (scale == 1
    /// up to renormalization). This is the regime the daemon's raw-scale
    /// detection is exact in; `stitch_and_stream_match_the_reference` in
    /// `prop.rs` covers the values themselves in every regime.
    #[test]
    fn online_pipeline_matches_batch_positions(
        truth in values_strategy(),
        chunks in chunks_strategy(),
    ) {
        prop_assume!(truth.len() >= 170);
        // Pin the global max into the first frame so raw scale == batch
        // scale after renormalization.
        let mut truth = truth;
        truth[10] = 100.0;
        let frames = piecewise_frames(&truth, 168, 84);
        let refs: Vec<&FrameResponse> = frames.iter().collect();
        let batch_tl = stitch(&refs).expect("batch stitch");
        let batch = detect_spikes(&batch_tl, &DetectParams::default());

        let mut st = StreamStitcher::new(State::TX, Hour(0), 168);
        let mut raw = Vec::new();
        let mut new_values = Vec::new();
        for frame in &frames {
            st.append(frame, &mut new_values).expect("stream stitch");
            raw.extend_from_slice(&new_values);
        }
        let scale = 100.0 / st.max_raw();
        let rescaled: Vec<f64> = raw.iter().map(|v| v * scale).collect();
        let online = run_incremental(&rescaled, &chunks, 3);
        prop_assert_eq!(online, batch);
    }
}
