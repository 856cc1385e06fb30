//! Spike detection by topographic-prominence walk.
//!
//! "The SIFT detection algorithm starts at the highest peak, then
//! continues forward in time block by block until the current time
//! block's value is less than half of the value in the previous block (or
//! zero). This point marks the ending of the spike. The start point is
//! determined by stepping backward in time starting from the peak, either
//! until the current block's value is zero or the endpoint of another
//! spike" (§3.3).
//!
//! Detection iterates: take the highest unconsumed peak, walk out its
//! extent, mark it consumed, repeat while peaks clear the noise floor.
//!
//! Two entry points share one walk core: [`detect_spikes`] runs the batch
//! pass over a finished timeline, and [`IncrementalDetector`] runs the
//! same walk online, sealing spikes as soon as the series makes them
//! final (see the equivalence note on the type).

use crate::timeline::{put_state, read_state, to_i64, Timeline};
use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_journal::codec::{invalid, put_f64s, Reader};
use sift_simtime::{Hour, HourRange};
use std::io;

/// Detection parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectParams {
    /// Minimum peak value (on the timeline's 0–100 scale) for a spike to
    /// be kept. After global renormalization against a two-year maximum,
    /// ordinary spikes sit at single-digit values, so the floor is small;
    /// noise rejection comes mostly from the anonymity-rounded zeros
    /// between spikes.
    pub min_peak: f64,
    /// Values at or below this are treated as zero by the walks. After
    /// re-fetch averaging, hours where only one round's sample survived
    /// anonymity carry tiny nonzero residue; without a floor those
    /// residues bridge unrelated spikes into long artifacts.
    pub walk_floor: f64,
    /// Hard cap on spikes per timeline, a guard against pathological
    /// inputs.
    pub max_spikes: usize,
}

impl Default for DetectParams {
    fn default() -> Self {
        DetectParams {
            min_peak: 0.5,
            walk_floor: 0.25,
            max_spikes: 20_000,
        }
    }
}

/// The forward walk stops when the next block falls below this fraction
/// of the current block: "less than half of the value in the previous
/// block" (§3.3).
pub const HALF_RATIO: f64 = 0.5;

/// A detected spike of user interest.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Spike {
    /// Region of the underlying timeline.
    pub state: State,
    /// First hour of elevated interest (inclusive).
    pub start: Hour,
    /// Hour of maximum interest.
    pub peak: Hour,
    /// One past the last hour of the spike (exclusive).
    pub end: Hour,
    /// Peak value on the timeline's global 0–100 scale.
    pub magnitude: f64,
}

impl Spike {
    /// Spike duration in hours: "the time elapsed between their start and
    /// end times ... the duration of the user interest" (§3.3).
    pub fn duration_h(&self) -> i64 {
        self.end - self.start
    }

    /// The spike's hour window, `[start, end)`.
    pub fn window(&self) -> HourRange {
        HourRange::new(self.start, self.end)
    }
}

/// Working buffers of the walk core. [`IncrementalDetector`] keeps one
/// across segments; the batch pass builds one per call.
#[derive(Debug, Default)]
struct DetectScratch {
    consumed: Vec<bool>,
    order: Vec<usize>,
}

/// Detects every spike in a timeline, returned sorted by start hour.
pub fn detect_spikes(timeline: &Timeline, params: &DetectParams) -> Vec<Spike> {
    let mut spikes = Vec::new();
    detect_values_into(
        timeline.state,
        timeline.start,
        &timeline.values,
        params,
        params.max_spikes,
        &mut DetectScratch::default(),
        &mut spikes,
    );
    spikes.sort_unstable_by_key(|s| (s.start, s.peak));
    sift_obs::attr_add("spikes", u64::try_from(spikes.len()).unwrap_or(u64::MAX));
    spikes
}

/// The shared walk core: detects spikes over a raw value slice whose
/// first element falls at `first_hour`, appending at most `budget` spikes
/// onto `spikes` in discovery (descending peak) order. Callers own
/// clearing, sorting, and instrumentation.
fn detect_values_into(
    state: State,
    first_hour: Hour,
    v: &[f64],
    params: &DetectParams,
    budget: usize,
    scratch: &mut DetectScratch,
    spikes: &mut Vec<Spike>,
) -> usize {
    let n = v.len();
    let consumed = &mut scratch.consumed;
    consumed.clear();
    consumed.resize(n, false);

    // Visit blocks from highest to lowest (earliest first on ties): each
    // unconsumed visit is by construction the highest remaining peak, so
    // the walk order matches the paper's "start at the highest peak"
    // iteration without rescanning the series per spike.
    let order = &mut scratch.order;
    order.clear();
    order.extend((0..n).filter(|&i| v[i] >= params.min_peak));
    order.sort_unstable_by(|&a, &b| {
        v[b].partial_cmp(&v[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut emitted = 0usize;
    for &peak in order.iter() {
        if emitted >= budget {
            break;
        }
        if consumed[peak] {
            continue;
        }
        let peak_val = v[peak];

        // Forward walk: advance while the next block holds at least
        // `HALF_RATIO` of the current one (and is above the floor and
        // free).
        let mut end = peak;
        while end + 1 < n
            && !consumed[end + 1]
            && v[end + 1] > params.walk_floor
            && v[end + 1] >= v[end] * HALF_RATIO
        {
            end += 1;
        }

        // Backward walk: step back while blocks are above the floor and
        // free.
        let mut start = peak;
        while start > 0 && !consumed[start - 1] && v[start - 1] > params.walk_floor {
            start -= 1;
        }

        for slot in &mut consumed[start..=end] {
            *slot = true;
        }
        spikes.push(Spike {
            state,
            start: first_hour + to_i64(start),
            peak: first_hour + to_i64(peak),
            end: first_hour + to_i64(end) + 1,
            magnitude: peak_val,
        });
        emitted += 1;
    }
    emitted
}

/// The state of an [`IncrementalDetector`], for checkpointing, with a
/// binary form of its own ([`DetectorSnapshot::encode`]). Holds only the
/// open suffix of the series — everything before the last sealed
/// barrier has already been emitted and never needs revisiting.
#[derive(Clone, Debug)]
pub struct DetectorSnapshot {
    state: State,
    params: DetectParams,
    origin: Hour,
    tail: Vec<f64>,
    tail_start: i64,
    emitted: usize,
}

impl DetectorSnapshot {
    /// The series the snapshot was taken from: its region and first hour.
    /// A checkpoint reader compares this with the series it expects.
    pub fn series(&self) -> (State, Hour) {
        (self.state, self.origin)
    }

    /// Spikes the detector had sealed when the snapshot was taken.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// The parameters the detector was walking with. A checkpoint reader
    /// compares them with the ones it was given.
    pub fn params(&self) -> DetectParams {
        self.params
    }

    /// One past the last hour the detector had seen.
    pub fn watermark(&self) -> Hour {
        self.origin + self.tail_start + to_i64(self.tail.len())
    }

    /// Appends the snapshot's binary form to `out`, little-endian: the
    /// region's index byte, the bits of `min_peak` and `walk_floor`,
    /// `max_spikes`, `origin`, `tail_start`, `emitted`, then the open
    /// suffix as a count and each value's bits.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let word = |n: usize| u64::try_from(n).unwrap_or(u64::MAX).to_le_bytes();
        put_state(out, self.state);
        out.extend_from_slice(&self.params.min_peak.to_bits().to_le_bytes());
        out.extend_from_slice(&self.params.walk_floor.to_bits().to_le_bytes());
        out.extend_from_slice(&word(self.params.max_spikes));
        out.extend_from_slice(&self.origin.0.to_le_bytes());
        out.extend_from_slice(&self.tail_start.to_le_bytes());
        out.extend_from_slice(&word(self.emitted));
        put_f64s(out, &self.tail);
    }

    /// Reads back what [`encode`](Self::encode) wrote, bit for bit, and
    /// refuses as `InvalidData` a snapshot no detector could have taken:
    /// a region index past the last region, parameters
    /// [`IncrementalDetector::new`] would reject (`min_peak` not above
    /// `walk_floor`), a negative `tail_start`, or a watermark past the
    /// last hour.
    pub fn decode(r: &mut Reader<'_>) -> io::Result<DetectorSnapshot> {
        let state = read_state(r, "detector state")?;
        let (min_peak, walk_floor) = (r.f64("detector min_peak")?, r.f64("detector walk_floor")?);
        let size = |r: &mut Reader<'_>, what: &str| {
            let n = r.u64(what)?;
            usize::try_from(n).map_err(|_| invalid(format!("{what} {n} does not fit")))
        };
        let max_spikes = size(r, "detector max_spikes")?;
        let origin = Hour(r.i64("detector origin")?);
        let tail_start = r.i64("detector tail_start")?;
        let emitted = size(r, "detector emitted")?;
        let tail = r.f64s("detector tail")?;
        // Written as a negation so a NaN bound is refused too.
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "refuses NaN")]
        if !(min_peak > walk_floor) {
            return Err(invalid(format!(
                "detector min_peak {min_peak} is not above walk_floor {walk_floor}"
            )));
        }
        let seen = i64::try_from(tail.len())
            .ok()
            .and_then(|open| tail_start.checked_add(open))
            .filter(|_| tail_start >= 0);
        if seen.and_then(|seen| origin.0.checked_add(seen)).is_none() {
            return Err(invalid(format!(
                "a detector with {} open hours from {tail_start} past hour {}",
                tail.len(),
                origin.0
            )));
        }
        Ok(DetectorSnapshot {
            state,
            params: DetectParams {
                min_peak,
                walk_floor,
                max_spikes,
            },
            origin,
            tail,
            tail_start,
            emitted,
        })
    }
}

/// The prominence walk, online: values stream in hour by hour and spikes
/// are sealed (emitted, never revised) as soon as the series makes them
/// final.
///
/// # Equivalence with the batch walk
///
/// Call a position with value `<= walk_floor` a *barrier*. Both walks
/// stop at barriers, and (given `min_peak > walk_floor`, asserted at
/// construction) a barrier never seeds a spike, so the batch walk over
/// the full series decomposes into independent walks over the maximal
/// barrier-free *segments*. Within one segment, the batch visit order
/// (value descending, index ascending) restricted to the segment is the
/// segment-local visit order, and consumption never crosses a barrier —
/// so walking each segment alone yields exactly the spikes the batch
/// walk finds there. The final batch sort by `(start, peak)` makes
/// emission order immaterial. The incremental detector therefore buffers
/// only the suffix after the last barrier, and the moment a new barrier
/// arrives it seals every completed segment before it: concatenating the
/// sealed output (plus [`IncrementalDetector::finish`] for the trailing
/// open segment) is byte-identical to `detect_spikes` on the full
/// series.
///
/// Two boundary conditions, both checked or documented rather than
/// silently diverged from:
///
/// * `min_peak > walk_floor` is asserted in [`IncrementalDetector::new`];
///   with the inequality reversed a barrier could seed a spike whose
///   walk escapes its segment.
/// * `max_spikes` is a *global* cap applied in magnitude order, which an
///   online detector cannot replicate (it would need future peaks). The
///   incremental walk spends the same total budget segment by segment,
///   so equivalence is exact whenever the full series stays under the
///   cap — 20 000 by default, far above anything the study produces.
///
/// # Bounded lag
///
/// The open suffix never shrinks until a barrier arrives, so detection
/// lag is bounded by the longest barrier-free run in the series.
/// Anonymity rounding makes quiet hours exactly zero in practice, so
/// runs are short; a series that never comes back to the floor is the
/// pathological case, and [`IncrementalDetector::open_hours`] exposes
/// the current run length so callers can surface it (the serve daemon
/// degrades the region with `DetectorLagging` past its lag budget).
#[derive(Debug)]
pub struct IncrementalDetector {
    state: State,
    params: DetectParams,
    /// Hour of logical index 0 — the first value ever appended.
    origin: Hour,
    /// The open suffix: values after the last sealed barrier.
    tail: Vec<f64>,
    /// Logical index of `tail[0]`.
    tail_start: i64,
    /// Spikes emitted so far; counts against `params.max_spikes`.
    emitted: usize,
    scratch: DetectScratch,
}

impl IncrementalDetector {
    /// Creates a detector for a series whose first value falls at
    /// `origin`. Asserts `min_peak > walk_floor` (see the type docs).
    pub fn new(state: State, origin: Hour, params: DetectParams) -> Self {
        assert!(
            params.min_peak > params.walk_floor,
            "incremental detection requires min_peak > walk_floor so \
             barriers cannot seed spikes"
        );
        IncrementalDetector {
            state,
            params,
            origin,
            tail: Vec::new(),
            tail_start: 0,
            emitted: 0,
            scratch: DetectScratch::default(),
        }
    }

    /// Appends the next hours of the series and seals every spike made
    /// final by them, pushing sealed spikes onto `out` (which is *not*
    /// cleared) in `(start, peak)` order. Returns the number sealed.
    pub fn append(&mut self, values: &[f64], out: &mut Vec<Spike>) -> usize {
        self.tail.extend_from_slice(values);
        let floor = self.params.walk_floor;
        match self.tail.iter().rposition(|&v| v <= floor) {
            // The suffix ending at the last barrier is final: no future
            // value can walk back across that barrier.
            Some(last_barrier) => self.seal_prefix(last_barrier + 1, out),
            None => 0,
        }
    }

    /// Seals the trailing open segment as if the series ended here, and
    /// returns the number of spikes pushed onto `out`. This is the only
    /// call that can emit a spike whose extent is not yet final; use it
    /// at end of stream. (Appending afterwards starts a fresh segment —
    /// the flushed suffix is treated as consumed.)
    pub fn finish(&mut self, out: &mut Vec<Spike>) -> usize {
        self.seal_prefix(self.tail.len(), out)
    }

    /// Hours currently buffered past the last barrier: the detection lag
    /// if the series stopped now.
    pub fn open_hours(&self) -> usize {
        self.tail.len()
    }

    /// Total hours appended so far.
    pub fn hours_seen(&self) -> i64 {
        self.tail_start + to_i64(self.tail.len())
    }

    /// One past the last hour appended so far.
    pub fn watermark(&self) -> Hour {
        self.origin + self.hours_seen()
    }

    /// Captures the detector state for checkpointing.
    pub fn snapshot(&self) -> DetectorSnapshot {
        DetectorSnapshot {
            state: self.state,
            params: self.params,
            origin: self.origin,
            tail: self.tail.clone(),
            tail_start: self.tail_start,
            emitted: self.emitted,
        }
    }

    /// Rebuilds a detector from a checkpoint; continues byte-identically
    /// to the detector the snapshot was taken from.
    pub fn restore(snap: DetectorSnapshot) -> Self {
        IncrementalDetector {
            state: snap.state,
            params: snap.params,
            origin: snap.origin,
            tail: snap.tail,
            tail_start: snap.tail_start,
            emitted: snap.emitted,
            scratch: DetectScratch::default(),
        }
    }

    /// Walks every barrier-free run inside `tail[..limit]` and drops the
    /// sealed prefix. `limit` is one past a barrier (append) or the tail
    /// length (finish), so every run in range is complete.
    fn seal_prefix(&mut self, limit: usize, out: &mut Vec<Spike>) -> usize {
        let before = out.len();
        let floor = self.params.walk_floor;
        let mut i = 0usize;
        while i < limit {
            if self.tail[i] <= floor {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < limit && self.tail[j] > floor {
                j += 1;
            }
            let base = out.len();
            let budget = self.params.max_spikes.saturating_sub(self.emitted);
            let first_hour = self.origin + self.tail_start + to_i64(i);
            self.emitted += detect_values_into(
                self.state,
                first_hour,
                &self.tail[i..j],
                &self.params,
                budget,
                &mut self.scratch,
                out,
            );
            out[base..].sort_unstable_by_key(|s| (s.start, s.peak));
            i = j;
        }
        self.tail.drain(..limit);
        self.tail_start += to_i64(limit);
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(values: Vec<f64>) -> Timeline {
        Timeline {
            state: State::TX,
            start: Hour(0),
            values,
        }
    }

    fn detect(values: Vec<f64>) -> Vec<Spike> {
        detect_spikes(&timeline(values), &DetectParams::default())
    }

    #[test]
    fn single_clean_spike() {
        let mut v = vec![0.0; 48];
        v[10] = 20.0;
        v[11] = 60.0;
        v[12] = 100.0;
        v[13] = 70.0;
        v[14] = 40.0;
        v[15] = 25.0;
        // 25 -> 0.2 is a below-half drop; 0.2 is also under the noise
        // floor, so the tail block does not register as its own spike.
        v[16] = 0.2;
        let spikes = detect(v);
        assert_eq!(spikes.len(), 1);
        let s = spikes[0];
        assert_eq!(s.peak, Hour(12));
        assert!((s.magnitude - 100.0).abs() < 1e-9);
        assert_eq!(s.start, Hour(10), "backward walk stops at zero");
        assert_eq!(s.end, Hour(16), "forward walk stops at the half-drop");
        assert_eq!(s.duration_h(), 6);
    }

    #[test]
    fn forward_walk_stops_at_zero() {
        let mut v = vec![0.0; 24];
        v[5] = 100.0;
        v[6] = 60.0;
        v[7] = 40.0;
        let spikes = detect(v);
        assert_eq!(spikes.len(), 1);
        assert_eq!(spikes[0].end, Hour(8));
    }

    #[test]
    fn two_separate_spikes() {
        let mut v = vec![0.0; 100];
        v[10] = 100.0;
        v[11] = 80.0;
        v[50] = 50.0;
        v[51] = 45.0;
        let spikes = detect(v);
        assert_eq!(spikes.len(), 2);
        assert_eq!(spikes[0].peak, Hour(10));
        assert_eq!(spikes[1].peak, Hour(50));
        assert!(spikes[0].window().intersect(&spikes[1].window()).is_none());
    }

    #[test]
    fn successive_peaks_count_once() {
        // A plateau of near-equal highs is one spike, not many (§3.3's
        // first challenge).
        let mut v = vec![0.0; 48];
        for (i, val) in [30.0, 80.0, 95.0, 100.0, 97.0, 85.0, 60.0, 35.0, 20.0]
            .iter()
            .enumerate()
        {
            v[10 + i] = *val;
        }
        let spikes = detect(v);
        assert_eq!(spikes.len(), 1);
        assert_eq!(spikes[0].start, Hour(10));
        assert_eq!(spikes[0].end, Hour(19));
    }

    #[test]
    fn adjacent_spike_boundary_respected() {
        // A second spike's backward walk must stop at the endpoint of the
        // first (already consumed) spike.
        let mut v = vec![0.0; 48];
        v[10] = 100.0;
        v[11] = 10.0; // below-half drop ends spike 1 here, but nonzero
        v[12] = 90.0; // second spike, detected second
        v[13] = 50.0;
        let spikes = detect(v);
        assert_eq!(spikes.len(), 2);
        let first = spikes.iter().find(|s| s.peak == Hour(10)).expect("first");
        let second = spikes.iter().find(|s| s.peak == Hour(12)).expect("second");
        // The first spike's forward walk stops at the below-half drop
        // after hour 10; the second spike's backward walk stops at the
        // first spike's boundary (hour 11 is nonzero but its own spike's
        // backward walk is blocked by consumption order — hour 11 was not
        // consumed by the first spike, so the second claims it).
        assert_eq!(first.end, Hour(11));
        assert_eq!(second.start, Hour(11));
        assert!(first.window().intersect(&second.window()).is_none());
    }

    #[test]
    fn noise_floor_filters_small_peaks() {
        let mut v = vec![0.0; 48];
        v[10] = 100.0;
        v[30] = 0.2; // below min_peak
        let spikes = detect(v);
        assert_eq!(spikes.len(), 1);
    }

    #[test]
    fn flat_zero_series_has_no_spikes() {
        assert!(detect(vec![0.0; 100]).is_empty());
        assert!(detect(vec![]).is_empty());
    }

    #[test]
    fn spikes_disjoint_and_sorted_invariant() {
        // A noisy series: the invariants must hold regardless of shape.
        let v: Vec<f64> = (0..500)
            .map(|i| {
                let x = (i as f64 * 0.7).sin().abs() * 60.0;
                if i % 97 == 0 {
                    100.0
                } else if i % 11 == 0 {
                    0.0
                } else {
                    x
                }
            })
            .collect();
        let spikes = detect(v);
        assert!(!spikes.is_empty());
        for s in &spikes {
            assert!(s.start <= s.peak && s.peak < s.end);
            assert!(s.magnitude >= DetectParams::default().min_peak);
        }
        for pair in spikes.windows(2) {
            assert!(pair[0].start < pair[1].start, "sorted by start");
            assert!(
                pair[0].end <= pair[1].start,
                "spikes must not overlap: {:?} vs {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn peak_at_series_edges() {
        let mut v = vec![0.0; 24];
        v[0] = 100.0;
        v[23] = 50.0;
        let spikes = detect(v);
        assert_eq!(spikes.len(), 2);
        assert_eq!(spikes[0].start, Hour(0));
        assert_eq!(spikes[1].end, Hour(24));
    }

    /// Feeds `values` to an incremental detector in `chunk`-sized pieces
    /// and returns the full sealed output.
    fn incremental(values: &[f64], chunk: usize) -> Vec<Spike> {
        let mut det = IncrementalDetector::new(State::TX, Hour(0), DetectParams::default());
        let mut out = Vec::new();
        for piece in values.chunks(chunk) {
            det.append(piece, &mut out);
        }
        det.finish(&mut out);
        out
    }

    #[test]
    fn incremental_matches_batch_on_noisy_series() {
        let v: Vec<f64> = (0..500)
            .map(|i| {
                let x = (i as f64 * 0.7).sin().abs() * 60.0;
                if i % 97 == 0 {
                    100.0
                } else if i % 11 == 0 {
                    0.0
                } else {
                    x
                }
            })
            .collect();
        let batch = detect(v.clone());
        for chunk in [1, 7, 24, 168, 500] {
            assert_eq!(incremental(&v, chunk), batch, "chunk={chunk}");
        }
    }

    #[test]
    fn incremental_seals_at_barrier() {
        let mut det = IncrementalDetector::new(State::TX, Hour(0), DetectParams::default());
        let mut out = Vec::new();
        assert_eq!(det.append(&[0.0, 10.0, 100.0, 60.0], &mut out), 0);
        assert_eq!(det.open_hours(), 3, "open run buffers until a barrier");
        // The next zero is a barrier: the spike is final the hour it
        // lands, not at end of stream.
        assert_eq!(det.append(&[0.0], &mut out), 1);
        assert_eq!(det.open_hours(), 0);
        assert_eq!(out[0].start, Hour(1));
        assert_eq!(out[0].peak, Hour(2));
        assert_eq!(out[0].end, Hour(4));
        assert_eq!(det.watermark(), Hour(5));
    }

    #[test]
    fn incremental_snapshot_restore_is_transparent() {
        let v: Vec<f64> = (0..300)
            .map(|i| {
                if i % 13 == 0 {
                    0.0
                } else {
                    (i % 29) as f64 * 3.0
                }
            })
            .collect();
        let batch = detect(v.clone());
        for cut in [0, 1, 50, 150, 299, 300] {
            let mut out = Vec::new();
            let mut det = IncrementalDetector::new(State::TX, Hour(0), DetectParams::default());
            det.append(&v[..cut], &mut out);
            let mut det =
                IncrementalDetector::restore(round_trip(&det.snapshot()).expect("decode"));
            det.append(&v[cut..], &mut out);
            det.finish(&mut out);
            assert_eq!(out, batch, "cut={cut}");
        }
    }

    /// `snap` through its binary form, with nothing left over.
    fn round_trip(snap: &DetectorSnapshot) -> io::Result<DetectorSnapshot> {
        let mut bytes = Vec::new();
        snap.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = DetectorSnapshot::decode(&mut r)?;
        r.finish("detector snapshot")?;
        Ok(back)
    }

    /// A snapshot no detector could have taken decodes to `InvalidData`
    /// naming the rule: parameters `new` refuses (NaN included), a
    /// negative `tail_start`, a watermark past the last hour, a region
    /// index past the last, a cut.
    #[test]
    fn a_detector_snapshot_no_detector_took_is_refused() {
        let mut det = IncrementalDetector::new(State::TX, Hour(-5), DetectParams::default());
        det.append(&[0.0, 3.0, 0.0, 2.0, 4.0], &mut Vec::new());
        let snap = det.snapshot();
        let back = round_trip(&snap).expect("a real snapshot decodes");
        assert_eq!(format!("{back:?}"), format!("{snap:?}"));
        assert_eq!(back.watermark(), det.watermark());

        let refused = |edit: &dyn Fn(&mut DetectorSnapshot), rule: &str| {
            let mut bad = snap.clone();
            edit(&mut bad);
            let e = round_trip(&bad).expect_err(rule);
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains(rule), "{rule}: {e}");
        };
        refused(&|s| s.params.walk_floor = 0.5, "is not above walk_floor");
        refused(&|s| s.params.min_peak = f64::NAN, "min_peak NaN");
        refused(&|s| s.tail_start = -1, "open hours from -1");
        refused(&|s| s.origin = Hour(i64::MAX - 3), "2 open hours from 3");
        let mut bytes = Vec::new();
        snap.encode(&mut bytes);
        let mut foreign = bytes.clone();
        foreign[0] = u8::MAX;
        let e = DetectorSnapshot::decode(&mut Reader::new(&foreign)).expect_err("index 255");
        assert!(e.to_string().contains("index 255 names no region"), "{e}");
        for cut in 0..bytes.len() {
            let e = DetectorSnapshot::decode(&mut Reader::new(&bytes[..cut])).expect_err("cut");
            assert!(e.to_string().contains("truncated"), "cut at {cut}: {e}");
        }
    }

    #[test]
    #[should_panic(expected = "min_peak > walk_floor")]
    fn incremental_rejects_floor_above_min_peak() {
        let params = DetectParams {
            min_peak: 0.2,
            walk_floor: 0.25,
            ..DetectParams::default()
        };
        let _ = IncrementalDetector::new(State::TX, Hour(0), params);
    }

    #[test]
    fn max_spikes_cap_respected() {
        let mut v = vec![0.0; 200];
        for i in (0..200).step_by(4) {
            v[i] = 50.0;
        }
        let params = DetectParams {
            max_spikes: 5,
            ..DetectParams::default()
        };
        let spikes = detect_spikes(&timeline(v), &params);
        assert_eq!(spikes.len(), 5);
    }
}
