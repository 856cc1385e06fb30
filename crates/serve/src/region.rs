//! Per-region online ingest state: streaming stitcher, incremental
//! detector, sealed spike set, and the durability domain that makes the
//! whole thing crash-recoverable.
//!
//! The invariant every mutation obeys is **WAL-before-apply**: a fetched
//! frame is appended to the region's write-ahead journal *before* it
//! touches the stitcher, the detector, or the sealed spike set. Every
//! `checkpoint_every` frames the full in-memory state (both snapshots
//! plus the sealed spikes) is installed as an atomic checkpoint and the
//! journal truncated. Recovery is therefore checkpoint + WAL-tail replay
//! through the *same* apply path as live ingest — a `kill -9` at any
//! durability boundary restarts to the identical spike set, re-ingesting
//! at most the un-checkpointed tail. A crash inside an install is
//! finished by the next `open`, so the region goes on checkpointing at
//! the frames, and into the files, of a run that never crashed.
//!
//! The durable state has one binary codec, little-endian throughout, so
//! a restart parses no text the daemon wrote itself. A checkpoint
//! payload is the tag `RGN1`, the head's length as a `u32`, the head
//! (the next frame, the term, both snapshots with their `f64`s as bits,
//! the spike count), then every sealed spike as a 32-byte row: `start`,
//! `peak` and `end` as `i64` hours and the magnitude's `f64` bits. The
//! region is the checkpoint's own series. A WAL record is the tag byte
//! 1, the plan index, the frame's `start`, its region's index byte, the
//! term, and the frame's index values as a count and one byte each.
//! Anything else, the JSON of earlier versions included, is refused as
//! `InvalidData` naming the file.

use crate::degrade::DegradeReason;
use sift_core::timeline::{put_state, read_state};
use sift_core::{
    DetectParams, DetectorSnapshot, IncrementalDetector, PlanParams, Spike, StitchError,
    StitcherSnapshot, StreamStitcher,
};
use sift_geo::State;
use sift_journal::codec::{invalid, Reader};
use sift_journal::{checkpoint_age, read_checkpoint, write_checkpoint, Journal};
use sift_simtime::Hour;
use sift_trends::terms::Topic;
use sift_trends::{FrameResponse, SearchTerm};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// First byte of a WAL record: a frame accepted for ingest, tagged with
/// its plan index so replay can discard duplicates from a crash between
/// append and checkpoint.
const RECORD_TAG: u8 = 1;

/// First bytes of a checkpoint payload.
const CHECKPOINT_TAG: &[u8; 4] = b"RGN1";

/// Term tags: a curated topic (one byte naming it follows) or a raw
/// query (its UTF-8 bytes follow, counted).
const TERM_TOPIC: u8 = 0;
const TERM_QUERY: u8 = 1;

/// The head of a checkpoint payload: everything needed to resume ingest
/// exactly where the region stood, bar the spike table after it.
struct CheckpointHead {
    next_frame: u64,
    /// The term the region's frames answer.
    term: SearchTerm,
    stitcher: StitcherSnapshot,
    detector: DetectorSnapshot,
    /// Rows in the spike table.
    spikes: u64,
}

/// Bytes per sealed spike in a checkpoint's table.
const SPIKE_ROW: usize = 32;

/// The mutable core of one region, always accessed under the runtime's
/// mutex.
pub(crate) struct RegionCore {
    /// The region.
    pub state: State,
    /// The term every frame of the region answers.
    term: SearchTerm,
    stitcher: StreamStitcher,
    detector: IncrementalDetector,
    /// Sealed spikes in `(start, peak)` order, raw magnitudes (the first
    /// frame's scale — see `StreamStitcher` on why online detection does
    /// not renormalize).
    pub spikes: Vec<Spike>,
    /// Next plan index to ingest.
    pub next_frame: usize,
    journal: Journal,
    ckpt_path: PathBuf,
    /// WAL records since the last successful checkpoint (including a
    /// replayed tail).
    pub wal_tail: u64,
    /// Frames recovered from checkpoint+WAL instead of the network.
    pub replayed: u64,
    /// Age of the checkpoint `open` recovered from (its mtime); `None`
    /// when the region started without one.
    pub checkpoint_age: Option<Duration>,
    /// Host time of the last applied frame; `None` until the first.
    last_advance: Option<Instant>,
    /// Scratch for the stitcher's newly covered values.
    new_values: Vec<f64>,
    /// Scratch for the WAL record being appended.
    record: Vec<u8>,
}

impl RegionCore {
    /// Opens (and recovers) the region rooted at `dir`: loads the newest
    /// checkpoint if one exists, then replays the WAL tail through the
    /// live apply path, then finishes a checkpoint install the crash
    /// interrupted. A checkpoint taken for another region, another
    /// origin hour or another term is `InvalidData`: restoring it would
    /// serve that series' spikes under this region's name until the
    /// first ingest failed. So is one taken with other detection
    /// parameters or another frame length, which would keep running in
    /// this region alone. So is a whole WAL record that does not decode
    /// or answers another term.
    pub(crate) fn open(
        dir: &Path,
        state: State,
        term: &SearchTerm,
        start: Hour,
        plan: PlanParams,
        detect: DetectParams,
        checkpoint_every: u64,
    ) -> io::Result<RegionCore> {
        let ckpt_path = dir.join("region.ckpt");
        let recovered = match read_checkpoint(&ckpt_path)? {
            Some(bytes) => Some(
                decode_checkpoint(&bytes)
                    .map_err(|e| invalid(format!("{}: {e}", ckpt_path.display())))?,
            ),
            None => None,
        };
        let keep = usize::try_from(plan.frame_len).unwrap_or(usize::MAX);
        if let Some((head, _)) = &recovered {
            for found in [head.stitcher.series(), head.detector.series()] {
                if found != (state, start) {
                    return Err(invalid(format!(
                        "{} holds a checkpoint of {} from {}, not {state} from {start}",
                        ckpt_path.display(),
                        found.0,
                        found.1
                    )));
                }
            }
            if head.term != *term {
                return Err(invalid(format!(
                    "{} holds a checkpoint of term {}, not {term}",
                    ckpt_path.display(),
                    head.term
                )));
            }
            if head.detector.params() != detect {
                return Err(invalid(format!(
                    "{} holds a checkpoint with detect {:?}, not {detect:?}",
                    ckpt_path.display(),
                    head.detector.params()
                )));
            }
            if head.stitcher.keep() != keep {
                return Err(invalid(format!(
                    "{} holds a checkpoint with frame_len {}, not {keep}",
                    ckpt_path.display(),
                    head.stitcher.keep()
                )));
            }
        }
        let checkpoint_age = recovered.as_ref().and_then(|_| checkpoint_age(&ckpt_path));
        let (journal, recovery) = Journal::open(&dir.join("region.wal"))?;

        let (stitcher, detector, spikes, next_frame) = match recovered {
            Some((head, spikes)) => (
                StreamStitcher::restore(head.stitcher),
                IncrementalDetector::restore(head.detector),
                spikes,
                usize::try_from(head.next_frame).unwrap_or(usize::MAX),
            ),
            None => (
                StreamStitcher::new(state, start, keep),
                IncrementalDetector::new(state, start, detect),
                Vec::new(),
                0,
            ),
        };
        let mut core = RegionCore {
            state,
            term: term.clone(),
            stitcher,
            detector,
            spikes,
            next_frame,
            journal,
            ckpt_path,
            wal_tail: 0,
            replayed: 0,
            checkpoint_age,
            last_advance: None,
            new_values: Vec::new(),
            record: Vec::new(),
        };

        // Replay the un-checkpointed tail through the same apply path as
        // live ingest, decoding every record into one reused frame.
        // Records the checkpoint already subsumes (a crash between
        // checkpoint install and journal truncation) are skipped by
        // index.
        let mut frame = FrameResponse {
            term: term.clone(),
            state,
            start,
            values: Vec::new(),
        };
        let mut skipped = false;
        for payload in &recovery.records {
            // Its CRC checks, so an undecodable record is no torn write:
            // it comes from another format or program.
            let wal = core.journal.path().display();
            let idx = decode_record(payload, &mut frame)
                .map_err(|e| invalid(format!("{wal} holds an undecodable record: {e}")))?;
            if frame.term != *term {
                return Err(invalid(format!(
                    "{wal} holds a record of term {}, not {term}",
                    frame.term
                )));
            }
            let idx = usize::try_from(idx).unwrap_or(usize::MAX);
            if idx != core.next_frame {
                skipped = true;
                continue; // already in the checkpoint
            }
            core.wal_tail += 1;
            core.replayed += 1;
            if let Err(e) = core.apply(&frame) {
                return Err(invalid(e));
            }
        }
        if core.replayed > 0 {
            sift_obs::counter(
                "sift_serve_frames_replayed_total",
                &[("region", state.abbrev())],
            )
            .add(core.replayed);
        }
        // A crash inside an install leaves the WAL it was to truncate:
        // behind the new checkpoint (its records skipped above), or a
        // whole interval of records behind the old one (replayed above).
        if skipped || core.wal_tail >= checkpoint_every {
            core.checkpoint();
        }
        Ok(core)
    }

    /// Ingests one live frame under the WAL-before-apply invariant:
    /// journal first, then stitch + detect, then maybe checkpoint. The
    /// append is not fsync'd per frame: `write_all` hands it to the
    /// kernel before the frame is applied, which is what lets a killed
    /// process replay it; the journal batches fsync (every
    /// `DEFAULT_SYNC_EVERY` appends) and the `sync()` ahead of each
    /// checkpoint is what makes the tail durable. Returns the number of
    /// spikes sealed by this frame.
    ///
    /// A frame of another term, or one the stitcher would refuse, is
    /// refused before the journal sees it: replay applies every record,
    /// so a journaled frame that cannot apply would fail every later
    /// `open`.
    pub(crate) fn ingest(
        &mut self,
        idx: usize,
        resp: &FrameResponse,
        checkpoint_every: u64,
    ) -> io::Result<usize> {
        if resp.term != self.term {
            return Err(invalid(format!(
                "a frame of term {}, not {}",
                resp.term, self.term
            )));
        }
        self.stitcher.check(resp).map_err(invalid)?;
        self.record.clear();
        encode_record(idx, resp, &mut self.record);
        self.journal.append(&self.record)?;
        self.wal_tail += 1;

        let sealed = self.apply(resp).map_err(invalid)?;

        if self.wal_tail >= checkpoint_every {
            self.checkpoint();
        }
        Ok(sealed)
    }

    /// The shared apply path (live ingest and recovery replay): stitch
    /// the frame's new hours, feed them to the incremental walk, seal
    /// whatever became final.
    fn apply(&mut self, resp: &FrameResponse) -> Result<usize, StitchError> {
        let _span = sift_obs::span("serve.apply_frame");
        self.stitcher.append(resp, &mut self.new_values)?;
        let sealed = self.detector.append(&self.new_values, &mut self.spikes);
        self.next_frame += 1;
        #[expect(clippy::disallowed_methods, reason = "staleness is host time")]
        let now = Instant::now();
        self.last_advance = Some(now);
        sift_obs::attr_add(
            "hours",
            u64::try_from(self.new_values.len()).unwrap_or(u64::MAX),
        );
        sift_obs::attr_set("watermark", u64::try_from(self.watermark().0).unwrap_or(0));
        if sealed > 0 {
            sift_obs::counter(
                "sift_serve_spikes_sealed_total",
                &[("region", self.state.abbrev())],
            )
            .add(u64::try_from(sealed).unwrap_or(u64::MAX));
        }
        Ok(sealed)
    }

    /// Installs an atomic checkpoint subsuming (and truncating) the WAL.
    /// A failed install is degradation, not death: the WAL tail keeps
    /// every accepted frame, reads keep flowing, and the growing tail
    /// surfaces as `WalBacklog`.
    fn checkpoint(&mut self) {
        if self.install_checkpoint().is_err() {
            sift_obs::counter("sift_serve_checkpoint_failures_total", &[]).inc();
        }
    }

    fn install_checkpoint(&mut self) -> io::Result<()> {
        let head = CheckpointHead {
            next_frame: u64::try_from(self.next_frame).unwrap_or(u64::MAX),
            term: self.term.clone(),
            stitcher: self.stitcher.snapshot(),
            detector: self.detector.snapshot(),
            spikes: u64::try_from(self.spikes.len()).unwrap_or(u64::MAX),
        };
        let payload = encode_checkpoint(&head, &self.spikes);
        self.journal.sync()?;
        write_checkpoint(&self.ckpt_path, &payload, None)?;
        self.journal.truncate_all()?;
        self.wal_tail = 0;
        sift_obs::counter("sift_serve_checkpoints_total", &[]).inc();
        Ok(())
    }

    /// One past the last hour the region's series covers.
    pub(crate) fn watermark(&self) -> Hour {
        self.stitcher.covered_until()
    }

    /// Hours buffered in the detector's open segment (current detection
    /// lag).
    pub(crate) fn open_hours(&self) -> usize {
        self.detector.open_hours()
    }

    /// Host milliseconds since the region last advanced, or since
    /// `epoch` if it never has.
    pub(crate) fn staleness_ms(&self, epoch: Instant) -> u128 {
        self.last_advance.unwrap_or(epoch).elapsed().as_millis()
    }

    /// The most severe degrade condition currently holding, if any.
    /// `fetchable_until` is how far the simulated present allows ingest
    /// to have progressed (clamped to the plan's end).
    pub(crate) fn degrade(
        &self,
        fetchable_until: Hour,
        lag_budget_hours: i64,
        wal_backlog: u64,
    ) -> Option<DegradeReason> {
        if fetchable_until - self.watermark() > lag_budget_hours {
            return Some(DegradeReason::MissingFrames);
        }
        if self.wal_tail > wal_backlog {
            return Some(DegradeReason::WalBacklog);
        }
        if i64::try_from(self.open_hours()).unwrap_or(i64::MAX) > lag_budget_hours {
            return Some(DegradeReason::DetectorLagging);
        }
        None
    }
}

/// Appends `term`: its tag, then a topic's byte or a query's counted
/// UTF-8 bytes.
fn put_term(out: &mut Vec<u8>, term: &SearchTerm) {
    match term {
        SearchTerm::Topic(topic) => out.extend_from_slice(&[
            TERM_TOPIC,
            match topic {
                Topic::InternetOutage => 0,
                Topic::PowerOutage => 1,
            },
        ]),
        SearchTerm::Query(query) => {
            out.push(TERM_QUERY);
            out.extend_from_slice(&u64::try_from(query.len()).unwrap_or(u64::MAX).to_le_bytes());
            out.extend_from_slice(query.as_bytes());
        }
    }
}

/// Reads a term as [`put_term`] wrote it.
fn read_term(r: &mut Reader<'_>, what: &str) -> io::Result<SearchTerm> {
    match r.u8(what)? {
        TERM_TOPIC => match r.u8(what)? {
            0 => Ok(SearchTerm::Topic(Topic::InternetOutage)),
            1 => Ok(SearchTerm::Topic(Topic::PowerOutage)),
            topic => Err(invalid(format!("{what} has unknown topic tag {topic}"))),
        },
        TERM_QUERY => {
            let len = r.count(1, what)?;
            let query = std::str::from_utf8(r.take(len, what)?).map_err(invalid)?;
            Ok(SearchTerm::Query(query.to_owned()))
        }
        tag => Err(invalid(format!("{what} has unknown tag {tag}"))),
    }
}

/// Appends the WAL record of frame `idx` to `out`.
fn encode_record(idx: usize, resp: &FrameResponse, out: &mut Vec<u8>) {
    out.push(RECORD_TAG);
    out.extend_from_slice(&u64::try_from(idx).unwrap_or(u64::MAX).to_le_bytes());
    out.extend_from_slice(&resp.start.0.to_le_bytes());
    put_state(out, resp.state);
    put_term(out, &resp.term);
    let count = u64::try_from(resp.values.len()).unwrap_or(u64::MAX);
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&resp.values);
}

/// Decodes a WAL record into `frame`, reusing its buffers, and returns
/// the record's plan index. A record cut short or run long, or with an
/// unknown tag or region index, is `InvalidData`.
fn decode_record(payload: &[u8], frame: &mut FrameResponse) -> io::Result<u64> {
    let mut r = Reader::new(payload);
    let tag = r.u8("record tag")?;
    if tag != RECORD_TAG {
        return Err(invalid(format!("unknown record tag {tag}")));
    }
    let idx = r.u64("record idx")?;
    frame.start = Hour(r.i64("record start")?);
    frame.state = read_state(&mut r, "record state")?;
    frame.term = read_term(&mut r, "record term")?;
    let count = r.count(1, "record values")?;
    frame.values.clear();
    frame
        .values
        .extend_from_slice(r.take(count, "record values")?);
    r.finish("record")?;
    Ok(idx)
}

/// A checkpoint payload: the tag, the head's length, the head, then
/// one row per spike.
fn encode_checkpoint(head: &CheckpointHead, spikes: &[Spike]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(1024 + SPIKE_ROW * spikes.len());
    bytes.extend_from_slice(CHECKPOINT_TAG);
    bytes.extend_from_slice(&[0; 4]);
    bytes.extend_from_slice(&head.next_frame.to_le_bytes());
    put_term(&mut bytes, &head.term);
    head.stitcher.encode(&mut bytes);
    head.detector.encode(&mut bytes);
    bytes.extend_from_slice(&head.spikes.to_le_bytes());
    let head_len = u32::try_from(bytes.len() - 8).unwrap_or(u32::MAX);
    bytes[4..8].copy_from_slice(&head_len.to_le_bytes());
    encode_table(spikes, &mut bytes);
    bytes
}

/// Appends one table row per spike to `bytes`: `start`, `peak` and `end`
/// as little-endian `i64` hours, then the magnitude's `f64` bits. The
/// region is not stored.
fn encode_table(spikes: &[Spike], bytes: &mut Vec<u8>) {
    for s in spikes {
        bytes.extend_from_slice(&s.start.0.to_le_bytes());
        bytes.extend_from_slice(&s.peak.0.to_le_bytes());
        bytes.extend_from_slice(&s.end.0.to_le_bytes());
        bytes.extend_from_slice(&s.magnitude.to_bits().to_le_bytes());
    }
}

/// The spikes of `state` in the whole rows of `table`, bit for bit as
/// [`encode_table`] wrote them.
fn decode_table(state: State, table: &[u8]) -> impl Iterator<Item = Spike> + '_ {
    table.chunks_exact(SPIKE_ROW).map(move |row| {
        let word = |i: usize| {
            let mut word = [0; 8];
            word.copy_from_slice(&row[8 * i..8 * (i + 1)]);
            word
        };
        Spike {
            state,
            start: Hour(i64::from_le_bytes(word(0))),
            peak: Hour(i64::from_le_bytes(word(1))),
            end: Hour(i64::from_le_bytes(word(2))),
            magnitude: f64::from_bits(u64::from_le_bytes(word(3))),
        }
    })
}

/// Decodes a checkpoint payload. Refuses, as `InvalidData`, an unknown
/// tag, a head cut short or run long, a snapshot no stitcher or
/// detector could have taken (see their `decode`), a detector that has
/// seen other hours than the stitcher covers, and a spike table the
/// checkpoint's own detector could not have sealed: a row count other
/// than the head's or the detector's, a spike that is not `start <= peak
/// < end` inside `[series start, covered until)`, rows out of `(start,
/// peak)` order, or a magnitude that is not finite.
fn decode_checkpoint(bytes: &[u8]) -> io::Result<(CheckpointHead, Vec<Spike>)> {
    let mut r = Reader::new(bytes);
    let tag = r.take(CHECKPOINT_TAG.len(), "checkpoint tag")?;
    if tag != CHECKPOINT_TAG {
        return Err(invalid(format!("unknown checkpoint tag {tag:02x?}")));
    }
    let head_len = r.u32("checkpoint head length")?;
    let mut h = Reader::new(r.take(
        usize::try_from(head_len).unwrap_or(usize::MAX),
        "checkpoint head",
    )?);
    let head = CheckpointHead {
        next_frame: h.u64("next_frame")?,
        term: read_term(&mut h, "checkpoint term")?,
        stitcher: StitcherSnapshot::decode(&mut h)?,
        detector: DetectorSnapshot::decode(&mut h)?,
        spikes: h.u64("spike count")?,
    };
    h.finish("checkpoint head")?;
    let table = r.rest();
    if head.detector.watermark() != head.stitcher.covered_until() {
        return Err(invalid(format!(
            "a detector that has seen hours to {} where the stitcher covers to {}",
            head.detector.watermark().0,
            head.stitcher.covered_until().0
        )));
    }
    let count = usize::try_from(head.spikes).map_err(invalid)?;
    if count.checked_mul(SPIKE_ROW) != Some(table.len()) {
        return Err(invalid(format!(
            "a spike table of {} bytes does not hold {count} spikes",
            table.len()
        )));
    }
    if count != head.detector.emitted() {
        return Err(invalid(format!(
            "{count} spikes in a checkpoint whose detector sealed {}",
            head.detector.emitted()
        )));
    }
    let (state, first) = head.stitcher.series();
    let covered = head.stitcher.covered_until();
    let mut spikes: Vec<Spike> = Vec::with_capacity(count);
    for spike in decode_table(state, table) {
        let refusal = if !(spike.start <= spike.peak && spike.peak < spike.end) {
            Some("is not start <= peak < end")
        } else if spike.start < first || spike.end > covered {
            Some("lies outside the series")
        } else if spikes
            .last()
            .is_some_and(|prev| (prev.start, prev.peak) >= (spike.start, spike.peak))
        {
            Some("is out of (start, peak) order")
        } else if !spike.magnitude.is_finite() {
            Some("has a magnitude that is not finite")
        } else {
            None
        };
        if let Some(why) = refusal {
            return Err(invalid(format!(
                "checkpointed spike {} {why}: {spike:?} in [{first}, {covered})",
                spikes.len()
            )));
        }
        spikes.push(spike);
    }
    Ok((head, spikes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_journal::testutil::{scratch_dir, ScratchDir};

    fn outage() -> SearchTerm {
        SearchTerm::parse("topic:Internet outage")
    }

    /// `payload` decodes, and encodes back to the same bytes.
    fn assert_round_trip(payload: &[u8]) -> (CheckpointHead, Vec<Spike>) {
        let (head, spikes) = decode_checkpoint(payload).expect("decode");
        assert_eq!(encode_checkpoint(&head, &spikes), payload);
        (head, spikes)
    }

    /// The spikes as `(state, start, peak, end, magnitude bits)`: equal
    /// exactly when the spikes are equal bit for bit.
    fn bits(spikes: &[Spike]) -> Vec<(State, Hour, Hour, Hour, u64)> {
        spikes
            .iter()
            .map(|s| (s.state, s.start, s.peak, s.end, s.magnitude.to_bits()))
            .collect()
    }

    /// A magnitude from the corners of `f64`: signed zeros, subnormals of
    /// either sign, or any bit pattern at all (NaN payloads included).
    fn magnitude() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::strategy::{Just, Strategy};
        proptest::prop_oneof![
            Just(0.0),
            Just(-0.0),
            (1u64..1 << 52).prop_map(f64::from_bits),
            (1u64..1 << 52).prop_map(|m| -f64::from_bits(m)),
            proptest::arbitrary::any::<u64>().prop_map(f64::from_bits),
        ]
    }

    /// The head of a checkpoint taken of `stitcher` and `detector`.
    fn head_of(
        next_frame: u64,
        stitcher: &StreamStitcher,
        detector: &IncrementalDetector,
        spikes: &[Spike],
    ) -> CheckpointHead {
        CheckpointHead {
            next_frame,
            term: outage(),
            stitcher: stitcher.snapshot(),
            detector: detector.snapshot(),
            spikes: spikes.len() as u64,
        }
    }

    /// A term of either kind: a topic, or a query of any text.
    fn term() -> impl proptest::strategy::Strategy<Value = SearchTerm> {
        use proptest::strategy::{Just, Strategy};
        proptest::prop_oneof![
            Just(SearchTerm::parse("topic:Internet outage")),
            Just(SearchTerm::parse("topic:Power outage")),
            ".{0,12}".prop_map(SearchTerm::Query),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        /// The WAL record and the checkpoint, mid-series, decode to what
        /// they were written from, and encode back to the same bytes.
        #[test]
        fn wal_record_and_checkpoint_round_trip(
            seed in proptest::arbitrary::any::<u64>(),
            term in term(),
        ) {
            let rng = &mut proptest::test_runner::TestRng::new(seed);
            let start = Hour(-336);
            let resp = FrameResponse {
                term,
                state: State::TX,
                start,
                values: (0..168).map(|_| rng.below(101) as u8).collect(),
            };
            let idx = rng.next_u64() as usize;
            let mut record = Vec::new();
            encode_record(idx, &resp, &mut record);
            let mut back = flat_frame(0);
            proptest::prop_assert_eq!(decode_record(&record, &mut back).expect("decode"), idx as u64);
            proptest::prop_assert_eq!(&back, &resp);

            let mut stitcher = StreamStitcher::new(State::TX, start, 84);
            let mut detector = IncrementalDetector::new(State::TX, start, DetectParams::default());
            let (mut fresh, mut spikes) = (Vec::new(), Vec::new());
            stitcher.append(&resp, &mut fresh).expect("first frame");
            detector.append(&fresh, &mut spikes);
            let mut head = head_of(rng.next_u64(), &stitcher, &detector, &spikes);
            head.term = resp.term.clone();
            let payload = encode_checkpoint(&head, &spikes);
            let (back, decoded) = assert_round_trip(&payload);
            proptest::prop_assert_eq!(back.next_frame, head.next_frame);
            proptest::prop_assert_eq!(&back.term, &head.term);
            proptest::prop_assert_eq!(bits(&decoded), bits(&spikes));
        }

        /// Any spikes, hours of either sign and magnitudes from the
        /// corners of `f64`, come back from the table bit for bit.
        #[test]
        fn spike_table_round_trips_bit_for_bit(
            rows in proptest::collection::vec(
                (
                    proptest::arbitrary::any::<i64>(),
                    proptest::arbitrary::any::<i64>(),
                    proptest::arbitrary::any::<i64>(),
                    magnitude(),
                ),
                0..48,
            ),
        ) {
            let spikes: Vec<Spike> = rows
                .into_iter()
                .map(|(start, peak, end, magnitude)| Spike {
                    state: State::AK,
                    start: Hour(start),
                    peak: Hour(peak),
                    end: Hour(end),
                    magnitude,
                })
                .collect();
            let mut table = Vec::new();
            encode_table(&spikes, &mut table);
            proptest::prop_assert_eq!(table.len(), SPIKE_ROW * spikes.len());
            let decoded: Vec<Spike> = decode_table(State::AK, &table).collect();
            proptest::prop_assert_eq!(bits(&decoded), bits(&spikes));
        }
    }

    /// One checkpoint, byte for byte: VT from hour -24 after one
    /// eight-hour frame that sealed three spikes. A change to these bytes
    /// is a change of the checkpoint format.
    #[test]
    fn checkpoint_matches_its_pinned_bytes() {
        let resp = FrameResponse {
            term: outage(),
            state: State::VT,
            start: Hour(-24),
            values: vec![0, 30, 80, 35, 0, 0, 3, 0],
        };
        let mut stitcher = StreamStitcher::new(State::VT, Hour(-24), 4);
        let mut detector = IncrementalDetector::new(State::VT, Hour(-24), DetectParams::default());
        let (mut fresh, mut spikes) = (Vec::new(), Vec::new());
        stitcher.append(&resp, &mut fresh).expect("frame");
        detector.append(&fresh, &mut spikes);
        // The tag and the head's length (156), `next_frame` 1, the term
        // (topic 0); the stitcher: VT (index 46), start -24, covered 8,
        // keep 4, prev_scale 1.0, max_raw 80.0 and its tail of four,
        // [0, 0, 3, 0]; the detector: VT, min_peak 0.5, walk_floor 0.25,
        // max_spikes 20 000, origin -24, tail_start 8, emitted 3 and an
        // empty tail; three spikes.
        let head = b"RGN1\x9c\x00\x00\x00\
            \x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x2e\xe8\xff\xff\xff\xff\xff\xff\xff\x08\x00\x00\x00\x00\x00\x00\x00\
            \x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0\x3f\
            \x00\x00\x00\x00\x00\x00\x54\x40\x04\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x08\x40\x00\x00\x00\x00\x00\x00\x00\x00\
            \x2e\x00\x00\x00\x00\x00\x00\xe0\x3f\x00\x00\x00\x00\x00\x00\xd0\x3f\
            \x20\x4e\x00\x00\x00\x00\x00\x00\xe8\xff\xff\xff\xff\xff\xff\xff\
            \x08\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\
            \x03\x00\x00\x00\x00\x00\x00\x00";
        // Rows of start, peak, end and magnitude bits: (-23, -22, -21,
        // 80.0), (-21, -21, -20, 35.0) and (-18, -18, -17, 3.0).
        let table = b"\
            \xe9\xff\xff\xff\xff\xff\xff\xff\xea\xff\xff\xff\xff\xff\xff\xff\
            \xeb\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x54\x40\
            \xeb\xff\xff\xff\xff\xff\xff\xff\xeb\xff\xff\xff\xff\xff\xff\xff\
            \xec\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x80\x41\x40\
            \xee\xff\xff\xff\xff\xff\xff\xff\xee\xff\xff\xff\xff\xff\xff\xff\
            \xef\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x08\x40";
        let pinned = [head.as_slice(), table].concat();
        let payload = encode_checkpoint(&head_of(1, &stitcher, &detector, &spikes), &spikes);
        assert_eq!(payload, pinned);
        let (back, decoded) = assert_round_trip(&pinned);
        assert_eq!(back.next_frame, 1);
        assert_eq!(back.term, outage());
        assert_eq!(bits(&decoded), bits(&spikes));
        let rows: Vec<_> = decoded
            .iter()
            .map(|s| (s.start.0, s.peak.0, s.end.0))
            .collect();
        assert_eq!(rows, [(-23, -22, -21), (-21, -21, -20), (-18, -18, -17)]);
    }

    /// One WAL record, byte for byte. A change to these bytes is a
    /// change of the record format.
    #[test]
    fn wal_record_matches_its_pinned_bytes() {
        let resp = FrameResponse {
            term: outage(),
            state: State::VT,
            start: Hour(-168),
            values: vec![100, 0, 3],
        };
        // The tag, idx 17, start -168, VT (index 46), the term (topic
        // 0), three values: 100, 0, 3.
        let pinned = b"\x01\x11\x00\x00\x00\x00\x00\x00\x00\
            \x58\xff\xff\xff\xff\xff\xff\xff\x2e\x00\x00\
            \x03\x00\x00\x00\x00\x00\x00\x00\x64\x00\x03";
        let mut record = Vec::new();
        encode_record(17, &resp, &mut record);
        assert_eq!(record, pinned);
        let mut back = flat_frame(0);
        assert_eq!(decode_record(pinned, &mut back).expect("decode"), 17);
        assert_eq!(back, resp);
    }

    /// TX from hour -168 after one frame with a spike a day (hours 5–7,
    /// peaking at 6): the head and the seven spikes it sealed.
    fn sealed_week() -> (CheckpointHead, Vec<Spike>) {
        let resp = FrameResponse {
            term: outage(),
            state: State::TX,
            start: Hour(-168),
            values: (0..168)
                .map(|h| match h % 24 {
                    5 => 30,
                    6 => 80,
                    7 => 45,
                    _ => 0,
                })
                .collect(),
        };
        let mut stitcher = StreamStitcher::new(State::TX, Hour(-168), 168);
        let mut detector = IncrementalDetector::new(State::TX, Hour(-168), DetectParams::default());
        let (mut fresh, mut spikes) = (Vec::new(), Vec::new());
        stitcher.append(&resp, &mut fresh).expect("frame");
        detector.append(&fresh, &mut spikes);
        assert_eq!(spikes.len(), 7, "{spikes:?}");
        (head_of(1, &stitcher, &detector, &spikes), spikes)
    }

    /// `payload` is refused as `InvalidData`, with a message naming
    /// `rule`.
    fn assert_refused(payload: &[u8], what: &str, rule: &str) {
        match decode_checkpoint(payload) {
            Ok(_) => panic!("{what}: decoded"),
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
                assert!(e.to_string().contains(rule), "{what}: {e}");
            }
        }
    }

    /// The week's checkpoint with `edit` applied to its spikes (the head
    /// counts them after the edit) is refused by `rule`.
    fn assert_edit_refused(what: &str, rule: &str, edit: impl FnOnce(&mut Vec<Spike>)) {
        let (mut head, mut spikes) = sealed_week();
        assert_round_trip(&encode_checkpoint(&head, &spikes));
        edit(&mut spikes);
        head.spikes = spikes.len() as u64;
        assert_refused(&encode_checkpoint(&head, &spikes), what, rule);
    }

    /// The week's checkpoint payload and the length of its head.
    fn week_payload() -> (Vec<u8>, usize) {
        let (head, spikes) = sealed_week();
        let payload = encode_checkpoint(&head, &spikes);
        let head_len = u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]);
        (payload, head_len as usize)
    }

    #[test]
    fn a_table_of_the_wrong_length_is_refused() {
        let (payload, _) = week_payload();
        let rule = "does not hold 7 spikes";
        for (what, len) in [
            ("a byte short", payload.len() - 1),
            ("a row short", payload.len() - SPIKE_ROW),
        ] {
            assert_refused(&payload[..len], what, rule);
        }
        for (what, extra) in [("a byte long", 1), ("a row long", SPIKE_ROW)] {
            let mut long = payload.clone();
            long.resize(long.len() + extra, 0);
            assert_refused(&long, what, rule);
        }
    }

    #[test]
    fn a_count_other_than_the_detectors_is_refused() {
        let rule = "whose detector sealed 7";
        assert_edit_refused("a row missing", rule, |spikes| {
            spikes.pop();
        });
        assert_edit_refused("a row too many", rule, |spikes| {
            spikes.push(Spike {
                start: Hour(-3),
                peak: Hour(-2),
                end: Hour(-1),
                ..spikes[0]
            });
        });
    }

    #[test]
    fn a_spike_not_start_peak_end_is_refused() {
        let rule = "is not start <= peak < end";
        assert_edit_refused("peak at end", rule, |spikes| {
            spikes[2].peak = spikes[2].end;
        });
        assert_edit_refused("peak before start", rule, |spikes| {
            spikes[2].peak = spikes[2].start - 1;
        });
        assert_edit_refused("end at start", rule, |spikes| {
            spikes[2].end = spikes[2].start;
        });
    }

    #[test]
    fn a_spike_outside_the_series_is_refused() {
        let rule = "lies outside the series";
        assert_edit_refused("before the series", rule, |spikes| {
            spikes[0].start = Hour(-169);
        });
        assert_edit_refused("past what it covers", rule, |spikes| {
            spikes[6].end = Hour(1);
        });
    }

    #[test]
    fn spikes_out_of_order_are_refused() {
        let rule = "is out of (start, peak) order";
        assert_edit_refused("two swapped", rule, |spikes| spikes.swap(3, 4));
        assert_edit_refused("one twice", rule, |spikes| spikes[4] = spikes[3]);
    }

    #[test]
    fn a_magnitude_that_is_not_finite_is_refused() {
        for magnitude in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let what = format!("magnitude {magnitude}");
            assert_edit_refused(&what, "magnitude that is not finite", |spikes| {
                spikes[5].magnitude = magnitude;
            });
        }
    }

    /// A head cut anywhere, or whose length field takes a byte more or
    /// less than its fields fill, is refused.
    #[test]
    fn a_head_cut_short_or_run_long_is_refused() {
        let (payload, head_len) = week_payload();
        for cut in 0..8 + head_len {
            assert_refused(&payload[..cut], &format!("cut at {cut}"), "truncated");
        }
        let mut long = payload.clone();
        long[4..8].copy_from_slice(&(head_len as u32 + 1).to_le_bytes());
        long.insert(8 + head_len, 0);
        assert_refused(
            &long,
            "a byte long",
            "checkpoint head is over-long: 1 bytes",
        );
        let mut short = payload.clone();
        short[4..8].copy_from_slice(&(head_len as u32 - 1).to_le_bytes());
        assert_refused(&short, "a byte short", "spike count needs 8 bytes, 7 left");
    }

    /// Tags and region indices come from short lists; a byte off them is
    /// refused, naming it.
    #[test]
    fn an_unknown_tag_or_region_index_is_refused() {
        let (payload, _) = week_payload();
        let edited = |at: usize, byte: u8| {
            let mut bytes = payload.clone();
            bytes[at] = byte;
            bytes
        };
        // The checkpoint tag, then the term's tag and topic right after
        // `next_frame`, then the stitcher's region index.
        assert_refused(&edited(0, b'X'), "tag", "unknown checkpoint tag");
        assert_refused(
            &edited(16, 7),
            "term tag",
            "checkpoint term has unknown tag 7",
        );
        assert_refused(&edited(17, 2), "topic", "unknown topic tag 2");
        assert_refused(
            &edited(18, 51),
            "region",
            "stitcher state index 51 names no region",
        );

        let mut record = Vec::new();
        encode_record(3, &flat_frame(10), &mut record);
        let mut frame = flat_frame(0);
        let refused = |bytes: &[u8], rule: &str, frame: &mut FrameResponse| {
            let e = decode_record(bytes, frame).expect_err(rule);
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains(rule), "{rule}: {e}");
        };
        let mut bad = record.clone();
        bad[0] = b'{';
        refused(&bad, "unknown record tag 123", &mut frame);
        let mut bad = record.clone();
        bad[17] = 200;
        refused(&bad, "record state index 200 names no region", &mut frame);
        let mut bad = record.clone();
        bad[18] = 5;
        refused(&bad, "record term has unknown tag 5", &mut frame);
        for cut in 0..record.len() {
            refused(&record[..cut], "truncated", &mut frame);
        }
        let long = [record.as_slice(), &[0]].concat();
        refused(&long, "record is over-long: 1 bytes", &mut frame);
        assert_eq!(decode_record(&record, &mut frame).expect("decode"), 3);
        assert_eq!(frame, flat_frame(10));
    }

    /// A detector snapshot that has not seen exactly the hours its
    /// stitcher covers was not taken beside it.
    #[test]
    fn a_detector_out_of_step_with_its_stitcher_is_refused() {
        let (mut head, spikes) = sealed_week();
        let mut behind = IncrementalDetector::new(State::TX, Hour(-168), DetectParams::default());
        let mut sealed = Vec::new();
        behind.append(&[0.0; 24], &mut sealed);
        head.detector = behind.snapshot();
        assert_refused(
            &encode_checkpoint(&head, &spikes),
            "behind",
            "seen hours to -144 where the stitcher covers to 0",
        );
    }

    /// The JSON-head checkpoints of earlier versions, with a spike table
    /// after the head or all JSON, are refused: no reader for them is
    /// left.
    #[test]
    fn a_json_checkpoint_is_refused() {
        let head = r#"{"next_frame":1,"stitcher":{"state":"VT","start":-24,"covered":8,"prev_scale":1.0,"keep":4,"tail":[0.0,0.0,3.0,0.0],"max_raw":80.0},"detector":{"state":"VT","params":{"min_peak":0.5,"walk_floor":0.25,"max_spikes":20000},"origin":-24,"tail":[],"tail_start":8,"emitted":0},"spikes":0}"#;
        assert_refused(head.as_bytes(), "all JSON", "unknown checkpoint tag");
        let with_table = [head.as_bytes(), b"\n"].concat();
        assert_refused(&with_table, "a JSON head", "unknown checkpoint tag");
    }

    fn open_in(dir: &Path, state: State, start: Hour) -> io::Result<RegionCore> {
        open_for(dir, &outage(), state, start)
    }

    fn open_for(
        dir: &Path,
        term: &SearchTerm,
        state: State,
        start: Hour,
    ) -> io::Result<RegionCore> {
        RegionCore::open(
            dir,
            state,
            term,
            start,
            PlanParams::default(),
            DetectParams::default(),
            4,
        )
    }

    fn fresh_core(tag: &str) -> (ScratchDir, RegionCore) {
        let dir = scratch_dir(&format!("serve_region_{tag}"));
        let core = open_in(&dir, State::TX, Hour(0)).expect("open region");
        (dir, core)
    }

    fn flat_frame(value: u8) -> FrameResponse {
        FrameResponse {
            term: outage(),
            state: State::TX,
            start: Hour(0),
            values: vec![value; 168],
        }
    }

    /// The lattice reports the most severe condition first: missing
    /// frames outrank a WAL backlog, which outranks a lagging detector.
    #[test]
    fn degrade_lattice_orders_by_severity() {
        let (_dir, mut core) = fresh_core("lattice");

        // Fresh region, simulated present far ahead: missing frames.
        assert_eq!(
            core.degrade(Hour(800), 336, 16),
            Some(DegradeReason::MissingFrames)
        );

        // Caught up: no degradation.
        assert_eq!(core.degrade(Hour(0), 336, 16), None);

        // A WAL tail past its budget degrades even when caught up.
        core.wal_tail = 5;
        assert_eq!(
            core.degrade(Hour(0), 336, 4),
            Some(DegradeReason::WalBacklog)
        );
        assert_eq!(
            core.degrade(Hour(800), 336, 4),
            Some(DegradeReason::MissingFrames),
            "missing frames outranks the WAL backlog"
        );
        core.wal_tail = 0;

        // A frame that never returns to the noise floor leaves the whole
        // window open: detector lag, the least severe reason.
        core.ingest(0, &flat_frame(50), 1_000).expect("ingest");
        assert_eq!(core.open_hours(), 168);
        assert_eq!(
            core.degrade(core.watermark(), 100, 16),
            Some(DegradeReason::DetectorLagging)
        );
        assert_eq!(
            core.degrade(core.watermark(), 336, 16),
            None,
            "within the lag budget an open segment is not degradation"
        );
    }

    /// A directory holding another region's (or another origin's)
    /// checkpoint is rejected at open, not at the first ingest.
    #[test]
    fn foreign_checkpoint_is_rejected_at_open() {
        let dir = scratch_dir("serve_region_foreign");
        {
            let mut core = open_in(&dir, State::TX, Hour(0)).expect("open region");
            core.ingest(0, &flat_frame(10), 1).expect("ingest");
            assert_eq!(core.wal_tail, 0, "the frame was checkpointed");
        }
        for (state, start) in [(State::CA, Hour(0)), (State::TX, Hour(168))] {
            match open_in(&dir, state, start) {
                Ok(_) => panic!("TX-from-0 checkpoint opened as {state} from {start}"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
            }
        }
        let core = open_in(&dir, State::TX, Hour(0)).expect("its own region reopens");
        assert_eq!(core.watermark(), Hour(168));
    }

    /// A checkpoint keeps the detection parameters and the frame length
    /// it was taken with. Reopening it with others is refused, naming
    /// the field, both values and the checkpoint; reopening it with its
    /// own recovers the identical spike set.
    #[test]
    fn a_checkpoint_reopened_with_other_parameters_is_refused() {
        let dir = scratch_dir("serve_region_params");
        let spiky = FrameResponse {
            values: (0..168).map(|h| if h % 24 == 6 { 80 } else { 0 }).collect(),
            ..flat_frame(0)
        };
        let sealed = {
            let mut core = open_in(&dir, State::TX, Hour(0)).expect("open region");
            core.ingest(0, &spiky, 1).expect("ingest");
            assert_eq!(core.wal_tail, 0, "the frame was checkpointed");
            core.spikes.clone()
        };
        assert_eq!(sealed.len(), 7, "{sealed:?}");
        let other = DetectParams {
            min_peak: 50.0,
            walk_floor: 20.0,
            max_spikes: 7,
        };
        let short = PlanParams {
            frame_len: 84,
            step: 42,
        };
        for (plan, detect, field, values) in [
            (
                PlanParams::default(),
                other,
                "detect",
                [
                    format!("{:?}", DetectParams::default()),
                    format!("{other:?}"),
                ],
            ),
            (
                short,
                DetectParams::default(),
                "frame_len",
                ["168".to_owned(), "84".to_owned()],
            ),
        ] {
            match RegionCore::open(&dir, State::TX, &outage(), Hour(0), plan, detect, 4) {
                Ok(_) => panic!("a checkpoint reopened with another {field}"),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    let text = e.to_string();
                    let path = dir.join("region.ckpt").display().to_string();
                    assert!(text.contains(field) && text.contains(&path), "{text}");
                    assert!(values.iter().all(|v| text.contains(v.as_str())), "{text}");
                }
            }
        }
        let core = open_in(&dir, State::TX, Hour(0)).expect("reopens with its own parameters");
        assert_eq!(core.spikes, sealed);
    }

    /// A WAL record whose CRC checks but whose payload does not decode,
    /// the JSON record of earlier versions among them, is refused at
    /// open, not skipped.
    #[test]
    fn undecodable_wal_record_is_refused_at_open() {
        let json = br#"{"idx":0,"resp":{"term":{"Topic":"InternetOutage"},"state":"TX","start":0,"values":[100,0,3]}}"#;
        for payload in [b"not a serve record".as_slice(), json] {
            let dir = scratch_dir("serve_region_undecodable");
            open_in(&dir, State::TX, Hour(0)).expect("open region");
            let (mut wal, _) = Journal::open(&dir.join("region.wal")).expect("wal");
            wal.append(payload).expect("append");
            drop(wal);
            match open_in(&dir, State::TX, Hour(0)) {
                Ok(_) => panic!("an undecodable WAL record was skipped"),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    assert!(e.to_string().contains("undecodable record"), "{e}");
                }
            }
        }
    }

    /// `open` on `dir` with the other topic is refused as `InvalidData`
    /// naming `file` and both terms.
    fn assert_other_term_refused(dir: &Path, file: &str) {
        let power = SearchTerm::parse("topic:Power outage");
        match open_for(dir, &power, State::TX, Hour(0)) {
            Ok(_) => panic!("a region of <Internet outage> reopened for {power}"),
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                let text = e.to_string();
                let path = dir.join(file).display().to_string();
                assert!(text.contains(&path), "{text}");
                assert!(
                    text.contains("<Internet outage>, not <Power outage>"),
                    "{text}"
                );
            }
        }
    }

    /// A checkpoint keeps the term its frames answered; a restart with
    /// another is refused, and one with its own recovers.
    #[test]
    fn a_checkpoint_of_another_term_is_refused_at_open() {
        let dir = scratch_dir("serve_region_term_ckpt");
        {
            let mut core = open_in(&dir, State::TX, Hour(0)).expect("open region");
            core.ingest(0, &flat_frame(10), 1).expect("ingest");
            assert_eq!(core.wal_tail, 0, "the frame was checkpointed");
        }
        assert_other_term_refused(&dir, "region.ckpt");
        let core = open_in(&dir, State::TX, Hour(0)).expect("its own term reopens");
        assert_eq!(core.watermark(), Hour(168));
    }

    /// A WAL record keeps the term of its frame; a restart with another
    /// is refused, and one with its own replays it.
    #[test]
    fn a_wal_record_of_another_term_is_refused_at_open() {
        let dir = scratch_dir("serve_region_term_wal");
        {
            let mut core = open_in(&dir, State::TX, Hour(0)).expect("open region");
            core.ingest(0, &flat_frame(10), 1_000).expect("ingest");
            assert_eq!(core.wal_tail, 1, "the frame stays in the WAL");
        }
        assert_other_term_refused(&dir, "region.wal");
        let core = open_in(&dir, State::TX, Hour(0)).expect("its own term reopens");
        assert_eq!((core.replayed, core.watermark()), (1, Hour(168)));
    }

    /// A frame the stitcher refuses, or one of another term, never
    /// reaches the WAL: the region is unchanged, reopens cleanly, and
    /// then takes the right frame.
    #[test]
    fn rejected_frame_is_not_journaled() {
        let dir = scratch_dir("serve_region_rejected");
        let foreign = FrameResponse {
            state: State::CA,
            ..flat_frame(10)
        };
        let other_term = FrameResponse {
            term: SearchTerm::parse("topic:Power outage"),
            ..flat_frame(10)
        };
        {
            let mut core = open_in(&dir, State::TX, Hour(0)).expect("open region");
            for (what, frame) in [("CA into TX", &foreign), ("another term", &other_term)] {
                let err = core.ingest(0, frame, 1_000).expect_err(what);
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
                assert_eq!(core.wal_tail, 0);
                assert_eq!(core.watermark(), Hour(0));
            }
        }
        let mut core = open_in(&dir, State::TX, Hour(0)).expect("reopens after a rejection");
        assert_eq!((core.replayed, core.next_frame), (0, 0));
        core.ingest(0, &flat_frame(10), 1_000).expect("ingest");
        assert_eq!(core.watermark(), Hour(168));
    }

    /// The watermark tracks stitched coverage and `staleness_ms` falls
    /// back to the daemon epoch before the first frame.
    #[test]
    fn watermark_and_staleness_track_ingest() {
        let (_dir, mut core) = fresh_core("watermark");
        let epoch = Instant::now() - std::time::Duration::from_millis(50);
        assert_eq!(core.watermark(), Hour(0));
        assert!(core.staleness_ms(epoch) >= 50);

        core.ingest(0, &flat_frame(10), 1_000).expect("ingest");
        assert_eq!(core.watermark(), Hour(168));
        assert!(core.staleness_ms(epoch) < 50);
    }
}
