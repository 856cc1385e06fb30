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
//! at most the un-checkpointed tail.

use crate::degrade::DegradeReason;
use serde::{Deserialize, Serialize};
use sift_core::{
    DetectParams, DetectorSnapshot, IncrementalDetector, PlanParams, Spike, StitchError,
    StitcherSnapshot, StreamStitcher,
};
use sift_geo::State;
use sift_journal::{checkpoint_age, read_checkpoint, write_checkpoint, CrashInjector, Journal};
use sift_simtime::Hour;
use sift_trends::FrameResponse;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One WAL record: a frame accepted for ingest, tagged with its plan
/// index so replay can discard duplicates from a crash between append
/// and checkpoint.
#[derive(Serialize, Deserialize)]
struct ServeRecord {
    idx: u64,
    resp: FrameResponse,
}

/// Checkpoint payload: everything needed to resume ingest and serving
/// exactly where the region stood.
#[derive(Serialize, Deserialize)]
struct RegionCheckpoint {
    next_frame: u64,
    stitcher: StitcherSnapshot,
    detector: DetectorSnapshot,
    spikes: Vec<Spike>,
}

/// The mutable core of one region, always accessed under the runtime's
/// mutex.
pub(crate) struct RegionCore {
    /// The region.
    pub state: State,
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
    crash: Option<Arc<CrashInjector>>,
    /// WAL records since the last successful checkpoint (including a
    /// replayed tail).
    pub wal_tail: u64,
    /// Frames recovered from checkpoint+WAL instead of the network.
    pub replayed: u64,
    /// Age of the checkpoint `open` recovered from (its mtime); `None`
    /// when the region started without one.
    pub checkpoint_age: Option<Duration>,
    /// The most recent fetch attempt failed (cleared by any success).
    pub fetch_failing: bool,
    /// Host time of the last applied frame; `None` until the first.
    last_advance: Option<Instant>,
    /// Scratch for the stitcher's newly covered values.
    new_values: Vec<f64>,
}

impl RegionCore {
    /// Opens (and recovers) the region rooted at `dir`: loads the newest
    /// checkpoint if one exists, then replays the WAL tail through the
    /// live apply path. A checkpoint taken for another region or another
    /// origin hour is `InvalidData`: restoring it would serve that
    /// series' spikes under this region's name until the first ingest
    /// failed. So is a whole WAL record that does not decode.
    pub(crate) fn open(
        dir: &Path,
        state: State,
        start: Hour,
        plan: PlanParams,
        detect: DetectParams,
        crash: Option<Arc<CrashInjector>>,
    ) -> io::Result<RegionCore> {
        std::fs::create_dir_all(dir)?;
        let ckpt_path = dir.join("region.ckpt");
        let recovered = match read_checkpoint(&ckpt_path)? {
            Some(bytes) => Some(decode_checkpoint(&bytes)?),
            None => None,
        };
        if let Some(ckpt) = &recovered {
            for found in [ckpt.stitcher.series(), ckpt.detector.series()] {
                if found != (state, start) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{} holds a checkpoint of {} from {}, not {state} from {start}",
                            ckpt_path.display(),
                            found.0,
                            found.1
                        ),
                    ));
                }
            }
        }
        let checkpoint_age = recovered.as_ref().and_then(|_| checkpoint_age(&ckpt_path));
        let (journal, recovery) = Journal::open(&dir.join("region.wal"))?;

        let keep = usize::try_from(plan.frame_len).unwrap_or(usize::MAX);
        let mut core = match recovered {
            Some(ckpt) => RegionCore {
                state,
                stitcher: StreamStitcher::restore(ckpt.stitcher),
                detector: IncrementalDetector::restore(ckpt.detector),
                spikes: ckpt.spikes,
                next_frame: usize::try_from(ckpt.next_frame).unwrap_or(usize::MAX),
                journal,
                ckpt_path,
                crash,
                wal_tail: 0,
                replayed: 0,
                checkpoint_age,
                fetch_failing: false,
                last_advance: None,
                new_values: Vec::new(),
            },
            None => RegionCore {
                state,
                stitcher: StreamStitcher::new(state, start, keep),
                detector: IncrementalDetector::new(state, start, detect),
                spikes: Vec::new(),
                next_frame: 0,
                journal,
                ckpt_path,
                crash,
                wal_tail: 0,
                replayed: 0,
                checkpoint_age: None,
                fetch_failing: false,
                last_advance: None,
                new_values: Vec::new(),
            },
        };

        // Replay the un-checkpointed tail through the same apply path as
        // live ingest. Records the checkpoint already subsumes (a crash
        // between checkpoint install and journal truncation) are skipped
        // by index.
        for payload in &recovery.records {
            // Its CRC checks, so an undecodable record is no torn write:
            // it comes from another format or program.
            let rec = serde_json::from_slice::<ServeRecord>(payload).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} holds an undecodable record: {e}",
                        core.journal.path().display()
                    ),
                )
            })?;
            let idx = usize::try_from(rec.idx).unwrap_or(usize::MAX);
            if idx != core.next_frame {
                continue; // already in the checkpoint
            }
            core.wal_tail += 1;
            core.replayed += 1;
            if let Err(e) = core.apply(&rec.resp) {
                return Err(io::Error::new(io::ErrorKind::InvalidData, e));
            }
        }
        if core.replayed > 0 {
            sift_obs::counter(
                "sift_serve_frames_replayed_total",
                &[("region", state.abbrev())],
            )
            .add(core.replayed);
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
    /// A frame the stitcher would refuse is refused before the journal
    /// sees it: replay applies every record, so a journaled frame that
    /// cannot apply would fail every later `open`.
    pub(crate) fn ingest(
        &mut self,
        idx: usize,
        resp: &FrameResponse,
        checkpoint_every: u64,
    ) -> io::Result<usize> {
        self.stitcher
            .check(resp)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let record = ServeRecord {
            idx: u64::try_from(idx).unwrap_or(u64::MAX),
            resp: resp.clone(),
        };
        let json = serde_json::to_string(&record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.journal.append(json.as_bytes())?;
        self.wal_tail += 1;

        let sealed = self
            .apply(resp)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;

        if self.wal_tail >= checkpoint_every {
            // A failed checkpoint is degradation, not death: the WAL tail
            // keeps every accepted frame, reads keep flowing, and the
            // growing tail surfaces as `WalBacklog`.
            if self.checkpoint().is_err() {
                sift_obs::counter("sift_serve_checkpoint_failures_total", &[]).inc();
            }
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
    fn checkpoint(&mut self) -> io::Result<()> {
        let ckpt = RegionCheckpoint {
            next_frame: u64::try_from(self.next_frame).unwrap_or(u64::MAX),
            stitcher: self.stitcher.snapshot(),
            detector: self.detector.snapshot(),
            spikes: self.spikes.clone(),
        };
        let json = serde_json::to_string(&ckpt)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.journal.sync()?;
        write_checkpoint(&self.ckpt_path, json.as_bytes(), self.crash.as_deref())?;
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
        max_wal_backlog: u64,
    ) -> Option<DegradeReason> {
        if fetchable_until - self.watermark() > lag_budget_hours {
            return Some(DegradeReason::MissingFrames);
        }
        if self.wal_tail > max_wal_backlog {
            return Some(DegradeReason::WalBacklog);
        }
        if i64::try_from(self.open_hours()).unwrap_or(i64::MAX) > lag_budget_hours {
            return Some(DegradeReason::DetectorLagging);
        }
        None
    }
}

fn decode_checkpoint(bytes: &[u8]) -> io::Result<RegionCheckpoint> {
    let json =
        std::str::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    serde_json::from_str(json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_journal::testutil::scratch_dir;
    use sift_trends::SearchTerm;

    /// `value` encodes to the `Value` tree's bytes, and its document
    /// decodes as the tree decodes it.
    fn assert_one_codec<T: Serialize + serde::de::DeserializeOwned>(value: &T) {
        let direct = serde_json::to_string(value).expect("encode");
        let tree = serde_json::to_value(value).expect("tree");
        assert_eq!(direct, serde_json::to_string(&tree).expect("encode"));
        let back: T = serde_json::from_str(&direct).expect("decode");
        let oracle: T = serde_json::from_value(tree).expect("decode");
        assert_eq!(
            serde_json::to_string(&back).expect("encode"),
            serde_json::to_string(&oracle).expect("encode")
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        /// The WAL record and the checkpoint, mid-series.
        #[test]
        fn wal_record_and_checkpoint_take_one_codec(seed in proptest::arbitrary::any::<u64>()) {
            let rng = &mut proptest::test_runner::TestRng::new(seed);
            let resp = FrameResponse {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::TX,
                start: Hour(0),
                values: (0..168).map(|_| rng.below(101) as u8).collect(),
            };
            let mut stitcher = StreamStitcher::new(State::TX, Hour(0), 84);
            let mut detector =
                IncrementalDetector::new(State::TX, Hour(0), DetectParams::default());
            let (mut fresh, mut spikes) = (Vec::new(), Vec::new());
            stitcher.append(&resp, &mut fresh).expect("first frame");
            detector.append(&fresh, &mut spikes);
            assert_one_codec(&ServeRecord {
                idx: rng.next_u64(),
                resp,
            });
            assert_one_codec(&RegionCheckpoint {
                next_frame: rng.next_u64(),
                stitcher: stitcher.snapshot(),
                detector: detector.snapshot(),
                spikes,
            });
        }
    }

    #[test]
    fn wal_record_matches_the_previous_codec() {
        let record = ServeRecord {
            idx: 17,
            resp: FrameResponse {
                term: SearchTerm::parse("topic:Internet outage"),
                state: State::VT,
                start: Hour(-168),
                values: vec![100, 0, 3],
            },
        };
        let doc = r#"{"idx":17,"resp":{"term":{"Topic":"InternetOutage"},"state":"VT","start":-168,"values":[100,0,3]}}"#;
        assert_eq!(serde_json::to_string(&record).expect("encode"), doc);
        let back: ServeRecord = serde_json::from_str(doc).expect("decode");
        assert_eq!((back.idx, back.resp), (record.idx, record.resp));
    }

    fn open_in(dir: &Path, state: State, start: Hour) -> io::Result<RegionCore> {
        RegionCore::open(
            dir,
            state,
            start,
            PlanParams::default(),
            DetectParams::default(),
            None,
        )
    }

    fn fresh_core(tag: &str) -> RegionCore {
        open_in(
            &scratch_dir(&format!("serve_region_{tag}")),
            State::TX,
            Hour(0),
        )
        .expect("open region")
    }

    fn flat_frame(value: u8) -> FrameResponse {
        FrameResponse {
            term: SearchTerm::parse("topic:Internet outage"),
            state: State::TX,
            start: Hour(0),
            values: vec![value; 168],
        }
    }

    /// The lattice reports the most severe condition first: missing
    /// frames outrank a WAL backlog, which outranks a lagging detector.
    #[test]
    fn degrade_lattice_orders_by_severity() {
        let mut core = fresh_core("lattice");

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

    /// A WAL record whose CRC checks but whose payload does not decode
    /// is refused at open, not skipped.
    #[test]
    fn undecodable_wal_record_is_refused_at_open() {
        let dir = scratch_dir("serve_region_undecodable");
        open_in(&dir, State::TX, Hour(0)).expect("open region");
        let (mut wal, _) = Journal::open(&dir.join("region.wal")).expect("wal");
        wal.append(b"not a serve record").expect("append");
        drop(wal);
        match open_in(&dir, State::TX, Hour(0)) {
            Ok(_) => panic!("an undecodable WAL record was skipped"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
        }
    }

    /// A frame the stitcher refuses never reaches the WAL: the region is
    /// unchanged, reopens cleanly, and then takes the right frame.
    #[test]
    fn rejected_frame_is_not_journaled() {
        let dir = scratch_dir("serve_region_rejected");
        let foreign = FrameResponse {
            state: State::CA,
            ..flat_frame(10)
        };
        {
            let mut core = open_in(&dir, State::TX, Hour(0)).expect("open region");
            let err = core.ingest(0, &foreign, 1_000).expect_err("CA into TX");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert_eq!(core.wal_tail, 0);
            assert_eq!(core.watermark(), Hour(0));
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
        let mut core = fresh_core("watermark");
        let epoch = Instant::now() - std::time::Duration::from_millis(50);
        assert_eq!(core.watermark(), Hour(0));
        assert!(core.staleness_ms(epoch) >= 50);

        core.ingest(0, &flat_frame(10), 1_000).expect("ingest");
        assert_eq!(core.watermark(), Hour(168));
        assert!(core.staleness_ms(epoch) < 50);
    }
}
