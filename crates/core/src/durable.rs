//! Study-level durability: per-region write-ahead journals.
//!
//! A study crawls each region through the re-fetch averaging loop and a
//! rising-suggestions pass — days of HTTP traffic at paper scale. This
//! module makes that pipeline resumable: every fetched response is
//! journaled before it is used, and each completed re-fetch round is
//! sealed with a synced `RoundDone` record. A study killed in round *k*
//! resumes at round *k* with rounds `< k` intact, re-fetching at most
//! the one response that was in flight when the process died.
//!
//! There is no checkpoint: what a resume needs is every response the
//! region ever received, so a snapshot of that state would be the
//! journal again, rewritten at every round boundary.
//!
//! Replay is exact by construction: the re-fetch loop consumes recovered
//! responses through the same code path as live fetches, and the
//! simulated trends service is deterministic in the request coordinates,
//! so a crashed-and-resumed study converges to the same `StudyResult` as
//! an uninterrupted run of the same seed (proven in `tests/resume_http.rs`).
//!
//! Layout: `<dir>/<STATE>/region.wal`, one durability domain per region
//! so the parallel region workers never contend on a file. The first
//! record names the study (term, region, frame plan); a journal that
//! names another study is refused at open, because its `(round, idx)`
//! slots hold the answers to different requests.

use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_journal::Journal;
use sift_simtime::HourRange;
use sift_trends::{FrameResponse, RisingResponse, SearchTerm};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Durability configuration for `run_study_durable`: where the journals
/// live.
#[derive(Clone)]
pub struct StudyDurability {
    dir: PathBuf,
}

impl StudyDurability {
    /// Durability rooted at `dir` (created on first use).
    pub fn new(dir: impl Into<PathBuf>) -> StudyDurability {
        StudyDurability { dir: dir.into() }
    }

    /// The durability root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens (recovering) the journal of one region of the study that
    /// tracks `term` over the frame plan `frames`. Fails with
    /// `InvalidData` when the directory holds another study's journal, or
    /// a whole record that does not decode.
    pub fn region(
        &self,
        term: &SearchTerm,
        state: State,
        frames: &[HourRange],
    ) -> io::Result<RegionJournal> {
        let study = RegionRecord::Study {
            term: term.clone(),
            state,
            frames: frames.to_vec(),
        };
        RegionJournal::open(&self.dir.join(state.abbrev()), &study)
    }
}

/// One journaled response or round boundary.
#[derive(Serialize, Deserialize)]
enum RegionRecord {
    /// The first record of every journal: the study it belongs to. Frame
    /// slots are keyed by `(round, idx)`, so they mean something only
    /// under the frame plan `idx` indexes.
    Study {
        /// The tracked search term.
        term: SearchTerm,
        /// The region.
        state: State,
        /// The frame plan, in slot order.
        frames: Vec<HourRange>,
    },
    /// A frame slot filled in the re-fetch loop (fetched or degraded).
    Frame {
        /// Re-fetch round (0-based).
        round: u32,
        /// Frame index within the round's plan.
        idx: u32,
        /// The response that filled the slot.
        resp: FrameResponse,
    },
    /// A re-fetch round completed (every slot filled, timeline folded).
    RoundDone {
        /// The completed round (0-based).
        round: u32,
    },
    /// A rising-suggestions response (weekly crawl or daily drill-down).
    Rising {
        /// First hour of the requested frame.
        start: i64,
        /// Frame length in hours.
        len: u32,
        /// The response.
        resp: RisingResponse,
    },
}

/// The durability domain of one region: a write-ahead journal of
/// responses and round boundaries. The re-fetch loop asks it for
/// recovered responses before fetching, and hands it every fresh
/// response before using it.
pub struct RegionJournal {
    journal: Journal,
    frames: HashMap<(u32, u32), FrameResponse>,
    rising: HashMap<(i64, u32), RisingResponse>,
    rounds_done: u32,
    resumed_from_round: u32,
    replayed: u64,
}

impl RegionJournal {
    fn open(dir: &Path, study: &RegionRecord) -> io::Result<RegionJournal> {
        let (journal, recovery) = Journal::open(&dir.join("region.wal"))?;
        let mut region = RegionJournal {
            journal,
            frames: HashMap::new(),
            rising: HashMap::new(),
            rounds_done: 0,
            resumed_from_round: 0,
            replayed: 0,
        };
        let mut records = recovery.records.iter();
        match records.next() {
            // A fresh journal (or one torn inside its first record): name
            // the study. No sync of its own — it rides the batched one.
            None => region.append(study)?,
            Some(first) if first.as_slice() == encode(study)?.as_bytes() => {}
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} is the journal of another study (term, region or frame plan differ)",
                        region.journal.path().display()
                    ),
                ));
            }
        }
        for payload in records {
            match serde_json::from_slice::<RegionRecord>(payload).ok() {
                Some(RegionRecord::Frame { round, idx, resp }) => {
                    region.frames.insert((round, idx), resp);
                }
                Some(RegionRecord::RoundDone { round }) => {
                    region.rounds_done = region.rounds_done.max(round + 1);
                }
                Some(RegionRecord::Rising { start, len, resp }) => {
                    region.rising.insert((start, len), resp);
                }
                // Its CRC checks, so it is no torn write: it comes from
                // another format or program, like a foreign study record.
                Some(RegionRecord::Study { .. }) | None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{} holds a record that is not a response or round boundary",
                            region.journal.path().display()
                        ),
                    ));
                }
            }
        }
        region.resumed_from_round = region.rounds_done;
        Ok(region)
    }

    /// The round the region resumes at: the first one not sealed by a
    /// journaled `RoundDone`. Zero on a fresh directory.
    pub fn resumed_from_round(&self) -> u32 {
        self.resumed_from_round
    }

    /// Responses served from the journal instead of the network so far.
    pub fn frames_replayed(&self) -> u64 {
        self.replayed
    }

    /// The recovered response for a frame slot, if the journal holds one —
    /// a hit means this fetch already happened in a previous life and
    /// must not be repeated.
    pub fn replayed_frame(&mut self, round: u32, idx: u32) -> Option<FrameResponse> {
        let hit = self.frames.get(&(round, idx)).cloned();
        if hit.is_some() {
            self.replayed += 1;
        }
        hit
    }

    /// Journals a freshly filled frame slot (write-ahead: call before the
    /// response is folded into any result).
    pub fn record_frame(&mut self, round: u32, idx: u32, resp: &FrameResponse) -> io::Result<()> {
        self.append(&RegionRecord::Frame {
            round,
            idx,
            resp: resp.clone(),
        })?;
        self.frames.insert((round, idx), resp.clone());
        Ok(())
    }

    /// Seals a completed round: journals the boundary and syncs, so the
    /// round survives power loss as well as process death.
    pub fn round_done(&mut self, round: u32) -> io::Result<()> {
        if round < self.rounds_done {
            return Ok(()); // replayed round: already sealed in a previous life
        }
        self.append(&RegionRecord::RoundDone { round })?;
        self.rounds_done = round + 1;
        self.journal.sync()
    }

    /// The recovered rising response for a frame, if the journal holds one.
    pub fn replayed_rising(&mut self, start: i64, len: u32) -> Option<RisingResponse> {
        self.rising.get(&(start, len)).cloned()
    }

    /// Journals a freshly fetched rising response.
    pub fn record_rising(&mut self, start: i64, len: u32, resp: &RisingResponse) -> io::Result<()> {
        self.append(&RegionRecord::Rising {
            start,
            len,
            resp: resp.clone(),
        })?;
        self.rising.insert((start, len), resp.clone());
        Ok(())
    }

    /// Seals the region: syncs everything journaled. Called when the
    /// region's pipeline completes, so a resume of a finished study
    /// replays without re-fetching anything.
    pub fn finish(&mut self) -> io::Result<()> {
        self.journal.sync()
    }

    fn append(&mut self, record: &RegionRecord) -> io::Result<()> {
        self.journal.append(encode(record)?.as_bytes())
    }
}

fn encode(record: &RegionRecord) -> io::Result<String> {
    serde_json::to_string(record).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_journal::testutil::{scratch_dir, wal_cuts};
    use sift_simtime::Hour;
    use sift_trends::RisingTerm;

    fn term() -> SearchTerm {
        SearchTerm::parse("topic:Internet outage")
    }

    fn frame(start: i64, values: Vec<u8>) -> FrameResponse {
        FrameResponse {
            term: term(),
            state: State::TX,
            start: Hour(start),
            values,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(128))]

        /// Every record encodes to the `Value` tree's bytes, and its
        /// document decodes as the tree decodes it.
        #[test]
        fn records_take_one_codec(seed in proptest::arbitrary::any::<u64>()) {
            let rng = &mut proptest::test_runner::TestRng::new(seed);
            let text = |rng: &mut proptest::test_runner::TestRng| -> String {
                (0..rng.below(4)).map(|_| ["a", "\"", "\\", "\n", "é"][rng.below(5) as usize]).collect()
            };
            let state = State::from_index(rng.below(51) as usize);
            let start = rng.next_u64() as i64 >> rng.below(64);
            let record = match rng.below(4) {
                0 => RegionRecord::Study {
                    term: SearchTerm::Query(text(rng)),
                    state,
                    frames: plan(start >> 1).to_vec(),
                },
                1 => RegionRecord::Frame {
                    round: rng.next_u32(),
                    idx: rng.next_u32(),
                    resp: frame(start, (0..rng.below(169)).map(|_| rng.below(256) as u8).collect()),
                },
                2 => RegionRecord::RoundDone { round: rng.next_u32() },
                _ => RegionRecord::Rising {
                    start,
                    len: rng.next_u32(),
                    resp: RisingResponse {
                        state,
                        start: Hour(start),
                        rising: (0..rng.below(3))
                            .map(|_| RisingTerm { term: text(rng), weight: rng.next_u32() })
                            .collect(),
                    },
                },
            };
            let direct = encode(&record).expect("encode");
            let tree = serde_json::to_value(&record).expect("tree");
            proptest::prop_assert_eq!(&direct, &serde_json::to_string(&tree).expect("encode"));
            let back: RegionRecord = serde_json::from_str(&direct).expect("decode");
            let oracle: RegionRecord = serde_json::from_value(tree).expect("decode");
            proptest::prop_assert_eq!(encode(&back).expect("encode"), encode(&oracle).expect("encode"));
        }
    }

    #[test]
    fn records_match_the_previous_codec() {
        let records = [
            (
                RegionRecord::Study {
                    term: SearchTerm::Query("é\"\u{1f}".into()),
                    state: State::TX,
                    frames: plan(-84).to_vec(),
                },
                r#"{"Study":{"term":{"Query":"é\"\u001f"},"state":"TX","frames":[{"start":-84,"end":84},{"start":0,"end":168}]}}"#,
            ),
            (
                RegionRecord::Frame {
                    round: 2,
                    idx: 1,
                    resp: frame(84, vec![0, 100, 42]),
                },
                r#"{"Frame":{"round":2,"idx":1,"resp":{"term":{"Topic":"InternetOutage"},"state":"TX","start":84,"values":[0,100,42]}}}"#,
            ),
            (
                RegionRecord::RoundDone { round: 2 },
                r#"{"RoundDone":{"round":2}}"#,
            ),
            (
                RegionRecord::Rising {
                    start: -24,
                    len: 24,
                    resp: RisingResponse {
                        state: State::TX,
                        start: Hour(-24),
                        rising: vec![RisingTerm {
                            term: "power outage near me".into(),
                            weight: 100,
                        }],
                    },
                },
                r#"{"Rising":{"start":-24,"len":24,"resp":{"state":"TX","start":-24,"rising":[{"term":"power outage near me","weight":100}]}}}"#,
            ),
        ];
        for (record, doc) in &records {
            assert_eq!(encode(record).expect("encode"), *doc);
            let back: RegionRecord = serde_json::from_str(doc).expect("decode");
            assert_eq!(encode(&back).expect("re-encode"), *doc);
        }
    }

    /// A two-slot frame plan starting at `start`.
    fn plan(start: i64) -> [HourRange; 2] {
        [
            HourRange::with_len(Hour(start), 168),
            HourRange::with_len(Hour(start + 84), 168),
        ]
    }

    fn open(durability: &StudyDurability) -> RegionJournal {
        durability
            .region(&term(), State::TX, &plan(0))
            .expect("open")
    }

    #[test]
    fn rounds_and_rising_survive_reopen() {
        let dir = scratch_dir("region_journal");
        let durability = StudyDurability::new(&dir);
        {
            let mut j = open(&durability);
            assert_eq!(j.resumed_from_round(), 0);
            j.record_frame(0, 0, &frame(0, vec![1])).expect("record");
            j.record_frame(0, 1, &frame(84, vec![2])).expect("record");
            j.round_done(0).expect("seal round");
            j.record_frame(1, 0, &frame(0, vec![3])).expect("record");
            // No RoundDone for round 1: the process "dies" here.
        }
        let mut j = open(&durability);
        assert_eq!(j.resumed_from_round(), 1, "round 0 sealed, round 1 open");
        assert_eq!(j.replayed_frame(0, 0).expect("slot").values, vec![1]);
        assert_eq!(
            j.replayed_frame(1, 0).expect("partial round slot").values,
            vec![3],
            "journaled frames of the open round must not be re-fetched"
        );
        assert_eq!(j.replayed_frame(1, 1), None);
        assert_eq!(j.frames_replayed(), 2);
    }

    /// Every crash state of a journal holding the study record, one
    /// frame and round 0's seal resumes where its whole records say: a
    /// landed seal resumes at round 1; a torn or missing one resumes at
    /// round 0 and recovers the journaled slot without the network. Run
    /// on, each writes the uninterrupted journal again, byte for byte.
    #[test]
    fn every_cut_of_a_sealed_round_resumes_where_its_records_say() {
        let dir = scratch_dir("region_sealed");
        {
            let mut j = open(&StudyDurability::new(&dir));
            j.record_frame(0, 0, &frame(0, vec![7])).expect("record");
            j.round_done(0).expect("seal round");
        }
        let wal = std::fs::read(dir.join("TX").join("region.wal")).expect("wal");
        let cuts = wal_cuts(&wal);
        assert_eq!(cuts.len(), 7, "study record, frame, seal");
        for cut in cuts {
            let dir = scratch_dir("region_sealed_cut");
            std::fs::create_dir_all(dir.join("TX")).expect("region dir");
            std::fs::write(dir.join("TX").join("region.wal"), &wal[..cut.len]).expect("cut");
            let mut j = open(&StudyDurability::new(&dir));
            assert_eq!(
                j.resumed_from_round(),
                u32::from(cut.records == 3),
                "{cut:?}"
            );
            let slot = j.replayed_frame(0, 0);
            assert_eq!(slot.is_some(), cut.records >= 2, "{cut:?}");
            if slot.is_none() {
                j.record_frame(0, 0, &frame(0, vec![7])).expect("record");
            }
            j.round_done(0).expect("seal again");
            drop(j);
            let resumed = std::fs::read(dir.join("TX").join("region.wal")).expect("wal");
            assert!(resumed == wal, "{cut:?}: the resumed journal differs");
        }
    }

    #[test]
    fn finish_makes_resume_a_pure_replay() {
        let dir = scratch_dir("region_finish");
        let durability = StudyDurability::new(&dir);
        {
            let mut j = open(&durability);
            j.record_frame(0, 0, &frame(0, vec![1])).expect("record");
            j.round_done(0).expect("seal");
            j.record_rising(
                0,
                168,
                &RisingResponse {
                    state: State::TX,
                    start: Hour(0),
                    rising: vec![],
                },
            )
            .expect("record rising");
            j.finish().expect("finish");
        }
        let mut j = open(&durability);
        assert!(j.replayed_rising(0, 168).is_some());
        assert!(j.replayed_frame(0, 0).is_some());
    }

    #[test]
    fn another_studys_journal_is_refused() {
        let dir = scratch_dir("region_foreign");
        let durability = StudyDurability::new(&dir);
        open(&durability)
            .record_frame(0, 0, &frame(0, vec![1]))
            .expect("record");
        // Same directory, same region, a plan shifted by three weeks:
        // slot (0, 0) would answer a request this study never makes.
        let other_plan = durability.region(&term(), State::TX, &plan(504));
        let err = other_plan.err().expect("foreign plan refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let other_term = SearchTerm::parse("internet down");
        assert!(durability.region(&other_term, State::TX, &plan(0)).is_err());
        // The study the journal belongs to still opens, data intact.
        assert!(open(&durability).replayed_frame(0, 0).is_some());
    }

    #[test]
    fn undecodable_record_is_refused_not_skipped() {
        let dir = scratch_dir("region_undecodable");
        let durability = StudyDurability::new(&dir);
        open(&durability)
            .record_frame(0, 0, &frame(0, vec![1]))
            .expect("record");
        let (mut wal, _) = Journal::open(&dir.join("TX").join("region.wal")).expect("wal");
        wal.append(b"not a region record").expect("append");
        drop(wal);
        let err = durability
            .region(&term(), State::TX, &plan(0))
            .err()
            .expect("a whole record that does not decode is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
