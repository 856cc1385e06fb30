//! The unified response database.

use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_simtime::Hour;
use sift_trends::{FrameResponse, RisingResponse};
use std::collections::HashMap;

/// Key of one fetched frame: region, frame start, sample tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct FrameKey {
    /// Region the frame was fetched for.
    pub state: State,
    /// First hour of the frame.
    pub start: Hour,
    /// Sample tag (re-fetch round).
    pub tag: u64,
}

/// Key of one rising-suggestions response.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct RisingKey {
    /// Region the suggestions were fetched for.
    pub state: State,
    /// First hour of the frame.
    pub start: Hour,
    /// Frame length in hours (weekly crawl vs daily drill-down).
    pub len: u32,
}

/// What [`ResponseStore::merge`] absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Frame entries that were new to the receiving store.
    pub frames_added: usize,
    /// Rising entries that were new to the receiving store.
    pub rising_added: usize,
    /// Keys present on both sides with different payloads (newcomer won).
    pub conflicts: usize,
}

/// The merged database of everything the fetcher units gathered.
///
/// Responses arrive from many units in arbitrary order; the store is the
/// single place they are merged, deduplicated and later read back by the
/// processing pipeline. Persistable to JSON.
#[derive(Clone, Debug, Default)]
pub struct ResponseStore {
    frames: HashMap<FrameKey, FrameResponse>,
    rising: HashMap<RisingKey, RisingResponse>,
}

/// Serialized form (JSON maps need string keys, so entries are listed).
#[derive(Serialize, Deserialize)]
struct StoreDoc {
    frames: Vec<(FrameKey, FrameResponse)>,
    rising: Vec<(RisingKey, RisingResponse)>,
}

impl ResponseStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a frame response.
    pub fn insert_frame(&mut self, tag: u64, resp: FrameResponse) {
        let key = FrameKey {
            state: resp.state,
            start: resp.start,
            tag,
        };
        self.frames.insert(key, resp);
    }

    /// Inserts (or replaces) a rising response.
    pub fn insert_rising(&mut self, len: u32, resp: RisingResponse) {
        let key = RisingKey {
            state: resp.state,
            start: resp.start,
            len,
        };
        self.rising.insert(key, resp);
    }

    /// All frames of one region and tag, sorted by frame start — the
    /// input the stitching pipeline consumes.
    pub fn frames_for(&self, state: State, tag: u64) -> Vec<&FrameResponse> {
        let mut out: Vec<&FrameResponse> = self
            .frames
            .iter()
            .filter(|(k, _)| k.state == state && k.tag == tag)
            .map(|(_, v)| v)
            .collect();
        out.sort_by_key(|f| f.start);
        out
    }

    /// All rising responses for a region, sorted by frame start.
    pub fn rising_for(&self, state: State) -> Vec<(&RisingKey, &RisingResponse)> {
        let mut out: Vec<(&RisingKey, &RisingResponse)> = self
            .rising
            .iter()
            .filter(|(k, _)| k.state == state)
            .collect();
        out.sort_by_key(|(k, _)| (k.start, k.len));
        out
    }

    /// Of `planned` frame starts for one region and tag, the ones the
    /// store does *not* hold — the re-plan input after a lossy run.
    pub fn missing_frames(&self, state: State, tag: u64, planned: &[Hour]) -> Vec<Hour> {
        planned
            .iter()
            .copied()
            .filter(|&start| !self.frames.contains_key(&FrameKey { state, start, tag }))
            .collect()
    }

    /// Number of stored frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Number of stored rising responses.
    pub fn rising_count(&self) -> usize {
        self.rising.len()
    }

    /// Absorbs another store (other's entries win on key collisions) and
    /// reports what happened. A *conflict* is a key present on both sides
    /// with **different** payloads — for deterministic same-seed crawls
    /// the expected conflict count is zero, so conflicts are counted in
    /// `sift_store_merge_conflicts_total` and surfaced as a debug event
    /// instead of being silently last-writer-wins.
    pub fn merge(&mut self, other: ResponseStore) -> MergeReport {
        let mut report = MergeReport::default();
        for (key, value) in other.frames {
            match self.frames.insert(key, value) {
                None => report.frames_added += 1,
                Some(prev) => {
                    if prev != self.frames[&key] {
                        report.conflicts += 1;
                        sift_obs::counter("sift_store_merge_conflicts_total", &[("kind", "frame")])
                            .inc();
                        sift_obs::event(
                            sift_obs::Level::Debug,
                            "fetcher.store",
                            "merge overwrote a frame with different data",
                            &[
                                (
                                    "state",
                                    serde_json::Value::Str(key.state.abbrev().to_owned()),
                                ),
                                ("start", serde_json::Value::Int(key.start.0)),
                                ("tag", serde_json::Value::UInt(key.tag)),
                            ],
                        );
                    }
                }
            }
        }
        for (key, value) in other.rising {
            match self.rising.insert(key, value) {
                None => report.rising_added += 1,
                Some(prev) => {
                    if prev != self.rising[&key] {
                        report.conflicts += 1;
                        sift_obs::counter(
                            "sift_store_merge_conflicts_total",
                            &[("kind", "rising")],
                        )
                        .inc();
                        sift_obs::event(
                            sift_obs::Level::Debug,
                            "fetcher.store",
                            "merge overwrote a rising response with different data",
                            &[
                                (
                                    "state",
                                    serde_json::Value::Str(key.state.abbrev().to_owned()),
                                ),
                                ("start", serde_json::Value::Int(key.start.0)),
                                ("len", serde_json::Value::UInt(u64::from(key.len))),
                            ],
                        );
                    }
                }
            }
        }
        report
    }

    /// Serializes the store to a JSON document.
    pub fn to_json(&self) -> serde_json::Result<String> {
        let mut frames: Vec<_> = self.frames.iter().map(|(k, v)| (*k, v.clone())).collect();
        frames.sort_by_key(|(k, _)| (k.state.index(), k.start, k.tag));
        let mut rising: Vec<_> = self.rising.iter().map(|(k, v)| (*k, v.clone())).collect();
        rising.sort_by_key(|(k, _)| (k.state.index(), k.start, k.len));
        serde_json::to_string(&StoreDoc { frames, rising })
    }

    /// Restores a store from [`ResponseStore::to_json`] output.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        let doc: StoreDoc = serde_json::from_str(json)?;
        Ok(ResponseStore {
            frames: doc.frames.into_iter().collect(),
            rising: doc.rising.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_trends::api::RisingTerm;
    use sift_trends::SearchTerm;

    fn frame(state: State, start: i64) -> FrameResponse {
        FrameResponse {
            term: SearchTerm::parse("topic:Internet outage"),
            state,
            start: Hour(start),
            values: vec![0, 50, 100],
        }
    }

    #[test]
    fn frames_sorted_and_filtered() {
        let mut s = ResponseStore::new();
        s.insert_frame(0, frame(State::TX, 200));
        s.insert_frame(0, frame(State::TX, 100));
        s.insert_frame(1, frame(State::TX, 150));
        s.insert_frame(0, frame(State::CA, 100));
        let frames = s.frames_for(State::TX, 0);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].start, Hour(100));
        assert_eq!(frames[1].start, Hour(200));
        assert_eq!(s.frame_count(), 4);
    }

    #[test]
    fn reinsert_replaces() {
        let mut s = ResponseStore::new();
        s.insert_frame(0, frame(State::TX, 100));
        let mut f2 = frame(State::TX, 100);
        f2.values = vec![1, 2, 3];
        s.insert_frame(0, f2);
        assert_eq!(s.frame_count(), 1);
        assert_eq!(s.frames_for(State::TX, 0)[0].values, vec![1, 2, 3]);
    }

    #[test]
    fn json_round_trip() {
        let mut s = ResponseStore::new();
        s.insert_frame(0, frame(State::TX, 100));
        s.insert_rising(
            168,
            RisingResponse {
                state: State::TX,
                start: Hour(100),
                rising: vec![RisingTerm {
                    term: "power outage".into(),
                    weight: 242,
                }],
            },
        );
        let json = s.to_json().expect("encode");
        let back = ResponseStore::from_json(&json).expect("decode");
        assert_eq!(back.frame_count(), 1);
        assert_eq!(back.rising_count(), 1);
        assert_eq!(back.frames_for(State::TX, 0)[0].values, vec![0, 50, 100]);
        assert_eq!(back.rising_for(State::TX)[0].1.rising[0].weight, 242);
    }

    #[test]
    fn missing_frames_lists_only_absent_starts() {
        let mut s = ResponseStore::new();
        s.insert_frame(0, frame(State::TX, 100));
        s.insert_frame(1, frame(State::TX, 200));
        let planned = [Hour(100), Hour(200), Hour(300)];
        // Tag 0 holds only start 100; tag 1's entry does not count.
        assert_eq!(
            s.missing_frames(State::TX, 0, &planned),
            vec![Hour(200), Hour(300)]
        );
        assert_eq!(s.missing_frames(State::CA, 0, &planned), planned.to_vec());
    }

    #[test]
    fn merge_prefers_newcomer_and_counts_the_conflict() {
        let mut a = ResponseStore::new();
        a.insert_frame(0, frame(State::TX, 100));
        let mut b = ResponseStore::new();
        let mut f = frame(State::TX, 100);
        f.values = vec![9];
        b.insert_frame(0, f);
        let report = a.merge(b);
        assert_eq!(a.frame_count(), 1);
        assert_eq!(a.frames_for(State::TX, 0)[0].values, vec![9]);
        assert_eq!(
            report,
            MergeReport {
                frames_added: 0,
                rising_added: 0,
                conflicts: 1,
            }
        );
    }

    #[test]
    fn merge_of_identical_duplicates_is_not_a_conflict() {
        let mut a = ResponseStore::new();
        a.insert_frame(0, frame(State::TX, 100));
        let mut b = ResponseStore::new();
        b.insert_frame(0, frame(State::TX, 100)); // byte-identical twin
        b.insert_frame(0, frame(State::TX, 200)); // genuinely new
        b.insert_rising(
            168,
            RisingResponse {
                state: State::TX,
                start: Hour(100),
                rising: vec![],
            },
        );
        let report = a.merge(b);
        assert_eq!(
            report,
            MergeReport {
                frames_added: 1,
                rising_added: 1,
                conflicts: 0,
            }
        );
        assert_eq!(a.frame_count(), 2);
    }
}
