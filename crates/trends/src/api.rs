//! Wire types of the trends-service API.
//!
//! These are the request/response documents exchanged over HTTP between
//! the SIFT fetcher and the service (JSON-encoded by `sift-net`). They are
//! deliberately plain data: everything a client learns from the service
//! goes through these types, which is what makes the service boundary —
//! and everything SIFT must infer — explicit.

use crate::terms::SearchTerm;
use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_simtime::{Hour, HourRange};

/// A request for one indexed time frame.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct FrameRequest {
    /// The search term to index.
    pub term: SearchTerm,
    /// The geographical scope.
    pub state: State,
    /// First hour of the frame (inclusive).
    pub start: Hour,
    /// Frame length in hourly blocks; at most 168 (one week).
    pub len: u32,
    /// Sample tag. Requests with the same coordinates and tag see the same
    /// random sample; distinct tags draw independent samples. The fetcher
    /// uses the re-fetch round number.
    pub tag: u64,
}

impl FrameRequest {
    /// The requested hour range.
    pub fn range(&self) -> HourRange {
        HourRange::with_len(self.start, i64::from(self.len))
    }
}

/// One indexed time frame.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct FrameResponse {
    /// Echo of the request coordinates.
    pub term: SearchTerm,
    /// Echo of the request coordinates.
    pub state: State,
    /// Echo of the request coordinates.
    pub start: Hour,
    /// The indexed data points, one per hourly block, each in `0..=100`
    /// and scaled to the frame's own maximum.
    pub values: Vec<u8>,
}

/// A request for the rising suggestions of a time frame.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct RisingRequest {
    /// The input term suggestions are computed around.
    pub term: SearchTerm,
    /// The geographical scope.
    pub state: State,
    /// First hour of the frame (inclusive).
    pub start: Hour,
    /// Frame length in hourly blocks; at most 168. SIFT requests weekly
    /// frames during collection and daily frames when drilling into spike
    /// days.
    pub len: u32,
    /// Sample tag, as in [`FrameRequest::tag`].
    pub tag: u64,
}

impl RisingRequest {
    /// The requested hour range.
    pub fn range(&self) -> HourRange {
        HourRange::with_len(self.start, i64::from(self.len))
    }
}

/// One rising search suggestion.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RisingTerm {
    /// The suggested raw query.
    pub term: String,
    /// The service's weight: proportional to the term's percent increase
    /// in search interest over the frame.
    pub weight: u32,
}

/// The rising suggestions of a frame, heaviest first.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RisingResponse {
    /// Echo of the request coordinates.
    pub state: State,
    /// Echo of the request coordinates.
    pub start: Hour,
    /// Suggestions, sorted by descending weight.
    pub rising: Vec<RisingTerm>,
}

/// Service-side request counters, exposed for the paper's
/// "160 238 time frames requested" style accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Number of frame requests served.
    pub frames_served: u64,
    /// Number of rising-suggestion requests served.
    pub rising_served: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::Topic;

    #[test]
    fn json_round_trip() {
        let req = FrameRequest {
            term: SearchTerm::Topic(Topic::InternetOutage),
            state: State::TX,
            start: Hour(9874),
            len: 168,
            tag: 3,
        };
        let json = serde_json::to_string(&req).expect("serialize");
        let back: FrameRequest = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(req, back);

        let resp = RisingResponse {
            state: State::CA,
            start: Hour(0),
            rising: vec![RisingTerm {
                term: "spectrum internet outage".into(),
                weight: 100,
            }],
        };
        let json = serde_json::to_string(&resp).expect("serialize");
        let back: RisingResponse = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(resp, back);
    }

    /// `value` encodes to `doc`, the document the `Value`-tree codec wrote
    /// before the direct one replaced it, and `doc` decodes back to it.
    #[track_caller]
    fn assert_pinned<T>(value: &T, doc: &str)
    where
        T: Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
    {
        assert_eq!(serde_json::to_string(value).expect("encode"), doc);
        assert_eq!(&serde_json::from_str::<T>(doc).expect("decode"), value);
    }

    #[test]
    fn wire_documents_match_the_previous_codec() {
        let req = FrameRequest {
            term: SearchTerm::Query("panne \"internet\"\tÉtat ☃".into()),
            state: State::TX,
            start: Hour(-3),
            len: 168,
            tag: u64::MAX,
        };
        assert_pinned(
            &req,
            r#"{"term":{"Query":"panne \"internet\"\tÉtat ☃"},"state":"TX","start":-3,"len":168,"tag":18446744073709551615}"#,
        );
        let resp = RisingResponse {
            state: State::NY,
            start: Hour(9874),
            rising: vec![
                RisingTerm {
                    term: "spectrum internet outage".into(),
                    weight: 100,
                },
                RisingTerm {
                    term: "line\nbreak \u{1}".into(),
                    weight: 0,
                },
            ],
        };
        assert_pinned(
            &resp,
            r#"{"state":"NY","start":9874,"rising":[{"term":"spectrum internet outage","weight":100},{"term":"line\nbreak \u0001","weight":0}]}"#,
        );
    }

    #[test]
    fn range_matches_len() {
        let req = FrameRequest {
            term: SearchTerm::Query("internet down".into()),
            state: State::NY,
            start: Hour(100),
            len: 24,
            tag: 0,
        };
        assert_eq!(req.range().len(), 24);
        assert_eq!(req.range().start, Hour(100));
    }
}
