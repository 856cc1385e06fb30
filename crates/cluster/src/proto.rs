//! Wire types of the compact coordinator/worker job protocol.
//!
//! Four POST routes and one GET, all JSON over the `sift-net` stack:
//!
//! * `POST /cluster/join` — a worker announces itself; the reply carries
//!   the coordinator's trace root (the `X-Sift-Trace` value the worker
//!   reopens so the whole sharded run assembles into one trace tree).
//! * `POST /cluster/lease` — a worker asks for work; the reply is a shard
//!   job with a fencing epoch, a wait hint, or "done, go home".
//! * `POST /cluster/heartbeat` — lease renewal (or, with `releasing`, a
//!   voluntary handback). A `keep: false` reply means the lease was
//!   revoked: stop working on it and don't upload.
//! * `POST /cluster/result` — the shard's [`RegionOutcome`] upload,
//!   fenced by the lease epoch so a zombie's late upload is rejected.
//! * `GET /cluster/status` — progress counters for drivers and tests.
//!
//! Transport concerns — retries, trace propagation, identity headers,
//! deadlines — ride on the existing `sift-net` client/server machinery;
//! nothing here reimplements them.

use serde::{Deserialize, Serialize};
use sift_core::RegionOutcome;
use sift_geo::State;

/// `POST /cluster/join` body.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinRequest {
    /// The worker's identity (stable for its lifetime).
    pub worker: String,
}

/// `POST /cluster/join` reply.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinReply {
    /// Whether the worker was admitted to the run.
    pub accepted: bool,
    /// The coordinator's trace root in `X-Sift-Trace` header format, if
    /// the coordinator runs inside a trace.
    pub trace: Option<String>,
    /// Total shards in the run (progress denominator).
    pub shards: usize,
    /// The heartbeat cadence the coordinator expects, milliseconds. The
    /// death threshold is a configured multiple of this same number, so
    /// worker and coordinator can never disagree about the tolerance.
    pub heartbeat_ms: u64,
}

/// `POST /cluster/lease` body.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseRequest {
    /// The requesting worker.
    pub worker: String,
}

/// One leased shard: a region to crawl, fenced by `epoch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardJob {
    /// The region to run [`sift_core::run_region_study`] for.
    pub state: State,
    /// Lease fencing token: heartbeats and the result upload must echo
    /// it. A reroute issues a fresh epoch, invalidating the old holder.
    pub epoch: u64,
}

/// `POST /cluster/lease` reply.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseReply {
    /// A shard to work on.
    Job(ShardJob),
    /// Nothing assignable right now; poll again after `poll_ms`.
    Wait {
        /// Suggested delay before the next lease request, milliseconds.
        poll_ms: u64,
    },
    /// The run is complete (or aborted); the worker should exit.
    Done,
}

/// `POST /cluster/heartbeat` body.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatRequest {
    /// The renewing worker.
    pub worker: String,
    /// The leased shard.
    pub state: State,
    /// The lease epoch being renewed.
    pub epoch: u64,
    /// `true` hands the lease back voluntarily (graceful shutdown): the
    /// shard reroutes immediately instead of waiting for expiry.
    pub releasing: bool,
}

/// `POST /cluster/heartbeat` reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatReply {
    /// `false` means the lease is gone (expired, rerouted, or released):
    /// abandon the shard and do not upload its result.
    pub keep: bool,
}

/// `POST /cluster/result` body.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResultUpload {
    /// The uploading worker.
    pub worker: String,
    /// The lease epoch the shard was computed under.
    pub epoch: u64,
    /// The computed per-region outcome (identifies its region).
    pub outcome: RegionOutcome,
}

/// `POST /cluster/result` reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResultReply {
    /// `false` means the upload was fenced off (stale epoch) or unknown.
    pub accepted: bool,
}

/// `GET /cluster/status` reply.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusReply {
    /// Total shards in the run.
    pub total: usize,
    /// Shards with an accepted result.
    pub done: usize,
    /// Shards abandoned after the reroute budget was exhausted.
    pub failed: usize,
    /// Reroutes performed so far (any reason).
    pub rerouted: u64,
    /// The current fencing epoch (the next to be granted): strictly
    /// above every epoch ever issued, across coordinator restarts.
    pub epoch: u64,
    /// Completed coordinator recoveries feeding this run.
    pub recoveries: u64,
    /// Currently live leases as `(worker, region)`.
    pub leases: Vec<(String, State)>,
    /// Lease grants per shard, including re-grants after reroutes or a
    /// coordinator restart — the audit trail for "re-crawled at most the
    /// in-flight shards".
    pub shard_attempts: Vec<(State, u32)>,
    /// Regions with an accepted result, in shard order.
    pub done_states: Vec<State>,
    /// Every worker that ever joined, in join order.
    pub workers: Vec<String>,
    /// Workers flagged dead (missed heartbeats).
    pub dead: Vec<String>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sift_core::{Spike, Timeline};
    use sift_simtime::Hour;
    use sift_trends::RisingTerm;

    /// `value` encodes to `doc`, the document the `Value`-tree codec wrote
    /// before the direct one replaced it, and `doc` decodes back to it
    /// (compared through `Debug` where the type has no `PartialEq`).
    #[track_caller]
    pub(crate) fn assert_pinned<T>(value: &T, doc: &str)
    where
        T: Serialize + serde::de::DeserializeOwned + std::fmt::Debug,
    {
        assert_eq!(serde_json::to_string(value).expect("encode"), doc);
        let back: T = serde_json::from_str(doc).expect("decode");
        assert_eq!(format!("{back:?}"), format!("{value:?}"));
    }

    /// An outage with awkward numbers: integral, tiny and negative-zero
    /// floats, a `u64` past `i64::MAX`, and text that needs escaping.
    pub(crate) fn outage() -> RegionOutcome {
        RegionOutcome {
            state: State::TX,
            timeline: Timeline {
                state: State::TX,
                start: Hour(9874),
                values: vec![0.0, 100.0, 37.5, 1e-7, -0.0, 12_345_678.901_234],
            },
            rounds: 3,
            converged: true,
            frames_requested: u64::MAX,
            frames_degraded: 0,
            coverage: 1.0,
            resumed_from_round: 0,
            frames_replayed: 2,
            rising_requested: 1,
            spikes: vec![(
                Spike {
                    state: State::TX,
                    start: Hour(9875),
                    peak: Hour(9876),
                    end: Hour(9878),
                    magnitude: 100.0,
                },
                vec![RisingTerm {
                    term: "att \"fiber\" down\u{7f} — ørsted".into(),
                    weight: 55,
                }],
            )],
        }
    }

    #[test]
    fn wire_documents_match_the_previous_codec() {
        let worker = || "w-1\\\u{0}".to_string();
        assert_pinned(
            &JoinRequest { worker: worker() },
            r#"{"worker":"w-1\\\u0000"}"#,
        );
        let join = JoinReply {
            accepted: true,
            trace: Some("00-4bf9-00f0-01".into()),
            shards: 51,
            heartbeat_ms: 250,
        };
        assert_pinned(
            &join,
            r#"{"accepted":true,"trace":"00-4bf9-00f0-01","shards":51,"heartbeat_ms":250}"#,
        );
        assert_pinned(
            &JoinReply {
                trace: None,
                ..join
            },
            r#"{"accepted":true,"trace":null,"shards":51,"heartbeat_ms":250}"#,
        );
        assert_pinned(
            &LeaseRequest { worker: worker() },
            r#"{"worker":"w-1\\\u0000"}"#,
        );
        let job = ShardJob {
            state: State::DC,
            epoch: 7,
        };
        assert_pinned(&job, r#"{"state":"DC","epoch":7}"#);
        assert_pinned(&LeaseReply::Job(job), r#"{"Job":{"state":"DC","epoch":7}}"#);
        assert_pinned(
            &LeaseReply::Wait { poll_ms: 1000 },
            r#"{"Wait":{"poll_ms":1000}}"#,
        );
        assert_pinned(&LeaseReply::Done, r#""Done""#);
        let heartbeat = HeartbeatRequest {
            worker: worker(),
            state: State::WY,
            epoch: 0,
            releasing: false,
        };
        assert_pinned(
            &heartbeat,
            r#"{"worker":"w-1\\\u0000","state":"WY","epoch":0,"releasing":false}"#,
        );
        assert_pinned(&HeartbeatReply { keep: true }, r#"{"keep":true}"#);
        let upload = ResultUpload {
            worker: worker(),
            epoch: 9,
            outcome: outage(),
        };
        assert_pinned(
            &upload,
            r#"{"worker":"w-1\\\u0000","epoch":9,"outcome":{"state":"TX","timeline":{"state":"TX","start":9874,"values":[0.0,100.0,37.5,0.0000001,-0.0,12345678.901234]},"rounds":3,"converged":true,"frames_requested":18446744073709551615,"frames_degraded":0,"coverage":1.0,"resumed_from_round":0,"frames_replayed":2,"rising_requested":1,"spikes":[[{"state":"TX","start":9875,"peak":9876,"end":9878,"magnitude":100.0},[{"term":"att \"fiber\" down — ørsted","weight":55}]]]}}"#,
        );
        assert_pinned(&ResultReply { accepted: false }, r#"{"accepted":false}"#);
        let status = StatusReply {
            total: 2,
            done: 1,
            failed: 0,
            rerouted: 1,
            epoch: 10,
            recoveries: 1,
            leases: vec![(worker(), State::CA)],
            shard_attempts: vec![(State::CA, 2), (State::TX, 1)],
            done_states: vec![State::TX],
            workers: vec![worker(), "w-2".into()],
            dead: vec![],
        };
        assert_pinned(
            &status,
            r#"{"total":2,"done":1,"failed":0,"rerouted":1,"epoch":10,"recoveries":1,"leases":[["w-1\\\u0000","CA"]],"shard_attempts":[["CA",2],["TX",1]],"done_states":["TX"],"workers":["w-1\\\u0000","w-2"],"dead":[]}"#,
        );
        assert_pinned(
            &StatusReply::default(),
            r#"{"total":0,"done":0,"failed":0,"rerouted":0,"epoch":0,"recoveries":0,"leases":[],"shard_attempts":[],"done_states":[],"workers":[],"dead":[]}"#,
        );
    }
}
