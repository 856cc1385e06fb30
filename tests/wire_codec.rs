//! Every public wire and WAL type through the direct JSON path and its
//! oracle, the `Value` tree: the same bytes out, and for the document and
//! damaged copies of it, the same verdict and value in. (The crates test
//! their private envelopes and records the same way.)

use proptest::test_runner::TestRng;
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::Value;
use sift::cluster::proto::{
    HeartbeatReply, HeartbeatRequest, JoinReply, JoinRequest, LeaseReply, LeaseRequest,
    ResultReply, ResultUpload, ShardJob, StatusReply,
};
use sift::cluster::recovery::CoordRecord;
use sift::core::{RegionOutcome, Spike, Timeline};
use sift::geo::State;
use sift::serve::{RegionStatus, RegionsReply, SpikesReply};
use sift::simtime::Hour;
use sift::trends::api::ServiceStats;
use sift::trends::terms::Topic;
use sift::trends::{
    FrameRequest, FrameResponse, RisingRequest, RisingResponse, RisingTerm, SearchTerm,
    ServiceError,
};

/// The verdict of decoding `bytes` by each path: the value re-encoded,
/// or `Err`.
fn decodings<T: Serialize + DeserializeOwned>(bytes: &[u8]) -> (String, String) {
    let show = |r: serde_json::Result<T>| match r {
        Ok(v) => serde_json::to_string(&v).expect("re-encode"),
        Err(_) => "Err".to_string(),
    };
    let direct = serde_json::from_slice::<T>(bytes);
    let tree = serde_json::from_slice::<Value>(bytes).and_then(serde_json::from_value::<T>);
    (show(direct), show(tree))
}

/// `value` encodes to the tree's bytes and decodes as the tree decodes,
/// and so do a few damaged copies of its document.
fn check<T: Serialize + DeserializeOwned>(rng: &mut TestRng, value: &T) {
    let bytes = serde_json::to_vec(value).expect("encode");
    let tree = serde_json::to_vec(&serde_json::to_value(value).expect("tree")).expect("encode");
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&tree)
    );
    let (direct, oracle) = decodings::<T>(&bytes);
    assert_eq!(direct, oracle);
    for _ in 0..4 {
        let mut damaged = bytes.clone();
        let at = rng.below(damaged.len() as u64) as usize;
        match rng.below(4) {
            0 => damaged[at] ^= 1 << rng.below(8),
            1 => damaged.insert(at, b"{}[],:\"\\0-.e"[rng.below(12) as usize]),
            2 => {
                damaged.remove(at);
            }
            _ => damaged.truncate(at),
        }
        let (direct, oracle) = decodings::<T>(&damaged);
        assert_eq!(direct, oracle, "{}", String::from_utf8_lossy(&damaged));
    }
}

fn text(rng: &mut TestRng) -> String {
    const PIECES: [&str; 10] = [
        "a", "outage", " ", "\"", "\\", "\t", "\u{0}", "é", "☃", "😀",
    ];
    (0..rng.below(5))
        .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
        .collect()
}

fn float(rng: &mut TestRng) -> f64 {
    match rng.below(5) {
        0 => rng.below(101) as f64,
        1 => -0.0,
        2 => [f64::NAN, f64::INFINITY, 1e15, 1e-7][rng.below(4) as usize],
        3 => rng.unit_f64() * 100.0,
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn state(rng: &mut TestRng) -> State {
    State::ALL[rng.below(State::ALL.len() as u64) as usize]
}

fn hour(rng: &mut TestRng) -> Hour {
    Hour(rng.next_u64() as i64 >> rng.below(64))
}

fn vec_of<T>(rng: &mut TestRng, max: u64, mut f: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    (0..rng.below(max + 1)).map(|_| f(rng)).collect()
}

fn term(rng: &mut TestRng) -> SearchTerm {
    match rng.below(3) {
        0 => SearchTerm::Topic(Topic::InternetOutage),
        1 => SearchTerm::Topic(Topic::PowerOutage),
        _ => SearchTerm::Query(text(rng)),
    }
}

fn frame(rng: &mut TestRng) -> FrameResponse {
    FrameResponse {
        term: term(rng),
        state: state(rng),
        start: hour(rng),
        values: vec_of(rng, 168, |r| r.below(256) as u8),
    }
}

fn rising(rng: &mut TestRng) -> RisingResponse {
    RisingResponse {
        state: state(rng),
        start: hour(rng),
        rising: vec_of(rng, 4, |r| RisingTerm {
            term: text(r),
            weight: r.next_u32(),
        }),
    }
}

fn spike(rng: &mut TestRng) -> Spike {
    Spike {
        state: state(rng),
        start: hour(rng),
        peak: hour(rng),
        end: hour(rng),
        magnitude: float(rng),
    }
}

fn outcome(rng: &mut TestRng) -> RegionOutcome {
    RegionOutcome {
        state: state(rng),
        timeline: Timeline {
            state: state(rng),
            start: hour(rng),
            values: vec_of(rng, 6, float),
        },
        rounds: rng.next_u32(),
        converged: rng.below(2) == 0,
        frames_requested: rng.next_u64(),
        frames_degraded: rng.next_u64(),
        coverage: float(rng),
        resumed_from_round: rng.next_u32(),
        frames_replayed: rng.next_u64(),
        rising_requested: rng.next_u64(),
        spikes: vec_of(rng, 2, |r| (spike(r), rising(r).rising)),
    }
}

fn maybe_text(rng: &mut TestRng) -> Option<String> {
    (rng.below(2) == 0).then(|| text(rng))
}

fn coord_record(rng: &mut TestRng) -> CoordRecord {
    match rng.below(7) {
        0 => CoordRecord::Run {
            regions: vec_of(rng, 3, state),
        },
        1 => CoordRecord::Recovered {
            next_epoch: rng.next_u64(),
        },
        2 => CoordRecord::Joined { worker: text(rng) },
        3 => CoordRecord::Leased {
            state: state(rng),
            worker: text(rng),
            epoch: rng.next_u64(),
        },
        4 => CoordRecord::Released {
            state: state(rng),
            epoch: rng.next_u64(),
        },
        5 => CoordRecord::Expired {
            state: state(rng),
            worker: text(rng),
            epoch: rng.next_u64(),
            failed: rng.below(2) == 0,
        },
        _ => CoordRecord::Done {
            state: state(rng),
            worker: text(rng),
            epoch: rng.next_u64(),
            digest: rng.next_u64(),
            outcome: Box::new(outcome(rng)),
        },
    }
}

fn region_status(rng: &mut TestRng) -> RegionStatus {
    RegionStatus {
        region: state(rng),
        watermark: hour(rng).0,
        frames_ingested: rng.next_u64(),
        frames_planned: rng.next_u64(),
        sealed_spikes: rng.next_u64(),
        open_hours: rng.next_u64(),
        degraded: maybe_text(rng),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(128))]

    #[test]
    fn trends_api_documents_take_one_codec(seed in proptest::arbitrary::any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let req = FrameRequest {
            term: term(rng),
            state: state(rng),
            start: hour(rng),
            len: rng.next_u32(),
            tag: rng.next_u64(),
        };
        check(rng, &req);
        let frame = frame(rng);
        check(rng, &frame);
        let rising_req = RisingRequest {
            term: term(rng),
            state: state(rng),
            start: hour(rng),
            len: rng.next_u32(),
            tag: rng.next_u64(),
        };
        check(rng, &rising_req);
        let rising = rising(rng);
        check(rng, &rising);
        let stats = ServiceStats {
            frames_served: rng.next_u64(),
            rising_served: rng.next_u64(),
        };
        check(rng, &stats);
        let err = if rng.below(2) == 0 {
            ServiceError::EmptyFrame
        } else {
            ServiceError::FrameTooLong {
                requested: rng.next_u32(),
                max: rng.next_u32(),
            }
        };
        check(rng, &err);
    }

    #[test]
    fn cluster_messages_and_records_take_one_codec(seed in proptest::arbitrary::any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let join = JoinRequest { worker: text(rng) };
        check(rng, &join);
        let join = JoinReply {
            accepted: rng.below(2) == 0,
            trace: maybe_text(rng),
            shards: rng.next_u64() as usize,
            heartbeat_ms: rng.next_u64(),
        };
        check(rng, &join);
        let lease = LeaseRequest { worker: text(rng) };
        check(rng, &lease);
        let job = ShardJob {
            state: state(rng),
            epoch: rng.next_u64(),
        };
        check(rng, &job);
        let lease = match rng.below(3) {
            0 => LeaseReply::Job(job),
            1 => LeaseReply::Wait {
                poll_ms: rng.next_u64(),
            },
            _ => LeaseReply::Done,
        };
        check(rng, &lease);
        let heartbeat = HeartbeatRequest {
            worker: text(rng),
            state: state(rng),
            epoch: rng.next_u64(),
            releasing: rng.below(2) == 0,
        };
        check(rng, &heartbeat);
        let keep = HeartbeatReply { keep: rng.below(2) == 0 };
        check(rng, &keep);
        let upload = ResultUpload {
            worker: text(rng),
            epoch: rng.next_u64(),
            outcome: outcome(rng),
        };
        check(rng, &upload);
        let accepted = ResultReply { accepted: rng.below(2) == 0 };
        check(rng, &accepted);
        let status = StatusReply {
            total: rng.below(60) as usize,
            done: rng.below(60) as usize,
            failed: rng.below(60) as usize,
            rerouted: rng.next_u64(),
            epoch: rng.next_u64(),
            recoveries: rng.next_u64(),
            leases: vec_of(rng, 2, |r| (text(r), state(r))),
            shard_attempts: vec_of(rng, 3, |r| (state(r), r.next_u32())),
            done_states: vec_of(rng, 3, state),
            workers: vec_of(rng, 2, text),
            dead: vec_of(rng, 2, text),
        };
        check(rng, &status);
        let record = coord_record(rng);
        check(rng, &record);
    }

    #[test]
    fn daemon_replies_take_one_codec(seed in proptest::arbitrary::any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let spikes = SpikesReply {
            region: state(rng),
            watermark: hour(rng).0,
            cursor: rng.next_u64(),
            degraded: maybe_text(rng),
            spikes: vec_of(rng, 3, spike),
        };
        check(rng, &spikes);
        let regions = RegionsReply {
            now: hour(rng).0,
            regions: vec_of(rng, 3, region_status),
        };
        check(rng, &regions);
    }
}
