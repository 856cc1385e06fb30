//! Property tests for coordinator crash recovery.
//!
//! Three invariants carry the nemesis harness's correctness argument:
//!
//! 1. **Epoch monotonicity**: across *arbitrary* crash/replay points in
//!    an arbitrary schedule of joins, grants, releases, expiries and
//!    uploads, the sequence of granted lease epochs is strictly
//!    increasing — no incarnation ever re-issues an epoch any earlier
//!    incarnation handed out, so epoch fencing actually fences.
//! 2. **Torn-tail reconstruction**: cutting the WAL mid-record (the
//!    shape of a crash during an un-acknowledged append) recovers
//!    exactly the shard table the uncrashed coordinator held after the
//!    last *complete* record — never a panic, never a half-applied
//!    mutation, with the torn tail reported.
//! 3. **Reopen is exact**: folding the same WAL twice gives the same
//!    table, and that table's counters are the record counts — replay
//!    applies every record exactly once.
//!
//! The schedule drives a real durable [`Coordinator`] (real files, real
//! fsyncs, its own handlers deciding what is legal) through its router,
//! in process. Nothing here models a transition: the live side is the
//! coordinator's `/cluster/status`, the recovered side is
//! [`CoordDurability::open`]'s fold of the WAL it wrote.

use proptest::prelude::*;
use sift_cluster::{
    cluster_router, ClusterConfig, CoordDurability, CoordRecord, CoordRecovery, CoordTable,
    Coordinator, HeartbeatReply, HeartbeatRequest, JoinReply, JoinRequest, LeaseReply,
    LeaseRequest, ResultReply, ResultUpload, ShardJob, StatusReply,
};
use sift_core::{RegionOutcome, StudyParams, Timeline};
use sift_geo::State;
use sift_journal::testutil::scratch_dir;
use sift_journal::Journal;
use sift_net::{Request, Router};
use sift_simtime::{Hour, HourRange};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const REGIONS: [State; 3] = [State::CA, State::TX, State::NY];
/// One missed 8 ms beat expires a lease: long enough that a grant
/// usually outlives the next few ops, short enough to wait out.
const LEASE_MS: u64 = 8;

fn config() -> ClusterConfig {
    ClusterConfig {
        heartbeat_interval: Duration::from_millis(LEASE_MS),
        miss_threshold: 1,
        poll_ms: 1,
        attempt_budget: 3,
    }
}

fn params() -> StudyParams {
    StudyParams {
        range: HourRange::new(Hour(0), Hour(336)),
        regions: REGIONS.to_vec(),
        ..StudyParams::default()
    }
}

fn outcome(state: State) -> RegionOutcome {
    RegionOutcome {
        state,
        timeline: Timeline {
            state,
            start: Hour(0),
            values: vec![1.0, 2.0, 3.0],
        },
        rounds: 1,
        converged: true,
        frames_requested: 3,
        frames_degraded: 0,
        coverage: 1.0,
        resumed_from_round: 0,
        frames_replayed: 0,
        rising_requested: 0,
        spikes: Vec::new(),
    }
}

/// A lease the schedule was granted and has not settled yet.
struct Held {
    worker: String,
    job: ShardJob,
    /// The schedule waited out the heartbeat timeout since the grant, so
    /// the coordinator must have expired it.
    lapsed: bool,
}

/// One incarnation of the real coordinator over `dir`. Dropping it with
/// leases in flight is the crash.
struct Incarnation {
    coord: Arc<Coordinator>,
    router: Router,
    held: Vec<Held>,
    granted: Vec<u64>,
}

impl Incarnation {
    fn boot(dir: &Path) -> (Incarnation, CoordRecovery) {
        let (coord, recovery) =
            Coordinator::durable(params(), config(), dir).expect("durable coordinator");
        let coord = Arc::new(coord);
        let run = Incarnation {
            router: cluster_router(&coord),
            coord,
            held: Vec::new(),
            granted: Vec::new(),
        };
        (run, recovery)
    }

    fn post<Q: serde::Serialize, R: serde::de::DeserializeOwned>(&self, path: &str, body: &Q) -> R {
        let req = Request::post_json(path, body).expect("encodable request");
        self.router
            .dispatch(&req)
            .parse_json()
            .expect("decodable reply")
    }

    /// One op of the schedule. Whether it is legal is the coordinator's
    /// call; the only expectation held against it is fencing — a lease
    /// that provably lapsed must be refused.
    fn step(&mut self, op: u8, pick: u8) {
        let worker = format!("w{}", pick % 6);
        match op % 6 {
            0 => {
                let _: JoinReply = self.post("/cluster/join", &JoinRequest { worker });
            }
            1 | 2 => {
                let req = LeaseRequest {
                    worker: worker.clone(),
                };
                if let LeaseReply::Job(job) = self.post("/cluster/lease", &req) {
                    self.granted.push(job.epoch);
                    self.held.push(Held {
                        worker,
                        job,
                        lapsed: false,
                    });
                }
            }
            3 | 4 => {
                if self.held.is_empty() {
                    return;
                }
                let held = self.held.remove(usize::from(pick) % self.held.len());
                let live = if pick % 2 == 0 {
                    let up = ResultUpload {
                        worker: held.worker,
                        epoch: held.job.epoch,
                        outcome: outcome(held.job.state),
                    };
                    let reply: ResultReply = self.post("/cluster/result", &up);
                    reply.accepted
                } else {
                    let beat = HeartbeatRequest {
                        worker: held.worker,
                        state: held.job.state,
                        epoch: held.job.epoch,
                        releasing: pick % 4 == 1,
                    };
                    let reply: HeartbeatReply = self.post("/cluster/heartbeat", &beat);
                    if reply.keep {
                        // Renewed, not settled: it is held again.
                        self.held.push(Held {
                            worker: beat.worker,
                            job: held.job,
                            lapsed: false,
                        });
                    }
                    reply.keep
                };
                assert!(
                    !(held.lapsed && live),
                    "epoch {} lapsed and was still honoured",
                    held.job.epoch
                );
            }
            _ => {
                std::thread::sleep(Duration::from_millis(LEASE_MS + 2));
                // Any call drives expiry; this one changes nothing else.
                let _ = self.coord.status();
                for held in &mut self.held {
                    held.lapsed = true;
                }
            }
        }
    }
}

fn fold(dir: &Path) -> (CoordTable, CoordRecovery) {
    let (_d, table, recovery) = CoordDurability::open(dir, &REGIONS).expect("fold the WAL");
    (table, recovery)
}

/// What `/cluster/status` would say of a folded table (no live leases:
/// they are not in the WAL).
fn as_status(t: &CoordTable) -> StatusReply {
    let done = t.shards.iter().filter(|sh| sh.done.is_some());
    StatusReply {
        total: t.shards.len(),
        done: done.clone().count(),
        failed: t.shards.iter().filter(|sh| sh.failed).count(),
        rerouted: t.rerouted,
        epoch: t.next_epoch,
        recoveries: t.recoveries,
        leases: Vec::new(),
        shard_attempts: t.shards.iter().map(|sh| (sh.state, sh.grants)).collect(),
        done_states: done.map(|sh| sh.state).collect(),
        workers: t.workers.clone(),
        dead: t.dead.iter().cloned().collect(),
    }
}

type Schedule = Vec<(u8, u8)>;

fn segments() -> impl Strategy<Value = Vec<Schedule>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lease epochs are strictly monotonic across arbitrary crash and
    /// replay points: each outer segment runs ops against one
    /// incarnation, each segment boundary is a crash (drop, reopen,
    /// replay, recovery bump), and the concatenation of every
    /// incarnation's grants never repeats or regresses. `k` restarts are
    /// `k` recoveries.
    #[test]
    fn lease_epochs_are_strictly_monotonic_across_crashes(segments in segments()) {
        let dir = scratch_dir("prop_epochs");
        let mut granted: Vec<u64> = Vec::new();
        for (incarnation, segment) in segments.iter().enumerate() {
            let (mut run, rec) = Incarnation::boot(&dir);
            prop_assert_eq!(rec.had_state, incarnation > 0);
            let status = run.coord.status();
            prop_assert_eq!(status.recoveries, incarnation as u64);
            prop_assert!(status.leases.is_empty(), "leases do not survive a restart");
            if let Some(&max_granted) = granted.iter().max() {
                prop_assert!(
                    status.epoch > max_granted,
                    "incarnation {} fence {} must clear every prior grant (max {})",
                    incarnation, status.epoch, max_granted
                );
            }
            for &(op, pick) in segment {
                run.step(op, pick);
            }
            granted.append(&mut run.granted);
            // `run` and its live leases drop here — the crash.
        }
        prop_assert!(
            granted.windows(2).all(|w| w[0] < w[1]),
            "granted epochs must be strictly increasing: {granted:?}"
        );
    }

    /// Cutting the WAL at an arbitrary byte inside its final record —
    /// the on-disk shape of dying mid-append, before the acknowledgement
    /// went out — recovers exactly the state the uncrashed coordinator
    /// held after the last complete record: same shard table, same
    /// membership, same fence.
    #[test]
    fn torn_tail_replay_reconstructs_the_uncrashed_shard_table(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..20),
        cut_seed in any::<usize>(),
    ) {
        let dir = scratch_dir("prop_torn");
        let (mut run, _) = Incarnation::boot(&dir);
        for &(op, pick) in &ops {
            run.step(op, pick);
        }
        let want = StatusReply {
            leases: Vec::new(),
            ..run.coord.status()
        };
        drop(run);

        // Stage the torn tail: append one more genuine record through the
        // raw journal, then cut the file strictly inside it.
        let wal = dir.join("coord.wal");
        let clean_len = std::fs::metadata(&wal).expect("wal metadata").len() as usize;
        {
            let (mut j, _) = Journal::open(&wal).expect("raw journal");
            let torn = CoordRecord::Leased {
                state: REGIONS[0],
                worker: "wz".into(),
                epoch: want.epoch,
            };
            j.append(&serde_json::to_vec(&torn).expect("encodable record"))
                .expect("append torn record");
            j.sync().expect("sync");
        }
        let full = std::fs::read(&wal).expect("read wal");
        prop_assert!(full.len() > clean_len + 1, "the extra record spans bytes");
        let cut = clean_len + 1 + cut_seed % (full.len() - clean_len - 1);
        std::fs::write(&wal, &full[..cut]).expect("stage cut wal");

        let (got, rec) = fold(&dir);
        prop_assert!(rec.torn_tail, "a mid-record cut must be reported");
        prop_assert_eq!(
            as_status(&got), want,
            "replay after the cut must equal the uncrashed table"
        );
        // The healed WAL keeps working: the next incarnation's records
        // land after the truncation point and replay cleanly.
        let (mut run, _) = Incarnation::boot(&dir);
        run.step(0, 5);
        drop(run);
        let (after, rec2) = fold(&dir);
        prop_assert!(!rec2.torn_tail, "the tail was healed");
        prop_assert!(after.workers.iter().any(|w| w == "w5"));
        prop_assert_eq!(after.recoveries, 1);
    }

    /// Reopen is exact: after an arbitrary schedule over arbitrary
    /// crashes, folding the directory twice in a row with no traffic in
    /// between yields the same table, and each counter in it is the
    /// number of records that move it — no record is ever applied twice.
    #[test]
    fn reopen_is_exact(segments in segments()) {
        let dir = scratch_dir("prop_reopen");
        for segment in &segments {
            let (mut run, _) = Incarnation::boot(&dir);
            for &(op, pick) in segment {
                run.step(op, pick);
            }
        }
        let (first, _) = fold(&dir);
        let (second, _) = fold(&dir);
        prop_assert_eq!(format!("{first:?}"), format!("{second:?}"));

        let (_, wal) = Journal::open(&dir.join("coord.wal")).expect("raw journal");
        let records: Vec<CoordRecord> = wal
            .records
            .iter()
            .map(|bytes| serde_json::from_slice(bytes).expect("decodable record"))
            .collect();
        for sh in &first.shards {
            let count = |hit: fn(&CoordRecord) -> Option<State>| {
                records.iter().filter(|rec| hit(rec) == Some(sh.state)).count()
            };
            let leased = count(|rec| match rec {
                CoordRecord::Leased { state, .. } => Some(*state),
                _ => None,
            });
            let expired = count(|rec| match rec {
                CoordRecord::Expired { state, .. } => Some(*state),
                _ => None,
            });
            prop_assert_eq!(sh.grants as usize, leased, "{} grants", sh.state);
            prop_assert_eq!(sh.attempts as usize, expired, "{} attempts", sh.state);
        }
        let restarts = records
            .iter()
            .filter(|rec| matches!(rec, CoordRecord::Recovered { .. }))
            .count();
        prop_assert_eq!(restarts, segments.len() - 1);
        prop_assert_eq!(first.recoveries as usize, restarts);
    }
}
