//! Crash recovery for the coordinator: WAL records and the one fold over them.
//!
//! The coordinator's durable state — shard table, granted epochs, worker
//! membership, accepted outcomes and their digests — *is* the fold of its
//! WAL through [`CoordTable::apply`]. A live handler decides, appends the
//! record through `sift-journal` (fsynced, *before* any acknowledgement
//! leaves the process) and applies it; a restart applies the same records
//! in the same order from [`CoordTable::initial`]. There is one
//! transition function, so the recovered table cannot drift from the live
//! one, and nothing to compact: a run's WAL is bounded by shards ×
//! attempt budget records.
//!
//! Leases are not in the table. A lease is a promise about a live
//! worker's heartbeat stream, which does not survive the coordinator
//! process: a restart finds every in-flight shard pending again, and the
//! epoch fence invalidates the old grants.
//!
//! The key ordering argument: a lease epoch reaches a worker only after
//! its [`CoordRecord::Leased`] record is durably appended (WAL before
//! acknowledgement), so a torn tail can only ever cut records whose
//! replies were never sent. Replay consequently observes every epoch any
//! worker observed, and `max(replayed epochs) + 1` is a safe restart
//! fence — the [`CoordRecord::Recovered`] bump on top is defence in depth.

use serde::{Deserialize, Serialize};
use sift_core::RegionOutcome;
use sift_geo::State;
use sift_journal::Journal;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// One durably-logged coordinator state transition. Appended (and
/// fsynced) before the protocol reply that acknowledges it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum CoordRecord {
    /// The first record of every WAL: the run it belongs to. Every later
    /// record names a region, which means something only under this list.
    Run {
        /// The study's regions, in shard order.
        regions: Vec<State>,
    },
    /// A coordinator restarted over this WAL. Appended before the new
    /// incarnation acknowledges anything, so the fence bump and the
    /// recovery count are themselves durable.
    Recovered {
        /// The new incarnation's fence: one past everything replayed, so
        /// the restart is observable in audits even when no grant raced
        /// the crash.
        next_epoch: u64,
    },
    /// A worker joined the run (membership feeds the consistent-hash
    /// ring, so it must survive restart).
    Joined {
        /// The joining worker.
        worker: String,
    },
    /// A shard was leased to `worker` under fencing token `epoch`.
    Leased {
        /// The leased region.
        state: State,
        /// The lease holder.
        worker: String,
        /// The granted fencing epoch.
        epoch: u64,
    },
    /// The holder handed the lease back voluntarily (no attempt burned,
    /// no benching).
    Released {
        /// The released region.
        state: State,
        /// The epoch the lease was held under.
        epoch: u64,
    },
    /// The lease expired: the holder is benched and one attempt burned;
    /// `failed` records whether that exhausted the attempt budget.
    Expired {
        /// The expired region.
        state: State,
        /// The benched (presumed dead) holder.
        worker: String,
        /// The epoch the lease was held under.
        epoch: u64,
        /// Whether the expiry spent the shard's last attempt.
        failed: bool,
    },
    /// An upload was accepted under `epoch`; `digest` fingerprints the
    /// serialized outcome for post-run audits.
    Done {
        /// The completed region.
        state: State,
        /// The uploading worker.
        worker: String,
        /// The epoch the result was computed under.
        epoch: u64,
        /// FNV-1a digest of the serialized outcome.
        digest: u64,
        /// The accepted outcome itself (the journal is the system of
        /// record: a restarted coordinator must not re-crawl it).
        outcome: Box<RegionOutcome>,
    },
}

/// The durable state of one shard.
#[derive(Clone, Debug)]
pub struct Shard {
    /// The region.
    pub state: State,
    /// Expiry-burned attempts (the budget the run fails on).
    pub attempts: u32,
    /// Total lease grants, including re-grants after reroute or restart
    /// (`/cluster/status` exposes this as the per-shard attempt count).
    pub grants: u32,
    /// The accepted outcome and its digest, once uploaded.
    pub done: Option<(u64, Box<RegionOutcome>)>,
    /// Whether the shard exhausted its attempt budget.
    pub failed: bool,
}

/// The coordinator's durable control state: what the live coordinator
/// holds and what a restart folds the WAL back into. Written only by
/// [`CoordTable::apply`].
#[derive(Clone, Debug)]
pub struct CoordTable {
    /// The next epoch to grant (strictly above every granted epoch).
    pub next_epoch: u64,
    /// Completed coordinator recoveries for this run.
    pub recoveries: u64,
    /// Reroutes performed so far.
    pub rerouted: u64,
    /// Worker membership, in join order.
    pub workers: Vec<String>,
    /// Benched (presumed dead) workers.
    pub dead: BTreeSet<String>,
    /// Per-shard durable state, in study-region order.
    pub shards: Vec<Shard>,
}

impl CoordTable {
    /// The pristine state for a fresh run over `regions`.
    pub fn initial(regions: &[State]) -> CoordTable {
        CoordTable {
            next_epoch: 0,
            recoveries: 0,
            rerouted: 0,
            workers: Vec::new(),
            dead: BTreeSet::new(),
            shards: regions
                .iter()
                .map(|&state| Shard {
                    state,
                    attempts: 0,
                    grants: 0,
                    done: None,
                    failed: false,
                })
                .collect(),
        }
    }

    /// The one transition function: live handlers and WAL replay both
    /// change the table through here and nowhere else. Unknown regions
    /// are ignored (a record can never reference one unless the study
    /// parameters changed under the journal, which
    /// [`CoordDurability::open`] rejects up front).
    pub fn apply(&mut self, rec: CoordRecord) {
        match rec {
            // Identity: `open` checks it; it carries no transition.
            CoordRecord::Run { .. } => {}
            CoordRecord::Recovered { next_epoch } => {
                self.next_epoch = self.next_epoch.max(next_epoch);
                self.recoveries = self.recoveries.saturating_add(1);
            }
            CoordRecord::Joined { worker } => self.admit(worker),
            CoordRecord::Leased {
                state,
                worker,
                epoch,
            } => {
                self.fence_past(epoch);
                self.admit(worker);
                if let Some(sh) = self.shard_mut(state) {
                    sh.grants = sh.grants.saturating_add(1);
                }
            }
            CoordRecord::Released { state: _, epoch } => {
                self.fence_past(epoch);
                self.rerouted = self.rerouted.saturating_add(1);
            }
            CoordRecord::Expired {
                state,
                worker,
                epoch,
                failed,
            } => {
                self.fence_past(epoch);
                self.dead.insert(worker);
                if let Some(sh) = self.shard_mut(state) {
                    sh.attempts = sh.attempts.saturating_add(1);
                    sh.failed = failed;
                    if !failed {
                        self.rerouted = self.rerouted.saturating_add(1);
                    }
                }
            }
            CoordRecord::Done {
                state,
                epoch,
                digest,
                outcome,
                ..
            } => {
                self.fence_past(epoch);
                if let Some(sh) = self.shard_mut(state) {
                    sh.done = Some((digest, outcome));
                    sh.failed = false;
                }
            }
        }
    }

    fn fence_past(&mut self, epoch: u64) {
        self.next_epoch = self.next_epoch.max(epoch.saturating_add(1));
    }

    fn admit(&mut self, worker: String) {
        if !self.workers.contains(&worker) {
            self.workers.push(worker);
        }
    }

    fn shard_mut(&mut self, state: State) -> Option<&mut Shard> {
        self.shards.iter_mut().find(|sh| sh.state == state)
    }
}

/// What [`CoordDurability::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct CoordRecovery {
    /// Whether a prior incarnation's WAL was found: the condition under
    /// which the restart counts as a recovery and the fencing epoch is
    /// bumped.
    pub had_state: bool,
    /// WAL records read back (the run's identity record included).
    pub records_replayed: usize,
    /// Whether the WAL ended in a torn record that was truncated.
    pub torn_tail: bool,
}

/// The coordinator's durability driver: one WAL under a run directory.
/// Always mutated under the coordinator's state lock, so the journal
/// order equals the state mutation order.
pub struct CoordDurability {
    journal: Journal,
    /// Test seam: every append fails the way a full disk would.
    #[cfg(test)]
    pub(crate) fail_appends: bool,
}

impl CoordDurability {
    /// Opens (creating if needed) the WAL under `dir` and folds it from
    /// [`CoordTable::initial`]. A fresh WAL is first named after the run
    /// (`regions`); one whose first record names a different region list
    /// is rejected as `InvalidData` rather than silently misapplied.
    pub fn open(
        dir: &Path,
        regions: &[State],
    ) -> io::Result<(CoordDurability, CoordTable, CoordRecovery)> {
        let (mut journal, wal) = Journal::open(&dir.join("coord.wal"))?;
        // Control records are acknowledgements-in-waiting: every append
        // must be durable before the reply goes out, so fsync per record.
        journal.set_sync_every(1);
        let mut durability = CoordDurability {
            journal,
            #[cfg(test)]
            fail_appends: false,
        };

        let run = CoordRecord::Run {
            regions: regions.to_vec(),
        };
        let mut records = wal.records.iter();
        match records.next() {
            // A fresh WAL (or one torn inside its first record).
            None => durability.append(&run)?,
            Some(first) if *first == encode(&run)? => {}
            Some(_) => {
                return Err(invalid(format!(
                    "{} is the WAL of another run (its region list differs)",
                    durability.journal.path().display()
                )));
            }
        }
        let mut table = CoordTable::initial(regions);
        for bytes in records {
            let rec = serde_json::from_slice::<CoordRecord>(bytes)
                .map_err(|e| invalid(format!("corrupt coordinator WAL record: {e}")))?;
            table.apply(rec);
        }
        let recovery = CoordRecovery {
            had_state: !wal.records.is_empty(),
            records_replayed: wal.records.len(),
            torn_tail: wal.torn_tail,
        };
        Ok((durability, table, recovery))
    }

    /// Durably appends one record: on the OS *and* fsynced before return.
    pub fn append(&mut self, rec: &CoordRecord) -> io::Result<()> {
        #[cfg(test)]
        if self.fail_appends {
            return Err(io::Error::other("injected append failure"));
        }
        self.journal.append(&encode(rec)?)
    }
}

fn encode(rec: &CoordRecord) -> io::Result<Vec<u8>> {
    serde_json::to_vec(rec).map_err(|e| invalid(format!("unencodable coordinator record: {e}")))
}

/// FNV-1a over the serialized outcome: the digest WAL'd (and auditable)
/// alongside every accepted upload.
pub fn outcome_digest(outcome: &RegionOutcome) -> u64 {
    let bytes = serde_json::to_vec(outcome).unwrap_or_default();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_journal::testutil::scratch_dir;

    #[test]
    fn records_match_the_previous_codec() {
        use crate::proto::tests::{assert_pinned, outage};
        let worker = || "w-1".to_string();
        let records = [
            (
                CoordRecord::Run {
                    regions: vec![State::CA, State::TX, State::DC],
                },
                r#"{"Run":{"regions":["CA","TX","DC"]}}"#,
            ),
            (
                CoordRecord::Recovered { next_epoch: 12 },
                r#"{"Recovered":{"next_epoch":12}}"#,
            ),
            (
                CoordRecord::Joined { worker: worker() },
                r#"{"Joined":{"worker":"w-1"}}"#,
            ),
            (
                CoordRecord::Leased {
                    state: State::CA,
                    worker: worker(),
                    epoch: 3,
                },
                r#"{"Leased":{"state":"CA","worker":"w-1","epoch":3}}"#,
            ),
            (
                CoordRecord::Released {
                    state: State::CA,
                    epoch: 3,
                },
                r#"{"Released":{"state":"CA","epoch":3}}"#,
            ),
            (
                CoordRecord::Expired {
                    state: State::CA,
                    worker: worker(),
                    epoch: 4,
                    failed: true,
                },
                r#"{"Expired":{"state":"CA","worker":"w-1","epoch":4,"failed":true}}"#,
            ),
            (
                CoordRecord::Done {
                    state: State::TX,
                    worker: worker(),
                    epoch: 5,
                    digest: 0xcbf2_9ce4_8422_2325,
                    outcome: Box::new(outage()),
                },
                r#"{"Done":{"state":"TX","worker":"w-1","epoch":5,"digest":14695981039346656037,"outcome":{"state":"TX","timeline":{"state":"TX","start":9874,"values":[0.0,100.0,37.5,0.0000001,-0.0,12345678.901234]},"rounds":3,"converged":true,"frames_requested":18446744073709551615,"frames_degraded":0,"coverage":1.0,"resumed_from_round":0,"frames_replayed":2,"rising_requested":1,"spikes":[[{"state":"TX","start":9875,"peak":9876,"end":9878,"magnitude":100.0},[{"term":"att \"fiber\" down — ørsted","weight":55}]]]}}}"#,
            ),
        ];
        for (record, doc) in &records {
            assert_pinned(record, doc);
        }
    }

    fn regions() -> Vec<State> {
        vec![State::CA, State::TX]
    }

    fn open(dir: &Path) -> (CoordDurability, CoordTable, CoordRecovery) {
        CoordDurability::open(dir, &regions()).expect("open durability")
    }

    #[test]
    fn fresh_dir_recovers_to_initial_state() {
        let dir = scratch_dir("recovery_fresh");
        let (_d, table, rec) = open(&dir);
        assert!(!rec.had_state);
        assert_eq!(table.next_epoch, 0);
        assert_eq!(table.shards.len(), 2);
        assert!(table
            .shards
            .iter()
            .all(|sh| sh.done.is_none() && !sh.failed));
    }

    #[test]
    fn replay_reconstructs_epochs_membership_and_attempts() {
        let dir = scratch_dir("recovery_replay");
        {
            let (mut d, _, _) = open(&dir);
            for rec in [
                CoordRecord::Joined {
                    worker: "w0".into(),
                },
                CoordRecord::Leased {
                    state: State::CA,
                    worker: "w0".into(),
                    epoch: 0,
                },
                CoordRecord::Expired {
                    state: State::CA,
                    worker: "w0".into(),
                    epoch: 0,
                    failed: false,
                },
                CoordRecord::Leased {
                    state: State::CA,
                    worker: "w1".into(),
                    epoch: 1,
                },
                CoordRecord::Released {
                    state: State::CA,
                    epoch: 1,
                },
                CoordRecord::Recovered { next_epoch: 3 },
            ] {
                d.append(&rec).expect("wal");
            }
        }
        let (_d, table, rec) = open(&dir);
        assert!(rec.had_state);
        assert_eq!(rec.records_replayed, 7, "the identity record and six more");
        assert_eq!(table.next_epoch, 3, "the recovery bump clears every grant");
        assert_eq!(table.recoveries, 1);
        assert_eq!(table.workers, ["w0", "w1"]);
        assert_eq!(table.dead.iter().collect::<Vec<_>>(), ["w0"]);
        let ca = &table.shards[0];
        assert_eq!((ca.attempts, ca.grants), (1, 2));
        assert_eq!(table.rerouted, 2, "one expiry, one release");
    }

    #[test]
    fn mismatched_region_set_is_rejected() {
        let dir = scratch_dir("recovery_mismatch");
        drop(open(&dir));
        let err = match CoordDurability::open(&dir, &[State::NY]) {
            Ok(_) => panic!("a foreign region list must be refused by the first record"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Order is part of the identity: shard indices follow it.
        let err = CoordDurability::open(&dir, &[State::TX, State::CA]).err();
        assert_eq!(err.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
        assert!(open(&dir).2.had_state, "the run's own list still opens");
    }

    #[test]
    fn torn_tail_is_cut_and_reported() {
        let dir = scratch_dir("recovery_torn");
        {
            let (mut d, _, _) = open(&dir);
            d.append(&CoordRecord::Joined {
                worker: "w0".into(),
            })
            .expect("wal");
        }
        // Stage a torn half-record at the tail, as a mid-append crash would.
        let wal = dir.join("coord.wal");
        let mut bytes = std::fs::read(&wal).expect("read wal");
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe]);
        std::fs::write(&wal, &bytes).expect("stage torn tail");
        let (_d, table, rec) = open(&dir);
        assert!(rec.torn_tail);
        assert_eq!(rec.records_replayed, 2);
        assert_eq!(table.workers, ["w0"]);
    }
}
