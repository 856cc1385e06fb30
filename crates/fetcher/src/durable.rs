//! A crash-safe wrapper around [`ResponseStore`].
//!
//! Every insert is journaled (as a JSON [`StoreRecord`] inside a
//! CRC-framed `sift-journal` record) *before* it is applied in memory, so
//! a process that dies mid-crawl loses at most the response in flight.
//! The store is every response ever inserted, so there is nothing for a
//! checkpoint to compact: the journal, `<dir>/store.wal`, is the whole
//! on-disk state, and recovery replays it into an empty store.

use crate::store::{ResponseSink, ResponseStore};
use serde::{Deserialize, Serialize};
use sift_journal::{CrashInjector, Journal};
use sift_trends::{FrameResponse, RisingResponse};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One journaled store mutation.
#[derive(Serialize, Deserialize)]
enum StoreRecord {
    /// A frame response fetched under `tag`.
    Frame {
        /// Sample tag the frame was fetched under.
        tag: u64,
        /// The response.
        resp: FrameResponse,
    },
    /// A rising response for a `len`-hour frame.
    Rising {
        /// Frame length in hours.
        len: u32,
        /// The response.
        resp: RisingResponse,
    },
}

/// What [`DurableStore::open`] recovered from disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResumeReport {
    /// Journal records replayed into the store.
    pub replayed: usize,
    /// Whether the journal ended in a torn tail that was truncated.
    pub torn_tail: bool,
    /// Journal records whose CRC was valid but whose JSON payload did not
    /// parse — possible only across an incompatible format change.
    pub undecodable: usize,
}

/// A [`ResponseStore`] whose every insert survives a process crash.
pub struct DurableStore {
    store: ResponseStore,
    journal: Journal,
    io_error: Option<io::Error>,
}

impl DurableStore {
    /// Opens (creating if needed) the durability directory, recovering
    /// the journal into the in-memory store.
    pub fn open(dir: &Path) -> io::Result<(DurableStore, ResumeReport)> {
        DurableStore::open_with(dir, None)
    }

    /// [`DurableStore::open`] with crash injection wired into the journal.
    pub fn open_with(
        dir: &Path,
        crash: Option<Arc<CrashInjector>>,
    ) -> io::Result<(DurableStore, ResumeReport)> {
        std::fs::create_dir_all(dir)?;
        let mut store = ResponseStore::new();
        let (journal, recovery) = Journal::open_with(&dir.join("store.wal"), crash)?;
        let mut report = ResumeReport {
            torn_tail: recovery.torn_tail,
            ..ResumeReport::default()
        };
        for payload in &recovery.records {
            let parsed = std::str::from_utf8(payload)
                .ok()
                .and_then(|json| serde_json::from_str::<StoreRecord>(json).ok());
            match parsed {
                Some(StoreRecord::Frame { tag, resp }) => {
                    store.insert_frame(tag, resp);
                    report.replayed += 1;
                }
                Some(StoreRecord::Rising { len, resp }) => {
                    store.insert_rising(len, resp);
                    report.replayed += 1;
                }
                None => report.undecodable += 1,
            }
        }
        if report.undecodable > 0 {
            sift_obs::event(
                sift_obs::Level::Warn,
                "fetcher.durable",
                "journal records with valid CRC failed to decode",
                &[(
                    "undecodable",
                    serde_json::Value::UInt(u64::try_from(report.undecodable).unwrap_or(u64::MAX)),
                )],
            );
        }
        Ok((
            DurableStore {
                store,
                journal,
                io_error: None,
            },
            report,
        ))
    }

    /// The recovered + accumulated in-memory store.
    pub fn store(&self) -> &ResponseStore {
        &self.store
    }

    /// Consumes the wrapper, returning the in-memory store.
    pub fn into_store(self) -> ResponseStore {
        self.store
    }

    /// Forces the journal's batched fsync now.
    pub fn sync(&mut self) -> io::Result<()> {
        self.journal.sync()
    }

    /// The first I/O error a journaled insert hit, if any. The sink keeps
    /// collecting in memory past the error (the crawl still completes);
    /// the caller decides whether a weakened durability guarantee is
    /// acceptable.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.io_error.as_ref()
    }

    fn journal_insert(&mut self, record: &StoreRecord) {
        let json = match serde_json::to_string(record) {
            Ok(j) => j,
            Err(e) => {
                self.remember_error(io::Error::new(io::ErrorKind::InvalidData, e));
                return;
            }
        };
        if let Err(e) = self.journal.append(json.as_bytes()) {
            self.remember_error(e);
        }
    }

    fn remember_error(&mut self, e: io::Error) {
        sift_obs::counter("sift_fetcher_durable_write_errors_total", &[]).inc();
        sift_obs::event(
            sift_obs::Level::Error,
            "fetcher.durable",
            "journaled insert failed; continuing in memory only",
            &[("error", serde_json::Value::Str(e.to_string()))],
        );
        if self.io_error.is_none() {
            self.io_error = Some(e);
        }
    }
}

/// What [`merge_journal_dirs`] recovered and folded together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalMergeReport {
    /// Durability directories merged.
    pub sources: usize,
    /// Journal records replayed, across sources.
    pub replayed: usize,
    /// Sources whose journal ended in a torn tail (truncated on open).
    pub torn_tails: usize,
    /// Entries where two sources held a response for the same key. For a
    /// deterministic service this is benign duplication from rerouted
    /// work — the responses are byte-identical — but the count is
    /// surfaced so a nondeterministic upstream can be caught.
    pub conflicts: usize,
}

/// Recovers each per-worker durability directory (journal replayed,
/// torn tails repaired) and merges them into one in-memory
/// [`ResponseStore`], as if a single process had journaled every fetch.
///
/// This is how a sharded crawl's per-worker journals (see `sift-cluster`)
/// become one store: merge order does not matter for a deterministic
/// service because duplicate keys carry identical payloads, and the
/// result equals the replay of one combined journal — the property pinned
/// by the proptest in `crates/fetcher/tests/merge_prop.rs`.
pub fn merge_journal_dirs(dirs: &[PathBuf]) -> io::Result<(ResponseStore, JournalMergeReport)> {
    let mut merged = ResponseStore::new();
    let mut report = JournalMergeReport {
        sources: dirs.len(),
        ..JournalMergeReport::default()
    };
    for dir in dirs {
        let (durable, resume) = DurableStore::open(dir)?;
        report.replayed += resume.replayed;
        report.torn_tails += usize::from(resume.torn_tail);
        let m = merged.merge(durable.into_store());
        report.conflicts += m.conflicts;
    }
    Ok((merged, report))
}

impl ResponseSink for DurableStore {
    fn insert_frame(&mut self, tag: u64, resp: FrameResponse) {
        let record = StoreRecord::Frame { tag, resp };
        self.journal_insert(&record);
        if let StoreRecord::Frame { tag, resp } = record {
            self.store.insert_frame(tag, resp);
        }
    }

    fn insert_rising(&mut self, len: u32, resp: RisingResponse) {
        let record = StoreRecord::Rising { len, resp };
        self.journal_insert(&record);
        if let StoreRecord::Rising { len, resp } = record {
            self.store.insert_rising(len, resp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_geo::State;
    use sift_journal::testutil::scratch_dir;
    use sift_journal::{CrashPlan, CrashSite};
    use sift_simtime::Hour;
    use sift_trends::api::RisingTerm;
    use sift_trends::SearchTerm;

    fn frame(state: State, start: i64, values: Vec<u8>) -> FrameResponse {
        FrameResponse {
            term: SearchTerm::parse("topic:Internet outage"),
            state,
            start: Hour(start),
            values,
        }
    }

    fn rising(state: State, start: i64) -> RisingResponse {
        RisingResponse {
            state,
            start: Hour(start),
            rising: vec![RisingTerm {
                term: "internet outage".into(),
                weight: 77,
            }],
        }
    }

    #[test]
    fn inserts_survive_reopen() {
        let dir = scratch_dir("durable_reopen");
        {
            let (mut d, report) = DurableStore::open(&dir).expect("open");
            assert_eq!(report, ResumeReport::default());
            d.insert_frame(0, frame(State::TX, 100, vec![1, 2, 3]));
            d.insert_rising(168, rising(State::TX, 100));
            assert!(d.io_error().is_none());
        }
        let (d, report) = DurableStore::open(&dir).expect("reopen");
        assert_eq!(report.replayed, 2);
        assert!(!report.torn_tail);
        assert_eq!(d.store().frame_count(), 1);
        assert_eq!(d.store().rising_count(), 1);
        assert_eq!(d.store().frames_for(State::TX, 0)[0].values, vec![1, 2, 3]);
        assert_eq!(d.store().rising_for(State::TX)[0].1.rising[0].weight, 77);
    }

    #[test]
    fn crash_mid_record_loses_only_the_insert_in_flight() {
        let dir = scratch_dir("durable_crash");
        let inj = Arc::new(CrashInjector::new(
            CrashPlan::nowhere().at(CrashSite::MidJournalRecord, 1),
        ));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut d, _) = DurableStore::open_with(&dir, Some(inj)).expect("open");
            d.insert_frame(0, frame(State::TX, 100, vec![1]));
            d.insert_frame(0, frame(State::TX, 200, vec![2])); // dies mid-record
        }))
        .is_err();
        assert!(crashed, "injected crash must fire");
        let (d, report) = DurableStore::open(&dir).expect("recovery");
        assert!(report.torn_tail);
        assert_eq!(report.replayed, 1);
        assert_eq!(
            d.store().frame_count(),
            1,
            "only the in-flight insert is lost"
        );
        assert!(d.store().frames_for(State::TX, 0)[0].start == Hour(100));
    }
}
