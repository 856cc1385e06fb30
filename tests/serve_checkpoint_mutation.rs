//! Mutated checkpoints never panic the daemon.
//!
//! A real region checkpoint is mutated — random byte flips, a
//! truncation, inserted bytes, or a changed digit (which mostly keeps
//! the JSON valid and so reaches restore and replay) — and re-framed with
//! `write_checkpoint`, so the CRC passes and the mutation reaches the
//! JSON decoder and the restore path instead of being rejected as
//! corruption. Beside it sits the WAL tail the region really left, so a
//! checkpoint that decodes is replayed onto. `Daemon::start` must then
//! either recover (`Ok`) or refuse the directory with `InvalidData`,
//! within a bounded time: never panic, never hang.

mod common;

use common::world;
use proptest::prelude::*;
use sift::geo::State;
use sift::journal::testutil::scratch_dir;
use sift::journal::{read_checkpoint, write_checkpoint};
use sift::serve::{Daemon, ServeConfig};
use sift::simtime::{Hour, HourRange, SimClock};
use sift::trends::{SearchTerm, TrendsClient, TrendsService};
use std::io;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

const RANGE_END: i64 = 800;

fn serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(
        SearchTerm::parse("topic:Internet outage"),
        vec![State::TX],
        HourRange::new(Hour(0), Hour(RANGE_END)),
    );
    cfg.workers = 1;
    cfg
}

fn upstream() -> Arc<dyn TrendsClient> {
    Arc::new(TrendsService::with_defaults(world(&[State::TX])))
}

/// TX's checkpoint payload and WAL file after ingesting the whole plan
/// (nine frames, a checkpoint every four: one record stays in the WAL).
fn source() -> &'static (Vec<u8>, Vec<u8>) {
    static SOURCE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    SOURCE.get_or_init(|| {
        let dir = scratch_dir("serve_mutation_source");
        let clock = Arc::new(SimClock::new(Hour(RANGE_END)));
        let daemon = Daemon::start(serve_config(), upstream(), clock, &dir).expect("start");
        assert!(daemon.wait_caught_up(Duration::from_secs(60)), "caught up");
        daemon.shutdown();
        let region = dir.join("TX");
        let payload = read_checkpoint(&region.join("region.ckpt"))
            .expect("read checkpoint")
            .expect("TX checkpointed");
        let wal = std::fs::read(region.join("region.wal")).expect("read wal");
        assert!(!wal.is_empty(), "TX left a WAL tail");
        (payload, wal)
    })
}

/// One edit of the payload; positions are taken modulo its length
/// (for `Digit`, modulo its count of ASCII digits).
#[derive(Clone, Debug)]
enum Mutation {
    Flip { at: usize, mask: u8 },
    Truncate { to: usize },
    Insert { at: usize, byte: u8 },
    Digit { nth: usize, digit: u8 },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        any::<usize>().prop_map(|to| Mutation::Truncate { to }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Insert { at, byte }),
        (any::<usize>(), b'0'..=b'9').prop_map(|(nth, digit)| Mutation::Digit { nth, digit }),
    ]
}

fn mutate(payload: &[u8], edits: &[Mutation]) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    for edit in edits {
        let len = bytes.len();
        match *edit {
            Mutation::Flip { at, mask } if len > 0 => bytes[at % len] ^= mask,
            Mutation::Flip { .. } => {}
            Mutation::Truncate { to } => bytes.truncate(to % (len + 1)),
            Mutation::Insert { at, byte } => bytes.insert(at % (len + 1), byte),
            Mutation::Digit { nth, digit } => {
                let digits = bytes.iter().filter(|b| b.is_ascii_digit()).count();
                if let Some(b) = bytes
                    .iter_mut()
                    .filter(|b| b.is_ascii_digit())
                    .nth(nth % digits.max(1))
                {
                    *b = digit;
                }
            }
        }
    }
    bytes
}

/// Starts a daemon on `dir` on a helper thread and waits at most a
/// minute for `Daemon::start` to return. The clock stands at hour 0, so
/// a daemon that does start has no frame to fetch.
fn start_within_a_minute(dir: PathBuf) -> io::Result<()> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let clock = Arc::new(SimClock::new(Hour(0)));
        let started = Daemon::start(serve_config(), upstream(), clock, &dir).map(Daemon::shutdown);
        // The receiver is gone only if the test already failed.
        let _ = tx.send(started);
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(started) => started,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("Daemon::start hung"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("Daemon::start panicked"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the mutation, the daemon recovers or refuses with
    /// `InvalidData`.
    #[test]
    fn a_mutated_checkpoint_is_recovered_or_refused(
        edits in proptest::collection::vec(mutation(), 1..4),
    ) {
        let (payload, wal) = source();
        let dir = scratch_dir("serve_mutation");
        let region = dir.join("TX");
        std::fs::create_dir_all(&region).expect("region dir");
        write_checkpoint(&region.join("region.ckpt"), &mutate(payload, &edits), None)
            .expect("write checkpoint");
        std::fs::write(region.join("region.wal"), wal).expect("write wal");
        if let Err(e) = start_within_a_minute(dir) {
            prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e);
        }
    }
}
