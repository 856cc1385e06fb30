//! Mutated checkpoints never panic the daemon.
//!
//! A real region checkpoint is mutated and re-framed with
//! `write_checkpoint`, so the CRC passes and the mutation reaches the
//! decoder and the restore path instead of being rejected as corruption.
//! The payload is a JSON head, a newline and a table of 32-byte spike
//! rows. Some mutations land anywhere: random byte flips, a truncation,
//! inserted bytes, or a changed digit (which mostly keeps the head's
//! JSON valid and so reaches restore and replay). The rest aim at the
//! table: bit flips inside it, a length that is not a multiple of 32,
//! and a spike count one off. Beside the checkpoint sits the WAL tail the
//! region really left, so a checkpoint that decodes is replayed onto.
//! `Daemon::start` must then either recover (`Ok`) or refuse the
//! directory with `InvalidData`, within a bounded time: never panic,
//! never hang.

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
        let table = table_start(&payload).expect("a spike table");
        assert!(table < payload.len(), "TX checkpointed spikes");
        (payload, wal)
    })
}

/// One edit of the payload. Positions are taken modulo the length of
/// what they edit: the payload, its count of ASCII digits (`Digit`) or
/// its spike table (`TableFlip`, `TableRagged`). `TableRagged` inserts
/// `n` (1–31) bytes into the table, or cuts as many off its end, so it
/// no longer holds a whole number of rows; `CountOff` moves the head's
/// spike count one up or down.
#[derive(Clone, Debug)]
enum Mutation {
    Flip { at: usize, mask: u8 },
    Truncate { to: usize },
    Insert { at: usize, byte: u8 },
    Digit { nth: usize, digit: u8 },
    TableFlip { at: usize, mask: u8 },
    TableRagged { at: usize, n: usize, cut: bool },
    CountOff { up: bool },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        any::<usize>().prop_map(|to| Mutation::Truncate { to }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Insert { at, byte }),
        (any::<usize>(), b'0'..=b'9').prop_map(|(nth, digit)| Mutation::Digit { nth, digit }),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::TableFlip { at, mask }),
        (any::<usize>(), 1usize..32, any::<bool>())
            .prop_map(|(at, n, cut)| Mutation::TableRagged { at, n, cut }),
        any::<bool>().prop_map(|up| Mutation::CountOff { up }),
    ]
}

/// Where the spike table starts: one past the first newline.
fn table_start(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'\n').map(|i| i + 1)
}

fn mutate(payload: &[u8], edits: &[Mutation]) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    for edit in edits {
        let len = bytes.len();
        let table = table_start(&bytes).unwrap_or(len);
        let table_len = len - table;
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
            Mutation::TableFlip { at, mask } if table_len > 0 => {
                bytes[table + at % table_len] ^= mask;
            }
            Mutation::TableFlip { .. } => {}
            Mutation::TableRagged { n, cut: true, .. } => bytes.truncate(len - n.min(table_len)),
            Mutation::TableRagged { at, n, cut: false } => {
                let at = table + at % (table_len + 1);
                bytes.splice(at..at, vec![0xA5; n]);
            }
            Mutation::CountOff { up } => bytes = count_off(&bytes, up),
        }
    }
    bytes
}

/// `bytes` with the head's `"spikes":N` moved to N ± 1 (unchanged if
/// an earlier edit broke the field).
fn count_off(bytes: &[u8], up: bool) -> Vec<u8> {
    const FIELD: &[u8] = b",\"spikes\":";
    let head = &bytes[..table_start(bytes).unwrap_or(bytes.len())];
    let Some(at) = head.windows(FIELD.len()).rposition(|w| w == FIELD) else {
        return bytes.to_vec();
    };
    let digits_at = at + FIELD.len();
    let digits = head[digits_at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    let Some(count) = std::str::from_utf8(&head[digits_at..digits_at + digits])
        .ok()
        .and_then(|d| d.parse::<u64>().ok())
    else {
        return bytes.to_vec();
    };
    let count = if up {
        count + 1
    } else {
        count.saturating_sub(1)
    };
    let mut out = bytes[..digits_at].to_vec();
    out.extend_from_slice(count.to_string().as_bytes());
    out.extend_from_slice(&bytes[digits_at + digits..]);
    out
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
        if let Err(e) = start_within_a_minute(dir.to_path_buf()) {
            prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e);
        }
    }
}
