//! Mutated checkpoints and WAL records never panic the daemon.
//!
//! A real region checkpoint is mutated and re-framed with
//! `write_checkpoint`, and the WAL record the region really left behind
//! it is mutated and re-appended through a `Journal`, so every CRC
//! passes and the mutation reaches the decoder and the restore and
//! replay paths instead of being rejected as corruption. The checkpoint
//! payload is the tag `RGN1`, the head's length as a `u32`, the binary
//! head (ending in the spike count) and a table of 32-byte spike rows.
//! Some mutations land anywhere: random byte flips, a truncation or
//! inserted bytes. The rest aim: flips inside the head (which mostly
//! land in a snapshot's `f64`s, keep the head decodable and so reach
//! restore and replay), a head length moved a few bytes, bit flips
//! inside the table, a table length that is not a multiple of 32, and a
//! spike count one off. A WAL record is flipped, cut, grown, or moved to
//! the plan index before or after its own. `Daemon::start` must then
//! either recover (`Ok`) or refuse the directory with `InvalidData`,
//! within a bounded time: never panic, never hang.

mod common;

use common::world;
use proptest::prelude::*;
use sift::geo::State;
use sift::journal::testutil::scratch_dir;
use sift::journal::{read_checkpoint, write_checkpoint, Journal};
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

/// TX's checkpoint payload and WAL records after ingesting the whole
/// plan (nine frames, a checkpoint every four: one record stays in the
/// WAL).
fn source() -> &'static (Vec<u8>, Vec<Vec<u8>>) {
    static SOURCE: OnceLock<(Vec<u8>, Vec<Vec<u8>>)> = OnceLock::new();
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
        let (_, wal) = Journal::open(&region.join("region.wal")).expect("open wal");
        assert_eq!(wal.records.len(), 1, "TX left one WAL record");
        let (_, table) = parts(&payload).expect("a head and a table");
        assert!(table < payload.len(), "TX checkpointed spikes");
        (payload, wal.records)
    })
}

/// One edit of the checkpoint payload. Positions are taken modulo the
/// length of what they edit: the payload, its head (`HeadFlip`) or its
/// spike table (`TableFlip`, `TableRagged`). `HeadLen` moves the head's
/// length field by `delta` bytes; `TableRagged` inserts `n` (1–31)
/// bytes into the table, or cuts as many off its end, so it no longer
/// holds a whole number of rows; `CountOff` moves the head's spike count
/// one up or down.
#[derive(Clone, Debug)]
enum Mutation {
    Flip { at: usize, mask: u8 },
    Truncate { to: usize },
    Insert { at: usize, byte: u8 },
    HeadFlip { at: usize, mask: u8 },
    HeadLen { delta: i8 },
    TableFlip { at: usize, mask: u8 },
    TableRagged { at: usize, n: usize, cut: bool },
    CountOff { up: bool },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        any::<usize>().prop_map(|to| Mutation::Truncate { to }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Insert { at, byte }),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::HeadFlip { at, mask }),
        prop_oneof![-4i8..0, 1i8..5].prop_map(|delta| Mutation::HeadLen { delta }),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::TableFlip { at, mask }),
        (any::<usize>(), 1usize..32, any::<bool>())
            .prop_map(|(at, n, cut)| Mutation::TableRagged { at, n, cut }),
        any::<bool>().prop_map(|up| Mutation::CountOff { up }),
    ]
}

/// One edit of a WAL record: flip, cut or grow it anywhere, or move its
/// plan index (the 8 bytes after the tag byte) one down or up.
#[derive(Clone, Debug)]
enum RecordMutation {
    Flip { at: usize, mask: u8 },
    Truncate { to: usize },
    Insert { at: usize, byte: u8 },
    IdxOff { up: bool },
}

fn record_mutation() -> impl Strategy<Value = RecordMutation> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| RecordMutation::Flip { at, mask }),
        any::<usize>().prop_map(|to| RecordMutation::Truncate { to }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| RecordMutation::Insert { at, byte }),
        any::<bool>().prop_map(|up| RecordMutation::IdxOff { up }),
    ]
}

/// Where the head and the spike table start (the head's length field
/// permitting): after the 4-byte tag and 4-byte length, and after the
/// head. `None` once an edit cut into the length field or made it run
/// past the end.
fn parts(bytes: &[u8]) -> Option<(usize, usize)> {
    let field = bytes.get(4..8)?;
    let len = u32::from_le_bytes(field.try_into().ok()?) as usize;
    let table = 8usize.checked_add(len).filter(|&t| t <= bytes.len())?;
    Some((8, table))
}

/// `bytes[at..at + 8]` as a little-endian `u64` moved one up or down.
fn word_off(bytes: &mut [u8], at: usize, up: bool) {
    if let Some(word) = bytes.get_mut(at..at + 8) {
        let n = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let n = if up {
            n.wrapping_add(1)
        } else {
            n.wrapping_sub(1)
        };
        word.copy_from_slice(&n.to_le_bytes());
    }
}

fn mutate(payload: &[u8], edits: &[Mutation]) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    for edit in edits {
        let len = bytes.len();
        let (head, table) = parts(&bytes).unwrap_or((len, len));
        let (head_len, table_len) = (table - head, len - table);
        match *edit {
            Mutation::Flip { at, mask } if len > 0 => bytes[at % len] ^= mask,
            Mutation::Truncate { to } => bytes.truncate(to % (len + 1)),
            Mutation::Insert { at, byte } => bytes.insert(at % (len + 1), byte),
            Mutation::HeadFlip { at, mask } if head_len > 0 => bytes[head + at % head_len] ^= mask,
            Mutation::HeadLen { delta } if len >= 8 => {
                let field: [u8; 4] = bytes[4..8].try_into().expect("4 bytes");
                let moved = u32::from_le_bytes(field).wrapping_add_signed(i32::from(delta));
                bytes[4..8].copy_from_slice(&moved.to_le_bytes());
            }
            Mutation::TableFlip { at, mask } if table_len > 0 => {
                bytes[table + at % table_len] ^= mask;
            }
            Mutation::TableRagged { n, cut: true, .. } => bytes.truncate(len - n.min(table_len)),
            Mutation::TableRagged { at, n, cut: false } => {
                let at = table + at % (table_len + 1);
                bytes.splice(at..at, vec![0xA5; n]);
            }
            Mutation::CountOff { up } if head_len >= 8 => word_off(&mut bytes, table - 8, up),
            Mutation::Flip { .. }
            | Mutation::HeadFlip { .. }
            | Mutation::HeadLen { .. }
            | Mutation::TableFlip { .. }
            | Mutation::CountOff { .. } => {}
        }
    }
    bytes
}

fn mutate_record(record: &[u8], edits: &[RecordMutation]) -> Vec<u8> {
    let mut bytes = record.to_vec();
    for edit in edits {
        let len = bytes.len();
        match *edit {
            RecordMutation::Flip { at, mask } if len > 0 => bytes[at % len] ^= mask,
            RecordMutation::Flip { .. } => {}
            RecordMutation::Truncate { to } => bytes.truncate(to % (len + 1)),
            RecordMutation::Insert { at, byte } => bytes.insert(at % (len + 1), byte),
            RecordMutation::IdxOff { up } => word_off(&mut bytes, 1, up),
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

    /// Whatever the mutations, the daemon recovers or refuses with
    /// `InvalidData`.
    #[test]
    fn a_mutated_checkpoint_is_recovered_or_refused(
        edits in proptest::collection::vec(mutation(), 0..4),
        record_edits in proptest::collection::vec(record_mutation(), 0..3),
    ) {
        let (payload, records) = source();
        let dir = scratch_dir("serve_mutation");
        let region = dir.join("TX");
        std::fs::create_dir_all(&region).expect("region dir");
        write_checkpoint(&region.join("region.ckpt"), &mutate(payload, &edits), None)
            .expect("write checkpoint");
        let (mut wal, _) = Journal::open(&region.join("region.wal")).expect("open wal");
        for record in records {
            wal.append(&mutate_record(record, &record_edits)).expect("append record");
        }
        drop(wal);
        if let Err(e) = start_within_a_minute(dir.to_path_buf()) {
            prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e);
        }
    }
}
