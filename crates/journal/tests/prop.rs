//! Property tests for the durability layer.
//!
//! The two invariants that make resume trustworthy:
//!
//! 1. **Truncation-safety**: for an arbitrary record sequence, cutting
//!    the journal file at *every* byte offset yields, on recovery, an
//!    exact prefix of the original records — never a panic, never a
//!    garbage record, and `torn_tail` is reported iff the cut missed a
//!    record boundary. This is the byte-level statement of "a crash can
//!    only lose the record in flight".
//! 2. **Composition**: a checkpoint of the first `k` operations plus a
//!    journal of the rest recovers to exactly the same state as a pure
//!    replay of all operations — so compaction never changes what resume
//!    sees.
//!
//! Beyond crashes, byte damage of any kind (flips, cuts and inserted
//! bytes, several at once) recovers the records in front of the first
//! damaged byte and nothing else.

use proptest::prelude::*;
use sift_journal::record::HEADER_LEN;
use sift_journal::testutil::scratch_dir;
use sift_journal::{read_checkpoint, write_checkpoint, Journal};
use std::collections::BTreeMap;

/// Writes `records` through a real journal and returns the file bytes.
fn journal_bytes(dir: &std::path::Path, records: &[Vec<u8>]) -> Vec<u8> {
    let path = dir.join("wal.bin");
    let (mut j, _) = Journal::open(&path).expect("open journal");
    for r in records {
        j.append(r).expect("append");
    }
    j.sync().expect("sync");
    drop(j);
    std::fs::read(&path).expect("read back")
}

/// The byte offset at which record `i` ends (offset 0 = before any).
fn boundaries(records: &[Vec<u8>]) -> Vec<usize> {
    let mut out = vec![0];
    let mut off = 0;
    for r in records {
        off += HEADER_LEN + r.len();
        out.push(off);
    }
    out
}

proptest! {
    /// Cutting the journal at every byte offset recovers the longest
    /// record prefix that fits entirely below the cut, flags a torn tail
    /// exactly when the cut is mid-record, and leaves the healed file
    /// appendable.
    #[test]
    fn truncation_at_every_offset_yields_a_valid_prefix(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40),
            0..10,
        ),
    ) {
        let dir = scratch_dir("prop_truncate");
        let bytes = journal_bytes(&dir, &records);
        let bounds = boundaries(&records);
        prop_assert_eq!(*bounds.last().expect("non-empty"), bytes.len());

        let cut_path = dir.join("cut.bin");
        for cut in 0..=bytes.len() {
            std::fs::write(&cut_path, &bytes[..cut]).expect("stage cut file");
            let (mut j, rec) = Journal::open(&cut_path).expect("recovery must not error");
            // The recovered records are the longest whole-record prefix.
            let keep = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            prop_assert_eq!(
                &rec.records, &records[..keep],
                "cut at byte {} of {}", cut, bytes.len()
            );
            let at_boundary = bounds.contains(&cut);
            prop_assert_eq!(rec.torn_tail, !at_boundary, "cut at byte {}", cut);
            if rec.torn_tail {
                prop_assert_eq!(rec.truncated_bytes, (cut - bounds[keep]) as u64);
            }
            // The truncated file must accept appends and recover cleanly.
            j.append(b"post-recovery").expect("append after recovery");
            drop(j);
            let (_, rec2) = Journal::open(&cut_path).expect("second recovery");
            prop_assert_eq!(rec2.records.len(), keep + 1);
            prop_assert!(!rec2.torn_tail);
        }
    }

    /// A single flipped bit anywhere in record `j`'s frame truncates
    /// recovery to exactly the records before it.
    #[test]
    fn bit_flip_truncates_at_the_damaged_record(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..32),
            1..8,
        ),
        flip_pos_seed in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let dir = scratch_dir("prop_flip");
        let mut bytes = journal_bytes(&dir, &records);
        let flip_pos = flip_pos_seed % bytes.len();
        bytes[flip_pos] ^= 1 << flip_bit;
        let path = dir.join("flipped.bin");
        std::fs::write(&path, &bytes).expect("stage flipped file");

        let bounds = boundaries(&records);
        // The record whose frame contains the flipped byte.
        let damaged = bounds.iter().filter(|&&b| b <= flip_pos).count() - 1;
        let (_, rec) = Journal::open(&path).expect("recovery must not error");
        prop_assert_eq!(&rec.records, &records[..damaged]);
        prop_assert!(rec.torn_tail);
    }

    /// Flips, truncations and insertions, up to four at once, anywhere
    /// in a real multi-record journal: `Journal::open` recovers exactly
    /// the records that lie wholly in front of the first byte that
    /// differs from the undamaged file (or fails), the file it leaves
    /// recovers the same again, and a record with a bad CRC is never
    /// returned.
    #[test]
    fn byte_damage_recovers_the_records_before_it(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48),
            2..8,
        ),
        edits in proptest::collection::vec(damage(), 1..5),
    ) {
        let dir = scratch_dir("prop_damage");
        let bytes = journal_bytes(&dir, &records);
        let mut damaged = bytes.clone();
        for edit in &edits {
            edit.apply(&mut damaged);
        }
        let path = dir.join("damaged.bin");
        std::fs::write(&path, &damaged).expect("stage damaged file");

        let intact = bytes
            .iter()
            .zip(&damaged)
            .take_while(|(a, b)| a == b)
            .count();
        let keep = boundaries(&records).iter().filter(|&&b| b <= intact).count() - 1;
        let Ok((journal, rec)) = Journal::open(&path) else {
            return Ok(());
        };
        drop(journal);
        prop_assert_eq!(&rec.records, &records[..keep], "{:?}", edits);
        let (_, again) = Journal::open(&path).expect("reopen the healed file");
        prop_assert_eq!(&again.records, &records[..keep]);
        prop_assert!(!again.torn_tail);
    }

    /// Checkpoint(first k ops) + journal(remaining ops) recovers to the
    /// same map as replaying every op from scratch.
    #[test]
    fn checkpoint_plus_journal_composes_to_pure_replay(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..40),
        split_seed in any::<usize>(),
    ) {
        let split = split_seed % (ops.len() + 1);
        let dir = scratch_dir("prop_compose");

        // Pure replay: every op applied in order.
        let mut want = BTreeMap::new();
        for &(k, v) in &ops {
            want.insert(k, v);
        }

        // Compacted: ops[..split] snapshotted, ops[split..] journaled.
        let mut snapshot = BTreeMap::new();
        for &(k, v) in &ops[..split] {
            snapshot.insert(k, v);
        }
        let ckpt_path = dir.join("ckpt.bin");
        write_checkpoint(&ckpt_path, &encode_map(&snapshot), None).expect("checkpoint");
        let wal_path = dir.join("wal.bin");
        let (mut j, _) = Journal::open(&wal_path).expect("open");
        for &(k, v) in &ops[split..] {
            j.append(&encode_op(k, v)).expect("append");
        }
        drop(j);

        // Recovery: decode checkpoint, replay journal over it.
        let mut got = decode_map(
            &read_checkpoint(&ckpt_path).expect("read").expect("present"),
        );
        let (_, rec) = Journal::open(&wal_path).expect("reopen");
        for payload in &rec.records {
            let (k, v) = decode_op(payload);
            got.insert(k, v);
        }
        prop_assert_eq!(got, want);
    }
}

/// One edit of a journal file. Positions are taken modulo the length
/// of the file as the earlier edits left it.
#[derive(Clone, Debug)]
enum Damage {
    Flip { at: usize, mask: u8 },
    Truncate { to: usize },
    Insert { at: usize, bytes: Vec<u8> },
}

impl Damage {
    fn apply(&self, file: &mut Vec<u8>) {
        let len = file.len();
        match self {
            Damage::Flip { at, mask } if len > 0 => file[at % len] ^= mask,
            Damage::Flip { .. } => {}
            Damage::Truncate { to } => file.truncate(to % (len + 1)),
            Damage::Insert { at, bytes } => {
                let at = at % (len + 1);
                file.splice(at..at, bytes.iter().copied());
            }
        }
    }
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::Flip { at, mask }),
        any::<usize>().prop_map(|to| Damage::Truncate { to }),
        (
            any::<usize>(),
            proptest::collection::vec(any::<u8>(), 1..12)
        )
            .prop_map(|(at, bytes)| Damage::Insert { at, bytes }),
    ]
}

fn encode_op(k: u8, v: u32) -> Vec<u8> {
    let mut out = vec![k];
    out.extend_from_slice(&v.to_le_bytes());
    out
}

fn decode_op(bytes: &[u8]) -> (u8, u32) {
    assert_eq!(bytes.len(), 5, "op framing");
    (
        bytes[0],
        u32::from_le_bytes(bytes[1..5].try_into().expect("4-byte value")),
    )
}

fn encode_map(map: &BTreeMap<u8, u32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(map.len() * 5);
    for (&k, &v) in map {
        out.extend_from_slice(&encode_op(k, v));
    }
    out
}

fn decode_map(bytes: &[u8]) -> BTreeMap<u8, u32> {
    assert_eq!(bytes.len() % 5, 0, "snapshot framing");
    let mut map = BTreeMap::new();
    for chunk in bytes.chunks_exact(5) {
        let (k, v) = decode_op(chunk);
        map.insert(k, v);
    }
    map
}
