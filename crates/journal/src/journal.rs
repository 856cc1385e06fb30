//! The append-only write-ahead journal.
//!
//! One file, a sequence of CRC-framed records (see [`crate::record`]).
//! Appends go straight to the OS via `write_all` — so a process kill
//! loses at most the record in flight — while `fsync` is batched (every
//! `sync_every` appends, plus explicit [`Journal::sync`] calls) because
//! it only guards against power loss, not process death, and costs
//! milliseconds per call.
//!
//! Recovery on [`Journal::open`] walks the file from the start and
//! truncates at the first invalid frame: a torn tail from a mid-record
//! crash, or a corrupt record, can never be replayed as data. The
//! replayed payloads and what was cut are reported in [`Recovery`] and
//! the `sift_journal_*` metrics.

use crate::record::{self, Decoded};
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Default append count between automatic fsyncs.
pub const DEFAULT_SYNC_EVERY: u64 = 32;

/// What [`Journal::open`] found on disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every valid record's payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Whether the file ended in an invalid frame that was cut off.
    pub torn_tail: bool,
    /// How many bytes the truncation removed.
    pub truncated_bytes: u64,
}

/// An open write-ahead journal file.
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
    sync_every: u64,
    unsynced: u64,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`, recovering any
    /// existing records and truncating a torn or corrupt tail.
    pub fn open(path: &Path) -> io::Result<(Journal, Recovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;

        let mut recovery = Recovery::default();
        let mut offset = 0usize;
        loop {
            match record::decode(&bytes, offset) {
                Decoded::Record { payload, next } => {
                    recovery.records.push(payload.to_vec());
                    offset = next;
                }
                Decoded::End => break,
                Decoded::Invalid => {
                    recovery.torn_tail = true;
                    recovery.truncated_bytes =
                        u64::try_from(bytes.len() - offset).unwrap_or(u64::MAX);
                    break;
                }
            }
        }
        if recovery.torn_tail {
            file.set_len(u64::try_from(offset).unwrap_or(0))?;
            file.sync_all()?;
            sift_obs::counter("sift_journal_torn_tail_truncated_total", &[]).inc();
        }
        sift_obs::counter("sift_journal_records_replayed_total", &[])
            .add(u64::try_from(recovery.records.len()).unwrap_or(0));

        Ok((
            Journal {
                file,
                path: path.to_owned(),
                sync_every: DEFAULT_SYNC_EVERY,
                unsynced: 0,
            },
            recovery,
        ))
    }

    /// Sets the fsync batching interval (1 = fsync every record).
    pub fn set_sync_every(&mut self, every: u64) {
        self.sync_every = every.max(1);
    }

    /// Appends one record. The frame reaches the OS before this returns
    /// (crash-after-append loses nothing); fsync happens per the batch
    /// interval.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.file.write_all(&record::encode(payload))?;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces the batched fsync now.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_all()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Empties the journal — called once a checkpoint durably subsumes
    /// every record in it.
    pub fn truncate_all(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{scratch_dir, wal_cuts};

    fn reopen(path: &Path) -> Recovery {
        Journal::open(path).expect("reopen").1
    }

    #[test]
    fn appends_recover_in_order() {
        let dir = scratch_dir("journal_order");
        let path = dir.join("wal.bin");
        {
            let (mut j, rec) = Journal::open(&path).expect("open");
            assert!(rec.records.is_empty());
            j.append(b"one").expect("append");
            j.append(b"two").expect("append");
            j.append(b"three").expect("append");
        }
        let rec = reopen(&path);
        assert_eq!(
            rec.records,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        assert!(!rec.torn_tail);
    }

    /// Every state a crash can leave the file in, a record boundary or
    /// a cut inside a record, recovers its whole records, cuts the torn
    /// rest, and takes appends again.
    #[test]
    fn every_cut_recovers_its_whole_records_and_heals() {
        let dir = scratch_dir("journal_cuts");
        let path = dir.join("wal.bin");
        let written = [
            b"record-0".to_vec(),
            b"record-1".to_vec(),
            b"record-2".to_vec(),
        ];
        {
            let (mut j, _) = Journal::open(&path).expect("open");
            for payload in &written {
                j.append(payload).expect("append");
            }
        }
        let wal = std::fs::read(&path).expect("read");
        let cuts = wal_cuts(&wal);
        assert_eq!(cuts.len(), 2 * written.len() + 1);
        for cut in cuts {
            std::fs::write(&path, &wal[..cut.len]).expect("cut");
            let rec = reopen(&path);
            assert_eq!(rec.records, written[..cut.records], "{cut:?}");
            assert_eq!(rec.torn_tail, cut.torn, "{cut:?}");
            let whole = cut.records * (record::HEADER_LEN + b"record-0".len());
            assert_eq!(rec.truncated_bytes, (cut.len - whole) as u64, "{cut:?}");
            // The truncation healed the file: the next record lands right
            // after the last whole one.
            let (mut j, _) = Journal::open(&path).expect("reopen for append");
            j.append(b"retry").expect("append");
            drop(j);
            let rec = reopen(&path);
            assert_eq!(rec.records.len(), cut.records + 1, "{cut:?}");
            assert!(!rec.torn_tail, "{cut:?}");
        }
    }

    #[test]
    fn corrupt_middle_record_truncates_from_there() {
        let dir = scratch_dir("journal_corrupt");
        let path = dir.join("wal.bin");
        {
            let (mut j, _) = Journal::open(&path).expect("open");
            j.append(b"keep-me").expect("append");
            j.append(b"flip-me").expect("append");
            j.append(b"after-the-flip").expect("append");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a payload bit inside the second record.
        let second_payload_start = 2 * record::HEADER_LEN + b"keep-me".len();
        bytes[second_payload_start] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corrupt");

        let rec = reopen(&path);
        assert_eq!(rec.records, vec![b"keep-me".to_vec()]);
        assert!(rec.torn_tail);
    }

    #[test]
    fn truncate_all_empties_the_journal() {
        let dir = scratch_dir("journal_truncate");
        let path = dir.join("wal.bin");
        let (mut j, _) = Journal::open(&path).expect("open");
        j.append(b"ephemeral").expect("append");
        j.truncate_all().expect("truncate");
        j.append(b"fresh").expect("append");
        drop(j);
        let rec = reopen(&path);
        assert_eq!(rec.records, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn sync_batching_is_configurable() {
        let dir = scratch_dir("journal_sync");
        let path = dir.join("wal.bin");
        let (mut j, _) = Journal::open(&path).expect("open");
        j.set_sync_every(1);
        for i in 0..10u8 {
            j.append(&[i]).expect("append");
        }
        j.sync().expect("sync");
        drop(j);
        assert_eq!(reopen(&path).records.len(), 10);
    }
}
