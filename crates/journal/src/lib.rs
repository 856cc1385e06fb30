//! sift-journal: crash-safe durability for long-running crawls.
//!
//! The paper's collection workload is weeks of HTTP fetches; losing the
//! responses fetched so far to a process crash means re-crawling from
//! scratch. Three state machines journal through it — a study's
//! per-region response log (`sift_core::RegionJournal`), the cluster
//! coordinator's table and the daemon's regions. This crate provides the three primitives that make a crawl
//! resumable, and the harness that proves they work:
//!
//! * [`Journal`] — an append-only, CRC32-framed, fsync-batched
//!   write-ahead log. Recovery walks the file and truncates at the first
//!   invalid frame, so a torn tail from a mid-record crash is cut, never
//!   replayed.
//! * [`write_checkpoint`] / [`read_checkpoint`] — atomic snapshots
//!   installed via write-temp → fsync → rename → fsync-dir
//!   ([`write_atomic`]); a reader sees a complete old snapshot or a
//!   complete new one, never a mix. A checkpoint subsumes and empties the
//!   journal.
//! * [`codec::Reader`] — reads back the fixed-layout little-endian
//!   payloads a program journals and checkpoints for itself, refusing a
//!   short or over-long one as `InvalidData`.
//! * [`testutil::wal_cuts`] — the crash states of a journal, built from
//!   the finished file: a journal is append-only, so a crash leaves a
//!   prefix of it, cut at a record boundary or inside a record.
//! * [`CrashInjector`] — crash injection at the two checkpoint
//!   boundaries ([`CrashSite`]), which no file prefix can stand for.
//!
//! The invariant the rest of the workspace builds on: **crawl → crash at
//! any point → resume → identical result to an uninterrupted same-seed
//! run**, with only the record in flight at the crash ever re-fetched.
//!
//! Recovery telemetry flows through `sift-obs`:
//! `sift_journal_records_replayed_total`,
//! `sift_journal_torn_tail_truncated_total`,
//! `sift_journal_checkpoint_age_seconds` (0 after each
//! [`write_checkpoint`]; a daemon start sets it from [`checkpoint_age`]
//! to the age of the oldest checkpoint it recovered, whatever order its
//! regions finished opening in),
//! `sift_journal_checkpoint_corrupt_total`.

pub mod atomic;
pub mod checkpoint;
pub mod codec;
pub mod crash;
pub mod crc;
pub mod journal;
pub mod record;
pub mod testutil;

pub use atomic::{tmp_path, write_atomic};
pub use checkpoint::{checkpoint_age, read_checkpoint, write_checkpoint};
pub use crash::{CrashInjector, CrashSite};
pub use crc::crc32;
pub use journal::{Journal, Recovery};
