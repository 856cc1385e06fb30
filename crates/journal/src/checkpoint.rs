//! Atomic snapshot checkpoints: `[magic][len][crc][payload]` installed
//! via temp + rename.
//!
//! A checkpoint compacts the journal: once a snapshot of the full state
//! is durably installed, every journal record it subsumes can be
//! dropped. Because installation goes through [`write_atomic`], a reader
//! only ever sees a complete old checkpoint or a complete new one; the
//! CRC frame is defence in depth against disk-level corruption, not
//! against torn writes.

use crate::atomic::write_atomic;
use crate::crash::CrashInjector;
use crate::crc::crc32;
use crate::record;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::time::Duration;

/// Leading magic identifying (and versioning) a checkpoint file.
pub const MAGIC: &[u8; 8] = b"SIFTCKP1";

/// Durably installs `payload` as the checkpoint at `path`.
pub fn write_checkpoint(
    path: &Path,
    payload: &[u8],
    crash: Option<&CrashInjector>,
) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(MAGIC.len() + record::HEADER_LEN + payload.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&record::encode(payload));
    write_atomic(path, &bytes, crash)?;
    sift_obs::gauge("sift_journal_checkpoint_age_seconds", &[]).set(0);
    Ok(())
}

/// Reads the checkpoint at `path`. `Ok(None)` means "no usable
/// checkpoint": the file is absent, or it fails validation — which the
/// atomic install protocol makes possible only through disk-level
/// corruption, so it is reported and treated as absence rather than
/// trusted or fatal. The frame is read first and the payload straight
/// into a buffer of its own length: no copy, no shift and no zero-fill.
pub fn read_checkpoint(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut frame = [0; MAGIC.len() + record::HEADER_LEN];
    let size = file.metadata()?.len();
    let header = match file.read_exact(&mut frame) {
        Ok(()) if frame.starts_with(MAGIC) => record::parse_header(&frame[MAGIC.len()..]),
        Ok(()) => None,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => None,
        Err(e) => return Err(e),
    };
    // The file must end where the payload does.
    let Some((len, crc)) = header
        .filter(|&(len, _)| u64::try_from(frame.len() + len).is_ok_and(|whole| whole == size))
    else {
        report_corrupt();
        return Ok(None);
    };
    // Read into spare capacity: no zero-fill ahead of the read.
    let mut payload = Vec::with_capacity(len);
    file.take(u64::try_from(len).unwrap_or(u64::MAX))
        .read_to_end(&mut payload)?;
    if payload.len() == len && crc32(&payload) == crc {
        Ok(Some(payload))
    } else {
        report_corrupt();
        Ok(None)
    }
}

/// How long ago the checkpoint at `path` was installed, from its mtime;
/// `None` when the file or its mtime cannot be read. Uses the wall clock
/// by necessity: staleness across process restarts is a wall-clock
/// quantity. A reader that recovers state from checkpoints publishes
/// the result as `sift_journal_checkpoint_age_seconds` (the daemon: the
/// oldest of the checkpoints it recovered).
#[expect(clippy::disallowed_methods, reason = "checkpoint age is host time")]
pub fn checkpoint_age(path: &Path) -> Option<Duration> {
    let mtime = std::fs::metadata(path).and_then(|m| m.modified()).ok()?;
    Some(
        std::time::SystemTime::now()
            .duration_since(mtime)
            .unwrap_or(Duration::ZERO),
    )
}

fn report_corrupt() {
    sift_obs::counter("sift_journal_checkpoint_corrupt_total", &[]).inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashSite;
    use crate::testutil::{backdate, scratch_dir};

    #[test]
    fn round_trips() {
        let dir = scratch_dir("ckpt_roundtrip");
        let path = dir.join("ckpt.bin");
        assert_eq!(read_checkpoint(&path).expect("absent ok"), None);
        write_checkpoint(&path, b"snapshot-bytes", None).expect("write");
        assert_eq!(
            read_checkpoint(&path).expect("read"),
            Some(b"snapshot-bytes".to_vec())
        );
    }

    /// Ages follow each file's own mtime, so the older of two
    /// checkpoints reads older whichever is asked about first.
    #[test]
    fn age_follows_each_checkpoints_mtime() {
        let dir = scratch_dir("ckpt_age");
        let (young, old) = (dir.join("young.ckpt"), dir.join("old.ckpt"));
        assert_eq!(checkpoint_age(&young), None, "no file, no age");
        for (path, secs) in [(&young, 100), (&old, 1_000)] {
            write_checkpoint(path, b"snapshot", None).expect("write");
            backdate(path, Duration::from_secs(secs));
        }
        let age = |path| checkpoint_age(path).expect("age").as_secs();
        assert!((1_000..1_060).contains(&age(&old)), "{}", age(&old));
        assert!((100..160).contains(&age(&young)), "{}", age(&young));
    }

    #[test]
    fn corrupt_checkpoint_is_treated_as_absent() {
        let dir = scratch_dir("ckpt_corrupt");
        let path = dir.join("ckpt.bin");
        write_checkpoint(&path, b"snapshot", None).expect("write");
        let mut bytes = std::fs::read(&path).expect("read raw");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt in place");
        assert_eq!(read_checkpoint(&path).expect("read"), None);
        // Wrong magic entirely.
        std::fs::write(&path, b"NOTACKPT").expect("overwrite");
        assert_eq!(read_checkpoint(&path).expect("read"), None);
    }

    /// A checkpoint file cut inside its frame or payload, or with bytes
    /// after its payload, is no checkpoint.
    #[test]
    fn a_checkpoint_cut_short_or_run_long_is_treated_as_absent() {
        let dir = scratch_dir("ckpt_length");
        let path = dir.join("ckpt.bin");
        write_checkpoint(&path, b"snapshot", None).expect("write");
        let whole = std::fs::read(&path).expect("read raw");
        let mut damaged: Vec<Vec<u8>> = (0..whole.len()).map(|n| whole[..n].to_vec()).collect();
        damaged.push([whole.as_slice(), b"!"].concat());
        for bytes in damaged {
            write_atomic(&path, &bytes, None).expect("stage");
            assert_eq!(read_checkpoint(&path).expect("read"), None, "{bytes:?}");
        }
        write_atomic(&path, &whole, None).expect("restore");
        assert_eq!(
            read_checkpoint(&path).expect("read"),
            Some(b"snapshot".to_vec())
        );
    }

    #[test]
    fn crash_between_temp_and_rename_preserves_previous_checkpoint() {
        let dir = scratch_dir("ckpt_crash");
        let path = dir.join("ckpt.bin");
        write_checkpoint(&path, b"gen-1", None).expect("seed");
        let inj = CrashInjector::new(CrashSite::CheckpointTempWritten, 0);
        let crashed =
            std::panic::catch_unwind(|| write_checkpoint(&path, b"gen-2", Some(&inj))).is_err();
        assert!(crashed);
        assert_eq!(
            read_checkpoint(&path).expect("read"),
            Some(b"gen-1".to_vec()),
            "half-installed checkpoint must be invisible"
        );
    }
}
