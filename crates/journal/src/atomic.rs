//! Atomic file replacement: write temp → fsync → rename → fsync dir.
//!
//! POSIX `rename(2)` within one directory is atomic: readers see either
//! the old file or the new one, never a mix. So a checkpoint written
//! through this helper can be torn only while it is still the temp file,
//! which recovery ignores by construction. The trailing directory fsync
//! makes the rename itself durable — without it, a power cut can resurrect
//! the old name even though the data blocks of the new file survived.
//!
//! This module is the one place in the workspace allowed to create files
//! on persistence paths directly; everything else must route through it
//! (enforced by `clippy.toml`, which disallows `std::fs::write` and
//! `std::fs::File::create` in library code).

use crate::crash::{CrashInjector, CrashSite};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Atomically replaces `path` with `bytes`.
///
/// When a [`CrashInjector`] is supplied, the two checkpoint crash sites
/// are honoured: [`CrashSite::CheckpointTempWritten`] fires after the
/// temp file is complete but before the rename (the half-installed
/// state), [`CrashSite::AfterCheckpointRename`] after the swap landed.
pub fn write_atomic(path: &Path, bytes: &[u8], crash: Option<&CrashInjector>) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        #[expect(clippy::disallowed_methods, reason = "this is the atomic helper")]
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Some(inj) = crash {
        inj.maybe_crash(CrashSite::CheckpointTempWritten);
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    if let Some(inj) = crash {
        inj.maybe_crash(CrashSite::AfterCheckpointRename);
    }
    Ok(())
}

/// The sibling temp name `write_atomic` stages into: `<file>.tmp` in the
/// same directory (rename is only atomic within one filesystem).
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs the directory containing `path`, making a completed rename
/// durable. A filesystem that refuses to open or sync directories (some
/// CI sandboxes) degrades gracefully: the rename is still atomic, only
/// its power-loss durability is weakened.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let Some(parent) = path.parent() else {
        return Ok(());
    };
    let parent = if parent.as_os_str().is_empty() {
        Path::new(".")
    } else {
        parent
    };
    match File::open(parent) {
        Ok(dir) => match dir.sync_all() {
            Ok(()) => Ok(()),
            // Directory fsync is best-effort: EINVAL/ENOTSUP here must
            // not fail the checkpoint that already renamed into place.
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Unsupported => Ok(()),
            Err(e) => Err(e),
        },
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;

    #[test]
    fn replaces_contents_atomically() {
        let dir = scratch_dir("atomic_replace");
        let path = dir.join("state.bin");
        write_atomic(&path, b"first", None).expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), b"first");
        write_atomic(&path, b"second", None).expect("rewrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        assert!(!tmp_path(&path).exists(), "temp must not linger");
    }

    #[test]
    fn crash_before_rename_leaves_old_contents() {
        let dir = scratch_dir("atomic_crash_pre");
        let path = dir.join("state.bin");
        write_atomic(&path, b"old", None).expect("seed");
        let inj = CrashInjector::new(CrashSite::CheckpointTempWritten, 0);
        let crashed = std::panic::catch_unwind(|| write_atomic(&path, b"new", Some(&inj))).is_err();
        assert!(crashed, "injected crash must fire");
        assert_eq!(
            std::fs::read(&path).expect("read"),
            b"old",
            "pre-rename crash must preserve the previous file"
        );
        // The wreckage (temp file) is what recovery must tolerate.
        assert!(tmp_path(&path).exists());
        // A later write through the helper heals the temp.
        write_atomic(&path, b"new", None).expect("retry");
        assert_eq!(std::fs::read(&path).expect("read"), b"new");
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn crash_after_rename_keeps_new_contents() {
        let dir = scratch_dir("atomic_crash_post");
        let path = dir.join("state.bin");
        write_atomic(&path, b"old", None).expect("seed");
        let inj = CrashInjector::new(CrashSite::AfterCheckpointRename, 0);
        let crashed = std::panic::catch_unwind(|| write_atomic(&path, b"new", Some(&inj))).is_err();
        assert!(crashed);
        assert_eq!(std::fs::read(&path).expect("read"), b"new");
    }
}
