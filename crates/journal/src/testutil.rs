//! Test support for durability: scratch directories, unique without
//! wall-clock reads (process id plus a process-wide counter) and removed
//! when their guard drops; file
//! backdating for tests of mtime-derived ages; and crash states built
//! from files. A WAL is append-only, so every state a crash can leave it
//! in is a prefix of the finished file (Pillai et al., OSDI 2014): run a
//! workload once, copy its directory, cut a WAL at each of
//! [`wal_cuts`], and resume. Shared with the workspace's acceptance
//! tests, hence `pub` rather than `cfg(test)`.

use crate::record::{self, Decoded};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory under the system temp dir, removed when the
/// guard drops. The `tag` keeps paths readable in failure output;
/// uniqueness comes from the pid and a monotonic counter, so parallel
/// tests and repeated runs never collide with a live directory (a stale
/// same-pid leftover from a previous run is cleared first).
#[expect(clippy::expect_used, reason = "test scaffolding")]
pub fn scratch_dir(tag: &str) -> ScratchDir {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("sift-journal-{}-{}-{}", std::process::id(), n, tag));
    if path.exists() {
        std::fs::remove_dir_all(&path).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&path).expect("create scratch dir");
    ScratchDir { path }
}

/// A directory made by [`scratch_dir`]. Dropping it removes the
/// directory and everything in it, unless the thread is panicking: then
/// the directory stays, so a failure message still points at real files.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl From<&ScratchDir> for PathBuf {
    fn from(dir: &ScratchDir) -> PathBuf {
        dir.path.clone()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            #[expect(clippy::let_underscore_must_use, reason = "best-effort cleanup")]
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// Sets the mtime of the file at `path` to `age` before now.
#[expect(clippy::expect_used, reason = "test scaffolding")]
#[expect(clippy::disallowed_methods, reason = "an mtime is host time")]
pub fn backdate(path: &Path, age: std::time::Duration) {
    std::fs::File::options()
        .write(true)
        .open(path)
        .and_then(|file| file.set_modified(std::time::SystemTime::now() - age))
        .expect("backdate file");
}

/// A crash state of a WAL: its first `len` bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    /// Bytes kept.
    pub len: usize,
    /// Whole records in the kept bytes.
    pub records: usize,
    /// Whether the kept bytes end inside a record.
    pub torn: bool,
}

/// The crash states of the finished WAL `wal`, in file order: every
/// record boundary (the empty file and the whole one included) and one
/// cut half-way through each record's frame.
pub fn wal_cuts(wal: &[u8]) -> Vec<Cut> {
    let mut cuts = vec![Cut {
        len: 0,
        records: 0,
        torn: false,
    }];
    let (mut offset, mut records) = (0, 0);
    while let Decoded::Record { next, .. } = record::decode(wal, offset) {
        cuts.push(Cut {
            len: offset + (next - offset) / 2,
            records,
            torn: true,
        });
        records += 1;
        cuts.push(Cut {
            len: next,
            records,
            torn: false,
        });
        offset = next;
    }
    cuts
}

/// Copies the directory tree at `from` (a durability directory:
/// `<dir>/<domain>/<file>`) to `to`.
#[expect(clippy::expect_used, reason = "test scaffolding")]
pub fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy file");
        }
    }
}
