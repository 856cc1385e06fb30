//! Scratch directories for durability tests, unique without wall-clock
//! reads: process id plus a process-wide counter; and file backdating
//! for tests of mtime-derived ages. Shared with the workspace's
//! acceptance tests, hence `pub` rather than `cfg(test)`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory under the system temp dir. The `tag` keeps
/// paths readable in failure output; uniqueness comes from the pid and a
/// monotonic counter, so parallel tests and repeated runs never collide
/// with a live directory (a stale same-pid leftover from a previous run
/// is cleared first).
#[expect(clippy::expect_used, reason = "test scaffolding")]
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("sift-journal-{}-{}-{}", std::process::id(), n, tag));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
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
