//! Crash injection at the two checkpoint boundaries.
//!
//! A write-ahead journal needs no injection: it is append-only, so every
//! state a crash can leave it in is a prefix of the finished file, and a
//! test builds those states from the file itself
//! ([`crate::testutil::wal_cuts`]). A checkpoint is replaced, not
//! appended to, so the two instants inside [`crate::write_atomic`] — the
//! temp file complete but not yet renamed, and the rename landed — are
//! staged here. A [`CrashInjector`] unwinds at the `n`-th time its site
//! is reached; the harness catches the panic (`catch_unwind`, or the
//! daemon's ingest loop) and recovers from the files left behind.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A checkpoint boundary the process can be made to die at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashSite {
    /// After the checkpoint temp file is written and synced, before the
    /// rename: recovery must see the *previous* checkpoint (or none) and
    /// the full journal, never the half-installed temp.
    CheckpointTempWritten,
    /// Just after the checkpoint rename lands: recovery must see the new
    /// checkpoint and an empty (or truncated) journal.
    AfterCheckpointRename,
}

/// Dies at the `occurrence`-th time (0-based) its site is reached, once.
pub struct CrashInjector {
    site: CrashSite,
    occurrence: u64,
    reached: AtomicU64,
    tripped: AtomicBool,
}

impl CrashInjector {
    /// An injector that unwinds at the `occurrence`-th time (0-based)
    /// `site` is reached.
    pub fn new(site: CrashSite, occurrence: u64) -> CrashInjector {
        CrashInjector {
            site,
            occurrence,
            reached: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    /// Counts one arrival at `site` and unwinds if it is the planned one.
    pub fn maybe_crash(&self, site: CrashSite) {
        if site != self.site {
            return;
        }
        let n = self.reached.fetch_add(1, Ordering::SeqCst);
        if n == self.occurrence {
            self.tripped.store(true, Ordering::SeqCst);
            #[expect(clippy::panic, reason = "the injected crash unwinds by design")]
            {
                panic!("injected crash at {site:?}, occurrence {n}");
            }
        }
    }

    /// Whether the injected crash already fired.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashes(inj: &CrashInjector, site: CrashSite) -> bool {
        std::panic::catch_unwind(|| inj.maybe_crash(site)).is_err()
    }

    #[test]
    fn fires_once_exactly_at_the_planned_occurrence_of_its_site() {
        let inj = CrashInjector::new(CrashSite::AfterCheckpointRename, 2);
        assert!(!crashes(&inj, CrashSite::AfterCheckpointRename));
        assert!(!crashes(&inj, CrashSite::CheckpointTempWritten));
        assert!(!crashes(&inj, CrashSite::AfterCheckpointRename));
        assert!(!inj.tripped());
        assert!(crashes(&inj, CrashSite::AfterCheckpointRename));
        assert!(inj.tripped());
        assert!(!crashes(&inj, CrashSite::AfterCheckpointRename));
    }
}
