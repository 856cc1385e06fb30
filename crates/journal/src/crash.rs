//! Deterministic crash injection at durability boundaries.
//!
//! `sift-chaos`'s `FaultPlan` proves the pipeline against *network*
//! failure by making every injected fault a pure function of a seed; this
//! module is its sibling for *process* failure. A [`CrashPlan`] names the
//! exact durability boundary at which the process dies — mid-way through
//! a journal record, after a record lands, between a checkpoint's temp
//! write and its rename — and the occurrence count at which it fires, so
//! a crash test replays bit-identically. The plan can be written out
//! explicitly (acceptance tests pin their three crash points) or drawn
//! from a seed, mirroring `FaultPlan::new(seed)`.
//!
//! Two crash modes cover the two test harnesses: [`CrashMode::Panic`]
//! unwinds (the in-process harness wraps the run in `catch_unwind`),
//! [`CrashMode::Abort`] kills the process without cleanup (the
//! out-of-process harness spawns a child and watches it die, the closest
//! a test can get to `kill -9`).

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A durability boundary the process can be made to die at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashSite {
    /// Half-way through writing a journal record's bytes: the file is
    /// left with a torn tail that recovery must truncate.
    MidJournalRecord,
    /// Just after a journal record is fully written: the record must
    /// survive and be replayed, never re-fetched.
    AfterJournalRecord,
    /// After the checkpoint temp file is written and synced, before the
    /// rename: recovery must see the *previous* checkpoint (or none) and
    /// the full journal, never the half-installed temp.
    CheckpointTempWritten,
    /// Just after the checkpoint rename lands: recovery must see the new
    /// checkpoint and an empty (or truncated) journal.
    AfterCheckpointRename,
}

impl CrashSite {
    /// Every site, in declaration order.
    pub const ALL: [CrashSite; 4] = [
        CrashSite::MidJournalRecord,
        CrashSite::AfterJournalRecord,
        CrashSite::CheckpointTempWritten,
        CrashSite::AfterCheckpointRename,
    ];

    /// Stable snake_case label (event fields, test output).
    pub fn label(self) -> &'static str {
        match self {
            CrashSite::MidJournalRecord => "mid_journal_record",
            CrashSite::AfterJournalRecord => "after_journal_record",
            CrashSite::CheckpointTempWritten => "checkpoint_temp_written",
            CrashSite::AfterCheckpointRename => "after_checkpoint_rename",
        }
    }

    fn index(self) -> usize {
        match self {
            CrashSite::MidJournalRecord => 0,
            CrashSite::AfterJournalRecord => 1,
            CrashSite::CheckpointTempWritten => 2,
            CrashSite::AfterCheckpointRename => 3,
        }
    }
}

impl std::fmt::Display for CrashSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the injected crash kills the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CrashMode {
    /// Unwind with a [`CrashPoint`] payload; in-process harnesses catch
    /// it with `std::panic::catch_unwind` and then exercise recovery in
    /// the same process.
    #[default]
    Panic,
    /// `std::process::abort()` — no unwinding, no destructors, no
    /// flushing; the out-of-process harness's `kill -9` stand-in.
    Abort,
}

/// A deterministic crash choreography: die at the `n`-th occurrence of a
/// site (0-based), in the given mode. At most one crash fires per
/// [`CrashInjector`], so a plan listing several sites crashes at
/// whichever target is reached first.
#[derive(Clone, Debug)]
pub struct CrashPlan {
    /// `(site, occurrence)` targets.
    pub at: Vec<(CrashSite, u64)>,
    /// How the process dies.
    pub mode: CrashMode,
}

impl CrashPlan {
    /// A plan that never crashes (useful as a recording probe: the
    /// injector still counts occurrences).
    pub fn nowhere() -> CrashPlan {
        CrashPlan {
            at: Vec::new(),
            mode: CrashMode::Panic,
        }
    }

    /// Adds a target: crash at the `occurrence`-th time `site` is reached
    /// (0-based).
    pub fn at(mut self, site: CrashSite, occurrence: u64) -> CrashPlan {
        self.at.push((site, occurrence));
        self
    }

    /// A seeded plan, mirroring `FaultPlan::new(seed)`: for each of
    /// `sites`, the crash occurrence is drawn uniformly from
    /// `[0, horizon)` by an independent ChaCha8 stream keyed on
    /// `(seed, site)`. The same seed always picks the same crash points.
    pub fn seeded(seed: u64, sites: &[CrashSite], horizon: u64) -> CrashPlan {
        assert!(horizon >= 1, "horizon must admit at least one occurrence");
        let mut plan = CrashPlan::nowhere();
        for &site in sites {
            let mut key = [0u8; 32];
            key[0..8].copy_from_slice(&seed.to_le_bytes());
            key[8..16].copy_from_slice(&(site.index() as u64).to_le_bytes());
            key[16..24].copy_from_slice(&seed.rotate_left(23).to_le_bytes());
            key[24..32].copy_from_slice(&0x5349_4654_4352_5348u64.to_le_bytes()); // "SIFTCRSH"
            let mut rng = ChaCha8Rng::from_seed(key);
            plan.at.push((site, rng.next_u64() % horizon));
        }
        plan
    }

    /// Sets the crash mode.
    pub fn with_mode(mut self, mode: CrashMode) -> CrashPlan {
        self.mode = mode;
        self
    }
}

/// The payload an injected [`CrashMode::Panic`] unwinds with; harnesses
/// downcast to tell an injected crash from a genuine bug.
#[derive(Clone, Copy, Debug)]
pub struct CrashPoint {
    /// The boundary the crash fired at.
    pub site: CrashSite,
    /// The occurrence count it fired on.
    pub occurrence: u64,
}

/// The runtime of a [`CrashPlan`]: per-site occurrence counters and a
/// one-shot trigger. Shared (`Arc`) between the journal writer and the
/// checkpoint helper of one durability domain.
pub struct CrashInjector {
    plan: CrashPlan,
    counters: [AtomicU64; 4],
    tripped: AtomicBool,
}

impl CrashInjector {
    /// An injector executing `plan`.
    pub fn new(plan: CrashPlan) -> CrashInjector {
        CrashInjector {
            plan,
            counters: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            tripped: AtomicBool::new(false),
        }
    }

    /// Counts one occurrence of `site` and reports whether the plan says
    /// to die here. Split from [`CrashInjector::crash`] so callers that
    /// must stage the wreckage first (the journal writer leaves a torn
    /// half-record behind) can do so between the decision and the death.
    pub fn check(&self, site: CrashSite) -> bool {
        let n = self.counters[site.index()].fetch_add(1, Ordering::SeqCst);
        let targeted = self.plan.at.iter().any(|&(s, occ)| s == site && occ == n);
        targeted && !self.tripped.swap(true, Ordering::SeqCst)
    }

    /// Dies, per the plan's [`CrashMode`].
    pub fn crash(&self, site: CrashSite) -> ! {
        let occurrence = self.counters[site.index()]
            .load(Ordering::SeqCst)
            .saturating_sub(1);
        match self.plan.mode {
            #[expect(clippy::panic, reason = "panic mode unwinds by design")]
            CrashMode::Panic => std::panic::panic_any(CrashPoint { site, occurrence }),
            CrashMode::Abort => std::process::abort(),
        }
    }

    /// [`CrashInjector::check`] and [`CrashInjector::crash`] in one step,
    /// for sites with no wreckage to stage.
    pub fn maybe_crash(&self, site: CrashSite) {
        if self.check(site) {
            self.crash(site);
        }
    }

    /// How many times `site` has been reached so far.
    pub fn occurrences(&self, site: CrashSite) -> u64 {
        self.counters[site.index()].load(Ordering::SeqCst)
    }

    /// Whether the injected crash already fired.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_at_the_planned_occurrence() {
        let inj = CrashInjector::new(CrashPlan::nowhere().at(CrashSite::AfterJournalRecord, 2));
        assert!(!inj.check(CrashSite::AfterJournalRecord));
        assert!(!inj.check(CrashSite::AfterJournalRecord));
        assert!(inj.check(CrashSite::AfterJournalRecord));
        // One-shot: the target does not re-fire.
        assert!(!inj.check(CrashSite::AfterJournalRecord));
        assert_eq!(inj.occurrences(CrashSite::AfterJournalRecord), 4);
        assert!(inj.tripped());
    }

    #[test]
    fn sites_count_independently() {
        let inj = CrashInjector::new(CrashPlan::nowhere().at(CrashSite::CheckpointTempWritten, 0));
        assert!(!inj.check(CrashSite::MidJournalRecord));
        assert!(!inj.check(CrashSite::AfterJournalRecord));
        assert!(inj.check(CrashSite::CheckpointTempWritten));
    }

    #[test]
    fn seeded_plans_replay() {
        let a = CrashPlan::seeded(9, &CrashSite::ALL, 100);
        let b = CrashPlan::seeded(9, &CrashSite::ALL, 100);
        assert_eq!(a.at, b.at);
        let c = CrashPlan::seeded(10, &CrashSite::ALL, 100);
        assert_ne!(a.at, c.at, "different seeds should move the crash points");
        for &(_, occ) in &a.at {
            assert!(occ < 100);
        }
    }

    #[test]
    fn panic_mode_unwinds_with_a_crash_point() {
        let inj = CrashInjector::new(CrashPlan::nowhere().at(CrashSite::MidJournalRecord, 0));
        let err = std::panic::catch_unwind(|| inj.maybe_crash(CrashSite::MidJournalRecord))
            .expect_err("must unwind");
        let point = err.downcast_ref::<CrashPoint>().expect("typed payload");
        assert_eq!(point.site, CrashSite::MidJournalRecord);
        assert_eq!(point.occurrence, 0);
    }

    #[test]
    fn labels_cover_every_site_uniquely() {
        let mut labels: Vec<_> = CrashSite::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), CrashSite::ALL.len());
    }
}
