//! The degrade lattice: why a read served last-good data.
//!
//! A client asking "is my internet down?" during an outage is the worst
//! possible moment to answer `503`. When a region's ingest falls behind,
//! the daemon keeps answering from the last consistent state it has and
//! *labels* the answer instead of withholding it: the response carries an
//! `X-Sift-Degraded` header naming the reason, and every such read is
//! counted in `sift_serve_degraded_reads_total{reason=…}` so operators
//! see degradation the moment it starts, not when users complain.

use serde::{Deserialize, Serialize};

/// Why a region's reads are degraded. Ordered by severity: when several
/// conditions hold at once the most severe one is reported, so the label
/// an operator sees is the thing to fix first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeReason {
    /// Ingest is missing frames: the region's watermark trails the
    /// simulated present by more than the configured lag budget.
    MissingFrames,
    /// The write-ahead log has grown past the checkpoint interval —
    /// checkpoints are failing, and a crash now would mean a long replay.
    WalBacklog,
    /// The incremental detector's open segment has exceeded the lag
    /// budget: the series has not returned to the noise floor, so sealed
    /// spikes lag further behind the watermark than promised.
    DetectorLagging,
}

impl DegradeReason {
    /// Every reason, most severe first.
    pub const ALL: [DegradeReason; 3] = [
        DegradeReason::MissingFrames,
        DegradeReason::WalBacklog,
        DegradeReason::DetectorLagging,
    ];

    /// The metric label this reason is counted under in
    /// `sift_serve_degraded_reads_total{reason=…}`.
    pub fn label(self) -> &'static str {
        match self {
            DegradeReason::MissingFrames => "missing_frames",
            DegradeReason::WalBacklog => "wal_backlog",
            DegradeReason::DetectorLagging => "detector_lagging",
        }
    }

    /// Counts one degraded read under this reason.
    pub fn count_read(self) {
        sift_obs::counter(
            "sift_serve_degraded_reads_total",
            &[("reason", self.label())],
        )
        .inc();
    }
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_every_reason_most_severe_first() {
        let labels: Vec<_> = DegradeReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels,
            ["missing_frames", "wal_backlog", "detector_lagging"]
        );
    }
}
