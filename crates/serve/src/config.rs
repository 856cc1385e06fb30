//! Daemon configuration.

use sift_core::{DetectParams, PlanParams};
use sift_geo::State;
use sift_net::AdmissionConfig;
use sift_simtime::HourRange;
use sift_trends::SearchTerm;
use std::time::Duration;

/// Reads degrade (`MissingFrames`) when the region's watermark trails
/// the fetchable present by more than this many hours, and
/// (`DetectorLagging`) when the detector's open segment grows past it.
pub(crate) const LAG_BUDGET_HOURS: i64 = 14 * 24;

/// Reads degrade (`WalBacklog`) when a region's un-checkpointed WAL tail
/// exceeds this many checkpoint intervals (`checkpoint_every` records
/// each): its checkpoints are failing, and a crash now would mean a long
/// replay.
pub(crate) const WAL_BACKLOG_CHECKPOINTS: u64 = 4;

/// Host-time sleep between ingest polls of the simulated clock.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// Everything the daemon needs to run: what to ingest, how to detect,
/// how durable to be, and how to behave under load.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The search term ingested for every region.
    pub term: SearchTerm,
    /// Regions served (one ingest state machine and one durability
    /// domain each).
    pub regions: Vec<State>,
    /// The full coverage window the frame plan is built over. Ingest
    /// stops at its end; the simulated clock decides how much of it is
    /// fetchable *now*.
    pub range: HourRange,
    /// Frame planning parameters (length and overlap). A region's
    /// checkpoint taken with another frame length is refused at start.
    pub plan: PlanParams,
    /// Detection parameters for the incremental walk. Must satisfy
    /// `min_peak > walk_floor` (asserted by the detector). A region's
    /// checkpoint taken with others is refused at start.
    pub detect: DetectParams,
    /// WAL records between checkpoints: a crash replays at most this
    /// many frames per region while checkpoints succeed. Reads degrade
    /// (`WalBacklog`) once a region's tail exceeds four times this.
    pub checkpoint_every: u64,
    /// Longest a `/spikes/subscribe` long-poll parks before answering
    /// empty.
    pub long_poll_max: Duration,
    /// Admission limits for the HTTP front (see `sift_net::admission`).
    pub admission: AdmissionConfig,
    /// HTTP worker threads. Long-poll subscribers park their admission
    /// slot but still occupy a worker, so size this above the expected
    /// subscriber count.
    pub workers: usize,
}

impl ServeConfig {
    /// A config with sensible defaults for `term`, `regions` and `range`.
    pub fn new(term: SearchTerm, regions: Vec<State>, range: HourRange) -> ServeConfig {
        ServeConfig {
            term,
            regions,
            range,
            plan: PlanParams::default(),
            detect: DetectParams::default(),
            checkpoint_every: 4,
            long_poll_max: Duration::from_secs(10),
            admission: AdmissionConfig::default(),
            workers: 8,
        }
    }
}
