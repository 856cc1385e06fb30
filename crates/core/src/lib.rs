//! SIFT — the detection and analysis pipeline for user-affecting Internet
//! outages.
//!
//! This crate is the paper's primary contribution (§3): given access to a
//! trends aggregation service (anything implementing
//! [`sift_trends::TrendsClient`]), SIFT
//!
//! 1. **reconstructs** a continuous, globally-calibrated interest time
//!    series per region from piecewise-normalized, randomly-sampled weekly
//!    frames ([`timeline`]),
//! 2. **averages** repeated re-fetches until the detected spike set
//!    converges, taming the service's sampling error ([`refetch`]),
//! 3. **detects** spikes of user interest with a topographic-prominence
//!    walk and measures their start, peak, end, magnitude and duration
//!    ([`detect`]),
//! 4. **analyses** the spikes along the paper's three axes — impact
//!    ([`impact`]), area ([`area`]) and context ([`context`]) — annotating
//!    each spike with simultaneously-rising search terms, heavy-hitter
//!    prioritised and semantically clustered,
//! 5. and drives the whole study end to end ([`study`], [`report`]),
//!    crash-safely when asked ([`durable`]): responses are journaled
//!    write-ahead, rounds sealed with a synced record, and a killed
//!    study resumes where it died.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod context;
pub mod detect;
pub mod durable;
pub mod impact;
pub mod plan;
pub mod refetch;
pub mod report;
pub mod study;
pub mod timeline;

pub use area::{cluster_spikes, OutageCluster};
pub use context::{AnnotatedSpike, Annotation, ContextParams};
pub use detect::{detect_spikes, DetectParams, DetectorSnapshot, IncrementalDetector, Spike};
pub use durable::{RegionJournal, StudyDurability};
pub use plan::{plan_frames, FramePlan, PlanParams};
pub use refetch::{averaged_timeline_durable, RefetchError, RefetchOutcome, RefetchParams};
pub use study::{
    assemble_study, run_region_study, run_study, run_study_durable, RegionOutcome, StudyError,
    StudyParams, StudyResult, StudyStats,
};
pub use timeline::{stitch, StitchError, StitcherSnapshot, StreamStitcher, Timeline};
