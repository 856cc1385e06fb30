//! US geography substrate for the SIFT outage study.
//!
//! The study runs per *region*: the 50 US states plus the District of
//! Columbia, mirroring the paper's per-state crawls. This crate provides:
//!
//! * [`State`] — the region enum, with abbreviations, names and census
//!   divisions,
//! * population figures (used to size each region's synthetic search
//!   population — the trends service normalizes per region, so population
//!   determines sampling noise, not spike counts),
//! * timezone offsets with US daylight-saving rules (the area analysis in
//!   §4.2 attributes lagged spikes on leisure applications to local-time
//!   differences),
//! * [`ipgeo`] — a synthetic IPv4 address plan and a MaxMind-like
//!   prefix→state geolocation database used by the active-probing baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ipgeo;
mod population;
mod state;
mod timezone;

pub use ipgeo::{AddressPlan, GeoDb, Prefix24};
pub use population::{population, total_population};
pub use state::{Division, State};
pub use timezone::{utc_offset, utc_offset_until};
