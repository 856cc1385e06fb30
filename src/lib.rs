//! # SIFT — sifting through user-affecting Internet outages
//!
//! This crate is the facade of the SIFT workspace, a reproduction of
//! *"Is my Internet down?": Sifting through User-Affecting Outages with
//! Google Trends* (IMC 2022). It re-exports the public API of every
//! subsystem so applications can depend on a single crate:
//!
//! * [`core`] — the SIFT pipeline: time-series reconstruction, spike
//!   detection, impact/area/context analysis.
//! * [`trends`] — the search-trends aggregation-service simulator that
//!   stands in for Google Trends.
//! * [`net`] — the HTTP/1.1 substrate (server, client, rate limiting) the
//!   service is crawled over.
//! * [`fetcher`] — the collection module mapping workload onto fetcher
//!   units behind distinct source IPs.
//! * [`cluster`] — the sharded crawl: a coordinator partitioning regions
//!   across workers by consistent hashing, with lease/heartbeat/reroute
//!   fault tolerance and per-worker journal merging.
//! * [`probe`] — the active-probing baseline (ANT/Trinocular-style).
//! * [`obs`] — zero-dependency metrics, span timing and causal traces,
//!   exposed live at `GET /metrics`.
//! * [`journal`] — crash-safe durability for resumable crawls:
//!   write-ahead journal, atomic checkpoints, and the crash states that
//!   resume tests build from a finished journal.
//! * [`serve`] — SIFT-as-a-service: a crash-recoverable online detector
//!   daemon with bounded-staleness reads and graceful degradation.
//! * [`geo`], [`simtime`], [`nlp`] — geography, civil time and semantic
//!   clustering substrates.
//!
//! See `examples/quickstart.rs` for the Fig. 2 workflow end-to-end and
//! `DESIGN.md` for the full system inventory.

#![forbid(unsafe_code)]

pub use sift_cluster as cluster;
pub use sift_core as core;
pub use sift_fetcher as fetcher;
pub use sift_geo as geo;
pub use sift_journal as journal;
pub use sift_net as net;
pub use sift_nlp as nlp;
pub use sift_obs as obs;
pub use sift_probe as probe;
pub use sift_serve as serve;
pub use sift_simtime as simtime;
pub use sift_trends as trends;
