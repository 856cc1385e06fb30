//! Observability substrate: metrics, span timers and structured events.
//!
//! SIFT's pipeline spans a live HTTP service, a rate-limited fetcher fleet
//! and a multi-round detection study; understanding where a run spends its
//! budget (and what the service rejected) needs instrumentation, and no
//! metrics crate is in the sanctioned dependency set. This crate is that
//! subsystem, hand-rolled over atomics:
//!
//! * [`metrics`] — labeled [`Counter`]/[`Gauge`] and a log-bucketed
//!   [`Histogram`] with quantile estimation; every increment is a single
//!   lock-free atomic RMW.
//! * [`registry`] — a global [`Registry`] keyed by metric name + labels,
//!   rendering the Prometheus text exposition format for `GET /metrics`.
//! * [`span`] — RAII [`Span`] timers forming causal trace trees: each
//!   span carries a trace id, span id and parent id on a thread-local
//!   context stack; drops record into `sift_span_seconds{span=…}` and
//!   deposit a record into the trace store. [`SpanContext`] hands the
//!   tree across worker threads ([`span_in`]) and across HTTP (the
//!   `X-Sift-Trace` header).
//! * [`trace`] — assembly of completed trace trees, a Chrome
//!   trace-event JSON exporter ([`trace::chrome_trace_json`],
//!   Perfetto-loadable) and a critical-path analyzer
//!   ([`trace::critical_path`]).
//! * [`event`] — a leveled, structured JSON-lines [`EventLog`] (a bounded
//!   ring buffer).
//! * [`telemetry`] — serializable per-stage timing summaries
//!   ([`TelemetrySnapshot`]) built by diffing span histograms, embedded in
//!   study results and printed as tables by the bench binaries.
//!
//! The usual entry points are the crate-level helpers: [`counter`],
//! [`gauge`], [`histogram`] (global registry, thread-locally cached
//! handles), [`span`], [`span_in`], [`attr_add`] and [`event`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod telemetry;
pub mod trace;

pub use event::{EventLog, Level};
pub use metrics::{Counter, Gauge, GaugeGuard, Histogram, HistogramSpec, HistogramState};
pub use registry::{MetricKey, Registry};
pub use span::{attr_add, attr_set, current_path, Span, SpanContext, SPAN_METRIC};
pub use telemetry::{SpanBaseline, StageTiming, TelemetrySnapshot};
pub use trace::{chrome_trace_json, critical_path, CriticalPath, SpanRecord, Trace};

use serde_json::Value;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The process-wide metric registry backing `GET /metrics`.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide event log.
pub fn events() -> &'static EventLog {
    static EVENTS: OnceLock<EventLog> = OnceLock::new();
    EVENTS.get_or_init(EventLog::new)
}

// Per-thread handle cache: long-lived worker threads hit the registry
// lock once per series and a local HashMap thereafter.
thread_local! {
    static COUNTERS: RefCell<HashMap<MetricKey, Counter>> = RefCell::new(HashMap::new());
    static GAUGES: RefCell<HashMap<MetricKey, Gauge>> = RefCell::new(HashMap::new());
    static HISTOGRAMS: RefCell<HashMap<MetricKey, Histogram>> = RefCell::new(HashMap::new());
}

/// The global counter `name{labels}`, registered on first use.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Counter {
    let key = MetricKey::new(name, labels);
    COUNTERS.with(|cache| {
        cache
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| global().counter(name, labels))
            .clone()
    })
}

/// The global gauge `name{labels}`, registered on first use.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Gauge {
    let key = MetricKey::new(name, labels);
    GAUGES.with(|cache| {
        cache
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| global().gauge(name, labels))
            .clone()
    })
}

/// The global histogram `name{labels}` with the default
/// [`HistogramSpec::duration_seconds`] layout, registered on first use.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Histogram {
    histogram_with_spec(name, labels, &HistogramSpec::duration_seconds())
}

/// Like [`histogram`] with an explicit bucket layout (used only if this
/// call is the first registration of the series).
pub fn histogram_with_spec(name: &str, labels: &[(&str, &str)], spec: &HistogramSpec) -> Histogram {
    let key = MetricKey::new(name, labels);
    HISTOGRAMS.with(|cache| {
        cache
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| global().histogram(name, labels, spec))
            .clone()
    })
}

/// Opens a span as a child of this thread's innermost open span (or as
/// a fresh trace root when none is open); dropping the returned guard
/// records its duration into the global
/// `sift_span_seconds{span="<name>"}` histogram and its record into the
/// trace store.
pub fn span(name: &str) -> Span {
    Span::enter(name)
}

/// Opens a span as a child of an explicit [`SpanContext`] — the handoff
/// API for crossing thread or process boundaries, where the thread-local
/// stack would otherwise sever parentage.
pub fn span_in(ctx: SpanContext, name: &str) -> Span {
    Span::open(name, Some(ctx))
}

/// Opens a span as the root of a fresh trace, regardless of any span
/// already open on this thread.
pub fn span_root(name: &str) -> Span {
    Span::open(name, None)
}

/// Emits one structured event to the global log.
pub fn event(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
    events().emit(level, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_hit_the_global_registry() {
        counter("lib_test_total", &[("k", "v")]).inc();
        counter("lib_test_total", &[("k", "v")]).add(2);
        assert_eq!(global().counter("lib_test_total", &[("k", "v")]).get(), 3);
    }

    #[test]
    fn cached_handles_share_state_across_threads() {
        let n = 8;
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counter("lib_thread_total", &[]).inc();
                    }
                });
            }
        });
        assert_eq!(counter("lib_thread_total", &[]).get(), n * 1000);
    }

    #[test]
    fn event_helper_reaches_global_log() {
        events().set_min_level(Level::Debug);
        event(Level::Info, "obs.test", "hello", &[("x", Value::Int(1))]);
        let lines = events().drain();
        assert!(lines.iter().any(|l| l.contains("obs.test")), "{lines:?}");
    }
}
