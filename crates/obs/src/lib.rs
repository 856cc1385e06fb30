//! Observability substrate: metrics and span timers.
//!
//! SIFT's pipeline spans a live HTTP service, a rate-limited fetcher fleet
//! and a multi-round detection study; understanding where a run spends its
//! budget (and what the service rejected) needs instrumentation, and no
//! metrics crate is in the sanctioned dependency set. This crate is that
//! subsystem, hand-rolled over atomics:
//!
//! * [`metrics`] — labeled [`Counter`]/[`Gauge`] and a log-bucketed
//!   [`Histogram`]; every increment is a single lock-free atomic RMW.
//! * [`registry`] — a global [`Registry`] keyed by metric name + labels,
//!   rendering the Prometheus text exposition format for `GET /metrics`.
//! * [`span`] — RAII [`Span`] timers forming causal trace trees: each
//!   span carries a trace id, span id and parent id on a thread-local
//!   context stack; drops record into `sift_span_seconds{span=…}`, and
//!   the spans of a trace rooted by [`span_recorded`] also deposit a
//!   record into the trace store. [`SpanContext`] hands the tree (and
//!   whether it is recorded) across worker threads ([`span_in`]) and
//!   across HTTP (the `X-Sift-Trace` header).
//!   A study's [`StageTable`] is the tally its [`span_tallied`] root
//!   keeps of its own spans: per name, the exact count and total time.
//! * [`fan`] — [`fan_out`], the one way work is spread over threads:
//!   the caller plus scoped helpers taking items by index, results back
//!   in item order. It lives here because every crate that spreads work
//!   over threads already depends on this one.
//! * [`trace`] — assembly of completed trace trees, a Chrome
//!   trace-event JSON exporter ([`trace::chrome_trace_json`],
//!   Perfetto-loadable) and a critical-path analyzer
//!   ([`trace::critical_path`]).
//!
//! The usual entry points are the crate-level helpers: [`counter`],
//! [`gauge`], [`histogram`] (global registry, thread-locally cached
//! handles), [`span`], [`span_in`], [`span_tallied`], [`span_recorded`]
//! and [`attr_add`].
//! There is no log: a diagnostic is a counter, a gauge or a span
//! attribute, readable at `GET /metrics` and in exported traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fan;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

pub use fan::fan_out;
pub use metrics::{Counter, Gauge, GaugeGuard, Histogram, HistogramSpec, HistogramState};
pub use registry::{MetricKey, Registry};
pub use span::{attr_add, attr_set, Span, SpanContext, Stage, StageTable, SPAN_METRIC};
pub use trace::{chrome_trace_json, critical_path, CriticalPath, SpanRecord, Trace};

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// The process-wide metric registry backing `GET /metrics`.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A per-thread cache of registry handles, keyed by name and labels in
/// the caller's order. A hit hashes the borrowed key (with the map's own
/// randomly keyed hasher: label values come from requests) and
/// allocates nothing; a miss registers (or finds) the series in the
/// global registry once. Two label orders make two entries for one
/// series.
struct HandleCache<T> {
    by_hash: HashMap<u64, Vec<CacheEntry<T>>>,
}

struct CacheEntry<T> {
    name: Box<str>,
    labels: Box<[(Box<str>, Box<str>)]>,
    handle: T,
}

impl<T: Clone> HandleCache<T> {
    fn new() -> HandleCache<T> {
        HandleCache {
            by_hash: HashMap::new(),
        }
    }

    fn get_or_register(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        register: impl FnOnce() -> T,
    ) -> T {
        let hash = self.by_hash.hasher().hash_one((name, labels));
        let entries = self.by_hash.entry(hash).or_default();
        let hit = entries.iter().find(|e| {
            *e.name == *name
                && e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (bk, bv))| **k == **bk && **v == **bv)
        });
        if let Some(e) = hit {
            return e.handle.clone();
        }
        let handle = register();
        entries.push(CacheEntry {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).into(), (*v).into()))
                .collect(),
            handle: handle.clone(),
        });
        handle
    }
}

// Long-lived worker threads hit the registry lock once per series and a
// local map thereafter.
thread_local! {
    static COUNTERS: RefCell<HandleCache<Counter>> = RefCell::new(HandleCache::new());
    static GAUGES: RefCell<HandleCache<Gauge>> = RefCell::new(HandleCache::new());
    static HISTOGRAMS: RefCell<HandleCache<Histogram>> = RefCell::new(HandleCache::new());
}

/// The global counter `name{labels}`, registered on first use.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Counter {
    COUNTERS.with(|cache| {
        cache
            .borrow_mut()
            .get_or_register(name, labels, || global().counter(name, labels))
    })
}

/// The global gauge `name{labels}`, registered on first use.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Gauge {
    GAUGES.with(|cache| {
        cache
            .borrow_mut()
            .get_or_register(name, labels, || global().gauge(name, labels))
    })
}

/// The global histogram `name{labels}` with the default
/// [`HistogramSpec::duration_seconds`] layout, registered on first use.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Histogram {
    HISTOGRAMS.with(|cache| {
        cache.borrow_mut().get_or_register(name, labels, || {
            global().histogram(name, labels, &HistogramSpec::duration_seconds())
        })
    })
}

/// Opens a span as a child of this thread's innermost open span (or as
/// the root of a fresh, unrecorded trace when none is open); dropping
/// the returned guard records its duration into the global
/// `sift_span_seconds{span="<name>"}` histogram and, in a recorded
/// trace, its record into the trace store.
#[expect(clippy::disallowed_methods, reason = "the sanctioned span entry point")]
pub fn span(name: &str) -> Span {
    Span::enter(name)
}

/// Opens a span as a child of an explicit [`SpanContext`] — the handoff
/// API for crossing thread or process boundaries, where the thread-local
/// stack would otherwise sever parentage. The span is recorded when
/// `ctx`'s trace is, and adds to `ctx`'s tally, if any.
pub fn span_in(ctx: &SpanContext, name: &str) -> Span {
    Span::open(name, Some(ctx.clone()))
}

/// Opens a span as a child of this thread's innermost open span, like
/// [`span`], that starts a fresh tally: each span of its subtree that
/// reaches it (through this thread's stack, or a context handed to
/// [`span_in`]) adds its name and elapsed time when it closes, the
/// tallied span itself included. [`Span::stages`] reads the table.
pub fn span_tallied(name: &str) -> Span {
    Span::tallied(name)
}

/// Opens a span as the root of a fresh, unrecorded trace, regardless of
/// any span already open on this thread.
pub fn span_root(name: &str) -> Span {
    Span::root(name, false)
}

/// Opens a span as the root of a fresh *recorded* trace, regardless of
/// any span already open on this thread: every span of the tree,
/// across threads and across HTTP, deposits its record into the trace
/// store, to be read with [`trace::wait_completed`],
/// [`trace::completed`] or `GET /trace/recent`. The one entry point for
/// code that reads a trace; nothing else is recorded.
pub fn span_recorded(name: &str) -> Span {
    Span::root(name, true)
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
    fn cached_handles_resolve_one_series_whatever_the_label_order() {
        counter("lib_order_total", &[("a", "1"), ("b", "2")]).inc();
        counter("lib_order_total", &[("b", "2"), ("a", "1")]).inc();
        counter("lib_order_total", &[("a", "1"), ("b", "3")]).inc();
        let series = |b| {
            global()
                .counter("lib_order_total", &[("a", "1"), ("b", b)])
                .get()
        };
        assert_eq!((series("2"), series("3")), (2, 1));
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
}
