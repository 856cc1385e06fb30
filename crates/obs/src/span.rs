//! Trace-aware span timers.
//!
//! A span measures one stage of work *and* places it in a causal trace
//! tree: every span carries a trace id, its own span id and its parent's
//! id. Entering pushes the span onto a thread-local stack (so nested
//! spans and attributed counters know their context); dropping the guard
//! records the elapsed time into the global histogram
//! `sift_span_seconds{span="<name>"}`.
//!
//! Whether the tree is *recorded* is decided once, when its root opens:
//! a root opened with [`crate::span_recorded`] marks its trace, and every
//! span of a marked trace deposits a [`crate::trace::SpanRecord`] (with
//! its attributes) into the trace store when it closes. Every other root
//! — [`crate::span`] on an empty stack, [`crate::span_root`] — opens an
//! unrecorded trace, whose spans time into the histogram and carry ids
//! for propagation but never touch the store or keep attributes. The
//! mark is the top bit of the trace id, which the id counter never
//! reaches, so it travels with every [`SpanContext`].
//!
//! Parentage follows the thread-local stack by default. Across
//! boundaries where that stack is severed — worker threads, HTTP — the
//! caller captures [`SpanContext::current`] and reopens with
//! [`crate::span_in`] (or ships the context in the `X-Sift-Trace`
//! header via [`SpanContext::to_header`]). Counters such as bytes
//! fetched or frames stitched attach to the innermost span via
//! [`attr_add`] / [`attr_set`].
//!
//! A span opened with [`crate::span_tallied`] starts a tally, which
//! travels like parentage (frames, [`SpanContext`], [`crate::span_in`]),
//! never in the header: each span that reaches it adds its name, its
//! elapsed time and its self time at close, and [`Span::stages`] reads
//! the sums. Self time is the elapsed time less that of the span's
//! children on its own thread: a closing span adds its elapsed time to
//! its parent's frame when the parent is open on the same thread.
//! Children on other threads (a worker reopened with
//! [`crate::span_in`]) run beside their parent, not inside its thread's
//! time, and are not subtracted.

use crate::metrics::{Histogram, HistogramSpec};
use crate::trace::{self, SpanRecord};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The histogram every span records into, labelled by span name.
pub const SPAN_METRIC: &str = "sift_span_seconds";

/// The trace-id bit marking a recorded trace. Ids come from one counter
/// starting at 1, which never reaches 2⁶³.
const RECORDED: u64 = 1 << 63;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// True when `trace_id` names a recorded trace (one rooted by
/// [`crate::span_recorded`]).
pub(crate) fn is_recorded(trace_id: u64) -> bool {
    trace_id & RECORDED != 0
}

/// The stage table of one tallied subtree, shared by its spans.
#[derive(Clone, Debug, Default)]
struct Tally(Arc<Mutex<Vec<Stage>>>);

impl Tally {
    fn add(&self, name: &str, elapsed: Duration, own: Duration) {
        let mut stages = self.0.lock();
        match stages.iter_mut().find(|s| *s.name == *name) {
            Some(stage) => {
                stage.count += 1;
                stage.total_seconds += elapsed.as_secs_f64();
                stage.self_seconds += own.as_secs_f64();
            }
            None => stages.push(Stage {
                name: name.into(),
                count: 1,
                total_seconds: elapsed.as_secs_f64(),
                self_seconds: own.as_secs_f64(),
            }),
        }
    }
}

impl PartialEq for Tally {
    fn eq(&self, other: &Tally) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Tally {}

/// A span's position in its trace: enough to parent further spans onto
/// it, locally ([`crate::span_in`]) or across a process boundary
/// ([`SpanContext::to_header`] / [`SpanContext::from_header`]). Locally
/// it also carries the span's tally, if any; the header does not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace the span belongs to. Its top bit marks a recorded trace
    /// ([`SpanContext::is_recorded`]).
    pub trace_id: u64,
    /// The span's own id; children set it as their parent id.
    pub span_id: u64,
    tally: Option<Tally>,
}

impl SpanContext {
    /// The context of the innermost span open on this thread.
    pub fn current() -> Option<SpanContext> {
        STACK.with(|s| {
            s.borrow().last().map(|f| SpanContext {
                trace_id: f.trace_id,
                span_id: f.span_id,
                tally: f.tally.clone(),
            })
        })
    }

    /// True when the trace is recorded: its spans land in the trace store.
    pub fn is_recorded(&self) -> bool {
        is_recorded(self.trace_id)
    }

    /// Wire encoding for the `X-Sift-Trace` header:
    /// `<trace_id hex16>-<span_id hex16>`. A recorded trace's id has its
    /// top bit set, so its value starts with `8`–`f`.
    pub fn to_header(&self) -> String {
        format!("{:016x}-{:016x}", self.trace_id, self.span_id)
    }

    /// Parses the [`SpanContext::to_header`] encoding; `None` on any
    /// malformed or zero-id value (a bad header must never sever a
    /// request, only detach its trace).
    pub fn from_header(value: &str) -> Option<SpanContext> {
        let (t, s) = value.trim().split_once('-')?;
        let trace_id = u64::from_str_radix(t, 16).ok()?;
        let span_id = u64::from_str_radix(s, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(SpanContext {
            trace_id,
            span_id,
            tally: None,
        })
    }
}

struct Frame {
    trace_id: u64,
    span_id: u64,
    args: Vec<(&'static str, u64)>,
    tally: Option<Tally>,
    /// Elapsed time of the children that closed on this thread.
    children: Duration,
}

impl Frame {
    /// The slot of `key`, created at 0; `None` in an unrecorded trace,
    /// which keeps no attributes.
    fn slot(&mut self, key: &'static str) -> Option<&mut u64> {
        if !is_recorded(self.trace_id) {
            return None;
        }
        let pos = match self.args.iter().position(|(k, _)| *k == key) {
            Some(pos) => pos,
            None => {
                self.args.push((key, 0));
                self.args.len() - 1
            }
        };
        Some(&mut self.args[pos].1)
    }

    fn add(&mut self, key: &'static str, n: u64) {
        if let Some(slot) = self.slot(key) {
            *slot = slot.saturating_add(n);
        }
    }
}

/// A span name and its `sift_span_seconds` series, resolved once per
/// thread.
#[derive(Debug)]
struct SpanSeries {
    name: Box<str>,
    seconds: Histogram,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static SERIES: RefCell<HashMap<Box<str>, Arc<SpanSeries>>> = RefCell::new(HashMap::new());
}

/// The span series named `name`: a lookup in this thread's cache,
/// registering the histogram only the first time the thread sees the name.
fn series(name: &str) -> Arc<SpanSeries> {
    SERIES.with(|cache| {
        if let Some(series) = cache.borrow().get(name) {
            return Arc::clone(series);
        }
        let series = Arc::new(SpanSeries {
            name: name.into(),
            seconds: crate::global().histogram(
                SPAN_METRIC,
                &[("span", name)],
                &HistogramSpec::duration_seconds(),
            ),
        });
        cache.borrow_mut().insert(name.into(), Arc::clone(&series));
        series
    })
}

/// An in-progress span; dropping it records the duration, adds it to
/// its tally if it has one and, in a recorded trace, deposits its trace
/// record. Create with [`crate::span`] (child of the thread's innermost
/// span, or a fresh unrecorded root), [`crate::span_in`] (child of an
/// explicit context), [`crate::span_tallied`] (a child that starts a
/// fresh tally), [`crate::span_root`] (always a fresh unrecorded root)
/// or [`crate::span_recorded`] (always a fresh recorded root).
#[derive(Debug)]
pub struct Span {
    series: Arc<SpanSeries>,
    start: Instant,
    /// Start on the trace timebase; read only in a recorded trace.
    start_us: u64,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    tally: Option<Tally>,
}

impl Span {
    /// Opens a span as a child of this thread's innermost open span (a
    /// fresh unrecorded root when the stack is empty). Prefer the
    /// crate-level [`crate::span`] / [`crate::span_in`] helpers: library
    /// code is clippy-barred from calling this directly so worker threads
    /// cannot silently sever parentage.
    pub fn enter(name: &str) -> Span {
        Span::open(name, SpanContext::current())
    }

    /// Opens a child of `parent` (in its tally), or an unrecorded root.
    pub(crate) fn open(name: &str, parent: Option<SpanContext>) -> Span {
        match parent {
            Some(p) => Span::start(name, next_id(), p.trace_id, Some(p.span_id), p.tally),
            None => Span::root(name, false),
        }
    }

    /// Opens a child of this thread's innermost open span (a fresh
    /// unrecorded root when the stack is empty) with a fresh tally.
    pub(crate) fn tallied(name: &str) -> Span {
        let parent = SpanContext::current();
        let trace_id = parent.as_ref().map_or_else(next_id, |p| p.trace_id);
        let parent_id = parent.map(|p| p.span_id);
        Span::start(name, next_id(), trace_id, parent_id, Some(Tally::default()))
    }

    /// Opens the root of a fresh trace, recorded or not.
    pub(crate) fn root(name: &str, recorded: bool) -> Span {
        let span_id = next_id();
        let trace_id = if recorded {
            next_id() | RECORDED
        } else {
            next_id()
        };
        Span::start(name, span_id, trace_id, None, None)
    }

    #[expect(clippy::disallowed_methods, reason = "span durations measure the host")]
    fn start(
        name: &str,
        span_id: u64,
        trace_id: u64,
        parent_id: Option<u64>,
        tally: Option<Tally>,
    ) -> Span {
        let recorded = is_recorded(trace_id);
        if recorded {
            trace::span_opened(trace_id);
        }
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                trace_id,
                span_id,
                args: Vec::new(),
                tally: tally.clone(),
                children: Duration::ZERO,
            })
        });
        Span {
            series: series(name),
            start: Instant::now(),
            start_us: if recorded { trace::epoch_micros() } else { 0 },
            trace_id,
            span_id,
            parent_id,
            tally,
        }
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        &self.series.name
    }

    /// Time since the span was entered.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The span's trace position and tally, for parenting spans onto it.
    pub fn context(&self) -> SpanContext {
        SpanContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
            tally: self.tally.clone(),
        }
    }

    /// The tally this span adds to, as it stands: every span of the tally
    /// closed so far, this one not yet. Empty when the span has no tally.
    pub fn stages(&self) -> StageTable {
        let mut stages = self
            .tally
            .as_ref()
            .map_or_else(Vec::new, |t| t.0.lock().clone());
        stages.sort_by(|a, b| {
            b.total_seconds
                .total_cmp(&a.total_seconds)
                .then_with(|| a.name.cmp(&b.name))
        });
        StageTable { stages }
    }

    /// [`attr_add`] on this span wherever it sits in the thread's stack,
    /// for a caller holding several sibling spans open at once (pipelined
    /// requests), where "innermost" is whichever was opened last.
    pub fn attr_add(&self, key: &'static str, n: u64) {
        if !is_recorded(self.trace_id) {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(frame) = stack.iter_mut().rfind(|f| f.span_id == self.span_id) {
                frame.add(key, n);
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        // Guards drop LIFO in correct code; tolerate out-of-order drops
        // by removing the exact frame wherever it sits. The parent, if
        // it is open on this thread, counts this span as its child.
        let (args, children) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack
                .iter()
                .rposition(|f| f.span_id == self.span_id)
                .map(|pos| stack.remove(pos));
            if let Some(parent) = self
                .parent_id
                .and_then(|id| stack.iter_mut().rfind(|f| f.span_id == id))
            {
                parent.children += elapsed;
            }
            frame.map_or((Vec::new(), Duration::ZERO), |f| (f.args, f.children))
        });
        self.series.seconds.observe_duration(elapsed);
        if let Some(tally) = &self.tally {
            tally.add(&self.series.name, elapsed, elapsed.saturating_sub(children));
        }
        if !is_recorded(self.trace_id) {
            return;
        }
        trace::span_closed(SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: self.series.name.to_string(),
            start_us: self.start_us,
            dur_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            tid: trace::thread_ordinal(),
            args,
        });
    }
}

/// A tally read out ([`Span::stages`]): per span name, how many spans
/// closed, their total time and their self time.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTable {
    /// One row per span name, by total time descending, then by name.
    pub stages: Vec<Stage>,
}

/// One row of a [`StageTable`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Span name.
    pub name: String,
    /// Spans of that name that closed, exactly (at least 1).
    pub count: u64,
    /// Their elapsed times summed.
    pub total_seconds: f64,
    /// Their self times summed: each span's elapsed time less that of its
    /// children closed on the same thread. Children on other threads are
    /// not subtracted, so a span that waits on workers keeps the wait.
    pub self_seconds: f64,
}

impl fmt::Display for StageTable {
    /// Renders a fixed-width timing table, one row per stage; the mean
    /// is the total over the count, and `self` the total less the time
    /// of same-thread children.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<24} {:>8} {:>12} {:>12} {:>12}",
            "stage", "count", "total", "self", "mean"
        )?;
        for s in &self.stages {
            let mean = s.total_seconds / s.count as f64;
            let (name, count, total, own) = (&s.name, s.count, s.total_seconds, s.self_seconds);
            writeln!(
                f,
                "  {name:<24} {count:>8} {total:>11.3}s {own:>11.3}s {mean:>11.6}s"
            )?;
        }
        Ok(())
    }
}

/// Adds `n` to the counter `key` on this thread's innermost open span
/// (no-op outside any span, or in an unrecorded trace). Keys are static,
/// low-cardinality names — `"bytes"`, `"frames_stitched"`, `"retries"` —
/// surfaced in the exported trace's `args`.
pub fn attr_add(key: &'static str, n: u64) {
    STACK.with(|s| {
        if let Some(frame) = s.borrow_mut().last_mut() {
            frame.add(key, n);
        }
    });
}

/// Sets the counter `key` on this thread's innermost open span to `v`
/// (no-op outside any span, or in an unrecorded trace) — for values that
/// are assignments rather than accumulations, such as an attempt number.
pub fn attr_set(key: &'static str, v: u64) {
    STACK.with(|s| {
        if let Some(slot) = s.borrow_mut().last_mut().and_then(|f| f.slot(key)) {
            *slot = v;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spans of `name` timed into `sift_span_seconds` so far, read
    /// through this thread's handle on the series.
    fn timed(name: &str) -> u64 {
        series(name).seconds.count()
    }

    #[test]
    fn spans_nest_and_record() {
        let before = timed("outer-test");
        {
            let outer = crate::span("outer-test");
            assert_eq!(SpanContext::current(), Some(outer.context()));
            {
                let inner = crate::span("inner-test");
                assert_eq!(SpanContext::current(), Some(inner.context()));
                assert_eq!(inner.parent_id, Some(outer.context().span_id));
            }
            assert_eq!(SpanContext::current(), Some(outer.context()));
        }
        assert_eq!(SpanContext::current(), None);
        assert_eq!(timed("outer-test"), before + 1);
    }

    #[test]
    fn elapsed_is_monotonic() {
        let span = Span::enter("elapsed-test");
        let a = span.elapsed();
        let b = span.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn nested_spans_share_a_trace_and_chain_parents() {
        let root = crate::span_recorded("trace-root-test");
        let root_ctx = root.context();
        let child = crate::span("trace-child-test");
        assert_eq!(child.context().trace_id, root_ctx.trace_id);
        drop(child);
        drop(root);
        let trace = crate::trace::completed(root_ctx.trace_id).expect("trace completed");
        assert_eq!(trace.spans.len(), 2);
        let child_rec = trace
            .spans
            .iter()
            .find(|s| s.name == "trace-child-test")
            .expect("child recorded");
        assert_eq!(child_rec.parent_id, Some(root_ctx.span_id));
        assert!(trace.orphans().is_empty());
    }

    #[test]
    fn span_in_adopts_context_across_threads() {
        let root = crate::span_recorded("handoff-root-test");
        let ctx = root.context();
        std::thread::scope(|s| {
            s.spawn(|| {
                let worker = crate::span_in(&ctx, "handoff-worker-test");
                assert_eq!(worker.context().trace_id, ctx.trace_id);
                assert_eq!(worker.parent_id, Some(ctx.span_id));
                assert_eq!(SpanContext::current(), Some(worker.context()));
            });
        });
        drop(root);
        let trace = crate::trace::completed(ctx.trace_id).expect("trace completed");
        let worker = trace
            .spans
            .iter()
            .find(|s| s.name == "handoff-worker-test")
            .expect("worker span joined the trace");
        assert_eq!(worker.parent_id, Some(ctx.span_id));
        assert!(trace.orphans().is_empty());
    }

    #[test]
    fn header_round_trip_and_rejection() {
        let ctx = SpanContext {
            trace_id: 0xdead_beef,
            span_id: 42,
            tally: None,
        };
        // An unrecorded context encodes as it always has, byte for byte.
        assert!(!ctx.is_recorded());
        assert_eq!(ctx.to_header(), "00000000deadbeef-000000000000002a");
        assert_eq!(SpanContext::from_header(&ctx.to_header()), Some(ctx));
        assert_eq!(SpanContext::from_header(""), None);
        assert_eq!(SpanContext::from_header("zz-11"), None);
        assert_eq!(SpanContext::from_header("0-0"), None);
        assert_eq!(SpanContext::from_header("123"), None);
    }

    #[test]
    fn a_recorded_root_marks_its_whole_tree_and_the_header_carries_the_mark() {
        let root = crate::span_recorded("recorded-mark-root-test");
        let ctx = root.context();
        assert!(ctx.is_recorded());
        assert!(crate::span("recorded-mark-child-test")
            .context()
            .is_recorded());
        let header = ctx.to_header();
        assert_eq!(header.len(), 33);
        let carried = SpanContext::from_header(&header).expect("parses");
        assert_eq!(carried, ctx);
        assert!(carried.is_recorded());
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(crate::span_in(&carried, "recorded-mark-remote-test")
                    .context()
                    .is_recorded())
            });
        });
        drop(root);
        let trace = crate::trace::completed(ctx.trace_id).expect("recorded");
        assert_eq!(trace.spans.len(), 3);
        assert!(trace.orphans().is_empty());
    }

    #[test]
    fn unrecorded_spans_time_but_leave_nothing_in_the_store() {
        let before = timed("unrecorded-test");
        let root = crate::span_root("unrecorded-test");
        let ctx = root.context();
        assert!(!ctx.is_recorded());
        {
            let child = crate::span("unrecorded-test");
            assert_eq!(child.context().trace_id, ctx.trace_id, "still one tree");
            assert!(!child.context().is_recorded());
            attr_add("bytes", 3);
        }
        drop(root);
        assert_eq!(timed("unrecorded-test"), before + 2, "both spans timed");
        assert!(crate::trace::completed(ctx.trace_id).is_none());
        let waited = Instant::now();
        assert!(crate::trace::wait_completed(ctx.trace_id, Duration::from_secs(30)).is_none());
        assert!(
            waited.elapsed() < Duration::from_secs(1),
            "no wait on an unrecorded id"
        );
    }

    #[test]
    fn span_attr_add_reaches_a_sibling_that_is_not_innermost() {
        let root = crate::span_recorded("attr-sibling-root-test");
        let ctx = root.context();
        let first = crate::span_in(&ctx, "attr-sibling-first-test");
        let second = crate::span_in(&ctx, "attr-sibling-second-test");
        first.attr_add("bytes", 7);
        drop(first); // out of stack order, as replies arrive
        drop(second);
        drop(root);
        let trace = crate::trace::completed(ctx.trace_id).expect("trace completed");
        let arg = |name: &str| {
            let span = trace.spans.iter().find(|s| s.name == name).expect(name);
            assert_eq!(span.parent_id, Some(ctx.span_id), "{name} is a sibling");
            span.arg("bytes")
        };
        assert_eq!(arg("attr-sibling-first-test"), Some(7));
        assert_eq!(arg("attr-sibling-second-test"), None);
    }

    #[test]
    fn attrs_attach_to_innermost_span() {
        let root = crate::span_recorded("attr-root-test");
        let ctx = root.context();
        {
            let _inner = crate::span("attr-inner-test");
            attr_add("bytes", 10);
            attr_add("bytes", 5);
            attr_set("attempt", 3);
        }
        attr_add("frames_stitched", 2);
        drop(root);
        let trace = crate::trace::completed(ctx.trace_id).expect("trace completed");
        let inner = trace
            .spans
            .iter()
            .find(|s| s.name == "attr-inner-test")
            .expect("inner");
        assert_eq!(inner.arg("bytes"), Some(15));
        assert_eq!(inner.arg("attempt"), Some(3));
        let root_rec = trace
            .spans
            .iter()
            .find(|s| s.name == "attr-root-test")
            .expect("root");
        assert_eq!(root_rec.arg("frames_stitched"), Some(2));
    }

    /// The rows of `table` as `(name, count)`.
    fn counts(table: &StageTable) -> Vec<(&str, u64)> {
        let mut rows: Vec<_> = table
            .stages
            .iter()
            .map(|s| (s.name.as_str(), s.count))
            .collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn a_tally_counts_its_subtree_on_every_thread_and_nothing_else() {
        let outside = crate::span("tally-outside-test");
        let study = crate::span_tallied("tally-root-test");
        assert_eq!(study.context().trace_id, outside.context().trace_id);
        let ctx = study.context();
        drop(crate::span("tally-child-test"));
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let _worker = crate::span_in(&ctx, "tally-worker-test");
                    drop(crate::span("tally-child-test"));
                    // A fresh root, and a context carried by header, leave
                    // the tally behind.
                    drop(crate::span_root("tally-detached-test"));
                    let remote = SpanContext::from_header(&ctx.to_header()).expect("parses");
                    drop(crate::span_in(&remote, "tally-detached-test"));
                });
            }
        });
        let table = study.stages();
        assert_eq!(
            counts(&table),
            [("tally-child-test", 4), ("tally-worker-test", 3)]
        );
        drop(study);
        assert!(
            outside.stages().stages.is_empty(),
            "no tally above the root"
        );
        assert!(crate::span("tally-after-test").stages().stages.is_empty());
    }

    /// A span's self time leaves out its same-thread children, nested
    /// or reopened with `span_in`, and keeps its children on other
    /// threads.
    #[test]
    fn self_time_subtracts_children_on_the_same_thread_only() {
        let study = crate::span_tallied("self-root-test");
        let ctx = study.context();
        {
            let parent = crate::span("self-parent-test");
            let parent_ctx = parent.context();
            drop(crate::span("self-child-test"));
            drop(crate::span_in(&parent_ctx, "self-child-test"));
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _worker = crate::span_in(&parent_ctx, "self-worker-test");
                    std::thread::sleep(Duration::from_millis(30));
                });
            });
        }
        drop(crate::span_in(&ctx, "self-leaf-test"));
        let table = study.stages();
        let row = |name: &str| {
            let stage = table.stages.iter().find(|s| s.name == name).expect(name);
            (stage.total_seconds, stage.self_seconds)
        };
        let (parent_total, parent_self) = row("self-parent-test");
        let (child_total, child_self) = row("self-child-test");
        let (worker_total, _) = row("self-worker-test");
        assert_eq!(
            child_self.to_bits(),
            child_total.to_bits(),
            "a leaf's self time is its total"
        );
        let subtracted = parent_total - parent_self;
        assert!((subtracted - child_total).abs() < 1e-9, "{table}");
        assert!(
            parent_self >= worker_total,
            "the worker is not subtracted: {table}"
        );
    }

    #[test]
    fn a_stage_table_prints_count_total_self_and_mean() {
        let table = StageTable {
            stages: vec![Stage {
                name: "detect".into(),
                count: 4,
                total_seconds: 0.5,
                self_seconds: 0.375,
            }],
        };
        let text = table.to_string();
        assert!(text.contains("stage") && text.contains("self"), "{text}");
        assert!(
            text.contains("detect") && text.contains("0.375s") && text.contains("0.125000s"),
            "{text}"
        );
        let back: StageTable =
            serde_json::from_str(&serde_json::to_string(&table).expect("encode")).expect("decode");
        assert_eq!(back, table);
    }
}
