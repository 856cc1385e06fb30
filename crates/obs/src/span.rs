//! Trace-aware span timers.
//!
//! A span measures one stage of work *and* places it in a causal trace
//! tree: every span carries a trace id, its own span id and its parent's
//! id. Entering pushes the span onto a thread-local stack (so nested
//! spans and attributed counters know their context); dropping
//! the guard records the elapsed time into the global histogram
//! `sift_span_seconds{span="<name>"}` and deposits a
//! [`crate::trace::SpanRecord`] into the trace store.
//!
//! Parentage follows the thread-local stack by default. Across
//! boundaries where that stack is severed — worker threads, HTTP — the
//! caller captures [`SpanContext::current`] and reopens with
//! [`crate::span_in`] (or ships the context in the `X-Sift-Trace`
//! header via [`SpanContext::to_header`]). Counters such as bytes
//! fetched or frames stitched attach to the innermost span via
//! [`attr_add`] / [`attr_set`].

use crate::metrics::HistogramSpec;
use crate::trace::{self, SpanRecord};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The histogram every span records into, labelled by span name.
pub const SPAN_METRIC: &str = "sift_span_seconds";

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A span's position in its trace: enough to parent further spans onto
/// it, locally ([`crate::span_in`]) or across a process boundary
/// ([`SpanContext::to_header`] / [`SpanContext::from_header`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// The trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id; children set it as their parent id.
    pub span_id: u64,
}

impl SpanContext {
    /// The context of the innermost span open on this thread.
    pub fn current() -> Option<SpanContext> {
        STACK.with(|s| {
            s.borrow().last().map(|f| SpanContext {
                trace_id: f.trace_id,
                span_id: f.span_id,
            })
        })
    }

    /// Wire encoding for the `X-Sift-Trace` header:
    /// `<trace_id hex16>-<span_id hex16>`.
    pub fn to_header(self) -> String {
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
        Some(SpanContext { trace_id, span_id })
    }
}

struct Frame {
    trace_id: u64,
    span_id: u64,
    args: Vec<(&'static str, u64)>,
}

impl Frame {
    fn add(&mut self, key: &'static str, n: u64) {
        match self.args.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = slot.1.saturating_add(n),
            None => self.args.push((key, n)),
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// An in-progress span; dropping it records the duration and its trace
/// record. Create with [`crate::span`] (child of the thread's innermost
/// span, or a fresh trace root), [`crate::span_in`] (child of an
/// explicit context) or [`crate::span_root`] (always a fresh root).
#[derive(Debug)]
pub struct Span {
    name: String,
    start: Instant,
    start_us: u64,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
}

impl Span {
    /// Opens a span as a child of this thread's innermost open span (a
    /// fresh trace root when the stack is empty). Prefer the crate-level
    /// [`crate::span`] / [`crate::span_in`] helpers: strict-path crates
    /// (`core`, `fetcher`) are lint-required (`trace-span`) to use the
    /// context-carrying API so worker threads cannot silently sever
    /// parentage.
    pub fn enter(name: &str) -> Span {
        Span::open(name, SpanContext::current())
    }

    #[expect(clippy::disallowed_methods, reason = "span durations measure the host")]
    pub(crate) fn open(name: &str, parent: Option<SpanContext>) -> Span {
        let span_id = next_id();
        let (trace_id, parent_id) = match parent {
            Some(p) => (p.trace_id, Some(p.span_id)),
            None => (next_id(), None),
        };
        trace::span_opened(trace_id);
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                trace_id,
                span_id,
                args: Vec::new(),
            })
        });
        Span {
            name: name.to_owned(),
            start: Instant::now(),
            start_us: trace::epoch_micros(),
            trace_id,
            span_id,
            parent_id,
        }
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time since the span was entered.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The span's trace position, for parenting further spans onto it.
    pub fn context(&self) -> SpanContext {
        SpanContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
        }
    }

    /// [`attr_add`] on this span wherever it sits in the thread's stack,
    /// for a caller holding several sibling spans open at once (pipelined
    /// requests), where "innermost" is whichever was opened last.
    pub fn attr_add(&self, key: &'static str, n: u64) {
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
        // by removing the exact frame wherever it sits.
        let args = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            match stack.iter().rposition(|f| f.span_id == self.span_id) {
                Some(pos) => stack.remove(pos).args,
                None => Vec::new(),
            }
        });
        crate::global()
            .histogram(
                SPAN_METRIC,
                &[("span", &self.name)],
                &HistogramSpec::duration_seconds(),
            )
            .observe_duration(elapsed);
        trace::span_closed(SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            dur_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            tid: trace::thread_ordinal(),
            args,
        });
    }
}

/// Adds `n` to the counter `key` on this thread's innermost open span
/// (no-op outside any span). Keys are static, low-cardinality names —
/// `"bytes"`, `"frames_stitched"`, `"retries"` — surfaced in the
/// exported trace's `args`.
pub fn attr_add(key: &'static str, n: u64) {
    STACK.with(|s| {
        if let Some(frame) = s.borrow_mut().last_mut() {
            frame.add(key, n);
        }
    });
}

/// Sets the counter `key` on this thread's innermost open span to `v`
/// (no-op outside any span) — for values that are assignments rather
/// than accumulations, such as an attempt number.
pub fn attr_set(key: &'static str, v: u64) {
    STACK.with(|s| {
        if let Some(frame) = s.borrow_mut().last_mut() {
            match frame.args.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => slot.1 = v,
                None => frame.args.push((key, v)),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record() {
        let before = crate::global()
            .histogram_states(SPAN_METRIC)
            .into_iter()
            .find(|(labels, _)| labels == &[("span".to_owned(), "outer-test".to_owned())])
            .map(|(_, s)| s.count)
            .unwrap_or(0);
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
        let after = crate::global()
            .histogram_states(SPAN_METRIC)
            .into_iter()
            .find(|(labels, _)| labels == &[("span".to_owned(), "outer-test".to_owned())])
            .map(|(_, s)| s.count)
            .unwrap_or(0);
        assert_eq!(after, before + 1);
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
        let root = crate::span_root("trace-root-test");
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
        let root = crate::span_root("handoff-root-test");
        let ctx = root.context();
        std::thread::scope(|s| {
            s.spawn(move || {
                let worker = crate::span_in(ctx, "handoff-worker-test");
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
        };
        assert_eq!(SpanContext::from_header(&ctx.to_header()), Some(ctx));
        assert_eq!(SpanContext::from_header(""), None);
        assert_eq!(SpanContext::from_header("zz-11"), None);
        assert_eq!(SpanContext::from_header("0-0"), None);
        assert_eq!(SpanContext::from_header("123"), None);
    }

    #[test]
    fn span_attr_add_reaches_a_sibling_that_is_not_innermost() {
        let root = crate::span_root("attr-sibling-root-test");
        let ctx = root.context();
        let first = crate::span_in(ctx, "attr-sibling-first-test");
        let second = crate::span_in(ctx, "attr-sibling-second-test");
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
        let root = crate::span_root("attr-root-test");
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
}
