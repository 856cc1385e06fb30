//! Trace assembly, export and critical-path analysis.
//!
//! Spans ([`crate::span`]) carry a trace id, a span id and a parent id;
//! every closed span deposits a [`SpanRecord`] here, grouped by trace id.
//! A trace is *completed* when its last open span closes (the open-span
//! count reaches zero), which tolerates out-of-order closes across
//! threads — a server-side span racing the client's root close still
//! lands in the same tree. Completed traces sit in a bounded ring,
//! served as JSON by `GET /trace/recent` and exportable as
//! Chrome trace-event JSON ([`chrome_trace_json`], Perfetto-loadable).
//!
//! [`critical_path`] walks a finished tree backwards from the root —
//! always descending into the child that finished last — and attributes
//! every microsecond of the root's duration to exactly one span's
//! self-time, so per-stage shares sum to the end-to-end wall time.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Per-trace cap on recorded spans; beyond it spans still time and hit
/// `sift_span_seconds`, but their records are dropped and counted in
/// `sift_obs_trace_spans_dropped_total`. Also the cap on spans held by
/// the whole recent ring.
pub const TRACE_SPAN_CAP: usize = 100_000;

/// How many completed traces the recent ring keeps at most; it keeps
/// fewer when they are large (no more than [`TRACE_SPAN_CAP`] spans in
/// total, the newest trace always).
pub const RECENT_TRACE_CAP: usize = 32;

/// One closed span inside a trace tree.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id, unique within the process.
    pub span_id: u64,
    /// Parent span id; `None` marks a trace root.
    pub parent_id: Option<u64>,
    /// Span name (low-cardinality; per-item detail goes in `args`).
    pub name: String,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Wall duration in microseconds.
    pub dur_us: u64,
    /// Ordinal of the OS thread the span ran on.
    pub tid: u64,
    /// Counters attributed to the span while it was the innermost one
    /// (bytes fetched, frames stitched, retries, attempt numbers, …).
    pub args: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// End offset in microseconds since the trace epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }

    /// The value of one attributed counter, if present.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// A completed trace: every closed span that shares one trace id,
/// sorted by start time.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The shared trace id.
    pub trace_id: u64,
    /// All spans of the tree, sorted by `(start_us, span_id)`.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// The root span (no parent). With several parentless spans —
    /// a malformed tree — the longest one wins.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent_id.is_none())
            .max_by_key(|s| s.dur_us)
    }

    /// Spans whose parent id is absent from the tree *and* that are not
    /// roots: severed parentage that the propagation layer should have
    /// prevented.
    pub fn orphans(&self) -> Vec<&SpanRecord> {
        let ids: HashMap<u64, ()> = self.spans.iter().map(|s| (s.span_id, ())).collect();
        self.spans
            .iter()
            .filter(|s| s.parent_id.is_some_and(|p| !ids.contains_key(&p)))
            .collect()
    }
}

struct ActiveTrace {
    open: usize,
    dropped: u64,
    spans: Vec<SpanRecord>,
}

struct Store {
    active: Mutex<HashMap<u64, ActiveTrace>>,
    recent: Mutex<VecDeque<Trace>>,
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store {
        active: Mutex::new(HashMap::new()),
        recent: Mutex::new(VecDeque::new()),
    })
}

/// Microseconds since the process-wide trace epoch (first use). All
/// spans in a process share this timebase, so client and server spans
/// of an in-process round-trip align on one Perfetto timeline.
#[expect(clippy::disallowed_methods, reason = "trace timestamps are host time")]
pub fn epoch_micros() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Stable small ordinal for the current OS thread (trace `tid` field).
pub(crate) fn thread_ordinal() -> u64 {
    TID.with(|t| *t)
}

/// Bumps the open-span count of `trace_id` (called on span enter).
pub(crate) fn span_opened(trace_id: u64) {
    let mut active = store().active.lock();
    active
        .entry(trace_id)
        .or_insert_with(|| ActiveTrace {
            open: 0,
            dropped: 0,
            spans: Vec::new(),
        })
        .open += 1;
}

/// Records a closed span; completes the trace when it was the last open
/// span.
pub(crate) fn span_closed(rec: SpanRecord) {
    let trace_id = rec.trace_id;
    let finished = {
        let mut active = store().active.lock();
        let t = active.entry(trace_id).or_insert_with(|| ActiveTrace {
            open: 1,
            dropped: 0,
            spans: Vec::new(),
        });
        t.open = t.open.saturating_sub(1);
        if t.spans.len() < TRACE_SPAN_CAP {
            t.spans.push(rec);
        } else {
            t.dropped += 1;
        }
        if t.open == 0 {
            active.remove(&trace_id)
        } else {
            None
        }
    };
    let Some(done) = finished else { return };
    if done.dropped > 0 {
        crate::counter("sift_obs_trace_spans_dropped_total", &[]).add(done.dropped);
    }
    let mut spans = done.spans;
    let mut recent = store().recent.lock();
    if let Some(existing) = recent.iter_mut().find(|t| t.trace_id == trace_id) {
        // A late span re-opened an already-completed trace (e.g. a
        // server worker closing after the client's root): merge rather
        // than duplicate the tree.
        existing.spans.append(&mut spans);
        existing.spans.sort_by_key(|s| (s.start_us, s.span_id));
        return;
    }
    spans.sort_by_key(|s| (s.start_us, s.span_id));
    push_recent(&mut recent, Trace { trace_id, spans });
}

/// Appends a completed trace to the ring, then evicts from the old end
/// until the ring holds at most [`RECENT_TRACE_CAP`] traces and at most
/// [`TRACE_SPAN_CAP`] spans in total — always keeping the newest. The
/// span bound is what bounds memory: a full study is one trace of tens
/// of thousands of spans, and 32 of those would be most of a process's
/// resident set.
fn push_recent(recent: &mut VecDeque<Trace>, trace: Trace) {
    recent.push_back(trace);
    let mut held: usize = recent.iter().map(|t| t.spans.len()).sum();
    while recent.len() > 1 && (recent.len() > RECENT_TRACE_CAP || held > TRACE_SPAN_CAP) {
        if let Some(evicted) = recent.pop_front() {
            held -= evicted.spans.len();
        }
    }
}

/// The completed traces currently in the ring, oldest first.
pub fn recent_traces() -> Vec<Trace> {
    store().recent.lock().iter().cloned().collect()
}

/// A completed trace by id, if still in the ring.
pub fn completed(trace_id: u64) -> Option<Trace> {
    store()
        .recent
        .lock()
        .iter()
        .find(|t| t.trace_id == trace_id)
        .cloned()
}

/// Waits (polling) until `trace_id` completes — spans on other threads
/// may close a beat after the root guard drops — up to `timeout`.
#[expect(clippy::disallowed_methods, reason = "waits on host threads' spans")]
pub fn wait_completed(trace_id: u64, timeout: Duration) -> Option<Trace> {
    let deadline = Instant::now() + timeout;
    loop {
        let still_open = store()
            .active
            .lock()
            .get(&trace_id)
            .is_some_and(|t| t.open > 0);
        if !still_open {
            if let Some(t) = completed(trace_id) {
                return t.into();
            }
        }
        if Instant::now() >= deadline {
            return completed(trace_id);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders one trace in the Chrome trace-event JSON format (an object
/// with a `traceEvents` array of `ph:"X"` complete events), loadable in
/// Perfetto / `chrome://tracing`. Trace, span and parent ids travel in
/// each event's `args` alongside the attributed counters.
#[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            esc(&s.name),
            s.start_us,
            s.dur_us,
            s.tid
        );
        let _ = write!(
            out,
            ",\"args\":{{\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\"",
            s.trace_id, s.span_id
        );
        if let Some(p) = s.parent_id {
            let _ = write!(out, ",\"parent_id\":\"{p:016x}\"");
        }
        for (k, v) in &s.args {
            let _ = write!(out, ",\"{}\":{}", esc(k), v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Renders completed traces as a JSON array of trace objects (the
/// `GET /trace/recent` body): span-id fields are hex strings, counters
/// nest under `args`.
#[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
pub fn traces_json(traces: &[Trace]) -> String {
    let mut out = String::from("[");
    for (ti, t) in traces.iter().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"trace_id\":\"{:016x}\",\"spans\":[", t.trace_id);
        for (i, s) in t.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"span_id\":\"{:016x}\",\"parent_id\":", s.span_id);
            match s.parent_id {
                Some(p) => {
                    let _ = write!(out, "\"{p:016x}\"");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"tid\":{},\"args\":{{",
                esc(&s.name),
                s.start_us,
                s.dur_us,
                s.tid
            );
            for (ai, (k, v)) in s.args.iter().enumerate() {
                if ai > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", esc(k), v);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// Self-time attribution of a trace's critical path: every microsecond
/// of the root's duration is charged to exactly one span name.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Duration of the root span in microseconds (= the sum of all
    /// `by_name` self-times).
    pub total_us: u64,
    /// Self-time on the critical path per span name, descending.
    pub by_name: Vec<(String, u64)>,
}

impl CriticalPath {
    /// Summed self-time of the named spans, in microseconds.
    pub fn named_us(&self, names: &[&str]) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| names.contains(&n.as_str()))
            .map(|(_, us)| us)
            .sum()
    }

    /// Fraction of the root duration spent in the named spans.
    pub fn share(&self, names: &[&str]) -> f64 {
        if self.total_us == 0 {
            return 0.0;
        }
        to_f64(self.named_us(names)) / to_f64(self.total_us)
    }
}

/// `u64 → f64` for ratios of microsecond totals; exact below 2⁵³ µs
/// (≈ 285 years), far beyond any run.
fn to_f64(us: u64) -> f64 {
    us as f64
}

impl fmt::Display for CriticalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "critical path: {:.3}s end-to-end",
            to_f64(self.total_us) / 1e6
        )?;
        for (name, us) in &self.by_name {
            writeln!(
                f,
                "  {name:<18} {:>9.3}s  {:>5.1}%",
                to_f64(*us) / 1e6,
                100.0 * to_f64(*us) / to_f64(self.total_us.max(1))
            )?;
        }
        Ok(())
    }
}

/// Walks a completed trace backwards from its root, always descending
/// into the child that finished last, and attributes the uncovered gaps
/// to the parent's self-time. The attribution telescopes: the returned
/// self-times sum exactly to the root's duration. Returns `None` for a
/// rootless trace.
pub fn critical_path(trace: &Trace) -> Option<CriticalPath> {
    let root = trace.root()?;
    let root_idx = trace.spans.iter().position(|s| s.span_id == root.span_id)?;

    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        if let Some(p) = s.parent_id {
            children.entry(p).or_default().push(i);
        }
    }

    let mut consumed = vec![false; trace.spans.len()];
    let mut self_us: HashMap<&str, u64> = HashMap::new();
    // (span index, cursor end, clamped start floor)
    let mut work: Vec<(usize, u64, u64)> = vec![(root_idx, root.end_us(), root.start_us)];

    while let Some((i, cursor, floor)) = work.pop() {
        let span = &trace.spans[i];
        // The unconsumed child that finished last before the cursor,
        // clamped into the parent's remaining window.
        let mut best: Option<(usize, u64, u64)> = None;
        if let Some(kids) = children.get(&span.span_id) {
            for &c in kids {
                if consumed[c] {
                    continue;
                }
                let child = &trace.spans[c];
                let ce = child.end_us().min(cursor);
                let cs = child.start_us.max(floor);
                if ce <= cs {
                    continue;
                }
                if best.map_or(true, |(_, be, bs)| (ce, cs) > (be, bs)) {
                    best = Some((c, ce, cs));
                }
            }
        }
        match best {
            None => {
                *self_us.entry(span.name.as_str()).or_default() += cursor.saturating_sub(floor);
            }
            Some((c, ce, cs)) => {
                consumed[c] = true;
                *self_us.entry(span.name.as_str()).or_default() += cursor.saturating_sub(ce);
                work.push((i, cs, floor));
                work.push((c, ce, cs));
            }
        }
    }

    let mut by_name: Vec<(String, u64)> = self_us
        .into_iter()
        .map(|(n, us)| (n.to_owned(), us))
        .collect();
    by_name.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Some(CriticalPath {
        total_us: root.dur_us,
        by_name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        trace_id: u64,
        span_id: u64,
        parent_id: Option<u64>,
        name: &str,
        start_us: u64,
        dur_us: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent_id,
            name: name.to_owned(),
            start_us,
            dur_us,
            tid: 1,
            args: vec![],
        }
    }

    #[test]
    fn critical_path_telescopes_to_root_duration() {
        // root [0,100) with children a [10,40) and b [50,90); a has a
        // child c [20,40). Path: root(100→90) → b(90→50) → root(50→40)
        // → a(40→20 via c, 20→10 self) → root(10→0).
        let trace = Trace {
            trace_id: 9,
            spans: vec![
                rec(9, 1, None, "root", 0, 100),
                rec(9, 2, Some(1), "a", 10, 30),
                rec(9, 3, Some(1), "b", 50, 40),
                rec(9, 4, Some(2), "c", 20, 20),
            ],
        };
        let cp = critical_path(&trace).expect("has root");
        assert_eq!(cp.total_us, 100);
        let sum: u64 = cp.by_name.iter().map(|(_, us)| us).sum();
        assert_eq!(sum, 100, "{:?}", cp.by_name);
        let get = |n: &str| cp.named_us(&[n]);
        assert_eq!(get("root"), 30); // gaps [90,100) + [40,50) + [0,10)
        assert_eq!(get("b"), 40);
        assert_eq!(get("a"), 10); // [10,20) before its child c
        assert_eq!(get("c"), 20);
        assert!((cp.share(&["a", "b", "c"]) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn critical_path_prefers_latest_finishing_child() {
        // Two parallel children; the one that ends later carries the
        // path, the earlier one is invisible to it.
        let trace = Trace {
            trace_id: 5,
            spans: vec![
                rec(5, 1, None, "root", 0, 100),
                rec(5, 2, Some(1), "slow", 0, 95),
                rec(5, 3, Some(1), "fast", 0, 60),
            ],
        };
        let cp = critical_path(&trace).expect("has root");
        assert_eq!(cp.named_us(&["slow"]), 95);
        assert_eq!(cp.named_us(&["fast"]), 0);
        assert_eq!(cp.named_us(&["root"]), 5);
    }

    #[test]
    fn chrome_export_is_valid_event_array() {
        let mut r = rec(7, 1, None, "root", 3, 11);
        r.args.push(("bytes", 42));
        let trace = Trace {
            trace_id: 7,
            spans: vec![r, rec(7, 2, Some(1), "child", 4, 5)],
        };
        let text = chrome_trace_json(&trace);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        let serde_json::Value::Object(obj) = v else {
            panic!("not an object")
        };
        assert!(obj.iter().any(|(k, _)| k == "traceEvents"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"parent_id\":\"0000000000000001\""));
        assert!(text.contains("\"bytes\":42"));
    }

    #[test]
    fn traces_json_round_trips_through_parser() {
        let trace = Trace {
            trace_id: 8,
            spans: vec![rec(8, 1, None, "root", 0, 10)],
        };
        let text = traces_json(&[trace]);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert!(matches!(v, serde_json::Value::Array(_)));
        assert!(text.contains("\"parent_id\":null"));
    }

    #[test]
    fn recent_ring_is_bounded_by_spans_as_well_as_by_count() {
        let trace_of = |trace_id: u64, spans: u64| Trace {
            trace_id,
            spans: (0..spans)
                .map(|i| rec(trace_id, i + 1, (i > 0).then_some(1), "s", i, 1))
                .collect(),
        };
        let held = |ring: &VecDeque<Trace>| ring.iter().map(|t| t.spans.len()).sum::<usize>();

        // Forty study-sized traces: the ring sheds the oldest to stay
        // under the span cap, and the newest is always there to read.
        let mut ring = VecDeque::new();
        for id in 1..=40 {
            push_recent(&mut ring, trace_of(id, 10_000));
            assert!(held(&ring) <= TRACE_SPAN_CAP, "{} spans held", held(&ring));
            assert_eq!(ring.back().map(|t| t.trace_id), Some(id));
        }
        assert_eq!(ring.len(), TRACE_SPAN_CAP / 10_000);
        assert_eq!(ring.front().map(|t| t.trace_id), Some(31));

        // Small traces are still bounded by count alone.
        let mut ring = VecDeque::new();
        for id in 1..=RECENT_TRACE_CAP as u64 {
            push_recent(&mut ring, trace_of(id, 3));
        }
        assert_eq!(ring.len(), RECENT_TRACE_CAP);
        assert_eq!(ring.front().map(|t| t.trace_id), Some(1));
        push_recent(&mut ring, trace_of(99, 3));
        assert_eq!(ring.len(), RECENT_TRACE_CAP);
        assert_eq!(ring.front().map(|t| t.trace_id), Some(2));

        // One trace at the per-trace cap displaces everything else but
        // is itself kept.
        push_recent(&mut ring, trace_of(100, TRACE_SPAN_CAP as u64));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.back().map(|t| t.trace_id), Some(100));
    }

    #[test]
    fn orphans_are_detected() {
        let trace = Trace {
            trace_id: 4,
            spans: vec![
                rec(4, 1, None, "root", 0, 10),
                rec(4, 2, Some(1), "ok", 1, 2),
                rec(4, 3, Some(99), "lost", 3, 2),
            ],
        };
        let orphans = trace.orphans();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].name, "lost");
    }
}
