//! The benchmark's own span recorder.
//!
//! Spans are opened by code under `benchmark/` around calls into the
//! program's layers; nothing is read from `sift_obs`. Each thread appends
//! finished spans to its own buffer, the buffers stay in memory until the
//! run ends, and [`drain`] collects them. With the recorder disabled a
//! span costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
    /// The traced iteration the span belongs to.
    pub run: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

type Buffer = Arc<Mutex<Vec<SpanRec>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static RUN: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

struct Local {
    buffer: Buffer,
    stack: RefCell<Vec<u64>>,
    thread: u64,
}

thread_local! {
    static LOCAL: Local = {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().expect("trace buffers").push(Arc::clone(&buffer));
        Local {
            buffer,
            stack: RefCell::new(Vec::new()),
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        }
    };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for spans opened from now on.
pub fn enable(on: bool) {
    now_ns(); // pin the epoch before the first span
    ENABLED.store(on, Ordering::Relaxed);
}

/// Labels the spans opened from now on with a traced-iteration number.
pub fn set_run(run: u32) {
    RUN.store(run, Ordering::Relaxed);
}

/// An open span; recorded when dropped. Inert when recording is off.
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Span {
    /// This span's id, for [`span_under`] on another thread.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Opens a span under this thread's innermost open span.
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// Opens a span under an explicit parent, for work handed to another
/// thread.
pub fn span_under(parent: u64, name: &'static str) -> Span {
    open(name, Some(parent))
}

fn open(name: &'static str, parent: Option<u64>) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut stack = l.stack.borrow_mut();
        let parent = parent.unwrap_or_else(|| stack.last().copied().unwrap_or(0));
        stack.push(id);
        parent
    });
    Span {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut stack = l.stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&s| s == self.id) {
                stack.truncate(pos);
            }
            l.buffer.lock().expect("trace buffer").push(SpanRec {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                thread: l.thread,
                run: RUN.load(Ordering::Relaxed),
            });
        });
    }
}

/// Takes every span recorded so far, from every thread, ordered by start.
pub fn drain() -> Vec<SpanRec> {
    let mut all = Vec::new();
    for buffer in BUFFERS.lock().expect("trace buffers").iter() {
        all.append(&mut buffer.lock().expect("trace buffer"));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Per span name: calls, summed duration, summed self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// Self time per span: its duration minus the part of its interval that
/// its child spans cover (children on several threads may overlap, so
/// the cover is the union of their intervals, clipped to the parent).
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Calls, busy time and self time summed per span name.
pub fn totals_by_name(spans: &[SpanRec]) -> HashMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, NameTotals> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_ns += s.dur_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}

/// Calls, busy time and self time per span name, averaged over the
/// traced passes of a run so they compare with one pass's wall time.
pub struct PerPass {
    totals: HashMap<&'static str, NameTotals>,
    passes: f64,
}

impl PerPass {
    pub fn new(spans: &[SpanRec], passes: usize) -> PerPass {
        PerPass {
            totals: totals_by_name(spans),
            passes: passes.max(1) as f64,
        }
    }

    fn of(&self, name: &str, field: impl Fn(&NameTotals) -> u64) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| field(t) as f64 / self.passes)
    }

    pub fn calls(&self, name: &str) -> f64 {
        self.of(name, |t| t.calls)
    }

    pub fn busy_s(&self, name: &str) -> f64 {
        self.of(name, |t| t.busy_ns) / 1e9
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.of(name, |t| t.self_ns) / 1e9
    }
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Renders the trace file: every span, then the per-name summary.
pub fn to_json(workload: &str, spans: &[SpanRec]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    out.push_str(&format!(
        "{{\"schema\":\"sift-benchmark-trace/1\",\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[\n"
    ));
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"thread\":{},\"run\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.thread, s.run
        ));
    }
    out.push_str("\n],\"summary\":[\n");
    let mut names: Vec<_> = totals_by_name(spans).into_iter().collect();
    names.sort_by(|a, b| b.1.busy_ns.cmp(&a.1.busy_ns).then(a.0.cmp(b.0)));
    for (i, (name, t)) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"calls\":{},\"busy_ns\":{},\"self_ns\":{}}}",
            t.calls, t.busy_ns, t.self_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            thread: 1,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100; children 10..40 and 30..60 overlap (two threads),
        // 90..120 runs past the root's end.
        let spans = vec![
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 40),
            rec(3, 1, 30, 60),
            rec(4, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (50 + 10));
        assert_eq!(selfs[&2], 30);
    }
}
