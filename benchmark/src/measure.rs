//! Small measuring helpers shared by the workloads.

use crate::report::Report;
use crate::trace::{self, SpanRec};
use std::path::Path;
use std::time::Instant;

/// Set-ups per run of a workload that makes one pass; `setup_s` is
/// their median. (The batch workloads set up once per pass.)
pub const SETUPS: usize = 5;

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes `benchmark/target/trace-<workload>.json` and reports how many
/// spans it holds and how much of the root spans their children cover.
pub fn write_trace(
    out_dir: &Path,
    workload: &str,
    root: &str,
    spans: &[SpanRec],
    report: &mut Report,
) {
    let path = out_dir.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(out_dir).expect("create output directory");
    std::fs::write(&path, trace::to_json(workload, spans)).expect("write trace file");
    report.note(format!(
        "trace: {} spans -> {}",
        spans.len(),
        path.display()
    ));
    report.metric("trace.spans", spans.len() as f64);
    if let Some(t) = trace::totals_by_name(spans).get(root) {
        let covered = 1.0 - t.self_ns as f64 / t.busy_ns.max(1) as f64;
        report.metric("trace.accounted_share", covered);
    }
}
