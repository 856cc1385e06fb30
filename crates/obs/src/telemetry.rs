//! Serializable telemetry snapshots: per-stage span timings.
//!
//! [`SpanBaseline`] captures the global span histograms at a point in
//! time; [`TelemetrySnapshot::since`] diffs against it, yielding exactly
//! the spans recorded in between — suitable for embedding in result
//! structs (e.g. `StudyStats`) and printing as a timing table.

use crate::metrics::HistogramState;
use crate::span::SPAN_METRIC;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Point-in-time capture of every span histogram, used as the "before"
/// side of a diff.
#[derive(Clone, Debug, Default)]
pub struct SpanBaseline {
    states: BTreeMap<String, HistogramState>,
}

impl SpanBaseline {
    /// Captures the current global span histograms.
    pub fn capture() -> SpanBaseline {
        let mut states = BTreeMap::new();
        for (labels, state) in crate::global().histogram_states(SPAN_METRIC) {
            if let Some((_, name)) = labels.iter().find(|(k, _)| k == "span") {
                states.insert(name.clone(), state);
            }
        }
        SpanBaseline { states }
    }
}

/// Timing summary of one span (stage).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Span name.
    pub name: String,
    /// Times the span ran.
    pub count: u64,
    /// Total seconds across runs.
    pub total_seconds: f64,
    /// Mean seconds per run.
    pub mean_seconds: f64,
    /// Estimated median, from the span histogram: a point inside the log
    /// bucket holding the median, at most that bucket's upper bound (one
    /// run reads as the bucket upper bound), clamped to `total_seconds`.
    /// Exact when `count` is 1, an upper bound otherwise.
    pub p50_seconds: f64,
    /// Estimated 99th percentile, by the same bucket upper bound and the
    /// same clamp as `p50_seconds`.
    pub p99_seconds: f64,
}

impl StageTiming {
    /// The summary of one span's observations. No run of a stage outlasts
    /// all its runs together, so the bucket estimates are clamped to the
    /// stage's total.
    fn from_state(name: String, delta: &HistogramState) -> StageTiming {
        StageTiming {
            name,
            count: delta.count,
            total_seconds: delta.sum,
            mean_seconds: delta.mean(),
            p50_seconds: delta.quantile(0.5).min(delta.sum),
            p99_seconds: delta.quantile(0.99).min(delta.sum),
        }
    }
}

/// Per-stage timing summary over a window of work.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// One entry per span name that ran, ordered by total time descending.
    pub stages: Vec<StageTiming>,
}

impl TelemetrySnapshot {
    /// Summarizes every span recorded globally since `baseline`.
    pub fn since(baseline: &SpanBaseline) -> TelemetrySnapshot {
        let mut stages = Vec::new();
        for (labels, now) in crate::global().histogram_states(SPAN_METRIC) {
            let Some((_, name)) = labels.iter().find(|(k, _)| k == "span") else {
                continue;
            };
            let delta = match baseline.states.get(name) {
                Some(earlier) => now.since(earlier),
                None => now,
            };
            if delta.count == 0 {
                continue;
            }
            stages.push(StageTiming::from_state(name.clone(), &delta));
        }
        stages.sort_by(|a, b| {
            b.total_seconds
                .partial_cmp(&a.total_seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        TelemetrySnapshot { stages }
    }
}

impl fmt::Display for TelemetrySnapshot {
    /// Renders a fixed-width timing table, one row per stage.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<24} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "stage", "count", "total", "mean", "p50", "p99"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "  {:<24} {:>8} {:>11.3}s {:>11.6}s {:>11.6}s {:>11.6}s",
                s.name, s.count, s.total_seconds, s.mean_seconds, s.p50_seconds, s.p99_seconds
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_run_reports_its_own_time_as_p50_and_p99() {
        // One 0.917 s run lands in the (0.5, 1.049] bucket, whose upper
        // bound the histogram estimate returns.
        let one_run = HistogramState {
            bounds: vec![0.5, 1.049, 2.0],
            buckets: vec![0, 1, 0, 0],
            count: 1,
            sum: 0.917,
        };
        assert!(one_run.quantile(0.5) > one_run.sum, "the bucket bound");
        let stage = StageTiming::from_state("context".into(), &one_run);
        assert_eq!(
            (stage.p50_seconds, stage.p99_seconds, stage.total_seconds),
            (0.917, 0.917, 0.917)
        );
    }

    #[test]
    fn snapshot_diffs_against_baseline() {
        {
            let _s = crate::span("telemetry-stage-a");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let baseline = SpanBaseline::capture();
        {
            let _s = crate::span("telemetry-stage-a");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _s = crate::span("telemetry-stage-b");
        }
        let snap = TelemetrySnapshot::since(&baseline);
        let a = snap
            .stages
            .iter()
            .find(|s| s.name == "telemetry-stage-a")
            .expect("stage a present");
        assert_eq!(a.count, 1, "only the run after the baseline counts");
        assert!(a.total_seconds > 0.0);
        assert!(snap.stages.iter().any(|s| s.name == "telemetry-stage-b"));
    }

    #[test]
    fn snapshot_serializes_round_trip() {
        let snap = TelemetrySnapshot {
            stages: vec![StageTiming {
                name: "fetch".into(),
                count: 3,
                total_seconds: 1.5,
                mean_seconds: 0.5,
                p50_seconds: 0.4,
                p99_seconds: 0.9,
            }],
        };
        let text = serde_json::to_string(&snap).expect("encode");
        let back: TelemetrySnapshot = serde_json::from_str(&text).expect("decode");
        assert_eq!(back, snap);
    }

    #[test]
    fn display_renders_table() {
        let snap = TelemetrySnapshot {
            stages: vec![StageTiming {
                name: "detect".into(),
                count: 2,
                total_seconds: 0.25,
                mean_seconds: 0.125,
                p50_seconds: 0.1,
                p99_seconds: 0.2,
            }],
        };
        let text = snap.to_string();
        assert!(text.contains("stage"), "{text}");
        assert!(text.contains("detect"), "{text}");
    }
}
