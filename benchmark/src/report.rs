//! What one run produces and how it is printed.

use crate::spec;
use crate::stats;
use crate::world::Scores;
use std::path::PathBuf;

/// The arguments of one run.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the run measures for.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny sizes, for the tests.
    pub smoke: bool,
    /// This run's durable-state directory (already created, removed by
    /// the caller).
    pub state_dir: PathBuf,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

/// An output check that did not hold.
#[derive(Clone, Debug)]
pub struct FailedCheck {
    pub name: &'static str,
    pub detail: String,
}

/// The result of one run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (requests, reads, shards, checks).
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    pub failed_checks: Vec<FailedCheck>,
    /// Sample counts and shares, printed but not part of the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric `spec` lists; a misspelt name must not pass for
    /// a layer the workload does not exercise.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::END_TO_END.iter().any(|e| e.name == name)
                || spec::PER_LAYER.iter().any(|p| p.name == name),
            "{name} is not a metric of the contract"
        );
        assert!(self.get(name).is_none(), "{name} reported twice");
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records an output check; a failed one counts as a failed
    /// operation.
    pub fn check(&mut self, name: &'static str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(detail) = result {
            self.failed += 1;
            self.failed_checks.push(FailedCheck { name, detail });
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The six end-to-end metrics of an untraced run.
    pub fn end_to_end(&mut self, setup_times: &[f64], walls: &[f64], scores: &Scores, rss_mb: f64) {
        self.metric("setup_s", stats::median(setup_times));
        self.metric("wall_s", stats::median(walls));
        self.metric("requests_total", stats::median(&scores.requests));
        self.metric("event_recall", stats::median(&scores.recalls));
        self.metric("spike_precision", stats::median(&scores.precisions));
        self.metric("peak_rss_mb", rss_mb);
    }

    /// What a traced run says about itself: both wall times, the share
    /// the recorder cost, the thread count.
    pub fn traced_walls(&mut self, untraced_s: f64, traced_s: f64, threads: usize) {
        self.metric("trace.wall_untraced_s", untraced_s);
        self.metric("trace.wall_traced_s", traced_s);
        self.metric("obs.trace_overhead_share", traced_s / untraced_s - 1.0);
        self.metric("threads", threads as f64);
    }

    /// Closes a traced run's accounting once every layer has reported.
    pub fn failed_share(&mut self) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.metric("failed_share", share);
    }

    /// The metrics this run must print, in the contract's order: every
    /// end-to-end metric with tracing off, every per-layer metric with
    /// tracing on (0 for a layer the workload does not exercise; the
    /// smoke test holds every one above 0 on some workload). `Err` names
    /// an end-to-end metric a run that broke off did not get to.
    pub fn contract_metrics(
        &self,
        trace: bool,
    ) -> Result<Vec<(&'static str, &'static str, f64)>, &'static str> {
        if trace {
            Ok(spec::PER_LAYER
                .iter()
                .map(|p| (p.name, p.unit, self.get(p.name).unwrap_or(0.0)))
                .collect())
        } else {
            spec::END_TO_END
                .iter()
                .map(|e| Ok((e.name, e.unit, self.get(e.name).ok_or(e.name)?)))
                .collect()
        }
    }

    /// The one-line JSON result the driver reads.
    pub fn result_line(&self, metrics: &[(&'static str, &'static str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_that_broke_off_names_the_metric_it_lacks() {
        let mut report = Report::default();
        report.metric("setup_s", 0.1);
        assert_eq!(report.contract_metrics(false), Err("wall_s"));
        // A traced run reports 0 for what it did not exercise.
        let traced = report.contract_metrics(true).expect("per-layer metrics");
        assert_eq!(traced.len(), spec::PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not a metric of the contract")]
    fn a_misspelt_metric_is_refused() {
        Report::default().metric("core.asemble_busy_s", 1.0);
    }
}
