//! The rule registry.
//!
//! Every rule is declared here with its id, default severity, scope and
//! rationale; the reporter generates the user-facing rule-reference table
//! from this registry, so the docs cannot drift from the code.

use crate::config::{Config, Severity};
use crate::context::FileCtx;

pub mod durable_write;
pub mod float_eq;
pub mod lossy_cast;
pub mod no_panic;
pub mod no_print;
pub mod route_obs;
pub mod swallowed_result;
pub mod trace_span;
pub mod variant_label;
pub mod wall_clock;

/// A finding before path/severity attachment.
#[derive(Clone, Debug)]
pub struct RawFinding {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl RawFinding {
    pub fn new(line: u32, col: u32, message: String) -> RawFinding {
        RawFinding { line, col, message }
    }
}

/// How a rule runs.
pub enum RuleKind {
    /// Independently per file.
    PerFile(fn(&FileCtx, &Config, &mut Vec<RawFinding>)),
    /// Once over the whole workspace (cross-file facts needed). Returns
    /// `(path, finding)` pairs.
    Workspace(fn(&[FileCtx], &Config) -> Vec<(String, RawFinding)>),
}

/// A registered rule.
pub struct Rule {
    pub id: &'static str,
    /// One-line summary for the reference table.
    pub summary: &'static str,
    /// Why the rule exists, in terms of the paper's pipeline.
    pub rationale: &'static str,
    pub default_severity: Severity,
    /// Whether findings inside test context count.
    pub applies_in_tests: bool,
    /// Whether binary/tool sources (`bin_paths`) are exempt.
    pub skips_bins: bool,
    pub kind: RuleKind,
}

/// All rules, in reporting order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: "no-panic",
            summary: "no `unwrap()` / `expect()` / `panic!` in library code",
            rationale: "A fetch fleet thread that panics takes its share of the \
                        crawl with it; library errors must propagate as values \
                        so the collection run can count, retry and degrade.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(no_panic::check),
        },
        Rule {
            id: "wall-clock",
            summary: "no `Instant::now` / `SystemTime::now` / `thread::sleep` \
                      outside the net/obs internals",
            rationale: "The world model replays two years of search interest \
                        deterministically; a wall-clock read in simulation code \
                        silently decouples runs from `sift-simtime` and makes \
                        calibration unreproducible.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(wall_clock::check),
        },
        Rule {
            id: "lossy-cast",
            summary: "no truncating `as` casts on numeric values (strict paths: \
                      no numeric `as` at all)",
            rationale: "Interest indices are renormalized and stitched across \
                        frames; one silent `u64 as u8`-style truncation skews \
                        every downstream magnitude (West's calibration paper \
                        shows how sensitive stitched series are).",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: false,
            kind: RuleKind::PerFile(lossy_cast::check),
        },
        Rule {
            id: "durable-write",
            summary: "persistence modules (`strict_paths`) must install files \
                      via the atomic write helper, not `File::create` / \
                      `fs::write`",
            rationale: "Crash-safe resume trusts whatever recovery reads back; \
                        a checkpoint replaced in place can be half-written at \
                        the moment of death, so durable state must reach disk \
                        as temp + fsync + rename \
                        (`sift_journal::atomic::write_atomic`) only.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(durable_write::check),
        },
        Rule {
            id: "float-eq",
            summary: "no `==` / `!=` (or `assert_eq!`) against float literals",
            rationale: "Interest values pass through sampling, averaging and \
                        renormalization; exact float equality encodes an \
                        assumption those stages do not preserve. Compare with \
                        an epsilon or on integer representations.",
            default_severity: Severity::Deny,
            applies_in_tests: true,
            skips_bins: false,
            kind: RuleKind::PerFile(float_eq::check),
        },
        Rule {
            id: "no-print",
            summary: "no `println!` / `eprintln!` / `dbg!` in library crates",
            rationale: "Stdout debugging bypasses the structured `sift-obs` \
                        event log, so production incidents lose the fields \
                        (route, identity, stage) the paper's analyses key on.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(no_print::check),
        },
        Rule {
            id: "trace-span",
            summary: "pipeline modules (`strict_paths`) must create spans via \
                      the context-carrying API, never bare `Span::enter`",
            rationale: "Causal trace trees are only as connected as their \
                        weakest handoff: a bare `Span::enter` on a worker \
                        thread silently roots a new trace, so the study and \
                        fetcher crates must thread `SpanContext` explicitly \
                        (`span_in`) across every queue and thread boundary.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(trace_span::check),
        },
        Rule {
            id: "swallowed-result",
            summary: "no `let _ =` over a fallible call and no statement-position \
                      `.ok()` in library crates",
            rationale: "Degradation is measured, not assumed: an error \
                        discarded at the call site never reaches the run \
                        summary or /metrics, so the paper's refusal/timeout \
                        accounting silently undercounts. Handle it, count it, \
                        or justify the discard inline.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::PerFile(swallowed_result::check),
        },
        Rule {
            id: "route-obs",
            summary: "every registered HTTP route needs a matching obs counter",
            rationale: "PR 1 made /metrics the operational window into the \
                        system; a route with no counter is invisible there, so \
                        instrumentation completeness is checked, not remembered.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::Workspace(route_obs::check),
        },
        Rule {
            id: "variant-label",
            summary: "every variant of the six degrade/fault enums \
                      (`FaultKind`, `BreakerState`, `ShedCause`, \
                      `RerouteReason`, `NemesisFaultKind`, `DegradeReason`) \
                      needs its snake_case label string and a registered \
                      metric",
            rationale: "Chaos runs, overload incidents, sharded-crawl \
                        reroutes and degraded reads are all judged after the \
                        fact from /metrics; a variant whose snake_case label \
                        never appears in code could fire during an incident \
                        yet be indistinguishable or invisible there, so label \
                        and metric coverage are checked at lint time, not \
                        discovered mid-incident.",
            default_severity: Severity::Deny,
            applies_in_tests: false,
            skips_bins: true,
            kind: RuleKind::Workspace(variant_label::check),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_kebab() {
        let rules = registry();
        let mut ids: Vec<_> = rules.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rules.len(), "duplicate rule id");
        for id in ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{id} is not kebab-case"
            );
        }
    }
}
