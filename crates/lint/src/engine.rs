//! Walks the workspace, runs every rule, applies policy and suppressions.
//!
//! The engine is one serial path: per file, lex and classify test
//! context ([`FileCtx`]) and run the per-file token rules; then the two
//! workspace rules, which need every [`FileCtx`] at once. A full lint of
//! this workspace takes about 0.04 s, so there is no cache and no thread
//! fan-out to keep in agreement with it. Findings are sorted by position
//! at the end.

use crate::config::{Config, Severity};
use crate::context::FileCtx;
use crate::rules::{registry, RawFinding, Rule, RuleKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// A finished, policy-applied finding.
#[derive(Clone, Debug)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
}

/// Wall-time accounting, printed by `--timing`.
#[derive(Clone, Debug, Default)]
pub struct TimingReport {
    /// Rule id → total time across all files, reporting order.
    pub per_rule: Vec<(&'static str, Duration)>,
    /// Path → context build + per-file rule time.
    pub per_file: Vec<(String, Duration)>,
    pub total: Duration,
}

/// What both entry points return: the findings plus where the time went.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    pub timing: TimingReport,
}

/// Callers that only want the findings (every test, the self-check) use
/// the report as the slice; only `--timing` looks at the rest.
impl std::ops::Deref for LintReport {
    type Target = [Finding];

    fn deref(&self) -> &[Finding] {
        &self.findings
    }
}

/// Lints in-memory sources (used by fixture tests and by
/// [`lint_workspace`] after reading files).
pub fn lint_sources(sources: &[(String, String)], cfg: &Config) -> LintReport {
    run_rules(sources, cfg, false).1
}

/// The one place the rule set runs: per-file rules as each context is
/// built, then the workspace rules, which need every context at once.
/// `blind` is the audit's view — every rule at its default severity
/// whatever `Lint.toml` says, inline allows not honoured — so that what a
/// rule *would* report can be counted.
fn run_rules(
    sources: &[(String, String)],
    cfg: &Config,
    blind: bool,
) -> (Vec<FileCtx>, LintReport) {
    let started = Instant::now();
    let rules = registry();
    let severity_of = |rule: &Rule| {
        if blind {
            return Some(rule.default_severity);
        }
        Some(cfg.severity(rule.id, rule.default_severity)).filter(|s| *s != Severity::Allow)
    };
    let mut rule_time: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let mut per_file = Vec::with_capacity(sources.len());
    let mut contexts = Vec::with_capacity(sources.len());
    let mut findings = Vec::new();

    for (path, text) in sources {
        let file_started = Instant::now();
        let ctx = FileCtx::new(path, text, cfg);
        for rule in &rules {
            let RuleKind::PerFile(check) = &rule.kind else {
                continue;
            };
            let Some(severity) = severity_of(rule) else {
                continue;
            };
            if !rule_applies_to(rule, &ctx, cfg) {
                continue;
            }
            let rule_started = Instant::now();
            let mut raw = Vec::new();
            check(&ctx, cfg, &mut raw);
            admit(rule, severity, &ctx, raw, !blind, &mut findings);
            *rule_time.entry(rule.id).or_default() += rule_started.elapsed();
        }
        per_file.push((path.clone(), file_started.elapsed()));
        contexts.push(ctx);
    }

    for rule in &rules {
        let RuleKind::Workspace(check) = &rule.kind else {
            continue;
        };
        let Some(severity) = severity_of(rule) else {
            continue;
        };
        let rule_started = Instant::now();
        for (path, f) in check(&contexts, cfg) {
            let Some(ctx) = contexts.iter().find(|c| c.path == path) else {
                continue;
            };
            admit(rule, severity, ctx, vec![f], !blind, &mut findings);
        }
        *rule_time.entry(rule.id).or_default() += rule_started.elapsed();
    }

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.path, b.line, b.col, b.rule, &b.message))
    });

    // Report rules in registry order so the output is stable.
    let per_rule = rules
        .iter()
        .filter_map(|r| rule_time.get(r.id).map(|d| (r.id, *d)))
        .collect();
    let report = LintReport {
        findings,
        timing: TimingReport {
            per_rule,
            per_file,
            total: started.elapsed(),
        },
    };
    (contexts, report)
}

fn rule_applies_to(rule: &Rule, ctx: &FileCtx, cfg: &Config) -> bool {
    if !rule.applies_in_tests && ctx.is_test_file {
        return false;
    }
    if rule.skips_bins && ctx.is_bin_file {
        return false;
    }
    !cfg.path_allowed(rule.id, &ctx.path)
}

/// Applies test-context and (optionally) inline-suppression filters, then
/// records.
fn admit(
    rule: &Rule,
    severity: Severity,
    ctx: &FileCtx,
    raw: Vec<RawFinding>,
    honor_suppressions: bool,
    out: &mut Vec<Finding>,
) {
    for f in raw {
        if !rule.applies_in_tests && ctx.in_test(f.line) {
            continue;
        }
        if honor_suppressions && ctx.is_suppressed(rule.id, f.line) {
            continue;
        }
        out.push(Finding {
            path: ctx.path.clone(),
            line: f.line,
            col: f.col,
            rule: rule.id,
            severity,
            message: f.message,
        });
    }
}

/// Lints every `.rs` file selected by the config under `root`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> io::Result<LintReport> {
    Ok(lint_sources(&read_workspace(root, cfg)?, cfg))
}

/// One inline allow directive that no longer earns its keep.
#[derive(Clone, Debug)]
pub struct StaleAllow {
    pub path: String,
    /// Line of the comment carrying the directive.
    pub line: u32,
    pub rule: String,
    /// Why it is stale.
    pub reason: StaleReason,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaleReason {
    /// The rule id does not exist in this binary's registry.
    UnknownRule,
    /// No finding of that rule lands on any line the directive covers.
    NothingSuppressed,
}

/// What `--audit-allows` prints: the stale directives, and per rule what
/// it would report with no suppression at all.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    pub stale: Vec<StaleAllow>,
    /// Rule id → (would-be findings, of those covered by an inline
    /// allow), registry order.
    pub per_rule: Vec<(&'static str, usize, usize)>,
}

/// Audits every inline `sift-lint: allow(...)` in the sources: re-runs
/// the rules with suppressions disabled (and configured severities
/// ignored, so an allow documenting an exception under a currently
/// `allow`-severity rule is not reported) and flags directives that no
/// longer cover any would-be finding. Stale allows are how outdated
/// exceptions outlive their justification — this keeps the set honest.
/// The same blind run gives the per-rule counts a review of the rule set
/// starts from.
pub fn audit_allows(sources: &[(String, String)], cfg: &Config) -> AuditReport {
    let (contexts, blind) = run_rules(sources, cfg, true);

    // (path, rule) → lines a finding would land on without suppression.
    let mut would: BTreeMap<(&str, &str), BTreeSet<u32>> = BTreeMap::new();
    let mut per_rule: Vec<(&'static str, usize, usize)> =
        registry().iter().map(|r| (r.id, 0, 0)).collect();
    for f in &blind.findings {
        would
            .entry((f.path.as_str(), f.rule))
            .or_default()
            .insert(f.line);
        let covered = contexts
            .iter()
            .find(|c| c.path == f.path)
            .is_some_and(|c| c.is_suppressed(f.rule, f.line));
        if let Some(tally) = per_rule.iter_mut().find(|t| t.0 == f.rule) {
            tally.1 += 1;
            tally.2 += usize::from(covered);
        }
    }

    let mut stale = Vec::new();
    for ctx in &contexts {
        for d in &ctx.directives {
            let reason = if !per_rule.iter().any(|t| t.0 == d.rule) {
                StaleReason::UnknownRule
            } else {
                let earns = match would.get(&(ctx.path.as_str(), d.rule.as_str())) {
                    Some(lines) if d.file_wide => !lines.is_empty(),
                    Some(lines) => d.covered.iter().any(|l| lines.contains(l)),
                    None => false,
                };
                if earns {
                    continue;
                }
                StaleReason::NothingSuppressed
            };
            stale.push(StaleAllow {
                path: ctx.path.clone(),
                line: d.line,
                rule: d.rule.clone(),
                reason,
            });
        }
    }
    stale.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    AuditReport { stale, per_rule }
}

/// [`audit_allows`] over the files under `root`.
pub fn audit_workspace(root: &Path, cfg: &Config) -> io::Result<AuditReport> {
    Ok(audit_allows(&read_workspace(root, cfg)?, cfg))
}

fn read_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, cfg, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let text = fs::read_to_string(root.join(&path))?;
        sources.push((path, text));
    }
    Ok(sources)
}

/// Directory names never descended into, regardless of config (build
/// output and VCS internals are large and always irrelevant).
const SKIP_DIRS: &[&str] = &["target", ".git"];

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<String>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if cfg.is_included(&rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
        lint_sources(&[(path.to_owned(), src.to_owned())], cfg).findings
    }

    #[test]
    fn severity_allow_disables_a_rule() {
        let mut cfg = Config::default();
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(lint_one("crates/x/src/lib.rs", src, &cfg).len(), 1);
        cfg.rules.entry("no-panic".into()).or_default().severity = Some(Severity::Allow);
        assert!(lint_one("crates/x/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn warn_findings_survive_with_warn_severity() {
        let mut cfg = Config::default();
        cfg.rules.entry("no-panic".into()).or_default().severity = Some(Severity::Warn);
        let out = lint_one("crates/x/src/lib.rs", "fn f() { x.unwrap(); }", &cfg);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warn);
    }

    #[test]
    fn inline_suppression_silences_one_line() {
        let src = "fn f() {\n  a.unwrap(); // sift-lint: allow(no-panic) — test harness\n  b.unwrap();\n}";
        let out = lint_one("crates/x/src/lib.rs", src, &Config::default());
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn test_context_exempts_non_test_rules_only() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t(x: f64) { y.unwrap(); if x == 1.0 {} }\n}";
        let out = lint_one("crates/x/src/lib.rs", src, &Config::default());
        // no-panic skips tests; float-eq does not.
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "float-eq");
    }

    #[test]
    fn findings_sorted_by_position() {
        let src = "fn f() { b.unwrap(); }\nfn g() { a.unwrap(); }";
        let out = lint_one("crates/x/src/lib.rs", src, &Config::default());
        assert_eq!(out.len(), 2);
        assert!(out[0].line < out[1].line);
    }

    fn many_sources() -> Vec<(String, String)> {
        (0..24)
            .map(|i| {
                (
                    format!("crates/x/src/m{i:02}.rs"),
                    format!("fn f{i}() {{ a.unwrap(); let x: f64 = y; if x == {i}.0 {{}} }}"),
                )
            })
            .collect()
    }

    #[test]
    fn timing_covers_rules_and_files() {
        let timing = lint_sources(&many_sources(), &Config::default()).timing;
        assert_eq!(timing.per_file.len(), 24);
        assert!(timing.per_rule.iter().any(|(id, _)| *id == "no-panic"));
    }

    #[test]
    fn audit_flags_unknown_and_unused_allows() {
        let src = "fn f() {\n\
                   a.unwrap(); // sift-lint: allow(no-panic) — earns its keep\n\
                   let x = 1; // sift-lint: allow(no-panic) — nothing here\n\
                   let y = 2; // sift-lint: allow(no-such-rule) — typo\n\
                   }\n";
        let audit = audit_allows(
            &[("crates/x/src/lib.rs".to_owned(), src.to_owned())],
            &Config::default(),
        );
        let stale = &audit.stale;
        assert_eq!(stale.len(), 2, "{stale:?}");
        assert_eq!(stale[0].line, 3);
        assert_eq!(stale[0].reason, StaleReason::NothingSuppressed);
        assert_eq!(stale[1].line, 4);
        assert_eq!(stale[1].reason, StaleReason::UnknownRule);
        // One would-be finding, and the first directive covers it.
        assert!(audit.per_rule.contains(&("no-panic", 1, 1)), "{audit:?}");
    }

    #[test]
    fn audit_respects_allow_severity_exceptions() {
        // A directive under a rule the config currently allows still
        // covers a real would-be finding — not stale.
        let mut cfg = Config::default();
        cfg.rules.entry("no-panic".into()).or_default().severity = Some(Severity::Allow);
        let src = "fn f() {\n  a.unwrap(); // sift-lint: allow(no-panic) — documented\n}\n";
        let stale = audit_allows(&[("crates/x/src/lib.rs".to_owned(), src.to_owned())], &cfg).stale;
        assert!(stale.is_empty(), "{stale:?}");
    }
}
