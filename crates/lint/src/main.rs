//! The `sift-lint` command-line gate.

use sift_lint::{find_root, load_config, validate_rule_ids, Severity, StaleReason};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
sift-lint — workspace-native static analysis for SIFT

USAGE:
    sift-lint [--json] [--root <dir>] [--config <file>] [--timing]
    sift-lint --audit-allows
    sift-lint --rules-md

OPTIONS:
    --json             machine-readable output (one JSON object)
    --root <dir>       workspace root (default: nearest ancestor with Lint.toml)
    --config <f>       config file (default: <root>/Lint.toml)
    --timing           per-rule and per-file wall time on stderr
    --audit-allows     per-rule counts with suppressions off, then stale inline
                       `sift-lint: allow(...)` directives
    --rules-md         print the generated rule-reference table and exit
    --help             this text

EXIT STATUS:
    0  clean, or warn-level findings only
    1  at least one deny-level finding (or stale allow in --audit-allows)
    2  usage, configuration or I/O error
";

fn main() -> ExitCode {
    let mut json = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut config_arg: Option<PathBuf> = None;
    let mut rules_md = false;
    let mut timing = false;
    let mut audit = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--rules-md" => rules_md = true,
            "--timing" => timing = true,
            "--audit-allows" => audit = true,
            "--root" => match args.next() {
                Some(v) => root_arg = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--config" => match args.next() {
                Some(v) => config_arg = Some(PathBuf::from(v)),
                None => return usage_error("--config needs a value"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if rules_md {
        print!("{}", sift_lint::rules_markdown());
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = root_arg.or_else(|| find_root(&cwd)).unwrap_or(cwd);

    let config_path = config_arg.unwrap_or_else(|| root.join(sift_lint::CONFIG_FILE));
    let config_text = std::fs::read_to_string(&config_path).unwrap_or_default();
    let cfg = if config_text.is_empty() {
        match load_config(&root) {
            Ok(cfg) => cfg,
            Err(e) => return config_error(&e.to_string()),
        }
    } else {
        match sift_lint::Config::parse(&config_text) {
            Ok(cfg) => cfg,
            Err(e) => return config_error(&e.to_string()),
        }
    };
    if let Err(e) = validate_rule_ids(&cfg) {
        return config_error(&e);
    }

    if audit {
        return run_audit(&root, &cfg);
    }

    let report = match sift_lint::lint_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => return config_error(&format!("walking {}: {e}", root.display())),
    };
    let findings = &report.findings;

    if json {
        print!("{}", sift_lint::render_json(findings));
    } else {
        print!("{}", sift_lint::render_text(findings));
    }
    if timing {
        print_timing(&report.timing);
    }

    if findings.iter().any(|f| f.severity == Severity::Deny) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn run_audit(root: &std::path::Path, cfg: &sift_lint::Config) -> ExitCode {
    let audit = match sift_lint::audit_workspace(root, cfg) {
        Ok(a) => a,
        Err(e) => return config_error(&format!("walking {}: {e}", root.display())),
    };
    // Rules by findings: what each rule would report with every inline
    // allow and every configured severity ignored.
    for &(rule, would_be, covered) in &audit.per_rule {
        let stale = audit.stale.iter().filter(|s| s.rule == rule).count();
        println!(
            "rule {rule:<18} {would_be:>4} would-be findings, {covered:>4} covered by an inline allow, {stale:>3} stale"
        );
    }
    for s in &audit.stale {
        let why = match s.reason {
            StaleReason::UnknownRule => "no such rule exists",
            StaleReason::NothingSuppressed => "it no longer covers any finding",
        };
        println!(
            "{}:{}: stale allow({}) — {why}; remove the directive",
            s.path, s.line, s.rule
        );
    }
    if audit.stale.is_empty() {
        println!("sift-lint: every inline allow still earns its keep");
        ExitCode::SUCCESS
    } else {
        println!(
            "sift-lint: {} stale allow directive{}",
            audit.stale.len(),
            if audit.stale.len() == 1 { "" } else { "s" }
        );
        ExitCode::from(1)
    }
}

fn print_timing(t: &sift_lint::TimingReport) {
    eprintln!("sift-lint timing: total {:?}", t.total);
    for (id, d) in &t.per_rule {
        eprintln!("  rule {id:<22} {d:?}");
    }
    let mut slowest: Vec<&(String, std::time::Duration)> = t.per_file.iter().collect();
    slowest.sort_by_key(|b| std::cmp::Reverse(b.1));
    for (path, d) in slowest.iter().take(10) {
        eprintln!("  file {path:<40} {d:?}");
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("sift-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn config_error(msg: &str) -> ExitCode {
    eprintln!("sift-lint: {msg}");
    ExitCode::from(2)
}
