//! # sift-lint — workspace-native static analysis
//!
//! SIFT's pipeline reverses a service's sampling noise and piecewise
//! normalization; its correctness therefore rests on invariants no
//! general-purpose linter knows about: simulation code must read time
//! through `sift-simtime`, interest/index math must not truncate or
//! compare floats exactly, libraries must log through `sift-obs`, and
//! every HTTP route must be visible in `/metrics`. This crate enforces
//! those invariants mechanically, as a tier-1 gate.
//!
//! The engine is zero-dependency on purpose. It lexes Rust precisely
//! enough that rules never fire inside strings, chars or comments (see
//! [`lexer`]), classifies test context from `#[cfg(test)]` / `#[test]`
//! regions and path conventions (see [`context`]), and runs the rule set
//! declared in [`rules::registry`]. Policy — severities, path allowlists,
//! strict paths — comes from `Lint.toml` (see [`config`]); one-off
//! exceptions are written next to the code they excuse:
//!
//! ```text
//! lock().unwrap() // sift-lint: allow(no-panic) — poisoned lock is fatal
//! ```
//!
//! Run it as `cargo run -p sift-lint --release` from the workspace; add
//! `--json` for the machine format, `--rules-md` for the generated rule
//! reference. The process exits nonzero when any `deny` finding stands.
//!
//! Every run lints every file, serially, from scratch (see [`engine`]):
//! that takes about 0.04 s on this workspace, which is less than a result
//! cache or a thread pool costs to keep correct.

pub mod config;
pub mod context;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use config::{Config, ConfigError, Severity};
pub use engine::{
    audit_workspace, lint_sources, lint_workspace, AuditReport, Finding, LintReport, StaleAllow,
    StaleReason, TimingReport,
};
pub use report::{render_json, render_text, rules_markdown};

use std::path::{Path, PathBuf};

/// The config file's well-known name at the workspace root.
pub const CONFIG_FILE: &str = "Lint.toml";

/// Finds the workspace root by walking up from `start` to the nearest
/// directory holding a `Lint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join(CONFIG_FILE).is_file() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

/// Loads the root `Lint.toml` if present, otherwise built-in defaults.
pub fn load_config(root: &Path) -> Result<Config, ConfigError> {
    match std::fs::read_to_string(root.join(CONFIG_FILE)) {
        Ok(text) => Config::parse(&text),
        Err(_) => Ok(Config::default()),
    }
}

/// Rejects config sections for rules that do not exist — a typoed
/// `[rules.no-panics]` must fail loudly, not silently not apply.
pub fn validate_rule_ids(cfg: &Config) -> Result<(), String> {
    let known: Vec<&str> = rules::registry().iter().map(|r| r.id).collect();
    for id in cfg.rules.keys() {
        if !known.contains(&id.as_str()) {
            return Err(format!(
                "Lint.toml configures unknown rule `{id}` (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_rule_ids_rejected() {
        let cfg = Config::parse("[rules.no-such-rule]\nseverity = \"warn\"\n").expect("parse");
        assert!(validate_rule_ids(&cfg).is_err());
        let cfg = Config::parse("[rules.no-panic]\nseverity = \"warn\"\n").expect("parse");
        assert!(validate_rule_ids(&cfg).is_ok());
    }
}
