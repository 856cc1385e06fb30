//! The lint's own acceptance gate: the workspace it ships in must be
//! clean under its shipped `Lint.toml`, and the README's rule table must
//! match the registry.

use sift_lint::{
    audit_workspace, lint_workspace, load_config, render_text, rules_markdown, validate_rule_ids,
    Severity,
};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let cfg = load_config(&root).expect("Lint.toml parses");
    validate_rule_ids(&cfg).expect("Lint.toml names only known rules");
    // Clean only means something for `durable-write` if every module
    // that owns on-disk state is on its strict list.
    for module in [
        "crates/core/src/durable.rs",
        "crates/cluster/src/recovery.rs",
        "crates/serve/src/region.rs",
    ] {
        assert!(
            cfg.path_strict("durable-write", module),
            "{module} persists state but is not a durable-write strict path"
        );
    }
    let findings = lint_workspace(&root, &cfg).expect("workspace walk succeeds");
    let deny: Vec<_> = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .cloned()
        .collect();
    assert!(
        deny.is_empty(),
        "workspace has deny findings:\n{}",
        render_text(&deny)
    );
    // An inline allow that names a retired rule, or covers nothing any
    // more, fails here and not only in `scripts/check.sh`.
    let stale = audit_workspace(&root, &cfg)
        .expect("workspace walk succeeds")
        .stale;
    assert!(stale.is_empty(), "stale inline allows: {stale:?}");
}

#[test]
fn readme_rule_table_matches_registry() {
    let readme = std::fs::read_to_string(workspace_root().join("README.md"))
        .expect("README.md exists at the workspace root");
    for line in rules_markdown().lines().filter(|l| !l.trim().is_empty()) {
        assert!(
            readme.contains(line),
            "README.md rule reference is stale; regenerate with \
             `cargo run -p sift-lint -- --rules-md`.\nmissing line: {line}"
        );
    }
}
