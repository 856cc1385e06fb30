//! Human and machine output, plus the generated rule-reference table.

use crate::config::Severity;
use crate::engine::Finding;
use crate::rules::registry;
use std::fmt::Write as _;

/// `file:line:col severity[rule] message` lines plus a summary.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: {}[{}] {}",
            f.path, f.line, f.col, f.severity, f.rule, f.message
        );
    }
    let deny = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warn = findings.len() - deny;
    if findings.is_empty() {
        let _ = writeln!(out, "sift-lint: clean");
    } else {
        let _ = writeln!(
            out,
            "sift-lint: {} finding{} ({deny} deny, {warn} warn)",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
        );
    }
    out
}

/// Stable machine format for CI: one JSON object, findings ordered as
/// reported.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"path\":{},\"line\":{},\"col\":{},\"rule\":{},\"severity\":{},\"message\":{}}}",
            json_str(&f.path),
            f.line,
            f.col,
            json_str(f.rule),
            json_str(&f.severity.to_string()),
            json_str(&f.message),
        );
    }
    let deny = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let _ = write!(
        out,
        "],\"total\":{},\"deny\":{},\"warn\":{}}}",
        findings.len(),
        deny,
        findings.len() - deny
    );
    out.push('\n');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The rule-reference table, generated from the registry so documentation
/// cannot drift from the code. Embedded verbatim in the README (a test
/// keeps the two in sync).
pub fn rules_markdown() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| rule | default | in tests | bins | enforces |");
    let _ = writeln!(out, "|------|---------|----------|------|----------|");
    for r in registry() {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            r.id,
            r.default_severity,
            if r.applies_in_tests {
                "checked"
            } else {
                "exempt"
            },
            if r.skips_bins { "exempt" } else { "checked" },
            collapse_ws(r.summary),
        );
    }
    out.push('\n');
    for r in registry() {
        let _ = writeln!(out, "- **`{}`** — {}", r.id, collapse_ws(r.rationale));
    }
    out
}

/// Multi-line string literals in the registry carry indentation; collapse
/// every whitespace run to one space for prose output.
fn collapse_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            rule: "no-panic",
            severity: Severity::Deny,
            message: "a \"quoted\" message".into(),
        }]
    }

    #[test]
    fn text_format_is_file_line_col() {
        let text = render_text(&sample());
        assert!(text.starts_with("crates/x/src/lib.rs:3:7: deny[no-panic]"));
        assert!(text.contains("1 finding (1 deny, 0 warn)"));
        assert!(render_text(&[]).contains("clean"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let json = render_json(&sample());
        assert!(json.contains("\"rule\":\"no-panic\""));
        assert!(json.contains("a \\\"quoted\\\" message"));
        assert!(json.contains("\"deny\":1"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn markdown_covers_every_rule() {
        let md = rules_markdown();
        for r in registry() {
            assert!(md.contains(&format!("`{}`", r.id)), "{} missing", r.id);
        }
    }
}
