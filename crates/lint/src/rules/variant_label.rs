//! `variant-label`: observability completeness for labelled enums.
//!
//! Six enums name the ways this system degrades — injected faults,
//! breaker states, shed and reroute causes, nemesis faults, degraded
//! reads — and each is exported through one metric whose label value is
//! the variant's snake_case name (`HalfOpen` → `"half_open"`). Incidents
//! and chaos runs are judged after the fact from `/metrics`, so for every
//! [`WATCHED`] enum defined in non-test workspace code this rule checks
//! that each variant's label appears as a string literal in non-test
//! code, and that the enum's metric is registered somewhere. A variant
//! with no label string could fire yet be indistinguishable — or
//! entirely invisible — in the exposition. Findings anchor at the enum
//! definition site.
//!
//! Like `route-obs`, the match is workspace-wide on purpose: the metric
//! registration and the `label()` mapping live next to each enum today,
//! but nothing forces them to stay there.

use crate::config::Config;
use crate::context::{str_literal_content, FileCtx};
use crate::lexer::{TokKind, Token};
use crate::rules::RawFinding;
use std::collections::HashSet;

/// The watched enums and the metric each one must be visible through.
const WATCHED: [(&str, &str); 6] = [
    ("FaultKind", "sift_net_faults_injected_total"),
    ("BreakerState", "sift_client_breaker_state"),
    ("ShedCause", "sift_fetcher_shed_total"),
    ("RerouteReason", "sift_cluster_reroute_total"),
    ("NemesisFaultKind", "sift_cluster_nemesis_faults_total"),
    ("DegradeReason", "sift_serve_degraded_reads_total"),
];

/// One `enum <Watched> { … }` definition in non-test code.
struct EnumSite<'a> {
    name: &'static str,
    metric: &'static str,
    path: &'a str,
    line: u32,
    col: u32,
    variants: Vec<&'a str>,
}

pub fn check(files: &[FileCtx], cfg: &Config) -> Vec<(String, RawFinding)> {
    let mut sites: Vec<EnumSite> = Vec::new();
    let mut literals: HashSet<&str> = HashSet::new();

    for ctx in files {
        if ctx.is_test_file || ctx.is_bin_file {
            continue;
        }
        let code = &ctx.code;
        for (i, t) in code.iter().enumerate() {
            if ctx.in_test(t.line) {
                continue;
            }
            if t.kind == TokKind::Str {
                literals.insert(str_literal_content(&t.text));
            }
            if t.kind == TokKind::Ident && t.text == "enum" {
                let watched = code.get(i + 1).and_then(|n| {
                    WATCHED
                        .iter()
                        .find(|(name, _)| n.kind == TokKind::Ident && n.text == *name)
                });
                if let Some(&(name, metric)) = watched {
                    sites.push(EnumSite {
                        name,
                        metric,
                        path: &ctx.path,
                        line: t.line,
                        col: t.col,
                        variants: enum_variants(code, i + 2),
                    });
                }
            }
        }
    }

    let mut out = Vec::new();
    for site in sites {
        if cfg.path_allowed("variant-label", site.path) {
            continue;
        }
        let EnumSite { name, metric, .. } = site;
        let mut report = |message: String| {
            out.push((
                site.path.to_owned(),
                RawFinding::new(site.line, site.col, message),
            ));
        };
        if !literals.contains(metric) {
            report(format!(
                "`{name}` exists but no `{metric}` metric is registered \
                 anywhere: its variants would be invisible in /metrics"
            ));
        }
        for variant in site.variants {
            let label = snake_case(variant);
            if !literals.contains(label.as_str()) {
                report(format!(
                    "`{name}::{variant}` has no `\"{label}\"` label string in \
                     non-test code: that variant could occur but never be \
                     distinguished in the `{metric}` exposition"
                ));
            }
        }
    }
    out
}

/// Collects the variant identifiers of the brace block starting at or
/// after token `from` (the token after the enum's name).
fn enum_variants(code: &[Token], from: usize) -> Vec<&str> {
    let mut i = from;
    // Skip to the opening brace (past generics, which no watched enum has).
    while i < code.len() && !(code[i].kind == TokKind::Punct && code[i].text == "{") {
        i += 1;
    }
    let mut depth = 0i32;
    let mut out = Vec::new();
    while i < code.len() {
        let t = &code[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        // A variant: an uppercase-initial ident at body depth whose next
        // token closes or separates it (unit variants are the watched
        // enums' shape; payload variants still match on the `(`).
        if depth == 1
            && t.kind == TokKind::Ident
            && t.text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
            && code.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Punct && matches!(n.text.as_str(), "," | "}" | "(" | "=")
            })
        {
            out.push(t.text.as_str());
        }
        i += 1;
    }
    out
}

/// `RateStorm` → `rate_storm`.
fn snake_case(variant: &str) -> String {
    let mut out = String::with_capacity(variant.len() + 4);
    for (i, c) in variant.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str, src: &str) -> FileCtx {
        FileCtx::new(path, src, &Config::default())
    }

    fn lint(files: &[(&str, String)]) -> Vec<(String, RawFinding)> {
        let files: Vec<FileCtx> = files.iter().map(|(p, s)| ctx(p, s)).collect();
        check(&files, &Config::default())
    }

    /// The enum in one file; the `label()` mapping for `labelled` and the
    /// metric registration (when given) in another.
    fn workspace(
        name: &str,
        metric: Option<&str>,
        variants: &[&str],
        labelled: &[&str],
    ) -> Vec<(&'static str, String)> {
        let arms: String = labelled
            .iter()
            .map(|v| format!("{name}::{v} => \"{}\",\n", snake_case(v)))
            .collect();
        let register = metric.map_or(String::new(), |m| {
            format!("fn count() {{ sift_obs::counter(\"{m}\", &[]).inc(); }}")
        });
        vec![
            (
                "crates/a/src/kinds.rs",
                format!("pub enum {name} {{\n{}\n}}", variants.join(",\n")),
            ),
            (
                "crates/b/src/wiring.rs",
                format!(
                    "fn label(v: {name}) -> &'static str {{ match v {{\n{arms}_ => \"\" }} }}\n\
                     {register}"
                ),
            ),
        ]
    }

    /// For each of the six watched pairs: fully labelled passes (labels
    /// and metric living in another file than the enum), dropping any one
    /// label fires at the enum's definition, an unregistered metric fires
    /// there too, and test-context or unwatched enums are ignored.
    #[test]
    fn every_watched_pair_is_held_to_its_labels_and_metric() {
        let variants = ["InternalError", "HalfOpen", "Reset"];
        for (name, metric) in WATCHED {
            let full = workspace(name, Some(metric), &variants, &variants);
            assert!(lint(&full).is_empty(), "{name}: fully labelled must pass");

            for dropped in variants {
                let kept: Vec<&str> = variants.iter().copied().filter(|v| *v != dropped).collect();
                let out = lint(&workspace(name, Some(metric), &variants, &kept));
                assert_eq!(out.len(), 1, "{name} without {dropped}: {out:?}");
                let (path, finding) = &out[0];
                assert_eq!(path, "crates/a/src/kinds.rs", "anchors at the enum");
                assert_eq!((finding.line, finding.col), (1, 5));
                assert!(finding.message.contains(&format!("`{name}::{dropped}`")));
                assert!(finding
                    .message
                    .contains(&format!("`\"{}\"`", snake_case(dropped))));
                assert!(finding.message.contains(metric));
            }

            let out = lint(&workspace(name, None, &variants, &variants));
            assert_eq!(out.len(), 1, "{name} without its metric: {out:?}");
            assert_eq!(out[0].0, "crates/a/src/kinds.rs");
            assert!(out[0].1.message.contains(&format!("no `{metric}` metric")));

            let in_test_mod = format!(
                "pub enum Unwatched {{ A }}\n\
                 #[cfg(test)]\n\
                 mod tests {{\n    enum {name} {{ Oops }}\n}}"
            );
            assert!(lint(&[("crates/a/src/x.rs", in_test_mod)]).is_empty());
            let in_test_file = format!("pub enum {name} {{ Oops }}");
            assert!(lint(&[("crates/a/tests/x.rs", in_test_file)]).is_empty());
        }
    }

    /// Labels inside a test module do not satisfy the rule: /metrics is
    /// fed by production code.
    #[test]
    fn labels_in_test_code_do_not_satisfy_the_rule() {
        let src = r#"pub enum ShedCause { Deadline }
            fn count() { counter("sift_fetcher_shed_total", &[]); }
            #[cfg(test)]
            mod tests { const L: &str = "deadline"; }"#;
        let out = lint(&[("crates/a/src/queue.rs", src.to_owned())]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].1.message.contains("\"deadline\""));
    }

    #[test]
    fn snake_casing() {
        assert_eq!(snake_case("InternalError"), "internal_error");
        assert_eq!(snake_case("RateStorm"), "rate_storm");
        assert_eq!(snake_case("Reset"), "reset");
    }
}
