//! Per-file lint context: token stream, test regions, suppressions.

use crate::config::Config;
use crate::lexer::{lex, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// One inline `// sift-lint: allow(rule)` / `allow-file(rule)` directive,
/// kept for the `--audit-allows` staleness report.
#[derive(Clone, Debug)]
pub struct AllowDirective {
    pub rule: String,
    /// Line of the comment carrying the directive.
    pub line: u32,
    pub file_wide: bool,
    /// Lines the directive suppresses (empty for file-wide).
    pub covered: BTreeSet<u32>,
}

/// A lexed file plus everything rules need to decide applicability.
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Code tokens (comments stripped).
    pub code: Vec<Token>,
    /// Whole file is test context (under `tests/`, `benches/`, …).
    pub is_test_file: bool,
    /// Whole file is binary/tool context (under `src/bin/`, …).
    pub is_bin_file: bool,
    /// Every inline allow directive, for `--audit-allows`.
    pub directives: Vec<AllowDirective>,
    /// Inclusive line ranges under `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(u32, u32)>,
    /// rule id → lines where it is suppressed inline.
    suppressed: BTreeMap<String, BTreeSet<u32>>,
    /// Rules suppressed for the whole file via `allow-file`.
    file_suppressed: BTreeSet<String>,
}

impl FileCtx {
    pub fn new(path: &str, source: &str, cfg: &Config) -> FileCtx {
        let tokens = lex(source);
        let mut code = Vec::with_capacity(tokens.len());
        let mut comments = Vec::new();
        for t in tokens {
            if t.is_comment() {
                comments.push(t);
            } else {
                code.push(t);
            }
        }
        let code_lines: BTreeSet<u32> = code.iter().map(|t| t.line).collect();
        let mut suppressed: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
        let mut file_suppressed = BTreeSet::new();
        let mut directives = Vec::new();
        for t in &comments {
            collect_suppressions(
                t,
                &code_lines,
                &mut suppressed,
                &mut file_suppressed,
                &mut directives,
            );
        }
        let test_regions = find_test_regions(&code);

        FileCtx {
            path: path.to_owned(),
            code,
            is_test_file: cfg.is_test_path(path),
            is_bin_file: cfg.is_bin_path(path),
            directives,
            test_regions,
            suppressed,
            file_suppressed,
        }
    }

    /// True when `line` sits in test context (test file, or inside a
    /// `#[cfg(test)]` module / `#[test]` function).
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// True when `rule` is suppressed at `line` by an inline
    /// `// sift-lint: allow(rule)` (same line or the line above) or a
    /// file-wide `// sift-lint: allow-file(rule)`.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.file_suppressed.contains(rule)
            || self
                .suppressed
                .get(rule)
                .is_some_and(|lines| lines.contains(&line))
    }
}

/// Parses `sift-lint: allow(a, b)` / `sift-lint: allow-file(a)` directives
/// out of one comment token. A *trailing* `allow` (code on the same line)
/// covers exactly that line; a *standalone* comment line covers the next
/// line instead:
///
/// ```text
/// x.unwrap(); // sift-lint: allow(no-panic) — poisoning is fatal anyway
/// // sift-lint: allow(no-panic) — poisoning is fatal anyway
/// x.unwrap();
/// ```
fn collect_suppressions(
    comment: &Token,
    code_lines: &BTreeSet<u32>,
    suppressed: &mut BTreeMap<String, BTreeSet<u32>>,
    file_suppressed: &mut BTreeSet<String>,
    directives: &mut Vec<AllowDirective>,
) {
    // Doc comments (`///`, `//!`, `/**`, `/*!`) *describe* the directive
    // syntax — rustdoc prose never suppresses anything.
    if ["///", "//!", "/**", "/*!"]
        .iter()
        .any(|d| comment.text.starts_with(d))
    {
        return;
    }
    let Some(rest) = comment.text.split("sift-lint:").nth(1) else {
        return;
    };
    for (marker, file_wide) in [("allow-file(", true), ("allow(", false)] {
        let Some(args) = rest.split(marker).nth(1).and_then(|a| a.split(')').next()) else {
            continue;
        };
        for rule in args.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            if file_wide {
                file_suppressed.insert(rule.to_owned());
                directives.push(AllowDirective {
                    rule: rule.to_owned(),
                    line: comment.line,
                    file_wide: true,
                    covered: BTreeSet::new(),
                });
            } else {
                let lines = suppressed.entry(rule.to_owned()).or_default();
                let mut covered = BTreeSet::new();
                // Cover the comment's own extent (block comments span).
                let span = u32::try_from(comment.text.matches('\n').count()).unwrap_or(u32::MAX);
                let end_line = comment.line.saturating_add(span);
                for l in comment.line..=end_line {
                    covered.insert(l);
                }
                // Standalone comments (no code token where the comment
                // ends) suppress the line that follows them.
                if !code_lines.contains(&end_line) {
                    covered.insert(end_line + 1);
                }
                lines.extend(covered.iter().copied());
                directives.push(AllowDirective {
                    rule: rule.to_owned(),
                    line: comment.line,
                    file_wide: false,
                    covered,
                });
            }
        }
    }
}

/// Finds line ranges of items annotated with a test-ish attribute:
/// `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`, `#[tokio::test]`.
///
/// Token-level scan: on such an attribute, skip any further attributes,
/// then take the following item's extent — to the matching `}` if the item
/// opens a brace, or to the `;` for `mod tests;` forms (which span nothing
/// here; the out-of-line file is classified by its own path).
fn find_test_regions(code: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].kind == TokKind::Punct && code[i].text == "#") {
            i += 1;
            continue;
        }
        let attr_line = code[i].line;
        let Some((is_test, after_attr)) = parse_attribute(code, i) else {
            i += 1;
            continue;
        };
        if !is_test {
            i = after_attr;
            continue;
        }
        // Skip stacked attributes between the test attribute and the item.
        let mut j = after_attr;
        while j < code.len() && code[j].kind == TokKind::Punct && code[j].text == "#" {
            match parse_attribute(code, j) {
                Some((_, next)) => j = next,
                None => break,
            }
        }
        // Find the item's body start (`{`) or terminating `;`.
        while j < code.len() {
            if code[j].kind == TokKind::Punct {
                if code[j].text == "{" {
                    let close = match_brace(code, j);
                    let end_line = code
                        .get(close)
                        .map_or(code[code.len() - 1].line, |t| t.line);
                    regions.push((attr_line, end_line));
                    j = close + 1;
                    break;
                }
                if code[j].text == ";" {
                    regions.push((attr_line, code[j].line));
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
        i = j.max(after_attr);
    }
    regions
}

/// Parses the attribute starting at the `#` at `i`. Returns whether its
/// token soup mentions `test`, and the index just past the closing `]`.
fn parse_attribute(code: &[Token], i: usize) -> Option<(bool, usize)> {
    let open = code.get(i + 1)?;
    if !(open.kind == TokKind::Punct && open.text == "[") {
        return None;
    }
    let mut depth = 0i32;
    let mut is_test = false;
    let mut j = i + 1;
    while j < code.len() {
        let t = &code[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((is_test, j + 1));
                    }
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident && t.text == "test" {
            is_test = true;
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(code: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    code.len().saturating_sub(1)
}

/// The contents of a string-literal token (quotes, prefixes and raw
/// fences stripped; escapes left as written — route paths don't use any).
pub fn str_literal_content(text: &str) -> &str {
    let t = text
        .trim_start_matches(['b', 'c'])
        .trim_start_matches('r')
        .trim_matches('#');
    t.strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("crates/x/src/lib.rs", src, &Config::default())
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let c = ctx("fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn after() {}\n");
        assert!(!c.in_test(1));
        assert!(c.in_test(2));
        assert!(c.in_test(4));
        assert!(c.in_test(5));
        assert!(!c.in_test(6));
    }

    #[test]
    fn test_fn_with_stacked_attributes() {
        let c = ctx("#[test]\n#[should_panic]\nfn t() {\n  boom();\n}\nfn prod() {}\n");
        assert!(c.in_test(4));
        assert!(!c.in_test(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        let c = ctx("#[cfg(feature = \"x\")]\nfn prod() {\n  work();\n}\n");
        assert!(!c.in_test(3));
    }

    #[test]
    fn test_files_are_test_context_throughout() {
        let c = FileCtx::new("crates/x/tests/prop.rs", "fn f() {}\n", &Config::default());
        assert!(c.in_test(1));
    }

    #[test]
    fn inline_suppressions_cover_their_line_and_the_next() {
        let c = ctx(
            "fn f() {\n  x(); // sift-lint: allow(no-panic) — reason\n  y();\n  // sift-lint: allow(float-eq, lossy-cast)\n  z();\n}\n",
        );
        assert!(c.is_suppressed("no-panic", 2));
        assert!(
            !c.is_suppressed("no-panic", 3),
            "trailing covers only its line"
        );
        assert!(!c.is_suppressed("no-panic", 5));
        assert!(c.is_suppressed("float-eq", 5));
        assert!(c.is_suppressed("lossy-cast", 5));
        assert!(!c.is_suppressed("float-eq", 2));
    }

    #[test]
    fn doc_comment_examples_are_not_directives() {
        let c = ctx(
            "/// `x // sift-lint: allow(no-panic)` excuses one line\nfn f() {\n  x();\n}\n//! // sift-lint: allow-file(no-print)\n",
        );
        assert!(!c.is_suppressed("no-panic", 1));
        assert!(!c.is_suppressed("no-panic", 2));
        assert!(!c.is_suppressed("no-print", 3));
        assert!(c.directives.is_empty());
    }

    #[test]
    fn allow_file_covers_everything() {
        let c = ctx("// sift-lint: allow-file(no-print) — CLI tool\nfn f() {}\n");
        assert!(c.is_suppressed("no-print", 999));
        assert!(!c.is_suppressed("no-panic", 1));
    }

    #[test]
    fn str_literal_content_strips_delimiters() {
        assert_eq!(str_literal_content("\"/api/frame\""), "/api/frame");
        assert_eq!(str_literal_content("r#\"raw\"#"), "raw");
        assert_eq!(str_literal_content("b\"bytes\""), "bytes");
    }
}
