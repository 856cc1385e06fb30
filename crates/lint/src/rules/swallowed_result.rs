//! swallowed-result: no silently discarded `Result`s in library crates.
//!
//! The collection run degrades deliberately — refusals, timeouts and
//! faults are all counted — so an error that vanishes at the call site
//! is an error the run summary lies about. Two discard shapes are
//! denied: `let _ = fallible(…);` and a statement-position `….ok();`.
//! `let _ = ident;` (mark-used) passes, as does `let _ = write!(…)` into
//! a `String` (its `fmt::Result` cannot fail). A discard that is right
//! on purpose carries an inline allow naming why.

use crate::config::Config;
use crate::context::FileCtx;
use crate::lexer::{TokKind, Token};
use crate::rules::RawFinding;

pub fn check(ctx: &FileCtx, _cfg: &Config, out: &mut Vec<RawFinding>) {
    for d in discard_sites(&ctx.code) {
        out.push(RawFinding::new(
            d.line,
            d.col,
            format!(
                "`{}` discards a possible error — handle it, count it through \
                 obs, or add an inline allow saying why the failure is ignorable",
                d.kind
            ),
        ));
    }
}

/// A discarded-`Result` site.
#[derive(Clone, Debug)]
struct DiscardSite {
    line: u32,
    col: u32,
    /// `let _ =` or `.ok()`.
    kind: &'static str,
}

/// Finds `let _ = <call…>;` discards and statement-position `.ok();`
/// discards. `let _ =` over a bare ident (`let _ = x;`) is a lint-free
/// "mark used" idiom and is not flagged; `let _ = write!(…)` /
/// `writeln!(…)` is excluded because the in-library sinks are `String`
/// formatters whose `fmt::Result` cannot fail.
fn discard_sites(code: &[Token]) -> Vec<DiscardSite> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = &code[i];
        // `let _ = …;`
        if t.kind == TokKind::Ident && t.text == "let" {
            if i > 0 && matches!(code[i - 1].text.as_str(), "while" | "if") {
                continue;
            }
            if !(code
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text == "_")
                && code.get(i + 2).is_some_and(|n| n.text == "="))
            {
                continue;
            }
            let head = code.get(i + 3);
            let head_is_infallible_write = head
                .is_some_and(|h| h.text == "write" || h.text == "writeln")
                && code.get(i + 4).is_some_and(|n| n.text == "!");
            if head_is_infallible_write {
                continue;
            }
            // Scan to the terminating `;`; a `(` in between means the
            // discarded value came out of a call. A top-level `?` means
            // the error already propagated — `let _ = f()?;` drops only
            // the success value, which is a deliberate non-finding.
            let mut depth = 0i32;
            let mut has_call = false;
            let mut propagates = false;
            for tj in &code[(i + 3)..] {
                if tj.kind != TokKind::Punct {
                    continue;
                }
                match tj.text.as_str() {
                    "(" | "[" | "{" => {
                        if tj.text == "(" {
                            has_call = true;
                        }
                        depth += 1;
                    }
                    ")" | "]" | "}" => depth -= 1,
                    "?" if depth == 0 => propagates = true,
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            if has_call && !propagates {
                out.push(DiscardSite {
                    line: t.line,
                    col: t.col,
                    kind: "let _ =",
                });
            }
        }
        // `….ok();` in statement position.
        if t.kind == TokKind::Punct
            && t.text == "."
            && code.get(i + 1).is_some_and(|n| n.text == "ok")
            && code.get(i + 2).is_some_and(|n| n.text == "(")
            && code.get(i + 3).is_some_and(|n| n.text == ")")
            && code.get(i + 4).is_some_and(|n| n.text == ";")
            && statement_discards(code, i)
        {
            out.push(DiscardSite {
                line: t.line,
                col: t.col,
                kind: ".ok()",
            });
        }
    }
    out
}

/// Walks backwards from the `.` of a trailing `.ok();` to its statement
/// start; the value is discarded unless the statement binds or assigns it
/// (`let v = …`, `x = …`, `return …`).
fn statement_discards(code: &[Token], dot: usize) -> bool {
    let mut depth = 0i32;
    let mut j = dot;
    while j > 0 {
        j -= 1;
        let t = &code[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ")" | "]" | "}" if t.text == "}" && depth == 0 => return true,
                ")" | "]" | "}" => depth += 1,
                "(" | "[" | "{" => {
                    if depth == 0 {
                        return true; // statement starts at block open
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => return true,
                _ if depth == 0
                    && t.text.ends_with('=')
                    && t.text != "=="
                    && t.text != "!="
                    && t.text != "<="
                    && t.text != ">="
                    && t.text != "=>" =>
                {
                    return false; // assigned somewhere
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident
            && depth == 0
            && matches!(t.text.as_str(), "let" | "return" | "else")
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(src: &str) -> Vec<RawFinding> {
        let cfg = Config::default();
        let ctx = FileCtx::new("crates/x/src/lib.rs", src, &cfg);
        let mut out = Vec::new();
        check(&ctx, &cfg, &mut out);
        out
    }

    #[test]
    fn let_underscore_call_and_trailing_ok_are_flagged() {
        let out = findings("fn f() { let _ = fallible(); cleanup().ok(); }");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("let _ ="));
        assert!(out[1].message.contains(".ok()"));
    }

    #[test]
    fn mark_used_and_bound_ok_pass() {
        let out = findings(
            "fn f() { let _ = witness; let v = parse().ok(); use_it(v); \
             let _ = write!(s, \"x{}\", 1); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn discard_sites_flag_calls_not_idents_or_writes() {
        let code: Vec<Token> = lex(
            "fn f() { let _ = g(); let _ = model; let _ = write!(s, \"x\"); \
             h().ok(); let v = i().ok(); let _ = j()?; }",
        )
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect();
        let kinds: Vec<&str> = discard_sites(&code).iter().map(|d| d.kind).collect();
        assert_eq!(kinds, ["let _ =", ".ok()"]);
    }
}
