//! The MiniCost-specific lints: L1 `money-safety` is a token lint and L10
//! `escape-hatch-justification` is escape hygiene. Rules a compiler lint
//! can express (panics in libraries, narrowing casts, wildcard enum matches,
//! undocumented public items, hash-collection types) are rustc/clippy lints
//! instead, denied in the workspace manifest, in `clippy.toml` and at each
//! library root.
//!
//! Each lint walks the token stream from [`crate::lexer::lex`] with brace-depth
//! and `#[cfg(test)]`-region tracking. Violations carry `file:line` positions
//! and can be suppressed with `// xtask-allow(<lint>): <reason>` on the
//! offending line or the line above (L10 requires the reason).

use crate::lexer::{lex, Lexed, Tok, TokKind};
use std::fmt;
use std::path::Path;

/// The lint that produced a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lint {
    /// L1: raw f64 arithmetic on dollar quantities outside `crates/pricing`.
    MoneySafety,
    /// L10: escape-hatch comments without a justification reason.
    EscapeJustification,
}

impl Lint {
    /// The name used in diagnostics and `xtask-allow` comments.
    pub fn name(self) -> &'static str {
        match self {
            Lint::MoneySafety => "money-safety",
            Lint::EscapeJustification => "escape-hatch-justification",
        }
    }

    /// All lints, in diagnostic order.
    pub fn all() -> [Lint; 2] {
        [Lint::MoneySafety, Lint::EscapeJustification]
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding at a source position.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which lint fired.
    pub lint: Lint,
    /// Path as given to the scanner.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// What part of the workspace a file belongs to, for lint scoping.
#[derive(Clone, Debug)]
pub struct FileContext {
    /// Crate directory name (`pricing`, `rl`, ...; `fixture` for fixtures).
    pub crate_name: String,
}

impl FileContext {
    /// Derives the context from a repo-relative path like
    /// `crates/rl/src/a3c.rs`.
    pub fn from_path(path: &Path) -> FileContext {
        let comps: Vec<&str> = path.iter().map(|c| c.to_str().unwrap_or_default()).collect();
        let crate_name = if comps.contains(&"fixtures") {
            // Lint fixtures exercise every lint regardless of location.
            "fixture".to_string()
        } else {
            comps
                .iter()
                .position(|&c| c == "crates")
                .and_then(|i| comps.get(i + 1))
                .map_or_else(|| "fixture".to_string(), |s| (*s).to_string())
        };
        FileContext { crate_name }
    }

    fn lint_applies(&self, lint: Lint) -> bool {
        match lint {
            // Pricing owns dollar<->micro conversion; bench code is exempt.
            Lint::MoneySafety => self.crate_name != "pricing" && self.crate_name != "bench",
            // Escapes are loans everywhere — bins, benches, and fixtures too.
            Lint::EscapeJustification => true,
        }
    }
}

/// Runs every applicable lint over one file's source.
pub fn scan_source(path: &Path, src: &str, ctx: &FileContext) -> Vec<Violation> {
    let lexed = lex(src);
    let marks = mark_regions(&lexed.toks);
    let mut out = Vec::new();
    for lint in Lint::all() {
        if !ctx.lint_applies(lint) {
            continue;
        }
        let raw = match lint {
            Lint::MoneySafety => lint_money_safety(&lexed.toks, &marks),
            Lint::EscapeJustification => lint_escape_justification(&lexed),
        };
        for (line, message) in raw {
            if allowed(&lexed, lint, line) {
                continue;
            }
            out.push(Violation { lint, file: path.display().to_string(), line, message });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// True if an `xtask-allow` comment covers `lint` at `line` (same line or the
/// line directly above). L10 itself can only be suppressed by a *justified*
/// escape — otherwise a bare `xtask-allow: all` would grant itself amnesty.
fn allowed(lexed: &Lexed, lint: Lint, line: usize) -> bool {
    lexed.allows.iter().any(|a| {
        (a.line == line || a.line + 1 == line)
            && a.lints.iter().any(|l| l == lint.name() || l == "all")
            && (lint != Lint::EscapeJustification || !a.reason.is_empty())
    })
}

/// L10: every `xtask-allow` escape comment must carry a justification —
/// `// xtask-allow(<lint>): <reason>`. Suppressions are loans; the reason is
/// the loan paperwork.
fn lint_escape_justification(lexed: &Lexed) -> Vec<(usize, String)> {
    lexed
        .allows
        .iter()
        .filter(|a| a.reason.is_empty())
        .map(|a| {
            (
                a.line,
                format!(
                    "escape hatch for `{}` has no justification; write \
                     `// xtask-allow({}): <reason>`",
                    a.lints.join(", "),
                    a.lints.join(", "),
                ),
            )
        })
        .collect()
}

/// Per-token context: whether the token is inside test code.
pub struct Marks {
    pub in_test: Vec<bool>,
}

/// Computes `#[cfg(test)]` / `#[test]` regions per token.
pub fn mark_regions(toks: &[Tok]) -> Marks {
    let mut depth = 0usize;
    let mut in_test = Vec::with_capacity(toks.len());
    // Depths at which a test-scoped `{` was opened.
    let mut test_stack: Vec<usize> = Vec::new();
    // An attribute mentioning `test` was seen; the next `{` (before any `;`
    // at attribute depth) opens a test region.
    let mut pending_test_attr = false;

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        in_test.push(!test_stack.is_empty());
        match &t.kind {
            TokKind::Punct(p) => match p.as_str() {
                "{" => {
                    if pending_test_attr {
                        test_stack.push(depth);
                        pending_test_attr = false;
                    }
                    depth += 1;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                }
                ";" => pending_test_attr = false,
                "#" if toks.get(i + 1).is_some_and(|t| t.kind.is_punct("[")) => {
                    // Scan the attribute's bracket group for `test`.
                    let mut j = i + 1;
                    let mut bracket = 0usize;
                    let mut has_test = false;
                    while let Some(tok) = toks.get(j) {
                        match &tok.kind {
                            TokKind::Punct(q) if q == "[" => bracket += 1,
                            TokKind::Punct(q) if q == "]" => {
                                bracket -= 1;
                                if bracket == 0 {
                                    break;
                                }
                            }
                            TokKind::Ident(id) if id == "test" => has_test = true,
                            _ => {}
                        }
                        j += 1;
                    }
                    if has_test {
                        pending_test_attr = true;
                    }
                    // Re-push marks for skipped attribute tokens.
                    for _ in i + 1..=j.min(toks.len().saturating_sub(1)) {
                        in_test.push(!test_stack.is_empty());
                    }
                    i = j;
                }
                _ => {}
            },
            TokKind::Ident(_) | TokKind::Num | TokKind::Lit => {}
        }
        i += 1;
    }
    Marks { in_test }
}

fn is_arith(kind: &TokKind) -> bool {
    matches!(kind, TokKind::Punct(p)
        if matches!(p.as_str(), "+" | "-" | "*" | "/" | "+=" | "-=" | "*=" | "/="))
}

fn is_value_end(kind: &TokKind) -> bool {
    matches!(kind, TokKind::Ident(_) | TokKind::Num)
        || matches!(kind, TokKind::Punct(p) if p == ")" || p == "]")
}

/// Skips a balanced paren group starting at `toks[i]` (which must be `(`);
/// returns the index just past the matching `)`.
fn skip_parens(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while let Some(t) = toks.get(j) {
        if t.kind.is_punct("(") {
            depth += 1;
        } else if t.kind.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

fn is_dollar_ident(id: &str) -> bool {
    let lower = id.to_ascii_lowercase();
    lower.contains("dollar") || lower.contains("usd")
}

/// L1: flags raw float arithmetic on dollar-named values and
/// `as_dollars` -> `from_dollars` round-trips outside `crates/pricing`.
fn lint_money_safety(toks: &[Tok], marks: &Marks) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if marks.in_test[i] {
            continue;
        }
        let Some(id) = t.kind.ident() else { continue };
        if !is_dollar_ident(id) {
            continue;
        }
        // `dollars + x`, `x * cost_usd`, `m.as_dollars() / n`, ...
        // `from_dollars(..)` is exempt from the call-result rule: it returns
        // `Money`, so arithmetic on its result is Money arithmetic.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.kind.is_punct("(")) {
            if id == "from_dollars" {
                j = usize::MAX;
            } else {
                j = skip_parens(toks, j);
            }
        }
        let after_op = toks.get(j).is_some_and(|t| is_arith(&t.kind));
        let before_op = i >= 2 && is_arith(&toks[i - 1].kind) && is_value_end(&toks[i - 2].kind);
        if after_op || before_op {
            out.push((
                t.line,
                format!(
                    "raw f64 arithmetic on dollar value `{id}`; do the math in \
                     `Money` micros (crates/pricing) instead"
                ),
            ));
        }
        // `Money::from_dollars(x.as_dollars() * k)` style round-trips: both
        // conversions inside one statement.
        if id == "from_dollars" {
            let stmt_end =
                toks[i..].iter().position(|t| t.kind.is_punct(";")).map_or(toks.len(), |p| i + p);
            let stmt_start = toks[..i]
                .iter()
                .rposition(|t| t.kind.is_punct(";") || t.kind.is_punct("{") || t.kind.is_punct("}"))
                .map_or(0, |p| p + 1);
            if toks[stmt_start..stmt_end].iter().any(|t| t.kind.ident() == Some("as_dollars")) {
                out.push((
                    t.line,
                    "as_dollars()->from_dollars round-trip loses sub-micro precision; \
                     stay in Money micros"
                        .to_string(),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan(src: &str, crate_name: &str) -> Vec<Violation> {
        let ctx = FileContext { crate_name: crate_name.to_string() };
        scan_source(&PathBuf::from("mem.rs"), src, &ctx)
    }

    #[test]
    fn l1_flags_dollar_arithmetic_outside_pricing() {
        let src = "fn f(total_dollars: f64, rate: f64) -> f64 { total_dollars * rate }";
        let v = scan(src, "core");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::MoneySafety);
    }

    #[test]
    fn l1_is_silent_inside_pricing() {
        let src = "fn f(d: f64) -> f64 { let dollars = d; dollars * 2.0 }";
        assert!(scan(src, "pricing").is_empty());
    }

    #[test]
    fn l1_flags_round_trip() {
        let src = "fn f(m: Money) -> Money { Money::from_dollars(m.as_dollars()) }";
        let v = scan(src, "core");
        assert!(v.iter().any(|v| v.message.contains("round-trip")), "{v:?}");
    }

    #[test]
    fn allow_comment_suppresses_same_line() {
        let src = "fn f(total_dollars: f64) -> f64 { total_dollars * 2.0 } \
                   // xtask-allow(money-safety): test shim";
        assert!(scan(src, "core").is_empty());
    }

    #[test]
    fn allow_comment_suppresses_next_line() {
        let src = "// xtask-allow(money-safety): exploratory tool\n\
                   fn f(total_dollars: f64) -> f64 { total_dollars * 2.0 }";
        assert!(scan(src, "core").is_empty());
    }

    #[test]
    fn allow_for_other_lint_does_not_suppress() {
        let src = "fn f(total_dollars: f64) -> f64 { total_dollars * 2.0 } \
                   // xtask-allow(determinism-taint): n/a";
        assert_eq!(scan(src, "core").iter().filter(|v| v.lint == Lint::MoneySafety).count(), 1);
    }

    #[test]
    fn l10_flags_bare_escape_hatches() {
        let src = "fn f(total_dollars: f64) -> f64 { total_dollars * 2.0 } \
                   // xtask-allow: money-safety";
        let v = scan(src, "core");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::EscapeJustification);
        assert!(v[0].message.contains("money-safety"), "{v:?}");
    }

    #[test]
    fn l10_accepts_justified_escapes_both_grammars() {
        let new_style = "fn f(total_dollars: f64) -> f64 { total_dollars * 2.0 } \
                         // xtask-allow(money-safety): shim";
        assert!(scan(new_style, "core").is_empty());
        let legacy = "fn f(total_dollars: f64) -> f64 { total_dollars * 2.0 } \
                      // xtask-allow: money-safety (report-only estimate)";
        assert!(scan(legacy, "core").is_empty());
    }

    #[test]
    fn l10_cannot_be_suppressed_by_a_bare_escape() {
        let src = "fn f() {} // xtask-allow: all";
        let v = scan(src, "rl");
        assert_eq!(v.len(), 1, "bare `all` must not grant itself amnesty: {v:?}");
        assert_eq!(v[0].lint, Lint::EscapeJustification);
    }
}
