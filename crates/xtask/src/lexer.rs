//! A minimal Rust lexer for the lint pass.
//!
//! Produces identifier / punctuation / literal tokens with line numbers,
//! skipping comments, strings, chars, and lifetimes. It is deliberately not a
//! full Rust lexer: the lints only need enough structure to find method calls,
//! macro invocations, operators, and brace nesting, and to honor
//! `// xtask-allow: <lint>` escape comments.

/// One lexed token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line the token starts on.
    pub line: usize,
    /// Token payload.
    pub kind: TokKind,
}

/// Token classes the lints care about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Operator / delimiter, multi-char ops joined (`->`, `::`, `+=`, ...).
    Punct(String),
    /// Numeric literal.
    Num,
    /// String, byte-string, or char literal (contents dropped).
    Lit,
}

impl TokKind {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this is the punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        matches!(self, TokKind::Punct(s) if s == p)
    }
}

/// An `// xtask-allow(<lints>): <reason>` escape comment (the legacy
/// `// xtask-allow: <lints>` spelling is still recognised, but lint L10
/// requires every escape to carry a justification).
#[derive(Clone, Debug)]
pub struct Allow {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Lint names listed after the marker (comma-separated).
    pub lints: Vec<String>,
    /// Free-form justification text after the lint list; empty when the
    /// escape is bare (which L10 flags).
    pub reason: String,
}

/// Lexer output: token stream plus escape comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All significant tokens in source order.
    pub toks: Vec<Tok>,
    /// All `xtask-allow` comments found anywhere in the file.
    pub allows: Vec<Allow>,
}

/// Multi-character operators, longest first so greedy matching is correct.
const MULTI_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "->", "=>", "::", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

const ALLOW_MARKER: &str = "xtask-allow";

/// Splits a comma-separated lint list, keeping each segment's leading
/// lint-name token and returning any trailing free-form text of the last
/// segment as commentary.
fn split_lint_list(list: &str) -> (Vec<String>, String) {
    let mut lints = Vec::new();
    let mut trailing = String::new();
    for seg in list.split(',') {
        let seg = seg.trim();
        let name: String =
            seg.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '-').collect();
        if !name.is_empty() {
            lints.push(name.clone());
        }
        trailing = seg[name.len()..].trim().to_string();
    }
    (lints, trailing)
}

fn record_allow(comment: &str, line: usize, allows: &mut Vec<Allow>) {
    let Some(pos) = comment.find(ALLOW_MARKER) else { return };
    let rest = &comment[pos + ALLOW_MARKER.len()..];
    // Preferred grammar: `xtask-allow(<lints>): <reason>`.
    if let Some(body) = rest.strip_prefix('(') {
        let Some(close) = body.find(')') else { return };
        let (lints, _) = split_lint_list(&body[..close]);
        let reason =
            body[close + 1..].trim_start().strip_prefix(':').map(str::trim).unwrap_or_default();
        allows.push(Allow { line, lints, reason: reason.to_string() });
    } else if let Some(body) = rest.strip_prefix(':') {
        // Legacy grammar: `xtask-allow: <lints> [commentary]` — commentary
        // after the last lint name counts as the justification.
        let (lints, reason) = split_lint_list(body);
        allows.push(Allow { line, lints, reason });
    }
}

/// Lexes `src` into tokens and escape comments.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;

    macro_rules! bump_lines {
        ($range:expr) => {
            line += bytes[$range].iter().filter(|&&b| b == b'\n').count()
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(bytes.len(), |p| i + p);
                let comment = &src[i..end];
                record_allow(comment, line, &mut out.allows);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let comment = &src[start..i];
                record_allow(comment, start_line, &mut out.allows);
            }
            b'"' => {
                let tok_line = line;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                out.toks.push(Tok { line: tok_line, kind: TokKind::Lit });
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let tok_line = line;
                // Skip prefix letters to the hashes/quote.
                let mut j = i;
                while bytes[j] == b'r' || bytes[j] == b'b' {
                    j += 1;
                }
                let hashes = bytes[j..].iter().take_while(|&&b| b == b'#').count();
                j += hashes + 1; // past opening quote
                let closer: Vec<u8> =
                    std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
                let end = find_subslice(&bytes[j..], &closer).map_or(bytes.len(), |p| j + p);
                bump_lines!(i..end.min(bytes.len()));
                i = (end + closer.len()).min(bytes.len());
                out.toks.push(Tok { line: tok_line, kind: TokKind::Lit });
            }
            b'\'' => {
                // Char literal or lifetime.
                let tok_line = line;
                if is_char_literal(bytes, i) {
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    out.toks.push(Tok { line: tok_line, kind: TokKind::Lit });
                } else {
                    // Lifetime: skip quote + identifier.
                    i += 1;
                    while i < bytes.len() && is_ident_char(bytes[i]) {
                        i += 1;
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let tok_line = line;
                while i < bytes.len()
                    && (is_ident_char(bytes[i])
                        || bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
                {
                    i += 1;
                }
                out.toks.push(Tok { line: tok_line, kind: TokKind::Num });
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                // `b"..."` / `r"..."` handled above; here it is a plain ident.
                out.toks.push(Tok { line, kind: TokKind::Ident(src[start..i].to_string()) });
            }
            _ => {
                let rest = &src[i..];
                let op = MULTI_OPS.iter().find(|op| rest.starts_with(**op));
                let text = op.map_or(&src[i..i + b.len_utf8_at()], |op| *op);
                out.toks.push(Tok { line, kind: TokKind::Punct(text.to_string()) });
                i += text.len();
            }
        }
    }
    out
}

trait Utf8LenAt {
    fn len_utf8_at(&self) -> usize;
}

impl Utf8LenAt for u8 {
    fn len_utf8_at(&self) -> usize {
        // Continuation bytes never start a token here; treat any lead byte's
        // full sequence length, defaulting to 1.
        match self {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True when the `r`/`b` at `i` starts a raw or byte string literal.
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    let mut saw_r = false;
    while j < bytes.len() && (bytes[j] == b'r' || bytes[j] == b'b') {
        saw_r |= bytes[j] == b'r';
        j += 1;
        if j - i > 2 {
            return false;
        }
    }
    if j < bytes.len() && bytes[j] == b'"' {
        // b"..." plain byte string is handled fine by the raw scanner only
        // when there are hashes; route plain b"..." here too (no escapes with
        // raw, but byte strings do allow escapes — accept the imprecision:
        // only `r`-prefixed forms skip escape handling).
        return saw_r || bytes[i] == b'b';
    }
    saw_r && j < bytes.len() && bytes[j] == b'#'
}

/// True when the `'` at `i` opens a char literal rather than a lifetime.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(&c) if is_ident_start(c) => bytes.get(i + 2) == Some(&b'\''),
        Some(_) => true,
        None => false,
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn skips_comments_and_strings() {
        let src = r#"
            // unwrap in comment
            /* panic! in block */
            let s = "unwrap() inside string";
            let c = 'x';
            let r = r"raw unwrap";
            real_ident();
        "#;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        // The arrow must be one token so `)` -> `->` is not read as minus.
        assert!(lex(src).toks.iter().any(|t| t.kind.is_punct("->")));
    }

    #[test]
    fn multi_char_ops_are_joined() {
        let lexed = lex("a += b; c::d(); e -> f");
        assert!(lexed.toks.iter().any(|t| t.kind.is_punct("+=")));
        assert!(lexed.toks.iter().any(|t| t.kind.is_punct("::")));
        assert!(!lexed.toks.iter().any(|t| t.kind.is_punct("+")));
    }

    #[test]
    fn allow_comments_are_collected() {
        let src = "let x = 1; // xtask-allow: money-safety, panic-reachability\nlet y = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].line, 1);
        assert_eq!(lexed.allows[0].lints, vec!["money-safety", "panic-reachability"]);
        assert!(lexed.allows[0].reason.is_empty(), "bare escape carries no reason");
    }

    #[test]
    fn justified_allow_grammar_records_reason() {
        let src = "x(); // xtask-allow(determinism-taint): log-only timestamp\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].lints, vec!["determinism-taint"]);
        assert_eq!(lexed.allows[0].reason, "log-only timestamp");
    }

    #[test]
    fn justified_allow_grammar_takes_multiple_lints() {
        let src = "y(); // xtask-allow(money-safety, panic-reachability): report-only path\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows[0].lints, vec!["money-safety", "panic-reachability"]);
        assert_eq!(lexed.allows[0].reason, "report-only path");
    }

    #[test]
    fn legacy_allow_trailing_commentary_counts_as_reason() {
        let src = "z(); // xtask-allow: determinism-taint (a \"log-only\" timestamp)\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows[0].lints, vec!["determinism-taint"]);
        assert!(lexed.allows[0].reason.contains("log-only"), "{:?}", lexed.allows[0]);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"a\nb\nc\";\nafter();";
        let lexed = lex(src);
        let after =
            lexed.toks.iter().find(|t| t.kind.ident() == Some("after")).expect("after token");
        assert_eq!(after.line, 4);
    }
}
