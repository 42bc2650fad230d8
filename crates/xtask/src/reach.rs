//! F2 `panic-reachability`: the serving path's panic surface is a
//! committed, audited allowlist.
//!
//! Starting from the long-running entry points (`minicost serve`,
//! `minicost simulate`, and the supervisor loop), the analysis walks the
//! call graph forward and flags every reachable function whose body can
//! panic:
//!
//! - `unwrap`/`expect` family calls,
//! - panicking macros (`panic!`, `unreachable!`, `todo!`, `unimplemented!`,
//!   and the `assert*!` family — `debug_assert*!` is exempt, it compiles
//!   out of release builds),
//! - indexing / slicing (`x[i]` — slice-pattern panics fold into this
//!   category, both are bounds failures),
//! - remainder by a variable (`a % n` — division-by-zero; float-heavy
//!   `/` is excluded as overwhelmingly non-integral in this workspace).
//!
//! Findings are gated on `xtask-panic-allowlist.json` (repo root): each
//! entry names a function key and the reason its panics are acceptable
//! policy (fail-fast contract, bounds held by construction). Entries have
//! no expiry — deliberate panics are policy, not debt — but entries that
//! match nothing are reported so the file shrinks as code moves. Site-level
//! waivers use `// xtask-allow(panic-reachability): <reason>`.

use crate::flow::{
    gated_reach, AllowEntry, Allowlist, FlowDiag, FlowKind, FnGraph, Gate, Workspace,
};
use crate::lexer::{Tok, TokKind};

/// Entry points whose transitive callees constitute the serving path.
pub const ROOTS: &[&str] = &["core::serve", "core::simulate", "core::Supervisor::run"];

/// The committed allowlist F2 findings are gated on.
pub const ALLOWLIST: &str = "xtask-panic-allowlist.json";

const GATE: Gate = Gate {
    kind: FlowKind::PanicReachability,
    role: "panics in",
    finding: "can panic",
    remedy: "fix",
    allowlist: ALLOWLIST,
};

/// Identifiers that legitimately precede `[` without indexing.
const NON_INDEX_PRECEDERS: &[&str] = &[
    "return", "in", "if", "else", "match", "break", "loop", "while", "mut", "ref", "as", "move",
    "dyn", "let", "unsafe", "box",
];

/// `(category, line)` of every panic site in one body's tokens.
fn panic_sites(toks: &[Tok]) -> Vec<(String, usize)> {
    let mut sites = Vec::new();
    let mut record = |cat: &str, line| sites.push((cat.to_string(), line));
    for (i, t) in toks.iter().enumerate() {
        let next_is = |p: &str| toks.get(i + 1).is_some_and(|n| n.kind.is_punct(p));
        match &t.kind {
            TokKind::Ident(id) => match id.as_str() {
                // A method or path call; `#[expect(..)]` is a lint attribute.
                "unwrap" | "expect" | "unwrap_err" | "expect_err"
                    if next_is("(")
                        && i > 0
                        && (toks[i - 1].kind.is_punct(".") || toks[i - 1].kind.is_punct("::")) =>
                {
                    record("unwrap", t.line);
                }
                "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
                | "assert_ne"
                    if next_is("!") =>
                {
                    record("panic-macro", t.line);
                }
                _ => {}
            },
            TokKind::Punct(p) if p == "[" && i > 0 => {
                let indexes = match &toks[i - 1].kind {
                    TokKind::Ident(id) => !NON_INDEX_PRECEDERS.contains(&id.as_str()),
                    TokKind::Punct(q) => q == ")" || q == "]",
                    _ => false,
                };
                if indexes {
                    record("index", t.line);
                }
            }
            TokKind::Punct(p)
                if (p == "%" || p == "%=")
                    && toks.get(i + 1).is_some_and(|n| n.kind.ident().is_some()) =>
            {
                record("modulo", t.line);
            }
            _ => {}
        }
    }
    sites
}

/// Walks the graph from `roots`, flags reachable panicking functions not
/// covered by the allowlist, and returns the entries that matched nothing.
pub fn analyze(
    ws: &Workspace,
    g: &FnGraph,
    roots: &[&str],
    allow: &Allowlist,
) -> (Vec<FlowDiag>, Vec<AllowEntry>) {
    gated_reach(ws, g, roots.iter().copied(), allow, &GATE, panic_sites)
}
