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

use crate::flow::{flow_allowed, FlowDiag, FlowKind, FnGraph, Workspace};
use crate::lexer::{Tok, TokKind};
use serde::Deserialize;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

/// Entry points whose transitive callees constitute the serving path.
pub const ROOTS: &[&str] = &["core::serve", "core::simulate", "core::Supervisor::run"];

/// The committed allowlist F2 findings are gated on.
pub const ALLOWLIST: &str = "xtask-panic-allowlist.json";

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

/// One tolerated function of the committed allowlist.
#[derive(Clone, Debug, PartialEq, Eq, Deserialize)]
pub struct AllowEntry {
    /// Qualified function key (`core::Engine::run_shard`).
    pub function: String,
    /// Why the flagged sites are acceptable.
    pub reason: String,
}

/// The committed `{"entries": [{"function": ..., "reason": ...}, ...]}`
/// allowlist, [`ALLOWLIST`].
#[derive(Clone, Debug, Default, Deserialize)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Loads `<root>/`[`ALLOWLIST`]; a missing file is an empty allowlist,
    /// a malformed one is an error.
    pub fn load(root: &Path) -> Result<Allowlist, String> {
        let path = root.join(ALLOWLIST);
        match std::fs::read_to_string(&path) {
            Ok(src) => Allowlist::parse(&src).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Parses an allowlist document. Entries are audits, so a blank
    /// `reason` is rejected like a missing one.
    pub fn parse(src: &str) -> Result<Allowlist, String> {
        let list: Allowlist = serde_json::from_str(src).map_err(|e| e.to_string())?;
        match list.entries.iter().position(|e| e.reason.trim().is_empty()) {
            Some(i) => Err(format!("entry {i}: reason must not be empty")),
            None => Ok(list),
        }
    }
}

/// Walks the graph forward from `roots` and flags every reachable function
/// with a panic site that no justified `xtask-allow(panic-reachability)`
/// waives. Functions `allow` lists are not flagged; the entries that matched
/// nothing are returned beside the diagnostics. BFS order makes every trace
/// a shortest root-to-site path.
pub fn analyze(
    ws: &Workspace,
    g: &FnGraph,
    roots: &[&str],
    allow: &Allowlist,
) -> (Vec<FlowDiag>, Vec<AllowEntry>) {
    let mut prev: Vec<Option<usize>> = vec![None; g.nodes.len()];
    let mut root_of: Vec<Option<usize>> = vec![None; g.nodes.len()];
    let mut queue = VecDeque::new();
    for key in roots {
        if let Some(ix) = g.by_key(key) {
            if root_of[ix].is_none() {
                root_of[ix] = Some(ix);
                queue.push_back(ix);
            }
        }
    }
    while let Some(ix) = queue.pop_front() {
        for &c in &g.nodes[ix].callees {
            if root_of[c].is_none() {
                root_of[c] = root_of[ix];
                prev[c] = Some(ix);
                queue.push_back(c);
            }
        }
    }

    let mut used = vec![false; allow.entries.len()];
    let mut diags = Vec::new();
    for (ix, node) in g.nodes.iter().enumerate() {
        let Some(root_ix) = root_of[ix] else { continue };
        let Some((start, end)) = node.body else { continue };
        let sf = &ws.files[node.file_ix];
        // category -> (count, first line), in category order.
        let mut sites: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (cat, line) in panic_sites(&sf.lexed.toks[start..end.min(sf.lexed.toks.len())]) {
            if !flow_allowed(&sf.lexed, FlowKind::PanicReachability, line) {
                sites.entry(cat).or_insert((0, line)).0 += 1;
            }
        }
        if sites.is_empty() {
            continue;
        }
        if let Some(pos) = allow.entries.iter().position(|e| e.function == node.key) {
            used[pos] = true;
            continue;
        }
        let mut path = vec![ix];
        while let Some(p) = prev[*path.last().unwrap_or(&ix)] {
            path.push(p);
        }
        path.reverse();
        let trace = path
            .iter()
            .map(|&step| {
                let role = if step == ix { "panics in" } else { "calls" };
                format!("{role} {}", g.label(ws, step))
            })
            .collect();
        let summary: Vec<String> = sites.iter().map(|(cat, (n, _))| format!("{n} {cat}")).collect();
        diags.push(FlowDiag {
            kind: FlowKind::PanicReachability,
            file: sf.file.clone(),
            line: sites.values().map(|&(_, line)| line).min().unwrap_or(0),
            symbol: node.key.clone(),
            message: format!(
                "can panic ({}) and is reachable from `{}` ({} hop(s)); fix, waive the site, or \
                 add an `{ALLOWLIST}` entry",
                summary.join(", "),
                g.nodes[root_ix].key,
                path.len().saturating_sub(1),
            ),
            trace,
        });
    }
    let unused =
        allow.entries.iter().zip(&used).filter(|(_, u)| !**u).map(|(e, _)| e.clone()).collect();
    (diags, unused)
}
