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

use crate::flow::{flow_allowed, FlowDiag, FlowKind, FnGraph, SourceFile, Workspace};
use crate::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

/// Entry points whose transitive callees constitute the serving path.
pub const ROOTS: &[&str] = &["core::serve", "core::simulate", "core::Supervisor::run"];

/// One tolerated panicking function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Qualified function key (`core::Engine::run_shard`).
    pub function: String,
    /// Why panicking here is acceptable.
    pub reason: String,
}

/// The parsed `xtask-panic-allowlist.json`.
#[derive(Clone, Debug, Default)]
pub struct PanicAllowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl PanicAllowlist {
    /// Loads `<root>/xtask-panic-allowlist.json`; a missing file is an
    /// empty allowlist, a malformed one is an error.
    pub fn load(root: &Path) -> Result<PanicAllowlist, String> {
        let path = root.join("xtask-panic-allowlist.json");
        match std::fs::read_to_string(&path) {
            Ok(src) => PanicAllowlist::parse(&src).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(PanicAllowlist::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Parses `{"entries": [{"function": ..., "reason": ...}, ...]}`.
    pub fn parse(src: &str) -> Result<PanicAllowlist, String> {
        let doc = Json::parse(src)?;
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("panic allowlist must have an `entries` array")?;
        let mut out = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            let field = |name: &str| {
                e.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("entry {i}: missing string field `{name}`"))
            };
            let entry = AllowEntry { function: field("function")?, reason: field("reason")? };
            if entry.reason.trim().is_empty() {
                return Err(format!("entry {i}: reason must not be empty"));
            }
            out.push(entry);
        }
        Ok(PanicAllowlist { entries: out })
    }
}

/// Panic-site categories, in report order.
const CATEGORIES: &[&str] = &["unwrap", "panic-macro", "index", "modulo"];

/// Identifiers that legitimately precede `[` without indexing.
const NON_INDEX_PRECEDERS: &[&str] = &[
    "return", "in", "if", "else", "match", "break", "loop", "while", "mut", "ref", "as", "move",
    "dyn", "let", "unsafe", "box",
];

/// Per-category panic-site counts and first lines for one function body.
#[derive(Debug, Default)]
struct Sites {
    /// category -> (count, first line).
    by_cat: BTreeMap<&'static str, (usize, usize)>,
}

impl Sites {
    fn record(&mut self, cat: &'static str, line: usize) {
        let slot = self.by_cat.entry(cat).or_insert((0, line));
        slot.0 += 1;
    }

    fn is_empty(&self) -> bool {
        self.by_cat.is_empty()
    }

    /// `"2 index, 1 unwrap"` in stable category order.
    fn summary(&self) -> String {
        CATEGORIES
            .iter()
            .filter_map(|c| self.by_cat.get(c).map(|(n, _)| format!("{n} {c}")))
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn first_line(&self) -> usize {
        self.by_cat.values().map(|(_, l)| *l).min().unwrap_or(0)
    }
}

/// Scans one body token range for panic sites, honoring site waivers.
fn panic_sites(sf: &SourceFile, start: usize, end: usize) -> Sites {
    let toks = &sf.lexed.toks[start..end.min(sf.lexed.toks.len())];
    let mut sites = Sites::default();
    let mut record = |cat, line| {
        if !flow_allowed(&sf.lexed, FlowKind::PanicReachability, line) {
            sites.record(cat, line);
        }
    };
    for (i, t) in toks.iter().enumerate() {
        let next_is = |p: &str| toks.get(i + 1).is_some_and(|n| n.kind.is_punct(p));
        match &t.kind {
            crate::lexer::TokKind::Ident(id) => match id.as_str() {
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
            crate::lexer::TokKind::Punct(p) if p == "[" && i > 0 => {
                let indexes = match &toks[i - 1].kind {
                    crate::lexer::TokKind::Ident(id) => !NON_INDEX_PRECEDERS.contains(&id.as_str()),
                    crate::lexer::TokKind::Punct(q) => q == ")" || q == "]",
                    _ => false,
                };
                if indexes {
                    record("index", t.line);
                }
            }
            crate::lexer::TokKind::Punct(p)
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
/// covered by the allowlist, and reports unused allowlist entries.
pub fn analyze(
    ws: &Workspace,
    g: &FnGraph,
    roots: &[&str],
    allow: &PanicAllowlist,
) -> (Vec<FlowDiag>, Vec<String>) {
    // BFS from the roots, recording the hop parent for traces.
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
        let sites = panic_sites(sf, start, end);
        if sites.is_empty() {
            continue;
        }
        if let Some(pos) = allow.entries.iter().position(|e| e.function == node.key) {
            used[pos] = true;
            continue;
        }
        // Trace: root -> ... -> this function.
        let mut path = vec![ix];
        while let Some(p) = prev[*path.last().unwrap_or(&ix)] {
            path.push(p);
        }
        path.reverse();
        let trace: Vec<String> = path
            .iter()
            .map(|&step| {
                let role = if step == ix { "panics in" } else { "calls" };
                format!("{role} {}", g.label(ws, step))
            })
            .collect();
        diags.push(FlowDiag {
            kind: FlowKind::PanicReachability,
            file: sf.file.clone(),
            line: sites.first_line(),
            symbol: node.key.clone(),
            message: format!(
                "can panic ({}) and is reachable from `{}` ({} hop(s)); fix, waive the site, \
                 or add an `xtask-panic-allowlist.json` entry",
                sites.summary(),
                g.nodes[root_ix].key,
                path.len().saturating_sub(1),
            ),
            trace,
        });
    }
    let warnings = allow
        .entries
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| format!("unused panic-allowlist entry: {} ({})", e.function, e.reason))
        .collect();
    (diags, warnings)
}
