//! Shared infrastructure for the flow-sensitive interprocedural analyses.
//!
//! `cargo xtask check` runs three analyses over the workspace function-call
//! graph as its second step (schema and rationale in DESIGN.md §12):
//!
//! - **F1 `determinism-taint`** ([`crate::taint`]): nondeterministic inputs
//!   (wall clock, OS entropy, environment, thread identity, unordered-map
//!   iteration) must not reach decision or billing sinks.
//! - **F2 `panic-reachability`** ([`crate::reach`]): functions reachable
//!   from the serve/simulate entry points that can panic must be listed in
//!   the committed `xtask-panic-allowlist.json`.
//! - **F3 `lock-order`** ([`crate::lockorder`]): lock acquisition orderings
//!   must be acyclic across the whole call graph.
//!
//! This module owns the pieces the analyses share: the [`Workspace`] loader
//! (sources, tokens, item trees for every first-party crate), the function
//! call graph [`FnGraph`], the [`FlowDiag`] diagnostic type that feeds the
//! same gate as the syntax lints, and the allowlist-gated reachability walk
//! ([`gated_reach`]) behind F2 and F5.

use crate::lexer::{lex, Lexed, Tok};
use crate::lints::mark_regions;
use crate::parser::{parse_items, walk_items, Item, ItemKind};
use serde::Deserialize;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::Path;

/// The `crates/<dir>` trees the analyses load, in load order. `xtask`
/// itself is left out: the analyzer is not on any serving or billing path,
/// and its generic method names (`push`, `parse`, ...) would only add noise
/// edges to the call graph it analyzes.
const CRATE_DIRS: [&str; 9] =
    ["pricing", "trace", "forecast", "nn", "rl", "stream", "store", "core", "bench"];

/// Identifiers that look like calls but are control flow or builtins.
const NON_CALLEES: &[&str] = &[
    "if",
    "while",
    "for",
    "match",
    "loop",
    "return",
    "fn",
    "let",
    "mut",
    "ref",
    "move",
    "in",
    "as",
    "use",
    "pub",
    "impl",
    "where",
    "else",
    "break",
    "continue",
    "unsafe",
    "dyn",
    "Some",
    "None",
    "Ok",
    "Err",
    "self",
    "Self",
    "crate",
    "super",
    "vec",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "format",
    "println",
    "eprintln",
    "write",
    "writeln",
    "panic",
    "matches",
    "include_str",
    "env",
    "concat",
    "stringify",
];

/// Which flow analysis produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// F1: nondeterministic input reaches a decision/billing sink.
    DeterminismTaint,
    /// F2: a panic site is reachable from a serving entry point.
    PanicReachability,
    /// F3: lock acquisition orderings form a cycle.
    LockOrder,
    /// F5: a heap allocation is reachable from a per-day inner-loop root.
    HotAlloc,
}

impl FlowKind {
    /// Stable kind name, used in diagnostics and escape comments.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::DeterminismTaint => "determinism-taint",
            FlowKind::PanicReachability => "panic-reachability",
            FlowKind::LockOrder => "lock-order",
            FlowKind::HotAlloc => "hot-alloc",
        }
    }

    /// Short code for human output (`F1`..`F5`).
    pub fn code(self) -> &'static str {
        match self {
            FlowKind::DeterminismTaint => "F1",
            FlowKind::PanicReachability => "F2",
            FlowKind::LockOrder => "F3",
            FlowKind::HotAlloc => "F5",
        }
    }

    /// All kinds, in code order.
    pub fn all() -> [FlowKind; 4] {
        [
            FlowKind::DeterminismTaint,
            FlowKind::PanicReachability,
            FlowKind::LockOrder,
            FlowKind::HotAlloc,
        ]
    }
}

/// One flow diagnostic, rendered `file:line: flow[F1 determinism-taint] ...`.
#[derive(Clone, Debug)]
pub struct FlowDiag {
    /// Which analysis fired.
    pub kind: FlowKind,
    /// Repo-relative file of the anchoring function.
    pub file: String,
    /// 1-based line of the anchoring function or site.
    pub line: usize,
    /// Qualified function key (`crate::Container::fn`).
    pub symbol: String,
    /// Human-readable explanation.
    pub message: String,
    /// Call-path evidence, outermost first.
    pub trace: Vec<String>,
}

impl fmt::Display for FlowDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: flow[{} {}] {}: {}",
            self.file,
            self.line,
            self.kind.code(),
            self.kind.name(),
            self.symbol,
            self.message
        )?;
        for step in &self.trace {
            write!(f, "\n    {step}")?;
        }
        Ok(())
    }
}

/// One loaded and parsed source file of the workspace.
pub struct SourceFile {
    /// Crate directory name (`core`, `rl`, ...).
    pub krate: String,
    /// Repo-relative display path.
    pub file: String,
    /// Raw source text.
    pub src: String,
    /// Lexed tokens and escape comments.
    pub lexed: Lexed,
    /// Item tree.
    pub items: Vec<Item>,
}

/// All first-party sources, loaded once and shared by every analysis.
#[derive(Default)]
pub struct Workspace {
    /// Files in crate order, then directory-walk order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads every `crates/*/src` tree in [`CRATE_DIRS`].
    pub fn load_flow(root: &Path) -> Result<Workspace, String> {
        let mut ws = Workspace::default();
        for dir in CRATE_DIRS {
            let crate_src = root.join("crates").join(dir).join("src");
            let files = crate::walk::rust_files(&crate_src)
                .map_err(|e| format!("cannot read {}: {e}", crate_src.display()))?;
            for file in files {
                let src = std::fs::read_to_string(&file)
                    .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
                let display = file
                    .strip_prefix(root)
                    .map_or_else(|_| file.display().to_string(), |p| p.display().to_string());
                ws.push(dir, &display, src);
            }
        }
        Ok(ws)
    }

    /// Builds a workspace from in-memory sources: `(crate, path, source)`.
    /// Used by the fixture self-tests.
    #[cfg(test)]
    pub fn from_sources(sources: &[(&str, &str, &str)]) -> Workspace {
        let mut ws = Workspace::default();
        for (krate, file, src) in sources {
            ws.push(krate, file, (*src).to_string());
        }
        ws
    }

    fn push(&mut self, krate: &str, file: &str, src: String) {
        let lexed = lex(&src);
        let marks = mark_regions(&lexed.toks);
        let items = parse_items(&lexed, &marks);
        self.files.push(SourceFile {
            krate: krate.to_string(),
            file: file.to_string(),
            src,
            lexed,
            items,
        });
    }
}

/// One function in the call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Crate directory name.
    pub krate: String,
    /// Stable key: `crate::Container::fn`.
    pub key: String,
    /// Simple function name.
    pub name: String,
    /// Innermost container (impl type, trait, or inline module) holding the
    /// function; `None` for free functions at file scope.
    pub container: Option<String>,
    /// Index into [`Workspace::files`].
    pub file_ix: usize,
    /// 1-based definition line.
    pub line: usize,
    /// Token index range of the body, when the function has one.
    pub body: Option<(usize, usize)>,
    /// Callee node indices, sorted and deduplicated.
    pub callees: Vec<usize>,
}

/// Syntactic shape of a call site, used to scope callee resolution.
enum CallForm {
    /// `f(...)` — a bare path; resolves to free functions only.
    Free,
    /// `recv.f(...)` — method syntax; resolves to the union of every
    /// container's method with that name, which is how `dyn Policy`
    /// dispatch stays covered without type information.
    Method,
    /// `Q::f(...)` — qualified path; resolves within container `Q`.
    Path(String),
    /// `Self::f(...)` — resolves within the caller's own container.
    SelfPath,
}

/// The workspace function-call graph the flow analyses run over.
///
/// Call edges are resolved by syntax: `Q::f(...)` links only to `f` defined
/// in a container named `Q`, `Self::f(...)` stays in the caller's container,
/// `recv.f(...)` links to *every* container's `f` (the conservative union
/// that models `dyn Policy` dispatch without type information), and a bare
/// `f(...)` links to free functions named `f`. Names resolved only outside
/// the workspace (std, vendored stubs) produce no edge.
#[derive(Debug, Default)]
pub struct FnGraph {
    /// All non-test functions, in file order.
    pub nodes: Vec<FnNode>,
    /// Reverse adjacency: `callers[i]` lists nodes that call node `i`.
    pub callers: Vec<Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_key: BTreeMap<String, usize>,
}

impl FnGraph {
    /// Builds the graph from a loaded workspace.
    pub fn build(ws: &Workspace) -> FnGraph {
        let mut g = FnGraph::default();
        // Pass 1: one node per non-test function definition.
        for (file_ix, sf) in ws.files.iter().enumerate() {
            walk_items(&sf.items, &mut |item, stack| {
                if item.kind != ItemKind::Fn || item.in_test {
                    return;
                }
                let containers: Vec<&str> =
                    stack.iter().filter(|s| !s.name.is_empty()).map(|s| s.name.as_str()).collect();
                let mut parts: Vec<&str> = vec![&sf.krate];
                parts.extend(&containers);
                parts.push(&item.name);
                let key = parts.join("::");
                let ix = g.nodes.len();
                g.by_name.entry(item.name.clone()).or_default().push(ix);
                g.by_key.entry(key.clone()).or_insert(ix);
                g.nodes.push(FnNode {
                    krate: sf.krate.clone(),
                    key,
                    name: item.name.clone(),
                    container: containers.last().map(|c| (*c).to_string()),
                    file_ix,
                    line: item.line,
                    body: item.body,
                    callees: Vec::new(),
                });
            });
        }
        // Pass 2: call edges, scoped by the call site's syntactic form.
        for ix in 0..g.nodes.len() {
            let Some((start, end)) = g.nodes[ix].body else { continue };
            let lexed = &ws.files[g.nodes[ix].file_ix].lexed;
            let mut callees = Vec::new();
            for (name, form) in call_forms(lexed, start, end) {
                let Some(cands) = g.by_name.get(&name) else { continue };
                match form {
                    CallForm::Method => callees
                        .extend(cands.iter().copied().filter(|&c| g.nodes[c].container.is_some())),
                    CallForm::Free => callees
                        .extend(cands.iter().copied().filter(|&c| g.nodes[c].container.is_none())),
                    CallForm::SelfPath => {
                        let (krate, container) = (&g.nodes[ix].krate, &g.nodes[ix].container);
                        if container.is_some() {
                            callees.extend(cands.iter().copied().filter(|&c| {
                                g.nodes[c].krate == *krate && g.nodes[c].container == *container
                            }));
                        }
                    }
                    CallForm::Path(q) => {
                        let scoped: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&c| g.nodes[c].container.as_deref() == Some(q.as_str()))
                            .collect();
                        if scoped.is_empty() && q.starts_with(char::is_lowercase) {
                            // `module::f(...)` — file modules are not on the
                            // item stack, so fall back to free functions.
                            callees.extend(
                                cands.iter().copied().filter(|&c| g.nodes[c].container.is_none()),
                            );
                        } else {
                            callees.extend(scoped);
                        }
                    }
                }
            }
            callees.sort_unstable();
            callees.dedup();
            g.nodes[ix].callees = callees;
        }
        g.callers = vec![Vec::new(); g.nodes.len()];
        for ix in 0..g.nodes.len() {
            for c in g.nodes[ix].callees.clone() {
                g.callers[c].push(ix);
            }
        }
        g
    }

    /// Node indices of every function with this simple name.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Node index of the function with this qualified key, if defined.
    pub fn by_key(&self, key: &str) -> Option<usize> {
        self.by_key.get(key).copied()
    }

    /// `key (file:line)` label for diagnostics and traces.
    pub fn label(&self, ws: &Workspace, ix: usize) -> String {
        let n = &self.nodes[ix];
        format!("{} ({}:{})", n.key, ws.files[n.file_ix].file, n.line)
    }
}

/// Extracts `(callee_name, form)` candidates from a body token range:
/// identifiers directly followed by `(`, excluding keywords and macros,
/// classified by what precedes them (`.`, `Q::`, `Self::`, or nothing).
fn call_forms(lexed: &Lexed, start: usize, end: usize) -> Vec<(String, CallForm)> {
    let toks = &lexed.toks[start..end.min(lexed.toks.len())];
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.kind.ident() else { continue };
        if NON_CALLEES.contains(&id) {
            continue;
        }
        let called = toks.get(i + 1).is_some_and(|n| n.kind.is_punct("("));
        let is_macro = toks.get(i + 1).is_some_and(|n| n.kind.is_punct("!"));
        if !called || is_macro {
            continue;
        }
        let form = if i >= 1 && toks[i - 1].kind.is_punct("::") {
            let qual = if i >= 2 { toks[i - 2].kind.ident() } else { None };
            match qual {
                Some("Self" | "self") => CallForm::SelfPath,
                // `crate::f(...)` / `super::f(...)` name a free function.
                Some("crate" | "super") => CallForm::Free,
                Some(q) => CallForm::Path(q.to_string()),
                // `<T as Trait>::f(...)` and turbofish tails: the container
                // is unknowable here, keep the conservative method union.
                None => CallForm::Method,
            }
        } else if i >= 1 && toks[i - 1].kind.is_punct(".") {
            CallForm::Method
        } else {
            CallForm::Free
        };
        out.push((id.to_string(), form));
    }
    out
}

/// True when an `// xtask-allow(<kind>): <reason>` escape comment with a
/// non-empty justification covers this line (same line or the line above).
/// Flow kinds must be named explicitly — `all` covers only the syntax lints.
pub fn flow_allowed(lexed: &Lexed, kind: FlowKind, line: usize) -> bool {
    lexed.allows.iter().any(|a| {
        (a.line == line || a.line + 1 == line)
            && a.lints.iter().any(|l| l == kind.name())
            && !a.reason.is_empty()
    })
}

/// Runs all three analyses; returns diagnostics plus the panic-allowlist
/// entries that matched nothing.
pub fn analyze(
    ws: &Workspace,
    g: &FnGraph,
    panic_allow: &Allowlist,
) -> (Vec<FlowDiag>, Vec<AllowEntry>) {
    let mut diags = Vec::new();
    let taint = crate::taint::compute(ws, g);
    diags.extend(crate::taint::diagnostics(ws, g, &taint));
    let (reach_diags, unused) = crate::reach::analyze(ws, g, crate::reach::ROOTS, panic_allow);
    diags.extend(reach_diags);
    diags.extend(crate::lockorder::analyze(ws, g));
    (diags, unused)
}

/// One tolerated function of a committed allowlist.
#[derive(Clone, Debug, PartialEq, Eq, Deserialize)]
pub struct AllowEntry {
    /// Qualified function key (`core::Engine::run_shard`).
    pub function: String,
    /// Why the flagged sites are acceptable.
    pub reason: String,
}

/// A committed `{"entries": [{"function": ..., "reason": ...}, ...]}`
/// allowlist: `xtask-panic-allowlist.json` (F2) or
/// `xtask-alloc-allowlist.json` (F5).
#[derive(Clone, Debug, Default, Deserialize)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Loads `<root>/<name>`; a missing file is an empty allowlist, a
    /// malformed one is an error.
    pub fn load(root: &Path, name: &str) -> Result<Allowlist, String> {
        let path = root.join(name);
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

/// How an allowlist-gated reachability analysis reports its findings.
pub struct Gate {
    /// Which analysis this is.
    pub kind: FlowKind,
    /// Trace role of the flagged function (`panics in`).
    pub role: &'static str,
    /// What the flagged function does (`can panic`).
    pub finding: &'static str,
    /// The first remedy offered (`fix`).
    pub remedy: &'static str,
    /// The allowlist file that can absorb a finding.
    pub allowlist: &'static str,
}

/// Walks the graph forward from `roots` and flags every reachable function
/// whose body `scan` finds `(label, line)` sites in, after dropping sites a
/// justified `xtask-allow(<kind>)` waives. Functions `allow` lists are not
/// flagged; the entries that matched nothing are returned beside the
/// diagnostics. BFS order makes every trace a shortest root-to-site path.
pub fn gated_reach<'r>(
    ws: &Workspace,
    g: &FnGraph,
    roots: impl IntoIterator<Item = &'r str>,
    allow: &Allowlist,
    gate: &Gate,
    scan: impl Fn(&[Tok]) -> Vec<(String, usize)>,
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
        // label -> (count, first line), in label order.
        let mut sites: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (label, line) in scan(&sf.lexed.toks[start..end.min(sf.lexed.toks.len())]) {
            if !flow_allowed(&sf.lexed, gate.kind, line) {
                sites.entry(label).or_insert((0, line)).0 += 1;
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
                let role = if step == ix { gate.role } else { "calls" };
                format!("{role} {}", g.label(ws, step))
            })
            .collect();
        let summary: Vec<String> =
            sites.iter().map(|(label, (n, _))| format!("{n} {label}")).collect();
        diags.push(FlowDiag {
            kind: gate.kind,
            file: sf.file.clone(),
            line: sites.values().map(|&(_, line)| line).min().unwrap_or(0),
            symbol: node.key.clone(),
            message: format!(
                "{} ({}) and is reachable from `{}` ({} hop(s)); {}, waive the site, or add an \
                 `{}` entry",
                gate.finding,
                summary.join(", "),
                g.nodes[root_ix].key,
                path.len().saturating_sub(1),
                gate.remedy,
                gate.allowlist,
            ),
            trace,
        });
    }
    let unused =
        allow.entries.iter().zip(&used).filter(|(_, u)| !**u).map(|(e, _)| e.clone()).collect();
    (diags, unused)
}
