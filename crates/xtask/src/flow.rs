//! Shared infrastructure for the flow-sensitive interprocedural analyses.
//!
//! `cargo xtask check` runs two analyses over the workspace function-call
//! graph as its second step (schema and rationale in DESIGN.md §12):
//!
//! - **F1 `determinism-taint`** ([`crate::taint`]): nondeterministic inputs
//!   (wall clock, OS entropy, environment, thread identity) must not reach
//!   decision or billing sinks.
//! - **F2 `panic-reachability`** ([`crate::reach`]): functions reachable
//!   from the serve/simulate entry points that can panic must be listed in
//!   the committed `xtask-panic-allowlist.json`.
//!
//! This module owns the pieces the analyses share: the [`Workspace`] loader
//! (sources, tokens, item trees for every first-party crate), the function
//! call graph [`FnGraph`], and the [`FlowDiag`] diagnostic type that feeds
//! the same gate as the syntax lints.

use crate::lexer::{lex, Lexed};
use crate::lints::mark_regions;
use crate::parser::{parse_items, walk_items, Item, ItemKind};
use crate::reach::{AllowEntry, Allowlist};
use std::collections::BTreeMap;
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
}

impl FlowKind {
    /// Stable kind name, used in diagnostics and escape comments.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::DeterminismTaint => "determinism-taint",
            FlowKind::PanicReachability => "panic-reachability",
        }
    }

    /// Short code for human output (`F1`, `F2`).
    pub fn code(self) -> &'static str {
        match self {
            FlowKind::DeterminismTaint => "F1",
            FlowKind::PanicReachability => "F2",
        }
    }

    /// All kinds, in code order.
    pub fn all() -> [FlowKind; 2] {
        [FlowKind::DeterminismTaint, FlowKind::PanicReachability]
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
                ws.push(dir, &display, &src);
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
            ws.push(krate, file, src);
        }
        ws
    }

    fn push(&mut self, krate: &str, file: &str, src: &str) {
        let lexed = lex(src);
        let marks = mark_regions(&lexed.toks);
        let items = parse_items(&lexed, &marks);
        self.files.push(SourceFile {
            krate: krate.to_string(),
            file: file.to_string(),
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
    #[cfg(test)]
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
/// Flow kinds must be named explicitly — `all` covers only the custom lints.
pub fn flow_allowed(lexed: &Lexed, kind: FlowKind, line: usize) -> bool {
    lexed.allows.iter().any(|a| {
        (a.line == line || a.line + 1 == line)
            && a.lints.iter().any(|l| l == kind.name())
            && !a.reason.is_empty()
    })
}

/// Runs both analyses; returns diagnostics plus the panic-allowlist
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
    (diags, unused)
}
