//! F1 `determinism-taint`: nondeterministic inputs must not reach
//! decision or billing sinks.
//!
//! A function is a **source** when its body reads the wall clock
//! (`SystemTime::now`, `Instant::now`), OS entropy (`thread_rng`,
//! `from_entropy`, `from_os_rng`, `OsRng`, `rand::rng`), the environment
//! (`env::var`/`var_os`/`vars`), or thread identity (`thread::current`,
//! `ThreadId`). Unordered-map iteration needs no source here: clippy's
//! `disallowed_types` keeps `HashMap`/`HashSet` out of member crates. A
//! function is **tainted** when it is a source or (transitively) calls one. The diagnostic fires on every
//! tainted **sink**: every `Policy::decide_batch_into` impl and the billing,
//! checkpoint, and fault-decision containers, whose outputs the paper's
//! reproducibility claims depend on.
//!
//! Escape hatch: `// xtask-allow(determinism-taint): <reason>` on a source
//! line declares that read benign (log-only timestamps, say); on a sink's
//! definition line it waives the sink. Both require a justification (L10).

use crate::flow::{flow_allowed, FlowDiag, FlowKind, FnGraph, FnNode, SourceFile, Workspace};

/// Sink function names: every impl of the `Policy` decision method.
const SINK_FNS: &[&str] = &["decide_batch_into"];

/// Sink containers: any method of these types is a sink (billing
/// arithmetic, snapshot serialization, fault-plan fire decisions).
const SINK_PREFIXES: &[&str] =
    &["CostLedger::", "CostBreakdown::", "Money::", "Snapshot::", "FaultInjector::", "FaultPlan::"];

/// One nondeterminism read site inside a function body.
#[derive(Clone, Debug)]
pub struct Source {
    /// 1-based line of the read.
    pub line: usize,
    /// What was read (`SystemTime::now()`, ...).
    pub what: String,
}

/// Result of the taint pass, kept for diagnostics and the DOT export.
pub struct Taint {
    /// Per-node direct sources (empty for most nodes).
    pub sources: Vec<Vec<Source>>,
    /// Per-node verdict: contains a source or calls a tainted function.
    pub tainted: Vec<bool>,
}

/// True when this function is a determinism sink.
pub fn is_sink(node: &FnNode) -> bool {
    if SINK_FNS.contains(&node.name.as_str()) {
        return true;
    }
    let qual = node.key.split_once("::").map_or(node.key.as_str(), |(_, rest)| rest);
    SINK_PREFIXES.iter().any(|p| qual.starts_with(p))
}

/// Scans one body token range for direct nondeterminism reads.
fn scan_sources(sf: &SourceFile, start: usize, end: usize, out: &mut Vec<Source>) {
    let toks = &sf.lexed.toks[start..end.min(sf.lexed.toks.len())];
    let ident = |i: usize| toks.get(i).and_then(|t| t.kind.ident());
    let punct = |i: usize, p: &str| toks.get(i).is_some_and(|t| t.kind.is_punct(p));
    for (i, t) in toks.iter().enumerate() {
        let Some(id) = t.kind.ident() else { continue };
        let what = match id {
            // `SystemTime::now()` / `Instant::now()`.
            "SystemTime" | "Instant" if punct(i + 1, "::") && ident(i + 2) == Some("now") => {
                format!("{id}::now()")
            }
            // OS entropy; bare `rand::rng()` is matched at the `rand` token.
            "thread_rng" | "from_entropy" | "from_os_rng" if punct(i + 1, "(") => format!("{id}()"),
            "OsRng" => "OsRng".to_string(),
            "rand" if punct(i + 1, "::") && ident(i + 2) == Some("rng") && punct(i + 3, "(") => {
                "rand::rng()".to_string()
            }
            // Environment reads (`env!` the macro is compile-time, and is
            // lexed as `env` `!`, which this `::` pattern never matches).
            "env"
                if punct(i + 1, "::")
                    && matches!(ident(i + 2), Some("var" | "var_os" | "vars")) =>
            {
                format!("env::{}()", ident(i + 2).unwrap_or_default())
            }
            // Thread identity.
            "thread" if punct(i + 1, "::") && ident(i + 2) == Some("current") => {
                "thread::current()".to_string()
            }
            "ThreadId" => "ThreadId".to_string(),
            _ => continue,
        };
        if !flow_allowed(&sf.lexed, FlowKind::DeterminismTaint, t.line) {
            out.push(Source { line: t.line, what });
        }
    }
}

/// Computes per-function sources and the transitive taint closure.
pub fn compute(ws: &Workspace, g: &FnGraph) -> Taint {
    let mut sources: Vec<Vec<Source>> = vec![Vec::new(); g.nodes.len()];
    for (ix, node) in g.nodes.iter().enumerate() {
        if let Some((start, end)) = node.body {
            scan_sources(&ws.files[node.file_ix], start, end, &mut sources[ix]);
        }
    }
    // Fixpoint: taint flows callee -> caller.
    let mut tainted = vec![false; g.nodes.len()];
    let mut work: Vec<usize> = Vec::new();
    for (ix, s) in sources.iter().enumerate() {
        if !s.is_empty() {
            tainted[ix] = true;
            work.push(ix);
        }
    }
    while let Some(ix) = work.pop() {
        for &caller in &g.callers[ix] {
            if !tainted[caller] {
                tainted[caller] = true;
                work.push(caller);
            }
        }
    }
    Taint { sources, tainted }
}

/// Shortest sink-to-source call path, as trace lines for the diagnostic.
fn trace_to_source(ws: &Workspace, g: &FnGraph, t: &Taint, sink: usize) -> Vec<String> {
    let mut prev: Vec<Option<usize>> = vec![None; g.nodes.len()];
    let mut queue = std::collections::VecDeque::from([sink]);
    let mut seen = vec![false; g.nodes.len()];
    seen[sink] = true;
    let mut found = None;
    'bfs: while let Some(ix) = queue.pop_front() {
        if !t.sources[ix].is_empty() {
            found = Some(ix);
            break 'bfs;
        }
        for &c in &g.nodes[ix].callees {
            if t.tainted[c] && !seen[c] {
                seen[c] = true;
                prev[c] = Some(ix);
                queue.push_back(c);
            }
        }
    }
    let Some(src_ix) = found else { return Vec::new() };
    let mut path = vec![src_ix];
    while let Some(p) = prev[*path.last().unwrap_or(&sink)] {
        path.push(p);
    }
    path.reverse(); // sink first
    let mut out: Vec<String> =
        path.iter().map(|&ix| format!("calls {}", g.label(ws, ix))).collect();
    out[0] = format!("sink {}", g.label(ws, sink));
    if let Some(s) = t.sources[src_ix].first() {
        out.push(format!(
            "reads {} at {}:{}",
            s.what, ws.files[g.nodes[src_ix].file_ix].file, s.line
        ));
    }
    out
}

/// One diagnostic per tainted, un-waived sink.
pub fn diagnostics(ws: &Workspace, g: &FnGraph, t: &Taint) -> Vec<FlowDiag> {
    let mut out = Vec::new();
    for (ix, node) in g.nodes.iter().enumerate() {
        if !t.tainted[ix] || !is_sink(node) {
            continue;
        }
        let sf = &ws.files[node.file_ix];
        if flow_allowed(&sf.lexed, FlowKind::DeterminismTaint, node.line) {
            continue;
        }
        let trace = trace_to_source(ws, g, t, ix);
        let via = trace.len().saturating_sub(2);
        let message = if t.sources[ix].is_empty() {
            format!("nondeterministic input reaches this sink through {via} call hop(s)")
        } else {
            let s = &t.sources[ix][0];
            format!("sink reads {} directly at line {}", s.what, s.line)
        };
        out.push(FlowDiag {
            kind: FlowKind::DeterminismTaint,
            file: sf.file.clone(),
            line: node.line,
            symbol: node.key.clone(),
            message,
            trace,
        });
    }
    out
}
