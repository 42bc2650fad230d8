//! F5 `hot-alloc`: the per-day inner loop's heap allocations are a
//! committed, audited allowlist.
//!
//! ROADMAP item 1 (columnar trace layout, SIMD-friendly batch decisions)
//! starts with an inventory of what the hot path allocates today. This
//! analysis walks the call graph forward from the per-day inner-loop
//! roots — `core::run_shard`, the `core::serve` decision loop, and every
//! `decide_batch_into` implementation — and flags each
//! reachable function that heap-allocates:
//!
//! - constructor paths (`Vec::new`, `Vec::with_capacity`, `Box::new`,
//!   `String::from`, and the other std containers),
//! - allocating method calls (`.collect()`, `.clone()`, `.to_vec()`,
//!   `.to_owned()`, `.to_string()`, `.cloned()`),
//! - allocating macros (`format!`, `vec!`).
//!
//! Findings are gated on `xtask-alloc-allowlist.json` (repo root): each
//! entry names a function key and the reason its allocations are
//! acceptable (amortized setup, API returns an owned buffer, decision
//! cadence far below the day loop). The report doubles as the audited
//! work-list for the columnar refactor; entries that match nothing are
//! reported so the file shrinks as buffers get hoisted. Site-level
//! waivers use `// xtask-allow(hot-alloc): <reason>`.

use crate::flow::{
    gated_reach, AllowEntry, Allowlist, FlowDiag, FlowKind, FnGraph, Gate, Workspace,
};
use crate::lexer::{Tok, TokKind};

/// Entry-point keys of the per-day inner loops.
pub const ROOT_KEYS: &[&str] = &["core::run_shard", "core::serve"];

/// Method names whose every implementation is an inner-loop root
/// (trait-object dispatch makes the concrete impl unknowable statically).
pub const ROOT_METHODS: &[&str] = &["decide_batch_into"];

/// The committed allowlist F5 findings are gated on.
pub const ALLOWLIST: &str = "xtask-alloc-allowlist.json";

const GATE: Gate = Gate {
    kind: FlowKind::HotAlloc,
    role: "allocates in",
    finding: "allocates on the hot path",
    remedy: "hoist the buffer",
    allowlist: ALLOWLIST,
};

/// Container types whose associated constructors allocate.
const ALLOC_CONTAINERS: &[&str] =
    &["Vec", "VecDeque", "String", "Box", "BTreeMap", "BTreeSet", "HashMap", "HashSet"];

/// Associated-function names that allocate on those containers.
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Method calls that allocate their result.
const ALLOC_METHODS: &[&str] = &["collect", "clone", "cloned", "to_vec", "to_owned", "to_string"];

/// Macros that allocate their result.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// `(idiom, line)` of every allocating call site in one body's tokens.
fn alloc_sites(toks: &[Tok]) -> Vec<(String, usize)> {
    let mut sites = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let TokKind::Ident(id) = &t.kind else { continue };
        let prev_is = |p: &str| i > 0 && toks[i - 1].kind.is_punct(p);
        let next_is = |p: &str| toks.get(i + 1).is_some_and(|n| n.kind.is_punct(p));
        if ALLOC_MACROS.contains(&id.as_str()) && next_is("!") {
            sites.push((format!("{id}!"), t.line));
        } else if ALLOC_CONTAINERS.contains(&id.as_str()) && next_is("::") {
            // `Vec::new(`, possibly with a turbofish between `::` and the
            // constructor name: find the next identifier token.
            let ctor =
                toks[i + 2..].iter().take(8).find_map(|n| n.kind.ident()).unwrap_or_default();
            if ALLOC_CTORS.contains(&ctor) {
                sites.push((format!("{id}::{ctor}"), t.line));
            }
        } else if ALLOC_METHODS.contains(&id.as_str()) && prev_is(".") {
            // `.collect()`, `.collect::<Vec<_>>()`: a call must follow.
            let calls = next_is("(") || next_is("::");
            if calls {
                sites.push((format!(".{id}()"), t.line));
            }
        }
    }
    sites
}

/// The inner-loop roots: the fixed keys plus every batch-decision impl.
pub fn roots(g: &FnGraph) -> Vec<String> {
    let mut out: Vec<String> = ROOT_KEYS.iter().map(|s| (*s).to_string()).collect();
    for method in ROOT_METHODS {
        for &ix in g.named(method) {
            out.push(g.nodes[ix].key.clone());
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Walks the graph from the inner-loop roots, flags reachable allocating
/// functions not covered by the allowlist, and returns the entries that
/// matched nothing.
pub fn analyze(
    ws: &Workspace,
    g: &FnGraph,
    roots: &[String],
    allow: &Allowlist,
) -> (Vec<FlowDiag>, Vec<AllowEntry>) {
    gated_reach(ws, g, roots.iter().map(String::as_str), allow, &GATE, alloc_sites)
}
