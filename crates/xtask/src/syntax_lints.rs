//! The two syntax-aware lints (L5–L6) built on the item parser.
//!
//! L5 `hashmap-iter-determinism` and L6 `float-reduction-order` protect the
//! bit-determinism contract of the A3C audit (DESIGN.md §7): unordered
//! iteration and order-sensitive float reductions are the classic ways a
//! "deterministic" cost ledger diverges between runs. F1 reuses L5's
//! findings as taint sources.
//!
//! All functions return `(line, message)` pairs; `xtask-allow` filtering and
//! crate scoping happen in [`crate::lints::scan_source`].

use crate::lexer::{Tok, TokKind};
use crate::lints::Marks;
use crate::parser::{walk_items, Item, ItemKind};
use std::collections::BTreeSet;

/// Methods that iterate a hash collection in nondeterministic order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "into_keys",
    "into_values",
];

/// Reduction adapters whose result depends on iteration order for floats.
const FLOAT_REDUCERS: &[&str] = &["sum", "product", "fold", "reduce", "rfold"];

/// Collects names bound to `HashMap`/`HashSet` values inside one token
/// range: `let m = HashMap::new()`, `m: HashMap<..>` (params/fields), and
/// `let m = ...collect::<HashMap<..>>()`.
fn hash_bindings(toks: &[Tok], marks: &Marks, range: (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in range.0..range.1.min(toks.len()) {
        if marks.in_test[i] {
            continue;
        }
        let Some(id) = toks[i].kind.ident() else { continue };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        // Walk back to the binding this hash type belongs to.
        // Case A: `NAME : [&] [mut] HashMap` (annotation).
        let mut j = i;
        while j >= 1 && matches!(&toks[j - 1].kind, TokKind::Punct(p) if p == "&" || p == "<") {
            j -= 1;
        }
        if j >= 2 && toks[j - 1].kind.is_punct(":") {
            if let Some(name) = toks[j - 2].kind.ident() {
                out.insert(name.to_string());
                continue;
            }
        }
        // Case B: `let [mut] NAME ... = ... HashMap ...` within a statement
        // (covers `HashMap::new()` and `collect::<HashMap<..>>()`).
        let stmt_start = toks[range.0..i]
            .iter()
            .rposition(|t| t.kind.is_punct(";") || t.kind.is_punct("{") || t.kind.is_punct("}"))
            .map_or(range.0, |p| range.0 + p + 1);
        let stmt = &toks[stmt_start..i];
        let Some(let_pos) = stmt.iter().position(|t| t.kind.ident() == Some("let")) else {
            continue;
        };
        let mut k = let_pos + 1;
        if stmt.get(k).and_then(|t| t.kind.ident()) == Some("mut") {
            k += 1;
        }
        if let Some(name) = stmt.get(k).and_then(|t| t.kind.ident()) {
            out.insert(name.to_string());
        }
    }
    out
}

/// Token ranges `[signature start, body end)` of every non-test function
/// with a body, so binding names are scoped to the function that declares
/// them (a `BTreeMap` named `m` in one fn must not inherit a hash taint
/// from an `m: HashMap` in another).
fn fn_regions(items: &[Item]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    walk_items(items, &mut |item, _| {
        if item.kind == ItemKind::Fn && !item.in_test {
            if let Some((_, body_end)) = item.body {
                out.push((item.start_tok, body_end));
            }
        }
    });
    out
}

/// The hash-typed binding iterated at token `i` (an ident), if any: either a
/// local binding `name.` / `for _ in name`, or a field access `self.name`.
fn hash_target<'a>(
    toks: &'a [Tok],
    i: usize,
    local: &BTreeSet<String>,
    fields: &BTreeSet<String>,
) -> Option<&'a str> {
    let id = toks[i].kind.ident()?;
    let via_self = i >= 2
        && toks[i - 1].kind.is_punct(".")
        && toks[i - 2].kind.ident() == Some("self")
        && fields.contains(id);
    if local.contains(id) || via_self {
        Some(id)
    } else {
        None
    }
}

/// L5: flags iteration over values bound to `HashMap`/`HashSet` in non-test
/// code — method iteration (`.iter()`, `.keys()`, ...) and `for _ in [&]name`.
pub fn lint_hashmap_iter(toks: &[Tok], marks: &Marks, items: &[Item]) -> Vec<(usize, String)> {
    // Field/param annotations anywhere in the file back `self.name` accesses.
    let fields = hash_bindings(toks, marks, (0, toks.len()));
    let mut out = Vec::new();
    for region in fn_regions(items) {
        let local = hash_bindings(toks, marks, region);
        if local.is_empty() && fields.is_empty() {
            continue;
        }
        for i in region.0..region.1.min(toks.len()) {
            if marks.in_test[i] {
                continue;
            }
            let t = &toks[i];
            let Some(id) = t.kind.ident() else { continue };
            // `name.iter()` / `self.name.keys()` / ...
            if toks.get(i + 1).is_some_and(|t| t.kind.is_punct("."))
                && toks
                    .get(i + 2)
                    .and_then(|t| t.kind.ident())
                    .is_some_and(|m| HASH_ITER_METHODS.contains(&m))
                && toks.get(i + 3).is_some_and(|t| t.kind.is_punct("("))
                && hash_target(toks, i, &local, &fields).is_some()
            {
                let method = toks[i + 2].kind.ident().unwrap_or_default();
                out.push((
                    t.line,
                    format!(
                        "iterating hash collection `{id}` via `.{method}()` yields \
                         nondeterministic order; use BTreeMap/BTreeSet or collect and sort"
                    ),
                ));
                continue;
            }
            // `for pat in [&][mut] [self.]name`
            if id == "in" {
                let mut j = i + 1;
                while toks
                    .get(j)
                    .is_some_and(|t| t.kind.is_punct("&") || t.kind.ident() == Some("mut"))
                {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.kind.ident() == Some("self"))
                    && toks.get(j + 1).is_some_and(|t| t.kind.is_punct("."))
                {
                    j += 2;
                }
                if let Some(name) = toks.get(j).and_then(|t| t.kind.ident()) {
                    let iterated_directly = toks
                        .get(j + 1)
                        .is_none_or(|t| t.kind.is_punct("{") || t.kind.is_punct("."));
                    if iterated_directly && hash_target(toks, j, &local, &fields).is_some() {
                        out.push((
                            toks[j].line,
                            format!(
                                "`for` loop over hash collection `{name}` yields \
                                 nondeterministic order; use BTreeMap/BTreeSet or collect and sort"
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// L6: flags float reductions (`sum`/`product`/`fold`/`reduce`) chained off
/// unordered (hash) iteration inside one statement — the sum of `f64`s is
/// order-dependent, so gradient/reward accumulation must iterate in a fixed
/// order.
pub fn lint_float_reduction(toks: &[Tok], marks: &Marks, items: &[Item]) -> Vec<(usize, String)> {
    let fields = hash_bindings(toks, marks, (0, toks.len()));
    let mut out = Vec::new();
    for region in fn_regions(items) {
        let local = hash_bindings(toks, marks, region);
        if local.is_empty() && fields.is_empty() {
            continue;
        }
        for i in region.0..region.1.min(toks.len()) {
            if marks.in_test[i] {
                continue;
            }
            let Some(id) = toks[i].kind.ident() else { continue };
            if !toks.get(i + 1).is_some_and(|t| t.kind.is_punct("."))
                || hash_target(toks, i, &local, &fields).is_none()
            {
                continue;
            }
            // Scan the rest of the statement for a reduction adapter.
            for j in i + 2..region.1.min(toks.len()) {
                match &toks[j].kind {
                    TokKind::Punct(p) if p == ";" => break,
                    TokKind::Ident(m)
                        if FLOAT_REDUCERS.contains(&m.as_str())
                            && toks[j - 1].kind.is_punct(".")
                            && toks
                                .get(j + 1)
                                .is_some_and(|t| t.kind.is_punct("(") || t.kind.is_punct("::")) =>
                    {
                        out.push((
                            toks[i].line,
                            format!(
                                "`.{m}(..)` over unordered iteration of `{id}`: f64 reduction \
                                 order changes the result bit pattern; iterate a sorted \
                                 collection instead"
                            ),
                        ));
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::lints::{scan_source, FileContext, Lint, Violation};
    use std::path::PathBuf;

    fn scan(src: &str, crate_name: &str) -> Vec<Violation> {
        let ctx = FileContext { crate_name: crate_name.to_string(), is_bin: false };
        scan_source(&PathBuf::from("mem.rs"), src, &ctx)
    }

    #[test]
    fn l5_flags_hashmap_method_iteration() {
        let src = r"
            use std::collections::HashMap;
            fn f(m: &HashMap<u32, u64>) -> Vec<u64> {
                m.values().copied().collect()
            }
        ";
        let v = scan(src, "core");
        assert!(v.iter().any(|v| v.lint == Lint::HashmapIterDeterminism), "{v:?}");
    }

    #[test]
    fn l5_flags_for_loop_over_hashset() {
        let src = r"
            fn f() {
                let mut s = std::collections::HashSet::new();
                s.insert(1u32);
                for x in &s {
                    drop(x);
                }
            }
        ";
        let v = scan(src, "trace");
        assert!(v.iter().any(|v| v.lint == Lint::HashmapIterDeterminism), "{v:?}");
    }

    #[test]
    fn l5_silent_on_btreemap_and_lookup_only_use() {
        let src = r"
            use std::collections::{BTreeMap, HashMap};
            fn f(m: &HashMap<u32, u64>, b: &BTreeMap<u32, u64>) -> u64 {
                let hit = m.get(&1).copied().unwrap_or(0);
                hit + b.values().sum::<u64>()
            }
        ";
        assert!(scan(src, "core").is_empty(), "{:?}", scan(src, "core"));
    }

    #[test]
    fn l5_exempt_in_tests_and_bins() {
        let src = r"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let m: std::collections::HashMap<u8, u8> = Default::default();
                    for x in m.iter() { drop(x); }
                }
            }
        ";
        assert!(scan(src, "core").is_empty());
        let src_bin = "fn main() { let m: HashMap<u8,u8> = HashMap::new(); for x in &m {} }";
        let ctx = FileContext { crate_name: "core".to_string(), is_bin: true };
        assert!(scan_source(&PathBuf::from("bin.rs"), src_bin, &ctx)
            .iter()
            .all(|v| v.lint != Lint::HashmapIterDeterminism));
    }

    #[test]
    fn l5_bindings_are_scoped_per_function() {
        // `by_id` is a HashMap in one fn and a BTreeMap in another; only the
        // HashMap one may be flagged.
        let src = r"
            use std::collections::{BTreeMap, HashMap};
            fn hashed(by_id: &HashMap<u32, u64>) -> Vec<u64> {
                by_id.values().copied().collect()
            }
            fn sorted(by_id: &BTreeMap<u32, u64>) -> Vec<u64> {
                by_id.values().copied().collect()
            }
        ";
        let v = scan(src, "core");
        let l5: Vec<_> = v.iter().filter(|v| v.lint == Lint::HashmapIterDeterminism).collect();
        assert_eq!(l5.len(), 1, "{v:?}");
        assert_eq!(l5[0].line, 4, "only the HashMap fn is flagged: {v:?}");
    }

    #[test]
    fn l5_flags_iteration_over_self_fields() {
        let src = r"
            use std::collections::HashMap;
            struct Pool {
                members: HashMap<u32, u64>,
            }
            impl Pool {
                fn drain_all(&mut self) -> Vec<u64> {
                    self.members.drain().map(|(_, v)| v).collect()
                }
            }
        ";
        let v = scan(src, "trace");
        assert!(v.iter().any(|v| v.lint == Lint::HashmapIterDeterminism), "{v:?}");
    }

    #[test]
    fn l6_flags_sum_over_hash_values() {
        let src = r"
            use std::collections::HashMap;
            fn grad_norm(grads: &HashMap<u32, f64>) -> f64 {
                grads.values().map(|g| g * g).sum::<f64>()
            }
        ";
        let v = scan(src, "nn");
        assert!(v.iter().any(|v| v.lint == Lint::FloatReductionOrder), "{v:?}");
    }

    #[test]
    fn l6_silent_on_ordered_sum_and_outside_nn_rl() {
        let ordered = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        assert!(scan(ordered, "nn").iter().all(|v| v.lint != Lint::FloatReductionOrder));
        let hash = r"
            use std::collections::HashMap;
            fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }
        ";
        assert!(scan(hash, "forecast").iter().all(|v| v.lint != Lint::FloatReductionOrder));
    }

    #[test]
    fn allow_comment_suppresses_new_lints() {
        let src = "fn f(m: &HashMap<u32, u64>) -> usize { m.keys().count() } \
                   // xtask-allow(hashmap-iter-determinism): order-free count";
        assert!(scan(src, "core").is_empty());
    }
}
