//! F4 `unit-dimensions`: abstract interpretation of billing arithmetic
//! over a dimension lattice (DESIGN.md §13).
//!
//! The paper's cost model (Eqs. 6–9) mixes $/GB·month storage rates,
//! $-per-operation request rates, $/GB retrieval charges, and a
//! days-per-month proration; a single silent unit slip corrupts every
//! ledger while staying bit-deterministic, invisible to the equivalence
//! tests. This analysis derives a physical dimension for every expression
//! it can understand and rejects:
//!
//! - additions/subtractions of unequal dimensions,
//! - comparisons across dimensions,
//! - any value flowing into a `Money` constructor whose derived dimension
//!   is neither `$` nor `$/day` (the one-day charging quantum).
//!
//! Dimensions come from three places, in priority order: `xtask-unit:`
//! doc declarations ([`crate::lexer::UnitDecl`]), a small inference table
//! for well-named identifiers (`size_gb`, `reads`, ...), and
//! interprocedural propagation of callee return dimensions to a fixpoint
//! (the F1 worklist pattern). Numeric literals are polymorphic — they
//! adopt the other operand's dimension — and anything the evaluator does
//! not understand is `Unknown`, which absorbs through `*`/`/` and passes
//! through `+` without firing, so the analysis errs toward silence, never
//! toward false alarms.
//!
//! Escape hatch: `// xtask-allow(unit-dimensions): <reason>` on the
//! offending line.

use crate::flow::{flow_allowed, FlowDiag, FlowKind, FnGraph, SourceFile, Workspace};
use crate::lexer::{Tok, TokKind};
use crate::parser::{walk_items, ItemKind};
use std::collections::BTreeMap;
use std::fmt;

/// Base units, in exponent-vector order.
const BASES: [&str; 5] = ["$", "GB", "month", "day", "ops"];

/// A physical dimension: integer exponents over the base units.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct Dim {
    exps: [i8; 5],
}

impl Dim {
    /// The trivial dimension (pure numbers, ratios, one-hot features).
    pub const DIMENSIONLESS: Dim = Dim { exps: [0, 0, 0, 0, 0] };
    /// Dollars — the only dimension a ledger may ultimately hold.
    pub const DOLLAR: Dim = Dim { exps: [1, 0, 0, 0, 0] };
    /// Dollars per day — the one-day charging quantum `storage_day`
    /// produces; accepted at `Money` sinks alongside plain `$`.
    pub const DOLLAR_PER_DAY: Dim = Dim { exps: [1, 0, 0, -1, 0] };

    fn checked(exps: [i16; 5]) -> Option<Dim> {
        let mut out = [0i8; 5];
        for (o, e) in out.iter_mut().zip(exps) {
            *o = i8::try_from(e).ok()?;
        }
        Some(Dim { exps: out })
    }

    /// Product of two dimensions (exponents add).
    fn mul(self, o: Dim) -> Option<Dim> {
        let mut exps = [0i16; 5];
        for (i, e) in exps.iter_mut().enumerate() {
            *e = i16::from(self.exps[i]) + i16::from(o.exps[i]);
        }
        Dim::checked(exps)
    }

    /// Quotient of two dimensions (exponents subtract).
    fn div(self, o: Dim) -> Option<Dim> {
        let mut exps = [0i16; 5];
        for (i, e) in exps.iter_mut().enumerate() {
            *e = i16::from(self.exps[i]) - i16::from(o.exps[i]);
        }
        Dim::checked(exps)
    }
}

impl fmt::Display for Dim {
    /// Renders `$/GB·month`, `GB`, or `1` for the trivial dimension.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut num = String::new();
        let mut den = String::new();
        for (i, &e) in self.exps.iter().enumerate() {
            let (side, reps) = match e.cmp(&0) {
                std::cmp::Ordering::Greater => (&mut num, e),
                std::cmp::Ordering::Less => (&mut den, -e),
                std::cmp::Ordering::Equal => continue,
            };
            for _ in 0..reps {
                if !side.is_empty() {
                    side.push('\u{b7}');
                }
                side.push_str(BASES[i]);
            }
        }
        match (num.is_empty(), den.is_empty()) {
            (true, true) => write!(f, "1"),
            (false, true) => write!(f, "{num}"),
            (true, false) => write!(f, "1/{den}"),
            (false, false) => write!(f, "{num}/{den}"),
        }
    }
}

/// Maps one unit atom to its base index.
fn base_index(atom: &str) -> Option<usize> {
    match atom {
        "$" | "USD" | "usd" | "dollar" | "dollars" => Some(0),
        "GB" | "gb" => Some(1),
        "month" | "months" | "mo" => Some(2),
        "day" | "days" => Some(3),
        "ops" | "op" | "Ops" | "10kops" => Some(4),
        _ => None,
    }
}

/// Parses a unit expression: `num[/den]`, atoms `·`- (or `*`-) separated,
/// `1` for the trivial side (`1/day`). `None` on any unknown atom.
pub fn parse_unit(text: &str) -> Option<Dim> {
    let text = text.trim();
    let (num, den) = match text.split_once('/') {
        Some((n, d)) => (n, Some(d)),
        None => (text, None),
    };
    let mut exps = [0i16; 5];
    let mut side = |part: &str, sign: i16| -> Option<()> {
        for atom in part.split(['\u{b7}', '*']) {
            let atom = atom.trim();
            if atom.is_empty() || atom == "1" {
                continue;
            }
            exps[base_index(atom)?] += sign;
        }
        Some(())
    };
    side(num, 1)?;
    if let Some(d) = den {
        side(d, -1)?;
    }
    Dim::checked(exps)
}

/// Why a value has the dimension it has: leaf declaration/inference sites,
/// carried along so diagnostics can show a sink→source trace.
type Prov = Vec<String>;

/// The abstract value of one expression.
#[derive(Clone, Debug)]
enum Val {
    /// Nothing known; absorbs through `*`/`/`, passes through `+`.
    Unknown,
    /// A bare numeric literal: adopts the other operand's dimension.
    Literal,
    /// A concretely derived dimension with its provenance.
    Known(Dim, Prov),
}

fn merge_prov(a: &Prov, b: &Prov) -> Prov {
    let mut out = a.clone();
    for s in b {
        if !out.contains(s) {
            out.push(s.clone());
        }
    }
    out.truncate(6);
    out
}

/// Identifier keywords that can sit between a bare `xtask-unit:` comment
/// and the binding identifier it declares.
const DECL_KEYWORDS: &[&str] =
    &["pub", "crate", "in", "const", "static", "let", "mut", "ref", "r#"];

/// The inference seed table: dimensions for well-named identifiers that
/// need no declaration. Deliberately tiny and false-positive-safe.
fn infer(name: &str) -> Option<Dim> {
    if name == "size_gb" || (name.ends_with("_gb") && !name.contains("per")) {
        return Some(Dim { exps: [0, 1, 0, 0, 0] });
    }
    match name {
        "storage_gb_month" => Some(Dim { exps: [1, -1, -1, 0, 0] }),
        "reads" | "writes" | "ops" => Some(Dim { exps: [0, 0, 0, 0, 1] }),
        _ => None,
    }
}

/// All declared dimensions, resolved against the loaded workspace.
#[derive(Default)]
struct DeclTable {
    /// Bare declarations: binding identifier -> (dim, provenance line).
    global: BTreeMap<String, (Dim, String)>,
    /// `xtask-unit(param)` declarations, per function node.
    params: BTreeMap<usize, BTreeMap<String, (Dim, String)>>,
    /// `xtask-unit(return)` declarations, per function node.
    ret_decl: BTreeMap<usize, (Dim, String)>,
}

/// An `xtask-unit` annotation F4 cannot use: unparseable, conflicting, or
/// attached to nothing. The declaration is dropped, so the gate reports it
/// (and fails on it under `--strict`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AnnotationWarning {
    /// Repo-relative file of the annotation.
    pub file: String,
    /// 1-based line of the annotation.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl std::fmt::Display for AnnotationWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

/// True when `id` is a Rust keyword the expression grammar handles (or
/// skips) specially rather than treating as a value identifier.
fn is_expr_keyword(id: &str) -> bool {
    matches!(
        id,
        "if" | "else"
            | "match"
            | "for"
            | "while"
            | "loop"
            | "let"
            | "return"
            | "break"
            | "continue"
            | "move"
            | "mut"
            | "ref"
            | "unsafe"
            | "fn"
            | "in"
            | "as"
            | "true"
            | "false"
    )
}

/// Builds the declaration tables from every file's `xtask-unit` comments.
fn build_decls(ws: &Workspace, g: &FnGraph) -> (DeclTable, Vec<AnnotationWarning>) {
    let mut decls = DeclTable::default();
    let mut warnings = Vec::new();
    for (file_ix, sf) in ws.files.iter().enumerate() {
        // Function nodes of this file, for named-form attachment.
        let mut fns: Vec<(usize, usize)> = g
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file_ix == file_ix)
            .map(|(ix, n)| (n.line, ix))
            .collect();
        fns.sort_unstable();
        for decl in &sf.lexed.units {
            let mut warn = |message: String| {
                warnings.push(AnnotationWarning {
                    file: sf.file.clone(),
                    line: decl.line,
                    message,
                });
            };
            let Some(dim) = parse_unit(&decl.text) else {
                warn(format!("unparseable xtask-unit expression `{}`", decl.text));
                continue;
            };
            match &decl.target {
                None => match attach_binding(&sf.lexed.toks, decl.line) {
                    Some(name) => {
                        let prov = format!("`{name}`: {dim} (declared {}:{})", sf.file, decl.line);
                        if let Some((prior, at)) = decls.global.get(&name) {
                            if *prior != dim {
                                warn(format!(
                                    "conflicting xtask-unit for `{name}`: {dim} vs {prior} ({at})"
                                ));
                            }
                        } else {
                            decls.global.insert(name, (dim, prov));
                        }
                    }
                    None => warn("xtask-unit declaration attaches to no binding".to_string()),
                },
                Some(target) => {
                    // Attach to the next function defined below the comment.
                    let node = fns
                        .iter()
                        .find(|(line, _)| *line > decl.line && *line <= decl.line + 10)
                        .map(|&(_, ix)| ix);
                    let Some(ix) = node else {
                        warn(format!("xtask-unit({target}) has no function below it"));
                        continue;
                    };
                    let prov = format!(
                        "`{}` {}: {dim} (declared {}:{})",
                        g.nodes[ix].key,
                        if target == "return" {
                            "returns".to_string()
                        } else {
                            format!("`{target}`")
                        },
                        sf.file,
                        decl.line
                    );
                    if target == "return" {
                        decls.ret_decl.entry(ix).or_insert((dim, prov));
                    } else {
                        decls
                            .params
                            .entry(ix)
                            .or_default()
                            .entry(target.clone())
                            .or_insert((dim, prov));
                    }
                }
            }
        }
    }
    (decls, warnings)
}

/// Finds the binding identifier a bare declaration on `line` attaches to:
/// the first identifier within four lines below that is directly followed
/// by `:` or `=`, skipping declaration keywords.
fn attach_binding(toks: &[Tok], line: usize) -> Option<String> {
    for (i, t) in toks.iter().enumerate() {
        if t.line <= line || t.line > line + 4 {
            continue;
        }
        let Some(id) = t.kind.ident() else { continue };
        if DECL_KEYWORDS.contains(&id) {
            continue;
        }
        let followed =
            toks.get(i + 1).is_some_and(|n| n.kind.is_punct(":") || n.kind.is_punct("="));
        if followed {
            return Some(id.to_string());
        }
        // First non-keyword identifier is not a binding: give up (a field
        // list or expression follows, not the declared binding).
        return None;
    }
    None
}

/// One unit-discipline violation found while evaluating a body.
struct PendingViol {
    line: usize,
    message: String,
    trace: Vec<String>,
}

/// Token-stream abstract evaluator for one function body.
struct Eval<'a> {
    sf: &'a SourceFile,
    toks: &'a [Tok],
    pos: usize,
    end: usize,
    node_ix: usize,
    g: &'a FnGraph,
    decls: &'a DeclTable,
    rets: &'a BTreeMap<usize, (Dim, String)>,
    locals: BTreeMap<String, Val>,
    ret_candidates: Vec<Val>,
    viols: Vec<PendingViol>,
    record: bool,
}

/// Methods whose result keeps the receiver's dimension.
const DIM_PRESERVING: &[&str] = &[
    "min",
    "max",
    "abs",
    "clamp",
    "floor",
    "ceil",
    "round",
    "trunc",
    "iter",
    "into_iter",
    "copied",
    "cloned",
    "clone",
    "to_vec",
    "to_owned",
    "sum",
    "saturating_add",
    "saturating_sub",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
];

/// Methods whose result is dimensionless regardless of the receiver
/// (log-scaling a count is idiomatic feature encoding, not a unit bug).
const DIMLESS_RESULT: &[&str] =
    &["ln", "ln_1p", "log", "log2", "log10", "exp", "exp2", "exp_m1", "len", "count", "signum"];

impl<'a> Eval<'a> {
    fn at(&self, i: usize) -> Option<&'a Tok> {
        if i < self.end {
            self.toks.get(i)
        } else {
            None
        }
    }

    fn cur(&self) -> Option<&'a Tok> {
        self.at(self.pos)
    }

    fn cur_line(&self) -> usize {
        self.cur().map_or(0, |t| t.line)
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        self.at(i).is_some_and(|t| t.kind.is_punct(p))
    }

    fn ident_at(&self, i: usize) -> Option<&'a str> {
        self.at(i).and_then(|t| t.kind.ident())
    }

    /// Index just past the group opened at `open` (`(`/`[`/`{`).
    fn skip_group(&self, open: usize) -> usize {
        let Some(t) = self.at(open) else { return self.end };
        let (o, c) = match &t.kind {
            TokKind::Punct(p) if p == "(" => ("(", ")"),
            TokKind::Punct(p) if p == "[" => ("[", "]"),
            TokKind::Punct(p) if p == "{" => ("{", "}"),
            _ => return open + 1,
        };
        let mut depth = 0usize;
        let mut i = open;
        while i < self.end {
            if self.is_punct(i, o) {
                depth += 1;
            } else if self.is_punct(i, c) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        self.end
    }

    /// Skips a generic-argument list starting at `<`; tolerates `<<`/`>>`.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            match &t.kind {
                TokKind::Punct(p) if p == "<" => depth += 1,
                TokKind::Punct(p) if p == "<<" => depth += 2,
                TokKind::Punct(p) if p == ">" => depth -= 1,
                TokKind::Punct(p) if p == ">>" => depth -= 2,
                TokKind::Punct(p) if p == ";" => return,
                _ => {}
            }
            self.pos += 1;
            if depth <= 0 {
                return;
            }
        }
    }

    fn violation(&mut self, line: usize, message: String, trace: Vec<String>) {
        if !self.record {
            return;
        }
        if flow_allowed(&self.sf.lexed, FlowKind::UnitDimensions, line) {
            return;
        }
        self.viols.push(PendingViol { line, message, trace });
    }

    /// Resolves a value identifier: locals, declared params, declared
    /// globals, then the inference table.
    fn resolve(&self, name: &str) -> Val {
        if let Some(v) = self.locals.get(name) {
            return v.clone();
        }
        if let Some(p) = self.decls.params.get(&self.node_ix).and_then(|m| m.get(name)) {
            return Val::Known(p.0, vec![p.1.clone()]);
        }
        if let Some((d, prov)) = self.decls.global.get(name) {
            return Val::Known(*d, vec![prov.clone()]);
        }
        if let Some(d) = infer(name) {
            return Val::Known(d, vec![format!("`{name}`: {d} (inferred from identifier name)")]);
        }
        Val::Unknown
    }

    /// Return dimension of a called function, resolved through this
    /// node's call edges (same-name candidates must agree).
    fn callee_ret(&self, name: &str, qual: Option<&str>) -> Val {
        let mut dims: Vec<&(Dim, String)> = Vec::new();
        for &c in &self.g.nodes[self.node_ix].callees {
            let n = &self.g.nodes[c];
            if n.name != name {
                continue;
            }
            if let Some(q) = qual {
                if n.container.as_deref() != Some(q) {
                    continue;
                }
            }
            if let Some(r) = self.rets.get(&c) {
                dims.push(r);
            } else {
                return Val::Unknown; // a candidate with unknown return
            }
        }
        match dims.split_first() {
            Some((first, rest)) if rest.iter().all(|r| r.0 == first.0) => {
                Val::Known(first.0, vec![first.1.clone()])
            }
            _ => Val::Unknown,
        }
    }

    /// Evaluates statements up to `end` (exclusive); returns the value of
    /// the trailing expression.
    fn eval_block(&mut self, end: usize) -> Val {
        let outer_end = std::mem::replace(&mut self.end, end);
        let mut last = Val::Unknown;
        while self.pos < self.end {
            let Some(t) = self.cur() else { break };
            match &t.kind {
                TokKind::Ident(id) if id == "let" => {
                    self.stmt_let();
                    last = Val::Unknown;
                }
                TokKind::Ident(id) if id == "fn" => {
                    // A nested fn is its own graph node; skip to its body
                    // and over it so it is not evaluated in this scope.
                    while self.pos < self.end
                        && !self.is_punct(self.pos, "{")
                        && !self.is_punct(self.pos, ";")
                    {
                        self.pos += 1;
                    }
                    if self.is_punct(self.pos, "{") {
                        self.pos = self.skip_group(self.pos);
                    } else {
                        self.pos += 1;
                    }
                }
                TokKind::Punct(p) if p == ";" => {
                    self.pos += 1;
                    last = Val::Unknown;
                }
                TokKind::Punct(p) if p == "{" => {
                    let close = self.skip_group(self.pos);
                    self.pos += 1;
                    last = self.eval_block(close - 1);
                    self.pos = close;
                }
                _ => {
                    let before = self.pos;
                    last = self.expr(0);
                    if self.pos == before {
                        self.pos += 1;
                        last = Val::Unknown;
                    }
                }
            }
        }
        self.end = outer_end;
        last
    }

    /// `let [mut] <pattern> [: ty] = <expr>;` — binds simple identifier
    /// patterns to the evaluated right-hand side.
    fn stmt_let(&mut self) {
        self.pos += 1; // let
        if self.ident_at(self.pos) == Some("mut") {
            self.pos += 1;
        }
        let name = match self.ident_at(self.pos) {
            Some(id)
                if self.is_punct(self.pos + 1, ":")
                    || self.is_punct(self.pos + 1, "=")
                    || self.is_punct(self.pos + 1, ";") =>
            {
                Some(id.to_string())
            }
            _ => None,
        };
        // Skip pattern and type annotation to `=` or `;` at group depth 0.
        let mut depth = 0usize;
        while let Some(t) = self.cur() {
            match &t.kind {
                TokKind::Punct(p) if p == "(" || p == "[" || p == "{" => depth += 1,
                TokKind::Punct(p) if p == ")" || p == "]" || p == "}" => {
                    depth = depth.saturating_sub(1);
                }
                TokKind::Punct(p) if depth == 0 && (p == "=" || p == ";") => break,
                _ => {}
            }
            self.pos += 1;
        }
        if self.is_punct(self.pos, "=") {
            self.pos += 1;
            let v = self.expr(0);
            if let Some(n) = name {
                self.locals.insert(n, v);
            }
        }
        if self.is_punct(self.pos, ";") {
            self.pos += 1;
        }
    }

    /// Binding power of the binary operator at `pos`, if any.
    fn binop(&self) -> Option<(&'a str, u8)> {
        let t = self.cur()?;
        let TokKind::Punct(p) = &t.kind else { return None };
        let bp = match p.as_str() {
            "*" | "/" | "%" => 50,
            "+" | "-" => 40,
            "<" | ">" | "<=" | ">=" | "==" | "!=" => 30,
            "&&" | "||" | "&" | "|" | "^" | "<<" | ">>" => 20,
            ".." | "..=" => 10,
            _ => return None,
        };
        Some((p.as_str(), bp))
    }

    fn expr(&mut self, min_bp: u8) -> Val {
        let mut lhs = self.primary();
        while let Some((op, bp)) = self.binop() {
            if bp < min_bp {
                break;
            }
            let line = self.cur_line();
            self.pos += 1;
            // Range tails may be empty (`[..day]`, `0..`).
            let rhs = if matches!(op, ".." | "..=")
                && (self.cur().is_none()
                    || self.cur().is_some_and(
                        |t| matches!(&t.kind, TokKind::Punct(p) if p != "(" && p != "-"),
                    )) {
                Val::Unknown
            } else {
                self.expr(bp + 1)
            };
            lhs = match op {
                "*" => self.combine_mul(lhs, rhs, line, false),
                "/" => self.combine_mul(lhs, rhs, line, true),
                "%" => lhs,
                "+" | "-" => self.combine_add(lhs, rhs, line, op),
                "<" | ">" | "<=" | ">=" | "==" | "!=" => {
                    self.check_cmp(&lhs, &rhs, line, op);
                    Val::Unknown
                }
                _ => Val::Unknown,
            };
        }
        lhs
    }

    fn combine_mul(&mut self, lhs: Val, rhs: Val, _line: usize, is_div: bool) -> Val {
        match (lhs, rhs) {
            (Val::Known(a, pa), Val::Known(b, pb)) => {
                let d = if is_div { a.div(b) } else { a.mul(b) };
                d.map_or(Val::Unknown, |d| Val::Known(d, merge_prov(&pa, &pb)))
            }
            (Val::Known(a, pa), Val::Literal) => Val::Known(a, pa),
            (Val::Literal, Val::Known(b, pb)) => {
                if is_div {
                    // literal / dim inverts the dimension.
                    Dim::DIMENSIONLESS.div(b).map_or(Val::Unknown, |d| Val::Known(d, pb))
                } else {
                    Val::Known(b, pb)
                }
            }
            (Val::Literal, Val::Literal) => Val::Literal,
            _ => Val::Unknown,
        }
    }

    fn combine_add(&mut self, lhs: Val, rhs: Val, line: usize, op: &str) -> Val {
        match (lhs, rhs) {
            (Val::Known(a, pa), Val::Known(b, pb)) => {
                if a != b {
                    let mut trace = vec![format!("left operand has dimension {a}")];
                    trace.extend(pa.iter().cloned());
                    trace.push(format!("right operand has dimension {b}"));
                    trace.extend(pb.iter().cloned());
                    self.violation(
                        line,
                        format!("`{op}` combines {a} with {b}; addition requires equal dimensions"),
                        trace,
                    );
                    Val::Unknown
                } else {
                    Val::Known(a, merge_prov(&pa, &pb))
                }
            }
            (Val::Known(a, p), Val::Literal) | (Val::Literal, Val::Known(a, p)) => Val::Known(a, p),
            (Val::Known(a, p), Val::Unknown) | (Val::Unknown, Val::Known(a, p)) => Val::Known(a, p),
            (Val::Literal, Val::Literal) => Val::Literal,
            _ => Val::Unknown,
        }
    }

    fn check_cmp(&mut self, lhs: &Val, rhs: &Val, line: usize, op: &str) {
        if let (Val::Known(a, pa), Val::Known(b, pb)) = (lhs, rhs) {
            if a != b {
                let mut trace = vec![format!("left operand has dimension {a}")];
                trace.extend(pa.iter().cloned());
                trace.push(format!("right operand has dimension {b}"));
                trace.extend(pb.iter().cloned());
                self.violation(
                    line,
                    format!(
                        "`{op}` compares {a} against {b}; comparisons require equal dimensions"
                    ),
                    trace,
                );
            }
        }
    }

    /// Evaluates comma-separated call/index arguments inside a group whose
    /// closing delimiter sits at `close - 1`; returns the first argument's
    /// value (the one `Money` constructors take).
    fn eval_args(&mut self, close: usize) -> Val {
        let mut first = None;
        while self.pos < close.saturating_sub(1) {
            let before = self.pos;
            let saved_end = std::mem::replace(&mut self.end, close - 1);
            let v = self.expr(0);
            self.end = saved_end;
            if first.is_none() && self.pos > before {
                first = Some(v);
            }
            if self.pos == before {
                self.pos += 1;
            }
            if self.is_punct(self.pos, ",") {
                self.pos += 1;
            }
        }
        self.pos = close;
        first.unwrap_or(Val::Unknown)
    }

    fn primary(&mut self) -> Val {
        let Some(t) = self.cur() else { return Val::Unknown };
        match &t.kind {
            TokKind::Num => {
                self.pos += 1;
                self.postfix(Val::Literal)
            }
            TokKind::Lit => {
                self.pos += 1;
                self.postfix(Val::Unknown)
            }
            TokKind::Punct(p) if p == "-" || p == "!" || p == "*" || p == "&" || p == "&&" => {
                self.pos += 1;
                self.primary()
            }
            TokKind::Punct(p) if p == ".." || p == "..=" => {
                self.pos += 1;
                // RangeTo: evaluate the bound, range itself is unknown.
                if self.cur().is_some_and(|t| !matches!(&t.kind, TokKind::Punct(q) if q == "]" || q == ")" || q == "}" || q == ";" || q == ",")) {
                    self.expr(11);
                }
                Val::Unknown
            }
            TokKind::Punct(p) if p == "(" => {
                let close = self.skip_group(self.pos);
                self.pos += 1;
                let saved_end = std::mem::replace(&mut self.end, close - 1);
                let v = self.expr(0);
                let tuple = self.is_punct(self.pos, ",");
                if tuple {
                    // Evaluate the remaining tuple elements for sinks.
                    self.eval_args(close);
                }
                self.end = saved_end;
                self.pos = close;
                self.postfix(if tuple { Val::Unknown } else { v })
            }
            TokKind::Punct(p) if p == "[" => {
                let close = self.skip_group(self.pos);
                self.pos += 1;
                self.eval_args(close);
                self.postfix(Val::Unknown)
            }
            TokKind::Punct(p) if p == "{" => {
                let close = self.skip_group(self.pos);
                self.pos += 1;
                let v = self.eval_block(close - 1);
                self.pos = close;
                v
            }
            TokKind::Punct(p) if p == "||" => {
                self.pos += 1;
                self.expr(0);
                Val::Unknown
            }
            TokKind::Punct(p) if p == "|" => {
                // Closure parameters: skip to the closing `|`.
                self.pos += 1;
                while let Some(t) = self.cur() {
                    let done = t.kind.is_punct("|");
                    self.pos += 1;
                    if done {
                        break;
                    }
                }
                self.expr(0);
                Val::Unknown
            }
            TokKind::Ident(id) => self.primary_ident(id),
            _ => Val::Unknown,
        }
    }

    fn primary_ident(&mut self, id: &str) -> Val {
        match id {
            "if" | "while" => {
                self.pos += 1;
                if self.ident_at(self.pos) == Some("let") {
                    // if-let / while-let: skip the pattern to `=`.
                    self.pos += 1;
                    let mut depth = 0usize;
                    while let Some(t) = self.cur() {
                        match &t.kind {
                            TokKind::Punct(p) if p == "(" || p == "[" => depth += 1,
                            TokKind::Punct(p) if p == ")" || p == "]" => {
                                depth = depth.saturating_sub(1);
                            }
                            TokKind::Punct(p) if depth == 0 && p == "=" => break,
                            TokKind::Punct(p) if depth == 0 && p == "{" => break,
                            _ => {}
                        }
                        self.pos += 1;
                    }
                    if self.is_punct(self.pos, "=") {
                        self.pos += 1;
                    }
                }
                self.expr(0); // condition / scrutinee
                let v1 = if self.is_punct(self.pos, "{") { self.primary() } else { Val::Unknown };
                if self.ident_at(self.pos) == Some("else") {
                    self.pos += 1;
                    let v2 = self.primary(); // block or chained if
                    return match (v1, v2) {
                        (Val::Known(a, pa), Val::Known(b, pb)) if a == b => {
                            Val::Known(a, merge_prov(&pa, &pb))
                        }
                        (Val::Known(a, p), Val::Literal) | (Val::Literal, Val::Known(a, p)) => {
                            Val::Known(a, p)
                        }
                        (Val::Literal, Val::Literal) => Val::Literal,
                        _ => Val::Unknown,
                    };
                }
                Val::Unknown
            }
            "match" => {
                self.pos += 1;
                self.expr(0); // scrutinee
                if self.is_punct(self.pos, "{") {
                    let close = self.skip_group(self.pos);
                    self.pos += 1;
                    self.eval_block(close - 1);
                    self.pos = close;
                }
                Val::Unknown
            }
            "for" => {
                self.pos += 1;
                while self.cur().is_some() && self.ident_at(self.pos) != Some("in") {
                    self.pos += 1;
                }
                self.pos += 1; // in
                self.expr(0);
                if self.is_punct(self.pos, "{") {
                    self.primary();
                }
                Val::Unknown
            }
            "loop" | "unsafe" | "else" | "move" | "mut" | "ref" => {
                self.pos += 1;
                self.primary()
            }
            "return" => {
                self.pos += 1;
                if self.cur().is_some_and(|t| !t.kind.is_punct(";")) {
                    let v = self.expr(0);
                    self.ret_candidates.push(v);
                }
                Val::Unknown
            }
            "break" | "continue" => {
                self.pos += 1;
                Val::Unknown
            }
            "true" | "false" => {
                self.pos += 1;
                self.postfix(Val::Unknown)
            }
            _ => {
                // Macro invocation: skip the whole argument group.
                if self.is_punct(self.pos + 1, "!") {
                    self.pos += 2;
                    self.pos = self.skip_group(self.pos);
                    return Val::Unknown;
                }
                // Path: `a::b::c` with optional turbofish segments.
                let mut segs: Vec<String> = vec![id.to_string()];
                self.pos += 1;
                while self.is_punct(self.pos, "::") {
                    self.pos += 1;
                    if self.is_punct(self.pos, "<") {
                        self.skip_angles();
                        continue;
                    }
                    match self.ident_at(self.pos) {
                        Some(seg) => {
                            segs.push(seg.to_string());
                            self.pos += 1;
                        }
                        None => break,
                    }
                }
                let name = segs.last().cloned().unwrap_or_default();
                let qual = if segs.len() >= 2 {
                    let q = &segs[segs.len() - 2];
                    if matches!(q.as_str(), "crate" | "super" | "self") {
                        None
                    } else {
                        Some(segs[segs.len() - 2].clone())
                    }
                } else {
                    None
                };
                if self.is_punct(self.pos, "(") {
                    let line = self.cur_line();
                    let close = self.skip_group(self.pos);
                    self.pos += 1;
                    let arg = self.eval_args(close);
                    let v = self.call_result(&name, qual.as_deref(), &arg, line);
                    return self.postfix(v);
                }
                // Value path: resolve the final segment.
                let v = if segs.len() == 1 && segs[0] == "self" {
                    Val::Unknown
                } else {
                    self.resolve(&name)
                };
                self.postfix(v)
            }
        }
    }

    /// Result of a free/path call, including the `Money` sink check.
    fn call_result(&mut self, name: &str, qual: Option<&str>, arg: &Val, line: usize) -> Val {
        if qual == Some("Money") && matches!(name, "from_dollars" | "from_micros") {
            if let Val::Known(d, prov) = arg {
                if *d != Dim::DOLLAR && *d != Dim::DOLLAR_PER_DAY {
                    let mut trace = vec![format!("sink Money::{name} at {}:{line}", self.sf.file)];
                    trace.push(format!("argument has derived dimension {d}"));
                    trace.extend(prov.iter().cloned());
                    self.violation(
                        line,
                        format!(
                            "value of dimension {d} flows into Money::{name} \
                             (expected $ or $/day)"
                        ),
                        trace,
                    );
                }
            }
            return Val::Known(
                Dim::DOLLAR,
                vec![format!("Money::{name} yields $ ({}:{line})", self.sf.file)],
            );
        }
        self.callee_ret(name, qual)
    }

    /// Postfix chain: field access, method calls, indexing, `as` casts,
    /// `?`, and direct calls on the evaluated expression.
    fn postfix(&mut self, mut v: Val) -> Val {
        loop {
            if self.is_punct(self.pos, ".") {
                if self.at(self.pos + 1).is_some_and(|t| t.kind == TokKind::Num) {
                    self.pos += 2; // tuple index
                    v = Val::Unknown;
                    continue;
                }
                let Some(m) = self.ident_at(self.pos + 1) else {
                    self.pos += 1;
                    continue;
                };
                self.pos += 2;
                if self.is_punct(self.pos, "::") {
                    self.pos += 1;
                    if self.is_punct(self.pos, "<") {
                        self.skip_angles();
                    }
                }
                if self.is_punct(self.pos, "(") {
                    let close = self.skip_group(self.pos);
                    self.pos += 1;
                    self.eval_args(close);
                    v = if DIM_PRESERVING.contains(&m) {
                        v
                    } else if DIMLESS_RESULT.contains(&m) {
                        Val::Known(Dim::DIMENSIONLESS, vec![format!("`.{m}()` is dimensionless")])
                    } else {
                        self.callee_ret(m, None)
                    };
                } else {
                    // Field access.
                    v = self.resolve_field(m);
                }
            } else if self.is_punct(self.pos, "[") {
                let close = self.skip_group(self.pos);
                self.pos += 1;
                self.eval_args(close);
                // Indexing and slicing keep the element dimension.
            } else if self.is_punct(self.pos, "(") {
                let close = self.skip_group(self.pos);
                self.pos += 1;
                self.eval_args(close);
                v = Val::Unknown;
            } else if self.is_punct(self.pos, "?") {
                self.pos += 1;
            } else if self.ident_at(self.pos) == Some("as") {
                // `expr as T` keeps the dimension; skip the type path.
                self.pos += 1;
                while self.ident_at(self.pos).is_some_and(|i| !is_expr_keyword(i)) {
                    self.pos += 1;
                    if self.is_punct(self.pos, "::") {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        v
    }

    /// A field read: declared globals, then the inference table (never
    /// locals — a local cannot shadow another struct's field).
    fn resolve_field(&self, name: &str) -> Val {
        if let Some((d, prov)) = self.decls.global.get(name) {
            return Val::Known(*d, vec![prov.clone()]);
        }
        if let Some(d) = infer(name) {
            return Val::Known(d, vec![format!("`{name}`: {d} (inferred from identifier name)")]);
        }
        Val::Unknown
    }
}

/// Evaluates one function body; returns its violations and the derived
/// return value.
fn eval_node(
    ws: &Workspace,
    g: &FnGraph,
    decls: &DeclTable,
    rets: &BTreeMap<usize, (Dim, String)>,
    ix: usize,
    record: bool,
) -> (Vec<PendingViol>, Option<Dim>) {
    let node = &g.nodes[ix];
    let Some((start, end)) = node.body else { return (Vec::new(), None) };
    let sf = &ws.files[node.file_ix];
    let end = end.min(sf.lexed.toks.len());
    let mut ev = Eval {
        sf,
        toks: &sf.lexed.toks,
        pos: start + 1, // skip the opening `{` of the body
        end,
        node_ix: ix,
        g,
        decls,
        rets,
        locals: BTreeMap::new(),
        ret_candidates: Vec::new(),
        viols: Vec::new(),
        record,
    };
    // Body ranges include the braces; evaluate the interior.
    let last = ev.eval_block(end.saturating_sub(1));
    let mut candidates: Vec<Dim> = Vec::new();
    for v in ev.ret_candidates.iter().chain(std::iter::once(&last)) {
        if let Val::Known(d, _) = v {
            candidates.push(*d);
        }
    }
    let ret = match candidates.split_first() {
        Some((first, rest)) if rest.iter().all(|d| d == first) => Some(*first),
        _ => None,
    };
    (ev.viols, ret)
}

/// Seeds return dimensions from `-> Money` signatures: any workspace
/// function returning `Money` yields `$` by construction.
fn money_signature_rets(ws: &Workspace, g: &FnGraph, rets: &mut BTreeMap<usize, (Dim, String)>) {
    for (file_ix, sf) in ws.files.iter().enumerate() {
        walk_items(&sf.items, &mut |item, _stack| {
            if item.kind != ItemKind::Fn || item.in_test {
                return;
            }
            let Some((bstart, _)) = item.body else { return };
            // Match the item back to its graph node by file and line.
            let Some(ix) = g
                .nodes
                .iter()
                .position(|n| n.file_ix == file_ix && n.line == item.line && n.name == item.name)
            else {
                return;
            };
            if rets.contains_key(&ix) {
                return;
            }
            let sig = &sf.lexed.toks[item.start_tok..bstart.min(sf.lexed.toks.len())];
            let arrow = sig.iter().position(|t| t.kind.is_punct("->"));
            let returns_money =
                arrow.is_some_and(|a| sig[a..].iter().any(|t| t.kind.ident() == Some("Money")));
            if returns_money {
                rets.insert(ix, (Dim::DOLLAR, format!("`{}` returns Money ($)", g.nodes[ix].key)));
            }
        });
    }
}

/// Runs the full analysis: declaration tables, the interprocedural return
/// fixpoint, then a recording pass that collects violations. Returns the
/// diagnostics and the annotations the analysis had to drop.
pub fn analyze(ws: &Workspace, g: &FnGraph) -> (Vec<FlowDiag>, Vec<AnnotationWarning>) {
    let (decls, mut warnings) = build_decls(ws, g);
    let mut rets: BTreeMap<usize, (Dim, String)> = decls.ret_decl.clone();
    money_signature_rets(ws, g, &mut rets);
    // Fixpoint: derive return dimensions from body tails, callee→caller.
    // Dimensions only move Unknown→Known (declared seeds are never
    // overwritten), so this terminates in at most `nodes` rounds.
    loop {
        let mut changed = false;
        for ix in 0..g.nodes.len() {
            if rets.contains_key(&ix) {
                continue;
            }
            let (_, ret) = eval_node(ws, g, &decls, &rets, ix, false);
            if let Some(d) = ret {
                let prov = format!(
                    "`{}` derives {d} ({}:{})",
                    g.nodes[ix].key, ws.files[g.nodes[ix].file_ix].file, g.nodes[ix].line
                );
                rets.insert(ix, (d, prov));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Recording pass: one evaluation per body with the final tables.
    let mut diags = Vec::new();
    for ix in 0..g.nodes.len() {
        let (viols, _) = eval_node(ws, g, &decls, &rets, ix, true);
        let node = &g.nodes[ix];
        let sf = &ws.files[node.file_ix];
        for v in viols {
            diags.push(FlowDiag {
                kind: FlowKind::UnitDimensions,
                file: sf.file.clone(),
                line: v.line,
                symbol: node.key.clone(),
                message: v.message,
                trace: v.trace,
            });
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    diags.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    warnings.sort();
    (diags, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_expressions_parse_and_render() {
        let cases = [
            ("$", "$"),
            ("GB", "GB"),
            ("$/GB\u{b7}month", "$/GB\u{b7}month"),
            ("$/day", "$/day"),
            ("day/month", "day/month"),
            ("$/GB*ops", "$/GB\u{b7}ops"),
            ("1", "1"),
            ("1/day", "1/day"),
            ("USD/ops", "$/ops"),
        ];
        for (text, want) in cases {
            let dim = parse_unit(text).unwrap_or_else(|| panic!("parse {text}"));
            assert_eq!(dim.to_string(), want, "render of {text}");
        }
        assert!(parse_unit("furlongs").is_none());
        assert!(parse_unit("$/fortnight").is_none());
    }

    #[test]
    fn dimension_arithmetic_composes() {
        let rate = parse_unit("$/GB\u{b7}month").unwrap();
        let days_per_month = parse_unit("day/month").unwrap();
        let gb = parse_unit("GB").unwrap();
        let per_day = rate.div(days_per_month).unwrap().mul(gb).unwrap();
        assert_eq!(per_day, Dim::DOLLAR_PER_DAY);
        // Forgetting the proration leaves $/month — not sink-legal.
        let slipped = rate.mul(gb).unwrap();
        assert_eq!(slipped.to_string(), "$/month");
        assert_ne!(slipped, Dim::DOLLAR);
        assert_ne!(slipped, Dim::DOLLAR_PER_DAY);
    }

    #[test]
    fn inference_table_is_narrow() {
        assert_eq!(infer("size_gb"), Some(parse_unit("GB").unwrap()));
        assert_eq!(infer("payload_gb"), Some(parse_unit("GB").unwrap()));
        assert_eq!(infer("reads"), Some(parse_unit("ops").unwrap()));
        assert_eq!(infer("storage_gb_month"), Some(parse_unit("$/GB\u{b7}month").unwrap()));
        // `*_per_gb` rates must NOT infer as GB.
        assert_eq!(infer("retrieval_per_gb"), None);
        assert_eq!(infer("change_per_gb"), None);
        assert_eq!(infer("days"), None);
    }
}
