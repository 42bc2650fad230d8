//! `cargo xtask` — the workspace static-analysis gate.
//!
//! The gate checks what rustc and clippy cannot: project-specific rules
//! over tokens, and properties of the whole call graph. Everything a
//! compiler lint already expresses (panics in libraries, narrowing casts,
//! wildcard tier matches, undocumented public items) is denied in the
//! workspace manifest and at each library root instead, and reaches the
//! gate through its clippy step.
//!
//! `cargo xtask check` runs, in order:
//! 1. the five custom MiniCost lints (L1 `money-safety`, L4
//!    `lock-discipline`, L5 `hashmap-iter-determinism`, L6
//!    `float-reduction-order`, L10 `escape-hatch-justification`) over every
//!    `crates/*/src` tree,
//! 2. the three interprocedural flow analyses (F1 `determinism-taint`, F2
//!    `panic-reachability`, F3 `lock-order`; DESIGN.md §12) over the
//!    workspace call graph, gated on `xtask-panic-allowlist.json`,
//! 3. the two abstract-interpretation analyses (F4 `unit-dimensions`, F5
//!    `hot-alloc`; DESIGN.md §13) over the same call graph, gated on
//!    `xtask-alloc-allowlist.json`,
//! 4. `cargo fmt --all --check`,
//! 5. `cargo clippy --workspace --all-targets -- -D warnings`.
//!
//! `cargo xtask check --json` emits machine-readable diagnostics on stdout
//! (schema in DESIGN.md §8, including each step's wall time) with human
//! progress diverted to stderr. With `--strict`, unused
//! `xtask-panic-allowlist.json` / `xtask-alloc-allowlist.json` entries are
//! errors instead of warnings (CI passes `--strict` so the committed
//! allowlists never go stale).
//!
//! `cargo xtask lint <path>...` runs only the custom lints over the given
//! files or directories (used by the fixture self-tests and for spot checks).
//!
//! `cargo xtask graph [--json]` prints the workspace symbol/call graph.
//!
//! `cargo xtask flow [--json|--dot]` runs only the F1–F3 flow analyses;
//! `--dot` exports the tainted call subgraph as Graphviz.
//!
//! `cargo xtask units [--json|--dot]` runs only F4; `--dot` exports the
//! derived dimension graph. `cargo xtask alloc [--json]` runs only F5.
//!
//! Any violation or failed gate exits nonzero with `file:line` diagnostics.

// The analyzer matches on its own token and JSON enums, where a wildcard
// arm is the natural "anything else"; no storage tier is matched here.
#![allow(clippy::wildcard_enum_match_arm, reason = "no tier matches in the analyzer")]

mod alloc;
mod flow;
mod graph;
mod json;
mod lexer;
mod lints;
mod lockorder;
mod parser;
mod reach;
mod syntax_lints;
mod taint;
mod units;
mod walk;

#[cfg(test)]
mod alloc_tests;
#[cfg(test)]
mod fixture_tests;
#[cfg(test)]
mod flow_tests;
#[cfg(test)]
mod units_tests;

use json::Json;
use lints::{scan_source, FileContext, Lint, Violation};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("check", &[][..]),
    };
    let json_mode = rest.iter().any(|a| a == "--json");
    match cmd {
        "check" => cmd_check(json_mode, rest.iter().any(|a| a == "--strict")),
        "graph" => cmd_graph(json_mode),
        "flow" => cmd_flow(rest),
        "units" => cmd_units(rest),
        "alloc" => cmd_alloc(rest),
        "lint" => cmd_lint(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown xtask command `{other}`\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\n\
         commands:\n  \
         check [--json] [--strict]\n                     \
         run the five custom lints + F1-F3 flow analyses +\n                     \
         F4/F5 abstract interpretation + `cargo fmt --check`\n                     \
         + clippy gate; --json emits the diagnostics\n                     \
         document (DESIGN.md \u{a7}8) on stdout; --strict\n                     \
         makes unused allowlist entries errors\n  \
         flow [--json|--dot] run only the F1-F3 flow analyses (DESIGN.md\n                     \
         \u{a7}12); --dot exports the tainted call subgraph\n  \
         units [--json|--dot]\n                     \
         run only the F4 unit-dimensions analysis (DESIGN.md\n                     \
         \u{a7}13); --dot exports the derived dimension graph\n  \
         alloc [--json]     run only the F5 hot-path allocation analysis\n  \
         graph [--json]     print the workspace symbol/call graph\n  \
         lint <path>...     run only the custom lints over the given paths\n  \
         help               show this message"
    );
}

/// Lints the given files/directories and prints violations. Returns how many,
/// or `None` if a path could not be read (already reported to stderr).
fn lint_paths(paths: &[PathBuf]) -> Option<usize> {
    let violations = match collect_violations(paths) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return None;
        }
    };
    for v in &violations {
        println!("{v}");
    }
    Some(violations.len())
}

/// Scans every Rust file under the given paths with all applicable lints.
fn collect_violations(paths: &[PathBuf]) -> Result<Vec<Violation>, String> {
    let mut violations: Vec<Violation> = Vec::new();
    for path in paths {
        let files =
            walk::rust_files(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for file in files {
            let src = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let ctx = FileContext::from_path(&file);
            violations.extend(scan_source(&file, &src, &ctx));
        }
    }
    Ok(violations)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("error: `cargo xtask lint` needs at least one path");
        return ExitCode::FAILURE;
    }
    let paths: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
    match lint_paths(&paths) {
        Some(0) => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Some(n) => {
            eprintln!("xtask lint: {n} violation(s)");
            ExitCode::FAILURE
        }
        None => ExitCode::FAILURE,
    }
}

/// Human progress goes to stdout normally, stderr under `--json` (stdout is
/// reserved for the diagnostics document there).
macro_rules! progress {
    ($json_mode:expr, $($arg:tt)*) => {
        if $json_mode {
            eprintln!($($arg)*);
        } else {
            println!($($arg)*);
        }
    };
}

/// Everything `cargo xtask check` found, threaded into the verdict and the
/// `--json` diagnostics document.
#[derive(Default)]
struct CheckReport {
    /// Number of files the custom lints scanned.
    files: usize,
    /// Custom-lint violations (L1, L4, L5, L6, L10).
    violations: Vec<Violation>,
    /// F1-F3 flow diagnostics.
    flow_diags: Vec<flow::FlowDiag>,
    /// F4 unit-dimensions diagnostics.
    unit_diags: Vec<flow::FlowDiag>,
    /// F5 hot-alloc diagnostics.
    alloc_diags: Vec<flow::FlowDiag>,
    /// Unused `xtask-panic-allowlist.json` entry warnings.
    panic_unused: Vec<String>,
    /// Unused `xtask-alloc-allowlist.json` entry warnings.
    alloc_unused: Vec<String>,
    /// Whether `--strict` promotes those warnings to errors.
    strict: bool,
    /// Whether `cargo fmt --all --check` passed.
    fmt_ok: bool,
    /// Whether `cargo clippy --workspace --all-targets` passed.
    clippy_ok: bool,
    /// Wall time of each step in milliseconds, in run order.
    step_ms: Vec<(&'static str, i64)>,
}

impl CheckReport {
    /// Per-gate verdicts, in the order the JSON document lists them.
    fn gates(&self) -> [(&'static str, bool); 7] {
        [
            ("lints", self.violations.is_empty()),
            ("flow", self.flow_diags.is_empty()),
            ("units", self.unit_diags.is_empty()),
            ("alloc", self.alloc_diags.is_empty()),
            (
                "allowlists",
                !self.strict || self.panic_unused.is_empty() && self.alloc_unused.is_empty(),
            ),
            ("fmt", self.fmt_ok),
            ("clippy", self.clippy_ok),
        ]
    }

    fn ok(&self) -> bool {
        self.gates().iter().all(|&(_, ok)| ok)
    }

    /// Records the wall time of the step that started at `start`.
    fn time(&mut self, step: &'static str, start: Instant) {
        let ms = i64::try_from(start.elapsed().as_millis()).unwrap_or(i64::MAX);
        self.step_ms.push((step, ms));
    }
}

/// Prints one analysis family's diagnostics and its verdict line.
fn report_family(json_mode: bool, label: &str, diags: &[flow::FlowDiag]) {
    for d in diags {
        eprintln!("{d}");
    }
    if diags.is_empty() {
        progress!(json_mode, "==> {label} passed");
    } else {
        eprintln!("==> {label} FAILED: {} diagnostic(s)", diags.len());
    }
}

fn cmd_check(json_mode: bool, strict: bool) -> ExitCode {
    let root = walk::repo_root();
    let mut r = CheckReport { strict, ..CheckReport::default() };

    // 1. Custom lints.
    progress!(json_mode, "==> custom lints (L1, L4, L5, L6, L10)");
    let start = Instant::now();
    let scanned = walk::workspace_lint_files(&root)
        .map_err(|e| format!("cannot enumerate workspace sources: {e}"))
        .and_then(|files| Ok((files.len(), collect_violations(&files)?)));
    (r.files, r.violations) = match scanned {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    r.time("lints", start);
    for v in &r.violations {
        eprintln!("{v}");
    }
    if r.violations.is_empty() {
        progress!(json_mode, "==> custom lints passed ({} files)", r.files);
    } else {
        eprintln!("==> custom lints FAILED: {} violation(s)", r.violations.len());
    }

    // 2. Flow analyses over the call graph.
    progress!(
        json_mode,
        "==> flow analyses (F1 determinism-taint, F2 panic-reachability, F3 lock-order)"
    );
    let start = Instant::now();
    let loaded = flow::Workspace::load_flow(&root).and_then(|ws| {
        let panic_allow = reach::PanicAllowlist::load(&root)?;
        let alloc_allow = alloc::AllocAllowlist::load(&root)?;
        Ok((ws, panic_allow, alloc_allow))
    });
    let (ws, panic_allow, alloc_allow) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let g = flow::FnGraph::build(&ws);
    let (flow_diags, flow_warnings) = flow::analyze(&ws, &g, &panic_allow);
    r.flow_diags = flow_diags;
    r.time("flow", start);
    report_family(json_mode, "flow analyses", &r.flow_diags);

    // 3. Abstract interpretation over the same call graph.
    progress!(json_mode, "==> abstract interpretation (F4 unit-dimensions, F5 hot-alloc)");
    let start = Instant::now();
    let (unit_diags, unit_warnings) = units::analyze(&ws, &g);
    r.unit_diags = unit_diags;
    r.time("units", start);
    report_family(json_mode, "unit-dimensions", &r.unit_diags);
    let start = Instant::now();
    let (alloc_diags, alloc_warnings) = alloc::analyze(&ws, &g, &alloc::roots(&g), &alloc_allow);
    r.alloc_diags = alloc_diags;
    r.time("alloc", start);
    report_family(json_mode, "hot-alloc", &r.alloc_diags);

    // Unused allowlist entries are hygiene warnings, promoted to errors
    // under `--strict` so CI keeps the committed allowlists tight.
    for w in flow_warnings.iter().chain(&unit_warnings).chain(&alloc_warnings) {
        if w.starts_with("unused panic-allowlist entry") {
            r.panic_unused.push(w.clone());
        } else if w.starts_with("unused alloc-allowlist entry") {
            r.alloc_unused.push(w.clone());
        } else {
            eprintln!("warning: {w}");
            continue;
        }
        eprintln!("{}: {w}", if strict { "error" } else { "warning" });
    }
    let unused_allow = r.panic_unused.len() + r.alloc_unused.len();
    if strict && unused_allow > 0 {
        eprintln!("==> allowlist hygiene FAILED (--strict): {unused_allow} unused entr(ies)");
    }

    // 4. rustfmt gate.
    progress!(json_mode, "==> cargo fmt --all --check");
    let start = Instant::now();
    r.fmt_ok = run_cargo(&root, &["fmt", "--all", "--check"], json_mode);
    r.time("fmt", start);
    if !r.fmt_ok {
        eprintln!("==> rustfmt gate FAILED (run `cargo fmt --all` to fix)");
    }

    // 5. clippy gate, deny warnings.
    progress!(json_mode, "==> cargo clippy --workspace --all-targets -- -D warnings");
    let start = Instant::now();
    r.clippy_ok = run_cargo(
        &root,
        &["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"],
        json_mode,
    );
    r.time("clippy", start);
    if !r.clippy_ok {
        eprintln!("==> clippy gate FAILED");
    }

    if json_mode {
        print!("{}", diagnostics_json(&root, &r).render());
    }
    if r.ok() {
        progress!(json_mode, "xtask check: all gates passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask check: FAILED");
        ExitCode::FAILURE
    }
}

/// Converts a count to a JSON number.
fn num(n: usize) -> Json {
    Json::Num(i64::try_from(n).unwrap_or(i64::MAX))
}

/// Assembles the `cargo xtask check --json` document (schema: DESIGN.md §8).
fn diagnostics_json(root: &Path, r: &CheckReport) -> Json {
    let rel = |file: &str| {
        let root_prefix = format!("{}/", root.display());
        Json::Str(file.strip_prefix(&root_prefix).unwrap_or(file).to_string())
    };
    let strs = |v: &[String]| Json::Arr(v.iter().map(|w| Json::Str(w.clone())).collect());
    // The `flow` object carries every graph-analysis diagnostic (F1-F5).
    let graph_diags: Vec<&flow::FlowDiag> =
        r.flow_diags.iter().chain(&r.unit_diags).chain(&r.alloc_diags).collect();
    Json::obj([
        ("version", Json::Num(1)),
        ("lints", Json::Arr(Lint::all().iter().map(|l| Json::Str(l.name().to_string())).collect())),
        (
            "violations",
            Json::Arr(
                r.violations
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("lint", Json::Str(v.lint.name().to_string())),
                            ("file", rel(&v.file)),
                            ("line", num(v.line)),
                            ("message", Json::Str(v.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "flow",
            Json::obj([
                (
                    "kinds",
                    Json::Arr(
                        flow::FlowKind::all()
                            .iter()
                            .map(|k| Json::Str(k.name().to_string()))
                            .collect(),
                    ),
                ),
                (
                    "diagnostics",
                    Json::Arr(graph_diags.iter().copied().map(flow_diag_json).collect()),
                ),
            ]),
        ),
        (
            "allowlists",
            Json::obj([
                ("strict", Json::Bool(r.strict)),
                ("panic_unused", strs(&r.panic_unused)),
                ("alloc_unused", strs(&r.alloc_unused)),
            ]),
        ),
        ("gates", Json::obj(r.gates().map(|(k, ok)| (k, Json::Bool(ok))))),
        (
            "summary",
            Json::obj([
                ("files", num(r.files)),
                ("total", num(r.violations.len())),
                ("flow_total", num(graph_diags.len())),
                ("ok", Json::Bool(r.ok())),
                ("step_ms", Json::obj(r.step_ms.iter().map(|&(k, ms)| (k, Json::Num(ms))))),
            ]),
        ),
    ])
}

/// One flow diagnostic as JSON (shared by the check and flow documents).
fn flow_diag_json(d: &flow::FlowDiag) -> Json {
    Json::obj([
        ("kind", Json::Str(d.kind.name().to_string())),
        ("code", Json::Str(d.kind.code().to_string())),
        ("file", Json::Str(d.file.clone())),
        ("line", num(d.line)),
        ("symbol", Json::Str(d.symbol.clone())),
        ("message", Json::Str(d.message.clone())),
        ("trace", Json::Arr(d.trace.iter().map(|s| Json::Str(s.clone())).collect())),
    ])
}

/// Loads the workspace, builds the call graph, and runs the F1–F3 analyses.
fn run_flow(root: &Path) -> Result<(Vec<flow::FlowDiag>, Vec<String>), String> {
    let ws = flow::Workspace::load_flow(root)?;
    let g = flow::FnGraph::build(&ws);
    let allow = reach::PanicAllowlist::load(root)?;
    Ok(flow::analyze(&ws, &g, &allow))
}

/// `cargo xtask flow [--json|--dot]`: the F1-F3 flow analyses standalone.
fn cmd_flow(args: &[String]) -> ExitCode {
    let json_mode = args.iter().any(|a| a == "--json");
    let root = walk::repo_root();
    if args.iter().any(|a| a == "--dot") {
        let ws = match flow::Workspace::load_flow(&root) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let g = flow::FnGraph::build(&ws);
        let t = taint::compute(&ws, &g);
        print!("{}", taint::dot(&ws, &g, &t));
        return ExitCode::SUCCESS;
    }
    let (diags, warnings) = match run_flow(&root) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    kind_report("flow", &flow::FlowKind::flow_kinds(), &diags, &warnings, json_mode)
}

/// `cargo xtask units [--json|--dot]`: the F4 analysis standalone.
fn cmd_units(args: &[String]) -> ExitCode {
    let json_mode = args.iter().any(|a| a == "--json");
    let root = walk::repo_root();
    let ws = match flow::Workspace::load_flow(&root) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let g = flow::FnGraph::build(&ws);
    if args.iter().any(|a| a == "--dot") {
        let (u, _, _) = units::compute(&ws, &g);
        print!("{}", units::dot(&ws, &g, &u));
        return ExitCode::SUCCESS;
    }
    let (diags, warnings) = units::analyze(&ws, &g);
    kind_report("units", &[flow::FlowKind::UnitDimensions], &diags, &warnings, json_mode)
}

/// `cargo xtask alloc [--json]`: the F5 analysis standalone.
fn cmd_alloc(args: &[String]) -> ExitCode {
    let json_mode = args.iter().any(|a| a == "--json");
    let root = walk::repo_root();
    let ws = match flow::Workspace::load_flow(&root) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let g = flow::FnGraph::build(&ws);
    let allow = match alloc::AllocAllowlist::load(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let roots = alloc::roots(&g);
    let (diags, warnings) = alloc::analyze(&ws, &g, &roots, &allow);
    kind_report("alloc", &[flow::FlowKind::HotAlloc], &diags, &warnings, json_mode)
}

/// Shared tail of the standalone analysis subcommands: prints diagnostics
/// and emits the `--json` document `{version, kinds, diagnostics, warnings,
/// summary}`.
fn kind_report(
    label: &str,
    kinds: &[flow::FlowKind],
    diags: &[flow::FlowDiag],
    warnings: &[String],
    json_mode: bool,
) -> ExitCode {
    for w in warnings {
        eprintln!("warning: {w}");
    }
    for d in diags {
        if json_mode {
            eprintln!("{d}");
        } else {
            println!("{d}");
        }
    }
    let ok = diags.is_empty();
    if json_mode {
        let doc = Json::obj([
            ("version", Json::Num(1)),
            ("kinds", Json::Arr(kinds.iter().map(|k| Json::Str(k.name().to_string())).collect())),
            ("diagnostics", Json::Arr(diags.iter().map(flow_diag_json).collect())),
            ("warnings", Json::Arr(warnings.iter().map(|w| Json::Str(w.clone())).collect())),
            ("summary", Json::obj([("total", num(diags.len())), ("ok", Json::Bool(ok))])),
        ]);
        print!("{}", doc.render());
    }
    if ok {
        progress!(json_mode, "xtask {label}: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask {label}: FAILED ({} diagnostic(s))", diags.len());
        ExitCode::FAILURE
    }
}

/// Builds the workspace symbol graph and prints the summary (or, with
/// `--json`, the full graph document: per-crate stats, the public API
/// surface, and every resolved/unresolved call edge).
fn cmd_graph(json_mode: bool) -> ExitCode {
    let root = walk::repo_root();
    let ws = match flow::Workspace::load(&root) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = ws.parsed();
    let g = graph::SymbolGraph::build(&parsed);
    if json_mode {
        print!("{}", graph_json(&g).render());
    } else {
        print!("{}", g.summary());
    }
    ExitCode::SUCCESS
}

/// The `cargo xtask graph --json` document.
fn graph_json(g: &graph::SymbolGraph) -> Json {
    let crates = g
        .crates
        .iter()
        .map(|(krate, stats)| {
            let deps = g
                .crate_deps
                .get(krate)
                .map(|d| d.iter().map(|s| Json::Str(s.clone())).collect())
                .unwrap_or_default();
            let mut pub_api: Vec<&graph::Def> = g
                .defs
                .values()
                .flatten()
                .filter(|d| d.krate == *krate && d.is_pub && !d.in_test)
                .collect();
            pub_api.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
            (
                krate.clone(),
                Json::obj([
                    ("items", Json::Num(i64::try_from(stats.items).unwrap_or(0))),
                    ("fns", Json::Num(i64::try_from(stats.fns).unwrap_or(0))),
                    ("pub_items", Json::Num(i64::try_from(stats.pub_items).unwrap_or(0))),
                    ("pub_documented", Json::Num(i64::try_from(stats.pub_documented).unwrap_or(0))),
                    ("uses", Json::Arr(deps)),
                    (
                        "pub_api",
                        Json::Arr(
                            pub_api
                                .iter()
                                .map(|d| {
                                    Json::obj([
                                        ("qualified", Json::Str(d.qualified.clone())),
                                        ("kind", Json::Str(d.kind.label().to_string())),
                                        ("file", Json::Str(d.file.clone())),
                                        ("line", Json::Num(i64::try_from(d.line).unwrap_or(0))),
                                        ("documented", Json::Bool(d.has_doc)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            )
        })
        .collect();
    let edges = g
        .edges
        .iter()
        .map(|e| {
            Json::obj([
                ("from", Json::Str(e.from.clone())),
                ("from_crate", Json::Str(e.from_crate.clone())),
                ("to", Json::Str(e.to_name.clone())),
                ("to_crate", e.to_crate.as_ref().map_or(Json::Null, |c| Json::Str(c.clone()))),
            ])
        })
        .collect();
    Json::obj([
        ("version", Json::Num(1)),
        ("crates", Json::Obj(crates)),
        ("edges", Json::Arr(edges)),
        ("cross_crate_edges", Json::Num(i64::try_from(g.cross_crate_edges()).unwrap_or(0))),
    ])
}

/// Runs a cargo subcommand. Under `--json` the child's stdout is captured
/// and replayed on stderr so the diagnostics document owns stdout.
fn run_cargo(root: &Path, args: &[&str], json_mode: bool) -> bool {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.args(args).current_dir(root);
    if json_mode {
        match cmd.output() {
            Ok(out) => {
                eprint!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                out.status.success()
            }
            Err(e) => {
                eprintln!("error: failed to spawn cargo {}: {e}", args.join(" "));
                false
            }
        }
    } else {
        match cmd.status() {
            Ok(status) => status.success(),
            Err(e) => {
                eprintln!("error: failed to spawn cargo {}: {e}", args.join(" "));
                false
            }
        }
    }
}
