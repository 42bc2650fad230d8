//! `cargo xtask` — the workspace static-analysis gate.
//!
//! The gate checks what rustc and clippy cannot: project-specific rules
//! over tokens, and properties of the whole call graph. Everything a
//! compiler lint already expresses (panics in libraries, narrowing casts,
//! wildcard tier matches, undocumented public items, `HashMap`/`HashSet`
//! via `disallowed_types` and the root `clippy.toml`) is denied in the
//! workspace manifest and at each library root instead, and reaches the
//! gate through its clippy step.
//!
//! `cargo xtask check` runs, in order:
//! 1. the two custom MiniCost lints (L1 `money-safety`, L10
//!    `escape-hatch-justification`) over every `crates/*/src` tree,
//! 2. the two interprocedural flow analyses (F1 `determinism-taint`, F2
//!    `panic-reachability`; DESIGN.md §12) over the workspace call graph,
//!    gated on `xtask-panic-allowlist.json`,
//! 3. `cargo fmt --all --check`,
//! 4. `cargo clippy --workspace --all-targets -- -D warnings`.
//!
//! `cargo xtask check --json` emits machine-readable diagnostics on stdout
//! (schema in DESIGN.md §8, including each step's wall time) with human
//! progress diverted to stderr. With `--strict`, unused allowlist entries
//! are errors instead of warnings (CI passes `--strict` so they cannot rot).
//!
//! Heap allocations on the per-day loops are measured, not inferred: the
//! counting-allocator test `tests/alloc_budget.rs` (DESIGN.md §13) holds
//! them to committed budgets.
//!
//! `cargo xtask lint <path>...` runs only the custom lints over the given
//! files or directories (used by the fixture self-tests and for spot checks).
//!
//! Any violation or failed gate exits nonzero with `file:line` diagnostics;
//! so does any command or argument the gate does not read.

// The analyzer matches on its own token enums, where a wildcard arm is the
// natural "anything else"; no storage tier is matched here.
#![allow(clippy::wildcard_enum_match_arm, reason = "no tier matches in the analyzer")]

mod flow;
mod lexer;
mod lints;
mod parser;
mod reach;
mod taint;
mod walk;

#[cfg(test)]
mod fixture_tests;
#[cfg(test)]
mod flow_tests;

use flow::{FlowDiag, FlowKind, FnGraph, Workspace};
use lints::{scan_source, FileContext, Lint, Violation};
use reach::{AllowEntry, Allowlist};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// One parsed `cargo xtask` command line.
#[derive(Debug, PartialEq, Eq)]
enum Cmd {
    /// `check [--json] [--strict]` (also what no arguments mean).
    Check {
        /// Emit the DESIGN.md §8 document on stdout.
        json: bool,
        /// Fail on unused allowlist entries.
        strict: bool,
    },
    /// `lint <path>...`.
    Lint(Vec<PathBuf>),
    /// `help`.
    Help,
}

/// Parses the arguments after `cargo xtask`. Anything a command does not
/// read is an error naming it, so a misspelt `--strict` cannot silently
/// run the lenient gate.
fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Cmd::Check { json: false, strict: false });
    };
    match cmd.as_str() {
        "check" => {
            let (mut json, mut strict) = (false, false);
            for arg in rest {
                match arg.as_str() {
                    "--json" => json = true,
                    "--strict" => strict = true,
                    other => return Err(format!("`check` does not take `{other}`")),
                }
            }
            Ok(Cmd::Check { json, strict })
        }
        "lint" if rest.is_empty() => Err("`lint` needs at least one path".to_string()),
        "lint" => Ok(Cmd::Lint(rest.iter().map(PathBuf::from).collect())),
        "help" | "--help" | "-h" => match rest.first() {
            Some(other) => Err(format!("`{cmd}` does not take `{other}`")),
            None => Ok(Cmd::Help),
        },
        other => Err(format!("unknown xtask command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Cmd::Check { json, strict }) => cmd_check(json, strict),
        Ok(Cmd::Lint(paths)) => cmd_lint(&paths),
        Ok(Cmd::Help) => {
            print_usage();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n");
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
         run the two custom lints + F1-F2 flow analyses +\n                     \
         `cargo fmt --check` + clippy gate; --json emits\n                     \
         the diagnostics\n                     \
         document (DESIGN.md \u{a7}8) on stdout; --strict\n                     \
         makes unused allowlist entries errors\n  \
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

fn cmd_lint(paths: &[PathBuf]) -> ExitCode {
    match lint_paths(paths) {
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
    /// Custom-lint violations (L1, L10).
    violations: Vec<Violation>,
    /// F1-F2 flow diagnostics.
    flow_diags: Vec<FlowDiag>,
    /// `xtask-panic-allowlist.json` entries that matched no finding.
    panic_unused: Vec<AllowEntry>,
    /// Whether `--strict` promotes the hygiene list above to errors.
    strict: bool,
    /// Whether `cargo fmt --all --check` passed.
    fmt_ok: bool,
    /// Whether `cargo clippy --workspace --all-targets` passed.
    clippy_ok: bool,
    /// Wall time of each step.
    step_ms: StepMs,
}

/// Wall time of each gate step in milliseconds, in run order.
#[derive(Clone, Copy, Debug, Default, Serialize)]
struct StepMs {
    lints: u64,
    flow: u64,
    fmt: u64,
    clippy: u64,
}

/// Milliseconds since `start`.
fn ms_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Per-gate verdicts, in the order the JSON document lists them.
#[derive(Clone, Copy, Debug, Serialize)]
struct Gates {
    lints: bool,
    flow: bool,
    allowlists: bool,
    fmt: bool,
    clippy: bool,
}

impl CheckReport {
    fn gates(&self) -> Gates {
        Gates {
            lints: self.violations.is_empty(),
            flow: self.flow_diags.is_empty(),
            // Hygiene findings fail their gate only under `--strict`.
            allowlists: self.panic_unused.is_empty() || !self.strict,
            fmt: self.fmt_ok,
            clippy: self.clippy_ok,
        }
    }

    fn ok(&self) -> bool {
        let g = self.gates();
        g.lints && g.flow && g.allowlists && g.fmt && g.clippy
    }

    /// The `panic_unused` lines of the document.
    fn unused(list: &str, entries: &[AllowEntry]) -> Vec<String> {
        entries
            .iter()
            .map(|e| format!("unused {list} entry: {} ({})", e.function, e.reason))
            .collect()
    }
}

fn cmd_check(json_mode: bool, strict: bool) -> ExitCode {
    let root = walk::repo_root();
    let mut r = CheckReport { strict, ..CheckReport::default() };

    // 1. Custom lints.
    progress!(json_mode, "==> custom lints (L1, L10)");
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
    r.step_ms.lints = ms_since(start);
    for v in &r.violations {
        eprintln!("{v}");
    }
    if r.violations.is_empty() {
        progress!(json_mode, "==> custom lints passed ({} files)", r.files);
    } else {
        eprintln!("==> custom lints FAILED: {} violation(s)", r.violations.len());
    }

    // 2. Flow analyses over the workspace call graph.
    progress!(json_mode, "==> call-graph analyses (F1 determinism-taint, F2 panic-reachability)");
    let start = Instant::now();
    let loaded = Workspace::load_flow(&root).and_then(|ws| Ok((ws, Allowlist::load(&root)?)));
    let (ws, panic_allow) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    (r.flow_diags, r.panic_unused) = flow::analyze(&ws, &FnGraph::build(&ws), &panic_allow);
    r.step_ms.flow = ms_since(start);
    for d in &r.flow_diags {
        eprintln!("{d}");
    }
    if r.flow_diags.is_empty() {
        progress!(json_mode, "==> flow analyses passed");
    } else {
        eprintln!("==> flow analyses FAILED: {} diagnostic(s)", r.flow_diags.len());
    }

    // Unused allowlist entries are hygiene warnings, promoted to errors
    // under `--strict` so CI keeps the committed allowlist tight.
    let hygiene = CheckReport::unused("panic-allowlist", &r.panic_unused);
    for w in &hygiene {
        eprintln!("{}: {w}", if strict { "error" } else { "warning" });
    }
    if strict && !hygiene.is_empty() {
        eprintln!("==> hygiene FAILED (--strict): {} finding(s)", hygiene.len());
    }

    // 3. rustfmt gate.
    progress!(json_mode, "==> cargo fmt --all --check");
    let start = Instant::now();
    r.fmt_ok = run_cargo(&root, &["fmt", "--all", "--check"], json_mode);
    r.step_ms.fmt = ms_since(start);
    if !r.fmt_ok {
        eprintln!("==> rustfmt gate FAILED (run `cargo fmt --all` to fix)");
    }

    // 4. clippy gate, deny warnings.
    progress!(json_mode, "==> cargo clippy --workspace --all-targets -- -D warnings");
    let start = Instant::now();
    r.clippy_ok = run_cargo(
        &root,
        &["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"],
        json_mode,
    );
    r.step_ms.clippy = ms_since(start);
    if !r.clippy_ok {
        eprintln!("==> clippy gate FAILED");
    }

    if json_mode {
        match serde_json::to_string(&check_doc(&root, &r)) {
            Ok(doc) => println!("{doc}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if r.ok() {
        progress!(json_mode, "xtask check: all gates passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask check: FAILED");
        ExitCode::FAILURE
    }
}

/// The `cargo xtask check --json` document (schema: DESIGN.md §8).
#[derive(Debug, Serialize)]
struct CheckDoc {
    version: u32,
    lints: Vec<&'static str>,
    violations: Vec<ViolationDoc>,
    flow: FlowDoc,
    allowlists: AllowlistsDoc,
    gates: Gates,
    summary: SummaryDoc,
}

/// One custom-lint violation.
#[derive(Debug, Serialize)]
struct ViolationDoc {
    lint: &'static str,
    file: String,
    line: usize,
    message: String,
}

/// Every call-graph finding (F1-F2).
#[derive(Debug, Serialize)]
struct FlowDoc {
    kinds: Vec<&'static str>,
    diagnostics: Vec<DiagDoc>,
}

/// One call-graph diagnostic.
#[derive(Debug, Serialize)]
struct DiagDoc {
    kind: &'static str,
    code: &'static str,
    file: String,
    line: usize,
    symbol: String,
    message: String,
    trace: Vec<String>,
}

/// Allowlist hygiene.
#[derive(Debug, Serialize)]
struct AllowlistsDoc {
    strict: bool,
    panic_unused: Vec<String>,
}

/// Counts, verdict and step timings.
#[derive(Debug, Serialize)]
struct SummaryDoc {
    files: usize,
    total: usize,
    flow_total: usize,
    ok: bool,
    step_ms: StepMs,
}

/// Assembles the `cargo xtask check --json` document.
fn check_doc(root: &Path, r: &CheckReport) -> CheckDoc {
    let root_prefix = format!("{}/", root.display());
    let diagnostics: Vec<DiagDoc> = r
        .flow_diags
        .iter()
        .map(|d| DiagDoc {
            kind: d.kind.name(),
            code: d.kind.code(),
            file: d.file.clone(),
            line: d.line,
            symbol: d.symbol.clone(),
            message: d.message.clone(),
            trace: d.trace.clone(),
        })
        .collect();
    CheckDoc {
        version: 4,
        lints: Lint::all().iter().map(|l| l.name()).collect(),
        violations: r
            .violations
            .iter()
            .map(|v| ViolationDoc {
                lint: v.lint.name(),
                file: v.file.strip_prefix(&root_prefix).unwrap_or(&v.file).to_string(),
                line: v.line,
                message: v.message.clone(),
            })
            .collect(),
        summary: SummaryDoc {
            files: r.files,
            total: r.violations.len(),
            flow_total: diagnostics.len(),
            ok: r.ok(),
            step_ms: r.step_ms,
        },
        flow: FlowDoc { kinds: FlowKind::all().iter().map(|k| k.name()).collect(), diagnostics },
        allowlists: AllowlistsDoc {
            strict: r.strict,
            panic_unused: CheckReport::unused("panic-allowlist", &r.panic_unused),
        },
        gates: r.gates(),
    }
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
