//! Self-tests: each committed fixture must trip its lint with `file:line`
//! diagnostics, and the escape hatch must suppress exactly the marked lines.
//!
//! Fixtures live in the `fixture` crate context, where *all* lints apply, so
//! a fixture written for one lint may legitimately trip others (e.g. a
//! dollar-named helper also trips L1). Each test therefore filters to the
//! lint under test before asserting counts.

use crate::flow::{FlowDiag, FlowKind};
use crate::lints::{scan_source, FileContext, Lint, Violation};
use crate::reach::AllowEntry;
use serde::{Serialize, Value};
use std::path::PathBuf;

fn scan_fixture(name: &str) -> Vec<Violation> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let ctx = FileContext::from_path(&path);
    scan_source(&path, &src, &ctx)
}

/// Violations of one lint in one fixture file.
fn scan_for(name: &str, lint: Lint) -> Vec<Violation> {
    scan_fixture(name).into_iter().filter(|v| v.lint == lint).collect()
}

#[test]
fn l1_fixture_trips_money_safety() {
    let v = scan_for("l1_money.rs", Lint::MoneySafety);
    assert!(!v.is_empty(), "fixture must fail the lint");
    // Raw arithmetic on dollar bindings, arithmetic on as_dollars(), and the
    // round-trip are all caught; the escape-hatch line is not.
    assert!(v.iter().any(|v| v.message.contains("storage_dollars")), "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("round-trip")), "{v:?}");
    assert!(v.len() >= 3, "{v:?}");
}

#[test]
fn l10_fixture_trips_escape_justification() {
    let v = scan_for("l10_escapes.rs", Lint::EscapeJustification);
    // Bare legacy escape + bare `all`; both justified grammars are exempt.
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("money-safety")), "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("all")), "{v:?}");
}

#[test]
fn diagnostics_carry_file_and_line() {
    for v in scan_fixture("l1_money.rs") {
        assert!(v.line > 0);
        assert!(v.file.ends_with("l1_money.rs"));
        let rendered = v.to_string();
        assert!(
            rendered.contains(&format!("l1_money.rs:{}", v.line)),
            "diagnostic must be file:line formatted: {rendered}"
        );
    }
}

#[test]
fn every_lint_has_a_failing_fixture() {
    // One committed fixture per lint, and each must trip the lint it names.
    for (lint, fixture) in
        [(Lint::MoneySafety, "l1_money.rs"), (Lint::EscapeJustification, "l10_escapes.rs")]
    {
        assert!(!scan_for(fixture, lint).is_empty(), "{fixture} must trip {}", lint.name());
    }
}

#[test]
fn fixtures_fail_through_the_cli_entry_point() {
    // The same code path `cargo xtask lint crates/xtask/fixtures` uses must
    // report a nonzero violation count over the fixture directory.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let n = crate::lint_paths(&[dir]).expect("fixtures dir must be readable");
    // At minimum the per-fixture counts asserted above (L1: 3, L10: 2);
    // cross-lint hits on fixture helpers only push the total higher.
    assert!(n >= 5, "both fixtures must report violations, got {n}");
}

#[test]
fn workspace_tree_is_lint_clean() {
    // The gate this tool enforces: the real workspace has no violations
    // beyond those waived in place by a justified `xtask-allow`.
    let root = crate::walk::repo_root();
    let files = crate::walk::workspace_lint_files(&root).expect("walk");
    let violations = crate::collect_violations(&files).expect("read");
    let rendered: Vec<String> = violations.iter().map(ToString::to_string).collect();
    assert!(rendered.is_empty(), "workspace has lint violations:\n{}", rendered.join("\n"));
}

/// Object member `key` of a serialized document node.
fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing `{key}` in {v:?}")),
        other => panic!("`{key}` looked up in a non-object: {other:?}"),
    }
}

/// Member names of a serialized object, in document order.
fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Map(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// Elements of a serialized array.
fn items(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

fn str_val(s: &str) -> Value {
    Value::Str(s.to_string())
}

#[test]
fn diagnostics_json_matches_documented_schema() {
    let report = crate::CheckReport {
        files: 42,
        violations: vec![Violation {
            lint: Lint::MoneySafety,
            file: "/repo/crates/core/src/x.rs".to_string(),
            line: 7,
            message: "dollars".to_string(),
        }],
        panic_unused: vec![AllowEntry {
            function: "core::gone".to_string(),
            reason: "old".to_string(),
        }],
        strict: true,
        fmt_ok: true,
        clippy_ok: true,
        step_ms: crate::StepMs { lints: 3, flow: 5, ..crate::StepMs::default() },
        ..crate::CheckReport::default()
    };
    let check = crate::check_doc(&PathBuf::from("/repo"), &report);
    let doc = check.to_value();
    // Top-level keys, in order, and types per DESIGN.md §8.
    assert_eq!(
        keys(&doc),
        ["version", "lints", "violations", "flow", "allowlists", "gates", "summary"]
    );
    assert_eq!(field(&doc, "version"), &Value::I64(4));
    assert_eq!(
        items(field(&doc, "lints")),
        [str_val("money-safety"), str_val("escape-hatch-justification")]
    );
    let vs = items(field(&doc, "violations"));
    assert_eq!(vs.len(), 1);
    assert_eq!(keys(&vs[0]), ["lint", "file", "line", "message"]);
    assert_eq!(field(&vs[0], "lint"), &str_val("money-safety"));
    assert_eq!(field(&vs[0], "file"), &str_val("crates/core/src/x.rs"));
    assert_eq!(field(&vs[0], "line"), &Value::I64(7));
    let gates = field(&doc, "gates");
    assert_eq!(keys(gates), ["lints", "flow", "allowlists", "fmt", "clippy"]);
    assert_eq!(field(gates, "lints"), &Value::Bool(false));
    assert_eq!(field(gates, "flow"), &Value::Bool(true));
    // Strict + one unused panic-allowlist entry fails the hygiene gate.
    assert_eq!(field(gates, "allowlists"), &Value::Bool(false));
    assert_eq!(field(gates, "fmt"), &Value::Bool(true));
    assert_eq!(field(gates, "clippy"), &Value::Bool(true));
    let allowlists = field(&doc, "allowlists");
    assert_eq!(keys(allowlists), ["strict", "panic_unused"]);
    assert_eq!(field(allowlists, "strict"), &Value::Bool(true));
    assert_eq!(
        items(field(allowlists, "panic_unused")),
        [str_val("unused panic-allowlist entry: core::gone (old)")]
    );
    let flow = field(&doc, "flow");
    assert_eq!(keys(flow), ["kinds", "diagnostics"]);
    assert_eq!(
        items(field(flow, "kinds")),
        [str_val("determinism-taint"), str_val("panic-reachability")]
    );
    assert_eq!(items(field(flow, "diagnostics")).len(), 0);
    let summary = field(&doc, "summary");
    assert_eq!(keys(summary), ["files", "total", "flow_total", "ok", "step_ms"]);
    assert_eq!(field(summary, "files"), &Value::I64(42));
    assert_eq!(field(summary, "total"), &Value::I64(1));
    assert_eq!(field(summary, "flow_total"), &Value::I64(0));
    assert_eq!(field(summary, "ok"), &Value::Bool(false));
    // Each step's wall time, keyed by step name, in run order.
    let step_ms = field(summary, "step_ms");
    assert_eq!(keys(step_ms), ["lints", "flow", "fmt", "clippy"]);
    assert_eq!(field(step_ms, "lints"), &Value::I64(3));
    assert_eq!(field(step_ms, "flow"), &Value::I64(5));
    // The document renders as one JSON line in the same key order.
    let rendered = serde_json::to_string(&check).expect("render");
    assert!(
        rendered
            .starts_with(r#"{"version":4,"lints":["money-safety","escape-hatch-justification"],"#),
        "{rendered}"
    );
}

#[test]
fn every_graph_finding_lands_in_flow_diagnostics() {
    // CI uploads only the check document, so every flow finding must
    // reach `flow.diagnostics`, each under its kind and code.
    let diag = |kind: FlowKind| FlowDiag {
        kind,
        file: "crates/core/src/x.rs".to_string(),
        line: 3,
        symbol: format!("core::{}", kind.code()),
        message: "m".to_string(),
        trace: vec!["calls core::serve".to_string()],
    };
    let report = crate::CheckReport {
        flow_diags: FlowKind::all().map(diag).to_vec(),
        fmt_ok: true,
        clippy_ok: true,
        ..crate::CheckReport::default()
    };
    let doc = crate::check_doc(&PathBuf::from("/repo"), &report).to_value();
    let diags = items(field(field(&doc, "flow"), "diagnostics"));
    let got: Vec<(&Value, &Value)> =
        diags.iter().map(|d| (field(d, "kind"), field(d, "code"))).collect();
    assert_eq!(
        got,
        [
            (&str_val("determinism-taint"), &str_val("F1")),
            (&str_val("panic-reachability"), &str_val("F2")),
        ]
    );
    assert_eq!(keys(&diags[0]), ["kind", "code", "file", "line", "symbol", "message", "trace"]);
    assert_eq!(items(field(&diags[0], "trace")), [str_val("calls core::serve")]);
    let summary = field(&doc, "summary");
    assert_eq!(field(summary, "flow_total"), &Value::I64(2));
    assert_eq!(field(summary, "ok"), &Value::Bool(false));
    assert_eq!(field(field(&doc, "gates"), "flow"), &Value::Bool(false));
}

#[test]
fn check_rejects_arguments_it_does_not_read() {
    use crate::{parse_args, Cmd};
    let args = |a: &[&str]| a.iter().map(ToString::to_string).collect::<Vec<_>>();
    // A misspelt flag names itself instead of running the lenient gate.
    let err = parse_args(&args(&["check", "--stirct"])).expect_err("unknown flag");
    assert!(err.contains("`--stirct`"), "{err}");
    assert!(parse_args(&args(&["check", "--json", "extra"])).is_err());
    assert_eq!(
        parse_args(&args(&["check", "--strict", "--json"])),
        Ok(Cmd::Check { json: true, strict: true })
    );
    assert_eq!(parse_args(&[]), Ok(Cmd::Check { json: false, strict: false }));
    // The analyses have no standalone commands; `check` runs them all.
    for retired in ["flow", "units", "alloc", "graph"] {
        let err = parse_args(&args(&[retired, "--json"])).expect_err(retired);
        assert!(err.contains(&format!("unknown xtask command `{retired}`")), "{err}");
    }
    assert!(parse_args(&args(&["help", "--json"])).is_err());
    assert!(parse_args(&args(&["lint"])).is_err());
    assert_eq!(parse_args(&args(&["lint", "a.rs"])), Ok(Cmd::Lint(vec![PathBuf::from("a.rs")])));
}
