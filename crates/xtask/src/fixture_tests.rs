//! Self-tests: each committed fixture must trip its lint with `file:line`
//! diagnostics, and the escape hatch must suppress exactly the marked lines.
//!
//! Fixtures live in the `fixture` crate context, where *all* lints apply, so
//! a fixture written for one lint may legitimately trip others (e.g. a
//! dollar-named helper also trips L1). Each test therefore filters to the
//! lint under test before asserting counts.

use crate::lints::{scan_source, FileContext, Lint, Violation};
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
fn l4_fixture_trips_lock_discipline() {
    let v = scan_for("l4_lock.rs", Lint::LockDiscipline);
    // Guard across spawn + guard across long loop; scoped/dropped guards pass.
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("scope")), "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("loop")), "{v:?}");
}

#[test]
fn l5_fixture_trips_hashmap_iter_determinism() {
    let v = scan_for("l5_hashmap.rs", Lint::HashmapIterDeterminism);
    // `.values()` on a param, `for` over a HashSet, `.iter()` on a collected
    // map; lookup-only use, the BTreeMap fn (same param name!), the allowed
    // `.keys().count()`, and the test module stay silent.
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("by_id")), "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("members")), "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("index")), "{v:?}");
}

#[test]
fn l6_fixture_trips_float_reduction_order() {
    let v = scan_for("l6_float_order.rs", Lint::FloatReductionOrder);
    // sum over map values + fold over values; the slice sum and the allowed
    // order-independent count are exempt.
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("sum")), "{v:?}");
    assert!(v.iter().any(|v| v.message.contains("fold")), "{v:?}");
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
    for (lint, fixture) in [
        (Lint::MoneySafety, "l1_money.rs"),
        (Lint::LockDiscipline, "l4_lock.rs"),
        (Lint::HashmapIterDeterminism, "l5_hashmap.rs"),
        (Lint::FloatReductionOrder, "l6_float_order.rs"),
        (Lint::EscapeJustification, "l10_escapes.rs"),
    ] {
        assert!(!scan_for(fixture, lint).is_empty(), "{fixture} must trip {}", lint.name());
    }
}

#[test]
fn fixtures_fail_through_the_cli_entry_point() {
    // The same code path `cargo xtask lint crates/xtask/fixtures` uses must
    // report a nonzero violation count over the fixture directory.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let n = crate::lint_paths(&[dir]).expect("fixtures dir must be readable");
    // At minimum the per-fixture counts asserted above (L1: 3, L4: 2, L5: 3,
    // L6: 2, L10: 2); cross-lint hits on fixture helpers only push the total
    // higher.
    assert!(n >= 12, "all five fixtures must report violations, got {n}");
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

#[test]
fn diagnostics_json_matches_documented_schema() {
    use crate::json::Json;
    let report = crate::CheckReport {
        files: 42,
        violations: vec![Violation {
            lint: Lint::MoneySafety,
            file: "/repo/crates/core/src/x.rs".to_string(),
            line: 7,
            message: "dollars".to_string(),
        }],
        alloc_unused: vec!["unused alloc-allowlist entry: core::gone (old)".to_string()],
        strict: true,
        fmt_ok: true,
        clippy_ok: true,
        step_ms: vec![("lints", 3), ("flow", 5)],
        ..crate::CheckReport::default()
    };
    let doc = crate::diagnostics_json(&PathBuf::from("/repo"), &report);
    // Top-level keys and types per DESIGN.md §8.
    assert_eq!(doc.get("version").and_then(Json::as_num), Some(1));
    let lints = doc.get("lints").and_then(Json::as_arr).expect("lints array");
    assert_eq!(lints.len(), 5);
    let vs = doc.get("violations").and_then(Json::as_arr).expect("violations array");
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].get("lint").and_then(Json::as_str), Some("money-safety"));
    assert_eq!(vs[0].get("file").and_then(Json::as_str), Some("crates/core/src/x.rs"));
    assert_eq!(vs[0].get("line").and_then(Json::as_num), Some(7));
    let gates = doc.get("gates").expect("gates");
    assert_eq!(gates.get("lints").and_then(Json::as_bool), Some(false));
    assert_eq!(gates.get("flow").and_then(Json::as_bool), Some(true));
    assert_eq!(gates.get("units").and_then(Json::as_bool), Some(true));
    assert_eq!(gates.get("alloc").and_then(Json::as_bool), Some(true));
    // Strict + one unused alloc-allowlist entry fails the hygiene gate.
    assert_eq!(gates.get("allowlists").and_then(Json::as_bool), Some(false));
    assert_eq!(gates.get("fmt").and_then(Json::as_bool), Some(true));
    assert_eq!(gates.get("clippy").and_then(Json::as_bool), Some(true));
    let allowlists = doc.get("allowlists").expect("allowlists section");
    assert_eq!(allowlists.get("strict").and_then(Json::as_bool), Some(true));
    assert_eq!(allowlists.get("alloc_unused").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
    let flow = doc.get("flow").expect("flow section");
    assert_eq!(flow.get("kinds").and_then(Json::as_arr).map(<[Json]>::len), Some(5));
    assert_eq!(flow.get("diagnostics").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("files").and_then(Json::as_num), Some(42));
    assert_eq!(summary.get("total").and_then(Json::as_num), Some(1));
    assert_eq!(summary.get("flow_total").and_then(Json::as_num), Some(0));
    assert_eq!(summary.get("ok").and_then(Json::as_bool), Some(false));
    // Each step's wall time, keyed by step name, in run order.
    let step_ms = summary.get("step_ms").expect("step_ms");
    assert_eq!(step_ms.get("lints").and_then(Json::as_num), Some(3));
    assert_eq!(step_ms.get("flow").and_then(Json::as_num), Some(5));
    // The document round-trips through the parser.
    assert_eq!(Json::parse(&doc.render()).expect("reparse"), doc);
}
