//! Self-tests for the F5 `hot-alloc` analysis: the committed `f5_alloc.rs`
//! fixture must flag reachable allocating functions (and only those), the
//! allowlist and site waivers must suppress, and the real workspace must
//! be clean under the committed `xtask-alloc-allowlist.json`.

use crate::alloc;
use crate::flow::{Allowlist, FlowKind, FnGraph, Workspace};
use crate::flow_tests::fixture_ws;

#[test]
fn f5_fixture_flags_reachable_allocations_only() {
    let (ws, g) = fixture_ws("f5_alloc.rs");
    let roots = alloc::roots(&g);
    // Root discovery finds both fixed keys and the decide_batch_into impl.
    assert!(roots.contains(&"core::run_shard".to_string()), "{roots:?}");
    assert!(roots.contains(&"core::serve".to_string()), "{roots:?}");
    assert!(roots.contains(&"core::EveryDay::decide_batch_into".to_string()), "{roots:?}");
    let (diags, unused) = alloc::analyze(&ws, &g, &roots, &Allowlist::default());
    assert!(unused.is_empty(), "{unused:?}");
    let syms: Vec<&str> = diags.iter().map(|d| d.symbol.as_str()).collect();
    // `decide` (vec! + .clone(), one hop from run_shard) and the
    // decide_batch_into impl (.collect()) are flagged; the waived `labeled`
    // and the unreachable `offline_report` are not.
    assert!(syms.contains(&"core::decide"), "{diags:?}");
    assert!(syms.contains(&"core::EveryDay::decide_batch_into"), "{diags:?}");
    assert!(!syms.contains(&"core::labeled"), "{diags:?}");
    assert!(!syms.contains(&"core::offline_report"), "{diags:?}");
    assert!(diags.iter().all(|d| d.kind == FlowKind::HotAlloc));
    let decide = diags.iter().find(|d| d.symbol == "core::decide").expect("decide diagnostic");
    assert!(decide.message.contains("vec!"), "{decide:?}");
    assert!(decide.message.contains(".clone()"), "{decide:?}");
    assert!(decide.message.contains("run_shard"), "{decide:?}");
    let trace = decide.trace.join("\n");
    assert!(trace.contains("calls core::run_shard") || trace.contains("allocates in"), "{trace}");
}

#[test]
fn f5_allowlist_suppresses_and_reports_unused_entries() {
    let (ws, g) = fixture_ws("f5_alloc.rs");
    let roots = alloc::roots(&g);
    let allow = Allowlist::parse(
        r#"{"entries": [
            {"function": "core::EveryDay::decide_batch_into",
             "reason": "the trait API returns an owned buffer"},
            {"function": "core::gone_function",
             "reason": "stale entry"}
        ]}"#,
    )
    .expect("allowlist parses");
    let (diags, unused) = alloc::analyze(&ws, &g, &roots, &allow);
    // The allowlisted impl is suppressed; `decide` still fires.
    assert!(!diags.iter().any(|d| d.symbol == "core::EveryDay::decide_batch_into"), "{diags:?}");
    assert!(diags.iter().any(|d| d.symbol == "core::decide"), "{diags:?}");
    // The stale entry is reported for burn-down.
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert_eq!(unused[0].function, "core::gone_function", "{unused:?}");
}

#[test]
fn alloc_allowlist_rejects_blank_reasons() {
    let err = Allowlist::parse(r#"{"entries": [{"function": "core::f", "reason": "  "}]}"#)
        .expect_err("blank reason must be rejected");
    assert!(err.contains("reason"), "{err}");
    let err = Allowlist::parse(r#"{"wrong": 1}"#).expect_err("missing entries");
    assert!(err.contains("entries"), "{err}");
}

#[test]
fn alloc_tree_is_clean_under_committed_allowlist() {
    // The gate `cargo xtask check` step 3 enforces: every hot-path
    // allocation in the real workspace is hoisted, waived in place, or
    // justified in `xtask-alloc-allowlist.json`.
    let root = crate::walk::repo_root();
    let ws = Workspace::load_flow(&root).expect("workspace loads");
    let g = FnGraph::build(&ws);
    let allow = Allowlist::load(&root, alloc::ALLOWLIST).expect("allowlist parses");
    let roots = alloc::roots(&g);
    let (diags, unused) = alloc::analyze(&ws, &g, &roots, &allow);
    let fresh: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        fresh.is_empty(),
        "workspace has unjustified hot-path allocations:\n{}",
        fresh.join("\n")
    );
    // Every committed entry must still match a function (hygiene: the
    // allowlist shrinks as buffers get hoisted; --strict enforces this
    // in CI, the self-test keeps it honest locally too).
    assert!(unused.is_empty(), "stale alloc-allowlist entries: {unused:?}");
}
