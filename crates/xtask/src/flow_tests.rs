//! Self-tests for the F1–F2 flow analyses: each committed `f*` fixture must
//! trip its analysis with the documented precision, and the real workspace
//! must be clean modulo the panic allowlist. Also
//! holds the call-graph snapshot test pinning `Policy` dispatch coverage.

use crate::flow::{FlowDiag, FlowKind, FnGraph, Workspace};
use crate::reach::Allowlist;
use crate::{reach, taint};
use std::path::PathBuf;

pub(crate) fn fixture_src(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

/// Loads one fixture as a single-file workspace under crate `core`.
pub(crate) fn fixture_ws(name: &str) -> (Workspace, FnGraph) {
    let src = fixture_src(name);
    let ws = Workspace::from_sources(&[("core", "crates/core/src/fixture.rs", &src)]);
    let g = FnGraph::build(&ws);
    (ws, g)
}

#[test]
fn f1_fixture_taints_sink_through_call_hops() {
    let (ws, g) = fixture_ws("f1_taint.rs");
    let t = taint::compute(&ws, &g);
    let diags = taint::diagnostics(&ws, &g, &t);
    // Exactly one wall-clock sink: `Jittery::decide_batch_into`, whose
    // SystemTime::now() source sits behind the score_all -> jitter ->
    // wall_clock_nanos chain. (The `FaultPlan` entropy sinks are the next
    // test's.)
    let clock: Vec<&FlowDiag> = diags.iter().filter(|d| !d.symbol.contains("FaultPlan")).collect();
    assert_eq!(clock.len(), 1, "{diags:?}");
    let d = clock[0];
    assert_eq!(d.kind, FlowKind::DeterminismTaint);
    assert_eq!(d.symbol, "core::Jittery::decide_batch_into", "{d:?}");
    let trace = d.trace.join("\n");
    assert!(trace.contains("wall_clock_nanos"), "{trace}");
    assert!(trace.contains("SystemTime::now()"), "{trace}");
    // The justified log-only read must not taint `LogOnly`'s sink, and the
    // seeded path must not taint `Seeded`'s.
    assert!(!diags.iter().any(|d| d.symbol.contains("LogOnly")), "{diags:?}");
    assert!(!diags.iter().any(|d| d.symbol.contains("Seeded")), "{diags:?}");
}

#[test]
fn f1_fixture_taints_sinks_through_os_entropy() {
    let (ws, g) = fixture_ws("f1_taint.rs");
    let t = taint::compute(&ws, &g);
    let diags = taint::diagnostics(&ws, &g, &t);
    // Each OS-entropy read taints its own sink, directly or through a hop.
    for (sink, read) in [
        ("core::FaultPlan::fires_thread_rng", "thread_rng()"),
        ("core::FaultPlan::fires_rand_rng", "rand::rng()"),
        ("core::FaultPlan::fires_from_entropy", "from_entropy()"),
        ("core::FaultPlan::fires_os_rng", "OsRng"),
    ] {
        let d = diags
            .iter()
            .find(|d| d.symbol == sink)
            .unwrap_or_else(|| panic!("{sink} must be tainted: {diags:?}"));
        assert_eq!(d.kind, FlowKind::DeterminismTaint);
        let trace = d.trace.join("\n");
        assert!(trace.contains(&format!("reads {read} at")), "{sink}: {trace}");
    }
    // The seeded construction beside them stays clean.
    assert!(!diags.iter().any(|d| d.symbol.contains("fires_seeded")), "{diags:?}");
}

#[test]
fn f2_fixture_flags_reachable_panics_only() {
    let (ws, g) = fixture_ws("f2_panic.rs");
    let allow = Allowlist::parse(
        r#"{"entries": [
            {"function": "core::audited_assert", "reason": "fail-fast by contract"},
            {"function": "core::never_called", "reason": "stale entry"}
        ]}"#,
    )
    .expect("allowlist parses");
    let (diags, unused) = reach::analyze(&ws, &g, &["core::serve"], &allow);
    let symbols: Vec<&str> = diags.iter().map(|d| d.symbol.as_str()).collect();
    // bill_day (index) and cadence_hit (modulo + unwrap) are reachable and
    // unlisted; the allowlisted assert, the waived index, and the
    // unreachable offline_report are not reported.
    assert_eq!(symbols, vec!["core::bill_day", "core::cadence_hit"], "{diags:?}");
    let cadence = &diags[1];
    assert!(cadence.message.contains("1 unwrap"), "{cadence:?}");
    assert!(cadence.message.contains("1 modulo"), "{cadence:?}");
    assert!(cadence.trace.iter().any(|s| s.contains("core::serve")), "{cadence:?}");
    // The entry matching nothing is returned for the hygiene gate.
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert_eq!(unused[0].function, "core::never_called", "{unused:?}");
}

#[test]
fn f2_lint_attributes_are_not_panic_sites() {
    let src = r#"
        pub fn serve(x: f64) -> u64 {
            #[expect(clippy::cast_possible_truncation, reason = "saturating")]
            let n = x as u64;
            n
        }
    "#;
    let ws = Workspace::from_sources(&[("core", "crates/core/src/x.rs", src)]);
    let g = FnGraph::build(&ws);
    let (diags, _) = reach::analyze(&ws, &g, &["core::serve"], &Allowlist::default());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn f2_allowlist_rejects_empty_reasons_and_junk() {
    assert!(Allowlist::parse("{}").is_err());
    assert!(Allowlist::parse(r#"{"entries": [{"function": "f"}]}"#).is_err());
    assert!(
        Allowlist::parse(r#"{"entries": [{"function": "f", "reason": "  "}]}"#).is_err(),
        "allowlist entries are audits; a blank reason is no audit"
    );
}

#[test]
fn flow_diag_display_is_file_line_formatted() {
    let d = FlowDiag {
        kind: FlowKind::PanicReachability,
        file: "crates/core/src/serve.rs".to_string(),
        line: 651,
        symbol: "core::serve".to_string(),
        message: "m".to_string(),
        trace: vec!["calls x".to_string()],
    };
    let rendered = d.to_string();
    assert!(rendered.starts_with("crates/core/src/serve.rs:651: flow[F2 panic-reachability]"));
    assert!(rendered.contains("\n    calls x"));
}

#[test]
fn call_graph_snapshot_covers_policy_dispatch() {
    // Satellite gate: the symbol/call graph must keep resolving the Policy
    // surface the flow analyses depend on. If an impl or dispatch edge
    // disappears, taint and reachability silently lose coverage.
    let root = crate::walk::repo_root();
    let ws = Workspace::load_flow(&root).expect("workspace loads");
    let g = FnGraph::build(&ws);

    // The trait lives in core and declares exactly one decision method.
    let mut methods: Vec<&str> =
        g.nodes.iter().filter_map(|n| n.key.strip_prefix("core::Policy::")).collect();
    methods.sort_unstable();
    assert_eq!(methods, ["decide_batch_into", "fork", "name"], "Policy surface drifted");
    let decide_into = g.named("decide_batch_into");
    assert!(decide_into.len() >= 4, "expected several decide_batch_into defs: {decide_into:?}");
    let crates: Vec<&str> = decide_into.iter().map(|&ix| g.nodes[ix].krate.as_str()).collect();
    assert!(crates.contains(&"core"), "{crates:?}");

    // The batch engine's decision loop links to EVERY decide_batch_into
    // impl — the conservative union that models `dyn Policy` dispatch.
    let run_shard = g.by_key("core::run_shard").expect("core::run_shard");
    for &impl_ix in decide_into {
        assert!(
            g.nodes[run_shard].callees.contains(&impl_ix),
            "run_shard must link to {} for dispatch coverage",
            g.nodes[impl_ix].key
        );
    }

    // The F2 roots exist; a typo here would silently empty the analysis.
    for key in reach::ROOTS {
        assert!(g.by_key(key).is_some(), "F2 root {key} not in the call graph");
    }
}

#[test]
fn flow_tree_is_clean_modulo_allowlist() {
    // The gate `cargo xtask check` enforces: every flow diagnostic in the
    // real workspace is fixed, waived in place, or allowlisted.
    let root = crate::walk::repo_root();
    let ws = Workspace::load_flow(&root).expect("workspace loads");
    let g = FnGraph::build(&ws);
    let allow = Allowlist::load(&root).expect("allowlist parses");
    let (diags, _unused) = crate::flow::analyze(&ws, &g, &allow);
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(rendered.is_empty(), "workspace has flow diagnostics:\n{}", rendered.join("\n"));
}
