//! Self-tests for the F4 `unit-dimensions` analysis: the committed
//! `f4_units.rs` fixture must trip every rejection rule with the
//! documented precision, every annotation in `f4_annotations.rs` must be
//! reported as dropped and fail the strict gate, the real workspace must be
//! clean, and a seeded property test round-trips every `PricingPolicy`
//! preset shape through the dimension table.

use crate::flow::{Allowlist, FlowDiag, FlowKind, FnGraph, Workspace};
use crate::flow_tests::fixture_ws;
use crate::{check_doc, units, CheckReport};
use std::path::Path;

fn symbols(diags: &[FlowDiag]) -> Vec<&str> {
    diags.iter().map(|d| d.symbol.as_str()).collect()
}

#[test]
fn f4_fixture_trips_every_rejection_rule() {
    let (ws, g) = fixture_ws("f4_units.rs");
    let (diags, warnings) = units::analyze(&ws, &g);
    assert!(warnings.is_empty(), "{warnings:?}");
    let syms = symbols(&diags);
    // Mixed addition, cross-dimension comparison, and the three Money
    // sink violations (direct slip, declared return, derived return).
    for sym in [
        "core::mixed_add",
        "core::mixed_compare",
        "core::month_day_slip",
        "core::bill_via_declared",
        "core::bill_via_derived",
    ] {
        assert!(syms.contains(&sym), "missing {sym}: {diags:?}");
    }
    // The correct proration, polymorphic smoothing, and the waived site
    // stay silent.
    for sym in ["core::storage_day", "core::smoothed", "core::waived"] {
        assert!(!syms.contains(&sym), "false positive on {sym}: {diags:?}");
    }
    assert!(diags.iter().all(|d| d.kind == FlowKind::UnitDimensions));
    assert_eq!(diags.len(), 5, "{diags:?}");
}

#[test]
fn f4_sink_diagnostics_carry_source_traces() {
    let (ws, g) = fixture_ws("f4_units.rs");
    let (diags, _) = units::analyze(&ws, &g);
    let slip = diags
        .iter()
        .find(|d| d.symbol == "core::month_day_slip")
        .expect("month/day slip diagnostic");
    assert!(slip.message.contains("$/month"), "{slip:?}");
    assert!(slip.message.contains("Money::from_dollars"), "{slip:?}");
    let trace = slip.trace.join("\n");
    assert!(trace.contains("sink Money::from_dollars"), "{trace}");
    assert!(trace.contains("RATE_GB_MONTH"), "{trace}");
    // The interprocedural diagnostic names the helper's provenance.
    let derived = diags
        .iter()
        .find(|d| d.symbol == "core::bill_via_derived")
        .expect("derived-return diagnostic");
    assert!(derived.trace.join("\n").contains("derived_rate"), "{derived:?}");
}

#[test]
fn f4_dropped_annotations_fail_strict_check() {
    let (ws, g) = fixture_ws("f4_annotations.rs");
    let (_, warnings) = units::analyze(&ws, &g);
    for want in [
        "unparseable xtask-unit expression `GBB`",
        "conflicting xtask-unit for `total`: $ vs GB",
        "xtask-unit declaration attaches to no binding",
        "xtask-unit(return) has no function below it",
    ] {
        assert!(warnings.iter().any(|w| w.message.contains(want)), "missing {want}: {warnings:?}");
    }
    assert_eq!(warnings.len(), 4, "{warnings:?}");

    // Through the gate: the lenient check passes and the strict one fails
    // the units gate, with every dropped annotation in the document.
    let mut r = CheckReport { fmt_ok: true, clippy_ok: true, ..CheckReport::default() };
    r.run_graph_analyses(&ws, &Allowlist::default(), &Allowlist::default());
    assert!(r.unit_diags.is_empty(), "{:?}", r.unit_diags);
    assert!(r.ok(), "without --strict dropped annotations only warn");
    r.strict = true;
    assert!(!r.gates().units && !r.ok(), "--strict must fail on dropped annotations");
    let doc = check_doc(Path::new("/repo"), &r);
    assert_eq!(doc.flow.unit_annotations.len(), 4, "{doc:?}");
    assert!(doc.flow.unit_annotations[0].starts_with("crates/core/src/fixture.rs:6: "), "{doc:?}");
    assert!(!doc.summary.ok, "{doc:?}");
}

#[test]
fn units_tree_is_clean() {
    // The gate `cargo xtask check` step 3 enforces: every F4 diagnostic in
    // the real workspace is fixed or waived in place.
    let root = crate::walk::repo_root();
    let ws = Workspace::load_flow(&root).expect("workspace loads");
    let g = FnGraph::build(&ws);
    let (diags, warnings) = units::analyze(&ws, &g);
    assert!(warnings.is_empty(), "workspace has unit-declaration warnings: {warnings:?}");
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        rendered.is_empty(),
        "workspace has unit-dimension diagnostics:\n{}",
        rendered.join("\n")
    );
}

/// splitmix64: a tiny seeded generator so the property test needs no
/// dependencies and stays reproducible.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A price-like decimal in (0, ~65): four fractional digits, nonzero.
    fn price(&mut self) -> String {
        let cents = self.next() % 650_000 + 1;
        format!("{}.{:04}", cents / 10_000, cents % 10_000)
    }
}

/// Renders a synthetic annotated pricing module mirroring the real
/// `TierPrices` arithmetic, with randomized preset prices. When `prorate`
/// is false the DAYS_PER_MONTH division is dropped — the month/day slip
/// the analysis exists to catch.
fn pricing_source(rng: &mut SplitMix64, prorate: bool) -> String {
    let proration = if prorate { " / DAYS_PER_MONTH" } else { "" };
    format!(
        r"//! Synthetic preset.

/// Ops per priced unit.
/// xtask-unit: 1
pub const OPS_PER_PRICE_UNIT: f64 = 10_000.0;

/// Billing-month length.
/// xtask-unit: day/month
pub const DAYS_PER_MONTH: f64 = 30.0;

/// Monthly storage rate.
/// xtask-unit: $/GB·month
pub const STORAGE_GB_MONTH: f64 = {p0};

/// Read request rate.
/// xtask-unit: $/ops
pub const READ_PER_10K: f64 = {p1};

/// Retrieval data rate.
/// xtask-unit: $/GB·ops
pub const RETRIEVAL_PER_GB: f64 = {p2};

/// Daily storage charge for one file.
pub fn storage_day(size_gb: f64) -> Money {{
    Money::from_dollars(STORAGE_GB_MONTH{proration} * size_gb)
}}

/// Read charge: per-request plus retrieval, scaled by op count.
pub fn read_cost(ops: f64, size_gb: f64) -> Money {{
    let per_op = READ_PER_10K / OPS_PER_PRICE_UNIT
        + RETRIEVAL_PER_GB / OPS_PER_PRICE_UNIT * size_gb;
    Money::from_dollars(ops * per_op)
}}

/// Write charge reuses the read shape.
pub fn write_cost(ops: f64, size_gb: f64) -> Money {{
    read_cost(ops, size_gb)
}}
",
        p0 = rng.price(),
        p1 = rng.price(),
        p2 = rng.price(),
    )
}

#[test]
fn preset_arithmetic_round_trips_the_dimension_table() {
    // Property (seeded): for any preset prices, the real cost-model shape
    // (storage_day / read_cost / write_cost) derives clean dimensions —
    // and the same shape minus the month→day proration always trips F4.
    let mut rng = SplitMix64(0x5eed_cafe);
    for round in 0..32 {
        let good = pricing_source(&mut rng, true);
        let ws = Workspace::from_sources(&[("pricing", "crates/pricing/src/synth.rs", &good)]);
        let g = FnGraph::build(&ws);
        let (diags, warnings) = units::analyze(&ws, &g);
        assert!(diags.is_empty(), "round {round}: clean preset flagged:\n{diags:?}");
        assert!(warnings.is_empty(), "round {round}: {warnings:?}");

        let slipped = pricing_source(&mut rng, false);
        let ws = Workspace::from_sources(&[("pricing", "crates/pricing/src/synth.rs", &slipped)]);
        let g = FnGraph::build(&ws);
        let (diags, _) = units::analyze(&ws, &g);
        let slip = diags
            .iter()
            .find(|d| d.symbol == "pricing::storage_day")
            .unwrap_or_else(|| panic!("round {round}: month/day slip not caught: {diags:?}"));
        assert!(slip.message.contains("$/month"), "{slip:?}");
        assert!(slip.trace.iter().any(|s| s.contains("STORAGE_GB_MONTH")), "{slip:?}");
    }
}
