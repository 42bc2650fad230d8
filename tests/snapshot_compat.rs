//! Checkpoints in the legacy v2 JSON format still restore now that every
//! write is binary v3 (DESIGN.md §10).
//!
//! The two fixtures under `tests/fixtures/` were written by the last v2
//! build: `serve` with `GreedyPolicy` and Azure Blob 2020 pricing over
//! `Trace::generate(&TraceConfig::small(16, 12, 31))`, stream seed 31,
//! deciding and checkpointing every day:
//! - `snapshot-v2-exact.ckpt`: exact statistics, window 7, cut at
//!   `max_days` 5;
//! - `snapshot-v2-bounded.ckpt`: bounded statistics (`max_tracked` 3),
//!   window 2, cut at `max_days` 4.

use minicost::prelude::*;
use std::path::{Path, PathBuf};

fn setup() -> (Trace, CostModel) {
    (
        Trace::generate(&TraceConfig::small(16, 12, 31)),
        CostModel::new(PricingPolicy::azure_blob_2020()),
    )
}

/// The configuration the fixture was written under, checkpointing to
/// `path` (or nowhere).
fn config(max_tracked: Option<usize>, window: usize, path: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        seed: 31,
        window,
        max_tracked,
        checkpoint_every: u64::from(path.is_some()),
        checkpoint_path: path,
        ..ServeConfig::default()
    }
}

/// Copies fixture `name` into a fresh scratch directory and returns the
/// copy's path, so the test can resume from (and overwrite) it.
fn staged(name: &str) -> PathBuf {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures").join(name);
    let dir = std::env::temp_dir().join(format!("minicost-compat-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("checkpoint");
    std::fs::copy(&fixture, &path).expect("fixture present");
    assert!(std::fs::read(&path).expect("staged").starts_with(b"minicost-snapshot v2 "));
    path
}

fn assert_same_ledgers(got: &SimResult, want: &SimResult, what: &str) {
    assert_eq!(got.daily, want.daily, "{what}: daily breakdowns differ");
    assert_eq!(got.per_file, want.per_file, "{what}: per-file ledgers differ");
    assert_eq!(got.tier_changes, want.tier_changes, "{what}: tier changes differ");
    assert_eq!(got.occupancy, want.occupancy, "{what}: occupancy differs");
}

fn assert_rewritten_as_v3(path: &Path) {
    let bytes = std::fs::read(path).expect("rewritten checkpoint");
    assert!(bytes.starts_with(b"minicost-snapshot v3 "), "the resumed run must write v3");
}

#[test]
fn exact_v2_checkpoint_resumes_bit_identically_to_simulate() {
    let (trace, model) = setup();
    let path = staged("snapshot-v2-exact.ckpt");
    let cfg = config(None, 7, Some(path.clone()));
    let resumed = serve(&trace, &model, &GreedyPolicy, &cfg).expect("v2 resume");
    assert_eq!(resumed.resumed_from_day, Some(5));
    assert_eq!(resumed.days_served_through, trace.days);
    let batch_cfg =
        SimConfig::builder().seed(31).workers(default_workers()).build().expect("valid sim config");
    let batch = simulate(&trace, &model, &GreedyPolicy, &batch_cfg);
    assert_same_ledgers(&resumed.result, &batch, "exact v2 resume");
    assert_rewritten_as_v3(&path);
    let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
}

#[test]
fn bounded_v2_checkpoint_resumes_bit_identically_to_an_uninterrupted_run() {
    let (trace, model) = setup();
    let path = staged("snapshot-v2-bounded.ckpt");
    let cfg = config(Some(3), 2, Some(path.clone()));
    let resumed = serve(&trace, &model, &GreedyPolicy, &cfg).expect("v2 resume");
    assert_eq!(resumed.resumed_from_day, Some(4));
    let whole = serve(&trace, &model, &GreedyPolicy, &config(Some(3), 2, None))
        .expect("uninterrupted bounded run");
    assert_same_ledgers(&resumed.result, &whole.result, "bounded v2 resume");
    assert_rewritten_as_v3(&path);
    let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
}
