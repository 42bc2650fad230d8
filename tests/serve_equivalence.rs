//! Streaming-vs-batch equivalence suite (DESIGN.md §10): in exact mode the
//! online serving loop must reproduce the batch simulator's `Money`
//! ledgers bit-for-bit — for every policy, at every decision cadence, and
//! across a checkpoint/restore cycle, under any `MINICOST_WORKERS` setting
//! (CI runs the suite at 1 and 4). Wall-clock decision timings are the
//! only exempt fields, exactly as in the shard-determinism contract.

use minicost::prelude::*;
use std::path::PathBuf;

fn setup() -> (Trace, CostModel) {
    (
        Trace::generate(&TraceConfig::small(30, 15, 23)),
        CostModel::new(PricingPolicy::azure_blob_2020()),
    )
}

/// A tiny-but-real trained agent; decisions are a deterministic function
/// of its (seeded) parameters, which is all equivalence needs.
fn trained_policy(trace: &Trace, model: &CostModel) -> RlPolicy {
    let mut cfg = MiniCostConfig::fast();
    cfg.a3c.workers = 1;
    cfg.a3c.total_updates = 30;
    MiniCost::train(trace, model, &cfg).policy()
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minicost-serve-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Batch config at the environment's worker count — under CI this runs the
/// comparison against both the single-threaded and the sharded engine.
fn batch_cfg(decide_every: usize) -> SimConfig {
    SimConfig::builder()
        .seed(23)
        .decide_every(decide_every)
        .workers(default_workers())
        .build()
        .expect("valid sim config")
}

fn assert_bit_identical(streamed: &SimResult, batch: &SimResult, what: &str) {
    assert_eq!(streamed.daily, batch.daily, "{what}: daily breakdowns differ");
    assert_eq!(streamed.per_file, batch.per_file, "{what}: per-file ledgers differ");
    assert_eq!(streamed.tier_changes, batch.tier_changes, "{what}: tier changes differ");
    assert_eq!(streamed.occupancy, batch.occupancy, "{what}: occupancy differs");
}

#[test]
fn streaming_matches_batch_for_every_policy() {
    let (trace, model) = setup();
    let rl = trained_policy(&trace, &model);
    let mut policies: Vec<Box<dyn Policy>> =
        vec![Box::new(HotPolicy), Box::new(ColdPolicy), Box::new(GreedyPolicy), Box::new(rl)];
    for policy in &mut policies {
        let batch = simulate(&trace, &model, policy.as_mut(), &batch_cfg(1));
        let report = serve(&trace, &model, policy.as_mut(), &ServeConfig::default())
            .expect("serve runs clean");
        assert_bit_identical(&report.result, &batch, policy.as_mut().name());
        assert_eq!(report.days_served_through, trace.days);
        assert!(report.resumed_from_day.is_none());
    }
}

#[test]
fn streaming_matches_batch_at_coarser_cadence() {
    let (trace, model) = setup();
    // An untrained shipped-width actor whose decisions at both cadences
    // depend on serve's carried prior sums (zeroing them fails this test;
    // the briefly trained agent's decisions do not move). At cadence 7 the
    // day-14 decision is the first to read a full window plus those sums.
    let spec = MiniCostConfig::default().net_spec();
    let params = spec.build_actor(5).param_vector();
    let rl = RlPolicy::from_params(spec, &params, FeatureConfig::default());
    let mut policies: Vec<Box<dyn Policy>> = vec![Box::new(GreedyPolicy), Box::new(rl)];
    for policy in &mut policies {
        for decide_every in [3usize, 7] {
            let batch = simulate(&trace, &model, policy.as_mut(), &batch_cfg(decide_every));
            let cfg = ServeConfig { decide_every, ..ServeConfig::default() };
            let report = serve(&trace, &model, policy.as_mut(), &cfg).expect("serve runs clean");
            let what = format!("{} cadence {decide_every}", policy.as_mut().name());
            assert_bit_identical(&report.result, &batch, &what);
        }
    }
}

#[test]
fn interrupted_run_resumes_bit_identically() {
    let (trace, model) = setup();
    let rl = trained_policy(&trace, &model);
    let mut policies: Vec<Box<dyn Policy>> = vec![Box::new(GreedyPolicy), Box::new(rl)];
    for policy in &mut policies {
        let name = policy.as_mut().name().to_owned();
        let dir = scratch_dir(&format!("resume-{name}"));
        let path = dir.join("snapshot.json");
        let base = ServeConfig {
            checkpoint_every: 2,
            checkpoint_path: Some(path.clone()),
            ..ServeConfig::default()
        };

        // Phase 1: serve 7 of 15 days, then stop (shutdown snapshot).
        let cut = ServeConfig { max_days: Some(7), ..base.clone() };
        let partial = serve(&trace, &model, policy.as_mut(), &cut).expect("partial run");
        assert_eq!(partial.days_served_through, 7);
        assert!(partial.checkpoints_written > 0);
        assert!(path.exists(), "snapshot must be on disk");

        // Phase 2: a fresh invocation restores and finishes the horizon.
        let resumed = serve(&trace, &model, policy.as_mut(), &base).expect("resumed run");
        assert_eq!(resumed.resumed_from_day, Some(7));
        assert_eq!(resumed.days_served_through, trace.days);

        let batch = simulate(&trace, &model, policy.as_mut(), &batch_cfg(1));
        assert_bit_identical(&resumed.result, &batch, &format!("{name} resumed"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_mid_epoch_replays_from_an_older_checkpoint() {
    let (trace, model) = setup();
    let dir = scratch_dir("kill");
    let path = dir.join("snapshot.json");
    let stale = dir.join("stale.json");
    let base = ServeConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(path.clone()),
        ..ServeConfig::default()
    };

    // Serve 5 days and keep a copy of that snapshot.
    let cut = ServeConfig { max_days: Some(5), ..base.clone() };
    serve(&trace, &model, &GreedyPolicy, &cut).expect("first segment");
    std::fs::copy(&path, &stale).expect("preserve old snapshot");

    // Serve further (days 5..10), then simulate a crash that lost every
    // checkpoint since day 5 by restoring the stale snapshot file.
    let cut2 = ServeConfig { max_days: Some(10), ..base.clone() };
    serve(&trace, &model, &GreedyPolicy, &cut2).expect("second segment");
    std::fs::copy(&stale, &path).expect("roll snapshot back");

    // The recovery run replays days 5.. from the old state; stateless
    // per-(file, day) event seeding makes the replayed suffix — and thus
    // the final ledgers — bit-identical to the never-killed run.
    let recovered = serve(&trace, &model, &GreedyPolicy, &base).expect("recovery run");
    assert_eq!(recovered.resumed_from_day, Some(5));
    let batch = simulate(&trace, &model, &GreedyPolicy, &batch_cfg(1));
    assert_bit_identical(&recovered.result, &batch, "replay after rollback");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incompatible_snapshots_are_rejected() {
    let (trace, model) = setup();
    let dir = scratch_dir("mismatch");
    let path = dir.join("snapshot.json");
    let base = ServeConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(path.clone()),
        max_days: Some(4),
        ..ServeConfig::default()
    };
    serve(&trace, &model, &GreedyPolicy, &base).expect("seed snapshot");

    // Wrong policy.
    let err = serve(&trace, &model, &HotPolicy, &base);
    assert!(matches!(err, Err(ServeError::SnapshotMismatch(_))), "{err:?}");
    // Wrong stream seed.
    let err = serve(&trace, &model, &GreedyPolicy, &ServeConfig { seed: 99, ..base.clone() });
    assert!(matches!(err, Err(ServeError::SnapshotMismatch(_))), "{err:?}");
    // Wrong cadence.
    let err =
        serve(&trace, &model, &GreedyPolicy, &ServeConfig { decide_every: 2, ..base.clone() });
    assert!(matches!(err, Err(ServeError::SnapshotMismatch(_))), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bounded_mode_keeps_billing_exact_for_feature_free_policies() {
    let (trace, model) = setup();
    // Hot/Cold never read features, so even fully sketched statistics must
    // leave their ledgers bit-identical to batch: billing is exact by
    // construction, not by tracking accuracy.
    for (mk, name) in [
        (Box::new(HotPolicy) as Box<dyn Policy>, "hot"),
        (Box::new(ColdPolicy) as Box<dyn Policy>, "cold"),
    ] {
        let mut policy = mk;
        let batch = simulate(&trace, &model, policy.as_mut(), &batch_cfg(1));
        let cfg = ServeConfig { max_tracked: Some(2), ..ServeConfig::default() };
        let report = serve(&trace, &model, policy.as_mut(), &cfg).expect("bounded serve");
        assert_bit_identical(&report.result, &batch, name);
    }
}
