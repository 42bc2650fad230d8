//! Chaos soak suite (DESIGN.md §11): under any seeded *recoverable*
//! `FaultPlan`, the supervised serve loop must finish with cost ledgers
//! bit-identical to the fault-free batch run, with every recovery action
//! recorded in a deterministic `IncidentLog` — and a corrupted newest
//! checkpoint must restore from a rotated predecessor without manual
//! intervention. Batch comparisons run at the environment's
//! `MINICOST_WORKERS` setting (CI runs the suite at 1 and 4).
//!
//! Recoverability here is arithmetic, not luck: `FaultPlan::chaos` caps
//! total injections (`max_faults` 6) below the supervisor's default retry
//! allowance (8), so no retry loop can exhaust and every delivery anomaly
//! is read-repaired from the durable log.

use minicost::prelude::*;
use std::path::{Path, PathBuf};

fn setup() -> (Trace, CostModel) {
    (
        Trace::generate(&TraceConfig::small(30, 15, 23)),
        CostModel::new(PricingPolicy::azure_blob_2020()),
    )
}

/// A tiny-but-real trained agent; decisions are a deterministic function
/// of its (seeded) parameters, which is all ledger equality needs.
fn trained_policy(trace: &Trace, model: &CostModel) -> RlPolicy {
    let mut cfg = MiniCostConfig::fast();
    cfg.a3c.workers = 1;
    cfg.a3c.total_updates = 30;
    MiniCost::train(trace, model, &cfg).policy()
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minicost-chaos-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Batch config at the environment's worker count — under CI this pits the
/// chaos-recovered ledgers against both the single-threaded and the
/// sharded engine.
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

fn chaos_sup(seed: u64) -> SuperviseConfig {
    SuperviseConfig { fault_plan: Some(FaultPlan::chaos(seed)), ..SuperviseConfig::default() }
}

/// Flips one payload byte of a checkpoint file on disk — the out-of-band
/// corruption (cosmic ray, bad copy) the v2 checksum exists to catch.
fn corrupt_snapshot(path: &Path) {
    let mut bytes = std::fs::read(path).expect("snapshot on disk");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(path, &bytes).expect("write corrupted snapshot");
}

#[test]
fn recoverable_chaos_preserves_ledgers_bit_for_bit() {
    let (trace, model) = setup();
    let rl = trained_policy(&trace, &model);
    let mut policies: Vec<Box<dyn Policy>> =
        vec![Box::new(HotPolicy), Box::new(GreedyPolicy), Box::new(rl)];
    let mut any_incident = false;
    for policy in &mut policies {
        let name = policy.as_mut().name().to_owned();
        let batch = simulate(&trace, &model, policy.as_mut(), &batch_cfg(1));
        for chaos_seed in [1u64, 7, 23] {
            let dir = scratch_dir(&format!("soak-{name}-{chaos_seed}"));
            let cfg = ServeConfig {
                checkpoint_every: 2,
                checkpoint_path: Some(dir.join("snapshot.json")),
                ..ServeConfig::default()
            };
            let report = Supervisor::new(chaos_sup(chaos_seed))
                .run(&trace, &model, policy.as_mut(), &cfg)
                .expect("chaos() plans are recoverable by budget arithmetic");
            assert_bit_identical(&report.result, &batch, &format!("{name} seed {chaos_seed}"));
            assert_eq!(report.days_served_through, trace.days);
            any_incident |= !report.incidents.is_empty();

            // Replaying the identical plan in a fresh scratch dir must
            // reproduce the incident log bit-for-bit (virtual clock, no
            // wall time anywhere in the recovery path).
            let dir2 = scratch_dir(&format!("soak-replay-{name}-{chaos_seed}"));
            let cfg2 =
                ServeConfig { checkpoint_path: Some(dir2.join("snapshot.json")), ..cfg.clone() };
            let replay = Supervisor::new(chaos_sup(chaos_seed))
                .run(&trace, &model, policy.as_mut(), &cfg2)
                .expect("replay of a recoverable plan");
            assert_eq!(
                report.incidents, replay.incidents,
                "{name} seed {chaos_seed}: incident log must be deterministic"
            );
            assert_eq!(report.epochs, replay.epochs);
            assert_eq!(report.degraded_epochs, replay.degraded_epochs);
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&dir2);
        }
    }
    assert!(any_incident, "the chaos plans must have injected at least one fault");
}

#[test]
fn kill_and_restore_under_chaos_replays_identically() {
    let (trace, model) = setup();
    let rl = trained_policy(&trace, &model);
    let mut policies: Vec<Box<dyn Policy>> = vec![Box::new(GreedyPolicy), Box::new(rl)];
    for policy in &mut policies {
        let name = policy.as_mut().name().to_owned();
        let dir = scratch_dir(&format!("kill-{name}"));
        let base = ServeConfig {
            checkpoint_every: 2,
            checkpoint_path: Some(dir.join("snapshot.json")),
            ..ServeConfig::default()
        };

        // Phase 1: serve 8 of 15 days under chaos, then "crash".
        let cut = ServeConfig { max_days: Some(8), ..base.clone() };
        let partial = Supervisor::new(chaos_sup(11))
            .run(&trace, &model, policy.as_mut(), &cut)
            .expect("phase 1 under chaos");
        assert_eq!(partial.days_served_through, 8);
        assert!(partial.checkpoints_written > 0);

        // Phase 2: a fresh process (new supervisor, new injector, fresh
        // chaos schedule) restores from whatever rotation slot survived
        // and finishes the horizon.
        let resumed = Supervisor::new(chaos_sup(12))
            .run(&trace, &model, policy.as_mut(), &base)
            .expect("phase 2 restore under chaos");
        let day = resumed.resumed_from_day.expect("must resume from a checkpoint");
        assert!(day <= 8, "restored state cannot be ahead of the kill point");

        let batch = simulate(&trace, &model, policy.as_mut(), &batch_cfg(1));
        assert_bit_identical(&resumed.result, &batch, &format!("{name} kill/restore"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupted_newest_checkpoint_restores_from_rotation() {
    let (trace, model) = setup();
    let dir = scratch_dir("rotate");
    let path = dir.join("snapshot.json");
    let base = ServeConfig {
        checkpoint_every: 2,
        checkpoint_path: Some(path.clone()),
        ..ServeConfig::default()
    };

    // Seed base, `.1`, and `.2` rotation slots, then corrupt the newest.
    let cut = ServeConfig { max_days: Some(10), ..base.clone() };
    serve(&trace, &model, &GreedyPolicy, &cut).expect("seeding run");
    for slot in ["snapshot.json.1", "snapshot.json.2"] {
        assert!(dir.join(slot).exists(), "{slot} must exist after rotation");
    }
    corrupt_snapshot(&path);

    // Recovery needs no manual intervention: restore detects the checksum
    // failure, rolls back one slot, and replays the rest of the horizon to
    // the exact fault-free ledgers.
    let recovered = serve(&trace, &model, &GreedyPolicy, &base).expect("rotated restore");
    assert!(recovered.resumed_from_day.is_some());
    assert!(
        recovered.incidents.count(IncidentKind::CheckpointCorrupt) >= 1,
        "the corrupt slot must be recorded: {}",
        recovered.incidents.summary()
    );
    assert_eq!(recovered.incidents.count(IncidentKind::RolledBack), 1);
    let batch = simulate(&trace, &model, &GreedyPolicy, &batch_cfg(1));
    assert_bit_identical(&recovered.result, &batch, "restore after corruption");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fully_corrupt_rotation_set_is_unrecoverable() {
    let (trace, model) = setup();
    let dir = scratch_dir("unrecoverable");
    let path = dir.join("snapshot.json");
    let base = ServeConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(path.clone()),
        checkpoint_keep: 1,
        max_days: Some(5),
        ..ServeConfig::default()
    };
    serve(&trace, &model, &GreedyPolicy, &base).expect("seeding run");
    corrupt_snapshot(&path);
    corrupt_snapshot(&dir.join("snapshot.json.1"));

    let err = serve(&trace, &model, &GreedyPolicy, &base);
    assert!(
        matches!(err, Err(ServeError::Unrecoverable(_))),
        "every slot corrupt must abort, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_mode_pins_epochs_to_the_fallback_policy() {
    let (trace, model) = setup();
    // An unlimited-budget plan that fails *every* policy step: retries can
    // never succeed, so each epoch must fall through to the fallback.
    let always_failing = FaultPlan { policy_step_permille: 1000, ..FaultPlan::quiet(3) };

    // With a fallback, the run completes and every decision is the
    // fallback's: the ledgers equal a clean always-hot run bit-for-bit.
    let sup_cfg = SuperviseConfig {
        fault_plan: Some(always_failing.clone()),
        degraded: Some(DegradedPolicy::Hot),
    };
    let report = Supervisor::new(sup_cfg)
        .run(&trace, &model, &GreedyPolicy, &ServeConfig::default())
        .expect("degraded mode must keep serving");
    assert_eq!(report.degraded_epochs, report.epochs);
    assert_eq!(report.incidents.count(IncidentKind::Degraded) as u64, report.epochs);
    let hot = simulate(&trace, &model, &HotPolicy, &batch_cfg(1));
    assert_eq!(report.result.daily, hot.daily, "degraded run must bill as always-hot");
    assert_eq!(report.result.per_file, hot.per_file);
    assert_eq!(report.result.occupancy, hot.occupancy);

    // Without a fallback, the same plan exhausts the retry budget.
    let no_fallback =
        SuperviseConfig { fault_plan: Some(always_failing), ..SuperviseConfig::default() };
    let err =
        Supervisor::new(no_fallback).run(&trace, &model, &GreedyPolicy, &ServeConfig::default());
    assert!(matches!(err, Err(ServeError::RetriesExhausted { .. })), "{err:?}");
}
