//! Shard-determinism integration suite: the merged result of the parallel
//! engine must be bit-identical to the single-threaded simulation for every
//! policy, every worker count, and any shard execution order. Wall-clock
//! decision timings are the only fields exempt from the contract
//! (DESIGN.md §9).

use minicost::prelude::*;

fn setup() -> (Trace, CostModel) {
    (Trace::generate(&TraceConfig::small(67, 21, 17)), CostModel::new(PricingPolicy::paper_2020()))
}

fn all_policies(trace: &Trace, model: &CostModel) -> Vec<Box<dyn Policy>> {
    let mut cfg = MiniCostConfig::fast();
    cfg.a3c.workers = 1;
    cfg.a3c.total_updates = 30;
    let agent = MiniCost::train(trace, model, &cfg);
    vec![
        Box::new(HotPolicy),
        Box::new(ColdPolicy),
        Box::new(GreedyPolicy),
        Box::new(agent.policy()),
        Box::new(OptimalPolicy::plan(trace, model, Tier::Hot)),
    ]
}

fn config(workers: usize) -> SimConfig {
    SimConfig::builder().seed(13).workers(workers).build().expect("valid sim config")
}

/// Asserts every contract-covered ledger matches; decision timings are
/// deliberately not compared.
fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.policy_name, b.policy_name, "{what}");
    assert_eq!(a.daily, b.daily, "{what}: daily breakdowns differ");
    assert_eq!(a.per_file, b.per_file, "{what}: per-file ledgers differ");
    assert_eq!(a.tier_changes, b.tier_changes, "{what}: tier changes differ");
    assert_eq!(a.occupancy, b.occupancy, "{what}: occupancy differs");
}

#[test]
fn every_policy_is_bit_identical_across_worker_counts() {
    let (trace, model) = setup();
    for policy in &mut all_policies(&trace, &model) {
        let base = simulate(&trace, &model, policy.as_mut(), &config(1));
        for workers in [2usize, 4, 7] {
            let sharded = simulate(&trace, &model, policy.as_mut(), &config(workers));
            let what = format!("{} workers={workers}", base.policy_name);
            assert_bit_identical(&base, &sharded, &what);
            // The cumulative daily series — what figs 7/13 plot — matches
            // day by day, not just in total.
            for day in 0..trace.days {
                assert_eq!(base.cumulative_cost(day), sharded.cumulative_cost(day), "{what}");
            }
            assert_eq!(sharded.shard_decision_millis.len(), workers, "{what}");
        }
    }
}

#[test]
fn reused_decision_buffers_never_leak_stale_tiers() {
    // The engine hoists one decision buffer outside the day loop and
    // refills it via `decide_batch_into`; with `decide_every > 1` the
    // buffer carries a previous decision day's contents into the next
    // refill. Ledgers must stay bit-identical across worker counts (and
    // against the owned-buffer wrapper semantics) regardless.
    let (trace, model) = setup();
    for policy in &mut all_policies(&trace, &model) {
        let cadenced = |workers: usize| {
            SimConfig::builder()
                .seed(13)
                .workers(workers)
                .decide_every(3)
                .build()
                .expect("valid sim config")
        };
        let base = simulate(&trace, &model, policy.as_mut(), &cadenced(1));
        for workers in [4usize, 7] {
            let sharded = simulate(&trace, &model, policy.as_mut(), &cadenced(workers));
            let what = format!("{} decide_every=3 workers={workers}", base.policy_name);
            assert_bit_identical(&base, &sharded, &what);
        }
    }
}

#[test]
fn shard_seed_changes_partition_but_never_the_ledgers() {
    let (trace, model) = setup();
    let base = simulate(&trace, &model, &GreedyPolicy, &config(1));
    for seed in [0u64, 1, 99, u64::MAX] {
        let cfg = SimConfig::builder().seed(seed).workers(4).build().expect("valid sim config");
        let run = simulate(&trace, &model, &GreedyPolicy, &cfg);
        assert_bit_identical(&base, &run, &format!("seed={seed}"));
    }
}

#[test]
fn merge_is_independent_of_shard_execution_order() {
    // Runs the shards sequentially in a permuted order, then merges in
    // partition order: the merged ledgers must match the single-threaded
    // run exactly, proving the merge never leans on execution order.
    let (trace, model) = setup();
    let cfg = config(4);
    let fleet = FleetState::from_trace(&trace);
    let shards = partition(&trace, cfg.seed, cfg.workers);
    assert_eq!(shards.len(), 4);

    let mut runs: Vec<Option<ShardRun>> = (0..shards.len()).map(|_| None).collect();
    // A fixed permutation of {0,1,2,3} with no fixed points.
    for &s in &[2usize, 0, 3, 1] {
        let policy = GreedyPolicy;
        runs[s] = Some(run_shard(&fleet, &model, &policy, &cfg, &shards[s]));
    }
    let ordered: Vec<ShardRun> = runs.into_iter().map(|r| r.expect("all shards ran")).collect();
    let merged = merge_shards("greedy", trace.days, trace.len(), &ordered);

    let base = simulate(&trace, &model, &GreedyPolicy, &config(1));
    assert_bit_identical(&base, &merged, "permuted shard execution");
}

#[test]
fn money_ledgers_survive_permuted_merge_order() {
    // Integer micro-dollar accumulation is exact, so even merging the
    // shard list in a different order cannot perturb the Money ledgers
    // (only the shard_decision_millis ordering may differ).
    let (trace, model) = setup();
    let cfg = config(4);
    let fleet = FleetState::from_trace(&trace);
    let shards = partition(&trace, cfg.seed, cfg.workers);
    let runs: Vec<ShardRun> =
        shards.iter().map(|s| run_shard(&fleet, &model, &GreedyPolicy, &cfg, s)).collect();

    let forward = merge_shards("greedy", trace.days, trace.len(), &runs);
    let reversed: Vec<ShardRun> = runs.iter().rev().cloned().collect();
    let backward = merge_shards("greedy", trace.days, trace.len(), &reversed);
    assert_bit_identical(&forward, &backward, "reversed merge order");
}

#[test]
fn columnar_fleet_state_preserves_ledgers_across_worker_counts() {
    // The columnar FleetState is the only fleet state the engine reads.
    // Hand-running the shard loop over one shared FleetState at workers=1
    // and 4 must reproduce the end-to-end `simulate` ledgers exactly —
    // the columnar layout cannot perturb a single Money microdollar.
    let (trace, model) = setup();
    let fleet = FleetState::from_trace(&trace);
    for workers in [1usize, 4] {
        let cfg = config(workers);
        let shards = partition(&trace, cfg.seed, workers);
        let runs: Vec<ShardRun> =
            shards.iter().map(|s| run_shard(&fleet, &model, &GreedyPolicy, &cfg, s)).collect();
        let merged = merge_shards("greedy", trace.days, trace.len(), &runs);
        let direct = simulate(&trace, &model, &GreedyPolicy, &cfg);
        assert_bit_identical(&merged, &direct, &format!("columnar workers={workers}"));
    }
}

#[test]
fn rl_policy_sharding_survives_serde_round_trip() {
    // A loaded agent must shard exactly like the freshly trained one: the
    // fork path rebuilds the network from serialized parameters.
    let (trace, model) = setup();
    let mut cfg = MiniCostConfig::fast();
    cfg.a3c.workers = 1;
    cfg.a3c.total_updates = 30;
    let agent = MiniCost::train(&trace, &model, &cfg);
    let back: MiniCost = serde_json::from_str(&serde_json::to_string(&agent).unwrap()).unwrap();

    let a = simulate(&trace, &model, &agent.policy(), &config(4));
    let b = simulate(&trace, &model, &back.policy(), &config(4));
    assert_bit_identical(&a, &b, "serde round-trip under sharding");
}

#[test]
fn predictive_policy_is_bit_identical_across_worker_counts() {
    // Plans are keyed by global file index and rebuilt lazily by each
    // fork, so a sharded run must replay the single-threaded ledgers
    // exactly, at the daily cadence and between refits.
    let (trace, model) = setup();
    for decide_every in [1usize, 3] {
        let cfg = |workers: usize| {
            SimConfig::builder()
                .seed(13)
                .workers(workers)
                .decide_every(decide_every)
                .build()
                .expect("valid sim config")
        };
        let policy = PredictivePolicy::new(forecast::Naive, 7);
        let base = simulate(&trace, &model, &policy, &cfg(1));
        let sharded = simulate(&trace, &model, &policy, &cfg(4));
        let what = format!("predictive decide_every={decide_every} workers=4");
        assert_bit_identical(&base, &sharded, &what);
        assert!(base.tier_changes > 0, "{what}: the planner never moved a file");
    }
}
