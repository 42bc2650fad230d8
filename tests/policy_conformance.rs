//! Policy-conformance suite: every shipped policy, driven purely through
//! `dyn Policy`, must honor the batch-first trait contract the sharded
//! engine relies on (DESIGN.md §9) — `decide_batch_into` writes one tier
//! per batch entry whatever the buffer held, forks decide identically to
//! their originals, and the decision for a file never depends on which
//! other files share the batch. A run is its own episode: `simulate`
//! leaves the instance it is given as it found it, and an instance stepped
//! back in time decides as a fresh fork.

use minicost::prelude::*;

/// Decides `batch` on `day` into a fresh buffer.
fn decide(
    policy: &mut dyn Policy,
    fleet: &FleetState,
    model: &CostModel,
    day: usize,
    batch: &[usize],
    current: &[Tier],
) -> Vec<Tier> {
    let mut out = Vec::new();
    policy.decide_batch_into(&DecisionContext { day, fleet, model, batch, current }, &mut out);
    out
}

fn setup() -> (Trace, CostModel) {
    (Trace::generate(&TraceConfig::small(60, 14, 21)), CostModel::new(PricingPolicy::paper_2020()))
}

/// The paper's five strategies as trait objects: Hot, Cold, Greedy,
/// MiniCost (briefly trained — conformance is independent of training
/// quality), and Optimal; plus the forecast-driven planner of the
/// prediction ablation.
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
        Box::new(PredictivePolicy::new(forecast::Naive, 7)),
    ]
}

/// A deliberately non-uniform current-tier vector so conformance is not an
/// artifact of every file sitting in the same tier.
fn varied_tiers(n: usize) -> Vec<Tier> {
    let tiers: Vec<Tier> = Tier::all().collect();
    (0..n).map(|i| tiers[i % tiers.len()]).collect()
}

#[test]
fn names_are_nonempty_and_unique() {
    let (trace, model) = setup();
    let policies = all_policies(&trace, &model);
    let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
    for name in &names {
        assert!(!name.is_empty());
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate policy names: {names:?}");
}

#[test]
fn decide_batch_into_returns_one_tier_per_file_every_day() {
    let (trace, model) = setup();
    let fleet = FleetState::from_trace(&trace);
    let all: Vec<usize> = (0..trace.len()).collect();
    for policy in &mut all_policies(&trace, &model) {
        let mut current = vec![Tier::Hot; trace.len()];
        for day in 0..trace.days {
            current = decide(policy.as_mut(), &fleet, &model, day, &all, &current);
            assert_eq!(current.len(), trace.len(), "{} day {day}", policy.name());
        }
    }
}

#[test]
fn strided_batch_matches_singleton_batches() {
    let (trace, model) = setup();
    // A strided sub-fleet batch, as a shard would present it, decided into
    // a dirty buffer; then one file at a time on a single instance.
    let batch: Vec<usize> = (0..trace.len()).step_by(3).collect();
    let current = varied_tiers(batch.len());
    let fleet = FleetState::from_trace(&trace);
    for policy in &all_policies(&trace, &model) {
        for day in [0usize, 1, 7, trace.days - 1] {
            let ctx = DecisionContext {
                day,
                fleet: &fleet,
                model: &model,
                batch: &batch,
                current: &current,
            };
            let mut batched = vec![Tier::Archive; batch.len() + 5];
            policy.fork().decide_batch_into(&ctx, &mut batched);
            let mut single = policy.fork();
            let singly: Vec<Tier> = batch
                .iter()
                .zip(&current)
                .flat_map(|(&ix, &cur)| decide(single.as_mut(), &fleet, &model, day, &[ix], &[cur]))
                .collect();
            assert_eq!(batched, singly, "{} day {day}", policy.name());
        }
    }
}

#[test]
fn forks_decide_identically_to_their_original() {
    let (trace, model) = setup();
    let fleet = FleetState::from_trace(&trace);
    let all: Vec<usize> = (0..trace.len()).collect();
    for policy in &mut all_policies(&trace, &model) {
        let mut fork = policy.fork();
        assert_eq!(policy.name(), fork.name());
        let mut current = vec![Tier::Hot; trace.len()];
        for day in 0..trace.days {
            let a = decide(policy.as_mut(), &fleet, &model, day, &all, &current);
            let b = decide(fork.as_mut(), &fleet, &model, day, &all, &current);
            assert_eq!(a, b, "{} day {day}", policy.name());
            current = a;
        }
    }
}

#[test]
fn decisions_are_independent_of_batch_composition() {
    // The core sharding precondition: a file's tier must not change when
    // its batch shrinks from the whole fleet to a singleton.
    let (trace, model) = setup();
    let full: Vec<usize> = (0..trace.len()).collect();
    let current = varied_tiers(trace.len());
    let columns = FleetState::from_trace(&trace);
    for policy in &all_policies(&trace, &model) {
        for day in [1usize, 5, 10] {
            let fleet = decide(policy.fork().as_mut(), &columns, &model, day, &full, &current);
            for ix in (0..trace.len()).step_by(7) {
                let alone =
                    decide(policy.fork().as_mut(), &columns, &model, day, &[ix], &[current[ix]]);
                assert_eq!(
                    alone,
                    vec![fleet[ix]],
                    "{} day {day} file {ix}: decision depends on batch composition",
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn empty_batch_is_legal() {
    let (trace, model) = setup();
    let fleet = FleetState::from_trace(&trace);
    for policy in &mut all_policies(&trace, &model) {
        let ctx =
            DecisionContext { day: 0, fleet: &fleet, model: &model, batch: &[], current: &[] };
        let mut out = vec![Tier::Archive; 3];
        policy.decide_batch_into(&ctx, &mut out);
        assert!(out.is_empty(), "{}", policy.name());
    }
}

#[test]
fn out_of_order_days_decide_as_a_fresh_fork() {
    // `decide_batch_into` is a public `&mut self` call, so a caller can step
    // one instance back in time; the earlier day must decide as if fresh.
    let (trace, model) = setup();
    let fleet = FleetState::from_trace(&trace);
    let all: Vec<usize> = (0..trace.len()).collect();
    let current = varied_tiers(trace.len());
    for policy in &mut all_policies(&trace, &model) {
        let _ = decide(policy.as_mut(), &fleet, &model, 10, &all, &current);
        let reused = decide(policy.as_mut(), &fleet, &model, 3, &all, &current);
        let fresh = decide(policy.fork().as_mut(), &fleet, &model, 3, &all, &current);
        assert_eq!(reused, fresh, "{}: day 3 after day 10", policy.name());
    }
}

#[test]
fn a_run_never_changes_the_policy_it_is_given() {
    // Two tiles and 37 files more, so every worker count decides on
    // several forks (the engine sweeps 1024 files per tile).
    let trace = Trace::generate(&TraceConfig::small(2 * 1024 + 37, 21, 5));
    let model = CostModel::new(PricingPolicy::paper_2020());
    for policy in &all_policies(&trace, &model) {
        for workers in [1, 4] {
            let cfg = SimConfig::builder().seed(5).workers(workers).build().expect("valid config");
            let once = simulate(&trace, &model, policy.as_ref(), &cfg);
            let twice = simulate(&trace, &model, policy.as_ref(), &cfg);
            let fresh = simulate(&trace, &model, policy.fork().as_ref(), &cfg);
            for (run, what) in [(&twice, "second run"), (&fresh, "fresh fork")] {
                let at = format!("{} at {workers} worker(s), {what}", policy.name());
                assert_eq!(run.daily, once.daily, "{at}");
                assert_eq!(run.per_file, once.per_file, "{at}");
                assert_eq!(run.tier_changes, once.tier_changes, "{at}");
                assert_eq!(run.occupancy, once.occupancy, "{at}");
            }
        }
    }
}
