//! Integration of the §5.2 aggregation enhancement with the simulator and
//! the tier-assignment policies: the Fig. 13 pipeline.

use minicost::prelude::*;
use tracegen::CoRequestModel;

fn setup() -> (Trace, CostModel) {
    let trace = Trace::generate(&TraceConfig {
        files: 150,
        days: 28,
        seed: 1313,
        ..TraceConfig::default()
    });
    (trace, CostModel::new(PricingPolicy::azure_blob_2020()))
}

/// One full Algorithm 2 round: evaluate Ω on a trailing window, select
/// top-Ψ, materialize, simulate.
#[test]
fn weekly_aggregation_rounds_run_end_to_end() {
    let (trace, model) = setup();
    let groups = CoRequestModel { groups: 25, seed: 4, ..Default::default() }.generate(&trace);
    let mut planner = AggregationPlanner::new(8, groups.len());

    let mut total_active = 0;
    for week in 0..3usize {
        let window = week * 7..(week + 1) * 7;
        let omegas: Vec<Omega> = groups
            .iter()
            .map(|g| Omega::evaluate(g, &trace, &model, Tier::Hot, window.clone()))
            .collect();
        let active = planner.evaluate(&omegas);
        assert!(active.len() <= 8 + total_active, "psi bound plus carryover");
        total_active = active.len();

        let merged = apply_aggregation(&trace, &groups, &active);
        assert_eq!(merged.files.len(), trace.files.len() + active.len());
        let result = simulate(&merged, &model, &GreedyPolicy, &SimConfig::default());
        assert_eq!(result.per_file.len(), merged.files.len());
    }
}

#[test]
fn aggregation_never_hurts_when_planner_is_selective() {
    // With Ω-gated selection the aggregated trace must cost no more than
    // the plain trace under the same (optimal) tiering, measured on the
    // same evaluation window the Ω values were computed from.
    let (trace, model) = setup();
    let groups =
        CoRequestModel { groups: 30, level: 0.9, seed: 8, ..Default::default() }.generate(&trace);

    let omegas: Vec<Omega> = groups
        .iter()
        .map(|g| Omega::evaluate(g, &trace, &model, Tier::Hot, 0..trace.days))
        .collect();
    // Select only clearly-beneficial groups.
    let active: Vec<usize> = (0..groups.len()).filter(|&i| omegas[i].0 > 1000.0).collect();

    let cfg = SimConfig::default();
    let plain =
        simulate(&trace, &model, &OptimalPolicy::plan(&trace, &model, cfg.initial_tier), &cfg)
            .total_cost();
    let merged = apply_aggregation(&trace, &groups, &active);
    let aggregated =
        simulate(&merged, &model, &OptimalPolicy::plan(&merged, &model, cfg.initial_tier), &cfg)
            .total_cost();

    if active.is_empty() {
        assert_eq!(aggregated, plain);
    } else {
        assert!(
            aggregated <= plain,
            "selective aggregation must not raise cost: {aggregated} vs {plain}"
        );
    }
}

#[test]
fn aggregating_everything_blindly_can_backfire() {
    // Counterpart of the paper's warning ("aggregation may backfire"):
    // force-activating every group regardless of Ω is allowed by the API
    // but is not guaranteed to help. We only assert the pipeline stays
    // consistent; cost may go either way.
    let (trace, model) = setup();
    let groups = CoRequestModel { groups: 10, seed: 2, ..Default::default() }.generate(&trace);
    let all: Vec<usize> = (0..groups.len()).collect();
    let merged = apply_aggregation(&trace, &groups, &all);
    let result = simulate(&merged, &model, &HotPolicy, &SimConfig::default());
    let by_file: Money = result.per_file.iter().sum();
    assert_eq!(by_file, result.total_cost());
}

#[test]
fn planner_lifecycle_across_shifting_omegas() {
    // Groups drift in and out of profitability across weeks; the active
    // set must follow with the two-week eviction lag.
    let mut planner = AggregationPlanner::new(2, 3);
    // Week 1: groups 0 and 1 profitable.
    assert_eq!(planner.evaluate(&[Omega(5.0), Omega(3.0), Omega(-1.0)]), vec![0, 1]);
    // Week 2: group 0 collapses; group 2 becomes best.
    assert_eq!(
        planner.evaluate(&[Omega(-2.0), Omega(4.0), Omega(6.0)]),
        vec![0, 1, 2],
        "group 0 keeps one grace week"
    );
    // Week 3: group 0 still negative — evicted.
    assert_eq!(planner.evaluate(&[Omega(-2.0), Omega(4.0), Omega(6.0)]), vec![1, 2]);
}

#[test]
fn aggregate_files_inherit_tiering_decisions() {
    // The appended replica is a first-class file: Optimal may freely tier
    // it, and the ledger covers it.
    let (trace, model) = setup();
    let groups = CoRequestModel { groups: 5, seed: 6, ..Default::default() }.generate(&trace);
    let active: Vec<usize> = (0..groups.len()).collect();
    let merged = apply_aggregation(&trace, &groups, &active);
    let cfg = SimConfig::default();
    let opt = OptimalPolicy::plan(&merged, &model, cfg.initial_tier);
    let result = simulate(&merged, &model, &opt, &cfg);
    assert_eq!(result.per_file.len(), merged.files.len());
    // Replica ledger entries exist and are non-negative.
    for ix in trace.files.len()..merged.files.len() {
        assert!(result.per_file[ix] >= Money::ZERO);
    }
}
