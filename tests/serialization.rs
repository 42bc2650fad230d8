//! Serialization round-trips across the workspace: every artifact an
//! experiment persists (traces, pricing policies, sim results, trained
//! agents) must survive JSON exactly.

use minicost::prelude::*;
use minicost::sim::SimResult;

/// Validated config: default tier/cadence, explicit seed, worker count from
/// `MINICOST_WORKERS` (CI runs this suite at 1 and 4 workers).
fn sim_cfg() -> SimConfig {
    SimConfig::builder().seed(0).build().expect("valid sim config")
}

#[test]
fn trace_round_trips() {
    let trace = Trace::generate(&TraceConfig::small(25, 14, 11));
    let json = serde_json::to_string(&trace).unwrap();
    let back: Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(trace, back);
}

#[test]
fn trace_config_round_trips() {
    let cfg = TraceConfig::default();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: TraceConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn pricing_policies_round_trip() {
    for policy in
        [PricingPolicy::azure_blob_2020(), PricingPolicy::aws_s3_like(), PricingPolicy::flat()]
    {
        let json = serde_json::to_string(&policy).unwrap();
        let back: PricingPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(policy, back);
    }
}

#[test]
fn sim_result_round_trips_with_exact_money() {
    let trace = Trace::generate(&TraceConfig::small(30, 10, 12));
    let model = CostModel::new(PricingPolicy::azure_blob_2020());
    let result = simulate(&trace, &model, &GreedyPolicy, &sim_cfg());
    let json = serde_json::to_string(&result).unwrap();
    let back: SimResult = serde_json::from_str(&json).unwrap();
    assert_eq!(result.total_cost(), back.total_cost());
    assert_eq!(result.per_file, back.per_file);
    assert_eq!(result.tier_changes, back.tier_changes);
}

#[test]
fn money_survives_json_at_extremes() {
    for micros in [0i64, 1, -1, i64::MAX / 2, i64::MIN / 2] {
        let m = Money::from_micros(micros);
        let json = serde_json::to_string(&m).unwrap();
        let back: Money = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}

#[test]
fn trained_agent_round_trips_and_decides_identically() {
    let trace = Trace::generate(&TraceConfig::small(40, 21, 13));
    let model = CostModel::new(PricingPolicy::azure_blob_2020());
    let mut cfg = MiniCostConfig::fast();
    cfg.a3c.workers = 1;
    cfg.a3c.total_updates = 30;
    let agent = MiniCost::train(&trace, &model, &cfg);

    let json = serde_json::to_string(&agent).unwrap();
    let back: MiniCost = serde_json::from_str(&json).unwrap();

    let sim_cfg = sim_cfg();
    let a = simulate(&trace, &model, &agent.policy(), &sim_cfg);
    let b = simulate(&trace, &model, &back.policy(), &sim_cfg);
    assert_eq!(a.total_cost(), b.total_cost());
    assert_eq!(a.tier_changes, b.tier_changes);
}

#[test]
fn minicost_config_round_trips() {
    let cfg = MiniCostConfig::default();
    let json = serde_json::to_string(&cfg).unwrap();
    let back: MiniCostConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn co_request_groups_round_trip() {
    let trace = Trace::generate(&TraceConfig::small(30, 14, 14));
    let groups = tracegen::CoRequestModel::default().generate(&trace);
    let json = serde_json::to_string(&groups).unwrap();
    let back: Vec<tracegen::CoRequestGroup> = serde_json::from_str(&json).unwrap();
    assert_eq!(groups, back);
}
