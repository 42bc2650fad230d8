//! Failure-injection integration tests: degenerate inputs that a long-lived
//! deployment will eventually see must degrade gracefully, never panic
//! (except where the API contract says "panics").

use minicost::prelude::*;
use tracegen::{FileId, FileSeries};

fn model() -> CostModel {
    CostModel::new(PricingPolicy::paper_2020())
}

/// Validated config: default tier/cadence, explicit seed, worker count from
/// `MINICOST_WORKERS` (CI runs this suite at 1 and 4 workers).
fn sim_cfg() -> SimConfig {
    SimConfig::builder().seed(0).build().expect("valid sim config")
}

#[test]
fn zero_size_files_cost_only_operations() {
    let file =
        FileSeries { id: FileId(0), size_gb: 0.0, reads: vec![100, 0, 50], writes: vec![1, 0, 0] };
    let trace = Trace { days: 3, files: vec![file] };
    let m = model();
    let cfg = sim_cfg();
    for policy in [&HotPolicy as &dyn Policy, &GreedyPolicy] {
        let run = simulate(&trace, &m, policy, &cfg);
        assert!(run.total_cost() >= Money::ZERO);
    }
    // The optimal planner handles zero sizes (change costs become the flat
    // op fee only).
    let opt = OptimalPolicy::plan(&trace, &m, Tier::Hot);
    let run = simulate(&trace, &m, &opt, &cfg);
    assert_eq!(run.total_cost(), opt.planned_cost);
}

#[test]
fn single_day_horizon() {
    let trace = Trace::generate(&TraceConfig::small(20, 1, 1));
    let m = model();
    let cfg = sim_cfg();
    let hot = simulate(&trace, &m, &HotPolicy, &cfg);
    let opt = OptimalPolicy::plan(&trace, &m, cfg.initial_tier);
    let opt_run = simulate(&trace, &m, &opt, &cfg);
    assert_eq!(hot.days(), 1);
    assert!(opt_run.total_cost() <= hot.total_cost());
}

#[test]
fn single_file_trace_trains_and_evaluates() {
    // The training env must handle a one-file trace (episode sampling
    // degenerates to that file).
    let trace = Trace::generate(&TraceConfig::small(1, 14, 2));
    let m = model();
    let mut cfg = MiniCostConfig::fast();
    cfg.a3c.workers = 1;
    cfg.a3c.total_updates = 30;
    let agent = MiniCost::train(&trace, &m, &cfg);
    let run = simulate(&trace, &m, &agent.policy(), &sim_cfg());
    assert_eq!(run.per_file.len(), 1);
}

#[test]
fn all_zero_traffic_trace() {
    let files = (0..10)
        .map(|i| FileSeries { id: FileId(i), size_gb: 0.1, reads: vec![0; 7], writes: vec![0; 7] })
        .collect();
    let trace = Trace { days: 7, files };
    let m = model();
    let cfg = sim_cfg();
    // Optimal sends everything to archive (pure storage minimization).
    let opt = OptimalPolicy::plan(&trace, &m, cfg.initial_tier);
    let run = simulate(&trace, &m, &opt, &cfg);
    let archive_only: Money = trace
        .files
        .iter()
        .map(|f| minicost::optimal::plan_cost(f, &m, cfg.initial_tier, &[Tier::Archive; 7]))
        .sum();
    assert_eq!(run.total_cost(), archive_only);
}

#[test]
fn degenerate_flat_pricing_trains_without_panic() {
    // Under flat pricing every action has zero regret; the shaped reward is
    // identically zero and training must still complete.
    let trace = Trace::generate(&TraceConfig::small(30, 14, 3));
    let m = CostModel::new(PricingPolicy::flat());
    let mut cfg = MiniCostConfig::fast();
    cfg.a3c.workers = 1;
    cfg.a3c.total_updates = 30;
    let agent = MiniCost::train(&trace, &m, &cfg);
    let run = simulate(&trace, &m, &agent.policy(), &sim_cfg());
    assert!(run.total_cost() > Money::ZERO);
}

#[test]
fn forecasters_survive_pathological_histories() {
    use forecast::{Arima, Ewma, Forecaster, Naive, SeasonalNaive};
    let histories: Vec<Vec<f64>> = vec![
        vec![],
        vec![0.0],
        vec![0.0; 100],
        vec![1e12; 50],
        (0..50).map(|i| if i % 2 == 0 { 0.0 } else { 1e6 }).collect(),
    ];
    let forecasters: Vec<Box<dyn Forecaster>> = vec![
        Box::new(Arima::weekly_default()),
        Box::new(Arima::new(0, 0, 0)),
        Box::new(Naive),
        Box::new(SeasonalNaive::new(7)),
        Box::new(Ewma::new(0.5)),
    ];
    for history in &histories {
        for f in &forecasters {
            let out = f.forecast(history, 7);
            assert_eq!(out.len(), 7);
            assert!(
                out.iter().all(|v| v.is_finite() && *v >= 0.0),
                "{} on {:?} -> {:?}",
                f.name(),
                &history.iter().take(3).collect::<Vec<_>>(),
                out
            );
        }
    }
}

#[test]
fn aggregation_with_degenerate_groups() {
    let trace = Trace::generate(&TraceConfig::small(30, 14, 4));
    // A group whose concurrency exceeds nothing (all zeros).
    let group =
        tracegen::CoRequestGroup { members: vec![FileId(0), FileId(1)], concurrent: vec![0; 14] };
    let m = model();
    let omega = Omega::evaluate(&group, &trace, &m, Tier::Hot, 0..14);
    assert!(!omega.is_beneficial());
    let merged = apply_aggregation(&trace, std::slice::from_ref(&group), &[0]);
    // Member series unchanged; replica exists with zero reads.
    assert_eq!(merged.files[0].reads, trace.files[0].reads);
    assert_eq!(merged.files.last().unwrap().reads, vec![0; 14]);
}

#[test]
fn predictive_policy_on_idle_trace() {
    let files = (0..5)
        .map(|i| FileSeries {
            id: FileId(i),
            size_gb: 0.1,
            reads: vec![0; 14],
            writes: vec![0; 14],
        })
        .collect();
    let trace = Trace { days: 14, files };
    let m = model();
    let policy = PredictivePolicy::new(forecast::Naive, 7);
    let run = simulate(&trace, &m, &policy, &sim_cfg());
    assert_eq!(run.days(), 14);
}
