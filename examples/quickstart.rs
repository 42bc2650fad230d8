//! Quickstart: generate a workload, compare the paper's five strategies,
//! and print a normalized cost table.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use minicost::prelude::*;

fn main() {
    // 1. A synthetic Wikipedia-like trace: 2,000 files over 5 weeks, with
    //    the paper's Fig. 2 mix of stationary and bursty files.
    let trace_cfg = TraceConfig { files: 2_000, days: 35, seed: 42, ..TraceConfig::default() };
    let trace = Trace::generate(&trace_cfg);
    println!(
        "trace: {} files x {} days, {:.1}M total reads",
        trace.len(),
        trace.days,
        trace.total_reads() as f64 / 1e6
    );

    // 2. Azure Block Blob pricing (the paper's policy).
    let model = CostModel::new(PricingPolicy::paper_2020());

    // 3. Train MiniCost on an 80% split, evaluate everything on the rest.
    let split = trace.split(0.8, 1);
    println!("training MiniCost on {} files ...", split.train.len());
    let mut cfg = MiniCostConfig::fast();
    cfg.a3c.total_updates = 1_500;
    cfg.a3c.seed = 7;
    let agent = MiniCost::train(&split.train, &model, &cfg);
    if let Some(rate) = agent.final_optimal_rate() {
        println!("  final optimal-action rate during training: {:.1}%", rate * 100.0);
    }

    // 4. Head-to-head on the held-out 20%.
    let sim_cfg = SimConfig::default();
    let test = &split.test;
    let optimal = OptimalPolicy::plan(test, &model, sim_cfg.initial_tier);
    let runs = vec![
        simulate(test, &model, &HotPolicy, &sim_cfg),
        simulate(test, &model, &ColdPolicy, &sim_cfg),
        simulate(test, &model, &GreedyPolicy, &sim_cfg),
        simulate(test, &model, &agent.policy(), &sim_cfg),
        simulate(test, &model, &optimal, &sim_cfg),
    ];

    let reference = runs.last().expect("non-empty").total_cost();
    println!("\n{:<10} {:>14} {:>12} {:>9}", "policy", "total cost", "vs optimal", "changes");
    for run in &runs {
        println!(
            "{:<10} {:>14} {:>11.3}x {:>9}",
            run.policy_name,
            run.total_cost().to_string(),
            run.total_cost().as_dollars() / reference.as_dollars(),
            run.tier_changes
        );
    }
    println!(
        "\nMiniCost decision latency: {:.3} ms/day for {} files",
        runs[3].decision_millis.iter().sum::<f64>() / runs[3].decision_millis.len() as f64,
        test.len()
    );

    // 5. Agents persist as JSON and reload bit-identically.
    let path = std::env::temp_dir().join("minicost-quickstart-agent.json");
    agent.save(&path).expect("save agent");
    let reloaded = minicost::MiniCost::load(&path).expect("load agent");
    assert_eq!(agent.result.actor_params, reloaded.result.actor_params);
    println!("agent saved to and reloaded from {}", path.display());
    std::fs::remove_file(&path).ok();
}
