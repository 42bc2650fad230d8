//! Extension experiment — reward-design ablation.
//!
//! The paper specifies Eq. 4's reciprocal reward (`α/C + Δ`) but reports no
//! sensitivity analysis. This ablation trains the same agent under every
//! reward kind this reproduction implements, with and without the oracle
//! signals, and compares the deployed 35-day cost against the baselines.
//! It documents *why* the headline experiments use shaped regret +
//! imitation (DESIGN.md §4).

use crate::{Args, ConfigBlock, Report};
use minicost::prelude::*;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of files.
    pub files: usize,
    /// Days.
    pub days: usize,
    /// Seed.
    pub seed: u64,
    /// Training budget per variant.
    pub updates: u64,
    /// Network width.
    pub width: usize,
}

impl Params {
    /// Parses from CLI arguments with figure defaults.
    #[must_use]
    pub fn from_args(args: &Args) -> Params {
        Params {
            files: args.usize("files", 2_000),
            days: args.usize("days", 35),
            seed: args.u64("seed", 2020),
            updates: args.u64("updates", 30_000),
            width: args.usize("width", 32),
        }
    }
}

/// The ablated variants: (label, reward kind, imitation coefficient).
fn variants() -> Vec<(&'static str, RewardKind, f64)> {
    vec![
        ("eq4-reciprocal (paper)", RewardKind::Reciprocal, 0.0),
        ("neg-cost", RewardKind::NegCost, 0.0),
        ("neg-cost-raw", RewardKind::NegCostRaw, 0.0),
        ("shaped-regret", RewardKind::ShapedRegret, 0.0),
        ("shaped-regret + imitation (headline)", RewardKind::ShapedRegret, 1.0),
    ]
}

/// Runs the ablation.
#[must_use]
pub fn run(params: &Params) -> Report {
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let model = crate::experiment_model();
    let split = trace.split(0.8, params.seed);
    let sim_cfg = crate::experiment_sim_config(params.seed, minicost::default_workers());
    let test = &split.test;

    let hot = simulate(test, &model, &HotPolicy, &sim_cfg).total_cost();
    let greedy = simulate(test, &model, &GreedyPolicy, &sim_cfg).total_cost();
    let opt =
        simulate(test, &model, &OptimalPolicy::plan(test, &model, sim_cfg.initial_tier), &sim_cfg)
            .total_cost();

    let mut report = Report::new(
        "ablation_reward",
        "deployed 35-day cost by reward design (same budget, same seed)",
        &["variant", "cost", "vs_optimal", "final_opt_rate"],
    );
    report.config =
        Some(ConfigBlock::new(params.files, params.days, params.seed, minicost::default_workers()));
    report.push_row(vec!["baseline: hot".into(), format!("{hot}"), ratio(hot, opt), "-".into()]);
    report.push_row(vec![
        "baseline: greedy".into(),
        format!("{greedy}"),
        ratio(greedy, opt),
        "-".into(),
    ]);

    for (label, kind, imitation) in variants() {
        let mut cfg = crate::experiment_training(params.updates, params.width, params.seed);
        cfg.reward = RewardConfig { kind, ..cfg.reward };
        cfg.a3c.imitation_coeff = imitation;
        // The unshaped kinds need the standard A3C stabilizers back on.
        if kind != RewardKind::ShapedRegret {
            cfg.a3c.gamma = 0.5;
            cfg.a3c.normalize_advantages = true;
            cfg.a3c.critic_baseline = true;
        }
        let agent = MiniCost::train(&split.train, &model, &cfg);
        let cost = simulate(test, &model, &agent.policy(), &sim_cfg).total_cost();
        report.push_row(vec![
            label.to_owned(),
            format!("{cost}"),
            ratio(cost, opt),
            agent.final_optimal_rate().map_or_else(|| "-".into(), |r| format!("{r:.3}")),
        ]);
    }
    report.push_row(vec![
        "baseline: optimal".into(),
        format!("{opt}"),
        "1.000x".into(),
        "-".into(),
    ]);
    report.note("headline recipe = shaped regret + oracle imitation (DESIGN.md §4)");
    report
}

fn ratio(cost: Money, reference: Money) -> String {
    format!("{:.3}x", cost.as_dollars() / reference.as_dollars())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_produces_all_variants() {
        let report = run(&Params { files: 200, days: 14, seed: 1, updates: 150, width: 8 });
        // 2 baselines + 5 variants + optimal row.
        assert_eq!(report.rows.len(), 8);
        // Optimal is last and normalized to itself.
        assert_eq!(report.rows.last().unwrap()[2], "1.000x");
    }
}
