//! Extension experiment — trainer ablation: A3C (the paper's choice)
//! versus plain DQN on the same tiering MDP, same network topology, same
//! budget.
//!
//! The paper motivates A3C as "better than the typical RL methods"; this
//! ablation makes the comparison concrete on this exact problem.

use crate::{Args, ConfigBlock, Report};
use minicost::features::{FeatureConfig, EXTRA_FEATURES};
use minicost::policy::RlPolicy;
use minicost::prelude::*;
use rl::{train_dqn, DqnConfig, NetSpec};
use std::sync::Arc;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of files.
    pub files: usize,
    /// Days.
    pub days: usize,
    /// Seed.
    pub seed: u64,
    /// Training budget (updates for both trainers).
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

/// Runs the ablation.
#[must_use]
pub fn run(params: &Params) -> Report {
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let model = crate::experiment_model();
    let split = trace.split(0.8, params.seed);
    let test = &split.test;
    let sim_cfg = crate::experiment_sim_config(params.seed, minicost::default_workers());

    // A3C (the headline recipe).
    let a3c_cfg = crate::experiment_training(params.updates, params.width, params.seed);
    let a3c_agent = MiniCost::train(&split.train, &model, &a3c_cfg);
    let a3c_run = simulate(test, &model, &mut a3c_agent.policy(), &sim_cfg);

    // DQN on the same env, same spec, same shaped reward.
    let features = FeatureConfig::default();
    let spec = NetSpec {
        window: features.window,
        channels: FeatureConfig::CHANNELS,
        extras: EXTRA_FEATURES,
        filters: params.width,
        kernel: 4,
        stride: 1,
        hidden: params.width,
        actions: 3,
    };
    let env = TieringEnv::new(
        Arc::new(split.train.clone()),
        Arc::new(model.clone()),
        TieringEnvConfig {
            features,
            reward: a3c_cfg.reward,
            episode_len: 7,
            seed: params.seed,
            with_oracle: true,
        },
    );
    let dqn_cfg = DqnConfig {
        total_updates: params.updates,
        gamma: 0.0, // shaped regret folds in the future, as for A3C
        learning_rate: 0.001,
        seed: params.seed,
        ..DqnConfig::default()
    };
    let dqn_result = train_dqn(spec, &dqn_cfg, env);
    let mut dqn_policy = RlPolicy::from_params(spec, &dqn_result.q_params, features);
    let dqn_run = simulate(test, &model, &mut dqn_policy, &sim_cfg);

    // Baselines.
    let greedy = simulate(test, &model, &mut GreedyPolicy, &sim_cfg);
    let opt = simulate(
        test,
        &model,
        &mut OptimalPolicy::plan(test, &model, sim_cfg.initial_tier),
        &sim_cfg,
    );

    let mut report = Report::new(
        "ablation_trainer",
        "A3C vs DQN on the tiering MDP (same topology, reward, budget)",
        &["trainer", "cost", "vs_optimal", "final_opt_rate"],
    );
    report.config =
        Some(ConfigBlock::new(params.files, params.days, params.seed, minicost::default_workers()));
    let opt_cost = opt.total_cost();
    let mut row = |name: &str, cost: Money, rate: Option<f64>| {
        report.push_row(vec![
            name.to_owned(),
            format!("{cost}"),
            format!("{:.3}x", cost.as_dollars() / opt_cost.as_dollars()),
            rate.map_or_else(|| "-".into(), |r| format!("{r:.3}")),
        ]);
    };
    row("a3c (paper)", a3c_run.total_cost(), a3c_agent.final_optimal_rate());
    row("dqn", dqn_run.total_cost(), dqn_result.final_optimal_rate);
    row("greedy baseline", greedy.total_cost(), None);
    row("optimal", opt_cost, None);
    report.note("the paper's §5.1 claim: A3C outperforms typical RL methods");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trainer_ablation_smoke() {
        let report = run(&Params { files: 200, days: 14, seed: 1, updates: 200, width: 8 });
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.rows[3][2], "1.000x");
    }
}
