//! Fig. 9 — convergence speed (training steps until the agent matches
//! Optimal's decisions) versus learning rate.
//!
//! The paper sweeps learning rates from 1e-4 to 5.5e-3 and finds a U-shaped
//! curve with its minimum near 0.0028: too small crawls, too large zigzags.

use crate::{Args, ConfigBlock, Report};
use minicost::prelude::*;
use rl::convergence_step;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Training-trace size.
    pub files: usize,
    /// Training-trace days.
    pub days: usize,
    /// Seed.
    pub seed: u64,
    /// Update budget per learning-rate point (censoring limit).
    pub updates: u64,
    /// Network width.
    pub width: usize,
    /// Rolling optimal-action rate that counts as "converged".
    pub threshold: f64,
    /// Learning rates to sweep.
    pub learning_rates: Vec<f64>,
}

impl Params {
    /// Parses from CLI arguments with figure defaults (the paper's 19-point
    /// grid 0.0001..0.0055).
    #[must_use]
    pub fn from_args(args: &Args) -> Params {
        let points = args.usize("points", 19);
        let learning_rates = (0..points)
            .map(|i| 0.0001 + i as f64 * (0.0055 - 0.0001) / (points.max(2) - 1) as f64)
            .collect();
        Params {
            files: args.usize("files", 2_000),
            days: args.usize("days", 21),
            seed: args.u64("seed", 2020),
            updates: args.u64("updates", 30_000),
            width: args.usize("width", 32),
            threshold: args.f64("threshold", 0.7),
            learning_rates,
        }
    }
}

/// Trains at one learning rate and returns the convergence step
/// (`None` = did not converge within the budget).
#[must_use]
pub fn convergence_at(trace: &Trace, model: &CostModel, params: &Params, lr: f64) -> Option<u64> {
    let mut cfg = crate::experiment_training(params.updates, params.width, params.seed);
    cfg.a3c.learning_rate = lr;
    let agent = MiniCost::train(trace, model, &cfg);
    let rates: Vec<f64> = agent.result.progress.iter().filter_map(|p| p.optimal_rate).collect();
    let updates: Vec<u64> = agent
        .result
        .progress
        .iter()
        .filter(|p| p.optimal_rate.is_some())
        .map(|p| p.update)
        .collect();
    convergence_step(&rates, params.threshold).map(|ix| updates[ix])
}

/// Runs the experiment.
#[must_use]
pub fn run(params: &Params) -> Report {
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let model = crate::experiment_model();

    let mut report = Report::new(
        "fig9",
        "training steps to reach the optimal-action-rate threshold vs learning rate",
        &["learning_rate", "steps_to_converge", "converged"],
    );
    report.config = Some(ConfigBlock::new(params.files, params.days, params.seed, 1));
    for &lr in &params.learning_rates {
        let steps = convergence_at(&trace, &model, params, lr);
        report.push_row(vec![
            format!("{lr:.4}"),
            steps.unwrap_or(params.updates).to_string(),
            steps.is_some().to_string(),
        ]);
    }
    report.note(format!(
        "threshold: rolling optimal-action rate >= {} (censored at {} updates)",
        params.threshold, params.updates
    ));
    report.note("paper Fig. 9: U-shaped curve, minimum near lr = 0.0028");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_row_per_lr() {
        let params = Params {
            files: 100,
            days: 14,
            seed: 1,
            updates: 300,
            width: 8,
            threshold: 0.2, // lenient: checks plumbing, not learning
            learning_rates: vec![0.001, 0.003],
        };
        let report = run(&params);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            let steps: u64 = row[1].parse().unwrap();
            assert!(steps <= 300 + 8, "{row:?}");
        }
    }

    #[test]
    fn default_grid_matches_paper_range() {
        let p = Params::from_args(&Args::from_list(Vec::<String>::new()));
        assert_eq!(p.learning_rates.len(), 19);
        assert!((p.learning_rates[0] - 0.0001).abs() < 1e-9);
        assert!((p.learning_rates[18] - 0.0055).abs() < 1e-9);
    }
}
