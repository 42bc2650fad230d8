//! Fig. 10 — optimal-action-rate learning curves for different greedy
//! rates ε.
//!
//! The paper's trade-off: larger ε explores more, converging slower but to
//! a better final rate (`ε=0.1 > 0.01 > 0.001` in final performance, the
//! reverse in early speed).

use crate::{Args, ConfigBlock, Report};
use minicost::prelude::*;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Training-trace size.
    pub files: usize,
    /// Training-trace days.
    pub days: usize,
    /// Seed.
    pub seed: u64,
    /// Update budget per ε.
    pub updates: u64,
    /// Network width.
    pub width: usize,
    /// Greedy rates to compare (paper: 0.001, 0.01, 0.1).
    pub epsilons: Vec<f64>,
    /// Number of curve points to report.
    pub points: usize,
}

impl Params {
    /// Parses from CLI arguments with figure defaults.
    #[must_use]
    pub fn from_args(args: &Args) -> Params {
        Params {
            files: args.usize("files", 2_000),
            days: args.usize("days", 21),
            seed: args.u64("seed", 2020),
            updates: args.u64("updates", 30_000),
            width: args.usize("width", 32),
            epsilons: vec![0.001, 0.01, 0.1],
            points: args.usize("points", 20),
        }
    }
}

/// One ε's learning curve as `(update, optimal_rate)` samples.
#[must_use]
pub fn curve(trace: &Trace, model: &CostModel, params: &Params, epsilon: f64) -> Vec<(u64, f64)> {
    let mut cfg = crate::experiment_training(params.updates, params.width, params.seed);
    cfg.a3c.epsilon = epsilon;
    let agent = MiniCost::train(trace, model, &cfg);
    agent.result.optimal_rate_series()
}

/// Runs the experiment.
#[must_use]
pub fn run(params: &Params) -> Report {
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let model = crate::experiment_model();

    let curves: Vec<Vec<(u64, f64)>> =
        params.epsilons.iter().map(|&eps| curve(&trace, &model, params, eps)).collect();

    let header: Vec<String> = std::iter::once("update".to_owned())
        .chain(params.epsilons.iter().map(|e| format!("eps_{e}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut report = Report::new(
        "fig10",
        "optimal action rate vs training steps for different greedy rates",
        &header_refs,
    );
    report.config = Some(ConfigBlock::new(params.files, params.days, params.seed, 1));

    // Sample each curve at `points` evenly spaced update counts.
    for p in 1..=params.points {
        let update = params.updates * p as u64 / params.points as u64;
        let mut row = vec![update.to_string()];
        for curve in &curves {
            // Latest observation at or before `update`.
            let rate =
                curve.iter().take_while(|(u, _)| *u <= update).last().map_or(0.0, |(_, r)| *r);
            row.push(format!("{rate:.3}"));
        }
        report.push_row(row);
    }
    for (eps, curve) in params.epsilons.iter().zip(&curves) {
        let last = curve.last().map_or(0.0, |(_, r)| *r);
        report.note(format!("final rate at eps={eps}: {last:.3}"));
    }
    report.note("paper Fig. 10: smaller eps rises faster; eps=0.1 ends highest");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_a_curve_per_epsilon() {
        let params = Params {
            files: 100,
            days: 14,
            seed: 1,
            updates: 300,
            width: 8,
            epsilons: vec![0.01, 0.1],
            points: 5,
        };
        let report = run(&params);
        assert_eq!(report.rows.len(), 5);
        assert_eq!(report.header.len(), 3);
        // Rates are valid probabilities.
        for row in &report.rows {
            for cell in &row[1..] {
                let r: f64 = cell.parse().unwrap();
                assert!((0.0..=1.0).contains(&r));
            }
        }
    }
}
