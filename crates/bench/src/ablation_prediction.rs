//! Extension experiment — prediction-based planning vs. RL, per bucket.
//!
//! The paper's core motivation (§3.2 + Fig. 4): forecast-then-optimize
//! planners inherit the forecaster's failure on high-variability files,
//! which is exactly where the money is; the RL policy does not chase point
//! forecasts. This experiment runs [`minicost::PredictivePolicy`] with
//! ARIMA and seasonal-naive forecasters against MiniCost and the offline
//! optimum, attributing cost per variability bucket.

use crate::{Args, ConfigBlock, Report};
use forecast::{Arima, SeasonalNaive};
use minicost::prelude::*;
use tracegen::analysis::CV_BUCKET_LABELS;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of files.
    pub files: usize,
    /// Days.
    pub days: usize,
    /// Seed.
    pub seed: u64,
    /// MiniCost training budget.
    pub updates: u64,
    /// Network width.
    pub width: usize,
}

impl Params {
    /// Parses from CLI arguments with figure defaults.
    #[must_use]
    pub fn from_args(args: &Args) -> Params {
        Params {
            files: args.usize("files", 5_000),
            days: args.usize("days", 35),
            seed: args.u64("seed", 2020),
            updates: args.u64("updates", 100_000),
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

    let agent = MiniCost::train(
        &split.train,
        &model,
        &crate::experiment_training(params.updates, params.width, params.seed),
    );

    let runs = vec![
        simulate(test, &model, &PredictivePolicy::new(Arima::weekly_default(), 7), &sim_cfg),
        simulate(test, &model, &PredictivePolicy::new(SeasonalNaive::new(7), 7), &sim_cfg),
        simulate(test, &model, &agent.policy(), &sim_cfg),
        simulate(test, &model, &OptimalPolicy::plan(test, &model, sim_cfg.initial_tier), &sim_cfg),
    ];
    let labels = ["predictive-arima", "predictive-seasonal", "minicost", "optimal"];

    let mut report = Report::new(
        "ablation_prediction",
        "forecast-then-optimize vs RL: total and per-bucket cost ($)",
        &["bucket", "predictive-arima", "predictive-seasonal", "minicost", "optimal"],
    );
    report.config =
        Some(ConfigBlock::new(params.files, params.days, params.seed, minicost::default_workers()));
    let per_policy: Vec<[Money; 5]> =
        runs.iter().map(|r| bucket_costs(test, &r.per_file)).collect();
    for (bucket, label) in CV_BUCKET_LABELS.iter().enumerate() {
        let mut row = vec![(*label).to_owned()];
        for buckets in &per_policy {
            row.push(format!("{:.3}", buckets[bucket].as_dollars()));
        }
        report.push_row(row);
    }
    let mut total_row = vec!["TOTAL".to_owned()];
    for run in &runs {
        total_row.push(format!("{:.3}", run.total_cost().as_dollars()));
    }
    report.push_row(total_row);
    for (label, run) in labels.iter().zip(&runs) {
        report.note(format!("{label}: {}", run.total_cost()));
    }
    report.note(
        "expected: predictive planners competitive on 0-0.1, penalized on >0.8 (Fig. 4's argument)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_smoke() {
        let report = run(&Params { files: 200, days: 14, seed: 1, updates: 150, width: 8 });
        assert_eq!(report.rows.len(), 6); // 5 buckets + TOTAL
                                          // Optimal column is the minimum on the TOTAL row.
        let total = report.rows.last().unwrap();
        let vals: Vec<f64> = total[1..].iter().map(|v| v.parse().unwrap()).collect();
        let opt = vals[3];
        assert!(vals.iter().all(|&v| v >= opt - 1e-9), "{vals:?}");
    }
}
