//! Fig. 11 — final optimal-action rate versus network width (filters and
//! hidden neurons), with error bars over repeated runs.
//!
//! The paper repeats each width 10 times and observes performance
//! stabilizing from 32 units and variance becoming negligible at 64+.

use crate::{Args, ConfigBlock, Report};
use minicost::prelude::*;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Training-trace size.
    pub files: usize,
    /// Training-trace days.
    pub days: usize,
    /// Base seed (run `r` uses `seed + r`).
    pub seed: u64,
    /// Update budget per run.
    pub updates: u64,
    /// Widths to sweep (paper: 4, 16, 32, 64, 128).
    pub widths: Vec<usize>,
    /// Independent runs per width (paper: 10).
    pub runs: usize,
}

impl Params {
    /// Parses from CLI arguments with figure defaults.
    #[must_use]
    pub fn from_args(args: &Args) -> Params {
        Params {
            files: args.usize("files", 2_000),
            days: args.usize("days", 21),
            seed: args.u64("seed", 2020),
            updates: args.u64("updates", 20_000),
            widths: vec![4, 16, 32, 64, 128],
            runs: args.usize("runs", 10),
        }
    }
}

/// Mean and sample standard deviation.
#[must_use]
pub fn mean_sd(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Runs the experiment.
#[must_use]
pub fn run(params: &Params) -> Report {
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let model = crate::experiment_model();

    let mut report = Report::new(
        "fig11",
        "final optimal-action rate (mean +- sd over runs) vs filters/neurons",
        &["width", "mean_rate", "sd", "min", "max", "runs"],
    );
    report.config = Some(ConfigBlock::new(params.files, params.days, params.seed, 1));

    for &width in &params.widths {
        let rates: Vec<f64> = (0..params.runs)
            .map(|r| {
                let cfg = crate::experiment_training(params.updates, width, params.seed + r as u64);
                let agent = MiniCost::train(&trace, &model, &cfg);
                agent.final_optimal_rate().unwrap_or(0.0)
            })
            .collect();
        let (mean, sd) = mean_sd(&rates);
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        report.push_row(vec![
            width.to_string(),
            format!("{mean:.3}"),
            format!("{sd:.3}"),
            format!("{min:.3}"),
            format!("{max:.3}"),
            params.runs.to_string(),
        ]);
    }
    report.note("paper Fig. 11: rate stabilizes from width 32; variance shrinks at 64+");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_sd_basics() {
        let (m, s) = mean_sd(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert!((s - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(mean_sd(&[]), (0.0, 0.0));
        assert_eq!(mean_sd(&[5.0]), (5.0, 0.0));
    }

    #[test]
    fn sweep_rows_per_width() {
        let params =
            Params { files: 100, days: 14, seed: 1, updates: 200, widths: vec![4, 8], runs: 2 };
        let report = run(&params);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            let mean: f64 = row[1].parse().unwrap();
            assert!((0.0..=1.0).contains(&mean));
        }
    }
}
