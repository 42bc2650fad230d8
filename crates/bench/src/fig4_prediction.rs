//! Fig. 4 — ARIMA 7-day request-frequency prediction error per bucket.
//!
//! The paper fits ARIMA on two months of history, predicts the next 7 daily
//! frequencies per file, and reports the 1%/median/99% of relative errors
//! per variability bucket: errors blow up for high-variability files — the
//! very files with the most savings potential, which is why a prediction-
//! only planner is insufficient and an RL policy is used instead.
//! Extension: seasonal-naive and EWMA baselines alongside ARIMA.

use crate::{Args, ConfigBlock, Report};
use forecast::{Arima, ErrorSummary, Ewma, Forecaster, SeasonalNaive};
use minicost::prelude::*;
use tracegen::analysis::{bucket_members, CV_BUCKET_LABELS};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of files.
    pub files: usize,
    /// Trace days; the last `horizon` are the prediction target.
    pub days: usize,
    /// Forecast horizon (paper: 7 days).
    pub horizon: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Params {
    /// Parses from CLI arguments with figure defaults.
    #[must_use]
    pub fn from_args(args: &Args) -> Params {
        Params {
            files: args.usize("files", 20_000),
            days: args.usize("days", 63),
            horizon: args.usize("horizon", 7),
            seed: args.u64("seed", 2020),
        }
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(params: &Params) -> Report {
    assert!(params.days > params.horizon, "need history before the horizon");
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let members = bucket_members(&trace);
    let split = params.days - params.horizon;

    let forecasters: Vec<Box<dyn Forecaster>> = vec![
        Box::new(Arima::weekly_default()),
        Box::new(SeasonalNaive::new(7)),
        Box::new(Ewma::new(0.3)),
    ];

    let mut report = Report::new(
        "fig4",
        "relative 7-day prediction error percentiles per bucket (true-pred)/true",
        &["bucket", "model", "p01", "median", "p99", "samples"],
    );
    report.config = Some(ConfigBlock::new(params.files, params.days, params.seed, 1));

    for (bucket, files) in members.iter().enumerate() {
        for forecaster in &forecasters {
            let mut errors = Vec::new();
            for &ix in files {
                let file = &trace.files[ix];
                let history: Vec<f64> = file.reads[..split].iter().map(|&r| r as f64).collect();
                let truth: Vec<f64> = file.reads[split..].iter().map(|&r| r as f64).collect();
                let predicted = forecaster.forecast(&history, params.horizon);
                errors.extend(forecast::error::forecast_errors(&truth, &predicted));
            }
            if let Some(summary) = ErrorSummary::from_errors(&errors) {
                report.push_row(vec![
                    CV_BUCKET_LABELS[bucket].to_owned(),
                    forecaster.name().to_owned(),
                    format!("{:.3}", summary.p01),
                    format!("{:.3}", summary.p50),
                    format!("{:.3}", summary.p99),
                    summary.count.to_string(),
                ]);
            }
        }
    }
    report.note("paper Fig. 4: error spread widens sharply with the variability bucket");
    report.note("extension: seasonal-naive and EWMA baselines for comparison");
    report
}

/// Error spread (max |p01|, |p99|) per bucket for the ARIMA rows — used by
/// tests and EXPERIMENTS.md to check the widening-spread shape.
#[must_use]
pub fn arima_spreads(report: &Report) -> Vec<f64> {
    report
        .rows
        .iter()
        .filter(|r| r[1] == "arima")
        .map(|r| {
            let p01: f64 = r[2].parse().unwrap();
            let p99: f64 = r[4].parse().unwrap();
            p01.abs().max(p99.abs())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_widens_with_variability() {
        let report = run(&Params { files: 2_000, days: 42, horizon: 7, seed: 4 });
        let spreads = arima_spreads(&report);
        assert_eq!(spreads.len(), 5);
        // The paper's shape: the top bucket is much harder to predict than
        // the bottom bucket.
        assert!(
            spreads[4] > 2.0 * spreads[0],
            "spreads {spreads:?} should widen toward the bursty bucket"
        );
    }

    #[test]
    #[should_panic(expected = "history before the horizon")]
    fn degenerate_horizon_rejected() {
        let _ = run(&Params { files: 10, days: 7, horizon: 7, seed: 1 });
    }
}
