//! Fig. 3 — potential daily cost savings per variability bucket.
//!
//! The paper computes, per bucket, the gap between (a) the payment when
//! every file sits in its cheaper of hot/cold, and (b) the offline optimal
//! assignment, normalized to one day. Its headline observation: the thin
//! `>0.8` bucket saves *more total money* than the huge `0-0.1` bucket
//! saves per its size — per-file savings grow steeply with variability.

use crate::{Args, ConfigBlock, Report};
use minicost::optimal::optimal_plan;
use minicost::prelude::*;
use tracegen::analysis::{bucket_members, CV_BUCKET_LABELS};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of files.
    pub files: usize,
    /// Trace days.
    pub days: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Params {
    /// Parses from CLI arguments with figure defaults.
    #[must_use]
    pub fn from_args(args: &Args) -> Params {
        Params {
            files: args.usize("files", 100_000),
            days: args.usize("days", 35),
            seed: args.u64("seed", 2020),
        }
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(params: &Params) -> Report {
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let model = crate::experiment_model();
    let members = bucket_members(&trace);

    let mut report = Report::new(
        "fig3",
        "potential saved money per day by variability bucket (best-of-hot/cold minus optimal)",
        &[
            "bucket",
            "files",
            "static_cost_day",
            "optimal_cost_day",
            "saved_per_day",
            "saved_per_file_day",
        ],
    );
    report.config = Some(ConfigBlock::new(params.files, params.days, params.seed, 1));

    for (bucket, files) in members.iter().enumerate() {
        let mut static_total = Money::ZERO;
        let mut optimal_total = Money::ZERO;
        for &ix in files {
            let file = &trace.files[ix];
            // The paper's static reference: all-hot or all-cold per file,
            // whichever is cheaper (archive excluded, as in §3.1). Charged
            // from the same Hot starting tier as the optimal plan, so the
            // static plans are inside Optimal's feasible set and savings
            // are non-negative by construction.
            let hot = minicost::optimal::plan_cost(
                file,
                &model,
                Tier::Hot,
                &vec![Tier::Hot; file.days()],
            );
            let cold = minicost::optimal::plan_cost(
                file,
                &model,
                Tier::Hot,
                &vec![Tier::Cool; file.days()],
            );
            static_total += hot.min(cold);
            let (_, opt) = optimal_plan(file, &model, Tier::Hot);
            optimal_total += opt;
        }
        let days = params.days as i64;
        let saved = static_total - optimal_total;
        let per_file_day = if files.is_empty() {
            0.0
        } else {
            saved.as_dollars() / files.len() as f64 / days as f64
        };
        report.push_row(vec![
            CV_BUCKET_LABELS[bucket].to_owned(),
            files.len().to_string(),
            format!("{:.4}", (static_total / days).as_dollars()),
            format!("{:.4}", (optimal_total / days).as_dollars()),
            format!("{:.4}", (saved / days).as_dollars()),
            format!("{per_file_day:.8}"),
        ]);
    }
    report
        .note("paper Fig. 3: the >0.8 bucket saves the most total money despite 100x fewer files");
    report.note("expected shape: saved_per_file_day increases monotonically with the bucket");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_are_nonnegative_and_grow_per_file() {
        let report = run(&Params { files: 4_000, days: 63, seed: 11 });
        assert_eq!(report.rows.len(), 5);
        let per_file: Vec<f64> = report.rows.iter().map(|r| r[5].parse().unwrap()).collect();
        assert!(per_file.iter().all(|&v| v >= 0.0), "{per_file:?}");
        // The paper's key claim: high-variability files save more per file
        // than stationary ones.
        assert!(
            per_file[4] > per_file[0],
            "bucket >0.8 ({}) must out-save bucket 0-0.1 ({}) per file",
            per_file[4],
            per_file[0]
        );
    }
}
