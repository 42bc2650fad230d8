//! Fig. 12 — per-day computing overhead of each online method.
//!
//! The paper reports the daily decision wall-clock over 34 days: *Hot* and
//! *Cold* near-zero (a tier check per file), *Greedy* and *MiniCost*
//! comparable to each other and far above the static baselines, with
//! MiniCost's per-file decision under a millisecond. Absolute numbers are
//! hardware-specific; the reproduced claims are the relative shape and the
//! sub-millisecond per-file decision.

use crate::{Args, ConfigBlock, Report};
use minicost::prelude::*;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of files.
    pub files: usize,
    /// Days to measure (paper: 34).
    pub days: usize,
    /// Seed.
    pub seed: u64,
    /// Training budget for the MiniCost agent being timed.
    pub updates: u64,
    /// Network width.
    pub width: usize,
    /// Simulation shard count (`--workers`); the decision columns report
    /// the parallel critical path, `par_speedup` the gain over serial.
    pub workers: usize,
}

impl Params {
    /// Parses from CLI arguments with figure defaults.
    #[must_use]
    pub fn from_args(args: &Args) -> Params {
        Params {
            files: args.usize("files", 10_000),
            days: args.usize("days", 34),
            seed: args.u64("seed", 2020),
            updates: args.u64("updates", 2_000),
            width: args.usize("width", 64),
            workers: args.workers(),
        }
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(params: &Params) -> Report {
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let model = crate::experiment_model();
    let sim_cfg = crate::experiment_sim_config(params.seed, params.workers);

    // A briefly-trained agent: decision latency is independent of training
    // quality (same forward pass).
    let agent = MiniCost::train(
        &trace,
        &model,
        &crate::experiment_training(params.updates, params.width, params.seed),
    );

    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(HotPolicy),
        Box::new(ColdPolicy),
        Box::new(GreedyPolicy),
        Box::new(agent.policy()),
    ];
    let runs: Vec<SimResult> =
        policies.iter().map(|policy| simulate(&trace, &model, policy.as_ref(), &sim_cfg)).collect();

    let mut report = Report::new(
        "fig12",
        "per-day decision overhead (ms) over the horizon",
        &["policy", "mean_ms_per_day", "max_ms_per_day", "us_per_file", "total_ms", "par_speedup"],
    );
    report.config = Some(ConfigBlock::new(params.files, params.days, params.seed, params.workers));
    for run in &runs {
        let mean =
            run.decision_millis.iter().sum::<f64>() / run.decision_millis.len().max(1) as f64;
        let max = run.decision_millis.iter().copied().fold(0.0, f64::max);
        let latency = decision_latency(run);
        report.push_row(vec![
            run.policy_name.clone(),
            format!("{mean:.3}"),
            format!("{max:.3}"),
            format!("{:.2}", mean * 1e3 / params.files as f64),
            format!("{:.1}", run.total_decision_millis()),
            format!("{:.2}x", latency.speedup()),
        ]);
    }
    report.note("paper Fig. 12: Hot/Cold near zero; Greedy and MiniCost comparable");
    report.note("paper claim: MiniCost decides each file in < 1 ms — see us_per_file");
    report.note(format!(
        "decision columns are the critical path over {} shard(s); par_speedup = serial/critical",
        sim_cfg.workers
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_shape_matches_paper() {
        let report =
            run(&Params { files: 2_000, days: 10, seed: 2, updates: 100, width: 16, workers: 1 });
        assert_eq!(report.rows.len(), 4);
        let mean_of = |name: &str| -> f64 {
            report.rows.iter().find(|r| r[0] == name).unwrap()[1].parse().unwrap()
        };
        // The static baselines must be far cheaper than the deciders.
        assert!(mean_of("hot") * 3.0 < mean_of("minicost").max(0.01));
        assert!(mean_of("cold") * 3.0 < mean_of("greedy").max(0.01) + 0.01);
        // The paper's sub-millisecond per-file claim.
        let us_per_file: f64 =
            report.rows.iter().find(|r| r[0] == "minicost").unwrap()[3].parse().unwrap();
        assert!(us_per_file < 1_000.0, "{us_per_file} us/file");
    }
}
