//! Fig. 7 — total monetary cost for all files versus number of days, for
//! Hot / Cold / Greedy / MiniCost / Optimal.
//!
//! The paper's headline result: the cumulative-cost ordering is
//! `Cold > Hot > Greedy > MiniCost > Optimal` at every weekly checkpoint,
//! with MiniCost closest to the offline lower bound.

use crate::{Args, ConfigBlock, Report};
use minicost::prelude::*;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of files in the generated trace (80/20 split like §6.1).
    pub files: usize,
    /// Evaluation horizon in days (paper: up to 35).
    pub days: usize,
    /// Generator seed.
    pub seed: u64,
    /// A3C training budget (shared parameter updates).
    pub updates: u64,
    /// Network width (filters and hidden neurons).
    pub width: usize,
    /// Simulation shard count (`--workers`); changes wall-clock only.
    pub workers: usize,
}

impl Params {
    /// Parses from CLI arguments with figure defaults.
    #[must_use]
    pub fn from_args(args: &Args) -> Params {
        Params {
            files: args.usize("files", 10_000),
            days: args.usize("days", 35),
            seed: args.u64("seed", 2020),
            updates: args.u64("updates", 150_000),
            width: args.usize("width", 64),
            workers: args.workers(),
        }
    }
}

/// The five evaluated runs on the held-out split, in paper order.
pub struct Fig7Runs {
    /// Hot, Cold, Greedy, MiniCost, Optimal — in that order.
    pub runs: Vec<SimResult>,
    /// The held-out test trace the runs cover.
    pub test: Trace,
}

/// Trains MiniCost and evaluates all five policies on the held-out split.
#[must_use]
pub fn evaluate(params: &Params) -> Fig7Runs {
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let model = crate::experiment_model();
    let split = trace.split(0.8, params.seed);

    let train_cfg = crate::experiment_training(params.updates, params.width, params.seed);
    let agent = MiniCost::train(&split.train, &model, &train_cfg);

    let sim_cfg = crate::experiment_sim_config(params.seed, params.workers);
    let test = split.test;
    // One uniform `dyn Policy` path for all five strategies, in paper order.
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(HotPolicy),
        Box::new(ColdPolicy),
        Box::new(GreedyPolicy),
        Box::new(agent.policy()),
        Box::new(OptimalPolicy::plan(&test, &model, sim_cfg.initial_tier)),
    ];
    let runs =
        policies.iter().map(|policy| simulate(&test, &model, policy.as_ref(), &sim_cfg)).collect();
    Fig7Runs { runs, test }
}

/// Runs the experiment.
#[must_use]
pub fn run(params: &Params) -> Report {
    let Fig7Runs { runs, test } = evaluate(params);

    let mut report = Report::new(
        "fig7",
        "cumulative total cost ($) for all test files vs days",
        &["days", "hot", "cold", "greedy", "minicost", "optimal"],
    );
    report.config = Some(ConfigBlock::new(params.files, params.days, params.seed, params.workers));
    let mut day = 7;
    while day <= params.days {
        let mut row = vec![day.to_string()];
        for run in &runs {
            row.push(format!("{:.2}", run.cumulative_cost(day - 1).as_dollars()));
        }
        report.push_row(row);
        day += 7;
    }
    let optimal_total = runs[4].total_cost();
    let normalized: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{}={:.3}x",
                r.policy_name,
                r.total_cost().as_dollars() / optimal_total.as_dollars()
            )
        })
        .collect();
    report.note(format!(
        "test files: {} | normalized vs optimal: {}",
        test.len(),
        normalized.join(" ")
    ));
    report.note("paper Fig. 7 ordering: Cold > Hot > Greedy > MiniCost > Optimal");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_ordering_holds_without_training() {
        // Training-free slice of the figure: the deterministic policies
        // must order Cold > Hot > Greedy >= Optimal on the standard trace.
        let trace = Trace::generate(&crate::experiment_trace(1_500, 21, 5));
        let model = crate::experiment_model();
        let cfg = crate::experiment_sim_config(5, minicost::default_workers());
        let hot = simulate(&trace, &model, &HotPolicy, &cfg).total_cost();
        let cold = simulate(&trace, &model, &ColdPolicy, &cfg).total_cost();
        let greedy = simulate(&trace, &model, &GreedyPolicy, &cfg).total_cost();
        let opt =
            simulate(&trace, &model, &OptimalPolicy::plan(&trace, &model, cfg.initial_tier), &cfg)
                .total_cost();
        assert!(cold > hot, "cold {cold} vs hot {hot}");
        assert!(hot > greedy, "hot {hot} vs greedy {greedy}");
        assert!(greedy > opt, "greedy {greedy} vs optimal {opt}");
    }

    #[test]
    fn report_has_weekly_checkpoints() {
        // Tiny training budget: checks plumbing, not learning quality.
        let report =
            run(&Params { files: 300, days: 14, seed: 3, updates: 200, width: 8, workers: 2 });
        assert_eq!(report.rows.len(), 2); // days 7 and 14
        assert_eq!(report.header.len(), 6);
    }
}
