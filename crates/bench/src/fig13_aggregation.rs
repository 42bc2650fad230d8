//! Fig. 13 — cumulative cost with and without the §5.2 concurrent-request
//! aggregation enhancement.
//!
//! Compares Greedy, MiniCost, MiniCost w/ E (aggregation), and Optimal.
//! The enhancement runs Algorithm 2 weekly: Ω from the trailing week's
//! concurrency selects the top-Ψ groups applied to the next week.

use crate::{Args, ConfigBlock, Report};
use minicost::prelude::*;
use tracegen::CoRequestModel;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of files.
    pub files: usize,
    /// Horizon in days (weekly granularity).
    pub days: usize,
    /// Seed.
    pub seed: u64,
    /// Training budget.
    pub updates: u64,
    /// Network width.
    pub width: usize,
    /// Number of co-request groups synthesized.
    pub groups: usize,
    /// Top-Ψ groups aggregated per round.
    pub psi: usize,
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
            groups: args.usize("groups", 600),
            psi: args.usize("psi", 300),
            workers: args.workers(),
        }
    }
}

/// Simulates a policy week by week over the (optionally aggregated) trace,
/// returning cumulative cost per week boundary.
fn weekly_costs(trace: &Trace, model: &CostModel, policy: &dyn Policy, weeks: usize) -> Vec<Money> {
    let sim_cfg = crate::experiment_sim_config(0, minicost::default_workers());
    let mut cumulative = Vec::with_capacity(weeks);
    let mut total = Money::ZERO;
    for week in 0..weeks {
        let window = trace.day_window(week * 7..(week + 1) * 7);
        total += simulate(&window, model, policy, &sim_cfg).total_cost();
        cumulative.push(total);
    }
    cumulative
}

/// Weekly Algorithm 2 loop: selects groups on week `w-1`'s stats, applies
/// to week `w`, and accumulates the policy's cost.
fn weekly_costs_with_aggregation(
    trace: &Trace,
    model: &CostModel,
    policy: &dyn Policy,
    groups: &[tracegen::CoRequestGroup],
    psi: usize,
    weeks: usize,
) -> Vec<Money> {
    let sim_cfg = crate::experiment_sim_config(0, minicost::default_workers());
    let mut planner = AggregationPlanner::new(psi, groups.len());
    let mut cumulative = Vec::with_capacity(weeks);
    let mut total = Money::ZERO;
    for week in 0..weeks {
        let active: Vec<usize> = if week == 0 {
            Vec::new()
        } else {
            let window = (week - 1) * 7..week * 7;
            let omegas: Vec<Omega> = groups
                .iter()
                .map(|g| Omega::evaluate(g, trace, model, Tier::Hot, window.clone()))
                .collect();
            planner.evaluate(&omegas)
        };
        let merged = apply_aggregation(trace, groups, &active);
        let window = merged.day_window(week * 7..(week + 1) * 7);
        total += simulate(&window, model, policy, &sim_cfg).total_cost();
        cumulative.push(total);
    }
    cumulative
}

/// Runs the experiment.
#[must_use]
pub fn run(params: &Params) -> Report {
    let trace = Trace::generate(&crate::experiment_trace(params.files, params.days, params.seed));
    let model = crate::experiment_model();
    let weeks = params.days / 7;
    assert!(weeks >= 1, "need at least one full week");

    let split = trace.split(0.8, params.seed);
    let agent = MiniCost::train(
        &split.train,
        &model,
        &crate::experiment_training(params.updates, params.width, params.seed),
    );
    let test = &split.test;
    let groups = CoRequestModel { groups: params.groups, seed: params.seed, ..Default::default() }
        .generate(test);

    let greedy = weekly_costs(test, &model, &GreedyPolicy, weeks);
    let minicost = weekly_costs(test, &model, &agent.policy(), weeks);
    let minicost_e =
        weekly_costs_with_aggregation(test, &model, &agent.policy(), &groups, params.psi, weeks);
    // Optimal replans per week window inside weekly_costs via a fresh plan:
    // approximate by planning on the full horizon then windowing — the
    // planner is per-file DP, so plan weekly exactly:
    let sim_cfg = crate::experiment_sim_config(params.seed, params.workers);
    let mut optimal_cum = Vec::with_capacity(weeks);
    let mut total = Money::ZERO;
    for week in 0..weeks {
        let window = test.day_window(week * 7..(week + 1) * 7);
        let opt = OptimalPolicy::plan(&window, &model, sim_cfg.initial_tier);
        total += simulate(&window, &model, &opt, &sim_cfg).total_cost();
        optimal_cum.push(total);
    }

    let mut report = Report::new(
        "fig13",
        "cumulative cost ($) with and without data-file aggregation",
        &["days", "greedy", "minicost", "minicost_w_E", "optimal"],
    );
    report.config = Some(ConfigBlock::new(params.files, params.days, params.seed, params.workers));
    for week in 0..weeks {
        report.push_row(vec![
            ((week + 1) * 7).to_string(),
            format!("{:.2}", greedy[week].as_dollars()),
            format!("{:.2}", minicost[week].as_dollars()),
            format!("{:.2}", minicost_e[week].as_dollars()),
            format!("{:.2}", optimal_cum[week].as_dollars()),
        ]);
    }
    let saved = minicost.last().copied().unwrap_or(Money::ZERO)
        - minicost_e.last().copied().unwrap_or(Money::ZERO);
    report.note(format!(
        "aggregation saved {} over {} weeks ({} groups, psi {})",
        saved, weeks, params.groups, params.psi
    ));
    report.note("paper Fig. 13: MiniCost w/ E sits between MiniCost and Optimal");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_does_not_hurt_greedy_pipeline() {
        // Aggregation-vs-plain comparison with the deterministic Greedy
        // policy (isolates the Algorithm 2 loop from training noise).
        let trace = Trace::generate(&crate::experiment_trace(800, 28, 8));
        let model = crate::experiment_model();
        let groups = CoRequestModel { groups: 80, seed: 8, level: 0.9, ..Default::default() }
            .generate(&trace);
        let weeks = 4;
        let plain = weekly_costs(&trace, &model, &GreedyPolicy, weeks);
        let merged =
            weekly_costs_with_aggregation(&trace, &model, &GreedyPolicy, &groups, 40, weeks);
        assert_eq!(plain.len(), weeks);
        // Cumulative series are monotone.
        assert!(plain.windows(2).all(|w| w[0] <= w[1]));
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        // The Ω-gated enhancement should not end up more expensive.
        assert!(
            merged[weeks - 1] <= plain[weeks - 1],
            "w/E {} vs plain {}",
            merged[weeks - 1],
            plain[weeks - 1]
        );
    }

    #[test]
    fn report_smoke() {
        let report = run(&Params {
            files: 300,
            days: 14,
            seed: 3,
            updates: 200,
            width: 8,
            groups: 30,
            psi: 15,
            workers: 2,
        });
        assert_eq!(report.rows.len(), 2);
    }
}
