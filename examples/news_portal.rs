//! News-portal workload with the §5.2 aggregation enhancement: article
//! pages bundle several assets (text, images, scripts) that are requested
//! together, so aggregating hot bundles cuts per-operation charges.
//!
//! Walks the full Algorithm 2 loop week by week — evaluate Ω on last
//! week's concurrency, select the top-Ψ bundles, rebuild the trace, tier
//! with Greedy — and compares against the unaggregated run (the Fig. 13
//! comparison, with Greedy standing in for the trained agent so the
//! example runs in seconds).
//!
//! ```text
//! cargo run --release --example news_portal
//! ```

use minicost::prelude::*;
use tracegen::CoRequestModel;

fn main() {
    // Articles: small files, strong weekly cycle, heavy co-access.
    let trace_cfg = TraceConfig {
        files: 1_500,
        days: 28,
        seed: 1001,
        mean_size_mb: 20.0,
        seasonal_share: 0.7,
        ..TraceConfig::default()
    };
    let trace = Trace::generate(&trace_cfg);
    let model = CostModel::new(PricingPolicy::paper_2020());

    // Pages: groups of 2-5 assets sharing most of their requests.
    let groups = CoRequestModel { groups: 120, min_size: 2, max_size: 5, level: 0.9, seed: 5 }
        .generate(&trace);
    println!("{} files, {} co-request bundles", trace.len(), groups.len());

    let sim_cfg = SimConfig::default();
    let weeks = trace.days / 7;
    let psi = 40;

    // Baseline: no aggregation, Greedy tiering, whole horizon.
    let baseline = simulate(&trace, &model, &GreedyPolicy, &sim_cfg).total_cost();

    // Enhancement: weekly Algorithm 2 rounds. Week w's selection uses week
    // w-1's concurrency statistics (week 0 runs unaggregated).
    let mut planner = AggregationPlanner::new(psi, groups.len());
    let mut enhanced_total = Money::ZERO;
    for week in 0..weeks {
        let active: Vec<usize> = if week == 0 {
            Vec::new()
        } else {
            let window = (week - 1) * 7..week * 7;
            let omegas: Vec<Omega> = groups
                .iter()
                .map(|g| Omega::evaluate(g, &trace, &model, Tier::Hot, window.clone()))
                .collect();
            planner.evaluate(&omegas)
        };
        let week_trace =
            apply_aggregation(&trace, &groups, &active).day_window(week * 7..(week + 1) * 7);
        let run = simulate(&week_trace, &model, &GreedyPolicy, &sim_cfg);
        println!("week {week}: {} bundles active, cost {}", active.len(), run.total_cost());
        enhanced_total += run.total_cost();
    }

    println!("\nwithout aggregation: {baseline}");
    println!("with aggregation:    {enhanced_total}");
    let delta = baseline - enhanced_total;
    println!(
        "aggregation saved {} ({:.2}%)",
        delta,
        100.0 * delta.as_dollars() / baseline.as_dollars()
    );
}
