//! Multi-CSP comparison: the same workload priced under two providers'
//! tier policies (§4.2.1: "Γ can be easily adjusted for multiple CSPs").
//!
//! Shows that the tier-assignment plan is provider-specific — the optimal
//! plan under Azure pricing is not optimal under S3-like pricing — and
//! quantifies the cost of deploying the wrong plan.
//!
//! ```text
//! cargo run --release --example multi_csp
//! ```

use minicost::prelude::*;

fn main() {
    let trace = Trace::generate(&TraceConfig {
        files: 1_000,
        days: 21,
        seed: 314,
        ..TraceConfig::default()
    });
    let sim_cfg = SimConfig::default();

    let azure = CostModel::new(PricingPolicy::azure_blob_2020());
    let aws = CostModel::new(PricingPolicy::aws_s3_like());

    println!("{:<28} {:>14} {:>14}", "plan \\ billed under", "azure", "s3-like");
    for (plan_name, schedule_model) in [("azure-optimal plan", &azure), ("s3-optimal plan", &aws)] {
        // Optimal decides from its own plans, never from the billing model,
        // so one provider's plan bills directly under the other's prices.
        let plan = OptimalPolicy::plan(&trace, schedule_model, sim_cfg.initial_tier);
        let under_azure = simulate(&trace, &azure, &plan, &sim_cfg).total_cost();
        let under_aws = simulate(&trace, &aws, &plan, &sim_cfg).total_cost();
        println!("{plan_name:<28} {under_azure:>14} {under_aws:>14}");
    }

    // Reference rows: the static baselines under each provider.
    for (name, policy) in [("always hot", 0usize), ("always cold", 1)] {
        let mk = |tier| SingleTierPolicy::new(tier);
        let tier = if policy == 0 { Tier::Hot } else { Tier::Cool };
        let a = simulate(&trace, &azure, &mk(tier), &sim_cfg).total_cost();
        let s = simulate(&trace, &aws, &mk(tier), &sim_cfg).total_cost();
        println!("{name:<28} {a:>14} {s:>14}");
    }

    println!(
        "\nReading the table: each provider's own optimal plan is cheapest in \
         its column; replaying the other provider's plan leaves money on the \
         table, which is why MiniCost retrains per pricing policy."
    );

    // Joint placement: let the optimizer choose (datacenter, tier) per file
    // per day, with cross-provider migration priced at $0.05/GB egress.
    let multi = MultiCspModel::new(vec![azure.clone(), aws.clone()], 0.05);
    let home = Location { dc: 0, tier: Tier::Hot };
    let mut joint_total = Money::ZERO;
    let mut migrated_files = 0usize;
    for file in &trace.files {
        let (plan, cost) = optimal_location_plan(file, &multi, home);
        joint_total += cost;
        if plan.iter().any(|l| l.dc != 0) {
            migrated_files += 1;
        }
    }
    let azure_only = simulate(
        &trace,
        &azure,
        &OptimalPolicy::plan(&trace, &azure, sim_cfg.initial_tier),
        &sim_cfg,
    )
    .total_cost();
    println!(
        "\njoint (dc x tier) placement: {joint_total} vs azure-only optimal {azure_only} \
         ({migrated_files}/{} files ever migrate at $0.05/GB egress)",
        trace.len()
    );
}
