//! Photo-sharing workload: a large catalog of media files where a small
//! fraction goes viral each week — the motivating scenario of the paper's
//! introduction ("suppose a cloud customer assigns a data file to the cold
//! storage, and then unexpectedly the file's request frequency increases
//! significantly").
//!
//! Demonstrates per-bucket cost attribution (the Fig. 8 view) and how much
//! of the total bill the bursty tail drives.
//!
//! ```text
//! cargo run --release --example photo_sharing
//! ```

use minicost::prelude::*;
use tracegen::analysis::{bucket_histogram, CV_BUCKET_LABELS};

fn main() {
    // Photos: larger files (250 MB mean), stronger burst tail than the
    // default mix, weekly sharing cycles.
    let trace_cfg = TraceConfig {
        files: 3_000,
        days: 28,
        seed: 77,
        mean_size_mb: 250.0,
        bucket_mix: [0.70, 0.12, 0.09, 0.06, 0.03], // heavier viral tail
        write_ratio: 0.005,                         // media is read-dominated
        ..TraceConfig::default()
    };
    let trace = Trace::generate(&trace_cfg);
    let model = CostModel::new(PricingPolicy::paper_2020());

    let hist = bucket_histogram(&trace);
    println!("variability mix (files per CV bucket):");
    for (label, count) in CV_BUCKET_LABELS.iter().zip(hist.counts) {
        println!("  {label:>8}: {count}");
    }

    let sim_cfg = SimConfig::default();
    let hot = simulate(&trace, &model, &HotPolicy, &sim_cfg);
    let greedy = simulate(&trace, &model, &GreedyPolicy, &sim_cfg);
    let opt_policy = OptimalPolicy::plan(&trace, &model, sim_cfg.initial_tier);
    let opt = simulate(&trace, &model, &opt_policy, &sim_cfg);

    println!("\nper-bucket 4-week cost (the Fig. 8 view):");
    println!("{:>8} {:>14} {:>14} {:>14}", "bucket", "hot", "greedy", "optimal");
    let hot_b = bucket_costs(&trace, &hot.per_file);
    let greedy_b = bucket_costs(&trace, &greedy.per_file);
    let opt_b = bucket_costs(&trace, &opt.per_file);
    for (i, label) in CV_BUCKET_LABELS.iter().enumerate() {
        println!(
            "{label:>8} {:>14} {:>14} {:>14}",
            hot_b[i].to_string(),
            greedy_b[i].to_string(),
            opt_b[i].to_string()
        );
    }

    let savings = hot.total_cost() - opt.total_cost();
    println!(
        "\ntotal: hot {} | greedy {} | optimal {}",
        hot.total_cost(),
        greedy.total_cost(),
        opt.total_cost()
    );
    println!(
        "optimal tiering saves {} ({:.1}%) over always-hot for this catalog",
        savings,
        100.0 * savings.as_dollars() / hot.total_cost().as_dollars()
    );
}
