//! Regenerates every figure of the paper in sequence at a configurable
//! scale. `--scale small` (default) finishes in minutes; `--scale paper`
//! approaches the paper's trace sizes (hours).

fn main() {
    let args = bench_support::Args::parse();
    // A single multiplier over the per-figure defaults keeps relative
    // scales intact; individual flags still override.
    let out = args.out("results");
    let shrink = args.usize("shrink", 10);
    let s = |n: usize| (n / shrink).max(100);
    let u = |n: u64| (n / shrink as u64).max(500);

    use bench_support as b;
    b::fig2_histogram::run(&b::fig2_histogram::Params { files: s(200_000), days: 63, seed: 2020 })
        .emit_into(&out);
    b::fig3_savings::run(&b::fig3_savings::Params { files: s(100_000), days: 35, seed: 2020 })
        .emit_into(&out);
    b::fig4_prediction::run(&b::fig4_prediction::Params {
        files: s(20_000),
        days: 63,
        horizon: 7,
        seed: 2020,
    })
    .emit_into(&out);
    let workers = args.workers();
    let fig7 = b::fig7_total_cost::Params {
        files: s(10_000),
        days: 35,
        seed: 2020,
        updates: u(150_000),
        width: 64,
        workers,
    };
    b::fig7_total_cost::run(&fig7).emit_into(&out);
    b::fig8_bucket_cost::run(&fig7).emit_into(&out);
    let mut fig9 = b::fig9_learning_rate::Params::from_args(&args);
    fig9.files = s(2_000).max(500);
    fig9.updates = u(30_000);
    b::fig9_learning_rate::run(&fig9).emit_into(&out);
    let mut fig10 = b::fig10_greedy_rate::Params::from_args(&args);
    fig10.files = s(2_000).max(500);
    fig10.updates = u(30_000);
    b::fig10_greedy_rate::run(&fig10).emit_into(&out);
    let mut fig11 = b::fig11_width::Params::from_args(&args);
    fig11.files = s(2_000).max(500);
    fig11.updates = u(20_000);
    fig11.runs = args.usize("runs", 10);
    b::fig11_width::run(&fig11).emit_into(&out);
    b::fig12_overhead::run(&b::fig12_overhead::Params {
        files: s(10_000).max(1_000),
        days: 34,
        seed: 2020,
        updates: u(2_000),
        width: 64,
        workers,
    })
    .emit_into(&out);
    b::fig13_aggregation::run(&b::fig13_aggregation::Params {
        files: s(10_000),
        days: 35,
        seed: 2020,
        updates: u(150_000),
        width: 64,
        groups: s(600).max(60),
        psi: s(300).max(30),
        workers,
    })
    .emit_into(&out);
    b::ablation_reward::run(&b::ablation_reward::Params {
        files: s(2_000).max(500),
        days: 35,
        seed: 2020,
        updates: u(30_000),
        width: 32,
    })
    .emit_into(&out);
    b::ablation_prediction::run(&b::ablation_prediction::Params {
        files: s(5_000).max(500),
        days: 35,
        seed: 2020,
        updates: u(100_000),
        width: 32,
    })
    .emit_into(&out);
}
