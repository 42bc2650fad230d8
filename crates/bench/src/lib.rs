//! Experiment harness for the MiniCost reproduction.
//!
//! One module per figure of the paper's evaluation (the paper has no
//! numbered tables — all results are figures). Each module exposes a
//! `Params` struct with CLI parsing and a `run()` that returns a [`Report`]
//! — a printable table that is also written to `results/<name>.csv`, so
//! EXPERIMENTS.md numbers are regenerable.
//!
//! Binaries (`fig2` … `fig13`, `run_all`) are thin wrappers over these
//! modules.

// Tests assert bit-exact float reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp, reason = "bit-exact float asserts"))]

pub mod ablation_prediction;
pub mod ablation_reward;
pub mod args;
pub mod fig10_greedy_rate;
pub mod fig11_width;
pub mod fig12_overhead;
pub mod fig13_aggregation;
pub mod fig2_histogram;
pub mod fig3_savings;
pub mod fig4_prediction;
pub mod fig7_total_cost;
pub mod fig8_bucket_cost;
pub mod fig9_learning_rate;
pub mod report;

pub use args::Args;
pub use report::{ConfigBlock, Report};

use minicost::prelude::*;

/// The experiment-standard pricing model: the op-dominated regime the
/// paper's evaluation implies (see `PricingPolicy::paper_2020`).
#[must_use]
pub fn experiment_model() -> CostModel {
    CostModel::new(PricingPolicy::paper_2020())
}

/// The experiment-standard simulation configuration, built through the
/// validating [`SimConfig`] builder: paper defaults (initial tier Hot,
/// daily decisions), the run's seed, and the requested shard count.
///
/// Panics on an invalid combination — right for a lab harness.
#[must_use]
pub fn experiment_sim_config(seed: u64, workers: usize) -> SimConfig {
    match SimConfig::builder().seed(seed).workers(workers).build() {
        Ok(cfg) => cfg,
        Err(e) => panic!("experiment sim config: {e}"),
    }
}

/// The experiment-standard trace configuration at a given scale.
#[must_use]
pub fn experiment_trace(files: usize, days: usize, seed: u64) -> TraceConfig {
    TraceConfig { files, days, seed, ..TraceConfig::default() }
}

/// The experiment-standard MiniCost training configuration.
///
/// `updates` controls the training budget; `width` the paper's
/// filters/neurons knob. Tuned hyperparameters are recorded in DESIGN.md.
#[must_use]
pub fn experiment_training(updates: u64, width: usize, seed: u64) -> MiniCostConfig {
    // The tuned recipe (shaped-regret reward, oracle-guided A3C; DESIGN.md
    // §4) comes from MiniCostConfig::fast(); experiments widen and extend.
    let mut cfg = MiniCostConfig::fast();
    cfg.width = width;
    cfg.a3c.total_updates = updates;
    cfg.a3c.workers = 4;
    cfg.a3c.seed = seed;
    cfg
}
