//! # MiniCost
//!
//! A reproduction of *"A Reinforcement Learning Based System for Minimizing
//! Cloud Storage Service Cost"* (Wang, Shen, Liu, Zheng, Xu — ICPP 2020).
//!
//! MiniCost decides, for every data file of a web application stored with a
//! cloud service provider, which storage tier (hot / cold / archive) the
//! file should occupy each day, minimizing the customer's total payment —
//! storage, read/write operations, and tier-change charges (the paper's
//! Eqs. 5–9). The decision engine is an actor-critic reinforcement-learning
//! agent trained with asynchronous workers (A3C, §5.1), and an optional
//! enhancement aggregates concurrently-requested files when the saved
//! operation charges outweigh the replica storage (§5.2, Eqs. 13–16).
//!
//! ## Crate layout
//!
//! * [`sim`] — the day-stepping billing simulator; runs any [`policy::Policy`]
//!   over a trace and produces exact [`pricing::Money`] ledgers.
//! * [`engine`] — the sharded parallel engine behind [`sim::simulate`]:
//!   deterministic fleet partitioning, per-shard accumulators, and the
//!   fixed-order merge that keeps parallel runs bit-identical.
//! * [`fleet`] — the columnar fleet state, simulate's and serve's one
//!   decision input, plus the borrowed [`fleet::FleetView`] /
//!   [`fleet::FeatureBlock`] surface policies consume.
//! * [`policy`] — the paper's five comparison strategies: `Hot`, `Cold`,
//!   `Greedy`, `Optimal` (exact per-file DP; provably the brute-force
//!   optimum), and the trained `RlPolicy`.
//! * [`optimal`] — the offline solver and its brute-force cross-check.
//! * [`features`] / [`mdp`] — state featurization, the Eq. 4 reward, and the
//!   [`rl::Env`] implementation the agent trains in.
//! * [`train`] — the end-to-end pipeline: trace → environment → A3C →
//!   deployable [`policy::RlPolicy`].
//! * [`aggregate`] — the §5.2 concurrent-request aggregation enhancement.
//! * [`serve`](mod@serve) — the online serving loop: streamed events drive bounded
//!   online statistics, policy decisions, exact incremental ledgers, and
//!   atomic checkpoint/restore (bit-identical to [`sim`] in exact mode).
//! * [`supervise`] — the self-healing shell around [`serve`](mod@serve): bounded
//!   retries with deterministic backoff, checkpoint-rotation fallback,
//!   degraded-mode policy pinning, and the incident log — driven by the
//!   seeded chaos harness in `minicost-stream`'s `fault` module.
//! * [`metrics`] — per-bucket cost attribution and overhead timing.
//! * [`predictive`] — the forecast-then-optimize planner the paper's §3.2
//!   argues against, made executable.
//! * [`multi`] — multi-datacenter placement over `datacenter x tier`
//!   (the §4.1 generalization).
//!
//! ## Quickstart
//!
//! ```
//! use minicost::prelude::*;
//!
//! // 1. A small synthetic trace calibrated to the paper's Wikipedia stats.
//! let trace = Trace::generate(&TraceConfig::small(200, 21, 7));
//! let model = CostModel::new(PricingPolicy::azure_blob_2020());
//!
//! // 2. Simulate the always-hot baseline and the exact offline optimum.
//! let cfg = SimConfig::default();
//! let hot = simulate(&trace, &model, &HotPolicy, &cfg);
//! let opt = simulate(&trace, &model, &OptimalPolicy::plan(&trace, &model, cfg.initial_tier), &cfg);
//! assert!(opt.total_cost() <= hot.total_cost());
//! ```

#![warn(missing_docs)]
// Library code must surface failures as values, and must not truncate op
// counters, byte sizes or tick indices silently; tests may do both.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::cast_possible_truncation)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::cast_possible_truncation,
        reason = "tests may panic and cast freely"
    )
)]
// Tests assert bit-exact float reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp, reason = "bit-exact float asserts"))]

pub mod aggregate;
pub mod engine;
pub mod features;
pub mod fleet;
pub mod mdp;
pub mod metrics;
pub mod multi;
pub mod optimal;
pub mod policy;
pub mod predictive;
pub mod serve;
pub mod sim;
pub mod supervise;
pub mod train;

/// One-stop imports for examples and experiment harnesses.
pub mod prelude {
    pub use crate::aggregate::{apply_aggregation, AggregationPlanner, Omega};
    pub use crate::engine::{
        merge_shards, par_map_indices, partition, run_shard, shard_of, ShardRun,
    };
    pub use crate::features::FeatureConfig;
    pub use crate::fleet::{FeatureBlock, FleetState, FleetView};
    pub use crate::mdp::{OracleTables, RewardConfig, RewardKind, TieringEnv, TieringEnvConfig};
    pub use crate::metrics::{bucket_costs, decision_latency, normalized_costs, DecisionLatency};
    pub use crate::multi::{optimal_location_plan, Location, MultiCspModel};
    pub use crate::optimal::{brute_force_plan, optimal_plan, suffix_values};
    pub use crate::policy::{
        ColdPolicy, DecisionContext, GreedyPolicy, HotPolicy, OptimalPolicy, Policy, RlPolicy,
        SingleTierPolicy,
    };
    pub use crate::predictive::PredictivePolicy;
    pub use crate::serve::{serve, ServeConfig, ServeError, ServeReport, StoreConfig, StoreReport};
    pub use crate::sim::{
        default_workers, simulate, SimConfig, SimConfigBuilder, SimConfigError, SimResult,
    };
    pub use crate::supervise::{
        DegradedPolicy, Incident, IncidentKind, IncidentLog, SuperviseConfig, Supervisor,
    };
    pub use crate::train::{MiniCost, MiniCostConfig};
    pub use pricing::{CostModel, Money, PricingPolicy, Tier};
    pub use stream::{FaultPlan, FaultSite};
    pub use tracegen::{Trace, TraceConfig};
}

pub use prelude::*;
