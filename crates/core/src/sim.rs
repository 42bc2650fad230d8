//! The day-stepping billing simulator.
//!
//! Runs a [`Policy`] over a trace day by day, exactly as the paper's agent
//! server operates (§5.1: "Everyday, the trained agent runs one time for
//! all data files, generates the action for each data file in the next
//! day"): at each decision day the policy assigns every file a tier, tier
//! changes are charged once (Eq. 9), then the day's storage and operation
//! costs accrue (Eqs. 6–8). Ledgers are exact integer micro-dollars.
//!
//! With [`SimConfig::workers`] > 1 the fleet is partitioned into
//! deterministic shards and simulated on scoped threads by the
//! [`crate::engine`]; the merged [`SimResult`] is bit-identical to the
//! single-threaded run (see DESIGN.md §9 for the contract).

use crate::engine;
use crate::fleet::FleetState;
use crate::policy::Policy;
use pricing::{CostBreakdown, CostModel, Money, Tier, TIER_COUNT};
use serde::{Deserialize, Serialize};
use tracegen::Trace;

/// Default worker count: the `MINICOST_WORKERS` environment variable if it
/// parses as a positive integer, otherwise 1 (single-threaded). CI runs the
/// whole test suite under both `MINICOST_WORKERS=1` and `=4`; the sharding
/// determinism contract is what makes that legal.
#[must_use]
pub fn default_workers() -> usize {
    std::env::var("MINICOST_WORKERS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .map_or(1, |w| w.max(1))
}

/// Simulation parameters. Construct via [`SimConfig::builder`]; the struct
/// stays plain-old-data so configs serialize and diff cleanly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Tier every file occupies before day 0 (a day-0 decision that differs
    /// is charged as a change).
    pub initial_tier: Tier,
    /// Run the policy every `decide_every` days; tiers persist in between.
    /// The paper's agent decides daily (1).
    pub decide_every: usize,
    /// Number of simulation shards/threads. Every tile of every shard
    /// decides on its own fork of the policy, whatever the count, so it
    /// never alters `Money` ledgers.
    #[serde(default = "default_workers")]
    pub workers: usize,
    /// Seed for the stable shard-assignment hash (and only that — billing
    /// itself is deterministic). Required by the builder so runs are
    /// reproducible by construction.
    #[serde(default)]
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { initial_tier: Tier::Hot, decide_every: 1, workers: default_workers(), seed: 0 }
    }
}

impl SimConfig {
    /// Starts a validating builder seeded with the paper's defaults
    /// (initial tier Hot, daily decisions, [`default_workers`] threads).
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            initial_tier: Tier::Hot,
            decide_every: 1,
            workers: default_workers(),
            seed: None,
        }
    }
}

/// A validation failure from [`SimConfigBuilder::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimConfigError {
    /// `decide_every` was zero: the policy would never run.
    ZeroDecideEvery,
    /// No seed was provided; shard assignment would not be reproducible
    /// by construction.
    MissingSeed,
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::ZeroDecideEvery => {
                write!(f, "decide_every must be a positive number of days")
            }
            SimConfigError::MissingSeed => {
                write!(f, "a shard seed is required (call .seed(..))")
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Builder for [`SimConfig`]: clamps `workers` to ≥ 1, rejects a zero
/// decision cadence, and requires a seed.
#[derive(Clone, Copy, Debug)]
pub struct SimConfigBuilder {
    initial_tier: Tier,
    decide_every: usize,
    workers: usize,
    seed: Option<u64>,
}

impl SimConfigBuilder {
    /// Sets the tier every file occupies before day 0.
    #[must_use]
    pub fn initial_tier(mut self, tier: Tier) -> Self {
        self.initial_tier = tier;
        self
    }

    /// Sets the decision cadence in days (validated non-zero at build).
    #[must_use]
    pub fn decide_every(mut self, days: usize) -> Self {
        self.decide_every = days;
        self
    }

    /// Sets the shard/thread count; values below 1 are clamped to 1.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the required shard-assignment seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// [`SimConfigError::ZeroDecideEvery`] if the cadence is zero and
    /// [`SimConfigError::MissingSeed`] if [`Self::seed`] was never called.
    pub fn build(self) -> Result<SimConfig, SimConfigError> {
        if self.decide_every == 0 {
            return Err(SimConfigError::ZeroDecideEvery);
        }
        let Some(seed) = self.seed else {
            return Err(SimConfigError::MissingSeed);
        };
        Ok(SimConfig {
            initial_tier: self.initial_tier,
            decide_every: self.decide_every,
            workers: self.workers.max(1),
            seed,
        })
    }
}

/// The outcome of one simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Policy that produced the run.
    pub policy_name: String,
    /// Aggregate cost components per day.
    pub daily: Vec<CostBreakdown>,
    /// Cumulative cost per file over the whole run.
    pub per_file: Vec<Money>,
    /// Wall-clock milliseconds per decision day (the paper's Fig. 12
    /// "computing overhead"). Under sharded runs this is the per-day
    /// maximum across shards — the parallel critical path — and is the one
    /// ledger that legitimately varies with `workers`.
    pub decision_millis: Vec<f64>,
    /// Raw per-shard decision ledgers (`shard_decision_millis[shard][k]`),
    /// in fixed shard order. Single-threaded runs have exactly one entry.
    #[serde(default)]
    pub shard_decision_millis: Vec<Vec<f64>>,
    /// Total number of tier changes applied.
    pub tier_changes: u64,
    /// Files resident in each tier at the end of each day
    /// (`occupancy[day][tier]`), for tier-drift analysis.
    pub occupancy: Vec<[usize; TIER_COUNT]>,
}

impl SimResult {
    /// Total cost across all files and days.
    #[must_use]
    pub fn total_cost(&self) -> Money {
        self.daily.iter().map(CostBreakdown::total).sum()
    }

    /// Cumulative cost through day `d` inclusive (clamped to the horizon).
    #[must_use]
    pub fn cumulative_cost(&self, d: usize) -> Money {
        self.daily.iter().take(d.saturating_add(1)).map(CostBreakdown::total).sum()
    }

    /// Number of simulated days.
    #[must_use]
    pub fn days(&self) -> usize {
        self.daily.len()
    }

    /// Total wall-clock milliseconds spent deciding (critical path under
    /// sharding).
    #[must_use]
    pub fn total_decision_millis(&self) -> f64 {
        self.decision_millis.iter().sum()
    }
}

/// Runs `policy` over `trace` under `model`.
///
/// With `cfg.workers == 1` the fleet is one shard; with more, each
/// deterministic shard runs on its own scoped thread and the results are
/// merged in fixed shard order, so every `Money`/occupancy/tier-change
/// ledger is bit-identical to the single-threaded run (DESIGN.md §9).
/// [`engine::run_shard`] sweeps a shard in fixed tiles of files and decides
/// each tile on a fresh [`Policy::fork`], so `policy` itself never decides:
/// one instance run twice gives the same ledgers as a fresh one.
///
/// Panics if the policy returns a tier vector of the wrong length or if
/// `cfg.decide_every == 0` (unreachable through the builder).
pub fn simulate(
    trace: &Trace,
    model: &CostModel,
    policy: &dyn Policy,
    cfg: &SimConfig,
) -> SimResult {
    assert!(cfg.decide_every > 0, "decide_every must be positive");
    let n = trace.files.len();
    let workers = cfg.workers.max(1).min(n.max(1));
    // Columnarize once per run; shard workers share the one read-only state.
    let fleet = FleetState::from_trace(trace);

    if workers == 1 {
        let all: Vec<usize> = (0..n).collect();
        let shard = engine::run_shard(&fleet, model, policy, cfg, &all);
        return engine::merge_shards(policy.name(), trace.days, n, std::slice::from_ref(&shard));
    }

    let shards = engine::partition(trace, cfg.seed, workers);
    let runs: Vec<engine::ShardRun> = std::thread::scope(|scope| {
        let fleet = &fleet;
        let handles: Vec<_> = shards
            .iter()
            .map(|indices| {
                scope.spawn(move || engine::run_shard(fleet, model, policy, cfg, indices))
            })
            .collect();
        // Join in spawn order == partition order: the merge below must
        // never observe thread-completion order.
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(run) => run,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    engine::merge_shards(policy.name(), trace.days, n, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ColdPolicy, GreedyPolicy, HotPolicy, OptimalPolicy};
    use pricing::PricingPolicy;
    use tracegen::TraceConfig;

    fn setup() -> (Trace, CostModel) {
        (
            Trace::generate(&TraceConfig::small(40, 21, 9)),
            CostModel::new(PricingPolicy::azure_blob_2020()),
        )
    }

    fn single() -> SimConfig {
        SimConfig { workers: 1, ..SimConfig::default() }
    }

    #[test]
    fn hot_policy_never_changes_tiers() {
        let (trace, model) = setup();
        let result = simulate(&trace, &model, &HotPolicy, &single());
        assert_eq!(result.tier_changes, 0);
        assert_eq!(result.days(), 21);
        assert_eq!(result.per_file.len(), 40);
        assert_eq!(result.policy_name, "hot");
        // No change cost component at all.
        assert!(result.daily.iter().all(|d| d.change == Money::ZERO));
    }

    #[test]
    fn cold_policy_changes_once_per_file() {
        let (trace, model) = setup();
        // Initial tier is Hot, so day 0 moves every file to Cool exactly once.
        let result = simulate(&trace, &model, &ColdPolicy, &single());
        assert_eq!(result.tier_changes, 40);
        assert!(result.daily[0].change > Money::ZERO);
        assert!(result.daily[1..].iter().all(|d| d.change == Money::ZERO));
    }

    #[test]
    fn per_file_ledger_sums_to_daily_ledger() {
        let (trace, model) = setup();
        let result = simulate(&trace, &model, &GreedyPolicy, &single());
        let per_file_total: Money = result.per_file.iter().sum();
        assert_eq!(per_file_total, result.total_cost());
    }

    #[test]
    fn simulator_reproduces_optimal_planned_cost() {
        // The simulator's ledger for OptimalPolicy must equal the DP's own
        // cost computation exactly — two independent accounting paths.
        let (trace, model) = setup();
        let opt = OptimalPolicy::plan(&trace, &model, Tier::Hot);
        let planned = opt.planned_cost;
        let result = simulate(&trace, &model, &opt, &single());
        assert_eq!(result.total_cost(), planned);
    }

    #[test]
    fn optimal_is_cheapest() {
        let (trace, model) = setup();
        let cfg = single();
        let hot = simulate(&trace, &model, &HotPolicy, &cfg).total_cost();
        let cold = simulate(&trace, &model, &ColdPolicy, &cfg).total_cost();
        let greedy = simulate(&trace, &model, &GreedyPolicy, &cfg).total_cost();
        let opt =
            simulate(&trace, &model, &OptimalPolicy::plan(&trace, &model, cfg.initial_tier), &cfg)
                .total_cost();
        assert!(opt <= greedy, "optimal {opt} vs greedy {greedy}");
        assert!(opt <= hot && opt <= cold);
        // Greedy at least matches the better static baseline... not
        // guaranteed in general, but it never loses to *both* since it can
        // mimic either; assert against the max.
        assert!(greedy <= hot.max(cold), "greedy {greedy} hot {hot} cold {cold}");
    }

    #[test]
    fn occupancy_partitions_the_catalog() {
        let (trace, model) = setup();
        let result = simulate(&trace, &model, &GreedyPolicy, &single());
        assert_eq!(result.occupancy.len(), trace.days);
        for day in &result.occupancy {
            assert_eq!(day.iter().sum::<usize>(), trace.len());
        }
        // Hot policy: everything in hot every day.
        let hot = simulate(&trace, &model, &HotPolicy, &single());
        assert!(hot.occupancy.iter().all(|d| d[0] == trace.len()));
    }

    #[test]
    fn cumulative_cost_is_monotone() {
        let (trace, model) = setup();
        let result = simulate(&trace, &model, &GreedyPolicy, &single());
        let mut prev = Money::ZERO;
        for d in 0..result.days() {
            let c = result.cumulative_cost(d);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(result.cumulative_cost(10_000), result.total_cost());
    }

    #[test]
    fn decide_every_skips_decisions() {
        let (trace, model) = setup();
        let cfg = SimConfig { decide_every: 7, ..single() };
        let result = simulate(&trace, &model, &GreedyPolicy, &cfg);
        // 21 days, deciding on days 0, 7, 14.
        assert_eq!(result.decision_millis.len(), 3);
    }

    #[test]
    fn empty_trace_simulates_to_zero() {
        let (_, model) = setup();
        let trace = Trace { days: 0, files: vec![] };
        let result = simulate(&trace, &model, &HotPolicy, &SimConfig::default());
        assert_eq!(result.total_cost(), Money::ZERO);
        assert_eq!(result.days(), 0);
    }

    #[test]
    fn initial_tier_affects_day_zero_changes() {
        let (trace, model) = setup();
        let cfg = SimConfig { initial_tier: Tier::Cool, ..single() };
        let result = simulate(&trace, &model, &ColdPolicy, &cfg);
        // Already cool: no changes at all.
        assert_eq!(result.tier_changes, 0);
    }

    #[test]
    #[should_panic(expected = "decide_every")]
    fn zero_decide_every_panics() {
        let (trace, model) = setup();
        let cfg = SimConfig { decide_every: 0, ..single() };
        let _ = simulate(&trace, &model, &HotPolicy, &cfg);
    }

    #[test]
    fn sharded_greedy_is_bit_identical() {
        let (trace, model) = setup();
        let base = simulate(&trace, &model, &GreedyPolicy, &single());
        for workers in [2usize, 3, 5] {
            let cfg = SimConfig { workers, seed: 11, ..SimConfig::default() };
            let sharded = simulate(&trace, &model, &GreedyPolicy, &cfg);
            assert_eq!(sharded.daily, base.daily, "workers={workers}");
            assert_eq!(sharded.per_file, base.per_file);
            assert_eq!(sharded.tier_changes, base.tier_changes);
            assert_eq!(sharded.occupancy, base.occupancy);
            assert_eq!(sharded.shard_decision_millis.len(), workers);
        }
    }

    #[test]
    fn more_workers_than_files_degrades_gracefully() {
        let (_, model) = setup();
        let trace = Trace::generate(&TraceConfig::small(3, 7, 1));
        let cfg = SimConfig { workers: 64, seed: 5, ..SimConfig::default() };
        let sharded = simulate(&trace, &model, &GreedyPolicy, &cfg);
        let base = simulate(&trace, &model, &GreedyPolicy, &single());
        assert_eq!(sharded.daily, base.daily);
    }

    #[test]
    fn builder_validates_and_clamps() {
        let cfg = SimConfig::builder()
            .initial_tier(Tier::Cool)
            .decide_every(3)
            .workers(0)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(cfg.initial_tier, Tier::Cool);
        assert_eq!(cfg.decide_every, 3);
        assert_eq!(cfg.workers, 1, "workers clamps to >= 1");
        assert_eq!(cfg.seed, 99);

        assert_eq!(
            SimConfig::builder().decide_every(0).seed(1).build(),
            Err(SimConfigError::ZeroDecideEvery)
        );
        assert_eq!(SimConfig::builder().build(), Err(SimConfigError::MissingSeed));
        assert!(!SimConfigError::MissingSeed.to_string().is_empty());
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
        assert!(SimConfig::default().workers >= 1);
    }
}
