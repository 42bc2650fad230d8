//! The paper's five data-storage-type assignment strategies (§6.1):
//! *Hot*, *Cold*, *Greedy*, *Optimal*, and the RL-driven *MiniCost* policy.
//!
//! The trait is **batch-first and columnar**: the simulator hands every
//! policy a [`DecisionContext`] describing a *batch* of files (identified by
//! their global indices into the columnar [`FleetState`]) and asks for one
//! tier per batch entry. A batch may be the whole fleet (single-threaded
//! runs) or one shard of it (the parallel engine in [`crate::engine`]). The
//! sharding determinism contract (DESIGN.md §9) requires every policy's
//! decision for a file to depend only on that file, the day, and the file's
//! own current tier — never on which other files share the batch.

use crate::features::FeatureConfig;
use crate::fleet::{FeatureBlock, FleetState, FleetView, History};
use crate::optimal::optimal_plan;
use pricing::{CostModel, Money, Tier};
use rl::actor_critic::argmax;
use rl::{NetSpec, TrainResult};
use std::sync::Arc;
use tracegen::Trace;

/// Everything a policy may observe when deciding tiers for one batch of
/// files on one day.
///
/// The information model follows the paper: *Hot*/*Cold* ignore the fleet;
/// *Greedy* reads the decided day's true frequencies (it is an "offline
/// greedy algorithm for each day"); *Optimal* reads the whole future;
/// the RL policy reads only history strictly before `day`.
pub struct DecisionContext<'a> {
    /// The day being decided (tiers apply for this whole day).
    pub day: usize,
    /// The decision input in columnar form (each policy uses only its
    /// allowed slice of history; serve's holds only a trailing window).
    pub fleet: &'a FleetState,
    /// The pricing/cost model.
    pub model: &'a CostModel,
    /// Global indices (into `fleet`) of the files in this batch, in
    /// ascending order.
    pub batch: &'a [usize],
    /// Tier each batch entry occupied at the end of the previous day,
    /// parallel to `batch`.
    pub current: &'a [Tier],
}

impl<'a> DecisionContext<'a> {
    /// Number of files in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The global fleet index of batch entry `slot`. Total: an
    /// out-of-range slot maps to index `usize::MAX`, which every fleet
    /// accessor then reads as zero values.
    #[must_use]
    pub fn global(&self, slot: usize) -> usize {
        self.batch.get(slot).copied().unwrap_or(usize::MAX)
    }

    /// Size of batch entry `slot`.
    #[must_use]
    pub fn size_gb(&self, slot: usize) -> f64 {
        self.fleet.size_gb(self.global(slot))
    }

    /// Stored daily read series of batch entry `slot`: only the trailing
    /// window under serve, so full-series readers are simulate-only.
    #[must_use]
    pub fn reads(&self, slot: usize) -> &'a [u64] {
        self.fleet.reads(self.global(slot))
    }

    /// Stored daily write series of batch entry `slot` (see `reads`).
    #[must_use]
    pub fn writes(&self, slot: usize) -> &'a [u64] {
        self.fleet.writes(self.global(slot))
    }

    /// Read/write pair of batch entry `slot` on the decided day.
    #[must_use]
    pub fn day_counts(&self, slot: usize) -> (u64, u64) {
        self.fleet.day_counts(self.global(slot), self.day)
    }

    /// Observable past of batch entry `slot` on the decided day (see
    /// [`FleetState::history`]), the same under simulate and serve.
    #[must_use]
    pub fn history(&self, slot: usize, window: usize) -> History<'a> {
        self.fleet.history(self.global(slot), self.day, window)
    }

    /// The batch as a borrowed [`FleetView`] (the batched-featurization
    /// input).
    #[must_use]
    pub fn view(&self) -> FleetView<'a> {
        self.fleet.view(self.batch, self.day)
    }
}

/// A data-storage-type assignment strategy.
///
/// A policy decides a whole batch at once through
/// [`Policy::decide_batch_into`], and [`Policy::fork`] gives each tile of
/// the engine's sweep, and each serve run, a private instance. The call is
/// *buffer-reusing*: the engine's day loop and serve both hoist one
/// decision buffer outside the loop, so steady-state decision sweeps
/// allocate nothing (the `alloc_budget` test measures this).
///
/// [`crate::sim::simulate`] and [`crate::serve::serve`] take `&dyn Policy`
/// and decide only on forks, so they never mutate the instance they are
/// given: a run is a fresh episode however many ran before it. The
/// `Send + Sync` bound is what lets every shard thread share that one
/// instance and fork its own tiles from it.
pub trait Policy: Send + Sync {
    /// Short name for reports ("hot", "greedy", "minicost", ...).
    fn name(&self) -> &'static str;

    /// Writes one tier per batch entry of `ctx` into `out`, in batch
    /// order, replacing whatever `out` held before.
    ///
    /// # Determinism contract
    ///
    /// The tier written for a file must be a pure function of
    /// `(file, day, current-tier-of-that-file, policy state)`, never of
    /// which other files share the batch nor of the buffer's prior
    /// contents (implementations clear `out`, then fill it), so that
    /// sharded and single-threaded simulations produce identical ledgers
    /// (DESIGN.md §9). The policy-conformance suite in
    /// `tests/policy_conformance.rs` enforces this for every shipped policy.
    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>);

    /// An independent copy that starts a fresh run.
    ///
    /// The fork must make decisions identical to `self`'s; accumulated
    /// per-instance state (caches, plans) may be dropped as long as it is
    /// rebuilt deterministically. `simulate` decides every tile, and
    /// `serve` every run, on a fork, never on `self`.
    fn fork(&self) -> Box<dyn Policy>;
}

/// Keeps every file in one fixed tier forever.
#[derive(Clone, Copy, Debug)]
pub struct SingleTierPolicy {
    tier: Tier,
    name: &'static str,
}

impl SingleTierPolicy {
    /// A policy pinned to `tier`.
    #[must_use]
    pub fn new(tier: Tier) -> SingleTierPolicy {
        SingleTierPolicy { tier, name: tier.name() }
    }
}

impl Policy for SingleTierPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        out.resize(ctx.len(), self.tier);
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// The paper's *Hot* baseline: everything in hot storage.
#[derive(Clone, Copy, Debug, Default)]
pub struct HotPolicy;

impl Policy for HotPolicy {
    fn name(&self) -> &'static str {
        "hot"
    }

    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        out.resize(ctx.len(), Tier::Hot);
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// The paper's *Cold* baseline: everything in cool storage.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColdPolicy;

impl Policy for ColdPolicy {
    fn name(&self) -> &'static str {
        "cold"
    }

    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        out.resize(ctx.len(), Tier::Cool);
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// The paper's *Greedy* baseline: for each day, each file goes to the tier
/// minimizing that single day's cost including the tier-change charge
/// ("simply select the storage type with the minimum money cost only for
/// the next day", §3.2). Myopic by construction — no look-ahead.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyPolicy;

impl Policy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        out.extend(ctx.current.iter().enumerate().map(|(slot, &cur)| {
            let size_gb = ctx.size_gb(slot);
            let (r, w) = ctx.day_counts(slot);
            let q = |t: Tier| {
                ctx.model.policy().change_cost(cur, t, size_gb)
                    + ctx.model.steady_day_cost(size_gb, r, w, t)
            };
            // Each tier is priced once; the first minimum wins, so ties
            // (`flat()`, or costs saturated at `Money::MAX`) keep the hotter tier.
            let mut best = (Tier::Hot, q(Tier::Hot));
            for t in [Tier::Cool, Tier::Archive] {
                let cost = q(t);
                if cost < best.1 {
                    best = (t, cost);
                }
            }
            best.0
        }));
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(*self)
    }
}

/// The paper's *Optimal* baseline: the exact offline optimum, precomputed
/// per file over the full horizon (see [`crate::optimal`]).
///
/// The plans are immutable once solved, so every [`Policy::fork`] shares
/// them by reference, as [`RlPolicy`] shares its actor.
#[derive(Clone, Debug)]
pub struct OptimalPolicy {
    plans: Arc<[Vec<Tier>]>,
    /// Total cost the planner expects (useful for cross-checking the
    /// simulator's ledger).
    pub planned_cost: Money,
}

impl OptimalPolicy {
    /// Solves the full-horizon optimum for every file of `trace`.
    #[must_use]
    pub fn plan(trace: &Trace, model: &CostModel, initial_tier: Tier) -> OptimalPolicy {
        let mut plans = Vec::with_capacity(trace.files.len());
        let mut planned_cost = Money::ZERO;
        for file in &trace.files {
            let (plan, cost) = optimal_plan(file, model, initial_tier);
            planned_cost += cost;
            plans.push(plan);
        }
        OptimalPolicy { plans: plans.into(), planned_cost }
    }
}

impl Policy for OptimalPolicy {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        out.extend(ctx.batch.iter().map(|&ix| self.plans[ix][ctx.day]));
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

/// The trained MiniCost policy: one shared actor network applied per file
/// (O(1) per decision, O(n) per day — §5.1).
///
/// Decisions run the actor's stateless [`nn::Network::infer_into`], so the
/// network is immutable after construction and every [`Policy::fork`]
/// shares it by reference; only the scratch buffers are per instance.
pub struct RlPolicy {
    actor: Arc<nn::Network>,
    spec: NetSpec,
    features: FeatureConfig,
    name: &'static str,
    /// Batched-featurization scratch, hoisted so the daily decision sweep
    /// reuses one `files x state_dim` block instead of reallocating it.
    block: FeatureBlock,
    /// Inference row-tile buffers and logits, reused for the same reason.
    scratch: nn::ForwardScratch,
}

impl RlPolicy {
    /// Wraps a trained actor. The spec's state width must match the
    /// feature configuration.
    #[must_use]
    pub fn new(result: &TrainResult, features: FeatureConfig) -> RlPolicy {
        RlPolicy::from_params(result.spec, &result.actor_params, features)
    }

    /// Builds directly from a spec and parameter vector.
    #[must_use]
    pub fn from_params(spec: NetSpec, actor_params: &[f64], features: FeatureConfig) -> RlPolicy {
        assert_eq!(
            spec.state_dim(),
            features.state_dim(),
            "network spec and feature config disagree on state width"
        );
        let mut actor = spec.build_actor(0);
        actor.set_params(actor_params);
        RlPolicy::sharing(Arc::new(actor), spec, features)
    }

    /// A policy over an already-built actor, with fresh scratch buffers.
    fn sharing(actor: Arc<nn::Network>, spec: NetSpec, features: FeatureConfig) -> RlPolicy {
        RlPolicy {
            actor,
            spec,
            features,
            name: "minicost",
            block: FeatureBlock::new(),
            scratch: nn::ForwardScratch::new(),
        }
    }
}

impl Policy for RlPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Greedy actions for the whole batch in one network pass.
    ///
    /// The batch is featurized straight off the columnar fleet into the
    /// policy's hoisted [`FeatureBlock`] and pushed through the actor's
    /// stateless, buffer-reusing [`nn::Network::infer_into`], so the steady-state
    /// sweep allocates nothing — this is what makes the daily decision
    /// sweep of Fig. 12 cheap at scale. Every forward row depends only on
    /// its own input row, so a file's tier never depends on the batch.
    ///
    /// On day 0 nothing has been observed yet: every file would encode to
    /// the same all-padding state, so acting would apply one blind action
    /// to the whole catalog (catastrophic for the traffic head). The batch
    /// holds its current tiers until the first observation arrives.
    fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
        out.clear();
        if ctx.day == 0 || ctx.is_empty() {
            out.extend_from_slice(ctx.current);
            return;
        }
        self.features.encode_block(&ctx.view(), ctx.current, &mut self.block);
        let logits = self.actor.infer_into(self.block.matrix(), &mut self.scratch);
        out.extend(
            ctx.current
                .iter()
                .enumerate()
                .map(|(row, &cur)| Tier::from_index(argmax(logits.row(row))).unwrap_or(cur)),
        );
    }

    fn fork(&self) -> Box<dyn Policy> {
        Box::new(RlPolicy::sharing(Arc::clone(&self.actor), self.spec, self.features))
    }
}

/// Decides every file of `trace` on `day` in one batch: the unit tests'
/// one-shot form of [`Policy::decide_batch_into`].
#[cfg(test)]
pub(crate) fn decide_trace(
    policy: &mut dyn Policy,
    day: usize,
    trace: &Trace,
    model: &CostModel,
    current: &[Tier],
) -> Vec<Tier> {
    let fleet = FleetState::from_trace(trace);
    let batch: Vec<usize> = (0..fleet.len()).collect();
    let mut out = Vec::new();
    policy.decide_batch_into(
        &DecisionContext { day, fleet: &fleet, model, batch: &batch, current },
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pricing::PricingPolicy;
    use tracegen::TraceConfig;

    fn setup() -> (Trace, CostModel) {
        (
            Trace::generate(&TraceConfig::small(30, 14, 3)),
            CostModel::new(PricingPolicy::azure_blob_2020()),
        )
    }

    fn fleet(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn ctx<'a>(
        fleet: &'a FleetState,
        model: &'a CostModel,
        day: usize,
        batch: &'a [usize],
        current: &'a [Tier],
    ) -> DecisionContext<'a> {
        DecisionContext { day, fleet, model, batch, current }
    }

    fn decide(policy: &mut dyn Policy, c: &DecisionContext<'_>) -> Vec<Tier> {
        let mut out = Vec::new();
        policy.decide_batch_into(c, &mut out);
        out
    }

    fn test_spec() -> NetSpec {
        NetSpec {
            window: 4,
            channels: crate::features::FeatureConfig::CHANNELS,
            extras: crate::features::EXTRA_FEATURES,
            filters: 4,
            kernel: 2,
            stride: 1,
            hidden: 8,
            actions: 3,
        }
    }

    #[test]
    fn single_tier_policies_are_constant() {
        let (trace, model) = setup();
        let columns = FleetState::from_trace(&trace);
        let batch = fleet(trace.len());
        let current = vec![Tier::Hot; trace.len()];
        let c = ctx(&columns, &model, 0, &batch, &current);
        assert!(decide(&mut HotPolicy, &c).iter().all(|&t| t == Tier::Hot));
        assert!(decide(&mut ColdPolicy, &c).iter().all(|&t| t == Tier::Cool));
        let mut archive = SingleTierPolicy::new(Tier::Archive);
        assert!(decide(&mut archive, &c).iter().all(|&t| t == Tier::Archive));
        assert_eq!(HotPolicy.name(), "hot");
        assert_eq!(ColdPolicy.name(), "cold");
        assert_eq!(archive.name(), "archive");
    }

    #[test]
    fn greedy_picks_the_cheapest_single_day() {
        let (trace, model) = setup();
        let columns = FleetState::from_trace(&trace);
        let batch = fleet(trace.len());
        let current = vec![Tier::Hot; trace.len()];
        let c = ctx(&columns, &model, 5, &batch, &current);
        let decision = decide(&mut GreedyPolicy, &c);
        for (i, (&chosen, file)) in decision.iter().zip(&trace.files).enumerate() {
            let (r, w) = file.day(5);
            let cost_of = |t: Tier| {
                model.policy().change_cost(Tier::Hot, t, file.size_gb)
                    + model.steady_day_cost(file.size_gb, r, w, t)
            };
            for other in Tier::all() {
                assert!(
                    cost_of(chosen) <= cost_of(other),
                    "file {i}: {chosen} not cheapest vs {other}"
                );
            }
        }
    }

    #[test]
    fn greedy_accounts_for_change_cost() {
        // A 20 GB file in cool storage with one read today: moving to hot
        // would save on the read but the cool->hot retrieval charge
        // (\$0.01/GB over 20 GB) exceeds the saving, so greedy stays put.
        let (_, model) = setup();
        let file = tracegen::FileSeries {
            id: tracegen::FileId(0),
            size_gb: 20.0,
            reads: vec![1],
            writes: vec![0],
        };
        let trace = Trace { days: 1, files: vec![file] };
        let current = vec![Tier::Cool];
        let decision = decide_trace(&mut GreedyPolicy, 0, &trace, &model, &current);
        assert_eq!(decision[0], Tier::Cool, "change cost must deter the move");

        // Sanity check of the premise: with two reads the saving flips and
        // greedy moves to hot.
        let file2 = tracegen::FileSeries {
            id: tracegen::FileId(0),
            size_gb: 20.0,
            reads: vec![2],
            writes: vec![0],
        };
        let trace2 = Trace { days: 1, files: vec![file2] };
        assert_eq!(decide_trace(&mut GreedyPolicy, 0, &trace2, &model, &current)[0], Tier::Hot);
    }

    /// The reference greedy: `reduce` re-prices the running best at every
    /// step and keeps the first minimum.
    fn greedy_by_reduce(model: &CostModel, cur: Tier, size_gb: f64, r: u64, w: u64) -> Tier {
        let q = |t: Tier| {
            model.policy().change_cost(cur, t, size_gb) + model.steady_day_cost(size_gb, r, w, t)
        };
        Tier::all().reduce(|best, t| if q(t) < q(best) { t } else { best }).unwrap_or(cur)
    }

    /// Decides a one-day fleet of `(current, size, reads, writes)` files,
    /// asserting greedy matches the `reduce` oracle on every file.
    fn greedy_against_reduce(model: &CostModel, files: &[(Tier, f64, u64, u64)]) -> Vec<Tier> {
        let trace = Trace {
            days: 1,
            files: files
                .iter()
                .enumerate()
                .map(|(i, &(_, size_gb, r, w))| tracegen::FileSeries {
                    id: tracegen::FileId(i as u32),
                    size_gb,
                    reads: vec![r],
                    writes: vec![w],
                })
                .collect(),
        };
        let columns = FleetState::from_trace(&trace);
        let batch = fleet(files.len());
        let current: Vec<Tier> = files.iter().map(|f| f.0).collect();
        let c = ctx(&columns, model, 0, &batch, &current);
        let decided = decide(&mut GreedyPolicy, &c);
        assert_eq!(decided.len(), files.len());
        for (&tier, &(cur, size_gb, r, w)) in decided.iter().zip(files) {
            assert_eq!(
                tier,
                greedy_by_reduce(model, cur, size_gb, r, w),
                "{} from {cur}: {size_gb} GB, {r} reads, {w} writes",
                model.policy().name
            );
        }
        decided
    }

    fn pricing_presets() -> [CostModel; 4] {
        [
            PricingPolicy::paper_2020(),
            PricingPolicy::azure_blob_2020(),
            PricingPolicy::aws_s3_like(),
            PricingPolicy::flat(),
        ]
        .map(CostModel::new)
    }

    #[test]
    fn greedy_oracle_keeps_the_first_minimum_on_ties() {
        // Flat prices tie every tier; a petabyte read and written 2^64 - 1
        // times saturates every tier's cost at `Money::MAX`. Either way the
        // hottest tier wins, whatever the file occupied.
        let flat = CostModel::new(PricingPolicy::flat());
        let (size_gb, ops) = (1e6, u64::MAX);
        for model in pricing_presets() {
            for t in Tier::all() {
                assert_eq!(model.steady_day_cost(size_gb, ops, ops, t), Money::MAX);
            }
        }
        for cur in Tier::all() {
            let files = [(cur, 0.3, 40, 2), (cur, 0.0, 0, 0), (cur, size_gb, ops, ops)];
            assert_eq!(greedy_against_reduce(&flat, &files), [Tier::Hot; 3]);
            for model in pricing_presets() {
                let saturated = greedy_against_reduce(&model, &[(cur, size_gb, ops, ops)]);
                assert_eq!(saturated, [Tier::Hot]);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn greedy_oracle_matches_reduce_on_random_file_days(
            files in proptest::collection::vec(
                (0usize..3, (0.0f64..1.0e6, -6.0f64..6.0), proptest::prelude::any::<u64>(), (0u64..100_000, 0u64..1_000)),
                1..24,
            ),
            shapes in proptest::collection::vec(0u8..4, 24),
        ) {
            // Shape picks the size (linear or log-uniform) and whether the
            // counts are small or span the whole `u64` range.
            let files: Vec<(Tier, f64, u64, u64)> = files
                .iter()
                .zip(&shapes)
                .map(|(&(cur, (linear, exponent), wide, (r, w)), &shape)| {
                    let size_gb = if shape & 1 == 0 { linear } else { 10f64.powf(exponent) };
                    let (r, w) = if shape & 2 == 0 { (r, w) } else { (wide, wide.rotate_left(17)) };
                    (Tier::ALL[cur], size_gb, r, w)
                })
                .collect();
            for model in pricing_presets() {
                greedy_against_reduce(&model, &files);
            }
        }
    }

    #[test]
    fn optimal_policy_replays_its_plans() {
        let (trace, model) = setup();
        let mut opt = OptimalPolicy::plan(&trace, &model, Tier::Hot);
        assert!(opt.planned_cost > Money::ZERO);
        let current = vec![Tier::Hot; trace.len()];
        for day in [0usize, 7, 13] {
            let decision = decide_trace(&mut opt, day, &trace, &model, &current);
            assert_eq!(decision.len(), trace.len());
            for (plan, &tier) in opt.plans.iter().zip(&decision) {
                assert_eq!(plan[day], tier);
            }
        }
        assert_eq!(opt.name(), "optimal");
    }

    #[test]
    fn optimal_indexes_plans_by_global_index() {
        // A sub-batch must look plans up by global trace index, not by the
        // file's position inside the batch — the sharding correctness
        // linchpin.
        let (trace, model) = setup();
        let mut opt = OptimalPolicy::plan(&trace, &model, Tier::Hot);
        let columns = FleetState::from_trace(&trace);
        let batch = vec![7usize, 12, 25];
        let current = vec![Tier::Hot; batch.len()];
        let c = ctx(&columns, &model, 9, &batch, &current);
        let decision = decide(&mut opt, &c);
        for (slot, &ix) in batch.iter().enumerate() {
            assert_eq!(decision[slot], opt.plans[ix][9]);
        }
    }

    #[test]
    fn rl_policy_produces_valid_tiers() {
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(1);
        let mut policy = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let (trace, model) = setup();
        let current = vec![Tier::Hot; trace.len()];
        let decision = decide_trace(&mut policy, 6, &trace, &model, &current);
        assert_eq!(decision.len(), trace.len());
        assert_eq!(policy.name(), "minicost");
    }

    #[test]
    fn rl_policy_is_deterministic() {
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(2);
        let mut p1 = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let mut p2 = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let (trace, model) = setup();
        let current = vec![Tier::Cool; trace.len()];
        assert_eq!(
            decide_trace(&mut p1, 9, &trace, &model, &current),
            decide_trace(&mut p2, 9, &trace, &model, &current)
        );
    }

    #[test]
    fn batched_decide_matches_per_file() {
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(9);
        let mut policy = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let (trace, model) = setup();
        let columns = FleetState::from_trace(&trace);
        let batch = fleet(trace.len());
        let current: Vec<Tier> =
            (0..trace.len()).map(|i| Tier::from_index(i % 3).unwrap()).collect();
        for day in [0usize, 1, 7] {
            let batched = decide(&mut policy, &ctx(&columns, &model, day, &batch, &current));
            let singly: Vec<Tier> = batch
                .iter()
                .flat_map(|&ix| {
                    let (one, cur) = ([ix], [current[ix]]);
                    decide(&mut policy, &ctx(&columns, &model, day, &one, &cur))
                })
                .collect();
            assert_eq!(batched, singly, "day {day}");
        }
    }

    #[test]
    fn decide_batch_into_overwrites_dirty_buffers() {
        // The engine reuses one decision buffer across days; a stale entry
        // must never survive a refill, for any override of the method.
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(9);
        let rl = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let (trace, model) = setup();
        let columns = FleetState::from_trace(&trace);
        let batch = fleet(trace.len());
        let current = vec![Tier::Hot; trace.len()];
        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(HotPolicy),
            Box::new(ColdPolicy),
            Box::new(SingleTierPolicy::new(Tier::Archive)),
            Box::new(GreedyPolicy),
            rl.fork(),
        ];
        for day in [0usize, 3] {
            let c = ctx(&columns, &model, day, &batch, &current);
            for policy in &mut policies {
                let mut dirty = vec![Tier::Archive; trace.len() + 17];
                policy.decide_batch_into(&c, &mut dirty);
                assert_eq!(dirty, decide(policy.as_mut(), &c), "{} day {day}", policy.name());
            }
        }
    }

    #[test]
    fn forked_rl_policy_decides_identically() {
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(5);
        let mut policy = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let mut fork = policy.fork();
        let (trace, model) = setup();
        let current = vec![Tier::Hot; trace.len()];
        assert_eq!(
            decide_trace(&mut policy, 6, &trace, &model, &current),
            decide_trace(fork.as_mut(), 6, &trace, &model, &current)
        );
        assert_eq!(fork.name(), "minicost");
    }

    #[test]
    fn forked_rl_policy_shares_its_actor() {
        let features = FeatureConfig { window: 4 };
        let spec = test_spec();
        let actor = spec.build_actor(6);
        let policy = RlPolicy::from_params(spec, &actor.param_vector(), features);
        let mut forks: Vec<Box<dyn Policy>> = (0..3).map(|_| policy.fork()).collect();
        // One network, four handles: nothing was copied.
        assert_eq!(Arc::strong_count(&policy.actor), 4);
        let (trace, model) = setup();
        let current = vec![Tier::Cool; trace.len()];
        let mut own = policy;
        let expect = decide_trace(&mut own, 4, &trace, &model, &current);
        for fork in &mut forks {
            assert_eq!(decide_trace(fork.as_mut(), 4, &trace, &model, &current), expect);
        }
        drop(forks);
        assert_eq!(Arc::strong_count(&own.actor), 1);
    }

    #[test]
    #[should_panic(expected = "disagree on state width")]
    fn rl_policy_rejects_mismatched_features() {
        let spec = NetSpec {
            window: 4,
            channels: crate::features::FeatureConfig::CHANNELS,
            extras: 1, // wrong: EXTRA_FEATURES is larger
            filters: 4,
            kernel: 2,
            stride: 1,
            hidden: 8,
            actions: 3,
        };
        let actor = spec.build_actor(1);
        let _ = RlPolicy::from_params(spec, &actor.param_vector(), FeatureConfig { window: 4 });
    }
}
