//! Reference simulator: the paper's daily all-files sweep (§5.1) written as
//! plain per-file loops, billed straight from Eqs. 5–9.
//!
//! Each file runs on its own fork of the policy, which decides it on a
//! singleton batch, days ascending; each day is priced through
//! `TierPrices::{storage_day, read_cost, write_cost}` and
//! `PricingPolicy::change_cost`, not through `CostModel::day_breakdown`,
//! the engine's billing kernel. However the engine orders, tiles or shards
//! the sweep, `simulate` at one worker and at four must reproduce these
//! ledgers bit for bit.

use minicost::prelude::*;
use pricing::{CostBreakdown, TIER_COUNT};
use proptest::prelude::*;
use tracegen::{FileId, FileSeries};

/// Files per tile of the engine's shard loop (`engine::TILE_FILES`, private
/// to the engine); the fixed case below spans more than two tiles.
const TILE: usize = 1024;

/// The ledgers `simulate` must reproduce; decision timings are exempt.
struct Ledgers {
    daily: Vec<CostBreakdown>,
    per_file: Vec<Money>,
    tier_changes: u64,
    occupancy: Vec<[usize; TIER_COUNT]>,
}

/// Simulates `trace` one file at a time.
fn reference(trace: &Trace, model: &CostModel, policy: &dyn Policy, cfg: &SimConfig) -> Ledgers {
    let fleet = FleetState::from_trace(trace);
    let prices = model.policy();
    let mut out = Ledgers {
        daily: vec![CostBreakdown::default(); trace.days],
        per_file: vec![Money::ZERO; trace.len()],
        tier_changes: 0,
        occupancy: vec![[0; TIER_COUNT]; trace.days],
    };
    let mut decision = Vec::new();
    for (ix, file) in trace.files.iter().enumerate() {
        let mut fork = policy.fork();
        let mut tier = cfg.initial_tier;
        for day in 0..trace.days {
            let mut target = tier;
            if day % cfg.decide_every == 0 {
                let ctx =
                    DecisionContext { day, fleet: &fleet, model, batch: &[ix], current: &[tier] };
                fork.decide_batch_into(&ctx, &mut decision);
                assert_eq!(decision.len(), 1, "{} decides its one file", policy.name());
                target = decision[0];
            }
            let (at, size) = (prices.tier(target), file.size_gb);
            let bill = CostBreakdown {
                storage: at.storage_day(size),
                change: prices.change_cost(tier, target, size),
                read: at.read_cost(file.reads[day], size),
                write: at.write_cost(file.writes[day], size),
            };
            out.daily[day] += bill;
            out.per_file[ix] += bill.total();
            out.tier_changes += u64::from(target != tier);
            out.occupancy[day][target.index()] += 1;
            tier = target;
        }
    }
    out
}

/// Hot, Cold, Greedy, Optimal planned from `initial`, Predictive and an
/// untrained RL actor.
fn policies(trace: &Trace, model: &CostModel, initial: Tier) -> Vec<Box<dyn Policy>> {
    let spec = MiniCostConfig::fast().net_spec();
    let actor = spec.build_actor(11).param_vector();
    vec![
        Box::new(HotPolicy),
        Box::new(ColdPolicy),
        Box::new(GreedyPolicy),
        Box::new(OptimalPolicy::plan(trace, model, initial)),
        Box::new(PredictivePolicy::new(forecast::Naive, 4)),
        Box::new(RlPolicy::from_params(spec, &actor, FeatureConfig::default())),
    ]
}

/// Asserts `simulate` at workers 1 and 4 equals the reference for every
/// policy.
fn check(trace: &Trace, model: &CostModel, initial: Tier, decide_every: usize) {
    let cfg = |workers| {
        SimConfig::builder()
            .initial_tier(initial)
            .decide_every(decide_every)
            .workers(workers)
            .seed(5)
            .build()
            .expect("valid sim config")
    };
    for policy in policies(trace, model, initial) {
        let want = reference(trace, model, policy.as_ref(), &cfg(1));
        for workers in [1, 4] {
            let got = simulate(trace, model, policy.fork().as_mut(), &cfg(workers));
            let what = format!(
                "{} on {} files x {} days, {}, from {initial:?}, decide_every {decide_every}, \
                 workers {workers}",
                policy.name(),
                trace.len(),
                trace.days,
                model.policy().name
            );
            assert!(got.daily == want.daily, "{what}: daily ledgers differ");
            assert!(got.per_file == want.per_file, "{what}: per-file ledgers differ");
            assert_eq!(got.tier_changes, want.tier_changes, "{what}: tier changes differ");
            assert!(got.occupancy == want.occupancy, "{what}: occupancy differs");
        }
    }
}

fn presets() -> [PricingPolicy; 4] {
    [
        PricingPolicy::azure_blob_2020(),
        PricingPolicy::paper_2020(),
        PricingPolicy::aws_s3_like(),
        PricingPolicy::flat(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulate_equals_the_per_file_reference(
        reads in proptest::collection::vec(proptest::collection::vec(0u64..40_000, 8), 1..7),
        sizes in proptest::collection::vec(0.01f64..8.0, 7),
        write_div in 1u64..200,
        preset in 0usize..4,
        initial in 0usize..3,
        decide_every in 1usize..4,
    ) {
        let files = reads
            .into_iter()
            .zip(sizes)
            .enumerate()
            .map(|(i, (reads, size_gb))| {
                let writes = reads.iter().rev().map(|r| r / write_div).collect();
                FileSeries { id: FileId(i as u32), size_gb, reads, writes }
            })
            .collect();
        let trace = Trace { days: 8, files };
        let model = CostModel::new(presets()[preset].clone());
        check(&trace, &model, Tier::ALL[initial], decide_every);
    }
}

#[test]
fn simulate_equals_the_reference_across_tile_edges() {
    let trace = Trace::generate(&TraceConfig::small(2 * TILE + 37, 9, 41));
    let model = CostModel::new(PricingPolicy::azure_blob_2020());
    for decide_every in [1, 3] {
        check(&trace, &model, Tier::Hot, decide_every);
    }
}
