//! The sharded parallel simulation engine.
//!
//! [`crate::sim::simulate`] at `workers > 1` partitions the fleet into
//! per-worker shards with a stable hash of [`FileId`] (seeded by
//! [`crate::sim::SimConfig::seed`]), runs each shard's full file×day loop
//! on a scoped thread with a private policy fork and private cost/metrics
//! accumulators, and merges the shard results **in fixed shard order** —
//! never in thread-completion order.
//!
//! Within a shard, [`run_shard`] sweeps the files in fixed tiles: a tile
//! runs every day (decide, then bill) before the next tile starts, so its
//! fleet columns stay in cache from one day to the next. Every tile
//! decides on its own [`Policy::fork`], so a run never mutates the policy
//! it was given.
//!
//! # Determinism contract (DESIGN.md §9)
//!
//! * The partition depends only on `(FileId, seed, workers)` — not on
//!   thread scheduling, memory addresses, or hash-map iteration order.
//! * Within a shard, files are processed in ascending global index order.
//! * Every merge reduction iterates shards in partition order; integer
//!   [`Money`] accumulation is exact, so shard totals equal the
//!   single-threaded totals bit-for-bit.
//! * Wall-clock decision timings are the only fields allowed to differ
//!   between worker counts; a shard's entry for a day is the sum over its
//!   tiles, and shards are merged as the per-day maximum (the parallel
//!   critical path) with the raw per-shard ledgers preserved.

use crate::fleet::FleetState;
use crate::policy::{DecisionContext, Policy};
use crate::sim::{SimConfig, SimResult};
use pricing::{CostBreakdown, CostModel, FileDay, Money, Tier, TIER_COUNT};
use std::time::Instant;
use tracegen::{FileId, Trace};

/// Stable shard assignment for one file: a splitmix64-style finalizer over
/// the id and seed, reduced modulo `workers`.
///
/// Deliberately *not* [`std::hash::Hash`]: the std `RandomState` hasher is
/// seeded per process, which would re-shuffle shards across runs.
#[expect(clippy::cast_possible_truncation, reason = "the remainder is below `workers`, a usize")]
#[must_use]
pub fn shard_of(id: FileId, seed: u64, workers: usize) -> usize {
    let mut x = u64::from(id.0) ^ seed.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // xtask-allow(panic-reachability): divisor clamped nonzero by max(1) on this line
    (x % workers.max(1) as u64) as usize
}

/// Partitions `trace`'s file indices into `workers` shards by
/// [`shard_of`]. Every shard's indices are in ascending order; the
/// concatenation of all shards is a permutation of `0..trace.files.len()`.
#[must_use]
pub fn partition(trace: &Trace, seed: u64, workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let mut shards = vec![Vec::new(); workers];
    for (ix, file) in trace.files.iter().enumerate() {
        shards[shard_of(file.id, seed, workers)].push(ix);
    }
    shards
}

/// The private accumulators of one shard's file×day loop: the same ledgers
/// [`SimResult`] keeps, restricted to the shard's files (`per_file` is
/// parallel to `indices`).
#[derive(Clone, Debug)]
pub struct ShardRun {
    /// Global indices of the shard's files, ascending.
    pub indices: Vec<usize>,
    /// Aggregate cost components per day for the shard's files.
    pub daily: Vec<CostBreakdown>,
    /// Cumulative cost per shard file over the whole run (parallel to
    /// `indices`).
    pub per_file: Vec<Money>,
    /// Wall-clock milliseconds this shard spent in
    /// `Policy::decide_batch_into`, one entry per decision day (summed over
    /// the shard's tiles).
    pub decision_millis: Vec<f64>,
    /// Tier changes applied to the shard's files.
    pub tier_changes: u64,
    /// Shard files resident in each tier at the end of each day.
    pub occupancy: Vec<[usize; TIER_COUNT]>,
}

/// Files per tile of [`run_shard`]'s sweep.
///
/// `FleetState` is file-major, so one day's sweep reads one cache line of
/// each file's read series and one of its write series, and consecutive
/// files sit `stride × 8` bytes apart (2,920 at a 365-day horizon). Over a
/// whole shard those lines leave the cache before the next day comes back
/// to them; a tile's stay, and each line holds eight days of one file.
/// Counted in files, not bytes, because a tile's per-day working set is
/// `files × 2` lines whatever the horizon, and so that the number of forks
/// does not depend on `days`. At least 1000, so a 1000-file fleet is one
/// tile and one fork.
const TILE_FILES: usize = 1024;

/// Runs `policy` over the shard `indices` of the columnar `fleet` for
/// every day — the single-threaded billing loop restricted to one batch of
/// files.
///
/// The shard is swept in tiles of `TILE_FILES` files: each tile runs
/// every day (decide, then [`bill_day`]) before the next tile starts, on a
/// fresh [`Policy::fork`] of `policy`, which decides identically (DESIGN.md
/// §9); `policy` itself never decides. Tiles accumulate into the one
/// [`ShardRun`] in place, and a decision day's `decision_millis` entry is
/// its sum over the tiles.
///
/// Panics if the policy returns a tier vector of the wrong length.
pub fn run_shard(
    fleet: &FleetState,
    model: &CostModel,
    policy: &dyn Policy,
    cfg: &SimConfig,
    indices: &[usize],
) -> ShardRun {
    let m = indices.len();
    let days = fleet.days();
    let every = cfg.decide_every.max(1);
    // Setup buffers, sized once per shard; the tile and day loops below
    // reuse them and must stay allocation-free apart from one fork per
    // tile (`tests/alloc_budget.rs` counts it).
    let mut current = vec![cfg.initial_tier; m];
    let mut decision = vec![cfg.initial_tier; m.min(TILE_FILES)];
    let mut run = ShardRun {
        indices: indices.to_vec(),
        daily: vec![CostBreakdown::default(); days],
        per_file: vec![Money::ZERO; m],
        decision_millis: vec![0.0; days.div_ceil(every)],
        tier_changes: 0,
        occupancy: vec![[0; TIER_COUNT]; days],
    };

    let tiles = indices
        .chunks(TILE_FILES)
        .zip(current.chunks_mut(TILE_FILES).zip(run.per_file.chunks_mut(TILE_FILES)));
    for (batch, (current, per_file)) in tiles {
        let mut decider = policy.fork();
        let mut millis = run.decision_millis.iter_mut();
        let ledgers = run.daily.iter_mut().zip(run.occupancy.iter_mut());
        for (day, (daily, occupancy)) in ledgers.enumerate() {
            // Decision phase, refilling the hoisted buffer in place.
            let decided = if day % every == 0 {
                let ctx = DecisionContext { day, fleet, model, batch, current };
                let start = Instant::now();
                decider.decide_batch_into(&ctx, &mut decision);
                if let Some(ms) = millis.next() {
                    *ms += start.elapsed().as_secs_f64() * 1e3;
                }
                assert_eq!(
                    decision.len(),
                    batch.len(),
                    "policy must decide every file in the batch"
                );
                true
            } else {
                false
            };

            let decision = decided.then_some(decision.as_slice());
            let bill = bill_day(model, fleet, day, batch, decision, current, per_file);
            *daily += bill.breakdown;
            run.tier_changes += bill.tier_changes;
            for (total, count) in occupancy.iter_mut().zip(bill.occupancy) {
                *total += count;
            }
        }
    }
    run
}

/// What one day's billing sweep over a batch produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DayBill {
    /// The batch's aggregate cost components for the day.
    pub breakdown: CostBreakdown,
    /// Files whose tier changed at the start of the day.
    pub tier_changes: u64,
    /// Batch files resident in each tier at the end of the day.
    pub occupancy: [usize; TIER_COUNT],
}

/// The billing kernel of simulate and serve: moves each file of the batch
/// `indices` to `decision[slot]` (staying put when `decision` is `None`)
/// and bills `day` on `fleet`'s counts in slot order, updating `current`
/// and `per_file` (both parallel to `indices`) in place.
pub fn bill_day(
    model: &CostModel,
    fleet: &FleetState,
    day: usize,
    indices: &[usize],
    decision: Option<&[Tier]>,
    current: &mut [Tier],
    per_file: &mut [Money],
) -> DayBill {
    let mut bill = DayBill::default();
    let slots = indices.iter().zip(current.iter_mut().zip(per_file.iter_mut())).enumerate();
    for (slot, (&ix, (tier, paid))) in slots {
        let target = decision.and_then(|d| d.get(slot)).copied().unwrap_or(*tier);
        let changed_from = (target != *tier).then_some(*tier);
        bill.tier_changes += u64::from(changed_from.is_some());
        let (reads, writes) = fleet.day_counts(ix, day);
        let day_bill = model.day_breakdown(&FileDay {
            size_gb: fleet.size_gb(ix),
            reads,
            writes,
            tier: target,
            changed_from,
        });
        *paid += day_bill.total();
        bill.breakdown += day_bill;
        *tier = target;
        if let Some(count) = bill.occupancy.get_mut(target.index()) {
            *count += 1;
        }
    }
    bill
}

/// Merges shard accumulators into one [`SimResult`], iterating `shards` in
/// the order given (partition order) — an explicitly ordered reduction, so
/// the outcome is independent of which thread finished first.
///
/// `per_file` entries scatter back to global indices; day-level ledgers
/// add up exactly because [`Money`] is integer micro-dollars. The merged
/// `decision_millis` is the per-day maximum across shards (the parallel
/// critical path); the per-shard ledgers survive verbatim in
/// `shard_decision_millis`.
///
/// Panics if a shard's horizon disagrees with `days`.
#[must_use]
pub fn merge_shards(
    policy_name: &str,
    days: usize,
    files: usize,
    shards: &[ShardRun],
) -> SimResult {
    let mut daily = vec![CostBreakdown::default(); days];
    let mut per_file = vec![Money::ZERO; files];
    let mut tier_changes = 0u64;
    let mut occupancy = vec![[0usize; TIER_COUNT]; days];
    let decision_days = shards.iter().map(|s| s.decision_millis.len()).max().unwrap_or(0);
    let mut decision_millis = vec![0.0f64; decision_days];
    let mut shard_decision_millis = Vec::with_capacity(shards.len());

    for shard in shards {
        assert_eq!(shard.daily.len(), days, "shard horizon mismatch");
        for (day, bill) in shard.daily.iter().enumerate() {
            daily[day] += *bill;
        }
        for (slot, &ix) in shard.indices.iter().enumerate() {
            per_file[ix] = shard.per_file[slot];
        }
        tier_changes += shard.tier_changes;
        for (day, counts) in shard.occupancy.iter().enumerate() {
            for (tier, count) in counts.iter().enumerate() {
                occupancy[day][tier] += *count;
            }
        }
        for (k, &ms) in shard.decision_millis.iter().enumerate() {
            if ms > decision_millis[k] {
                decision_millis[k] = ms;
            }
        }
        shard_decision_millis.push(shard.decision_millis.clone());
    }

    SimResult {
        policy_name: policy_name.to_owned(),
        daily,
        per_file,
        decision_millis,
        shard_decision_millis,
        tier_changes,
        occupancy,
    }
}

/// Deterministically maps `f` over `0..n` using up to `workers` scoped
/// threads over contiguous index chunks, returning results in index order
/// regardless of thread completion order.
///
/// `f(i)` must depend only on `i` for the output to be independent of the
/// worker count; the training pipeline uses this to build per-file oracle
/// tables in parallel.
pub fn par_map_indices<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let chunks: Vec<Vec<T>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(n);
                    (lo..hi).map(f).collect::<Vec<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(values) => values,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Chunks are contiguous ascending index ranges collected in spawn
    // order, so concatenation restores index order exactly.
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::GreedyPolicy;
    use crate::sim::{simulate, SimConfig};
    use pricing::PricingPolicy;
    use tracegen::TraceConfig;

    fn setup() -> (Trace, CostModel) {
        (
            Trace::generate(&TraceConfig::small(53, 14, 5)),
            CostModel::new(PricingPolicy::azure_blob_2020()),
        )
    }

    #[test]
    fn partition_covers_every_file_exactly_once() {
        let (trace, _) = setup();
        for workers in [1usize, 2, 3, 8, 64] {
            let shards = partition(&trace, 42, workers);
            assert_eq!(shards.len(), workers);
            let mut seen: Vec<usize> = shards.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..trace.len()).collect::<Vec<_>>(), "workers={workers}");
            for shard in &shards {
                assert!(shard.windows(2).all(|w| w[0] < w[1]), "ascending order");
            }
        }
    }

    #[test]
    fn shard_assignment_is_stable_across_calls() {
        let id = FileId(1234);
        for workers in [2usize, 4, 7] {
            let first = shard_of(id, 7, workers);
            assert!(first < workers);
            assert_eq!(first, shard_of(id, 7, workers));
        }
        // Different seeds shuffle the assignment (statistically; this pair
        // is a fixed regression anchor, not a property).
        let moved = (0..64u32).any(|i| shard_of(FileId(i), 1, 4) != shard_of(FileId(i), 2, 4));
        assert!(moved, "seed must influence the shard hash");
    }

    #[test]
    fn shard_hash_spreads_the_fleet() {
        let workers = 4;
        let shards = partition(&Trace::generate(&TraceConfig::small(400, 1, 9)), 3, workers);
        for (w, shard) in shards.iter().enumerate() {
            assert!(
                shard.len() >= 400 / workers / 2 && shard.len() <= 400 * 2 / workers,
                "shard {w} holds {} of 400 files — hash is badly skewed",
                shard.len()
            );
        }
    }

    #[test]
    fn merged_single_shard_equals_simulate() {
        let (trace, model) = setup();
        let cfg = SimConfig::default();
        let columns = FleetState::from_trace(&trace);
        let all: Vec<usize> = (0..trace.len()).collect();
        let shard = run_shard(&columns, &model, &GreedyPolicy, &cfg, &all);
        let merged = merge_shards("greedy", trace.days, trace.len(), std::slice::from_ref(&shard));
        let direct = simulate(&trace, &model, &GreedyPolicy, &cfg);
        assert_eq!(merged.daily, direct.daily);
        assert_eq!(merged.per_file, direct.per_file);
        assert_eq!(merged.tier_changes, direct.tier_changes);
        assert_eq!(merged.occupancy, direct.occupancy);
    }

    #[test]
    fn empty_shard_produces_zero_ledgers() {
        let (trace, model) = setup();
        let cfg = SimConfig::default();
        let columns = FleetState::from_trace(&trace);
        let shard = run_shard(&columns, &model, &GreedyPolicy, &cfg, &[]);
        assert_eq!(shard.daily.len(), trace.days);
        assert!(shard.daily.iter().all(|d| d.total() == Money::ZERO));
        assert_eq!(shard.decision_millis.len(), trace.days);
        assert_eq!(shard.tier_changes, 0);
    }

    #[test]
    fn tiled_shard_equals_its_single_tile_pieces_merged() {
        let files = 2 * TILE_FILES + 1;
        let trace = Trace::generate(&TraceConfig::small(files, 9, 31));
        let model = CostModel::new(PricingPolicy::paper_2020());
        let fleet = FleetState::from_trace(&trace);
        let all: Vec<usize> = (0..files).collect();
        for decide_every in [1usize, 2] {
            let cfg = SimConfig { decide_every, workers: 1, ..SimConfig::default() };
            let whole = run_shard(&fleet, &model, &GreedyPolicy, &cfg, &all);
            assert_eq!(whole.decision_millis.len(), trace.days.div_ceil(decide_every));
            let pieces: Vec<ShardRun> = all
                .chunks(TILE_FILES)
                .map(|piece| run_shard(&fleet, &model, &GreedyPolicy, &cfg, piece))
                .collect();
            assert_eq!(pieces.len(), 3);
            let tiled = merge_shards("greedy", trace.days, files, std::slice::from_ref(&whole));
            let merged = merge_shards("greedy", trace.days, files, &pieces);
            assert_eq!(tiled.daily, merged.daily, "decide_every={decide_every}");
            assert_eq!(tiled.per_file, merged.per_file);
            assert_eq!(tiled.tier_changes, merged.tier_changes);
            assert_eq!(tiled.occupancy, merged.occupancy);
        }
    }

    #[test]
    fn par_map_preserves_index_order() {
        for workers in [1usize, 2, 3, 5, 16] {
            let out = par_map_indices(37, workers, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
        assert!(par_map_indices(0, 4, |i| i).is_empty());
    }
}
