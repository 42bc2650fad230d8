//! Concurrent-requested data file aggregation (§5.2 of the paper).
//!
//! Files that are frequently requested together (e.g. assets of one web
//! page) can be merged into one aggregate replica: a concurrent request
//! then costs one read operation instead of `n`. The replica consumes extra
//! storage, so aggregation pays off only when Eq. 15 holds; the paper
//! condenses the trade-off into the aggregation coefficient (Eq. 16)
//!
//! ```text
//! Ω = (n - 1) · r_dc / Σ D_i  -  up_j / urf
//! ```
//!
//! with `r_dc` the mean concurrent request count, `D_i` the member sizes,
//! `up_j` the storage unit price, and `urf` the read-operation unit price.
//! `Ω > 0` ⟺ aggregation saves money; higher Ω saves more. Algorithm 2
//! selects the top-Ψ groups by Ω each period and deletes an aggregate whose
//! Ω stays negative for two consecutive periods.

use pricing::{CostModel, Tier};
use serde::{Deserialize, Serialize};
use tracegen::{CoRequestGroup, FileId, FileSeries, Trace};

/// Computes Eq. 16's aggregation coefficient for one group over the daily
/// mean concurrent rate `mean_concurrent`, pricing the replica in `tier`.
///
/// Units: `up_j` is the *daily* storage price per GB (monthly price
/// pro-rated, matching the simulator's billing) and `urf` the per-operation
/// read price.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Omega(pub f64);

impl Omega {
    /// Evaluates Ω for `group` using concurrent counts averaged over days
    /// `window` of `trace`.
    ///
    /// Panics if the group has fewer than 2 members or references files
    /// outside the trace.
    #[must_use]
    pub fn evaluate(
        group: &CoRequestGroup,
        trace: &Trace,
        model: &CostModel,
        tier: Tier,
        window: std::ops::Range<usize>,
    ) -> Omega {
        let n = group.members.len();
        assert!(n >= 2, "aggregation needs at least 2 files");
        let total_size: f64 = group.members.iter().map(|id| trace.file(*id).size_gb).sum();
        let mean_concurrent = group.mean_concurrent(window);
        Omega::from_parts(n, mean_concurrent, total_size, model, tier)
    }

    /// Ω from raw quantities (Eq. 16).
    #[must_use]
    pub fn from_parts(
        n: usize,
        mean_concurrent: f64,
        total_size_gb: f64,
        model: &CostModel,
        tier: Tier,
    ) -> Omega {
        assert!(n >= 2, "aggregation needs at least 2 files");
        assert!(total_size_gb > 0.0, "aggregate size must be positive");
        let (up_daily, urf_per_op) = eq16_prices(model, tier);
        let gain = (n as f64 - 1.0) * mean_concurrent / total_size_gb;
        Omega(gain - up_daily / urf_per_op.max(f64::MIN_POSITIVE))
    }

    /// Eq. 15's minimum concurrent request rate for aggregation to pay off
    /// (the `r_dc` threshold).
    #[must_use]
    pub fn threshold_rdc(n: usize, total_size_gb: f64, model: &CostModel, tier: Tier) -> f64 {
        assert!(n >= 2, "aggregation needs at least 2 files");
        let (up_daily, urf_per_op) = eq16_prices(model, tier);
        up_daily * total_size_gb / ((n as f64 - 1.0) * urf_per_op.max(f64::MIN_POSITIVE))
    }

    /// `true` when aggregation is profitable.
    #[must_use]
    pub fn is_beneficial(self) -> bool {
        self.0 > 0.0
    }
}

/// Eq. 16's `up_j` (daily storage price per GB) and `urf` (per-operation
/// read price) of `tier`, read from the model's typed rates.
fn eq16_prices(model: &CostModel, tier: Tier) -> (f64, f64) {
    let rates = model.rates(tier);
    (rates.storage_gb_day().0, rates.read_per_op().0)
}

/// Algorithm 2: periodic top-Ψ group selection with a two-period negative-Ω
/// eviction rule.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AggregationPlanner {
    /// Maximum number of groups aggregated at once (the paper's Ψ).
    pub psi: usize,
    /// Evict an active group after this many consecutive negative-Ω
    /// evaluations (paper: two consecutive weeks).
    pub drop_after: usize,
    negative_streak: Vec<usize>,
    active: Vec<bool>,
}

impl AggregationPlanner {
    /// Creates a planner over `n_groups` candidate groups.
    #[must_use]
    pub fn new(psi: usize, n_groups: usize) -> AggregationPlanner {
        AggregationPlanner {
            psi,
            drop_after: 2,
            negative_streak: vec![0; n_groups],
            active: vec![false; n_groups],
        }
    }

    /// Currently active group indices.
    #[must_use]
    pub fn active_groups(&self) -> Vec<usize> {
        self.active.iter().enumerate().filter_map(|(i, &a)| a.then_some(i)).collect()
    }

    /// One Algorithm 2 evaluation round: given this period's Ω per group,
    /// select the top-Ψ beneficial groups, track negative streaks, and
    /// evict stale aggregates. Returns the new active set.
    pub fn evaluate(&mut self, omegas: &[Omega]) -> Vec<usize> {
        assert_eq!(omegas.len(), self.active.len(), "omega count mismatch");

        // Track negative streaks for eviction (Algorithm 2 lines 8-9).
        for (i, omega) in omegas.iter().enumerate() {
            if omega.is_beneficial() {
                self.negative_streak[i] = 0;
            } else {
                self.negative_streak[i] += 1;
                if self.active[i] && self.negative_streak[i] >= self.drop_after {
                    self.active[i] = false;
                }
            }
        }

        // Rank beneficial groups by Ω descending, take the top Ψ.
        let mut ranked: Vec<usize> =
            (0..omegas.len()).filter(|&i| omegas[i].is_beneficial()).collect();
        ranked.sort_by(|&a, &b| omegas[b].0.total_cmp(&omegas[a].0));
        ranked.truncate(self.psi);

        // Newly selected groups become active; active groups not in the
        // top-Ψ stay active until their Ω goes negative long enough
        // (the paper only deletes on sustained negative Ω).
        for &i in &ranked {
            self.active[i] = true;
        }
        self.active_groups()
    }
}

/// Materializes an aggregation decision into a modified trace:
///
/// * each member of an active group loses its concurrent requests (they are
///   served by the replica);
/// * one aggregate file per active group is appended, sized `Σ D_i`, whose
///   daily reads equal the concurrent request count.
///
/// Inactive groups leave the trace untouched. The returned trace is what
/// the tier-assignment policies then run on (MiniCost w/ E in Fig. 13).
#[must_use]
pub fn apply_aggregation(trace: &Trace, groups: &[CoRequestGroup], active: &[usize]) -> Trace {
    let mut files = trace.files.clone();
    for &gix in active {
        let group = &groups[gix];
        for member in &group.members {
            let file = &mut files[member.index()];
            for (day, reads) in file.reads.iter_mut().enumerate() {
                *reads = reads.saturating_sub(group.concurrent[day]);
            }
        }
        let size_gb: f64 = group.members.iter().map(|m| trace.file(*m).size_gb).sum();
        files.push(FileSeries {
            id: FileId::from_index(files.len()),
            size_gb,
            reads: group.concurrent.clone(),
            writes: vec![0; trace.days],
        });
    }
    Trace { days: trace.days, files }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::HotPolicy;
    use crate::sim::{simulate, SimConfig};
    use pricing::PricingPolicy;
    use proptest::prelude::*;
    use tracegen::TraceConfig;

    fn model() -> CostModel {
        CostModel::new(PricingPolicy::azure_blob_2020())
    }

    #[test]
    fn omega_sign_matches_eq15_threshold() {
        let m = model();
        for &(n, size) in &[(2usize, 0.5f64), (3, 2.0), (5, 10.0)] {
            let threshold = Omega::threshold_rdc(n, size, &m, Tier::Hot);
            let below = Omega::from_parts(n, threshold * 0.99, size, &m, Tier::Hot);
            let above = Omega::from_parts(n, threshold * 1.01, size, &m, Tier::Hot);
            assert!(!below.is_beneficial(), "below threshold must not benefit");
            assert!(above.is_beneficial(), "above threshold must benefit");
        }
    }

    #[test]
    fn omega_matches_eqs_15_16_from_raw_tier_prices() {
        use pricing::policy::{DAYS_PER_MONTH, OPS_PER_PRICE_UNIT};
        for policy in [
            PricingPolicy::paper_2020(),
            PricingPolicy::azure_blob_2020(),
            PricingPolicy::aws_s3_like(),
            PricingPolicy::flat(),
        ] {
            let m = CostModel::new(policy.clone());
            for tier in Tier::all() {
                let p = policy.tier(tier);
                let up = p.storage_gb_month / DAYS_PER_MONTH;
                let urf = (p.read_per_10k / OPS_PER_PRICE_UNIT).max(f64::MIN_POSITIVE);
                for &(n, r_dc, size) in &[(2usize, 0.0f64, 0.5f64), (3, 40.0, 2.0), (7, 1e4, 1e-3)]
                {
                    let eq16 = (n as f64 - 1.0) * r_dc / size - up / urf;
                    assert_eq!(Omega::from_parts(n, r_dc, size, &m, tier).0, eq16, "{tier:?}");
                    let eq15 = up * size / ((n as f64 - 1.0) * urf);
                    assert_eq!(Omega::threshold_rdc(n, size, &m, tier), eq15, "{tier:?}");
                }
            }
        }
    }

    #[test]
    fn omega_grows_with_concurrency_and_group_size() {
        let m = model();
        let base = Omega::from_parts(2, 100.0, 1.0, &m, Tier::Hot).0;
        assert!(Omega::from_parts(2, 200.0, 1.0, &m, Tier::Hot).0 > base);
        assert!(Omega::from_parts(4, 100.0, 1.0, &m, Tier::Hot).0 > base);
        assert!(Omega::from_parts(2, 100.0, 5.0, &m, Tier::Hot).0 < base);
    }

    fn two_file_trace(reads_each: u64, concurrent: u64, days: usize) -> (Trace, CoRequestGroup) {
        let mk = |id: u32| FileSeries {
            id: FileId(id),
            size_gb: 0.1,
            reads: vec![reads_each; days],
            writes: vec![0; days],
        };
        let trace = Trace { days, files: vec![mk(0), mk(1)] };
        let group = CoRequestGroup {
            members: vec![FileId(0), FileId(1)],
            concurrent: vec![concurrent; days],
        };
        (trace, group)
    }

    #[test]
    fn positive_omega_aggregation_reduces_hot_cost() {
        // High concurrency on small files: Eq. 15 clearly satisfied.
        let (trace, group) = two_file_trace(10_000, 8_000, 7);
        let m = model();
        let omega = Omega::evaluate(&group, &trace, &m, Tier::Hot, 0..7);
        assert!(omega.is_beneficial(), "omega {omega:?}");

        let cfg = SimConfig::default();
        let plain = simulate(&trace, &m, &HotPolicy, &cfg).total_cost();
        let merged = apply_aggregation(&trace, &[group], &[0]);
        let aggregated = simulate(&merged, &m, &HotPolicy, &cfg).total_cost();
        assert!(aggregated < plain, "aggregated {aggregated} must beat plain {plain}");
    }

    #[test]
    fn negative_omega_aggregation_backfires() {
        // Two reads per day shared across a large pair: storage dominates.
        let mk = |id: u32| FileSeries {
            id: FileId(id),
            size_gb: 50.0,
            reads: vec![2; 7],
            writes: vec![0; 7],
        };
        let trace = Trace { days: 7, files: vec![mk(0), mk(1)] };
        let group = CoRequestGroup { members: vec![FileId(0), FileId(1)], concurrent: vec![1; 7] };
        let m = model();
        let omega = Omega::evaluate(&group, &trace, &m, Tier::Hot, 0..7);
        assert!(!omega.is_beneficial(), "omega {omega:?}");

        let cfg = SimConfig::default();
        let plain = simulate(&trace, &m, &HotPolicy, &cfg).total_cost();
        let merged = apply_aggregation(&trace, &[group], &[0]);
        let aggregated = simulate(&merged, &m, &HotPolicy, &cfg).total_cost();
        assert!(aggregated > plain, "backfire expected: {aggregated} vs {plain}");
    }

    #[test]
    fn apply_aggregation_conserves_concurrent_reads() {
        let (trace, group) = two_file_trace(1_000, 400, 3);
        let merged = apply_aggregation(&trace, std::slice::from_ref(&group), &[0]);
        assert_eq!(merged.files.len(), 3);
        // Members lose exactly the concurrent count...
        assert!(merged.files[0].reads.iter().all(|&r| r == 600));
        // ...the replica serves it...
        assert_eq!(merged.files[2].reads, vec![400, 400, 400]);
        // ...and its size is the member total.
        assert!((merged.files[2].size_gb - 0.2).abs() < 1e-12);
        // Total reads drop by (n-1) * concurrent per day.
        assert_eq!(
            trace.total_reads() - merged.total_reads(),
            400 * 3 // one member's worth per day over 3 days
        );
    }

    #[test]
    fn inactive_groups_leave_trace_unchanged() {
        let (trace, group) = two_file_trace(1_000, 400, 3);
        let merged = apply_aggregation(&trace, &[group], &[]);
        assert_eq!(merged, trace);
    }

    #[test]
    fn planner_selects_top_psi() {
        let m = model();
        let omegas: Vec<Omega> = [5.0, -1.0, 9.0, 2.0, 0.5].iter().map(|&v| Omega(v)).collect();
        let _ = &m;
        let mut planner = AggregationPlanner::new(2, 5);
        let active = planner.evaluate(&omegas);
        assert_eq!(active, vec![0, 2], "top-2 by omega: groups 2 (9.0) and 0 (5.0)");
    }

    #[test]
    fn planner_evicts_after_two_negative_rounds() {
        let mut planner = AggregationPlanner::new(2, 2);
        // Round 1: group 0 beneficial, activated.
        assert_eq!(planner.evaluate(&[Omega(3.0), Omega(-1.0)]), vec![0]);
        // Round 2: goes negative — still active (streak 1 < 2).
        assert_eq!(planner.evaluate(&[Omega(-0.5), Omega(-1.0)]), vec![0]);
        // Round 3: negative again — evicted.
        assert_eq!(planner.evaluate(&[Omega(-0.5), Omega(-1.0)]), Vec::<usize>::new());
    }

    #[test]
    fn planner_streak_resets_on_recovery() {
        let mut planner = AggregationPlanner::new(1, 1);
        planner.evaluate(&[Omega(1.0)]);
        planner.evaluate(&[Omega(-1.0)]);
        planner.evaluate(&[Omega(1.0)]); // recovery resets the streak
        planner.evaluate(&[Omega(-1.0)]);
        // Only one consecutive negative: still active.
        assert_eq!(planner.active_groups(), vec![0]);
    }

    #[test]
    fn planner_keeps_active_groups_not_in_top_psi() {
        let mut planner = AggregationPlanner::new(1, 2);
        // Group 0 wins round 1.
        assert_eq!(planner.evaluate(&[Omega(5.0), Omega(1.0)]), vec![0]);
        // Group 1 wins round 2, but group 0 is still beneficial: both stay.
        let active = planner.evaluate(&[Omega(2.0), Omega(4.0)]);
        assert_eq!(active, vec![0, 1]);
    }

    #[test]
    fn omega_evaluate_over_real_trace() {
        let trace = Trace::generate(&TraceConfig::small(50, 14, 21));
        let groups = tracegen::CoRequestModel { groups: 5, ..Default::default() }.generate(&trace);
        let m = model();
        for g in &groups {
            let omega = Omega::evaluate(g, &trace, &m, Tier::Hot, 0..7);
            assert!(omega.0.is_finite());
        }
    }

    #[test]
    fn aggregation_output_identical_under_permuted_insertion_order() {
        // Determinism regression (DESIGN.md §8): feeding the same logical
        // group set in a different order must produce a bit-identical cost.
        // This is the property clippy's `disallowed_types` ban on `HashMap`
        // protects — had groups flowed through a HashMap, insertion order
        // could leak into the float accumulation below.
        let trace = Trace::generate(&TraceConfig::small(60, 14, 7));
        let groups = tracegen::CoRequestModel { groups: 6, ..Default::default() }.generate(&trace);
        let m = model();
        let cfg = SimConfig::default();

        // Run 1: groups stored in discovery order, activated 0..n.
        let active_fwd: Vec<usize> = (0..groups.len()).collect();
        let merged_fwd = apply_aggregation(&trace, &groups, &active_fwd);

        // Run 2: the same groups stored permuted; `active` walks them in the
        // same *logical* order via the inverse permutation.
        let perm = [3usize, 5, 0, 4, 2, 1];
        let stored: Vec<CoRequestGroup> = perm.iter().map(|&i| groups[i].clone()).collect();
        let active_inv: Vec<usize> =
            (0..groups.len()).map(|k| perm.iter().position(|&p| p == k).unwrap()).collect();
        let merged_perm = apply_aggregation(&trace, &stored, &active_inv);

        assert_eq!(merged_fwd, merged_perm, "merged trace must not depend on storage order");
        let cost_fwd = simulate(&merged_fwd, &m, &HotPolicy, &cfg).total_cost();
        let cost_perm = simulate(&merged_perm, &m, &HotPolicy, &cfg).total_cost();
        assert_eq!(cost_fwd, cost_perm, "aggregated cost must be identical to the micro-dollar");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn singleton_group_rejected() {
        let m = model();
        let _ = Omega::from_parts(1, 100.0, 1.0, &m, Tier::Hot);
    }

    proptest! {
        #[test]
        fn eq15_and_eq16_agree(
            n in 2usize..6,
            rdc in 0.0f64..5_000.0,
            size in 0.01f64..20.0,
        ) {
            let m = model();
            let omega = Omega::from_parts(n, rdc, size, &m, Tier::Hot);
            let threshold = Omega::threshold_rdc(n, size, &m, Tier::Hot);
            prop_assert_eq!(omega.is_beneficial(), rdc > threshold);
        }

        #[test]
        fn aggregation_cost_delta_matches_omega_sign(
            reads in 100u64..20_000,
            concurrent_frac in 0.05f64..0.95,
            size_gb in 0.01f64..30.0,
        ) {
            // Uniform series: the analytic Eq. 13/14 trade-off must agree
            // with the simulator's measured cost delta under HotPolicy.
            let days = 7;
            let concurrent = (reads as f64 * concurrent_frac) as u64;
            let mk = |id: u32| FileSeries {
                id: FileId(id),
                size_gb,
                reads: vec![reads; days],
                writes: vec![0; days],
            };
            let trace = Trace { days, files: vec![mk(0), mk(1)] };
            let group = CoRequestGroup {
                members: vec![FileId(0), FileId(1)],
                concurrent: vec![concurrent; days],
            };
            let m = model();
            let omega = Omega::evaluate(&group, &trace, &m, Tier::Hot, 0..days);
            let cfg = SimConfig::default();
            let plain = simulate(&trace, &m, &HotPolicy, &cfg).total_cost();
            let merged = apply_aggregation(&trace, &[group], &[0]);
            let aggregated = simulate(&merged, &m, &HotPolicy, &cfg).total_cost();
            // Allow the knife-edge zone where rounding to whole operations
            // blurs the sign.
            prop_assume!(omega.0.abs() > 0.5);
            if omega.is_beneficial() {
                prop_assert!(aggregated <= plain, "omega {} but {} > {}", omega.0, aggregated, plain);
            } else {
                prop_assert!(aggregated >= plain, "omega {} but {} < {}", omega.0, aggregated, plain);
            }
        }
    }
}
