//! The offline optimal solver.
//!
//! The paper's *Optimal* baseline is an "offline-brutal-force method": with
//! full knowledge of future request frequencies it enumerates every possible
//! tier-assignment plan per file and keeps the cheapest (§6.1). Because the
//! total cost (Eqs. 5–9) is a sum of per-file terms and the per-file cost is
//! a sum over days of (steady day cost + change cost between consecutive
//! days' tiers), the exhaustive search factorizes exactly into a per-file
//! shortest path over a `(day, tier)` lattice. [`optimal_plan`] solves that
//! in `O(days · Γ²)`; [`brute_force_plan`] is the literal `Γ^days`
//! enumeration kept as an executable proof of equivalence (see tests and
//! the property test in `tests/policy_ordering.rs`).

use pricing::{CostModel, Money, Tier, TIER_COUNT};
use tracegen::FileSeries;

/// The exact cheapest tier sequence for one file, given it starts in
/// `initial_tier` *before* day 0 (a change on day 0 is charged).
///
/// Returns the per-day tier plan and its total cost.
#[must_use]
pub fn optimal_plan(
    file: &FileSeries,
    model: &CostModel,
    initial_tier: Tier,
) -> (Vec<Tier>, Money) {
    let days = file.days();
    if days == 0 {
        return (Vec::new(), Money::ZERO);
    }
    // best[d][t]: min cost of days 0..=d ending day d in tier t.
    // parent[d][t]: tier on day d-1 achieving it.
    let mut best = vec![[Money::MAX; TIER_COUNT]; days];
    let mut parent = vec![[0usize; TIER_COUNT]; days];

    let change = change_costs(model, file.size_gb);
    let (r0, w0) = file.day(0);
    for tier in Tier::all() {
        best[0][tier.index()] = change[initial_tier.index()][tier.index()]
            + model.steady_day_cost(file.size_gb, r0, w0, tier);
    }

    for d in 1..days {
        let (r, w) = file.day(d);
        for tier in Tier::all() {
            let steady = model.steady_day_cost(file.size_gb, r, w, tier);
            let mut best_cost = Money::MAX;
            let mut best_prev = 0;
            for prev in Tier::all() {
                let cost =
                    best[d - 1][prev.index()].saturating_add(change[prev.index()][tier.index()]);
                if cost < best_cost {
                    best_cost = cost;
                    best_prev = prev.index();
                }
            }
            best[d][tier.index()] = best_cost.saturating_add(steady);
            parent[d][tier.index()] = best_prev;
        }
    }

    // Backtrack from the cheapest final tier.
    let mut last = Tier::Hot;
    for t in Tier::all() {
        if best[days - 1][t.index()] < best[days - 1][last.index()] {
            last = t;
        }
    }
    let total = best[days - 1][last.index()];
    let mut plan = vec![Tier::Hot; days];
    for d in (0..days).rev() {
        plan[d] = last;
        if d > 0 {
            last = Tier::ALL[parent[d][last.index()]];
        }
    }
    (plan, total)
}

/// `[from][to]` tier-change charges (Eq. 9) for a file of `size_gb` GB.
/// They do not depend on the day, so the day loops price them once.
fn change_costs(model: &CostModel, size_gb: f64) -> [[Money; TIER_COUNT]; TIER_COUNT] {
    Tier::ALL.map(|from| Tier::ALL.map(|to| model.policy().change_cost(from, to, size_gb)))
}

/// Cost of executing a given per-day tier `plan` for `file`, starting from
/// `initial_tier` (changes are charged at each day boundary, including
/// day 0). Panics if the plan length differs from the series length.
#[must_use]
pub fn plan_cost(file: &FileSeries, model: &CostModel, initial_tier: Tier, plan: &[Tier]) -> Money {
    assert_eq!(plan.len(), file.days(), "plan length must match series length");
    let mut total = Money::ZERO;
    let mut current = initial_tier;
    for (d, &tier) in plan.iter().enumerate() {
        let (r, w) = file.day(d);
        total += model.policy().change_cost(current, tier, file.size_gb);
        total += model.steady_day_cost(file.size_gb, r, w, tier);
        current = tier;
    }
    total
}

/// The literal `Γ^days` enumeration of every plan (the paper's description
/// of *Optimal*). Exponential — only usable for short horizons; exists to
/// validate [`optimal_plan`]. Panics if `days > 12`.
#[must_use]
pub fn brute_force_plan(
    file: &FileSeries,
    model: &CostModel,
    initial_tier: Tier,
) -> (Vec<Tier>, Money) {
    let days = file.days();
    assert!(days <= 12, "brute force is exponential; use optimal_plan");
    if days == 0 {
        return (Vec::new(), Money::ZERO);
    }
    let mut best_plan = Vec::new();
    let mut best_cost = Money::MAX;
    // `days <= 12` is asserted above, so the exponent always fits; saturate
    // rather than truncate if that invariant ever moves.
    let combos = (TIER_COUNT as u64).pow(u32::try_from(days).unwrap_or(u32::MAX));
    for code in 0..combos {
        let mut c = code;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a remainder modulo TIER_COUNT indexes Tier::ALL"
        )]
        let plan: Vec<Tier> = (0..days)
            .map(|_| {
                let t = Tier::ALL[(c % TIER_COUNT as u64) as usize];
                c /= TIER_COUNT as u64;
                t
            })
            .collect();
        let cost = plan_cost(file, model, initial_tier, &plan);
        if cost < best_cost {
            best_cost = cost;
            best_plan = plan;
        }
    }
    (best_plan, best_cost)
}

/// Suffix value tables for the optimal-action oracle.
///
/// `values[d][t]` is the minimum cost of days `d..days` given the file
/// *enters* day `d` residing in tier `t` (so the day-`d` decision may move
/// it, paying the change). `values[days][t] == 0`.
///
/// The oracle action at `(day, current_tier)` is the argmin in
/// [`oracle_action`]; this is exactly the action the paper's *Optimal*
/// takes, used for the optimal-action-rate metric (Figs. 9–11).
#[must_use]
pub fn suffix_values(file: &FileSeries, model: &CostModel) -> Vec<[Money; TIER_COUNT]> {
    let days = file.days();
    let change = change_costs(model, file.size_gb);
    let mut values = vec![[Money::ZERO; TIER_COUNT]; days + 1];
    for d in (0..days).rev() {
        let (r, w) = file.day(d);
        let steady = Tier::ALL.map(|a| model.steady_day_cost(file.size_gb, r, w, a));
        for cur in Tier::all() {
            let mut best = Money::MAX;
            for a in Tier::all() {
                let cost = change[cur.index()][a.index()]
                    .saturating_add(steady[a.index()])
                    .saturating_add(values[d + 1][a.index()]);
                best = best.min(cost);
            }
            values[d][cur.index()] = best;
        }
    }
    values
}

/// The optimal action (tier for day `day`) given the file enters `day` in
/// `current`, using precomputed [`suffix_values`].
///
/// Panics if `day >= file.days()`.
#[must_use]
pub fn oracle_action(
    file: &FileSeries,
    model: &CostModel,
    values: &[[Money; TIER_COUNT]],
    day: usize,
    current: Tier,
) -> Tier {
    assert!(day < file.days(), "day out of range");
    let (r, w) = file.day(day);
    let q = |a: Tier| {
        model
            .policy()
            .change_cost(current, a, file.size_gb)
            .saturating_add(model.steady_day_cost(file.size_gb, r, w, a))
            .saturating_add(values[day + 1][a.index()])
    };
    Tier::all().reduce(|best, a| if q(a) < q(best) { a } else { best }).unwrap_or(Tier::Hot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pricing::PricingPolicy;
    use proptest::prelude::*;
    use tracegen::FileId;

    fn model() -> CostModel {
        CostModel::new(PricingPolicy::azure_blob_2020())
    }

    fn file(size_gb: f64, reads: Vec<u64>) -> FileSeries {
        let writes = reads.iter().map(|r| r / 50).collect();
        FileSeries { id: FileId(0), size_gb, reads, writes }
    }

    #[test]
    fn empty_series_has_empty_plan() {
        let f = file(0.1, vec![]);
        let (plan, cost) = optimal_plan(&f, &model(), Tier::Hot);
        assert!(plan.is_empty());
        assert_eq!(cost, Money::ZERO);
    }

    #[test]
    fn idle_file_goes_to_archive() {
        let f = file(1.0, vec![0; 7]);
        let (plan, _) = optimal_plan(&f, &model(), Tier::Hot);
        // All-idle: the cheapest storage wins (change cost hot->archive is
        // tiny relative to a week of storage deltas at 1 GB).
        assert!(plan.iter().all(|&t| t == Tier::Archive), "{plan:?}");
    }

    #[test]
    fn busy_file_stays_hot() {
        let f = file(0.1, vec![100_000; 7]);
        let (plan, _) = optimal_plan(&f, &model(), Tier::Hot);
        assert!(plan.iter().all(|&t| t == Tier::Hot), "{plan:?}");
    }

    #[test]
    fn plan_cost_matches_reported_cost() {
        let f = file(0.25, vec![10, 5_000, 0, 300, 80, 0, 12_000]);
        let m = model();
        let (plan, cost) = optimal_plan(&f, &m, Tier::Cool);
        assert_eq!(plan_cost(&f, &m, Tier::Cool, &plan), cost);
    }

    #[test]
    fn dp_equals_brute_force_on_bursty_file() {
        let f = file(0.5, vec![0, 0, 40_000, 0, 0, 0, 30_000]);
        let m = model();
        for init in Tier::all() {
            let (_, dp_cost) = optimal_plan(&f, &m, init);
            let (_, bf_cost) = brute_force_plan(&f, &m, init);
            assert_eq!(dp_cost, bf_cost, "init {init}");
        }
    }

    #[test]
    fn optimal_beats_every_constant_plan() {
        let f = file(0.2, vec![500, 0, 0, 0, 9_000, 0, 0]);
        let m = model();
        let (_, opt) = optimal_plan(&f, &m, Tier::Hot);
        for t in Tier::all() {
            let fixed = plan_cost(&f, &m, Tier::Hot, &[t; 7]);
            assert!(opt <= fixed, "optimal {opt:?} vs all-{t} {fixed:?}");
        }
    }

    #[test]
    fn initial_tier_changes_are_charged() {
        // A file that wants to be hot: starting in archive must cost at
        // least the rehydration charge more than starting hot.
        let f = file(1.0, vec![50_000; 3]);
        let m = model();
        let (_, from_hot) = optimal_plan(&f, &m, Tier::Hot);
        let (_, from_archive) = optimal_plan(&f, &m, Tier::Archive);
        assert!(from_archive > from_hot);
    }

    #[test]
    fn suffix_values_day_zero_matches_plan_cost() {
        let f = file(0.3, vec![100, 2_000, 0, 0, 700, 50, 0]);
        let m = model();
        let values = suffix_values(&f, &m);
        let (_, opt) = optimal_plan(&f, &m, Tier::Hot);
        assert_eq!(values[0][Tier::Hot.index()], opt);
    }

    #[test]
    fn oracle_first_action_matches_dp_plan() {
        let f = file(0.3, vec![4_000, 0, 0, 0, 0, 6_000, 0]);
        let m = model();
        let values = suffix_values(&f, &m);
        let (plan, _) = optimal_plan(&f, &m, Tier::Cool);
        assert_eq!(oracle_action(&f, &m, &values, 0, Tier::Cool), plan[0]);
    }

    #[test]
    fn oracle_is_consistent_along_its_own_trajectory() {
        let f = file(0.4, vec![900, 0, 12_000, 3, 0, 0, 800]);
        let m = model();
        let values = suffix_values(&f, &m);
        // Following oracle actions day by day must reproduce the DP plan
        // cost exactly.
        let mut tier = Tier::Hot;
        let mut total = Money::ZERO;
        for d in 0..f.days() {
            let a = oracle_action(&f, &m, &values, d, tier);
            let (r, w) = f.day(d);
            total += m.policy().change_cost(tier, a, f.size_gb);
            total += m.steady_day_cost(f.size_gb, r, w, a);
            tier = a;
        }
        let (_, opt) = optimal_plan(&f, &m, Tier::Hot);
        assert_eq!(total, opt);
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn brute_force_rejects_long_horizons() {
        let f = file(0.1, vec![1; 13]);
        let _ = brute_force_plan(&f, &model(), Tier::Hot);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dp_equals_brute_force(
            reads in proptest::collection::vec(0u64..20_000, 1..7),
            size in 0.01f64..2.0,
            init_ix in 0usize..3,
        ) {
            let f = file(size, reads);
            let m = model();
            let init = Tier::from_index(init_ix).unwrap();
            let (_, dp) = optimal_plan(&f, &m, init);
            let (_, bf) = brute_force_plan(&f, &m, init);
            prop_assert_eq!(dp, bf);
        }

        #[test]
        fn optimal_beats_random_plans(
            reads in proptest::collection::vec(0u64..20_000, 1..10),
            plan_ix in proptest::collection::vec(0usize..3, 1..10),
            size in 0.01f64..2.0,
        ) {
            prop_assume!(reads.len() == plan_ix.len());
            let f = file(size, reads);
            let m = model();
            let plan: Vec<Tier> = plan_ix.iter().map(|&i| Tier::from_index(i).unwrap()).collect();
            let (_, opt) = optimal_plan(&f, &m, Tier::Hot);
            prop_assert!(opt <= plan_cost(&f, &m, Tier::Hot, &plan));
        }

        #[test]
        fn suffix_values_decrease_toward_horizon(
            reads in proptest::collection::vec(0u64..5_000, 2..12),
            size in 0.01f64..1.0,
        ) {
            let f = file(size, reads);
            let values = suffix_values(&f, &model());
            // Remaining cost can only shrink as fewer days remain.
            for d in 0..f.days() {
                for (a, b) in values[d].iter().zip(&values[d + 1]) {
                    prop_assert!(a >= b);
                }
            }
        }
    }
}
