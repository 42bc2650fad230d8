//! The offline optimal solver.
//!
//! The paper's *Optimal* baseline is an "offline-brutal-force method": with
//! full knowledge of future request frequencies it enumerates every possible
//! tier-assignment plan per file and keeps the cheapest (§6.1). Because the
//! total cost (Eqs. 5–9) is a sum of per-file terms and the per-file cost is
//! a sum over days of (steady day cost + change cost between consecutive
//! days' tiers), the exhaustive search factorizes exactly into a per-file
//! shortest path over a `(day, state)` lattice. [`cheapest_path`] is the one
//! solver of that lattice, in `O(days · states²)`: [`optimal_plan`] runs it
//! over the tiers, [`crate::multi::optimal_location_plan`] over
//! `datacenter × tier` locations, and [`crate::predictive::PredictivePolicy`]
//! over the tiers on forecast frequencies. [`brute_force_plan`] is the
//! literal `Γ^days` enumeration kept as an executable proof of equivalence
//! (see tests and the property test in `tests/policy_ordering.rs`).
//!
//! [`suffix_values`] runs the same recurrence backwards to the optimal
//! cost-to-go `V`; [`q_values`] reads the one-step lookahead `Q*` from it,
//! for the oracle action and the training regret.

use pricing::{CostModel, Money, Tier, TIER_COUNT};
use tracegen::FileSeries;

/// The cheapest path through a `(day, state)` lattice of `days` days.
///
/// A path picks one of `states` per day. Day 0 costs `enter(s) + stay(0, s)`
/// (`enter` prices the move from the state held before day 0); each later
/// day `d` adds `step(prev, s) + stay(d, s)`. Sums saturate at
/// [`Money::MAX`]. Returns the path and its total.
///
/// Ties go to the earliest state in `states` order: each day keeps the
/// first cheapest predecessor, and the path ends in the first cheapest final
/// state, so where every cost is `Money::MAX` state 0 wins. An empty horizon
/// gives an empty path at zero cost; an empty state set with days to cover
/// has no path, so it gives an empty path at `Money::MAX`.
#[must_use]
pub fn cheapest_path<S: Copy>(
    days: usize,
    states: &[S],
    enter: impl Fn(S) -> Money,
    stay: impl Fn(usize, S) -> Money,
    step: impl Fn(S, S) -> Money,
) -> (Vec<S>, Money) {
    let n = states.len();
    if days == 0 || n == 0 {
        return (Vec::new(), if days == 0 { Money::ZERO } else { Money::MAX });
    }
    // `prior[j]`: the cheapest cost of days 0..=d ending day d in state j;
    // `next` receives day d+1. `parents` holds one row of `n` predecessor
    // indices per day after day 0.
    let mut rows = vec![Money::MAX; 2 * n];
    let (mut prior, mut next) = rows.split_at_mut(n);
    for (&s, cost) in states.iter().zip(prior.iter_mut()) {
        *cost = enter(s).saturating_add(stay(0, s));
    }
    let mut parents = Vec::with_capacity((days - 1) * n);
    for d in 1..days {
        for (&s, cost) in states.iter().zip(next.iter_mut()) {
            let (parent, best) = first_min(
                states.iter().zip(prior.iter()).map(|(&from, &c)| c.saturating_add(step(from, s))),
            );
            parents.push(parent);
            *cost = best.saturating_add(stay(d, s));
        }
        std::mem::swap(&mut prior, &mut next);
    }
    let (last, total) = first_min(prior.iter().copied());

    // Walk the parent rows back from the last day, then reverse.
    let mut back = parents.chunks_exact(n).rev();
    let mut path = Vec::with_capacity(days);
    path.extend(
        std::iter::successors(Some(last), |&j| back.next().and_then(|row| row.get(j).copied()))
            .filter_map(|j| states.get(j).copied()),
    );
    path.reverse();
    (path, total)
}

/// The first cheapest of `costs` as `(position, cost)`; `(0, Money::MAX)`
/// when every cost is `Money::MAX`.
fn first_min(costs: impl Iterator<Item = Money>) -> (usize, Money) {
    costs.enumerate().fold((0, Money::MAX), |best, (i, c)| if c < best.1 { (i, c) } else { best })
}

/// The exact cheapest tier sequence for one file, given it starts in
/// `initial_tier` *before* day 0 (a change on day 0 is charged).
///
/// Returns the per-day tier plan and its total cost; ties go to the hotter
/// tier ([`cheapest_path`]).
#[must_use]
pub fn optimal_plan(
    file: &FileSeries,
    model: &CostModel,
    initial_tier: Tier,
) -> (Vec<Tier>, Money) {
    let change = change_costs(model, file.size_gb);
    cheapest_path(
        file.days(),
        &Tier::ALL,
        |to| change[initial_tier.index()][to.index()],
        |d, tier| {
            let (r, w) = file.day(d);
            model.steady_day_cost(file.size_gb, r, w, tier)
        },
        |from, to| change[from.index()][to.index()],
    )
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

/// The one-step lookahead `Q*(s, a) = change + steady + V[day + 1][a]` for
/// every action `a` at `(day, current)`, from precomputed [`suffix_values`].
/// Each sum saturates in that order: change, then steady, then `V`.
///
/// Panics if `day >= file.days()`.
#[must_use]
pub fn q_values(
    file: &FileSeries,
    model: &CostModel,
    values: &[[Money; TIER_COUNT]],
    day: usize,
    current: Tier,
) -> [Money; TIER_COUNT] {
    assert!(day < file.days(), "day out of range");
    let (r, w) = file.day(day);
    let mut q = values[day + 1];
    for (a, v) in Tier::all().zip(&mut q) {
        *v = model
            .policy()
            .change_cost(current, a, file.size_gb)
            .saturating_add(model.steady_day_cost(file.size_gb, r, w, a))
            .saturating_add(*v);
    }
    q
}

/// The optimal action (tier for day `day`) given the file enters `day` in
/// `current`: the first argmin of [`q_values`], so ties go to the hotter
/// tier.
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
    let q = q_values(file, model, values, day, current);
    Tier::ALL[first_min(q.into_iter()).0]
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

    /// Pins which plan comes out, not only its cost: the fnv1a64 of the
    /// Optimal plans from every initial tier, the Predictive ledgers and the
    /// azure+aws location plans, under all four presets (`flat` makes every
    /// tier tie, so it pins the tie rule). Any change to a solver's
    /// tie-breaking or saturation moves a digest.
    #[test]
    fn pinned_plan_digests() {
        use crate::multi::{optimal_location_plan, Location, MultiCspModel};
        use crate::predictive::PredictivePolicy;
        use crate::sim::{simulate, SimConfig, SimResult};
        use tracegen::{Trace, TraceConfig};

        fn ledger(bytes: &mut Vec<u8>, run: &SimResult) {
            for c in &run.daily {
                for m in [c.storage, c.change, c.read, c.write] {
                    bytes.extend(m.micros().to_le_bytes());
                }
            }
            bytes.extend(run.per_file.iter().flat_map(|m| m.micros().to_le_bytes()));
            bytes.extend(run.tier_changes.to_le_bytes());
            bytes.extend(run.occupancy.iter().flatten().flat_map(|n| n.to_le_bytes()));
        }

        let trace = Trace::generate(&TraceConfig::small(400, 40, 11));
        let presets = [
            PricingPolicy::azure_blob_2020(),
            PricingPolicy::paper_2020(),
            PricingPolicy::aws_s3_like(),
            PricingPolicy::flat(),
        ];
        let mut digests = Vec::new();
        for policy in presets {
            let m = CostModel::new(policy);
            let mut bytes = Vec::new();
            for init in Tier::all() {
                for f in &trace.files {
                    let (plan, cost) = optimal_plan(f, &m, init);
                    bytes.extend(plan.iter().map(|t| t.index() as u8));
                    bytes.extend(cost.micros().to_le_bytes());
                }
            }
            digests.push(stream::fnv1a64(&bytes));
            let cfg = SimConfig::default();
            let naive = PredictivePolicy::new(forecast::Naive, 7);
            let seasonal = PredictivePolicy::new(forecast::SeasonalNaive::new(7), 5);
            bytes.clear();
            ledger(&mut bytes, &simulate(&trace, &m, &naive, &cfg));
            ledger(&mut bytes, &simulate(&trace, &m, &seasonal, &cfg));
            digests.push(stream::fnv1a64(&bytes));
        }
        let duo = MultiCspModel::new(
            vec![
                CostModel::new(PricingPolicy::azure_blob_2020()),
                CostModel::new(PricingPolicy::aws_s3_like()),
            ],
            0.05,
        );
        let mut bytes = Vec::new();
        for tier in Tier::all() {
            for f in &trace.files {
                let (plan, cost) = optimal_location_plan(f, &duo, Location { dc: 0, tier });
                for l in &plan {
                    bytes.extend([l.dc as u8, l.tier.index() as u8]);
                }
                bytes.extend(cost.micros().to_le_bytes());
            }
        }
        digests.push(stream::fnv1a64(&bytes));
        let hex: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
        assert_eq!(
            digests,
            [
                0x0173_06df_0498_2aae,
                0x929a_4c9e_1135_52fe,
                0xe45c_2905_79b2_10b0,
                0x0780_44c8_d268_def4,
                0x2d6e_1049_9584_0228,
                0x4d26_5008_febc_cf63,
                0x7602_14a6_c85c_295d,
                0x3cab_8bea_768b_24a9,
                0x41a1_d215_f2aa_f9c8,
            ],
            "{hex:?}"
        );
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn brute_force_rejects_long_horizons() {
        let f = file(0.1, vec![1; 13]);
        let _ = brute_force_plan(&f, &model(), Tier::Hot);
    }

    #[test]
    fn cheapest_path_of_nothing() {
        let free = |_: usize| Money::ZERO;
        let (path, cost) =
            cheapest_path(0, &[0_usize, 1], free, |_, _| Money::ZERO, |_, _| Money::ZERO);
        assert!(path.is_empty());
        assert_eq!(cost, Money::ZERO);
        let (path, cost) = cheapest_path(3, &[], free, |_, _| Money::ZERO, |_, _| Money::ZERO);
        assert!(path.is_empty());
        assert_eq!(cost, Money::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// [`cheapest_path`] against the enumeration of all `n^days` paths,
        /// on costs drawn from a range small enough to tie and with
        /// `Money::MAX` mixed in so that sums saturate.
        #[test]
        fn cheapest_path_matches_brute_force(
            n in 1usize..6,
            days in 0usize..7,
            codes in proptest::collection::vec(0i64..6, 60),
        ) {
            // Code 5 is `Money::MAX`; the rest are micro-dollars 0..=4.
            let cost = |k: usize| match codes[k] {
                5 => Money::MAX,
                c => Money::from_micros(c),
            };
            let states: Vec<usize> = (0..n).collect();
            let enter = |s: usize| cost(s);
            let stay = |d: usize, s: usize| cost(n + d * n + s);
            let step = |from: usize, to: usize| cost(n + 6 * n + from * n + to);
            let price = |path: &[usize]| {
                let mut total = Money::ZERO;
                for (d, &s) in path.iter().enumerate() {
                    let change = if d == 0 { enter(s) } else { step(path[d - 1], s) };
                    total = total.saturating_add(change).saturating_add(stay(d, s));
                }
                total
            };

            let (path, total) = cheapest_path(days, &states, enter, stay, step);
            prop_assert_eq!(path.len(), days);
            prop_assert_eq!(price(&path), total);
            let mut best = if days == 0 { Money::ZERO } else { Money::MAX };
            let combos = n.pow(u32::try_from(days).unwrap());
            for code in 0..combos {
                let mut c = code;
                let candidate: Vec<usize> = (0..days)
                    .map(|_| {
                        let s = c % n;
                        c /= n;
                        s
                    })
                    .collect();
                best = best.min(price(&candidate));
            }
            prop_assert_eq!(total, best);
        }

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
