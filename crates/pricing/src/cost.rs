//! The paper's total-cost model (Eqs. 5–9).
//!
//! `C(s_t, a_t) = Cs + Cc + Cr + Cw` — storage, tier-change, read, and write
//! cost of one file over one charging day. [`CostModel`] evaluates the model
//! against a [`PricingPolicy`]; [`CostBreakdown`] exposes the four
//! components so experiments can attribute savings.

use crate::money::Money;
use crate::policy::{PricingPolicy, TierPrices};
use crate::tier::{Tier, TIER_COUNT};
use crate::units::{Gb, Ops, UsdPer10kOps, UsdPerGbDay, UsdPerGbMonth, UsdPerGbOp, UsdPerOp};
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// One file-day of billable activity.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FileDay {
    /// File size in GB (`D_{d_i}`).
    pub size_gb: f64,
    /// Read operations this day (`F_r^t`).
    pub reads: u64,
    /// Write operations this day (`F_w^t`).
    pub writes: u64,
    /// Tier the file occupies during the day.
    pub tier: Tier,
    /// `Some(previous)` when the file was moved into `tier` at the start of
    /// this day (the paper's `Θ = 1` case in Eq. 9); `None` otherwise.
    pub changed_from: Option<Tier>,
}

impl FileDay {
    /// Convenience constructor for a day without a tier change.
    #[must_use]
    pub fn steady(size_gb: f64, reads: u64, writes: u64, tier: Tier) -> Self {
        FileDay { size_gb, reads, writes, tier, changed_from: None }
    }
}

/// The four cost components of Eq. 5.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Storage cost `Cs` (Eq. 6).
    pub storage: Money,
    /// Tier-change cost `Cc` (Eq. 9).
    pub change: Money,
    /// Read cost `Cr` (Eq. 7).
    pub read: Money,
    /// Write cost `Cw` (Eq. 8).
    pub write: Money,
}

impl CostBreakdown {
    /// `Cs + Cc + Cr + Cw` (Eq. 5).
    #[must_use]
    pub fn total(&self) -> Money {
        self.storage + self.change + self.read + self.write
    }
}

impl Add for CostBreakdown {
    type Output = CostBreakdown;
    fn add(self, rhs: CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            storage: self.storage + rhs.storage,
            change: self.change + rhs.change,
            read: self.read + rhs.read,
            write: self.write + rhs.write,
        }
    }
}

impl AddAssign for CostBreakdown {
    fn add_assign(&mut self, rhs: CostBreakdown) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for CostBreakdown {
    fn sum<I: Iterator<Item = CostBreakdown>>(iter: I) -> CostBreakdown {
        iter.fold(CostBreakdown::default(), Add::add)
    }
}

/// An incrementally-accrued billing ledger: per-day component breakdowns
/// plus an exact running total, maintained one charging day at a time.
///
/// This is the online counterpart of summing a finished simulation's
/// `daily` vector: a serving loop accrues each day's [`CostBreakdown`] as
/// it closes and can snapshot/restore the ledger mid-run. Because
/// [`Money`] is integer micro-dollars, the running total always equals the
/// sum of the daily entries bit-for-bit, in any accrual order.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostLedger {
    daily: Vec<CostBreakdown>,
    running: CostBreakdown,
}

impl CostLedger {
    /// An empty ledger with no days accrued.
    #[must_use]
    pub fn new() -> CostLedger {
        CostLedger::default()
    }

    /// A ledger that has accrued `daily` in order. The running total is
    /// derived, never supplied, so it cannot disagree with the days.
    #[must_use]
    pub fn from_daily(daily: Vec<CostBreakdown>) -> CostLedger {
        let running = daily.iter().copied().sum();
        CostLedger { daily, running }
    }

    /// Closes one charging day: appends `day` and folds it into the running
    /// total.
    pub fn accrue(&mut self, day: CostBreakdown) {
        self.daily.push(day);
        self.running += day;
    }

    /// Number of days accrued so far.
    #[must_use]
    pub fn days(&self) -> usize {
        self.daily.len()
    }

    /// The per-day breakdowns accrued so far, oldest first.
    #[must_use]
    pub fn daily(&self) -> &[CostBreakdown] {
        &self.daily
    }

    /// The running component totals across every accrued day.
    #[must_use]
    pub fn running(&self) -> CostBreakdown {
        self.running
    }

    /// Total money accrued across every day and component.
    #[must_use]
    pub fn total(&self) -> Money {
        self.running.total()
    }

    /// Consumes the ledger into its per-day breakdown vector (the shape a
    /// finished simulation reports).
    #[must_use]
    pub fn into_daily(self) -> Vec<CostBreakdown> {
        self.daily
    }
}

/// One tier's unit prices with the per-day and per-operation quotients of
/// Eqs. 6–8 divided out once, typed by [`crate::units`]. The only copy of
/// those formulas: [`TierPrices`]'s cost methods, [`CostModel`] and the
/// aggregation coefficient (Eq. 16) all read them here.
#[derive(Clone, Copy, Debug)]
pub struct TierRates {
    storage: UsdPerGbDay,
    read_per_op: UsdPerOp,
    retrieval: UsdPerGbOp,
    write_per_op: UsdPerOp,
    write_data: UsdPerGbOp,
}

impl TierRates {
    /// Divides `prices` into per-day and per-operation rates. Rust evaluates
    /// `a / b * c` as `(a / b) * c`, so pricing from the stored quotient
    /// gives the same bits as dividing at every call.
    pub(crate) fn new(prices: &TierPrices) -> TierRates {
        TierRates {
            storage: UsdPerGbMonth(prices.storage_gb_month).per_day(),
            read_per_op: UsdPer10kOps(prices.read_per_10k).per_op(),
            retrieval: UsdPerGbOp(prices.retrieval_per_gb),
            write_per_op: UsdPer10kOps(prices.write_per_10k).per_op(),
            write_data: UsdPerGbOp(prices.write_data_per_gb),
        }
    }

    /// The storage price per GB per day (`up_j`, pro-rated).
    #[must_use]
    pub fn storage_gb_day(&self) -> UsdPerGbDay {
        self.storage
    }

    /// The price of one read operation (`urf`).
    #[must_use]
    pub fn read_per_op(&self) -> UsdPerOp {
        self.read_per_op
    }

    /// Storage cost of `size` for one day (Eq. 6).
    #[inline]
    pub(crate) fn storage_day(&self, size: Gb) -> Money {
        Money::from(self.storage * size)
    }

    /// Cost of `ops` reads of a file of `size` (Eq. 7:
    /// `F_r * (urf + urs * D)`).
    #[inline]
    pub(crate) fn read_cost(&self, ops: Ops, size: Gb) -> Money {
        Money::from(ops * (self.read_per_op + self.retrieval * size))
    }

    /// Cost of `ops` writes to a file of `size` (Eq. 8:
    /// `F_w * (uwf + uws * D)`).
    #[inline]
    pub(crate) fn write_cost(&self, ops: Ops, size: Gb) -> Money {
        Money::from(ops * (self.write_per_op + self.write_data * size))
    }
}

/// Evaluates the paper's cost model against a pricing policy.
///
/// [`CostModel::new`] derives each tier's per-day and per-operation rates
/// once, so pricing a file-day divides nothing. These rates are the only
/// copy of Eqs. 6–8 ([`TierPrices`]'s cost methods use them too), and every
/// result is bit-identical to dividing the unit prices at each call.
#[derive(Clone, Debug)]
pub struct CostModel {
    policy: PricingPolicy,
    rates: [TierRates; TIER_COUNT],
}

impl CostModel {
    /// Creates a cost model over `policy`.
    #[must_use]
    pub fn new(policy: PricingPolicy) -> Self {
        let rates = policy.tiers.each_ref().map(TierRates::new);
        CostModel { policy, rates }
    }

    /// The underlying pricing policy.
    #[must_use]
    pub fn policy(&self) -> &PricingPolicy {
        &self.policy
    }

    /// The derived rates of one tier.
    #[must_use]
    pub fn rates(&self, tier: Tier) -> &TierRates {
        let [hot, cool, archive] = &self.rates;
        match tier {
            Tier::Hot => hot,
            Tier::Cool => cool,
            Tier::Archive => archive,
        }
    }

    /// Full component breakdown for one file-day.
    #[must_use]
    pub fn day_breakdown(&self, day: &FileDay) -> CostBreakdown {
        let rates = self.rates(day.tier);
        let size = Gb(day.size_gb);
        let change = match day.changed_from {
            Some(from) => self.policy.change_cost(from, day.tier, day.size_gb),
            None => Money::ZERO,
        };
        CostBreakdown {
            storage: rates.storage_day(size),
            change,
            read: rates.read_cost(Ops::from(day.reads), size),
            write: rates.write_cost(Ops::from(day.writes), size),
        }
    }

    /// Total cost for one file-day (Eq. 5).
    #[must_use]
    pub fn day_cost(&self, day: &FileDay) -> Money {
        self.day_breakdown(day).total()
    }

    /// Cost of keeping a file in `tier` for one day with the given activity,
    /// with no tier change. The hot inner loop of every optimizer.
    #[must_use]
    pub fn steady_day_cost(&self, size_gb: f64, reads: u64, writes: u64, tier: Tier) -> Money {
        let (rates, size) = (self.rates(tier), Gb(size_gb));
        rates.storage_day(size)
            + rates.read_cost(Ops::from(reads), size)
            + rates.write_cost(Ops::from(writes), size)
    }

    /// The cheapest single tier for a whole series of (reads, writes) days,
    /// never changing tier — the paper's "all hot or all cold, whichever is
    /// lower" baseline used when computing potential savings (§3.1, Fig. 3).
    ///
    /// Returns `(tier, total_cost)`. `days` yields `(reads, writes)` pairs.
    #[must_use]
    pub fn best_single_tier<I>(&self, size_gb: f64, days: I) -> (Tier, Money)
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut totals = [Money::ZERO; crate::tier::TIER_COUNT];
        for (reads, writes) in days {
            for tier in Tier::all() {
                totals[tier.index()] += self.steady_day_cost(size_gb, reads, writes, tier);
            }
        }
        Tier::all()
            .map(|t| (t, totals[t.index()]))
            .fold(None, |best: Option<(Tier, Money)>, cand| match best {
                Some(b) if b.1 <= cand.1 => Some(b),
                _ => Some(cand),
            })
            .unwrap_or((Tier::Hot, Money::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DAYS_PER_MONTH, OPS_PER_PRICE_UNIT};
    use proptest::prelude::*;

    fn model() -> CostModel {
        CostModel::new(PricingPolicy::azure_blob_2020())
    }

    #[test]
    fn breakdown_total_is_component_sum() {
        let m = model();
        let day = FileDay {
            size_gb: 0.5,
            reads: 1234,
            writes: 56,
            tier: Tier::Cool,
            changed_from: Some(Tier::Hot),
        };
        let b = m.day_breakdown(&day);
        assert_eq!(b.total(), b.storage + b.change + b.read + b.write);
        assert_eq!(m.day_cost(&day), b.total());
        assert!(b.change > Money::ZERO);
    }

    #[test]
    fn steady_day_has_no_change_cost() {
        let m = model();
        let day = FileDay::steady(0.1, 100, 10, Tier::Hot);
        let b = m.day_breakdown(&day);
        assert_eq!(b.change, Money::ZERO);
        assert_eq!(m.steady_day_cost(0.1, 100, 10, Tier::Hot), b.total());
    }

    #[test]
    fn hot_is_cheaper_for_hot_files() {
        // A heavily-read file should be cheaper in hot than cool or archive.
        let m = model();
        let reads = 50_000;
        let hot = m.steady_day_cost(0.1, reads, 0, Tier::Hot);
        let cool = m.steady_day_cost(0.1, reads, 0, Tier::Cool);
        let archive = m.steady_day_cost(0.1, reads, 0, Tier::Archive);
        assert!(hot < cool, "hot {hot} should beat cool {cool}");
        assert!(cool < archive, "cool {cool} should beat archive {archive}");
    }

    #[test]
    fn archive_is_cheaper_for_idle_files() {
        let m = model();
        let hot = m.steady_day_cost(10.0, 0, 0, Tier::Hot);
        let cool = m.steady_day_cost(10.0, 0, 0, Tier::Cool);
        let archive = m.steady_day_cost(10.0, 0, 0, Tier::Archive);
        assert!(archive < cool && cool < hot);
    }

    #[test]
    fn best_single_tier_picks_minimum() {
        let m = model();
        // Idle file: archive must win.
        let (tier, _) = m.best_single_tier(1.0, std::iter::repeat_n((0, 0), 7));
        assert_eq!(tier, Tier::Archive);
        // Busy file: hot must win.
        let (tier, _) = m.best_single_tier(0.1, std::iter::repeat_n((100_000, 0), 7));
        assert_eq!(tier, Tier::Hot);
    }

    #[test]
    fn best_single_tier_total_matches_manual_sum() {
        let m = model();
        let days = [(10u64, 1u64), (20, 2), (0, 0)];
        let (tier, total) = m.best_single_tier(0.25, days.iter().copied());
        let manual: Money = days.iter().map(|&(r, w)| m.steady_day_cost(0.25, r, w, tier)).sum();
        assert_eq!(total, manual);
    }

    #[test]
    fn zero_size_zero_activity_costs_nothing() {
        let m = model();
        for tier in Tier::all() {
            assert_eq!(m.steady_day_cost(0.0, 0, 0, tier), Money::ZERO);
        }
    }

    #[test]
    fn ledger_running_total_matches_daily_sum() {
        let m = model();
        let mut ledger = CostLedger::new();
        assert_eq!(ledger.total(), Money::ZERO);
        let days = [
            FileDay::steady(0.1, 10, 1, Tier::Hot),
            FileDay::steady(0.2, 0, 0, Tier::Archive),
            FileDay {
                size_gb: 0.5,
                reads: 9,
                writes: 2,
                tier: Tier::Cool,
                changed_from: Some(Tier::Hot),
            },
        ];
        for d in &days {
            ledger.accrue(m.day_breakdown(d));
        }
        assert_eq!(ledger.days(), 3);
        let summed: CostBreakdown = ledger.daily().iter().copied().sum();
        assert_eq!(ledger.running(), summed);
        assert_eq!(ledger.total(), summed.total());
        assert_eq!(ledger.clone().into_daily().len(), 3);
        // Rebuilding from the days alone gives back the identical ledger.
        assert_eq!(CostLedger::from_daily(ledger.daily().to_vec()), ledger);
    }

    #[test]
    fn breakdown_sum_over_days() {
        let m = model();
        let days = [FileDay::steady(0.1, 10, 1, Tier::Hot), FileDay::steady(0.1, 20, 2, Tier::Hot)];
        let total: CostBreakdown = days.iter().map(|d| m.day_breakdown(d)).sum();
        assert_eq!(total.total(), m.day_cost(&days[0]) + m.day_cost(&days[1]));
    }

    /// Rounds dollars to micro-dollars through `f64::round`, independently
    /// of `Money`'s own rounder.
    fn oracle_money(dollars: f64) -> Money {
        Money::from_micros((dollars * 1e6).round() as i64)
    }

    /// The reference Eqs. 6–9, with every quotient divided in place at each
    /// call; [`CostModel`]'s derived rates must match it bit for bit.
    fn oracle_breakdown(policy: &PricingPolicy, day: &FileDay) -> CostBreakdown {
        let p = policy.tier(day.tier);
        let d = day.size_gb;
        let change = match day.changed_from {
            Some(from) if from != day.tier => oracle_money(
                policy.change_per_gb[from.index()][day.tier.index()] * d + policy.change_op_fee,
            ),
            _ => Money::ZERO,
        };
        CostBreakdown {
            storage: oracle_money(p.storage_gb_month / DAYS_PER_MONTH * d),
            change,
            read: oracle_money(
                day.reads as f64 * (p.read_per_10k / OPS_PER_PRICE_UNIT + p.retrieval_per_gb * d),
            ),
            write: oracle_money(
                day.writes as f64
                    * (p.write_per_10k / OPS_PER_PRICE_UNIT + p.write_data_per_gb * d),
            ),
        }
    }

    fn presets() -> [PricingPolicy; 4] {
        [
            PricingPolicy::paper_2020(),
            PricingPolicy::azure_blob_2020(),
            PricingPolicy::aws_s3_like(),
            PricingPolicy::flat(),
        ]
    }

    /// A size in GB from `0..=1e6`: exactly zero, linear, or log-uniform
    /// from 1 KB up, picked by `pick`.
    fn size_gb(pick: u8, linear: f64, exponent: f64) -> f64 {
        match pick % 3 {
            0 => 0.0,
            1 => linear,
            _ => 10f64.powf(exponent),
        }
    }

    /// Asserts `model` prices every tier and tier change of one file-day
    /// bit-identically to the oracle, through every public entry point.
    fn assert_matches_oracle(model: &CostModel, size_gb: f64, reads: u64, writes: u64) {
        let policy = model.policy();
        for tier in Tier::all() {
            for changed_from in std::iter::once(None).chain(Tier::all().map(Some)) {
                let day = FileDay { size_gb, reads, writes, tier, changed_from };
                let expected = oracle_breakdown(policy, &day);
                assert_eq!(model.day_breakdown(&day), expected, "{day:?} under {}", policy.name);
                assert_eq!(model.day_cost(&day), expected.total(), "{day:?}");
            }
            let steady = oracle_breakdown(policy, &FileDay::steady(size_gb, reads, writes, tier));
            assert_eq!(model.steady_day_cost(size_gb, reads, writes, tier), steady.total());
            let prices = policy.tier(tier);
            assert_eq!(prices.storage_day(size_gb), steady.storage);
            assert_eq!(prices.read_cost(reads, size_gb), steady.read);
            assert_eq!(prices.write_cost(writes, size_gb), steady.write);
        }
    }

    #[test]
    fn pricing_oracle_matches_at_the_edges() {
        let sizes = [0.0, 1e-6, 0.1, 1.0, 20.0, 1e6];
        let ops = [0, 1, 9_999, 10_000, 1 << 53, (1 << 53) + 1, u64::MAX];
        for policy in presets() {
            let model = CostModel::new(policy);
            for &size in &sizes {
                for &reads in &ops {
                    for &writes in &ops {
                        assert_matches_oracle(&model, size, reads, writes);
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn pricing_oracle_matches_every_preset(
            size_pick in any::<u8>(),
            linear in 0.0f64..1.0e6,
            exponent in -6.0f64..6.0,
            reads in any::<u64>(),
            writes in any::<u64>(),
            few_reads in 0u64..100_000,
            few_writes in 0u64..1_000,
        ) {
            let size = size_gb(size_pick, linear, exponent);
            for policy in presets() {
                let model = CostModel::new(policy);
                assert_matches_oracle(&model, size, reads, writes);
                assert_matches_oracle(&model, size, few_reads, few_writes);
            }
        }

        #[test]
        fn pricing_oracle_matches_random_tier_prices(
            hot in (0.0f64..1.0, 0.0f64..10.0, 0.0f64..10.0, (0.0f64..0.1, 0.0f64..0.1)),
            cool in (0.0f64..1.0, 0.0f64..10.0, 0.0f64..10.0, (0.0f64..0.1, 0.0f64..0.1)),
            archive in (0.0f64..1.0, 0.0f64..10.0, 0.0f64..10.0, (0.0f64..0.1, 0.0f64..0.1)),
            size in (any::<u8>(), 0.0f64..1.0e6, -6.0f64..6.0),
            many_ops in (any::<u64>(), any::<u64>()),
            few_ops in (0u64..100_000, 0u64..1_000),
        ) {
            let prices = |(storage, read, write, (retrieval, write_data))| TierPrices {
                storage_gb_month: storage,
                read_per_10k: read,
                write_per_10k: write,
                retrieval_per_gb: retrieval,
                write_data_per_gb: write_data,
            };
            let policy = PricingPolicy {
                tiers: [prices(hot), prices(cool), prices(archive)],
                ..PricingPolicy::azure_blob_2020()
            };
            let model = CostModel::new(policy);
            let size = size_gb(size.0, size.1, size.2);
            assert_matches_oracle(&model, size, many_ops.0, many_ops.1);
            assert_matches_oracle(&model, size, many_ops.0, few_ops.1);
            assert_matches_oracle(&model, size, few_ops.0, few_ops.1);
        }

        #[test]
        fn cost_is_nonnegative(
            size in 0.0f64..100.0,
            reads in 0u64..1_000_000,
            writes in 0u64..1_000_000,
            tier_ix in 0usize..3,
            from_ix in proptest::option::of(0usize..3),
        ) {
            let m = model();
            let day = FileDay {
                size_gb: size,
                reads,
                writes,
                tier: Tier::from_index(tier_ix).unwrap(),
                changed_from: from_ix.map(|i| Tier::from_index(i).unwrap()),
            };
            prop_assert!(m.day_cost(&day) >= Money::ZERO);
        }

        #[test]
        fn cost_is_monotone_in_activity(
            size in 0.01f64..10.0,
            reads in 0u64..100_000,
            writes in 0u64..100_000,
            extra in 1u64..10_000,
            tier_ix in 0usize..3,
        ) {
            let m = model();
            let tier = Tier::from_index(tier_ix).unwrap();
            let base = m.steady_day_cost(size, reads, writes, tier);
            prop_assert!(m.steady_day_cost(size, reads + extra, writes, tier) >= base);
            prop_assert!(m.steady_day_cost(size, reads, writes + extra, tier) >= base);
        }

        #[test]
        fn best_single_tier_beats_each_fixed_tier(
            size in 0.01f64..10.0,
            days in proptest::collection::vec((0u64..10_000, 0u64..1_000), 1..14),
        ) {
            let m = model();
            let (_, best) = m.best_single_tier(size, days.iter().copied());
            for tier in Tier::all() {
                let fixed: Money = days
                    .iter()
                    .map(|&(r, w)| m.steady_day_cost(size, r, w, tier))
                    .sum();
                prop_assert!(best <= fixed);
            }
        }

        #[test]
        fn flat_policy_makes_tiers_equivalent(
            size in 0.01f64..10.0,
            reads in 0u64..10_000,
            writes in 0u64..10_000,
        ) {
            let m = CostModel::new(PricingPolicy::flat());
            let costs: Vec<Money> = Tier::all()
                .map(|t| m.steady_day_cost(size, reads, writes, t))
                .collect();
            prop_assert!(costs.windows(2).all(|w| w[0] == w[1]));
        }
    }
}
