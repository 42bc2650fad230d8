//! CSP pricing policies.
//!
//! A [`PricingPolicy`] carries everything the paper's cost model (Eqs. 5–9)
//! needs: per-tier storage/operation/transfer unit prices and the
//! tier-change charge matrix (`utran`). The default preset,
//! [`PricingPolicy::azure_blob_2020`], encodes the Microsoft Azure Block Blob
//! prices (US West, LRS, circa January 2020) that the paper's §6.1 uses.

use crate::cost::TierRates;
use crate::money::Money;
use crate::tier::{Tier, TIER_COUNT};
use crate::units::{Gb, Ops, Usd, UsdPerGb};
use serde::{Deserialize, Serialize};

/// Operations per pricing unit: CSPs quote operation prices per 10,000 ops.
/// A pure scale factor — the per-op prices below absorb the ops dimension.
pub const OPS_PER_PRICE_UNIT: f64 = 10_000.0;

/// Days per billing month used to pro-rate monthly storage prices.
pub const DAYS_PER_MONTH: f64 = 30.0;

/// Unit prices for a single storage tier.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TierPrices {
    /// Storage price in dollars per GB per month (`up_j` in Eq. 6).
    pub storage_gb_month: f64,
    /// Read operation price in dollars per 10,000 operations (`urf`, Eq. 7).
    pub read_per_10k: f64,
    /// Write operation price in dollars per 10,000 operations (`uwf`, Eq. 8).
    pub write_per_10k: f64,
    /// Data retrieval price in dollars per GB read (`urs`, Eq. 7).
    pub retrieval_per_gb: f64,
    /// Data write price in dollars per GB written (`uws`, Eq. 8).
    pub write_data_per_gb: f64,
}

impl TierPrices {
    /// Pro-rated storage price for one day, for `size_gb` gigabytes (Eq. 6).
    #[must_use]
    pub fn storage_day(&self, size_gb: f64) -> Money {
        TierRates::new(self).storage_day(Gb(size_gb))
    }

    /// Cost of `ops` read operations against a file of `size_gb` GB
    /// (Eq. 7: `F_r * (urf + urs * D)`).
    #[must_use]
    pub fn read_cost(&self, ops: u64, size_gb: f64) -> Money {
        TierRates::new(self).read_cost(Ops::from(ops), Gb(size_gb))
    }

    /// Cost of `ops` write operations against a file of `size_gb` GB
    /// (Eq. 8: `F_w * (uwf + uws * D)`).
    #[must_use]
    pub fn write_cost(&self, ops: u64, size_gb: f64) -> Money {
        TierRates::new(self).write_cost(Ops::from(ops), Gb(size_gb))
    }
}

/// A complete CSP pricing policy for the standard three-tier set.
///
/// `change_per_gb[from][to]` is the one-time tier-change price in dollars per
/// GB (the paper's `utran`, Eq. 9); the diagonal is zero. The paper treats
/// the change cost as a single per-GB price; real CSPs derive it from
/// retrieval + write charges, which is how the presets are built.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PricingPolicy {
    /// Human-readable policy name (e.g. `"azure-blob-2020-us-west"`).
    pub name: String,
    /// Per-tier unit prices, indexed by [`Tier::index`].
    pub tiers: [TierPrices; TIER_COUNT],
    /// Tier-change price matrix in dollars per GB, `[from][to]`.
    pub change_per_gb: [[f64; TIER_COUNT]; TIER_COUNT],
    /// Flat per-change operation fee in dollars (one op billed at the
    /// destination tier's write price in real CSPs; kept explicit here).
    pub change_op_fee: f64,
}

impl PricingPolicy {
    /// Prices for one tier.
    #[must_use]
    pub fn tier(&self, tier: Tier) -> &TierPrices {
        let [hot, cool, archive] = &self.tiers;
        match tier {
            Tier::Hot => hot,
            Tier::Cool => cool,
            Tier::Archive => archive,
        }
    }

    /// One-time cost of moving a file of `size_gb` GB from `from` to `to`
    /// (Eq. 9: `utran * D`, plus the per-change operation fee).
    ///
    /// Returns [`Money::ZERO`] when `from == to`.
    #[must_use]
    pub fn change_cost(&self, from: Tier, to: Tier, size_gb: f64) -> Money {
        if from == to {
            return Money::ZERO;
        }
        let [from_hot, from_cool, from_archive] = &self.change_per_gb;
        let row = match from {
            Tier::Hot => from_hot,
            Tier::Cool => from_cool,
            Tier::Archive => from_archive,
        };
        let [to_hot, to_cool, to_archive] = row;
        let per_gb = match to {
            Tier::Hot => *to_hot,
            Tier::Cool => *to_cool,
            Tier::Archive => *to_archive,
        };
        Money::from(UsdPerGb(per_gb) * Gb(size_gb) + Usd(self.change_op_fee))
    }

    /// Microsoft Azure Block Blob pricing, US West, LRS, circa January 2020 —
    /// the policy the paper's experiments use (§6.1, its reference "Azure Storage Pricing Policy").
    ///
    /// Per-GB change prices follow Azure's rule: demotions are billed as
    /// writes at the destination tier; promotions as retrieval from the
    /// source tier.
    #[must_use]
    pub fn azure_blob_2020() -> Self {
        let hot = TierPrices {
            storage_gb_month: 0.0184,
            read_per_10k: 0.0044,
            write_per_10k: 0.055,
            retrieval_per_gb: 0.0,
            write_data_per_gb: 0.0,
        };
        let cool = TierPrices {
            storage_gb_month: 0.01,
            read_per_10k: 0.01,
            write_per_10k: 0.10,
            retrieval_per_gb: 0.01,
            write_data_per_gb: 0.0025,
        };
        let archive = TierPrices {
            storage_gb_month: 0.00099,
            read_per_10k: 5.50,
            write_per_10k: 0.11,
            retrieval_per_gb: 0.022,
            write_data_per_gb: 0.0,
        };
        // change_per_gb[from][to]
        let change_per_gb = [
            // from Hot: demote = destination write-data price
            [0.0, cool.write_data_per_gb, archive.write_data_per_gb],
            // from Cool: promote = cool retrieval; demote = archive write-data
            [cool.retrieval_per_gb, 0.0, archive.write_data_per_gb],
            // from Archive: promote = archive retrieval (rehydration)
            [archive.retrieval_per_gb, archive.retrieval_per_gb, 0.0],
        ];
        PricingPolicy {
            name: "azure-blob-2020-us-west".to_owned(),
            tiers: [hot, cool, archive],
            change_per_gb,
            change_op_fee: 0.10 / OPS_PER_PRICE_UNIT,
        }
    }

    /// The pricing policy the paper's evaluation implies (§6.1, Figs. 3, 7,
    /// 8): Azure's 2020 storage and per-operation prices with **negligible
    /// per-GB retrieval charges**.
    ///
    /// Why this preset exists: with Azure's literal cool-tier retrieval
    /// price ($0.01/GB) every read of a 100 MB file costs ~$0.001, making
    /// hot storage dominate all traffic levels — yet Fig. 7 of the paper
    /// shows *Cold* only ~20% above *Hot*, and Fig. 3 shows large savings
    /// from tier switching. That shape is only possible when read costs are
    /// dominated by the per-operation prices (hot $0.0044 vs cold $0.01 per
    /// 10k ops, the exact numbers the paper quotes in §1), i.e. when `urs`
    /// in Eq. 7 is negligible. This preset encodes that regime; the
    /// tier-change matrix uses Eq. 9's flat per-GB `utran` with promotions
    /// costlier than demotions (rehydration), sized so that a weekly burst
    /// repays a round trip but daily flip-flopping does not.
    #[must_use]
    pub fn paper_2020() -> Self {
        let hot = TierPrices {
            storage_gb_month: 0.0184,
            read_per_10k: 0.0044,
            write_per_10k: 0.055,
            retrieval_per_gb: 0.0,
            write_data_per_gb: 0.0,
        };
        let cool = TierPrices {
            storage_gb_month: 0.01,
            read_per_10k: 0.01,
            write_per_10k: 0.10,
            retrieval_per_gb: 0.0,
            write_data_per_gb: 0.0,
        };
        let archive = TierPrices {
            storage_gb_month: 0.00099,
            read_per_10k: 5.50,
            write_per_10k: 0.11,
            retrieval_per_gb: 0.0,
            write_data_per_gb: 0.0,
        };
        // Demotions repay within ~a day of storage savings for a 100 MB
        // file (so a myopic planner will demote idle files); promotions —
        // especially archive rehydration — are an order of magnitude
        // pricier, which is exactly what makes short-sighted demotion of a
        // weekly-bursty file a costly mistake (§3.2's motivating trap).
        let change_per_gb = [
            [0.0, 0.0001, 0.0002], // hot -> cooler
            [0.001, 0.0, 0.0002],  // cool -> hot promotion
            [0.02, 0.02, 0.0],     // archive rehydration is the costly path
        ];
        PricingPolicy {
            name: "paper-2020-op-dominated".to_owned(),
            tiers: [hot, cool, archive],
            change_per_gb,
            change_op_fee: 0.05 / OPS_PER_PRICE_UNIT,
        }
    }

    /// An AWS-S3-like policy (Standard / Standard-IA / Glacier, circa 2020),
    /// used to exercise the multi-CSP claim of §4.2.1.
    #[must_use]
    pub fn aws_s3_like() -> Self {
        let standard = TierPrices {
            storage_gb_month: 0.023,
            read_per_10k: 0.004,
            write_per_10k: 0.05,
            retrieval_per_gb: 0.0,
            write_data_per_gb: 0.0,
        };
        let ia = TierPrices {
            storage_gb_month: 0.0125,
            read_per_10k: 0.01,
            write_per_10k: 0.10,
            retrieval_per_gb: 0.01,
            write_data_per_gb: 0.0,
        };
        let glacier = TierPrices {
            storage_gb_month: 0.004,
            read_per_10k: 0.50,
            write_per_10k: 0.50,
            retrieval_per_gb: 0.03,
            write_data_per_gb: 0.0,
        };
        let change_per_gb = [
            [0.0, 0.0, 0.0],
            [ia.retrieval_per_gb, 0.0, 0.0],
            [glacier.retrieval_per_gb, glacier.retrieval_per_gb, 0.0],
        ];
        PricingPolicy {
            name: "aws-s3-like-2020".to_owned(),
            tiers: [standard, ia, glacier],
            change_per_gb,
            change_op_fee: 0.05 / OPS_PER_PRICE_UNIT,
        }
    }

    /// A degenerate policy where every tier costs the same. With this
    /// policy no assignment strategy can beat any other; used by tests to
    /// validate that optimizers report zero savings when none exist.
    #[must_use]
    pub fn flat() -> Self {
        let t = TierPrices {
            storage_gb_month: 0.01,
            read_per_10k: 0.01,
            write_per_10k: 0.01,
            retrieval_per_gb: 0.001,
            write_data_per_gb: 0.001,
        };
        PricingPolicy {
            name: "flat".to_owned(),
            tiers: [t, t, t],
            change_per_gb: [[0.0; TIER_COUNT]; TIER_COUNT],
            change_op_fee: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn azure_matches_published_numbers() {
        let p = PricingPolicy::azure_blob_2020();
        // §1 of the paper: "$0.0044 in US West region per 10,000 reading
        // operations ... for hot files, and ... $0.01 per 10,000 data reading
        // operations ... for cold files".
        assert_eq!(p.tier(Tier::Hot).read_per_10k, 0.0044);
        assert_eq!(p.tier(Tier::Cool).read_per_10k, 0.01);
        // Storage ordering: hot most expensive, archive cheapest.
        assert!(p.tier(Tier::Hot).storage_gb_month > p.tier(Tier::Cool).storage_gb_month);
        assert!(p.tier(Tier::Cool).storage_gb_month > p.tier(Tier::Archive).storage_gb_month);
        // Ops ordering: archive reads are the most expensive by far.
        assert!(p.tier(Tier::Archive).read_per_10k > 100.0 * p.tier(Tier::Hot).read_per_10k);
    }

    #[test]
    fn paper_preset_has_midrange_breakeven() {
        // The defining property: for a 100 MB file, the hot/cool breakeven
        // sits at a moderate daily read rate (storage delta vs per-op delta),
        // so tier choice genuinely depends on traffic.
        let p = PricingPolicy::paper_2020();
        let size = 0.1; // GB
        let storage_delta =
            (p.tier(Tier::Hot).storage_gb_month - p.tier(Tier::Cool).storage_gb_month) / 30.0
                * size;
        let per_op_delta =
            (p.tier(Tier::Cool).read_per_10k - p.tier(Tier::Hot).read_per_10k) / 10_000.0;
        let breakeven = storage_delta / per_op_delta;
        assert!((10.0..200.0).contains(&breakeven), "breakeven {breakeven} reads/day");
    }

    #[test]
    fn paper_preset_burst_switching_pays_within_a_week() {
        // A weekly burst must repay a cool->hot->cool round trip: the
        // round-trip change cost for a 100 MB file is under one burst-day's
        // op saving at 1000 reads/day.
        let p = PricingPolicy::paper_2020();
        let size = 0.1;
        let round_trip =
            p.change_cost(Tier::Cool, Tier::Hot, size) + p.change_cost(Tier::Hot, Tier::Cool, size);
        let burst_saving = Money::from_dollars(
            1000.0 * (p.tier(Tier::Cool).read_per_10k - p.tier(Tier::Hot).read_per_10k) / 10_000.0,
        );
        assert!(
            round_trip < burst_saving * 2,
            "round trip {round_trip} vs 2-day burst saving {}",
            burst_saving * 2
        );
    }

    #[test]
    fn change_cost_zero_on_diagonal() {
        let p = PricingPolicy::azure_blob_2020();
        for t in Tier::all() {
            assert_eq!(p.change_cost(t, t, 123.0), Money::ZERO);
        }
    }

    #[test]
    fn change_cost_scales_with_size() {
        let p = PricingPolicy::azure_blob_2020();
        let small = p.change_cost(Tier::Archive, Tier::Hot, 1.0);
        let large = p.change_cost(Tier::Archive, Tier::Hot, 10.0);
        assert!(large > small);
        // Rehydration from archive is the most expensive promotion.
        assert!(
            p.change_cost(Tier::Archive, Tier::Hot, 1.0)
                >= p.change_cost(Tier::Cool, Tier::Hot, 1.0)
        );
    }

    #[test]
    fn read_cost_formula_matches_eq7() {
        let p = PricingPolicy::azure_blob_2020();
        // Cool tier: 10,000 reads of a 1 GB file =
        //   $0.01 (ops) + 10,000 * $0.01/GB (retrieval) = $100.01
        let cost = p.tier(Tier::Cool).read_cost(10_000, 1.0);
        assert_eq!(cost, Money::from_dollars(0.01 + 10_000.0 * 0.01));
    }

    #[test]
    fn write_cost_formula_matches_eq8() {
        let p = PricingPolicy::azure_blob_2020();
        // Cool tier: 10,000 writes of a 2 GB file =
        //   $0.10 (ops) + 10,000 * 2 * $0.0025/GB = $50.10
        let cost = p.tier(Tier::Cool).write_cost(10_000, 2.0);
        assert_eq!(cost, Money::from_dollars(0.10 + 10_000.0 * 2.0 * 0.0025));
    }

    #[test]
    fn storage_day_is_monthly_over_30() {
        let p = PricingPolicy::azure_blob_2020();
        let day = p.tier(Tier::Hot).storage_day(30.0);
        assert_eq!(day, Money::from_dollars(0.0184 * 30.0 / 30.0));
    }

    #[test]
    fn flat_policy_is_tier_invariant() {
        let p = PricingPolicy::flat();
        for a in Tier::all() {
            for b in Tier::all() {
                assert_eq!(p.tier(a).read_cost(100, 1.0), p.tier(b).read_cost(100, 1.0));
                assert_eq!(p.change_cost(a, b, 5.0), Money::ZERO);
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let p = PricingPolicy::azure_blob_2020();
        let json = serde_json::to_string(&p).unwrap();
        let back: PricingPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
