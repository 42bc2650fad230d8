//! CSP storage-tier pricing model and exact cost accounting.
//!
//! This crate is the monetary substrate of the MiniCost reproduction
//! (Wang et al., ICPP 2020). It models what the paper's Section 4.2 calls the
//! CSP pricing policy: per-tier storage prices, per-operation read/write
//! prices, per-GB retrieval prices, and the one-time charge for changing a
//! file's storage tier (Eqs. 5–9 of the paper).
//!
//! Money is represented as integer micro-dollars ([`Money`]) so that ledgers
//! across millions of files and dozens of days stay exact and experiments are
//! bit-reproducible.
//!
//! # Quick example
//!
//! ```
//! use pricing::{PricingPolicy, Tier, FileDay, CostModel};
//!
//! let policy = PricingPolicy::azure_blob_2020();
//! let model = CostModel::new(policy);
//! let day = FileDay {
//!     size_gb: 0.1,
//!     reads: 1_000,
//!     writes: 10,
//!     tier: Tier::Hot,
//!     changed_from: None,
//! };
//! let cost = model.day_cost(&day);
//! assert!(cost.as_dollars() > 0.0);
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

pub mod cost;
pub mod money;
pub mod policy;
pub mod tier;
pub mod units;

pub use cost::{CostBreakdown, CostLedger, CostModel, FileDay, TierRates};
pub use money::Money;
pub use policy::{PricingPolicy, TierPrices};
pub use tier::{Tier, TierSet, TIER_COUNT};
