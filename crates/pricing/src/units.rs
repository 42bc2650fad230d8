//! Units of the cost model (Eqs. 6–9) as zero-cost `f64` newtypes.
//!
//! The paper's prices come in four shapes: $/GB·month storage (Eq. 6),
//! $/10k-op request prices (Eqs. 7–8), $/GB·op retrieval and write-data
//! prices (Eqs. 7–8), and $/GB tier-change prices (Eq. 9). Each is its own
//! type here, and the operator impls produce only the products the model
//! allows:
//!
//! - Eq. 6: [`UsdPerGbDay`] × [`Gb`] → [`Usd`];
//! - Eqs. 7–8: [`Ops`] × ([`UsdPerOp`] + [`UsdPerGbOp`] × [`Gb`]) → [`Usd`];
//! - Eq. 9: [`UsdPerGb`] × [`Gb`] + [`Usd`] → [`Usd`];
//! - quoted to charged: [`UsdPerGbMonth::per_day`] and [`UsdPer10kOps::per_op`].
//!
//! [`Money`] is built from a priced product only through `From<Usd>`, so a
//! unit slip in the billing arithmetic is a compile error. Each operator is
//! the one `f64` operation it names, in the order written, so typed pricing
//! is bit-identical to the bare-`f64` formulas.
//!
//! # Slips rustc rejects
//!
//! Each rejected slip is paired with a twin that compiles once only the
//! slip is fixed, so the failure is the slip and not a typo.
//!
//! Adding dollars to a size:
//!
//! ```compile_fail
//! use pricing::units::{Gb, Usd, UsdPerGb};
//! let (utran, size, fee) = (UsdPerGb(0.02), Gb(0.5), Usd(0.000_01));
//! let _ = utran * size + size;
//! ```
//!
//! ```
//! use pricing::units::{Gb, Usd, UsdPerGb};
//! let (utran, size, fee) = (UsdPerGb(0.02), Gb(0.5), Usd(0.000_01));
//! let _ = utran * size + fee;
//! ```
//!
//! Comparing a size with a price:
//!
//! ```compile_fail
//! use pricing::units::{Gb, UsdPerGbMonth};
//! let (rate, size, limit) = (UsdPerGbMonth(0.0184), Gb(0.5), Gb(1.0));
//! let _ = size > rate;
//! ```
//!
//! ```
//! use pricing::units::{Gb, UsdPerGbMonth};
//! let (rate, size, limit) = (UsdPerGbMonth(0.0184), Gb(0.5), Gb(1.0));
//! let _ = size > limit;
//! ```
//!
//! Billing a monthly rate as one day (the month/day slip of Eq. 6):
//!
//! ```compile_fail
//! use pricing::units::{Gb, UsdPerGbMonth};
//! use pricing::Money;
//! let (rate, size) = (UsdPerGbMonth(0.0184), Gb(0.5));
//! let _ = Money::from(rate * size);
//! ```
//!
//! ```
//! use pricing::units::{Gb, UsdPerGbMonth};
//! use pricing::Money;
//! let (rate, size) = (UsdPerGbMonth(0.0184), Gb(0.5));
//! let _ = Money::from(rate.per_day() * size);
//! ```
//!
//! A helper whose declared return is the monthly rate:
//!
//! ```compile_fail
//! use pricing::units::{Gb, UsdPerGbMonth};
//! use pricing::{Money, TierPrices};
//! fn storage_rate(prices: &TierPrices) -> UsdPerGbMonth {
//!     UsdPerGbMonth(prices.storage_gb_month)
//! }
//! let prices = pricing::PricingPolicy::paper_2020().tiers[0];
//! let _ = Money::from(storage_rate(&prices) * Gb(0.5));
//! ```
//!
//! ```
//! use pricing::units::{Gb, UsdPerGbMonth};
//! use pricing::{Money, TierPrices};
//! fn storage_rate(prices: &TierPrices) -> UsdPerGbMonth {
//!     UsdPerGbMonth(prices.storage_gb_month)
//! }
//! let prices = pricing::PricingPolicy::paper_2020().tiers[0];
//! let _ = Money::from(storage_rate(&prices).per_day() * Gb(0.5));
//! ```
//!
//! A helper whose return type rustc derives from its body:
//!
//! ```compile_fail
//! use pricing::units::{Gb, UsdPerGbMonth};
//! use pricing::{Money, TierPrices};
//! let storage_rate = |prices: &TierPrices| UsdPerGbMonth(prices.storage_gb_month);
//! let prices = pricing::PricingPolicy::paper_2020().tiers[0];
//! let _ = Money::from(storage_rate(&prices) * Gb(0.5));
//! ```
//!
//! ```
//! use pricing::units::{Gb, UsdPerGbMonth};
//! use pricing::{Money, TierPrices};
//! let storage_rate = |prices: &TierPrices| UsdPerGbMonth(prices.storage_gb_month);
//! let prices = pricing::PricingPolicy::paper_2020().tiers[0];
//! let _ = Money::from(storage_rate(&prices).per_day() * Gb(0.5));
//! ```

use crate::money::Money;
use crate::policy::{DAYS_PER_MONTH, OPS_PER_PRICE_UNIT};
use std::ops::{Add, Mul};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
        #[repr(transparent)]
        pub struct $name(pub f64);
    };
}

unit!(
    /// A size in gigabytes (`D` in Eqs. 6–9).
    Gb
);
unit!(
    /// An operation count (`F_r`, `F_w` in Eqs. 7–8).
    Ops
);
unit!(
    /// A dollar amount, not yet rounded to [`Money`].
    Usd
);
unit!(
    /// A storage price as quoted, in dollars per GB per month (`up_j`).
    UsdPerGbMonth
);
unit!(
    /// A storage price as charged, in dollars per GB per day (Eq. 6).
    UsdPerGbDay
);
unit!(
    /// An operation price as quoted, in dollars per 10,000 operations.
    UsdPer10kOps
);
unit!(
    /// An operation price as charged, in dollars per operation (`urf`, `uwf`).
    UsdPerOp
);
unit!(
    /// A per-operation data price, in dollars per GB moved by each
    /// operation (`urs`, `uws`).
    UsdPerGbOp
);
unit!(
    /// A one-time price in dollars per GB (`utran`, Eq. 9).
    UsdPerGb
);

impl From<u64> for Ops {
    /// `ops as f64`, the rounding the bare formulas always used.
    #[inline]
    fn from(ops: u64) -> Ops {
        Ops(ops as f64)
    }
}

impl UsdPerGbMonth {
    /// Pro-rates the monthly price to one charging day.
    #[inline]
    #[must_use]
    pub fn per_day(self) -> UsdPerGbDay {
        UsdPerGbDay(self.0 / DAYS_PER_MONTH)
    }
}

impl UsdPer10kOps {
    /// The price of a single operation.
    #[inline]
    #[must_use]
    pub fn per_op(self) -> UsdPerOp {
        UsdPerOp(self.0 / OPS_PER_PRICE_UNIT)
    }
}

/// `lhs × rhs → out` for unit types.
macro_rules! product {
    ($lhs:ident * $rhs:ident => $out:ident) => {
        impl Mul<$rhs> for $lhs {
            type Output = $out;
            #[inline]
            fn mul(self, rhs: $rhs) -> $out {
                $out(self.0 * rhs.0)
            }
        }
    };
}

/// `lhs + lhs → lhs` for unit types.
macro_rules! sum {
    ($unit:ident) => {
        impl Add for $unit {
            type Output = $unit;
            #[inline]
            fn add(self, rhs: $unit) -> $unit {
                $unit(self.0 + rhs.0)
            }
        }
    };
}

product!(UsdPerGbDay * Gb => Usd);
product!(UsdPerGbOp * Gb => UsdPerOp);
product!(Ops * UsdPerOp => Usd);
product!(UsdPerGb * Gb => Usd);
sum!(UsdPerOp);
sum!(Usd);

impl From<Usd> for Money {
    /// Rounds a priced product to the nearest micro-dollar
    /// ([`Money::from_dollars`]).
    #[inline]
    fn from(usd: Usd) -> Money {
        Money::from_dollars(usd.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_operator_is_the_bare_f64_operation() {
        let (rate, size, ops) = (0.0184, 0.3, 12_345u64);
        assert_eq!(UsdPerGbMonth(rate).per_day().0, rate / DAYS_PER_MONTH);
        assert_eq!(UsdPer10kOps(rate).per_op().0, rate / OPS_PER_PRICE_UNIT);
        assert_eq!((UsdPerGbDay(rate) * Gb(size)).0, rate * size);
        assert_eq!((UsdPerGbOp(rate) * Gb(size)).0, rate * size);
        assert_eq!((UsdPerGb(rate) * Gb(size)).0, rate * size);
        assert_eq!((Ops::from(ops) * UsdPerOp(rate)).0, ops as f64 * rate);
        assert_eq!((UsdPerOp(rate) + UsdPerOp(size)).0, rate + size);
        assert_eq!((Usd(rate) + Usd(size)).0, rate + size);
        assert_eq!(Money::from(Usd(rate * size)), Money::from_dollars(rate * size));
    }
}
