//! Exact money arithmetic in integer micro-dollars.
//!
//! Experiments aggregate per-file daily costs across hundreds of thousands of
//! files and weeks of simulated time. Using `f64` dollars would accumulate
//! rounding drift and make ledgers order-dependent (a problem for the
//! deterministic, parallel accounting in `minicost-core`). `Money` stores
//! micro-dollars in an `i64`, which covers ±9.2 trillion dollars — far beyond
//! any experiment in the paper — with exact addition.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Micro-dollars per dollar.
const MICROS: i64 = 1_000_000;

/// `2^52`: every `f64` at least this large in magnitude is an integer.
const EXACT_INTEGERS: f64 = 4_503_599_627_370_496.0;

/// `x.round() as i64` (ties away from zero, saturating, NaN to 0) without
/// the libm call that `f64::round` compiles to on x86-64 baselines lacking
/// SSE4.1, where it dominated the cost of pricing one file-day.
///
/// Below `2^52`, `x as i64` truncates exactly and `x - trunc(x)` is exact,
/// so comparing that fraction with ±0.5 rounds exactly like `f64::round`.
/// Larger magnitudes, infinities and NaN take `f64::round` itself.
#[expect(
    clippy::cast_possible_truncation,
    reason = "float-to-int `as` saturates; the fast path is exact below 2^52"
)]
#[inline]
fn round_to_i64(x: f64) -> i64 {
    if x.abs() < EXACT_INTEGERS {
        let whole = x as i64;
        let frac = x - whole as f64;
        whole + i64::from(frac >= 0.5) - i64::from(frac <= -0.5)
    } else {
        x.round() as i64
    }
}

/// An exact monetary amount in integer micro-dollars.
///
/// Construction from floating-point dollar amounts ([`Money::from_dollars`],
/// or `From<Usd>` for a priced product of [`crate::units`]) rounds to the
/// nearest micro-dollar, ties away from zero, through one inline rounder
/// that is bit-identical to `x.round() as i64`.
/// All subsequent arithmetic is exact integer arithmetic that saturates at
/// [`Money::MIN`]/[`Money::MAX`] instead of wrapping or panicking.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Money(i64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);

    /// Largest representable amount (used as an "infinite cost" sentinel in
    /// optimization code).
    pub const MAX: Money = Money(i64::MAX);

    /// Smallest (most negative) representable amount; the saturation floor
    /// for subtraction.
    pub const MIN: Money = Money(i64::MIN);

    /// Creates a `Money` from a dollar amount, rounding to the nearest
    /// micro-dollar (ties away from zero, like `f64::round`).
    #[must_use]
    pub fn from_dollars(dollars: f64) -> Self {
        debug_assert!(dollars.is_finite(), "money must be finite: {dollars}");
        Money(round_to_i64(dollars * MICROS as f64))
    }

    /// Creates a `Money` from an exact number of micro-dollars.
    #[must_use]
    pub const fn from_micros(micros: i64) -> Self {
        Money(micros)
    }

    /// The exact number of micro-dollars.
    #[must_use]
    pub const fn micros(self) -> i64 {
        self.0
    }

    /// The amount in (approximate) floating-point dollars, for reporting.
    #[must_use]
    pub fn as_dollars(self) -> f64 {
        self.0 as f64 / MICROS as f64
    }

    /// `true` if the amount is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Dimensionless ratio `self / denom`.
    ///
    /// This is the approved way for code outside this crate to compare two
    /// amounts multiplicatively (reward normalization, cost-vs-optimal
    /// ratios): the division happens here, so callers never do raw float
    /// arithmetic on dollar values (the `money-safety` lint enforces this).
    #[must_use]
    pub fn ratio_to(self, denom: Money) -> f64 {
        self.as_dollars() / denom.as_dollars()
    }

    /// Like [`Money::ratio_to`], but clamps the denominator to at least
    /// `floor_dollars` so a zero or near-zero reference cannot produce an
    /// infinite ratio.
    #[must_use]
    pub fn ratio_with_floor(self, denom: Money, floor_dollars: f64) -> f64 {
        self.as_dollars() / denom.as_dollars().max(floor_dollars)
    }

    /// Saturating addition; useful when folding with `Money::MAX` sentinels.
    #[must_use]
    pub const fn saturating_add(self, rhs: Money) -> Money {
        Money(self.0.saturating_add(rhs.0))
    }

    /// The smaller of two amounts.
    #[must_use]
    pub fn min(self, other: Money) -> Money {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two amounts.
    #[must_use]
    pub fn max(self, other: Money) -> Money {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Absolute value, saturating: `Money::MIN.abs()` is `Money::MAX`.
    #[must_use]
    pub const fn abs(self) -> Money {
        Money(self.0.saturating_abs())
    }
}

// Overflow policy: every operator (`+`, `-`, unary `-`, `abs`, `* i64`,
// `/ i64`) and `Sum` saturate at `Money::MIN`/`Money::MAX` rather than
// wrapping or panicking. i64 micro-dollars overflow at ~$9.2e12;
// a ledger that large is already garbage, and a saturated total stays ordered
// (greater than every real cost), so cost comparisons degrade gracefully
// instead of aborting a long experiment. Exact-by-construction call sites
// that want to be explicit can keep using `saturating_add`.
impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(self.0.saturating_neg())
    }
}

impl Mul<i64> for Money {
    type Output = Money;
    fn mul(self, rhs: i64) -> Money {
        Money(self.0.saturating_mul(rhs))
    }
}

/// Truncating division that saturates (`Money::MIN / -1` is `Money::MAX`).
/// Dividing by zero returns `Money::ZERO`: an average over no days is no
/// money, not a panic.
impl Div<i64> for Money {
    type Output = Money;
    fn div(self, rhs: i64) -> Money {
        match self.0.checked_div(rhs) {
            Some(q) => Money(q),
            None if rhs == 0 => Money::ZERO,
            None => Money::MAX,
        }
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Money> for Money {
    fn sum<I: Iterator<Item = &'a Money>>(iter: I) -> Money {
        iter.copied().sum()
    }
}

impl fmt::Debug for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.6}", self.as_dollars())
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.2}", self.as_dollars())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dollars_round_trip() {
        let m = Money::from_dollars(1.25);
        assert_eq!(m.micros(), 1_250_000);
        assert!((m.as_dollars() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn rounding_is_nearest() {
        // 0.0000004 dollars = 0.4 micro-dollars -> rounds to 0.
        assert_eq!(Money::from_dollars(0.000_000_4).micros(), 0);
        // 0.0000006 dollars -> rounds to 1 micro-dollar.
        assert_eq!(Money::from_dollars(0.000_000_6).micros(), 1);
        // Negative values round away from zero on ties.
        assert_eq!(Money::from_dollars(-0.000_000_6).micros(), -1);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Money::from_dollars(3.50);
        let b = Money::from_dollars(1.25);
        assert_eq!((a + b).as_dollars(), 4.75);
        assert_eq!((a - b).as_dollars(), 2.25);
        assert_eq!((a * 2).as_dollars(), 7.0);
        assert_eq!((a / 2).as_dollars(), 1.75);
        assert_eq!((-a).as_dollars(), -3.5);
        assert_eq!(a.abs(), a);
        assert_eq!((-a).abs(), a);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = [Money::from_dollars(0.10); 10];
        let total: Money = parts.iter().sum();
        assert_eq!(total, Money::from_dollars(1.0));
    }

    #[test]
    fn min_max() {
        let a = Money::from_dollars(1.0);
        let b = Money::from_dollars(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn saturating_add_caps_at_max() {
        assert_eq!(Money::MAX.saturating_add(Money::from_dollars(1.0)), Money::MAX);
    }

    #[test]
    fn display_formats() {
        let m = Money::from_dollars(1234.5678);
        assert_eq!(format!("{m}"), "$1234.57");
        assert_eq!(format!("{m:?}"), "$1234.567800");
    }

    proptest! {
        #[test]
        fn addition_is_exact_and_commutative(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
            let (ma, mb) = (Money::from_micros(a), Money::from_micros(b));
            prop_assert_eq!(ma + mb, mb + ma);
            prop_assert_eq!((ma + mb).micros(), a + b);
        }

        #[test]
        fn sum_is_order_independent(mut v in proptest::collection::vec(-1_000_000i64..1_000_000, 0..64)) {
            let forward: Money = v.iter().map(|&x| Money::from_micros(x)).sum();
            v.reverse();
            let backward: Money = v.iter().map(|&x| Money::from_micros(x)).sum();
            prop_assert_eq!(forward, backward);
        }

        #[test]
        fn dollars_round_trip_within_half_micro(d in -1.0e6f64..1.0e6) {
            let m = Money::from_dollars(d);
            prop_assert!((m.as_dollars() - d).abs() <= 0.5e-6 + 1e-12);
        }

        #[test]
        fn sum_is_invariant_under_shuffle(
            mut v in proptest::collection::vec(-1_000_000_000i64..1_000_000_000, 0..64),
            seed in 0u64..1024,
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let forward: Money = v.iter().map(|&x| Money::from_micros(x)).sum();
            v.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            let shuffled: Money = v.iter().map(|&x| Money::from_micros(x)).sum();
            prop_assert_eq!(forward, shuffled);
        }

        #[test]
        fn addition_near_i64_max_saturates(delta in 0i64..1_000_000) {
            // Documented overflow policy: saturate, never wrap or panic.
            let near_max = Money::from_micros(i64::MAX - 500_000);
            let sum = near_max + Money::from_micros(delta);
            prop_assert!(sum >= near_max);
            prop_assert!(sum <= Money::MAX);
            let near_min = Money::from_micros(i64::MIN + 500_000);
            let diff = near_min - Money::from_micros(delta);
            prop_assert!(diff <= near_min);
            prop_assert!(diff >= Money::MIN);
        }

        #[test]
        fn ratio_matches_dollar_division(
            a in -1_000_000_000i64..1_000_000_000,
            b in 1i64..1_000_000_000,
        ) {
            let (ma, mb) = (Money::from_micros(a), Money::from_micros(b));
            let expected = ma.as_dollars() / mb.as_dollars();
            prop_assert_eq!(ma.ratio_to(mb), expected);
            prop_assert_eq!(ma.ratio_with_floor(mb, 0.0), expected);
        }
    }

    #[test]
    fn add_saturates_at_extremes() {
        assert_eq!(Money::MAX + Money::MAX, Money::MAX);
        assert_eq!(Money::MIN + Money::MIN, Money::MIN);
        assert_eq!(Money::MIN - Money::MAX, Money::MIN);
        let mut acc = Money::MAX;
        acc += Money::from_micros(1);
        assert_eq!(acc, Money::MAX);
    }

    /// The reference rounding `round_to_i64` must match bit for bit:
    /// `f64::round`, then a saturating cast.
    fn round_oracle(x: f64) -> i64 {
        x.round() as i64
    }

    /// Values at every boundary of `round_to_i64`: signed zeros, the
    /// largest value below one half, exact halves, the `2^52` switch-over,
    /// the saturating `i64` edges, subnormals, infinities and NaN.
    const ROUNDING_EDGES: [f64; 30] = [
        0.0,
        -0.0,
        0.5,
        -0.5,
        1.5,
        -1.5,
        2.5,
        -2.5,
        0.499_999_999_999_999_94,
        -0.499_999_999_999_999_94,
        4_503_599_627_370_495.5,
        -4_503_599_627_370_495.5,
        4_503_599_627_370_496.0,
        4_503_599_627_370_497.0,
        -4_503_599_627_370_497.0,
        9_007_199_254_740_994.0,
        i64::MAX as f64,
        i64::MIN as f64,
        1e300,
        -1e300,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::EPSILON,
    ];

    #[test]
    fn rounding_matches_f64_round_on_edge_cases() {
        for x in ROUNDING_EDGES {
            assert_eq!(round_to_i64(x), round_oracle(x), "round_to_i64({x:e})");
            if x.is_finite() {
                let dollars = x / 1e6;
                let micros = Money::from_dollars(dollars).micros();
                assert_eq!(micros, round_oracle(dollars * 1e6), "from_dollars({dollars:e})");
            }
        }
    }

    #[test]
    fn rounding_of_half_micros_goes_away_from_zero() {
        assert_eq!(Money::from_dollars(0.000_002_5).micros(), 3);
        assert_eq!(Money::from_dollars(-0.000_002_5).micros(), -3);
    }

    proptest! {
        #[test]
        fn rounding_matches_f64_round_on_any_bit_pattern(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(round_to_i64(x), round_oracle(x));
        }

        #[test]
        fn rounding_from_dollars_matches_f64_round(
            bits in any::<u64>(),
            dollars in -1.0e7f64..1.0e7,
            half in -1_000_000_000i64..1_000_000_000,
        ) {
            let half_micro = (half as f64 + 0.5) / 1e6;
            for x in [f64::from_bits(bits), dollars, half_micro] {
                if x.is_finite() {
                    prop_assert_eq!(Money::from_dollars(x).micros(), round_oracle(x * 1e6));
                }
            }
        }

        #[test]
        fn operators_saturate_to_the_exact_result(a in any::<i64>(), b in any::<i64>()) {
            let clamp = |x: i128| x.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
            let (wide_a, wide_b) = (i128::from(a), i128::from(b));
            let m = Money::from_micros(a);
            prop_assert_eq!((-m).micros(), clamp(-wide_a));
            prop_assert_eq!(m.abs().micros(), clamp(wide_a.abs()));
            prop_assert_eq!((m * b).micros(), clamp(wide_a * wide_b));
            let expected_div = if b == 0 { 0 } else { clamp(wide_a / wide_b) };
            prop_assert_eq!((m / b).micros(), expected_div);
            let mb = Money::from_micros(b);
            prop_assert_eq!((m + mb).micros(), clamp(wide_a + wide_b));
            prop_assert_eq!((m - mb).micros(), clamp(wide_a - wide_b));
        }
    }

    #[test]
    fn operators_saturate_at_the_extremes() {
        assert_eq!(-Money::MIN, Money::MAX);
        assert_eq!(-Money::MAX, Money::from_micros(-i64::MAX));
        assert_eq!(Money::MIN.abs(), Money::MAX);
        assert_eq!(Money::MAX * 2, Money::MAX);
        assert_eq!(Money::MIN * 2, Money::MIN);
        assert_eq!(Money::MIN * -1, Money::MAX);
        assert_eq!(Money::MIN / -1, Money::MAX);
        assert_eq!(Money::MAX / -1, Money::from_micros(-i64::MAX));
        // Reachable by saturating subtraction, then negated without panic.
        assert_eq!(-(Money::ZERO - Money::MAX - Money::MAX), Money::MAX);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(Money::from_dollars(3.5) / 0, Money::ZERO);
        assert_eq!(Money::MIN / 0, Money::ZERO);
        assert_eq!(Money::MAX / 0, Money::ZERO);
    }

    #[test]
    fn ratio_with_floor_guards_zero_reference() {
        let m = Money::from_dollars(2.0);
        let r = m.ratio_with_floor(Money::ZERO, 1e-9);
        assert!(r.is_finite());
        assert!(r > 0.0);
        assert_eq!(m.ratio_with_floor(Money::from_dollars(4.0), 1e-9), 0.5);
    }
}
