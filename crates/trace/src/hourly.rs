//! Hourly resolution.
//!
//! The paper's source trace is *hourly* page views, re-binned to daily
//! counts because "the payment made to CSP is calculated by days" (§6.1).
//! This module provides the reverse step for the online tier: a
//! [`DiurnalProfile`] apportions one day's request total across 24 hours,
//! conserving it exactly for every `u64`, so `minicost-stream` can expand
//! a daily trace into the hourly request events a live ingestion tier
//! would observe, one (file, day) at a time.

use crate::sampling;
use rand::rngs::StdRng;
use std::cell::Cell;

/// Hours per day.
pub const HOURS: usize = 24;

/// A normalized diurnal profile: fraction of a day's requests per hour.
///
/// It carries a small cache of the Poisson limits its jittered
/// [`split_day`](DiurnalProfile::split_day) draws with. The cache never
/// changes a split, so profiles compare, and print, by their weights alone.
#[derive(Clone)]
pub struct DiurnalProfile {
    weights: [f64; HOURS],
    limits: LimitCache,
}

impl PartialEq for DiurnalProfile {
    fn eq(&self, other: &DiurnalProfile) -> bool {
        self.weights == other.weights
    }
}

impl std::fmt::Debug for DiurnalProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiurnalProfile").field("weights", &self.weights).finish_non_exhaustive()
    }
}

/// Rows in a [`LimitCache`]: 64 rows of 200 bytes, 12.5 KB per profile.
/// Sized by measurement on the 1000-file, 350-day serve benchmark trace
/// (2-vCPU Xeon): 256 rows expanded it about 2% faster, but the cache lives
/// inline, every move of a profile or a source copies it, and one serve
/// call's peak RSS rose by about 0.25 MB, against about 0.1 MB at 64 rows.
const LIMIT_ROWS: usize = 64;

/// Knuth's Poisson limits `exp(-(w_h * total))` of one profile, one row
/// per day total, direct-mapped by the total's low bits.
///
/// A day of `total` requests draws its 24 hours with means `w_h * total`,
/// and a trace has far fewer distinct day totals than draws, so nearly
/// every limit is one already computed. A cached limit is the value the
/// same expression gave for the same `f64` argument, so every draw is
/// bit-identical to computing it afresh. Limits fill lazily (0 marks one
/// not yet computed: `exp(-lambda)` is at least `exp(-30)` wherever Knuth's
/// method runs), so hours whose mean takes the normal approximation never
/// pay for one. A row that another total claims forgets its limits.
///
/// The rows are `Cell`s, so `split_day` stays a `&self` method; they live
/// inline, so building a profile allocates nothing.
#[derive(Clone)]
struct LimitCache {
    rows: [LimitRow; LIMIT_ROWS],
}

/// One day total's limits. Total 0 with no limits is a valid row: every
/// mean of an empty day is 0 and draws no limit.
#[derive(Clone, Default)]
struct LimitRow {
    total: Cell<u64>,
    limits: [Cell<f64>; HOURS],
}

impl LimitCache {
    /// A cache with every row empty.
    fn cold() -> LimitCache {
        LimitCache { rows: std::array::from_fn(|_| LimitRow::default()) }
    }

    /// The limits row of `total`, claimed for it if it held another total.
    /// Any row would be correct, since a row answers only for the total it
    /// holds; the spare merely keeps the lookup free of a panic path.
    fn claim(&self, total: u64) -> &[Cell<f64>; HOURS] {
        let [spare, ..] = &self.rows;
        let slot = usize::try_from(total & (LIMIT_ROWS as u64 - 1)).unwrap_or(0);
        let row = self.rows.get(slot).unwrap_or(spare);
        if row.total.get() != total {
            // `Cell::set` as a path: xtask's call graph joins every `.set(`
            // call to `nn::Matrix::set`.
            Cell::set(&row.total, total);
            for limit in &row.limits {
                Cell::set(limit, 0.0);
            }
        }
        &row.limits
    }
}

/// `exp(-lambda)` through `cell`, the cache cell of an hour whose mean is
/// `lambda`: computed and kept on first use.
fn cached_limit(cell: &Cell<f64>, lambda: f64) -> f64 {
    if cell.get() > 0.0 {
        return cell.get();
    }
    let limit = (-lambda).exp();
    Cell::set(cell, limit);
    limit
}

impl DiurnalProfile {
    /// Builds a profile from relative hourly weights (normalized
    /// internally). Panics if any weight is negative or all are zero.
    #[must_use]
    pub fn new(raw: [f64; HOURS]) -> DiurnalProfile {
        assert!(raw.iter().all(|&w| w >= 0.0), "weights must be non-negative");
        let total: f64 = raw.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut weights = raw;
        for w in &mut weights {
            *w /= total;
        }
        DiurnalProfile { weights, limits: LimitCache::cold() }
    }

    /// Flat profile: every hour carries 1/24 of the day.
    #[must_use]
    pub fn flat() -> DiurnalProfile {
        DiurnalProfile { weights: [1.0 / HOURS as f64; HOURS], limits: LimitCache::cold() }
    }

    /// A web-traffic-like profile: a broad daytime plateau peaking in the
    /// evening, a deep night trough (single-sinusoid approximation of
    /// published Wikipedia load curves).
    #[must_use]
    pub fn web_default() -> DiurnalProfile {
        let mut raw = [0.0; HOURS];
        for (hour, w) in raw.iter_mut().enumerate() {
            // Peak at 20:00, trough at 08:00 shifted-phase sinusoid.
            let phase = std::f64::consts::TAU * (hour as f64 - 20.0) / HOURS as f64;
            *w = 1.0 + 0.75 * phase.cos();
        }
        DiurnalProfile::new(raw)
    }

    /// Fraction of daily traffic in hour `h`.
    #[must_use]
    pub fn weight(&self, hour: usize) -> f64 {
        self.weights[hour]
    }

    /// Splits `total` daily requests into 24 hourly counts that sum exactly
    /// to `total`, for every `u64`: largest-remainder apportionment of the
    /// expected values, ties toward the earlier hour, with optional Poisson
    /// jitter from `rng`.
    ///
    /// Allocation-free: every scratch table is a fixed-size array, so the
    /// per-day expansion loop of `minicost-stream` never touches the heap.
    #[must_use]
    pub fn split_day(&self, total: u64, jitter: Option<&mut StdRng>) -> [u64; HOURS] {
        if total == 0 {
            return [0; HOURS];
        }
        apportion(total, &self.expected(total, jitter))
    }

    /// Expected per-hour counts for a day of `total` requests, optionally
    /// Poisson-jittered and rescaled back to `total`.
    fn expected(&self, total: u64, jitter: Option<&mut StdRng>) -> [f64; HOURS] {
        let mut expected = [0.0f64; HOURS];
        for (e, &w) in expected.iter_mut().zip(&self.weights) {
            *e = w * total as f64;
        }
        if let Some(rng) = jitter {
            for (e, cell) in expected.iter_mut().zip(self.limits.claim(total)) {
                let lambda = *e;
                *e =
                    sampling::poisson_with_limit(rng, lambda, || cached_limit(cell, lambda)) as f64;
            }
            let sum: f64 = expected.iter().sum();
            if sum > 0.0 {
                let scale = total as f64 / sum;
                for e in &mut expected {
                    *e *= scale;
                }
            } else {
                for (e, &w) in expected.iter_mut().zip(&self.weights) {
                    *e = w * total as f64;
                }
            }
        }
        expected
    }
}

/// `HOURS` as the width [`apportion`] counts in.
const HOURS_WIDE: u128 = HOURS as u128;

/// 2^52: from here on every `f64` is an integer, and below it truncation
/// through an integer is exact.
const EXACT_INTEGERS: f64 = 4_503_599_627_370_496.0;

/// `x.floor()`, bit for bit, without the libm call `f64::floor` compiles
/// to on x86-64 baselines lacking SSE4.1. A positive `x` below 2^52
/// truncates exactly through `i64`, and truncation is its floor. Every
/// other input, the zeros included, takes `f64::floor`: truncating `-0.0`
/// would give `+0.0`, and its remainder `-0.0`, which ranks below `+0.0`
/// in [`total_order_key`].
#[expect(clippy::cast_possible_truncation, reason = "0 < x < 2^52, so x truncates exactly")]
#[inline]
fn floor(x: f64) -> f64 {
    if x > 0.0 && x < EXACT_INTEGERS {
        (x as i64) as f64
    } else {
        x.floor()
    }
}

/// Largest-remainder apportionment of `total` over `expected`: floor every
/// hour, then hand the leftover units to the hours with the largest
/// fractional remainders, ties toward the earlier hour. The floors need
/// no libm call ([`floor`]).
///
/// The order `(remainder desc, hour asc)` is total, so [`pick_largest`]'s
/// maximum scans choose exactly the set a stable sort of all 24 would.
///
/// The floors normally fall short of `total` by at most one unit per hour.
/// As totals approach 2^53 and beyond, f64 rounding can make them overshoot
/// `total`, or fall short by more. Whole rounds of a shortfall go to every
/// hour, and an overshoot is taken back from the largest hours, so the
/// result sums to `total` for every `u64`. Wherever the floors fall short
/// by at most 24, the output is the plain largest-remainder split.
#[expect(
    clippy::cast_possible_truncation,
    reason = "floors of non-negative hour shares of a u64 total, a round of at most `total`, \
              and fewer than 24 picks"
)]
fn apportion(total: u64, expected: &[f64; HOURS]) -> [u64; HOURS] {
    let mut out = [0u64; HOURS];
    let mut remainders = [0.0f64; HOURS];
    for ((o, r), &e) in out.iter_mut().zip(&mut remainders).zip(expected) {
        let floor = floor(e);
        *o = floor as u64;
        *r = e - floor;
    }
    let assigned: u128 = out.iter().map(|&c| u128::from(c)).sum();
    let total = u128::from(total);
    if assigned > total {
        give_back(&mut out, assigned - total);
        return out;
    }
    let leftover = total - assigned;
    // `leftover <= total`, so a round fits in u64 and no hour overflows.
    let rounds = (leftover / HOURS_WIDE) as u64;
    for o in &mut out {
        *o += rounds;
    }
    let picks = (leftover - u128::from(rounds) * HOURS_WIDE) as usize;
    if picks > 0 {
        pick_largest(&mut out, &remainders, picks);
    }
    out
}

/// Adds one unit to each of the `picks` hours first in the order
/// `(remainder desc, hour asc)`, by `picks` rounds of a branch-free
/// maximum scan over [`total_order_key`]s: the strict `>` keeps the
/// earliest hour on ties, and a picked hour's key drops to `i64::MIN`,
/// below every real remainder's, so no hour is picked twice.
fn pick_largest(out: &mut [u64; HOURS], remainders: &[f64; HOURS], picks: usize) {
    let mut keys = remainders.map(total_order_key);
    for _ in 0..picks {
        let (mut best, mut best_h) = (i64::MIN, 0);
        for (h, &key) in keys.iter().enumerate() {
            let above = key > best;
            best = if above { key } else { best };
            best_h = if above { h } else { best_h };
        }
        if let (Some(o), Some(key)) = (out.get_mut(best_h), keys.get_mut(best_h)) {
            *o += 1;
            *key = i64::MIN;
        }
    }
}

/// The integer `f64::total_cmp` orders by (its own bit trick): comparing
/// keys is comparing the floats, without the per-comparison branch.
#[expect(clippy::cast_possible_wrap, reason = "reinterprets the float's bits, as total_cmp does")]
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Takes `excess` units back from `out`, always from the largest hour
/// (the earliest on ties). Terminates: `Σ out - excess` stays equal to the
/// target total, so while `excess > 0` the largest hour is non-zero and
/// each step either clears the excess or empties an hour.
#[expect(clippy::cast_possible_truncation, reason = "`take <= *top`, so it fits in u64")]
fn give_back(out: &mut [u64; HOURS], mut excess: u128) {
    while excess > 0 {
        let Some(top) = out.iter_mut().reduce(|top, next| if *next > *top { next } else { top })
        else {
            return;
        };
        let take = excess.min(u128::from(*top));
        // `take <= *top`, so it fits in u64.
        *top -= take as u64;
        excess -= take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn profiles_are_normalized() {
        for profile in [DiurnalProfile::flat(), DiurnalProfile::web_default()] {
            let total: f64 = (0..HOURS).map(|h| profile.weight(h)).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn web_profile_peaks_in_the_evening() {
        let p = DiurnalProfile::web_default();
        assert!(p.weight(20) > p.weight(8), "evening must out-weigh morning trough");
    }

    #[test]
    fn split_day_conserves_the_total_exactly() {
        let p = DiurnalProfile::web_default();
        for &total in &[0u64, 1, 23, 24, 1000, 999_983] {
            let hours = p.split_day(total, None);
            assert_eq!(hours.iter().sum::<u64>(), total, "total {total}");
        }
        // With jitter too.
        let mut rng = StdRng::seed_from_u64(1);
        let hours = p.split_day(5000, Some(&mut rng));
        assert_eq!(hours.iter().sum::<u64>(), 5000);
    }

    #[test]
    fn split_day_ties_break_toward_earlier_hours() {
        // A flat profile with a non-multiple total leaves equal remainders
        // everywhere; the leftover units must land on the earliest hours.
        let p = DiurnalProfile::flat();
        let hours = p.split_day(25, None);
        assert_eq!(hours[0], 2);
        assert!(hours[1..].iter().all(|&h| h == 1));
    }

    /// Splitmix64 finalizer: spreads test totals over every magnitude.
    fn mix(mut x: u64) -> u64 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    #[test]
    fn split_day_output_is_pinned_below_2_pow_53() {
        // FNV-1a over 16 000 splits (flat and web, with and without jitter)
        // of totals spread over 0..2^53, recorded with the sort-based
        // largest-remainder pass: the selection loop and the conservation
        // fix must not move a single hour wherever the old pass conserved.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (pi, p) in [DiurnalProfile::flat(), DiurnalProfile::web_default()].iter().enumerate() {
            for k in 0..4000u64 {
                let total = mix(k ^ (pi as u64) << 40) >> (k % 53 + 11);
                let mut rng = StdRng::seed_from_u64(k);
                for hours in [p.split_day(total, None), p.split_day(total, Some(&mut rng))] {
                    for b in hours.iter().flat_map(|v| v.to_le_bytes()) {
                        h ^= u64::from(b);
                        h = h.wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
            }
        }
        assert_eq!(h, 0xf1e3_59ae_a967_748b);
    }

    /// Sums as u128, so an over-allocation cannot wrap back to `total`.
    fn wide_sum(hours: &[u64; HOURS]) -> u128 {
        hours.iter().map(|&c| u128::from(c)).sum()
    }

    #[test]
    fn split_day_conserves_huge_totals() {
        for p in [DiurnalProfile::flat(), DiurnalProfile::web_default()] {
            for total in [u64::MAX, u64::MAX - 1, 100_000_000_000_007_919, (1 << 53) + 1] {
                assert_eq!(wide_sum(&p.split_day(total, None)), u128::from(total), "{total}");
                let mut rng = StdRng::seed_from_u64(total);
                let jittered = p.split_day(total, Some(&mut rng));
                assert_eq!(wide_sum(&jittered), u128::from(total), "{total} jittered");
            }
        }
        // A single-hour profile puts the whole day, saturating floor and
        // all, into that hour.
        let mut raw = [0.0; HOURS];
        raw[5] = 1.0;
        let spike = DiurnalProfile::new(raw);
        assert_eq!(spike.split_day(u64::MAX, None)[5], u64::MAX);
    }

    /// The sort-based largest-remainder pass `apportion` replaced, kept as
    /// the oracle. `None` where it did not conserve `total` (floors summing
    /// past it, or short of it by more than one unit per hour).
    fn sort_oracle(total: u64, expected: &[f64; HOURS]) -> Option<[u64; HOURS]> {
        let mut out = [0u64; HOURS];
        let mut assigned = 0u64;
        let mut remainders = [(0usize, 0.0f64); HOURS];
        for (h, &e) in expected.iter().enumerate() {
            let floor = e.floor() as u64;
            out[h] = floor;
            assigned = assigned.checked_add(floor)?;
            remainders[h] = (h, e - e.floor());
        }
        remainders.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut leftover = total.checked_sub(assigned)?;
        if leftover > HOURS as u64 {
            return None;
        }
        for (h, _) in remainders {
            if leftover == 0 {
                break;
            }
            out[h] += 1;
            leftover -= 1;
        }
        Some(out)
    }

    /// The jittered split with no limit cache: every Knuth draw computes
    /// its own `exp(-lambda)` through `sampling::poisson`.
    fn uncached_split(p: &DiurnalProfile, total: u64, rng: &mut StdRng) -> [u64; HOURS] {
        if total == 0 {
            return [0; HOURS];
        }
        let means = p.weights.map(|w| w * total as f64);
        let mut expected = means.map(|lambda| sampling::poisson(rng, lambda) as f64);
        let sum: f64 = expected.iter().sum();
        if sum > 0.0 {
            let scale = total as f64 / sum;
            for e in &mut expected {
                *e *= scale;
            }
        } else {
            expected = means;
        }
        apportion(total, &expected)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One profile splits a run of day totals `base + j * LIMIT_ROWS`,
        /// which all share one cache row, so rows are claimed, evicted and
        /// hit again; the larger ones put some hours' means past the
        /// normal-approximation cutoff of 30. Every split, and the RNG state
        /// it leaves, equals the uncached draw's.
        #[test]
        fn split_day_through_a_colliding_limit_cache_matches_uncached_draws(
            web in any::<bool>(),
            base in 0u64..LIMIT_ROWS as u64,
            days in proptest::collection::vec((0u64..16, any::<u64>()), 1..48),
        ) {
            let p = if web { DiurnalProfile::web_default() } else { DiurnalProfile::flat() };
            for (j, seed) in days {
                let total = base + j * LIMIT_ROWS as u64;
                let mut cached = StdRng::seed_from_u64(seed);
                let mut plain = StdRng::seed_from_u64(seed);
                let split = p.split_day(total, Some(&mut cached));
                prop_assert_eq!(split, uncached_split(&p, total, &mut plain), "total {}", total);
                prop_assert_eq!(cached.next_u64(), plain.next_u64(), "draws for total {}", total);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every `u64` total, shifted so each magnitude is drawn, splits
        /// into hours summing to exactly that total, with and without
        /// jitter.
        #[test]
        fn split_day_conserves_every_u64_total(
            raw in any::<u64>(),
            shift in 0u32..64,
            web in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let total = raw >> shift;
            let p = if web { DiurnalProfile::web_default() } else { DiurnalProfile::flat() };
            prop_assert_eq!(wide_sum(&p.split_day(total, None)), u128::from(total));
            let mut rng = StdRng::seed_from_u64(seed);
            prop_assert_eq!(wide_sum(&p.split_day(total, Some(&mut rng))), u128::from(total));
        }

        #[test]
        fn fast_floor_matches_libm_floor_on_any_bit_pattern(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(floor(x).to_bits(), x.floor().to_bits(), "floor({:e})", x);
        }

        /// Profiles with `-0.0` weights split every total, with and without
        /// jitter, exactly as the libm floor did.
        #[test]
        fn split_day_with_signed_zero_weights_matches_the_libm_floor(
            raw in any::<u64>(),
            shift in 0u32..64,
            zeros in 0u32..1 << 23,
            seed in proptest::option::of(any::<u64>()),
        ) {
            let total = raw >> shift;
            let p = signed_zero_profile(zeros);
            let mut split_rng = seed.map(StdRng::seed_from_u64);
            let mut oracle_rng = seed.map(StdRng::seed_from_u64);
            let split = p.split_day(total, split_rng.as_mut());
            let oracle = if total == 0 {
                [0; HOURS]
            } else {
                libm_apportion(total, &p.expected(total, oracle_rng.as_mut()))
            };
            prop_assert_eq!(split, oracle, "total {}", total);
        }

        /// The selection loop equals the sort oracle on real profiles,
        /// flat-profile ties included, wherever the oracle conserves.
        #[test]
        fn split_day_selection_matches_the_sort_oracle(
            raw in any::<u64>(),
            shift in 0u32..64,
            web in any::<bool>(),
            seed in proptest::option::of(any::<u64>()),
        ) {
            let total = raw >> shift;
            let p = if web { DiurnalProfile::web_default() } else { DiurnalProfile::flat() };
            let mut rng = seed.map(StdRng::seed_from_u64);
            let expected = p.expected(total, rng.as_mut());
            if let Some(oracle) = sort_oracle(total, &expected) {
                prop_assert_eq!(apportion(total, &expected), oracle);
            }
        }

        /// ... and on synthetic expectations built from quarter-unit
        /// remainders, where most hours tie with several others.
        #[test]
        fn split_day_selection_matches_the_sort_oracle_on_ties(
            parts in proptest::collection::vec((0u64..1000, 0u64..4), 24),
            leftover in 0u64..=24,
        ) {
            let mut expected = [0.0f64; HOURS];
            let mut floors = 0u64;
            for (e, &(whole, quarters)) in expected.iter_mut().zip(&parts) {
                *e = whole as f64 + quarters as f64 * 0.25;
                floors += whole;
            }
            let total = floors + leftover;
            let oracle = sort_oracle(total, &expected);
            prop_assert!(oracle.is_some());
            prop_assert_eq!(Some(apportion(total, &expected)), oracle);
        }
    }

    /// Inputs at every boundary of [`floor`]: signed zeros, subnormals,
    /// values just below and above one, the `2^52` switch-over and its
    /// neighbours, `2^53`, negatives, infinities and NaN.
    const FLOOR_EDGES: [f64; 26] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::EPSILON,
        0.999_999_999_999_999_9,
        1.0,
        1.5,
        -1.5,
        4_503_599_627_370_495.0,
        4_503_599_627_370_495.5,
        4_503_599_627_370_496.0,
        4_503_599_627_370_497.0,
        -4_503_599_627_370_495.5,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        u64::MAX as f64,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    #[test]
    fn fast_floor_matches_libm_floor_on_edge_cases() {
        for x in FLOOR_EDGES {
            assert_eq!(floor(x).to_bits(), x.floor().to_bits(), "floor({x:e})");
        }
    }

    /// [`apportion`] as it was with the libm floor, kept as the oracle of
    /// the libm-free one.
    fn libm_apportion(total: u64, expected: &[f64; HOURS]) -> [u64; HOURS] {
        let mut out = [0u64; HOURS];
        let mut remainders = [0.0f64; HOURS];
        for ((o, r), &e) in out.iter_mut().zip(&mut remainders).zip(expected) {
            let floor = e.floor();
            *o = floor as u64;
            *r = e - floor;
        }
        let assigned: u128 = out.iter().map(|&c| u128::from(c)).sum();
        let total = u128::from(total);
        if assigned > total {
            give_back(&mut out, assigned - total);
            return out;
        }
        let leftover = total - assigned;
        let rounds = (leftover / HOURS_WIDE) as u64;
        for o in &mut out {
            *o += rounds;
        }
        let picks = (leftover - u128::from(rounds) * HOURS_WIDE) as usize;
        if picks > 0 {
            pick_largest(&mut out, &remainders, picks);
        }
        out
    }

    /// A profile whose hours `zeros` carry a weight of `-0.0` (which
    /// `DiurnalProfile::new` accepts), the others `1 + h % 3`.
    fn signed_zero_profile(zeros: u32) -> DiurnalProfile {
        let mut raw = [0.0; HOURS];
        for (h, w) in raw.iter_mut().enumerate() {
            *w = if zeros >> h & 1 == 1 { -0.0 } else { 1.0 + (h % 3) as f64 };
        }
        DiurnalProfile::new(raw)
    }

    #[test]
    fn split_day_keeps_signed_zero_weights_tied_with_whole_hours() {
        // Hour 0 weighs -0.0, so its expected count is -0.0; past 2^53 every
        // other hour's remainder is +0.0 too, and the leftover picks go to
        // the earliest zero-remainder hours, hour 0 first. A floor that
        // turned -0.0 into +0.0 would leave the remainder -0.0 and skip it.
        let p = signed_zero_profile(1);
        for total in [u64::MAX, u64::MAX >> 7, (1 << 60) + 12_345] {
            let expected = p.expected(total, None);
            assert_eq!(expected[0].to_bits(), (-0.0f64).to_bits());
            assert_eq!(p.split_day(total, None), libm_apportion(total, &expected), "{total}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let mut raw = [1.0; HOURS];
        raw[3] = -0.1;
        let _ = DiurnalProfile::new(raw);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn zero_profile_rejected() {
        let _ = DiurnalProfile::new([0.0; HOURS]);
    }
}
