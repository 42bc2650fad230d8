//! Distribution samplers used by the trace generator.
//!
//! Implemented from scratch on top of `rand`'s uniform primitives so the
//! workspace keeps its dependency surface to the approved crate list
//! (`rand_distr` would otherwise be needed). All samplers are deterministic
//! given the caller's seeded RNG.

use rand::{Rng, RngExt};

/// Samples a standard normal deviate via the Box–Muller transform.
///
/// Uses the polar-free classic form; the second deviate of each pair is
/// intentionally discarded to keep the sampler stateless.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against u1 == 0.0 (ln(0) = -inf).
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `N(mean, sd^2)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    debug_assert!(sd >= 0.0, "standard deviation must be non-negative");
    mean + sd * standard_normal(rng)
}

/// Samples a log-normal deviate with **unit mean** and the given coefficient
/// of variation.
///
/// For `LogNormal(mu, sigma)`, the mean is `exp(mu + sigma^2/2)` and the CV is
/// `sqrt(exp(sigma^2) - 1)`. Solving for unit mean gives
/// `sigma^2 = ln(1 + cv^2)`, `mu = -sigma^2 / 2`. This is the multiplicative
/// noise kernel the generator uses to hit a target CV bucket.
pub fn unit_mean_lognormal<R: Rng + ?Sized>(rng: &mut R, cv: f64) -> f64 {
    debug_assert!(cv >= 0.0, "cv must be non-negative");
    if cv == 0.0 {
        return 1.0;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let sigma = sigma2.sqrt();
    (sigma * standard_normal(rng) - sigma2 / 2.0).exp()
}

/// Transforms a standard-normal deviate `z` into a unit-mean log-normal
/// factor with the given CV. Lets callers correlate the underlying Gaussian
/// (e.g. mix a deterministic seasonal component into `z`) while preserving
/// the mean/CV calibration of [`unit_mean_lognormal`].
#[must_use]
pub fn lognormal_factor_from_z(z: f64, cv: f64) -> f64 {
    if cv <= 0.0 {
        return 1.0;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let sigma = sigma2.sqrt();
    (sigma * z - sigma2 / 2.0).exp()
}

/// Samples `Poisson(lambda)`.
///
/// Uses Knuth's product-of-uniforms method for small `lambda` and a
/// normal approximation (continuity-corrected, clamped at zero) for large
/// `lambda`, where the exact method would need `O(lambda)` uniforms.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    poisson_with_limit(rng, lambda, || (-lambda).exp())
}

/// [`poisson`] with Knuth's limit `exp(-lambda)` supplied by `limit`, which
/// is called only when the product-of-uniforms method runs
/// (`0 < lambda < 30`). A `limit` that returns the value `(-lambda).exp()`
/// computed for the same `lambda` (say, from a cache) draws exactly what
/// [`poisson`] draws.
#[expect(
    clippy::cast_possible_truncation,
    reason = "positive floor of a normal sample; `as` saturates"
)]
pub fn poisson_with_limit<R: Rng + ?Sized>(
    rng: &mut R,
    lambda: f64,
    limit: impl FnOnce() -> f64,
) -> u64 {
    debug_assert!(lambda >= 0.0, "lambda must be non-negative");
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = limit();
        let mut product: f64 = rng.random();
        let mut count = 0u64;
        while product > limit {
            product *= rng.random::<f64>();
            count += 1;
        }
        count
    } else {
        let sample = normal(rng, lambda, lambda.sqrt()) + 0.5;
        if sample <= 0.0 {
            0
        } else {
            sample.floor() as u64
        }
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s`, built on a precomputed
/// cumulative table (exact inverse-CDF sampling, O(log n) per draw).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler. Panics if `n == 0` or `s < 0`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks in the support.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` if the support is empty (never, for constructed samplers).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Relative weight of rank `r` (0-based): `(r+1)^-s / H_n(s)`.
    #[must_use]
    pub fn weight(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Draws a 0-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Weighted index sampler over arbitrary non-negative weights
/// (inverse-CDF over a cumulative table).
#[derive(Clone, Debug)]
pub struct WeightedIndex {
    cdf: Vec<f64>,
}

impl WeightedIndex {
    /// Builds the sampler. Panics if `weights` is empty, contains a negative
    /// value, or sums to zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0, "weights must be non-negative");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        for v in &mut cdf {
            *v /= acc;
        }
        WeightedIndex { cdf }
    }

    /// Draws an index with probability proportional to its weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn mean_and_sd(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var.sqrt())
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng(1);
        let samples: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut r)).collect();
        let (mean, sd) = mean_and_sd(&samples);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((sd - 1.0).abs() < 0.02, "sd {sd}");
    }

    #[test]
    fn normal_respects_parameters() {
        let mut r = rng(2);
        let samples: Vec<f64> = (0..50_000).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let (mean, sd) = mean_and_sd(&samples);
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((sd - 2.0).abs() < 0.05, "sd {sd}");
    }

    #[test]
    fn unit_mean_lognormal_calibration() {
        for &cv in &[0.05, 0.2, 0.5, 1.0] {
            let mut r = rng(3);
            let samples: Vec<f64> = (0..100_000).map(|_| unit_mean_lognormal(&mut r, cv)).collect();
            let (mean, sd) = mean_and_sd(&samples);
            assert!((mean - 1.0).abs() < 0.03, "cv={cv} mean {mean}");
            let realized_cv = sd / mean;
            assert!(
                (realized_cv - cv).abs() < 0.1 * cv.max(0.05),
                "cv={cv} realized {realized_cv}"
            );
        }
    }

    #[test]
    fn lognormal_cv_zero_is_constant_one() {
        let mut r = rng(4);
        assert_eq!(unit_mean_lognormal(&mut r, 0.0), 1.0);
        assert_eq!(lognormal_factor_from_z(2.0, 0.0), 1.0);
    }

    #[test]
    fn lognormal_factor_matches_sampler_formula() {
        // Factor at z must equal the closed form used by the sampler.
        let cv = 0.4f64;
        let sigma2 = (1.0 + cv * cv).ln();
        let sigma = sigma2.sqrt();
        let z = 1.3;
        let expected = (sigma * z - sigma2 / 2.0).exp();
        assert!((lognormal_factor_from_z(z, cv) - expected).abs() < 1e-12);
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let mut r = rng(5);
        let lambda = 4.0;
        let samples: Vec<f64> = (0..50_000).map(|_| poisson(&mut r, lambda) as f64).collect();
        let (mean, sd) = mean_and_sd(&samples);
        assert!((mean - lambda).abs() < 0.1, "mean {mean}");
        assert!((sd * sd - lambda).abs() < 0.2, "var {}", sd * sd);
    }

    #[test]
    fn poisson_large_lambda_moments() {
        let mut r = rng(6);
        let lambda = 100.0;
        let samples: Vec<f64> = (0..50_000).map(|_| poisson(&mut r, lambda) as f64).collect();
        let (mean, sd) = mean_and_sd(&samples);
        assert!((mean - lambda).abs() < 1.0, "mean {mean}");
        assert!((sd * sd - lambda).abs() < 5.0, "var {}", sd * sd);
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut r = rng(7);
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn zipf_rank_frequencies_decrease() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng(8);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // Rank 0 must dominate rank 9 by roughly 10x for s = 1.
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!(ratio > 6.0 && ratio < 16.0, "ratio {ratio}");
    }

    #[test]
    fn zipf_weights_sum_to_one() {
        let z = Zipf::new(50, 0.8);
        let total: f64 = (0..50).map(|r| z.weight(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.len(), 50);
        assert!(!z.is_empty());
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.weight(r) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let w = WeightedIndex::new(&[1.0, 0.0, 3.0]);
        let mut r = rng(9);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[w.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn weighted_index_rejects_empty() {
        let _ = WeightedIndex::new(&[]);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn weighted_index_rejects_all_zero() {
        let _ = WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    fn samplers_are_deterministic_given_seed() {
        let draw = |seed| {
            let mut r = rng(seed);
            (standard_normal(&mut r), poisson(&mut r, 10.0), Zipf::new(10, 1.0).sample(&mut r))
        };
        assert_eq!(draw(42), draw(42));
    }
}
