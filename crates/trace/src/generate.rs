//! The synthetic trace generator.
//!
//! Per-file model:
//!
//! ```text
//! reads_i(t) = round( base_i * factor_i(t) )
//! factor_i(t) = unit-mean log-normal( z_i(t), cv_i )
//! z_i(t) = w * season(t, phase_i) + sqrt(1 - w^2) * g_i(t)
//! ```
//!
//! * `base_i` — mean daily reads, Zipf-distributed across files between the
//!   configured floor and peak.
//! * `cv_i` — target coefficient of variation, drawn uniformly inside the
//!   file's assigned Fig. 2 bucket range.
//! * `season` — a unit-variance 7-day sinusoid (the paper cites weekly
//!   request cycles, §3.1) with a per-file phase.
//! * `g_i(t)` — i.i.d. standard normal noise; `w^2` is the configured
//!   seasonal share of the variability budget.
//!
//! The log-normal kernel keeps factors positive and unit-mean, so the
//! realized per-file CV lands close to `cv_i` and the realized bucket
//! histogram reproduces the paper's Fig. 2 mix.

use crate::config::{TraceConfig, BUCKET_CV_RANGES};
use crate::file::{FileId, FileSeries};
use crate::sampling;
use crate::workload::Trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Weekly period in days (§3.1: "the cycle time of the request frequencies
/// for each data file is around one week").
const WEEK: f64 = 7.0;

/// Viral-event model for the `>0.8` bucket: these are the paper's
/// "non-stationary" files — pages that rest at modest traffic and then
/// spike by an order of magnitude when an external event hits (the cost
/// behaviour Fig. 3 attributes the largest per-file savings to). A plain
/// log-normal factor cannot produce that shape: its tail at CV ≈ 1.6 only
/// reaches ~7x the mean.
mod viral {
    /// Probability an event starts on a quiet day.
    pub const START_PROB: f64 = 0.03;
    /// Event duration range in days (inclusive).
    pub const DURATION: std::ops::RangeInclusive<usize> = 2..=4;
    /// Event traffic multiplier range (log-uniform). Viral events on
    /// otherwise-quiet pages reach several orders of magnitude (a dormant
    /// article hitting the news), which is where tier switching pays the
    /// most (Fig. 3's right-most bar).
    pub const FACTOR: (f64, f64) = (50.0, 2000.0);
    /// Residual day-to-day CV between events.
    pub const REST_CV: f64 = 0.3;
    /// Resting traffic band: viral pages idle at modest-but-nonzero
    /// traffic, then spike orders of magnitude above it.
    pub const REST_BAND: (f64, f64) = (3.0, 40.0);
}

/// Generates a trace from `config`. Panics on invalid configuration.
#[must_use]
pub fn generate(config: &TraceConfig) -> Trace {
    // Documented contract: callers must validate their config first.
    #[expect(clippy::panic, reason = "documented fail-fast contract")]
    if let Err(e) = config.validate() {
        panic!("invalid TraceConfig: {e}");
    }
    let mut rng = StdRng::seed_from_u64(config.seed);

    let buckets = assign_buckets(config.files, &config.bucket_mix, &mut rng);

    let mut files = Vec::with_capacity(config.files);
    for i in 0..config.files {
        // Log-normal popularity: log10(base) ~ N(log10(median), sigma^2),
        // clipped to the configured floor/ceiling. This reproduces the full
        // traffic dynamic range of a subsampled page-view crawl at any
        // sample size (a finite Zipf rank list would compress the tail).
        let z = sampling::standard_normal(&mut rng);
        let median = config.median_daily_reads * config.bucket_popularity_boost[buckets[i]];
        let log10_base = median.log10() + config.popularity_sigma * z;
        let base = 10f64.powf(log10_base).clamp(config.min_daily_reads, config.peak_daily_reads);

        let (cv_lo, cv_hi) = BUCKET_CV_RANGES[buckets[i]];
        let target_cv = rng.random_range(cv_lo..cv_hi);

        // Integer rounding of daily counts adds ~Uniform(-0.5, 0.5) noise,
        // i.e. a CV contribution of sqrt(1/12)/base. Quiet files assigned
        // to a low-CV bucket could not express their target through integer
        // counts, so (a) bucket-0 files below the floor become constant
        // series (CV exactly 0, still bucket 0), and (b) files in higher
        // buckets get their traffic floor raised until the target is
        // expressible — bursty pages being the better-trafficked ones is
        // consistent with the underlying page-view data.
        const ROUNDING_SD: f64 = 0.288_675_134_594_812_9; // sqrt(1/12)
        let (base, constant_series) = if buckets[i] == 0 {
            (base, ROUNDING_SD / base > target_cv)
        } else {
            (base.max(2.0 * ROUNDING_SD / target_cv), false)
        };

        let phase: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let w = config.seasonal_share.sqrt();
        let noise_w = (1.0 - config.seasonal_share).sqrt();
        // Intrinsic CV after budgeting for the rounding contribution.
        let cv = (target_cv * target_cv - (ROUNDING_SD / base).powi(2)).max(0.0).sqrt();

        let viral_file = buckets[i] == 4;
        let base =
            if viral_file { base.clamp(viral::REST_BAND.0, viral::REST_BAND.1) } else { base };
        let mut event_days_left = 0usize;
        let mut event_factor = 1.0f64;
        let mut reads = Vec::with_capacity(config.days);
        let mut writes = Vec::with_capacity(config.days);
        for t in 0..config.days {
            let expected = if constant_series {
                base
            } else if viral_file {
                // Event process: rest at `base` with mild noise, spike by
                // 15-60x for a few days when an event fires. Realized CV
                // lands well above 0.8 (the bucket is open-ended).
                if event_days_left == 0 && rng.random::<f64>() < viral::START_PROB {
                    event_days_left = rng.random_range(viral::DURATION);
                    let (lo, hi) = viral::FACTOR;
                    event_factor = lo * (hi / lo).powf(rng.random::<f64>());
                }
                let factor = if event_days_left > 0 {
                    event_days_left -= 1;
                    event_factor
                } else {
                    sampling::unit_mean_lognormal(&mut rng, viral::REST_CV)
                };
                base * factor
            } else {
                let season = std::f64::consts::SQRT_2
                    * (std::f64::consts::TAU * t as f64 / WEEK + phase).sin();
                let z = w * season + noise_w * sampling::standard_normal(&mut rng);
                base * sampling::lognormal_factor_from_z(z, cv)
            };
            #[expect(
                clippy::cast_possible_truncation,
                reason = "non-negative rounded count; `as` saturates"
            )]
            let r = if config.poisson_counts {
                sampling::poisson(&mut rng, expected)
            } else {
                expected.round() as u64
            };
            reads.push(r);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "non-negative rounded count; `as` saturates"
            )]
            writes.push((r as f64 * config.write_ratio).round() as u64);
        }

        let size_mb = sampling::poisson(&mut rng, config.mean_size_mb).max(1);
        files.push(FileSeries {
            id: FileId::from_index(i),
            size_gb: size_mb as f64 / 1024.0,
            reads,
            writes,
        });
    }

    Trace { days: config.days, files }
}

/// Assigns each file a CV bucket so that bucket counts match `mix` exactly
/// (largest-remainder apportionment), then shuffles the assignment.
fn assign_buckets(files: usize, mix: &[f64; 5], rng: &mut StdRng) -> Vec<usize> {
    let mut counts = [0usize; 5];
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(5);
    let mut assigned = 0usize;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "mix shares are at most 1, so each floor is at most `files`"
    )]
    for (b, &p) in mix.iter().enumerate() {
        let exact = p * files as f64;
        counts[b] = exact.floor() as usize;
        assigned += counts[b];
        remainders.push((b, exact - exact.floor()));
    }
    // Distribute leftovers to the buckets with the largest remainders.
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut leftover = files - assigned;
    for (b, _) in remainders {
        if leftover == 0 {
            break;
        }
        counts[b] += 1;
        leftover -= 1;
    }
    let mut assignment = Vec::with_capacity(files);
    for (b, &c) in counts.iter().enumerate() {
        assignment.extend(std::iter::repeat_n(b, c));
    }
    assignment.shuffle(rng);
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn generation_is_deterministic() {
        let cfg = TraceConfig::small(200, 21, 11);
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TraceConfig::small(50, 14, 1));
        let b = generate(&TraceConfig::small(50, 14, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn shapes_match_config() {
        let cfg = TraceConfig::small(37, 9, 3);
        let t = generate(&cfg);
        assert_eq!(t.files.len(), 37);
        assert_eq!(t.days, 9);
        for (i, f) in t.files.iter().enumerate() {
            assert_eq!(f.id.index(), i);
            assert_eq!(f.reads.len(), 9);
            assert_eq!(f.writes.len(), 9);
            assert!(f.size_gb > 0.0);
        }
    }

    #[test]
    fn sizes_average_near_configured_mean() {
        let cfg = TraceConfig::small(3000, 2, 4);
        let t = generate(&cfg);
        let mean_mb =
            t.files.iter().map(|f| f.size_gb * 1024.0).sum::<f64>() / t.files.len() as f64;
        assert!((mean_mb - cfg.mean_size_mb).abs() < 2.0, "mean size {mean_mb} MB");
    }

    #[test]
    fn writes_follow_write_ratio() {
        let cfg = TraceConfig::small(300, 14, 5);
        let t = generate(&cfg);
        let reads: u64 = t.total_reads();
        let writes: u64 = t.files.iter().map(|f| f.writes.iter().sum::<u64>()).sum();
        let ratio = writes as f64 / reads as f64;
        // Rounding to integers biases small counts; allow slack.
        assert!((ratio - cfg.write_ratio).abs() < cfg.write_ratio, "write ratio {ratio}");
    }

    #[test]
    fn bucket_histogram_matches_paper_mix() {
        // The headline calibration claim: realized CV buckets reproduce
        // Fig. 2 within a few percentage points.
        let cfg = TraceConfig::small(4000, 63, 6);
        let t = generate(&cfg);
        let hist = analysis::bucket_histogram(&t);
        let fractions = hist.fractions();
        for (b, (&got, &want)) in fractions.iter().zip(cfg.bucket_mix.iter()).enumerate() {
            assert!((got - want).abs() < 0.04, "bucket {b}: got {got:.4}, paper {want:.4}");
        }
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let cfg = TraceConfig::small(1000, 7, 7);
        let t = generate(&cfg);
        let mut means: Vec<f64> = t.files.iter().map(|f| f.mean_reads()).collect();
        means.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Top file dominates the median file by a wide margin under Zipf.
        assert!(means[0] > 20.0 * means[500], "top {} median {}", means[0], means[500]);
    }

    #[test]
    fn poisson_counts_mode_still_produces_valid_series() {
        let cfg = TraceConfig { poisson_counts: true, ..TraceConfig::small(100, 14, 8) };
        let t = generate(&cfg);
        assert_eq!(t.files.len(), 100);
        assert!(t.total_reads() > 0);
    }

    #[test]
    fn bucket_assignment_counts_are_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let mix = [0.5, 0.2, 0.15, 0.1, 0.05];
        let assignment = assign_buckets(1000, &mix, &mut rng);
        let mut counts = [0usize; 5];
        for b in assignment {
            counts[b] += 1;
        }
        assert_eq!(counts, [500, 200, 150, 100, 50]);
    }

    #[test]
    fn bucket_assignment_handles_remainders() {
        let mut rng = StdRng::seed_from_u64(2);
        let mix = [0.8175, 0.0993, 0.0539, 0.023, 0.0063];
        let assignment = assign_buckets(997, &mix, &mut rng);
        assert_eq!(assignment.len(), 997);
        let mut counts = [0usize; 5];
        for b in assignment {
            counts[b] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 997);
        // Every bucket got at least its floor.
        for (b, &c) in counts.iter().enumerate() {
            assert!(c >= (mix[b] * 997.0).floor() as usize, "bucket {b} count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid TraceConfig")]
    fn invalid_config_panics() {
        let _ = generate(&TraceConfig { files: 0, ..TraceConfig::default() });
    }
}
