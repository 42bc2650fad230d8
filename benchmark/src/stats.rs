//! Sample statistics and the comparison rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so spreads computed here match the ones a
//! Python checker computes from the same values.

/// Median, as Python's `statistics.median` (mean of the middle pair for an
/// even count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` by the exclusive method; a single sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let x = data.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentiles a tail is reported at, highest first (tenths of a percent).
const TAIL_CANDIDATES: [u64; 5] = [999, 990, 950, 900, 500];

/// The highest percentile in {99.9, 99, 95, 90, 50} that leaves at least
/// ten of `n` samples beyond its nearest-rank value.
pub fn tail_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    TAIL_CANDIDATES.iter().find(|&&p| n - nearest_rank_index(n, p) >= 10).map(|&p| p as f64 / 10.0)
}

/// 1-based nearest rank `ceil(p/100 * n)` with `p` in tenths of a percent.
fn nearest_rank_index(n: u64, p_tenths: u64) -> u64 {
    (p_tenths * n).div_ceil(1000).max(1).min(n)
}

/// The nearest-rank percentile `p` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let data = sorted(values);
    if data.is_empty() {
        return f64::NAN;
    }
    let rank = nearest_rank_index(data.len() as u64, (p * 10.0).round() as u64);
    data[rank as usize - 1]
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses the `BENCHMARK.json` spelling.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Outcome of comparing a parent's runs with a change's runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of ≥ 10 pairs and the medians differ by more
    /// than the parent's interquartile range.
    Improved,
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// Within the bound.
    Unchanged,
    /// Within the bound, but the parent's own spread exceeds the bound, so
    /// "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs a change needs before it may be called an improvement.
pub const MIN_PAIRS: usize = 10;

/// One (workload, metric) comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Comparison {
    /// Parent quartiles.
    pub base: (f64, f64, f64),
    /// Change quartiles.
    pub new: (f64, f64, f64),
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    /// Pairs compared: run `i` of the parent against run `i` of the change.
    pub pairs: usize,
    /// The call.
    pub verdict: Verdict,
}

/// Applies the comparison rule to one metric: `base` and `new` hold one
/// value per run, `bound` is the share of the parent's median the change
/// may lose before it counts as a regression.
pub fn compare(base: &[f64], new: &[f64], better: Better, bound: f64) -> Comparison {
    let pairs = base.len().min(new.len());
    let wins = base.iter().zip(new).filter(|&(&b, &n)| better.beats(n, b)).count();
    let bq = quartiles(base);
    let nq = quartiles(new);
    let (base_med, new_med) = (bq.1, nq.1);
    let base_iqr = bq.2 - bq.0;
    let worse_by = match better {
        Better::Lower => (new_med - base_med) / base_med.abs(),
        Better::Higher => (base_med - new_med) / base_med.abs(),
    };
    // A regression beyond the bound is called however noisy the parent is;
    // a noisy parent only turns "unchanged" into "unresolved".
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && worse_by < 0.0
        && (new_med - base_med).abs() > base_iqr
    {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if relative_spread(base) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Comparison { base: bq, new: nq, wins, pairs, verdict }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // With 200 samples exactly ten lie above the p95 value.
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let p95 = percentile(&v, 95.0);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn compare_calls_improvement_only_with_ten_pairs_and_a_clear_gap() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let faster: Vec<f64> = base.iter().map(|b| b - 20.0).collect();
        let c = compare(&base, &faster, Better::Lower, 0.1);
        assert_eq!((c.wins, c.pairs, c.verdict), (10, 10, Verdict::Improved));
        // The same gap over three pairs is too few pairs to claim a gain.
        let c = compare(&base[..3], &faster[..3], Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Unchanged);
        // Winning 8 of 10 pairs is not enough.
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_ne!(compare(&base, &mixed, Better::Lower, 0.5).verdict, Verdict::Improved);
    }

    #[test]
    fn compare_flags_regressions_beyond_the_bound() {
        let base = [100.0, 101.0, 99.0, 100.0];
        let slower = [120.0, 121.0, 119.0, 120.0];
        assert_eq!(compare(&base, &slower, Better::Lower, 0.1).verdict, Verdict::Regressed);
        assert_eq!(compare(&base, &slower, Better::Lower, 0.25).verdict, Verdict::Unchanged);
        // Higher-is-better metrics regress downwards.
        let lower = [80.0, 81.0, 79.0, 80.0];
        assert_eq!(compare(&base, &lower, Better::Higher, 0.1).verdict, Verdict::Regressed);
        assert_eq!(compare(&base, &base, Better::Higher, 0.1).verdict, Verdict::Unchanged);
    }

    #[test]
    fn compare_is_unresolved_when_the_parent_spread_exceeds_the_bound() {
        let noisy = [50.0, 100.0, 150.0, 200.0];
        let same = [60.0, 110.0, 140.0, 190.0];
        assert_eq!(compare(&noisy, &same, Better::Lower, 0.1).verdict, Verdict::Unresolved);
    }

    #[test]
    fn compare_calls_a_regression_however_noisy_the_parent() {
        let noisy = [50.0, 100.0, 150.0, 200.0];
        assert!(relative_spread(&noisy) > 0.25);
        // Every change run is slower than every parent run.
        let slower = [400.0, 410.0, 420.0, 430.0];
        assert_eq!(compare(&noisy, &slower, Better::Lower, 0.25).verdict, Verdict::Regressed);
        let lower_rate: Vec<f64> = noisy.iter().map(|x| x / 4.0).collect();
        assert_eq!(compare(&noisy, &lower_rate, Better::Higher, 0.25).verdict, Verdict::Regressed);
    }
}
