//! Trace analysis: the paper's §3.1 request-frequency variability study.
//!
//! Provides the normalized standard-deviation (CV) bucketing behind Figs. 2,
//! 3, 4, and 8 of the paper, plus summary helpers the experiment harness
//! prints.

use crate::file::FileSeries;
use crate::workload::Trace;
use serde::{Deserialize, Serialize};

/// Number of CV buckets in the paper's figures.
pub const CV_BUCKET_COUNT: usize = 5;

/// Bucket edges from the paper: `[0, 0.1), [0.1, 0.3), [0.3, 0.5),
/// [0.5, 0.8), [0.8, inf)`.
pub const CV_BUCKET_EDGES: [f64; 4] = [0.1, 0.3, 0.5, 0.8];

/// Human-readable bucket labels matching the paper's x-axes.
pub const CV_BUCKET_LABELS: [&str; CV_BUCKET_COUNT] =
    ["0-0.1", "0.1-0.3", "0.3-0.5", "0.5-0.8", ">0.8"];

/// A CV bucket index (`0..CV_BUCKET_COUNT`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct CvBucket(pub usize);

impl CvBucket {
    /// The bucket containing `cv`.
    #[must_use]
    pub fn of(cv: f64) -> CvBucket {
        let ix = CV_BUCKET_EDGES.iter().take_while(|&&edge| cv >= edge).count();
        CvBucket(ix)
    }

    /// The bucket of a file's daily-read CV.
    #[must_use]
    pub fn of_file(file: &FileSeries) -> CvBucket {
        CvBucket::of(file.reads_cv())
    }

    /// The paper's label for this bucket.
    #[must_use]
    pub fn label(self) -> &'static str {
        CV_BUCKET_LABELS[self.0]
    }

    /// All buckets in order.
    pub fn all() -> impl Iterator<Item = CvBucket> {
        (0..CV_BUCKET_COUNT).map(CvBucket)
    }
}

/// Histogram of files per CV bucket — the paper's Fig. 2.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketHistogram {
    /// File counts per bucket.
    pub counts: [usize; CV_BUCKET_COUNT],
}

impl BucketHistogram {
    /// Fraction of files in each bucket.
    #[must_use]
    pub fn fractions(&self) -> [f64; CV_BUCKET_COUNT] {
        let total: usize = self.counts.iter().sum();
        let mut out = [0.0; CV_BUCKET_COUNT];
        if total > 0 {
            for (o, &c) in out.iter_mut().zip(self.counts.iter()) {
                *o = c as f64 / total as f64;
            }
        }
        out
    }
}

/// Computes the Fig. 2 histogram for a trace.
#[must_use]
pub fn bucket_histogram(trace: &Trace) -> BucketHistogram {
    let mut counts = [0usize; CV_BUCKET_COUNT];
    for file in &trace.files {
        counts[CvBucket::of_file(file).0] += 1;
    }
    BucketHistogram { counts }
}

/// Groups file indices by CV bucket (used by the per-bucket cost and
/// prediction-error figures, Figs. 3, 4, 8).
#[must_use]
pub fn bucket_members(trace: &Trace) -> [Vec<usize>; CV_BUCKET_COUNT] {
    let mut members: [Vec<usize>; CV_BUCKET_COUNT] = Default::default();
    for (ix, file) in trace.files.iter().enumerate() {
        members[CvBucket::of_file(file).0].push(ix);
    }
    members
}

/// Percentile of a sample (nearest-rank; `q` in `[0, 1]`).
///
/// Returns `None` for empty samples. Sorts a copy; fine for the analysis
/// path, which runs once per experiment.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "q is clamped to [0, 1], so the rank lies in 0..len"
    )]
    let rank = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank])
}

/// Summary statistics of per-file mean daily reads, for harness reporting.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Number of files.
    pub files: usize,
    /// Days in the trace.
    pub days: usize,
    /// Mean of per-file mean daily reads.
    pub mean_daily_reads: f64,
    /// Maximum per-file mean daily reads.
    pub peak_daily_reads: f64,
    /// Mean file size in GB.
    pub mean_size_gb: f64,
}

/// Computes a [`TraceSummary`].
#[must_use]
pub fn summarize(trace: &Trace) -> TraceSummary {
    let n = trace.files.len().max(1) as f64;
    let means: Vec<f64> = trace.files.iter().map(FileSeries::mean_reads).collect();
    TraceSummary {
        files: trace.files.len(),
        days: trace.days,
        mean_daily_reads: means.iter().sum::<f64>() / n,
        peak_daily_reads: means.iter().copied().fold(0.0, f64::max),
        mean_size_gb: trace.files.iter().map(|f| f.size_gb).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileId;
    use proptest::prelude::*;

    fn file(reads: Vec<u64>) -> FileSeries {
        let writes = vec![0; reads.len()];
        FileSeries { id: FileId(0), size_gb: 0.1, reads, writes }
    }

    #[test]
    fn bucket_of_respects_edges() {
        assert_eq!(CvBucket::of(0.0), CvBucket(0));
        assert_eq!(CvBucket::of(0.0999), CvBucket(0));
        assert_eq!(CvBucket::of(0.1), CvBucket(1));
        assert_eq!(CvBucket::of(0.29), CvBucket(1));
        assert_eq!(CvBucket::of(0.3), CvBucket(2));
        assert_eq!(CvBucket::of(0.5), CvBucket(3));
        assert_eq!(CvBucket::of(0.8), CvBucket(4));
        assert_eq!(CvBucket::of(12.0), CvBucket(4));
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = CvBucket::all().map(CvBucket::label).collect();
        assert_eq!(labels, vec!["0-0.1", "0.1-0.3", "0.3-0.5", "0.5-0.8", ">0.8"]);
    }

    #[test]
    fn histogram_counts_and_fractions() {
        let trace = Trace {
            days: 4,
            files: vec![
                file(vec![10, 10, 10, 10]), // cv 0 -> bucket 0
                file(vec![1, 100, 1, 100]), // high cv -> bucket 4
            ],
        };
        let hist = bucket_histogram(&trace);
        assert_eq!(hist.counts[0], 1);
        assert_eq!(hist.counts[4], 1);
        let fr = hist.fractions();
        assert_eq!(fr[0], 0.5);
        assert_eq!(fr[4], 0.5);
    }

    #[test]
    fn empty_histogram_fractions_are_zero() {
        let hist = BucketHistogram { counts: [0; CV_BUCKET_COUNT] };
        assert_eq!(hist.fractions(), [0.0; CV_BUCKET_COUNT]);
    }

    #[test]
    fn bucket_members_partition_files() {
        let trace = Trace {
            days: 4,
            files: vec![
                file(vec![10, 10, 10, 10]),
                file(vec![1, 100, 1, 100]),
                file(vec![8, 12, 9, 11]),
            ],
        };
        let members = bucket_members(&trace);
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        assert!(members[0].contains(&0));
        assert!(members[4].contains(&1));
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Out-of-range q clamps.
        assert_eq!(percentile(&v, 2.0), Some(5.0));
    }

    #[test]
    fn summary_over_trivial_trace() {
        let trace = Trace { days: 2, files: vec![file(vec![2, 4]), file(vec![0, 0])] };
        let s = summarize(&trace);
        assert_eq!(s.files, 2);
        assert_eq!(s.days, 2);
        assert_eq!(s.mean_daily_reads, 1.5);
        assert_eq!(s.peak_daily_reads, 3.0);
        assert!((s.mean_size_gb - 0.1).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn every_cv_lands_in_exactly_one_bucket(cv in 0.0f64..10.0) {
            let bucket = CvBucket::of(cv);
            prop_assert!(bucket.0 < CV_BUCKET_COUNT);
            // Edge consistency: bucket index equals count of edges <= cv.
            let expected = CV_BUCKET_EDGES.iter().filter(|&&e| cv >= e).count();
            prop_assert_eq!(bucket.0, expected);
        }

        #[test]
        fn percentile_is_monotone_in_q(
            v in proptest::collection::vec(0.0f64..100.0, 1..50),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(percentile(&v, lo).unwrap() <= percentile(&v, hi).unwrap());
        }

        #[test]
        fn histogram_total_equals_file_count(n in 0usize..30) {
            let files: Vec<FileSeries> = (0..n)
                .map(|i| file(vec![i as u64, 2 * i as u64 + 1, i as u64]))
                .collect();
            let trace = Trace { days: 3, files };
            let hist = bucket_histogram(&trace);
            prop_assert_eq!(hist.counts.iter().sum::<usize>(), n);
        }
    }
}
