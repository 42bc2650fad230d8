//! Trace containers and train/test splitting.

use crate::config::TraceConfig;
use crate::file::{FileId, FileSeries};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Domain-separation constant for the split RNG, so splitting with the same
/// seed as generation still produces an independent stream.
const SPLIT_SEED_DOMAIN: u64 = 0x5EED_5EED_5EED_5EED;

/// A complete trace: per-file daily read/write series over a common horizon.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Number of days every series spans.
    pub days: usize,
    /// Per-file series, indexed by [`FileId::index`].
    pub files: Vec<FileSeries>,
}

impl Trace {
    /// Generates a synthetic trace from `config`.
    ///
    /// Panics if the configuration is invalid; use
    /// [`TraceConfig::validate`] to check first.
    #[must_use]
    pub fn generate(config: &TraceConfig) -> Trace {
        crate::generate::generate(config)
    }

    /// Number of files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` if the trace has no files.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The series for `id`. Panics if out of range.
    #[must_use]
    pub fn file(&self, id: FileId) -> &FileSeries {
        &self.files[id.index()]
    }

    /// Total read operations across all files and days.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.files.iter().map(|f| f.reads.iter().sum::<u64>()).sum()
    }

    /// A new trace containing only the selected files (re-identified
    /// densely, preserving order).
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Trace {
        let files = indices
            .iter()
            .enumerate()
            .map(|(new_ix, &old_ix)| {
                let mut f = self.files[old_ix].clone();
                f.id = FileId::from_index(new_ix);
                f
            })
            .collect();
        Trace { days: self.days, files }
    }

    /// A new trace restricted to days `range` for every file.
    ///
    /// Panics if the range exceeds the trace horizon.
    #[must_use]
    pub fn day_window(&self, range: std::ops::Range<usize>) -> Trace {
        assert!(range.end <= self.days, "window {range:?} exceeds {} days", self.days);
        Trace {
            days: range.len(),
            files: self.files.iter().map(|f| f.window(range.clone())).collect(),
        }
    }

    /// Random train/test split by file (the paper's §6.1: "a random sample
    /// of 80% of our collected trace data as a training set ... the
    /// remaining 20% as a test set").
    ///
    /// `train_fraction` is clamped to `[0, 1]`. The split is deterministic
    /// given `seed`.
    #[must_use]
    pub fn split(&self, train_fraction: f64, seed: u64) -> TraceSplit {
        let frac = train_fraction.clamp(0.0, 1.0);
        let mut indices: Vec<usize> = (0..self.files.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ SPLIT_SEED_DOMAIN);
        indices.shuffle(&mut rng);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "frac is clamped to [0, 1], so n_train is at most the file count"
        )]
        let n_train = (self.files.len() as f64 * frac).round() as usize;
        let (train_ix, test_ix) = indices.split_at(n_train.min(indices.len()));
        TraceSplit {
            train: self.subset(train_ix),
            test: self.subset(test_ix),
            test_ids: test_ix.iter().filter_map(|&ix| self.files.get(ix)).map(|f| f.id).collect(),
        }
    }
}

/// An 80/20-style split of a trace into train and test sub-traces.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceSplit {
    /// Training files (re-identified densely).
    pub train: Trace,
    /// Held-out test files (re-identified densely).
    pub test: Trace,
    /// The id each held-out file has in the trace that was split, in
    /// `test` order: a message about a held-out file names it by this id,
    /// not by its renumbered one.
    pub test_ids: Vec<FileId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace(n: usize, days: usize) -> Trace {
        let files = (0..n)
            .map(|i| FileSeries {
                id: FileId(i as u32),
                size_gb: 0.1,
                reads: (0..days).map(|d| (i * days + d) as u64).collect(),
                writes: vec![0; days],
            })
            .collect();
        Trace { days, files }
    }

    #[test]
    fn subset_reindexes_densely() {
        let t = tiny_trace(5, 3);
        let s = t.subset(&[4, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.files[0].id, FileId(0));
        assert_eq!(s.files[1].id, FileId(1));
        // Content comes from the original files 4 and 1.
        assert_eq!(s.files[0].reads, t.files[4].reads);
        assert_eq!(s.files[1].reads, t.files[1].reads);
    }

    #[test]
    fn day_window_narrows_horizon() {
        let t = tiny_trace(2, 5);
        let w = t.day_window(1..4);
        assert_eq!(w.days, 3);
        assert!(w.files.iter().all(|f| f.days() == 3));
        assert_eq!(w.files[1].reads, t.files[1].reads[1..4].to_vec());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn day_window_out_of_range_panics() {
        let _ = tiny_trace(1, 3).day_window(0..4);
    }

    #[test]
    fn split_is_partition() {
        let t = tiny_trace(10, 2);
        let split = t.split(0.8, 9);
        assert_eq!(split.train.len(), 8);
        assert_eq!(split.test.len(), 2);
        // No series lost or duplicated: compare multisets of read vectors.
        let mut all: Vec<Vec<u64>> = split
            .train
            .files
            .iter()
            .chain(split.test.files.iter())
            .map(|f| f.reads.clone())
            .collect();
        let mut orig: Vec<Vec<u64>> = t.files.iter().map(|f| f.reads.clone()).collect();
        all.sort();
        orig.sort();
        assert_eq!(all, orig);
        // Each held-out id names the file its series was split from.
        for (file, id) in split.test.files.iter().zip(&split.test_ids) {
            assert_eq!(file.reads, t.file(*id).reads);
        }
        assert_eq!(split.test_ids.len(), split.test.len());
    }

    #[test]
    fn split_is_deterministic_and_seed_sensitive() {
        let t = tiny_trace(50, 2);
        let a = t.split(0.8, 1);
        let b = t.split(0.8, 1);
        let c = t.split(0.8, 2);
        assert_eq!(a, b);
        assert_ne!(a.train.files[0].reads, c.train.files[0].reads);
    }

    #[test]
    fn split_fraction_edges() {
        let t = tiny_trace(4, 2);
        let all_train = t.split(1.0, 3);
        assert_eq!(all_train.train.len(), 4);
        assert_eq!(all_train.test.len(), 0);
        let all_test = t.split(0.0, 3);
        assert_eq!(all_test.train.len(), 0);
        assert_eq!(all_test.test.len(), 4);
        // Out-of-range fractions clamp.
        assert_eq!(t.split(7.0, 3).train.len(), 4);
    }

    #[test]
    fn total_reads_sums_everything() {
        let t = tiny_trace(2, 2);
        // file0: 0+1, file1: 2+3 => 6
        assert_eq!(t.total_reads(), 6);
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = Trace { days: 0, files: vec![] };
        assert!(t.is_empty());
        assert_eq!(t.total_reads(), 0);
        let s = t.split(0.8, 1);
        assert!(s.train.is_empty() && s.test.is_empty());
    }
}
