//! Per-file identities and request-frequency series.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a data file within a trace (dense, `0..trace.files.len()`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct FileId(pub u32);

impl FileId {
    /// The dense index as `usize`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// A `FileId` from a dense `usize` index, saturating at `u32::MAX`.
    ///
    /// Saturation policy: traces are bounded well below `u32::MAX` files
    /// (the paper's corpus is ~4M); an index at or past the boundary maps
    /// to `u32::MAX` rather than silently wrapping, so a pathological
    /// caller aliases at one sentinel id instead of colliding low ids.
    #[must_use]
    pub fn from_index(index: usize) -> FileId {
        FileId(u32::try_from(index).unwrap_or(u32::MAX))
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// One file's metadata and daily request-frequency series.
///
/// This is the observable state the paper's agent monitors (§4.2.1):
/// read frequencies `F_r`, write frequencies `F_w`, and size `D`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FileSeries {
    /// The file's identity.
    pub id: FileId,
    /// File size in GB (constant over the trace, per the paper's §3.1).
    pub size_gb: f64,
    /// Daily read request counts, one per trace day.
    pub reads: Vec<u64>,
    /// Daily write request counts, one per trace day.
    pub writes: Vec<u64>,
}

impl FileSeries {
    /// Number of days in the series.
    #[must_use]
    pub fn days(&self) -> usize {
        self.reads.len()
    }

    /// Mean daily read frequency.
    #[must_use]
    pub fn mean_reads(&self) -> f64 {
        if self.reads.is_empty() {
            return 0.0;
        }
        self.reads.iter().sum::<u64>() as f64 / self.reads.len() as f64
    }

    /// Sample standard deviation of daily reads (Eq. 1 of the paper:
    /// `T - 1` denominator).
    #[must_use]
    pub fn reads_std(&self) -> f64 {
        let n = self.reads.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_reads();
        let ss: f64 = self.reads.iter().map(|&r| (r as f64 - mean).powi(2)).sum();
        (ss / (n as f64 - 1.0)).sqrt()
    }

    /// Normalized standard deviation (coefficient of variation) of daily
    /// reads: `std / mean`, the quantity bucketized by Fig. 2 of the paper.
    ///
    /// Zero-mean series have zero variability by definition.
    #[must_use]
    pub fn reads_cv(&self) -> f64 {
        let mean = self.mean_reads();
        if mean == 0.0 {
            0.0
        } else {
            self.reads_std() / mean
        }
    }

    /// Read/write pair for one day, clamped to the series length.
    ///
    /// Panics if `day` is out of range.
    #[must_use]
    pub fn day(&self, day: usize) -> (u64, u64) {
        (self.reads[day], self.writes[day])
    }

    /// A sub-series covering days `range` (used for train/eval windows).
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn window(&self, range: std::ops::Range<usize>) -> FileSeries {
        FileSeries {
            id: self.id,
            size_gb: self.size_gb,
            reads: self.reads[range.clone()].to_vec(),
            writes: self.writes[range].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(reads: Vec<u64>) -> FileSeries {
        let writes = vec![0; reads.len()];
        FileSeries { id: FileId(0), size_gb: 0.1, reads, writes }
    }

    #[test]
    fn mean_and_std_match_eq1() {
        let s = series(vec![2, 4, 6]);
        assert_eq!(s.mean_reads(), 4.0);
        // Sample std with T-1 denominator: sqrt(((2-4)^2+(0)^2+(2)^2)/2) = 2.
        assert_eq!(s.reads_std(), 2.0);
        assert_eq!(s.reads_cv(), 0.5);
    }

    #[test]
    fn constant_series_has_zero_cv() {
        let s = series(vec![5, 5, 5, 5]);
        assert_eq!(s.reads_std(), 0.0);
        assert_eq!(s.reads_cv(), 0.0);
    }

    #[test]
    fn empty_and_singleton_series_are_degenerate() {
        assert_eq!(series(vec![]).mean_reads(), 0.0);
        assert_eq!(series(vec![]).reads_std(), 0.0);
        assert_eq!(series(vec![7]).reads_std(), 0.0);
    }

    #[test]
    fn zero_mean_series_has_zero_cv() {
        let s = series(vec![0, 0, 0]);
        assert_eq!(s.reads_cv(), 0.0);
    }

    #[test]
    fn window_slices_both_series() {
        let mut s = series(vec![1, 2, 3, 4, 5]);
        s.writes = vec![10, 20, 30, 40, 50];
        let w = s.window(1..4);
        assert_eq!(w.reads, vec![2, 3, 4]);
        assert_eq!(w.writes, vec![20, 30, 40]);
        assert_eq!(w.days(), 3);
        assert_eq!(w.id, s.id);
    }

    #[test]
    fn day_accessor_pairs_reads_and_writes() {
        let mut s = series(vec![1, 2]);
        s.writes = vec![9, 8];
        assert_eq!(s.day(0), (1, 9));
        assert_eq!(s.day(1), (2, 8));
    }

    #[test]
    fn display_format() {
        assert_eq!(FileId(42).to_string(), "file#42");
        assert_eq!(FileId(42).index(), 42);
    }

    #[test]
    fn from_index_saturates_at_u32_boundary() {
        assert_eq!(FileId::from_index(0), FileId(0));
        assert_eq!(FileId::from_index(42), FileId(42));
        assert_eq!(FileId::from_index(u32::MAX as usize), FileId(u32::MAX));
        // Past the boundary: saturate to the sentinel, never wrap to low ids.
        assert_eq!(FileId::from_index(u32::MAX as usize + 1), FileId(u32::MAX));
        assert_eq!(FileId::from_index(usize::MAX), FileId(u32::MAX));
    }
}
