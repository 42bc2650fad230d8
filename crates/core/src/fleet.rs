//! Columnar (struct-of-arrays) fleet state: simulate's and serve's one decision input.
//!
//! The simulate/serve day loop used to walk `Vec<FileSeries>` — one heap
//! object per file, with the per-day counts behind two pointer hops. At
//! fleet scale the decision sweep is memory-bound, so the engine now runs
//! on a [`FleetState`]: one dense, file-indexed block per column
//! (sizes, read series, write series), file-major with a fixed stride so
//! one file's days are still a plain contiguous slice — the whole horizon
//! for simulate, a trailing window plus carried prior sums for serve.
//!
//! Policies observe the fleet through a borrowed [`FleetView`] — an
//! immutable window over one decision batch — and batch featurization
//! lands in a [`FeatureBlock`], a reusable `files x state_dim` matrix fed
//! straight to the network forward pass. The borrowing contract is
//! deliberate: a view borrows the fleet for the duration of one decision
//! call and cannot outlive it, so policies can never retain stale fleet
//! pointers across days (DESIGN.md §14).

use nn::Matrix;
use tracegen::Trace;

/// Dense struct-of-arrays fleet state over a span of day columns.
///
/// Row `ix` (a file's index in the trace) owns `sizes[ix]`, the prior sums of
/// every day before `first_day`, and the slices `reads[ix*stride ..]` /
/// `writes[..]`, whose column `c` holds absolute day `first_day + c` —
/// file-major, so per-file history reads are contiguous. The per-day sweep
/// steps `stride` entries (`8 × stride` bytes, 2,920 at 365 days) from one
/// file to the next, a fresh cache line per file and column; the engine
/// sweeps in fixed tiles of files so that a tile's lines stay cached from
/// one day to the next, eight days to a line (DESIGN.md §14).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetState {
    /// Columns per file (the row stride).
    stride: usize,
    /// Absolute day of column 0.
    first_day: usize,
    /// One past the last day with a column (the horizon end).
    days: usize,
    /// File sizes, indexed by global file index.
    sizes: Vec<f64>,
    /// Per-file read totals before `first_day` (empty, so zero, from a trace).
    prior_reads: Vec<u64>,
    /// Per-file write totals before `first_day`.
    prior_writes: Vec<u64>,
    /// Daily read counts, file-major (`ix * stride + day - first_day`).
    reads: Vec<u64>,
    /// Daily write counts, file-major (`ix * stride + day - first_day`).
    writes: Vec<u64>,
}

impl FleetState {
    /// Builds the columnar state from a row-major [`Trace`]: every day of
    /// the horizon from day 0, so there are no prior sums to carry.
    ///
    /// Panics if any series length disagrees with the trace horizon —
    /// the same shapes the day loop would reject later, caught at
    /// construction instead.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> FleetState {
        let days = trace.days;
        let n = trace.files.len();
        let mut sizes = Vec::with_capacity(n);
        let mut reads = Vec::with_capacity(n * days);
        let mut writes = Vec::with_capacity(n * days);
        for file in &trace.files {
            assert_eq!(file.days(), days, "series length must equal the trace horizon");
            sizes.push(file.size_gb);
            reads.extend_from_slice(&file.reads);
            writes.extend_from_slice(&file.writes);
        }
        FleetState { stride: days, days, sizes, reads, writes, ..FleetState::default() }
    }

    /// Reshapes into an all-zero trailing window over `catalog`'s files —
    /// `window` closed-day columns plus today's per file — reusing the
    /// allocations; serve does this once per session, then refills in place.
    pub(crate) fn reset_window(&mut self, catalog: &Trace, window: usize) {
        let (n, stride) = (catalog.files.len(), window.saturating_add(1));
        (self.stride, self.first_day, self.days) = (stride, 0, 0);
        self.sizes.clear();
        self.sizes.extend(catalog.files.iter().map(|f| f.size_gb));
        let columns =
            [&mut self.prior_reads, &mut self.prior_writes, &mut self.reads, &mut self.writes];
        for (col, len) in columns.into_iter().zip([n, n, n * stride, n * stride]) {
            col.clear();
            col.resize(len, 0);
        }
    }

    /// Slides a trailing window onto `day`: column `min(window, day)`
    /// becomes today, zeroed for ingest, after the closed days it keeps.
    pub(crate) fn open_day(&mut self, day: usize) {
        let today = day.min(self.stride.saturating_sub(1));
        (self.first_day, self.days) = (day - today, day.saturating_add(1));
        for col in [&mut self.reads, &mut self.writes] {
            col.iter_mut().skip(today).step_by(self.stride.max(1)).for_each(|c| *c = 0);
        }
    }

    /// Adds request counts to file `ix`'s column for today (the last day).
    /// Total: an out-of-range file is ignored.
    pub(crate) fn record(&mut self, ix: usize, reads: u64, writes: u64) {
        let today = (self.days - self.first_day).saturating_sub(1);
        let at = ix.saturating_mul(self.stride).saturating_add(today);
        for (col, count) in [(&mut self.reads, reads), (&mut self.writes, writes)] {
            if let Some(slot) = col.get_mut(at) {
                *slot = slot.saturating_add(count);
            }
        }
    }

    /// Refills file `ix`'s closed-day columns through `fill`, which writes
    /// the (read, write) rings and returns the lifetime totals; the prior
    /// sums carry the rest (nothing while the window starts at day 0).
    pub(crate) fn refill(
        &mut self,
        ix: usize,
        fill: impl FnOnce(&mut [u64], &mut [u64]) -> (u64, u64),
    ) {
        let start = ix.saturating_mul(self.stride);
        let end = start.saturating_add((self.days - self.first_day).saturating_sub(1));
        let (Some(reads), Some(writes)) =
            (self.reads.get_mut(start..end), self.writes.get_mut(start..end))
        else {
            return;
        };
        let (lifetime_reads, lifetime_writes) = fill(reads, writes);
        let carry = self.first_day > 0;
        for (total, closed, prior) in [
            (lifetime_reads, reads, &mut self.prior_reads),
            (lifetime_writes, writes, &mut self.prior_writes),
        ] {
            if let Some(slot) = prior.get_mut(ix) {
                *slot = if carry { total.saturating_sub(saturating_sum(closed)) } else { 0 };
            }
        }
    }

    /// Number of files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when the fleet has no files.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// One past the last day with a column: the horizon length of a
    /// [`FleetState::from_trace`] fleet, `today + 1` of a serve window.
    #[must_use]
    pub fn days(&self) -> usize {
        self.days
    }

    /// Size of file `ix`. Total: an out-of-range index reads as `0.0`
    /// rather than panicking on the decision hot path.
    #[must_use]
    pub fn size_gb(&self, ix: usize) -> f64 {
        self.sizes.get(ix).copied().unwrap_or_default()
    }

    /// The stored columns of file `ix` in `col`, days `first_day..days`.
    fn row<'a>(&self, col: &'a [u64], ix: usize) -> &'a [u64] {
        let start = ix.saturating_mul(self.stride);
        col.get(start..start.saturating_add(self.days - self.first_day)).unwrap_or(&[])
    }

    /// Stored daily read series of file `ix` (only the trailing window for
    /// serve's fleet). Total: out of range reads as empty.
    #[must_use]
    pub fn reads(&self, ix: usize) -> &[u64] {
        self.row(&self.reads, ix)
    }

    /// Stored daily write series of file `ix` (see [`FleetState::reads`]).
    #[must_use]
    pub fn writes(&self, ix: usize) -> &[u64] {
        self.row(&self.writes, ix)
    }

    /// Read/write pair of file `ix` on absolute `day`. Total: out of range
    /// reads as `(0, 0)`.
    #[must_use]
    pub fn day_counts(&self, ix: usize, day: usize) -> (u64, u64) {
        let count = |col| self.row(col, ix).get(day.wrapping_sub(self.first_day)).copied();
        (count(&self.reads).unwrap_or_default(), count(&self.writes).unwrap_or_default())
    }

    /// What a policy may observe of file `ix` on the morning of `day`: the
    /// last `min(window, day)` closed days of reads (fewer only if the fleet
    /// stores fewer) and the read/write sums before `day`, priors included.
    #[must_use]
    pub fn history(&self, ix: usize, day: usize, window: usize) -> History<'_> {
        let end = day.min(self.days).saturating_sub(self.first_day);
        let reads = self.row(&self.reads, ix).get(..end).unwrap_or(&[]);
        let writes = self.row(&self.writes, ix).get(..end).unwrap_or(&[]);
        let prior = |col: &[u64]| col.get(ix).copied().unwrap_or_default();
        let observed = History::observed(reads, writes, window);
        History {
            sum_reads: observed.sum_reads.saturating_add(prior(&self.prior_reads)),
            sum_writes: observed.sum_writes.saturating_add(prior(&self.prior_writes)),
            ..observed
        }
    }

    /// A borrowed decision-batch window (see [`FleetView`]).
    #[must_use]
    pub fn view<'a>(&'a self, batch: &'a [usize], day: usize) -> FleetView<'a> {
        FleetView { fleet: self, batch, day }
    }
}

/// The sum of `counts`, saturating at `u64::MAX`: restored serving state
/// carries counts from a checkpoint, and no count may overflow a sum.
fn saturating_sum(counts: &[u64]) -> u64 {
    counts.iter().fold(0, |sum, &c| sum.saturating_add(c))
}

/// One file's observable past on the morning of a decision day — the
/// encoder's whole input besides size and tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct History<'a> {
    /// The last `min(window, day)` closed days of reads, oldest first.
    pub recent: &'a [u64],
    /// Total reads before the decision day.
    pub sum_reads: u64,
    /// Total writes before the decision day.
    pub sum_writes: u64,
}

impl<'a> History<'a> {
    /// The history of a file observed on exactly `reads`/`writes` (oldest
    /// first), keeping the last `window` reads as the recent window.
    #[must_use]
    pub fn observed(reads: &'a [u64], writes: &'a [u64], window: usize) -> History<'a> {
        History {
            recent: reads.get(reads.len().saturating_sub(window)..).unwrap_or(&[]),
            sum_reads: saturating_sum(reads),
            sum_writes: saturating_sum(writes),
        }
    }
}

/// A borrowed, immutable window over one decision batch of a
/// [`FleetState`].
///
/// Slot indices are positions inside the batch; [`FleetView::global`]
/// maps them back to global file indices. The view's lifetime ties it to
/// both the fleet and the batch, so policies consume it inside one
/// decision call and cannot store it (the borrowing contract of
/// DESIGN.md §14).
#[derive(Clone, Copy, Debug)]
pub struct FleetView<'a> {
    fleet: &'a FleetState,
    batch: &'a [usize],
    day: usize,
}

impl<'a> FleetView<'a> {
    /// Number of files in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// `true` when the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The day this view decides.
    #[must_use]
    pub fn day(&self) -> usize {
        self.day
    }

    /// Global file index of batch entry `slot`. Total: an out-of-range
    /// slot maps to index `usize::MAX`, which every fleet accessor then
    /// reads as zero values.
    #[must_use]
    pub fn global(&self, slot: usize) -> usize {
        self.batch.get(slot).copied().unwrap_or(usize::MAX)
    }

    /// Size of batch entry `slot`.
    #[must_use]
    pub fn size_gb(&self, slot: usize) -> f64 {
        self.fleet.size_gb(self.global(slot))
    }

    /// Observable past of batch entry `slot` on the view's day (see
    /// [`FleetState::history`]), the same from a simulate or serve fleet.
    #[must_use]
    pub fn history(&self, slot: usize, window: usize) -> History<'a> {
        self.fleet.history(self.global(slot), self.day, window)
    }
}

/// A reusable `files x state_dim` block of encoded features.
///
/// [`crate::features::FeatureConfig::encode_block`] fills one row per
/// batch entry; the backing [`Matrix`] then goes straight into the actor
/// network's buffer-reusing forward pass. Reshaping reuses the backing
/// allocation, so one block hoisted into the policy serves every decision
/// day allocation-free at steady state (`tests/alloc_budget.rs` measures
/// this).
#[derive(Clone, Debug, Default)]
pub struct FeatureBlock {
    states: Matrix,
}

impl FeatureBlock {
    /// An empty block.
    #[must_use]
    pub fn new() -> FeatureBlock {
        FeatureBlock::default()
    }

    /// Reshapes to `rows x state_dim` and zero-fills, reusing the backing
    /// allocation when possible.
    pub fn reset(&mut self, rows: usize, state_dim: usize) {
        self.states.reset(rows, state_dim);
    }

    /// Number of encoded rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.states.rows()
    }

    /// Mutable feature row for batch entry `slot`.
    pub fn row_mut(&mut self, slot: usize) -> &mut [f64] {
        self.states.row_mut(slot)
    }

    /// The encoded block as a matrix (network forward input).
    #[must_use]
    pub fn matrix(&self) -> &Matrix {
        &self.states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::TraceConfig;

    #[test]
    fn from_trace_round_trips_every_column() {
        let trace = Trace::generate(&TraceConfig::small(17, 9, 5));
        let fleet = FleetState::from_trace(&trace);
        assert_eq!(fleet.len(), trace.files.len());
        assert_eq!(fleet.days(), trace.days);
        assert!(!fleet.is_empty());
        for (ix, file) in trace.files.iter().enumerate() {
            assert_eq!(fleet.size_gb(ix), file.size_gb);
            assert_eq!(fleet.reads(ix), &file.reads[..]);
            assert_eq!(fleet.writes(ix), &file.writes[..]);
            for day in 0..trace.days {
                assert_eq!(fleet.day_counts(ix, day), file.day(day));
            }
            for day in 0..=trace.days {
                let h = fleet.history(ix, day, 3);
                assert_eq!(h.recent, &file.reads[day.saturating_sub(3)..day], "day {day}");
                assert_eq!(h.sum_reads, file.reads[..day].iter().sum::<u64>());
                assert_eq!(h.sum_writes, file.writes[..day].iter().sum::<u64>());
            }
        }
    }

    #[test]
    fn view_maps_slots_through_the_batch() {
        let trace = Trace::generate(&TraceConfig::small(10, 6, 2));
        let fleet = FleetState::from_trace(&trace);
        let batch = [7usize, 2, 4];
        let view = fleet.view(&batch, 3);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.day(), 3);
        for (slot, &ix) in batch.iter().enumerate() {
            assert_eq!(view.global(slot), ix);
            assert_eq!(view.size_gb(slot), fleet.size_gb(ix));
            assert_eq!(view.history(slot, 2), fleet.history(ix, 3, 2));
        }
    }

    #[test]
    fn trailing_window_carries_prior_sums() {
        // Feed a window fleet the true counts day by day: its history must
        // match the whole-horizon fleet's on every day.
        let trace = Trace::generate(&TraceConfig::small(4, 9, 8));
        let full = FleetState::from_trace(&trace);
        let mut window = FleetState::default();
        window.reset_window(&trace, 3);
        for day in 0..trace.days {
            window.open_day(day);
            assert_eq!(window.days(), day + 1);
            for (ix, file) in trace.files.iter().enumerate() {
                let (r, w) = file.day(day);
                window.record(ix, r, w);
                window.refill(ix, |reads, writes| {
                    reads.copy_from_slice(&file.reads[day - reads.len()..day]);
                    writes.copy_from_slice(&file.writes[day - writes.len()..day]);
                    let lifetime = |s: &[u64]| s[..day].iter().sum::<u64>();
                    (lifetime(&file.reads), lifetime(&file.writes))
                });
            }
            for ix in 0..trace.len() {
                assert_eq!(window.day_counts(ix, day), full.day_counts(ix, day), "day {day}");
                assert_eq!(window.history(ix, day, 3), full.history(ix, day, 3), "day {day}");
            }
        }
        // Days outside the window read as zero.
        assert_eq!(window.day_counts(0, 0), (0, 0));
        assert_eq!(window.day_counts(0, trace.days), (0, 0));
    }

    #[test]
    fn feature_block_reshapes_and_exposes_rows() {
        let mut block = FeatureBlock::new();
        block.reset(2, 4);
        assert_eq!(block.rows(), 2);
        block.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(block.matrix().row(0), &[0.0; 4]);
        assert_eq!(block.matrix().row(1), &[1.0, 2.0, 3.0, 4.0]);
        block.reset(1, 2); // dirty reuse must zero-fill
        assert_eq!(block.matrix().row(0), &[0.0; 2]);
    }
}
