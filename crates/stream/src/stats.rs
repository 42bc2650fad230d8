//! Exact bounded-memory per-file statistics.
//!
//! [`FileStats`] keeps, per file, everything the feature encoder and the
//! greedy baseline need to reproduce their batch-mode decisions
//! bit-for-bit — in `O(window)` memory regardless of how many days have
//! streamed past:
//!
//! * a ring of the last `window` **closed** days of read/write counts
//!   (the feature encoder's history channels read only these);
//! * exact running sums and the closed-day count (the encoder's
//!   normalizing mean is `sum / days`, which needs no per-day history);
//! * the **pending** counts of the still-open day (the greedy baseline
//!   decides on the current day's true frequencies).
//!
//! [`ExactStats`] is the dense fleet-wide collection used when every file
//! fits in memory — the mode under which the streaming path's ledgers are
//! bit-identical to the batch engine (DESIGN.md §10).

use crate::checkpoint::SnapshotError;
use crate::event::Event;
use crate::wire::{invalid_state, put_column, put_len, put_varint, Reader, Sink};
use serde::{Deserialize, Serialize};

/// Sliding-window statistics for one file. See the module docs for the
/// exact contents and the equivalence argument.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileStats {
    recent_reads: Vec<u64>,
    recent_writes: Vec<u64>,
    closed_days: u64,
    sum_reads: u64,
    sum_writes: u64,
    pending_reads: u64,
    pending_writes: u64,
}

impl FileStats {
    /// Fresh statistics with nothing observed.
    #[must_use]
    pub fn new() -> FileStats {
        FileStats::default()
    }

    /// Reconstructs statistics from recovered history — used by the
    /// bounded-memory tier when a file is promoted into exact tracking and
    /// its recent window is backfilled from sketch estimates. The rings are
    /// truncated to their last `window` entries and the open day starts
    /// empty.
    #[must_use]
    pub fn from_parts(
        window: usize,
        mut recent_reads: Vec<u64>,
        mut recent_writes: Vec<u64>,
        closed_days: u64,
        sum_reads: u64,
        sum_writes: u64,
    ) -> FileStats {
        let keep = |ring: &mut Vec<u64>| {
            if ring.len() > window {
                ring.drain(..ring.len() - window);
            }
        };
        keep(&mut recent_reads);
        keep(&mut recent_writes);
        FileStats {
            recent_reads,
            recent_writes,
            closed_days,
            sum_reads,
            sum_writes,
            pending_reads: 0,
            pending_writes: 0,
        }
    }

    /// Adds request counts to the still-open day.
    pub fn record(&mut self, reads: u64, writes: u64) {
        self.pending_reads = self.pending_reads.saturating_add(reads);
        self.pending_writes = self.pending_writes.saturating_add(writes);
    }

    /// Closes the open day: folds the pending counts into the ring (bounded
    /// by `window`) and the running sums, then starts a fresh open day.
    pub fn close_day(&mut self, window: usize) {
        self.recent_reads.push(self.pending_reads);
        self.recent_writes.push(self.pending_writes);
        if self.recent_reads.len() > window {
            self.recent_reads.remove(0);
            self.recent_writes.remove(0);
        }
        self.sum_reads = self.sum_reads.saturating_add(self.pending_reads);
        self.sum_writes = self.sum_writes.saturating_add(self.pending_writes);
        self.closed_days += 1;
        self.pending_reads = 0;
        self.pending_writes = 0;
    }

    /// The last `<= window` closed days of reads, oldest first.
    #[must_use]
    pub fn recent_reads(&self) -> &[u64] {
        &self.recent_reads
    }

    /// The last `<= window` closed days of writes, oldest first.
    #[must_use]
    pub fn recent_writes(&self) -> &[u64] {
        &self.recent_writes
    }

    /// Copies the rings into the tails of `reads`/`writes`, oldest first,
    /// zeroing the leading slots no closed day reaches; a ring longer than
    /// its slice keeps only its newest days.
    pub fn window_into(&self, reads: &mut [u64], writes: &mut [u64]) {
        for (out, ring) in [(reads, &self.recent_reads), (writes, &self.recent_writes)] {
            out.fill(0);
            for (slot, &count) in out.iter_mut().rev().zip(ring.iter().rev()) {
                *slot = count;
            }
        }
    }

    /// Number of closed days observed.
    #[must_use]
    pub fn closed_days(&self) -> u64 {
        self.closed_days
    }

    /// Exact total reads over all closed days.
    #[must_use]
    pub fn sum_reads(&self) -> u64 {
        self.sum_reads
    }

    /// Exact total writes over all closed days.
    #[must_use]
    pub fn sum_writes(&self) -> u64 {
        self.sum_writes
    }

    /// Read/write counts of the still-open day.
    #[must_use]
    pub fn pending(&self) -> (u64, u64) {
        (self.pending_reads, self.pending_writes)
    }

    /// Fewest payload bytes one encoded [`FileStats`] takes: five varints
    /// and two column lengths.
    pub(crate) const MIN_WIRE_BYTES: usize = 7;

    /// Appends the v3 encoding: the five counters, then both rings.
    pub(crate) fn write_wire(&self, out: &mut impl Sink) {
        for v in [
            self.closed_days,
            self.sum_reads,
            self.sum_writes,
            self.pending_reads,
            self.pending_writes,
        ] {
            put_varint(out, v);
        }
        put_column(out, &self.recent_reads);
        put_column(out, &self.recent_writes);
    }

    /// Reads what [`FileStats::write_wire`] wrote.
    pub(crate) fn read_wire(r: &mut Reader<'_>) -> Result<FileStats, SnapshotError> {
        Ok(FileStats {
            closed_days: r.varint("file closed days")?,
            sum_reads: r.varint("file read sum")?,
            sum_writes: r.varint("file write sum")?,
            pending_reads: r.varint("file pending reads")?,
            pending_writes: r.varint("file pending writes")?,
            recent_reads: r.varint_column("file read ring")?,
            recent_writes: r.varint_column("file write ring")?,
        })
    }

    /// Checks the rings against `window` and the day count against the
    /// fleet's `closed_days`.
    pub(crate) fn check_restored(
        &self,
        window: usize,
        closed_days: u64,
    ) -> Result<(), SnapshotError> {
        if self.recent_reads.len() != self.recent_writes.len() {
            return Err(invalid_state("read and write rings differ in length"));
        }
        if self.recent_reads.len() > window {
            return Err(invalid_state("ring longer than the window"));
        }
        if self.closed_days != closed_days {
            return Err(invalid_state("file closed-day count differs from the fleet's"));
        }
        Ok(())
    }
}

/// Dense exact statistics for a whole fleet, indexed by
/// [`tracegen::FileId::index`]. Memory is `O(fleet * window)`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExactStats {
    window: usize,
    files: Vec<FileStats>,
    closed_days: u64,
}

impl ExactStats {
    /// Fresh statistics for a fleet of `fleet` files with a `window`-day
    /// feature ring (window is clamped to at least 1).
    #[must_use]
    pub fn new(window: usize, fleet: usize) -> ExactStats {
        ExactStats { window: window.max(1), files: vec![FileStats::new(); fleet], closed_days: 0 }
    }

    /// The ring window length in days.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of files tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` when no files are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Days closed so far (the streaming clock).
    #[must_use]
    pub fn closed_days(&self) -> u64 {
        self.closed_days
    }

    /// Routes one event to its file's open-day counters. Events for ids
    /// beyond the registered fleet are ignored (a stream/catalog mismatch
    /// is a caller bug, but must not corrupt neighbouring ledgers).
    pub fn ingest(&mut self, event: &Event) {
        if let Some(stats) = self.files.get_mut(event.file.index()) {
            stats.record(event.reads, event.writes);
        }
    }

    /// Closes the open day for every file.
    pub fn close_day(&mut self) {
        for stats in &mut self.files {
            stats.close_day(self.window);
        }
        self.closed_days += 1;
    }

    /// The statistics of file `ix`, if registered.
    #[must_use]
    pub fn file(&self, ix: usize) -> Option<&FileStats> {
        self.files.get(ix)
    }

    /// Appends the v3 encoding: window, closed days, then every file.
    pub(crate) fn write_wire(&self, out: &mut impl Sink) {
        put_len(out, self.window);
        put_varint(out, self.closed_days);
        put_len(out, self.files.len());
        for file in &self.files {
            file.write_wire(out);
        }
    }

    /// Reads what [`ExactStats::write_wire`] wrote.
    pub(crate) fn read_wire(r: &mut Reader<'_>) -> Result<ExactStats, SnapshotError> {
        let window = r.varint_usize("exact window")?;
        let closed_days = r.varint("exact closed days")?;
        let n = r.seq_len("exact files", FileStats::MIN_WIRE_BYTES)?;
        let mut files = Vec::with_capacity(n);
        for _ in 0..n {
            files.push(FileStats::read_wire(r)?);
        }
        Ok(ExactStats { window, files, closed_days })
    }

    /// Checks a restored fleet: `fleet` files, `closed_days` days closed
    /// everywhere, and every ring within a nonzero window.
    pub(crate) fn check_restored(
        &self,
        fleet: usize,
        closed_days: u64,
    ) -> Result<(), SnapshotError> {
        if self.window == 0 {
            return Err(invalid_state("exact window is zero"));
        }
        if self.files.len() != fleet {
            return Err(invalid_state("exact statistics cover a different fleet size"));
        }
        if self.closed_days != closed_days {
            return Err(invalid_state("exact closed-day count differs from the day cursor"));
        }
        self.files.iter().try_for_each(|f| f.check_restored(self.window, closed_days))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::FileId;

    fn ev(ix: u32, reads: u64, writes: u64) -> Event {
        Event { hour: 0, file: FileId(ix), reads, writes, bytes: 1 }
    }

    #[test]
    fn ring_is_bounded_and_chronological() {
        let mut s = FileStats::new();
        for day in 0..10u64 {
            s.record(day, 2 * day);
            s.close_day(3);
        }
        assert_eq!(s.recent_reads(), &[7, 8, 9]);
        assert_eq!(s.recent_writes(), &[14, 16, 18]);
        assert_eq!(s.closed_days(), 10);
        assert_eq!(s.sum_reads(), 45);
        assert_eq!(s.sum_writes(), 90);
        assert_eq!(s.pending(), (0, 0));
        // Copied into a longer slice the ring is right-aligned; into a
        // shorter one it keeps the newest days.
        let (mut reads, mut writes) = ([9u64; 5], [9u64; 5]);
        s.window_into(&mut reads, &mut writes);
        assert_eq!((reads, writes), ([0, 0, 7, 8, 9], [0, 0, 14, 16, 18]));
        let (mut reads, mut writes) = ([0u64; 2], [0u64; 2]);
        s.window_into(&mut reads, &mut writes);
        assert_eq!((reads, writes), ([8, 9], [16, 18]));
    }

    #[test]
    fn pending_accumulates_until_close() {
        let mut s = FileStats::new();
        s.record(5, 1);
        s.record(3, 0);
        assert_eq!(s.pending(), (8, 1));
        assert_eq!(s.closed_days(), 0);
        s.close_day(7);
        assert_eq!(s.pending(), (0, 0));
        assert_eq!(s.recent_reads(), &[8]);
    }

    #[test]
    fn fleet_routes_events_by_id() {
        let mut fleet = ExactStats::new(4, 3);
        fleet.ingest(&ev(0, 10, 0));
        fleet.ingest(&ev(2, 1, 5));
        fleet.ingest(&ev(0, 2, 1));
        fleet.close_day();
        assert_eq!(fleet.file(0).unwrap().recent_reads(), &[12]);
        assert_eq!(fleet.file(1).unwrap().recent_reads(), &[0]);
        assert_eq!(fleet.file(2).unwrap().recent_writes(), &[5]);
        assert_eq!(fleet.closed_days(), 1);
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
    }

    #[test]
    fn out_of_catalog_events_are_ignored() {
        let mut fleet = ExactStats::new(2, 1);
        fleet.ingest(&ev(9, 100, 100));
        fleet.close_day();
        assert_eq!(fleet.file(0).unwrap().sum_reads(), 0);
        assert!(fleet.file(9).is_none());
    }

    #[test]
    fn restored_fleets_are_checked() {
        let invalid = |r: Result<(), SnapshotError>| matches!(r, Err(SnapshotError::Invalid(_)));
        let mut fleet = ExactStats::new(2, 2);
        for day in 0..3 {
            fleet.ingest(&ev(day % 2, 1, 1));
            fleet.close_day();
        }
        assert!(fleet.check_restored(2, 3).is_ok());
        assert!(invalid(fleet.check_restored(3, 3)), "fleet size");
        assert!(invalid(fleet.check_restored(2, 4)), "closed days");
        let mut long = fleet.clone();
        long.files[0].recent_reads.push(0);
        long.files[0].recent_writes.push(0);
        assert!(invalid(long.check_restored(2, 3)), "ring longer than the window");
        let mut uneven = fleet.clone();
        uneven.files[1].recent_writes.pop();
        assert!(invalid(uneven.check_restored(2, 3)), "rings of unequal length");
        let mut lagging = fleet.clone();
        lagging.files[1].closed_days = 2;
        assert!(invalid(lagging.check_restored(2, 3)), "file behind the fleet");
        assert!(invalid(ExactStats { window: 0, ..fleet }.check_restored(2, 3)), "zero window");
    }

    #[test]
    fn window_clamps_to_one() {
        let fleet = ExactStats::new(0, 1);
        assert_eq!(fleet.window(), 1);
    }

    #[test]
    fn stats_serialize_round_trip() {
        let mut fleet = ExactStats::new(3, 2);
        fleet.ingest(&ev(1, 4, 2));
        fleet.close_day();
        fleet.ingest(&ev(0, 7, 0));
        let json = serde_json::to_string(&fleet).unwrap();
        let back: ExactStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fleet, "pending counts must survive the round trip too");
    }
}
