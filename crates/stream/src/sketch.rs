//! Sublinear frequency summaries for fleets too large for exact state.
//!
//! Two classic streaming structures back the bounded-memory mode:
//!
//! * [`CountMinSketch`] — a `depth × width` grid of saturating counters.
//!   Point queries never *under*-estimate; the overestimate is bounded by
//!   colliding mass, shrinking as `width` grows (Cormode & Muthukrishnan).
//! * [`SpaceSaving`] — the top-`k` heavy-hitter summary (Metwally et al.):
//!   at most `capacity` tracked ids, each with an exact-or-overestimated
//!   count and the overestimation bound it inherited at admission. A lazy
//!   min-index finds the entry to evict in `O(log k)` amortized.
//!
//! Both are deterministic: hashing derives from [`crate::mix64`] with an
//! explicit seed, never from the process-randomized std hasher, and
//! eviction ties break on ascending id. That keeps bounded-mode decisions
//! reproducible across runs and across checkpoint restores.

use crate::checkpoint::SnapshotError;
use crate::mix64;
use crate::wire::{invalid_state, put_column, put_len, put_u64_le, put_varint, Reader};
use serde::{DeError, Deserialize, Serialize, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A count-min sketch over `u64` keys with saturating counters.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    seed: u64,
    rows: Vec<u64>,
}

impl CountMinSketch {
    /// A sketch with `depth` rows of `width` counters (both clamped to at
    /// least 1), hashed under `seed`.
    #[must_use]
    pub fn new(width: usize, depth: usize, seed: u64) -> CountMinSketch {
        let width = width.max(1);
        let depth = depth.max(1);
        CountMinSketch { width, depth, seed, rows: vec![0; width * depth] }
    }

    /// Counters per row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of independent hash rows.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The flat cell index of `key` in `row`.
    fn cell(&self, row: usize, key: u64) -> usize {
        let h = mix64(key ^ mix64(self.seed.wrapping_add(row as u64 + 1)));
        // xtask-allow(panic-reachability): width clamped to at least 1 in new()
        row * self.width + (h % self.width as u64) as usize
    }

    /// Adds `count` to `key` in every row (saturating).
    pub fn add(&mut self, key: u64, count: u64) {
        for row in 0..self.depth {
            let ix = self.cell(row, key);
            if let Some(counter) = self.rows.get_mut(ix) {
                *counter = counter.saturating_add(count);
            }
        }
    }

    /// The point estimate for `key`: minimum over rows. Never less than the
    /// true count added for `key` (absent counter saturation).
    #[must_use]
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.rows.get(self.cell(row, key)).copied().unwrap_or(u64::MAX))
            .fold(u64::MAX, u64::min)
    }

    /// Zeroes every counter, keeping the geometry and seed.
    pub fn clear(&mut self) {
        for cell in &mut self.rows {
            *cell = 0;
        }
    }

    /// Fewest payload bytes one encoded sketch takes: two varints, the
    /// seed word and the column length.
    pub(crate) const MIN_WIRE_BYTES: usize = 11;

    /// Appends the v3 encoding: width, depth, seed, then the counters as
    /// one row-major varint column.
    pub(crate) fn write_wire(&self, out: &mut Vec<u8>) {
        put_len(out, self.width);
        put_len(out, self.depth);
        put_u64_le(out, self.seed);
        put_column(out, &self.rows);
    }

    /// Reads what [`CountMinSketch::write_wire`] wrote.
    pub(crate) fn read_wire(r: &mut Reader<'_>) -> Result<CountMinSketch, SnapshotError> {
        Ok(CountMinSketch {
            width: r.varint_usize("sketch width")?,
            depth: r.varint_usize("sketch depth")?,
            seed: r.word_le("sketch seed")?,
            rows: r.varint_column("sketch counters")?,
        })
    }

    /// Checks the geometry [`CountMinSketch::new`] guarantees: nonzero
    /// width and depth, and exactly `width * depth` counters.
    pub(crate) fn check_restored(&self) -> Result<(), SnapshotError> {
        if self.width == 0 || self.depth == 0 {
            return Err(invalid_state("sketch has zero width or depth"));
        }
        if self.width.checked_mul(self.depth) != Some(self.rows.len()) {
            return Err(invalid_state("sketch counter count differs from width x depth"));
        }
        Ok(())
    }
}

/// One tracked heavy hitter in a [`SpaceSaving`] summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceSavingEntry {
    /// The tracked key.
    pub id: u32,
    /// Estimated count: true count plus at most [`Self::overestimate`].
    pub count: u64,
    /// Upper bound on how much [`Self::count`] overestimates, inherited
    /// from the entry evicted at admission time (0 for keys tracked since
    /// their first occurrence).
    pub overestimate: u64,
}

/// A deterministic space-saving heavy-hitter summary over `u32` keys.
///
/// Entries are kept sorted by ascending id; eviction picks the minimum
/// count, breaking ties on the smallest id, so the summary's evolution is
/// a pure function of the update sequence.
///
/// The entry to evict comes from a lazy min-index: a heap holding one
/// `(count, id)` key per entry, each key's count at most its entry's live
/// count. A hit leaves the index alone. Eviction pops the smallest key; a
/// stale one (its entry has since grown) is pushed back at the live count
/// and the pop repeats. Counts only grow, so the first fresh key popped is
/// the least `(count, id)` over all entries — the same entry a linear scan
/// for the first minimum in id order finds. The index is derived state:
/// it is not encoded, not serialized, not compared, and is rebuilt on
/// every restore.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    entries: Vec<SpaceSavingEntry>,
    by_count: BinaryHeap<Reverse<(u64, u32)>>,
}

impl PartialEq for SpaceSaving {
    fn eq(&self, other: &SpaceSaving) -> bool {
        self.capacity == other.capacity && self.entries == other.entries
    }
}

impl Eq for SpaceSaving {}

impl Serialize for SpaceSaving {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("capacity".to_owned(), self.capacity.to_value()),
            ("entries".to_owned(), self.entries.to_value()),
        ])
    }
}

impl Deserialize for SpaceSaving {
    fn from_value(v: &Value) -> Result<SpaceSaving, DeError> {
        let Value::Map(map) = v else {
            return Err(DeError::expected("object", v));
        };
        Ok(SpaceSaving::indexed(
            serde::get_field(map, "capacity")?,
            serde::get_field(map, "entries")?,
        ))
    }
}

impl SpaceSaving {
    /// A summary tracking at most `capacity` keys (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> SpaceSaving {
        SpaceSaving::indexed(capacity.max(1), Vec::new())
    }

    /// A summary over restored `entries`, with its min-index rebuilt.
    fn indexed(capacity: usize, entries: Vec<SpaceSavingEntry>) -> SpaceSaving {
        let by_count = entries.iter().map(|e| Reverse((e.count, e.id))).collect();
        SpaceSaving { capacity, entries, by_count }
    }

    /// Maximum number of tracked keys.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently tracked keys, ascending by id.
    #[must_use]
    pub fn entries(&self) -> &[SpaceSavingEntry] {
        &self.entries
    }

    /// Adds `count` occurrences of `id`, evicting the current minimum if
    /// the summary is full and `id` is untracked.
    pub fn add(&mut self, id: u32, count: u64) {
        match self.entries.binary_search_by_key(&id, |e| e.id) {
            Ok(pos) => {
                if let Some(e) = self.entries.get_mut(pos) {
                    e.count = e.count.saturating_add(count);
                }
            }
            Err(pos) if self.entries.len() < self.capacity => {
                self.entries.insert(pos, SpaceSavingEntry { id, count, overestimate: 0 });
                self.by_count.push(Reverse((count, id)));
            }
            Err(pos) => {
                let Some((min_pos, floor)) = self.pop_min() else {
                    return; // full implies non-empty (capacity >= 1)
                };
                let admitted = SpaceSavingEntry {
                    id,
                    count: floor.saturating_add(count),
                    overestimate: floor,
                };
                // Slide the evicted entry's slot to `id`'s place in id order
                // (`pos` counts the evicted entry), shifting only the entries
                // between the two.
                let slot = if min_pos < pos { pos - 1 } else { pos };
                if let Some(span) = self.entries.get_mut(min_pos.min(slot)..=min_pos.max(slot)) {
                    if slot > min_pos {
                        span.rotate_left(1);
                    } else {
                        span.rotate_right(1);
                    }
                }
                if let Some(e) = self.entries.get_mut(slot) {
                    *e = admitted;
                }
                self.by_count.push(Reverse((admitted.count, id)));
            }
        }
    }

    /// Pops the min-index down to its first fresh key and returns that
    /// entry's position and count: the least `(count, id)` entry.
    fn pop_min(&mut self) -> Option<(usize, u64)> {
        while let Some(Reverse((count, id))) = self.by_count.pop() {
            let Ok(pos) = self.entries.binary_search_by_key(&id, |e| e.id) else {
                continue; // unreachable: every entry has exactly one key
            };
            let live = self.entries.get(pos).map_or(count, |e| e.count);
            if live == count {
                return Some((pos, count));
            }
            self.by_count.push(Reverse((live, id)));
        }
        None
    }

    /// The tracked estimate for `id`, if currently tracked.
    #[must_use]
    pub fn get(&self, id: u32) -> Option<SpaceSavingEntry> {
        self.entries
            .binary_search_by_key(&id, |e| e.id)
            .ok()
            .and_then(|pos| self.entries.get(pos))
            .copied()
    }

    /// The `k` heaviest tracked entries, descending by count, ties broken
    /// by ascending id.
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<SpaceSavingEntry> {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| b.count.cmp(&a.count).then(a.id.cmp(&b.id)));
        sorted.truncate(k);
        sorted
    }

    /// Appends the v3 encoding: capacity, then each entry's id, count and
    /// overestimate in id order.
    pub(crate) fn write_wire(&self, out: &mut Vec<u8>) {
        put_len(out, self.capacity);
        put_len(out, self.entries.len());
        for e in &self.entries {
            put_varint(out, u64::from(e.id));
            put_varint(out, e.count);
            put_varint(out, e.overestimate);
        }
    }

    /// Reads what [`SpaceSaving::write_wire`] wrote.
    pub(crate) fn read_wire(r: &mut Reader<'_>) -> Result<SpaceSaving, SnapshotError> {
        let capacity = r.varint_usize("heavy-hitter capacity")?;
        let n = r.seq_len("heavy-hitter entries", 3)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(SpaceSavingEntry {
                id: r.varint_u32("heavy-hitter id")?,
                count: r.varint("heavy-hitter count")?,
                overestimate: r.varint("heavy-hitter overestimate")?,
            });
        }
        Ok(SpaceSaving::indexed(capacity, entries))
    }

    /// Checks what [`SpaceSaving::add`]'s binary searches rely on: a
    /// nonzero capacity it is not over, and strictly ascending ids.
    pub(crate) fn check_restored(&self) -> Result<(), SnapshotError> {
        if self.capacity == 0 || self.entries.len() > self.capacity {
            return Err(invalid_state("heavy-hitter summary over its capacity"));
        }
        if !self.entries.windows(2).all(|w| matches!(w, [a, b] if a.id < b.id)) {
            return Err(invalid_state("heavy-hitter ids not strictly ascending"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn cms_never_underestimates() {
        let mut cms = CountMinSketch::new(64, 4, 11);
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..500u64 {
            let key = i % 37;
            let count = 1 + i % 5;
            cms.add(key, count);
            *truth.entry(key).or_insert(0) += count;
        }
        for (&key, &count) in &truth {
            assert!(cms.estimate(key) >= count, "key {key}: {} < {count}", cms.estimate(key));
        }
        assert_eq!(cms.estimate(999_999), 0, "wide sketch, untouched key should read 0");
    }

    #[test]
    fn cms_clear_resets_counts_only() {
        let mut cms = CountMinSketch::new(8, 2, 1);
        cms.add(3, 10);
        assert!(cms.estimate(3) >= 10);
        cms.clear();
        assert_eq!(cms.estimate(3), 0);
        assert_eq!((cms.width(), cms.depth()), (8, 2));
    }

    #[test]
    fn cms_is_seed_deterministic() {
        let mut a = CountMinSketch::new(32, 3, 7);
        let mut b = CountMinSketch::new(32, 3, 7);
        for i in 0..100 {
            a.add(i, i + 1);
            b.add(i, i + 1);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn space_saving_tracks_heavy_hitters_exactly_when_under_capacity() {
        let mut ss = SpaceSaving::new(4);
        ss.add(7, 10);
        ss.add(3, 5);
        ss.add(7, 1);
        let e = ss.get(7).unwrap();
        assert_eq!((e.count, e.overestimate), (11, 0));
        assert_eq!(ss.top(1)[0].id, 7);
    }

    #[test]
    fn space_saving_eviction_inherits_floor_and_bounds_error() {
        let mut ss = SpaceSaving::new(2);
        ss.add(1, 10);
        ss.add(2, 3);
        ss.add(5, 1); // evicts id 2 (min count 3): count = 3 + 1, overestimate = 3
        assert!(ss.get(2).is_none());
        let e = ss.get(5).unwrap();
        assert_eq!((e.count, e.overestimate), (4, 3));
        // True count of 5 is 1; count - overestimate <= true <= count.
        assert!(e.count - e.overestimate <= 1 && 1 <= e.count);
    }

    #[test]
    fn space_saving_eviction_tie_breaks_on_smallest_id() {
        let mut ss = SpaceSaving::new(2);
        ss.add(4, 2);
        ss.add(9, 2);
        ss.add(1, 1); // tie at count 2; id 4 (smallest) is evicted
        assert!(ss.get(4).is_none());
        assert!(ss.get(9).is_some());
        assert_eq!(ss.get(1).unwrap().overestimate, 2);
    }

    #[test]
    fn space_saving_entries_stay_id_sorted_and_top_orders_by_count() {
        let mut ss = SpaceSaving::new(8);
        for (id, n) in [(9u32, 2u64), (1, 7), (5, 7), (3, 1)] {
            ss.add(id, n);
        }
        let ids: Vec<u32> = ss.entries().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
        let top: Vec<u32> = ss.top(3).iter().map(|e| e.id).collect();
        assert_eq!(top, vec![1, 5, 9], "count desc, id asc on ties");
    }

    #[test]
    fn restored_sketches_and_summaries_are_checked() {
        let invalid = |r: Result<(), SnapshotError>| matches!(r, Err(SnapshotError::Invalid(_)));
        assert!(CountMinSketch::new(4, 2, 1).check_restored().is_ok());
        for (width, depth, cells) in [(0, 2, 0), (4, 0, 0), (4, 2, 7), (4, 2, 9)] {
            let sketch = CountMinSketch { width, depth, seed: 1, rows: vec![0; cells] };
            assert!(invalid(sketch.check_restored()), "{width}x{depth} with {cells} cells");
        }
        let mut ss = SpaceSaving::new(2);
        ss.add(1, 3);
        ss.add(5, 2);
        assert!(ss.check_restored().is_ok());
        let (a, b) = (ss.entries[0], ss.entries[1]);
        for (capacity, entries) in [(2, vec![b, a]), (2, vec![a, a]), (1, vec![a, b]), (0, vec![])]
        {
            assert!(invalid(SpaceSaving::indexed(capacity, entries).check_restored()));
        }
    }

    #[test]
    fn sketches_serialize_round_trip() {
        let mut cms = CountMinSketch::new(16, 3, 5);
        cms.add(12, 34);
        let cms2: CountMinSketch =
            serde_json::from_str(&serde_json::to_string(&cms).unwrap()).unwrap();
        assert_eq!(cms2, cms);

        let mut ss = SpaceSaving::new(3);
        ss.add(8, 2);
        ss.add(1, 9);
        let ss2: SpaceSaving = serde_json::from_str(&serde_json::to_string(&ss).unwrap()).unwrap();
        assert_eq!(ss2, ss);
    }

    /// The linear-scan eviction [`SpaceSaving::add`] used before its
    /// min-index, kept as the reference the indexed summary must match.
    struct LinearSpaceSaving {
        capacity: usize,
        entries: Vec<SpaceSavingEntry>,
    }

    impl LinearSpaceSaving {
        fn add(&mut self, id: u32, count: u64) {
            match self.entries.binary_search_by_key(&id, |e| e.id) {
                Ok(pos) => {
                    let e = &mut self.entries[pos];
                    e.count = e.count.saturating_add(count);
                }
                Err(pos) if self.entries.len() < self.capacity => {
                    self.entries.insert(pos, SpaceSavingEntry { id, count, overestimate: 0 });
                }
                Err(_) => {
                    // min_by_key keeps the first minimum, and entries are
                    // sorted by ascending id, so ties evict the smallest id.
                    let (min_pos, floor) = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, e)| e.count)
                        .map(|(i, e)| (i, e.count))
                        .unwrap();
                    self.entries.remove(min_pos);
                    let ins = match self.entries.binary_search_by_key(&id, |e| e.id) {
                        Ok(pos) | Err(pos) => pos,
                    };
                    self.entries.insert(
                        ins,
                        SpaceSavingEntry {
                            id,
                            count: floor.saturating_add(count),
                            overestimate: floor,
                        },
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The indexed summary evicts exactly what a linear scan for the
        /// first minimum in id order evicts, after every update: small
        /// counts force ties, counts near `u64::MAX` saturate, and a wire
        /// or serde round trip mid-sequence rebuilds the index, after which
        /// both copies keep being fed.
        #[test]
        fn space_saving_matches_linear_scan_oracle(
            updates in proptest::collection::vec((0u32..24, 0u64..20), 1..300),
            capacity in 1usize..=12,
            restore_at in 0usize..300,
            via_serde in any::<bool>(),
        ) {
            let mut ss = SpaceSaving::new(capacity);
            let mut oracle = LinearSpaceSaving { capacity, entries: Vec::new() };
            for (i, &(id, draw)) in updates.iter().enumerate() {
                // Mostly 1..=3 (ties); one draw in ten is u64::MAX or one less.
                let count = if draw < 18 { 1 + draw % 3 } else { u64::MAX - (draw - 18) };
                if i == restore_at {
                    ss = if via_serde {
                        serde_json::from_str(&serde_json::to_string(&ss).unwrap()).unwrap()
                    } else {
                        let mut wire = Vec::new();
                        ss.write_wire(&mut wire);
                        SpaceSaving::read_wire(&mut Reader::new(&wire)).unwrap()
                    };
                }
                ss.add(id, count);
                oracle.add(id, count);
                prop_assert_eq!(ss.entries(), oracle.entries.as_slice());
                prop_assert_eq!(ss.by_count.len(), ss.entries.len());
            }
        }
    }

    proptest! {
        /// The count-min invariant: estimates never fall below the true
        /// count, and never exceed the total mass inserted into the sketch
        /// (each cell only ever accumulates a subset of the stream).
        #[test]
        fn cms_overestimation_is_bounded(
            updates in proptest::collection::vec((0u64..50, 1u64..20), 1..200),
            width in 4usize..128,
            depth in 1usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let mut cms = CountMinSketch::new(width, depth, seed);
            let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
            let mut total = 0u64;
            for &(key, count) in &updates {
                cms.add(key, count);
                *truth.entry(key).or_insert(0) += count;
                total += count;
            }
            for (&key, &count) in &truth {
                let est = cms.estimate(key);
                prop_assert!(est >= count);
                prop_assert!(est <= total);
            }
        }

        /// The space-saving invariant: for every tracked id,
        /// `count - overestimate <= true count <= count`, and the summary
        /// never exceeds its capacity.
        #[test]
        fn space_saving_error_bounds_hold(
            updates in proptest::collection::vec((0u32..30, 1u64..10), 1..150),
            capacity in 1usize..12,
        ) {
            let mut ss = SpaceSaving::new(capacity);
            let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
            for &(id, count) in &updates {
                ss.add(id, count);
                *truth.entry(id).or_insert(0) += count;
            }
            prop_assert!(ss.entries().len() <= capacity);
            for e in ss.entries() {
                let true_count = truth.get(&e.id).copied().unwrap_or(0);
                prop_assert!(e.count >= true_count);
                prop_assert!(e.count - e.overestimate <= true_count);
            }
        }
    }
}
