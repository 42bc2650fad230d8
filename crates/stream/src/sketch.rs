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
use crate::wire::{invalid_state, put_column, put_len, put_u64_le, put_varint, Reader, Sink};
use serde::{DeError, Deserialize, Serialize, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
#[expect(
    clippy::disallowed_types,
    reason = "probed by id, never iterated; hashes through the fixed IdHasher, not RandomState"
)]
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A count-min sketch over `u64` keys with saturating counters.
///
/// Row `r` hashes a key under the salt `mix64(seed + r + 1)`. The salts
/// are derived state: computed once at construction and at every restore,
/// shared by clones (cloning allocates only the counters), and neither
/// encoded, serialized nor compared.
#[derive(Clone, Debug)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    seed: u64,
    rows: Vec<u64>,
    salts: Arc<[u64]>,
}

impl PartialEq for CountMinSketch {
    fn eq(&self, other: &CountMinSketch) -> bool {
        self.same_geometry(other) && self.rows == other.rows
    }
}

impl Eq for CountMinSketch {}

impl Serialize for CountMinSketch {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("width".to_owned(), self.width.to_value()),
            ("depth".to_owned(), self.depth.to_value()),
            ("seed".to_owned(), self.seed.to_value()),
            ("rows".to_owned(), self.rows.to_value()),
        ])
    }
}

impl Deserialize for CountMinSketch {
    fn from_value(v: &Value) -> Result<CountMinSketch, DeError> {
        let Value::Map(map) = v else {
            return Err(DeError::expected("object", v));
        };
        Ok(CountMinSketch::salted(
            serde::get_field(map, "width")?,
            serde::get_field(map, "depth")?,
            serde::get_field(map, "seed")?,
            serde::get_field(map, "rows")?,
        ))
    }
}

/// The flat index of the counter that the row `row`, hashed under `salt`,
/// assigns `key` in a sketch `width` counters wide:
/// `row * width + mix64(key ^ salt) % width`. A power-of-two width reduces
/// with a mask instead of a division; a zero width (only a restored,
/// not yet checked sketch has one) maps to column 0.
#[expect(clippy::cast_possible_truncation, reason = "the column is below `width`, a usize")]
fn cell(width: usize, row: usize, salt: u64, key: u64) -> usize {
    let h = mix64(key ^ salt);
    let wide = width as u64;
    let column =
        if wide.is_power_of_two() { h & (wide - 1) } else { h.checked_rem(wide).unwrap_or(0) };
    row.wrapping_mul(width).wrapping_add(column as usize)
}

impl CountMinSketch {
    /// A sketch with `depth` rows of `width` counters (both clamped to at
    /// least 1), hashed under `seed`.
    #[must_use]
    pub fn new(width: usize, depth: usize, seed: u64) -> CountMinSketch {
        let width = width.max(1);
        let depth = depth.max(1);
        CountMinSketch::salted(width, depth, seed, vec![0; width * depth])
    }

    /// A sketch over restored `rows`, with its row salts derived: one per
    /// row, but never more than there are counters, so a restored depth
    /// that [`CountMinSketch::check_restored`] will reject cannot make this
    /// allocate past what was read.
    fn salted(width: usize, depth: usize, seed: u64, rows: Vec<u64>) -> CountMinSketch {
        let hashed = depth.min(rows.len()) as u64;
        let salts = (1..=hashed).map(|row| mix64(seed.wrapping_add(row))).collect();
        CountMinSketch { width, depth, seed, rows, salts }
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

    /// Adds `count` to `key` in every row (saturating).
    pub fn add(&mut self, key: u64, count: u64) {
        let CountMinSketch { width, rows, salts, .. } = self;
        for (row, &salt) in salts.iter().enumerate() {
            if let Some(counter) = rows.get_mut(cell(*width, row, salt, key)) {
                *counter = counter.saturating_add(count);
            }
        }
    }

    /// The point estimate for `key`: minimum over rows. Never less than the
    /// true count added for `key` (absent counter saturation).
    #[must_use]
    pub fn estimate(&self, key: u64) -> u64 {
        self.salts
            .iter()
            .enumerate()
            .map(|(row, &salt)| {
                self.rows.get(cell(self.width, row, salt, key)).copied().unwrap_or(u64::MAX)
            })
            .fold(u64::MAX, u64::min)
    }

    /// Zeroes every counter, keeping the geometry and seed.
    pub fn clear(&mut self) {
        for cell in &mut self.rows {
            *cell = 0;
        }
    }

    /// Whether `other` hashes keys to the same cells: equal width, depth
    /// and seed.
    pub(crate) fn same_geometry(&self, other: &CountMinSketch) -> bool {
        (self.width, self.depth, self.seed) == (other.width, other.depth, other.seed)
    }

    /// Fewest payload bytes one encoded sketch takes: two varints, the
    /// seed word and the column length.
    pub(crate) const MIN_WIRE_BYTES: usize = 11;

    /// Appends the v3 encoding: width, depth, seed, then the counters as
    /// one row-major varint column.
    pub(crate) fn write_wire(&self, out: &mut impl Sink) {
        put_len(out, self.width);
        put_len(out, self.depth);
        put_u64_le(out, self.seed);
        put_column(out, &self.rows);
    }

    /// Reads what [`CountMinSketch::write_wire`] wrote.
    pub(crate) fn read_wire(r: &mut Reader<'_>) -> Result<CountMinSketch, SnapshotError> {
        Ok(CountMinSketch::salted(
            r.varint_usize("sketch width")?,
            r.varint_usize("sketch depth")?,
            r.word_le("sketch seed")?,
            r.varint_column("sketch counters")?,
        ))
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

/// Hashes a `u32` id through [`mix64`]: a fixed hasher, so the id index
/// of [`SpaceSaving`] never depends on the process-seeded `RandomState`.
/// Ids crafted to collide can slow a probe, but never past a scan of the
/// at most `capacity` ids the index holds.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = mix64(self.0 ^ u64::from(id));
    }
}

/// A deterministic space-saving heavy-hitter summary over `u32` keys.
///
/// Eviction picks the minimum count, breaking ties on the smallest id, so
/// the summary's evolution is a pure function of the update sequence.
///
/// Entries sit in slots in no particular order; an admitted id takes over
/// the evicted entry's slot in place. An id → slot index answers lookups
/// (it is only ever probed, never iterated). The id order is produced
/// only where it is observable: by [`SpaceSaving::entries`], the v3 wire
/// bytes and the serde tree; `==` matches entries id by id, whatever
/// their slots.
///
/// The entry to evict comes from a lazy min-index: a heap holding one
/// `(count, id)` key per entry, each key's count at most its entry's live
/// count. A hit leaves the index alone. Eviction pops the smallest key; a
/// stale one (its entry has since grown) is pushed back at the live count
/// and the pop repeats. Counts only grow, so the first fresh key popped is
/// the least `(count, id)` over all entries — the same entry a linear scan
/// for the first minimum in id order finds. Both indexes are derived
/// state: they are not encoded, not serialized, not compared, and are
/// rebuilt on every restore.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    /// The tracked entries by slot. A restored summary holds them in the
    /// order they were read until its first admission.
    entries: Vec<SpaceSavingEntry>,
    #[expect(
        clippy::disallowed_types,
        reason = "probed by id, never iterated; hashes through the fixed IdHasher, not RandomState"
    )]
    slot_of: HashMap<u32, usize, BuildHasherDefault<IdHasher>>,
    by_count: BinaryHeap<Reverse<(u64, u32)>>,
}

impl PartialEq for SpaceSaving {
    fn eq(&self, other: &SpaceSaving) -> bool {
        self.capacity == other.capacity
            && self.entries.len() == other.entries.len()
            && self.entries.iter().all(|e| other.get(e.id) == Some(*e))
    }
}

impl Eq for SpaceSaving {}

impl Serialize for SpaceSaving {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("capacity".to_owned(), self.capacity.to_value()),
            ("entries".to_owned(), self.entries().to_value()),
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

    /// A summary over restored `entries`, with its indexes rebuilt.
    fn indexed(capacity: usize, entries: Vec<SpaceSavingEntry>) -> SpaceSaving {
        let slot_of = entries.iter().enumerate().map(|(slot, e)| (e.id, slot)).collect();
        let by_count = entries.iter().map(|e| Reverse((e.count, e.id))).collect();
        SpaceSaving { capacity, entries, slot_of, by_count }
    }

    /// Maximum number of tracked keys.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently tracked keys, ascending by id.
    #[must_use]
    pub fn entries(&self) -> Vec<SpaceSavingEntry> {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|e| e.id);
        sorted
    }

    /// Adds `count` occurrences of `id`, evicting the current minimum if
    /// the summary is full and `id` is untracked.
    pub fn add(&mut self, id: u32, count: u64) {
        if let Some(e) = self.slot_of.get(&id).and_then(|&slot| self.entries.get_mut(slot)) {
            e.count = e.count.saturating_add(count);
            return;
        }
        if self.entries.len() < self.capacity {
            self.slot_of.insert(id, self.entries.len());
            self.entries.push(SpaceSavingEntry { id, count, overestimate: 0 });
            self.by_count.push(Reverse((count, id)));
            return;
        }
        // Full implies non-empty (capacity >= 1), so a minimum exists.
        let Some(slot) = self.pop_min() else {
            return;
        };
        let Some(e) = self.entries.get_mut(slot) else {
            return;
        };
        self.slot_of.remove(&e.id);
        let floor = e.count;
        *e = SpaceSavingEntry { id, count: floor.saturating_add(count), overestimate: floor };
        self.slot_of.insert(id, slot);
        self.by_count.push(Reverse((e.count, id)));
    }

    /// Pops the min-index down to its first fresh key and returns that
    /// entry's slot: the least `(count, id)` entry.
    fn pop_min(&mut self) -> Option<usize> {
        while let Some(Reverse((count, id))) = self.by_count.pop() {
            let Some(&slot) = self.slot_of.get(&id) else {
                continue; // unreachable: every entry has exactly one key
            };
            let live = self.entries.get(slot).map_or(count, |e| e.count);
            if live == count {
                return Some(slot);
            }
            self.by_count.push(Reverse((live, id)));
        }
        None
    }

    /// The tracked estimate for `id`, if currently tracked.
    #[must_use]
    pub fn get(&self, id: u32) -> Option<SpaceSavingEntry> {
        self.slot_of.get(&id).and_then(|&slot| self.entries.get(slot)).copied()
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
    pub(crate) fn write_wire(&self, out: &mut impl Sink) {
        put_len(out, self.capacity);
        put_len(out, self.entries.len());
        for e in self.entries() {
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

    /// Checks a restored summary, whose slots still hold the entries in
    /// the order they were read: a nonzero capacity it is not over, and
    /// strictly ascending ids, so no id is tracked twice.
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
            let sketch = CountMinSketch::salted(width, depth, 1, vec![0; cells]);
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

    /// The cell `CountMinSketch` hashed `key` to in `row` before it kept
    /// per-row salts: `mix64(key ^ mix64(seed + row + 1)) % width`.
    fn oracle_cell(width: usize, seed: u64, row: usize, key: u64) -> usize {
        let h = mix64(key ^ mix64(seed.wrapping_add(row as u64 + 1)));
        row * width + (h % width as u64) as usize
    }

    /// Every cell of `cms` for `keys`, and every estimate, equals the
    /// oracle formula's over `rows`, the counters the oracle accumulated.
    fn assert_matches_oracle(cms: &CountMinSketch, rows: &[u64], keys: &[u64]) {
        assert_eq!(cms.rows, rows);
        for &key in keys {
            let (width, seed) = (cms.width, cms.seed);
            let mut estimate = u64::MAX;
            for (row, &salt) in cms.salts.iter().enumerate() {
                let want = oracle_cell(width, seed, row, key);
                assert_eq!(cell(width, row, salt, key), want, "{width}x{} row {row}", cms.depth);
                estimate = estimate.min(rows[want]);
            }
            assert_eq!(cms.salts.len(), cms.depth);
            assert_eq!(cms.estimate(key), estimate, "key {key}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Salted cells and masked or divided columns equal the unsalted
        /// formula for random keys, seeds and geometries, powers of two
        /// and not, and stay equal through a wire and a serde round trip
        /// (which derive the salts afresh) with updates after each.
        #[test]
        fn cms_cells_match_the_unsalted_formula(
            keys in proptest::collection::vec(any::<u64>(), 1..40),
            seed in any::<u64>(),
            depth in 1usize..7,
            width_draw in (0u32..12, 1usize..3000, any::<bool>()),
        ) {
            let (log2, odd, pow2) = width_draw;
            let width = if pow2 { 1 << log2 } else { odd };
            let mut cms = CountMinSketch::new(width, depth, seed);
            let mut rows = vec![0u64; width * depth];
            let feed = |cms: &mut CountMinSketch, rows: &mut [u64], round: u64| {
                for (i, &key) in keys.iter().enumerate() {
                    let count = 1 + (i as u64 ^ round) % 5;
                    cms.add(key, count);
                    for row in 0..depth {
                        let c = &mut rows[oracle_cell(width, seed, row, key)];
                        *c = c.saturating_add(count);
                    }
                }
            };
            let probes: Vec<u64> = keys.iter().map(|k| k.wrapping_add(1)).chain(keys.clone()).collect();
            feed(&mut cms, &mut rows, 0);
            assert_matches_oracle(&cms, &rows, &probes);

            let mut wire = Vec::new();
            cms.write_wire(&mut wire);
            let mut back = CountMinSketch::read_wire(&mut Reader::new(&wire)).unwrap();
            prop_assert!(back.check_restored().is_ok());
            assert_matches_oracle(&back, &rows, &probes);
            feed(&mut back, &mut rows, 1);
            assert_matches_oracle(&back, &rows, &probes);

            let json = serde_json::to_string(&back).unwrap();
            let head = format!("{{\"width\":{width},\"depth\":{depth},\"seed\":{seed},\"rows\":[");
            prop_assert!(json.starts_with(&head), "{}", json);
            let mut again: CountMinSketch = serde_json::from_str(&json).unwrap();
            assert_matches_oracle(&again, &rows, &probes);
            feed(&mut again, &mut rows, 2);
            assert_matches_oracle(&again, &rows, &probes);
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
