//! Streaming request events.
//!
//! [`TraceSource`] adapts a daily-resolution trace into the hourly request
//! stream a live ingestion tier would observe, one [`DayBatch`] per day.
//! For each day it splits every active file's daily read/write counts
//! across 24 hours under a diurnal profile (total-conserving,
//! Poisson-jittered: [`tracegen::DiurnalProfile::split_day`]) and writes
//! one [`Event`] per active file-hour, hour-major, straight into the batch.
//! Only one day of splits is ever resident, and the expansion is seeded
//! **statelessly per (file, day)**, so a restarted consumer can resume at
//! any day boundary and observe bit-identical events — the property the
//! checkpoint/restore contract of DESIGN.md §10 rests on.

use crate::checkpoint::{FNV_OFFSET, FNV_PRIME};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tracegen::{DiurnalProfile, FileId, Trace, HOURS};

/// Bytes per GB used when stamping [`Event::bytes`] from a file's
/// gigabyte-denominated catalog size.
const BYTES_PER_GB: f64 = 1e9;

/// Domain-separation constant for read-count hour splits.
const READ_DOMAIN: u64 = 0x5245_4144_5245_4144; // "READREAD"

/// Domain-separation constant for write-count hour splits.
const WRITE_DOMAIN: u64 = 0x5752_4954_5752_4954; // "WRITWRIT"

/// One observed file-hour of request activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Global hour index: `day * 24 + hour_of_day`.
    pub hour: u64,
    /// The file the requests hit.
    pub file: FileId,
    /// Read operations observed this hour.
    pub reads: u64,
    /// Write operations observed this hour.
    pub writes: u64,
    /// The file's size in bytes (catalog metadata carried on every event so
    /// a stateless consumer can learn sizes from the stream alone).
    pub bytes: u64,
}

impl Event {
    /// The day this event belongs to.
    #[must_use]
    pub fn day(&self) -> usize {
        (self.hour / HOURS as u64) as usize
    }
}

/// The per-(file, day) RNG seed for hour apportionment: a stateless mix of
/// the stream seed, the file id, the day, and a read/write domain tag.
fn split_seed(seed: u64, id: FileId, day: usize, domain: u64) -> u64 {
    crate::mix64(seed ^ crate::mix64(u64::from(id.0).wrapping_add(domain)) ^ (day as u64) << 1)
}

/// One active file's hour splits for the day being expanded.
#[derive(Clone, Debug)]
struct FileDaySplit {
    file: FileId,
    bytes: u64,
    reads: [u64; HOURS],
    writes: [u64; HOURS],
}

/// Order-sensitive digest of a slice of events — the per-day control
/// total a [`DayBatch`] carries so consumers can detect delivery anomalies
/// (duplicated/dropped/reordered/amplified events) without access to
/// ground truth.
///
/// Each event's five fields are first mixed into one word, independently
/// of the running state: every field, as a `u64`, times its own odd
/// constant and rotated by its own amount, the five results XORed. With
/// the other fields fixed that word is a bijection of each field. One
/// FNV-style step per event then folds it in:
/// `h = (h ^ w) * FNV_PRIME; h ^= h >> 32`, a bijection of the running
/// state, injective in the word. So any single-field substitution changes
/// the digest, and the field mixes of successive events do not wait on
/// the chain. Digests are never persisted; the snapshot checksum is
/// [`crate::fnv1a64`].
#[must_use]
pub fn digest_events(events: &[Event]) -> u64 {
    let mut h = FNV_OFFSET;
    for e in events {
        let w = event_word(e);
        h = (h ^ w).wrapping_mul(FNV_PRIME);
        h ^= h >> 32;
    }
    h
}

/// Per-field odd multipliers and rotations of [`event_word`], in field
/// order: hour, file, reads, writes, bytes.
const FIELD_MIX: [(u64, u32); 5] = [
    (0x9E37_79B9_7F4A_7C15, 0),
    (0xBF58_476D_1CE4_E5B9, 13),
    (0x94D0_49BB_1331_11EB, 26),
    (0xC2B2_AE3D_27D4_EB4F, 39),
    (0x1656_67B1_9E37_79F9, 52),
];

/// One event's fields mixed into one word by [`FIELD_MIX`]; see
/// [`digest_events`].
fn event_word(e: &Event) -> u64 {
    [e.hour, u64::from(e.file.0), e.reads, e.writes, e.bytes]
        .iter()
        .zip(FIELD_MIX)
        .fold(0, |w, (&field, (k, r))| w ^ field.wrapping_mul(k).rotate_left(r))
}

/// One day's worth of events as a delivery unit, with a digest computed at
/// the source over the events *in canonical order* (ascending hour, ties
/// by file id — the order [`TraceSource`] expands a day in).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DayBatch {
    /// The day every event in `events` belongs to.
    pub day: usize,
    /// The day's events. A quiet day is an empty (but still delivered)
    /// batch, so consumers can distinguish "no traffic" from "no delivery".
    pub events: Vec<Event>,
    /// [`digest_events`] over the canonical-order events.
    pub digest: u64,
}

impl DayBatch {
    /// Builds a batch from canonical-order events, stamping the digest.
    #[must_use]
    pub fn sealed(day: usize, events: Vec<Event>) -> DayBatch {
        let digest = digest_events(&events);
        DayBatch { day, events, digest }
    }

    /// Whether the delivered event bytes still match the sealed digest.
    #[must_use]
    pub fn verifies(&self) -> bool {
        digest_events(&self.events) == self.digest
    }
}

/// A day-batched event delivery channel.
///
/// [`EventSource::next_batch`] models the live delivery path — the one the
/// chaos harness ([`crate::fault::FaultySource`]) corrupts. `refetch`
/// models read-repair from the durable log: it re-materializes one day's
/// canonical batch and is exempt from delivery faults, which is what makes
/// every stream anomaly recoverable (DESIGN.md §11).
pub trait EventSource {
    /// The next day's batch in horizon order, or `None` past the horizon.
    fn next_batch(&mut self) -> Option<DayBatch>;

    /// Re-reads `day`'s canonical batch from durable storage, or `None` if
    /// `day` is past the horizon.
    fn refetch(&mut self, day: usize) -> Option<DayBatch>;
}

/// The clean [`EventSource`] over a trace: `next_batch` and `refetch` both
/// expand their day through one day expander, so `next_batch` from day `d`
/// and `refetch(d)` return bit-identical batches (stateless
/// per-`(file, day)` seeding).
#[derive(Debug)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    profile: DiurnalProfile,
    seed: u64,
    next_day: usize,
    /// Scratch for the day being expanded, reused across days.
    splits: Vec<FileDaySplit>,
}

impl<'a> TraceSource<'a> {
    /// A source over `trace` starting at `start_day`.
    #[must_use]
    pub fn new(
        trace: &'a Trace,
        profile: DiurnalProfile,
        seed: u64,
        start_day: usize,
    ) -> TraceSource<'a> {
        TraceSource { trace, profile, seed, next_day: start_day, splits: Vec::new() }
    }

    /// Appends `day`'s events to `events` in canonical order: ascending
    /// hour, ties by file id (trace order), file-hours with no activity
    /// skipped. Only the files active that day are split.
    fn expand_day(&mut self, day: usize, events: &mut Vec<Event>) {
        self.splits.clear();
        for file in &self.trace.files {
            let day_reads = file.reads.get(day).copied().unwrap_or(0);
            let day_writes = file.writes.get(day).copied().unwrap_or(0);
            if day_reads == 0 && day_writes == 0 {
                continue;
            }
            let split = |total: u64, domain: u64| {
                // An empty split draws nothing, so it needs no RNG.
                if total == 0 {
                    return [0; HOURS];
                }
                let mut rng = StdRng::seed_from_u64(split_seed(self.seed, file.id, day, domain));
                self.profile.split_day(total, Some(&mut rng))
            };
            self.splits.push(FileDaySplit {
                file: file.id,
                bytes: (file.size_gb * BYTES_PER_GB).max(0.0) as u64,
                reads: split(day_reads, READ_DOMAIN),
                writes: split(day_writes, WRITE_DOMAIN),
            });
        }
        for (hour, h) in ((day * HOURS) as u64..).zip(0..HOURS) {
            // Branch-free compaction: every file-hour is pushed, and a quiet
            // one is truncated away again. Half the file-hours are quiet, in
            // no pattern a branch predictor learns.
            let mut len = events.len();
            for split in &self.splits {
                let (Some(&reads), Some(&writes)) = (split.reads.get(h), split.writes.get(h))
                else {
                    continue;
                };
                events.push(Event { hour, file: split.file, reads, writes, bytes: split.bytes });
                len += usize::from(reads | writes != 0);
                events.truncate(len);
            }
        }
    }
}

impl EventSource for TraceSource<'_> {
    fn next_batch(&mut self) -> Option<DayBatch> {
        if self.next_day >= self.trace.days {
            return None;
        }
        let day = self.next_day;
        self.next_day += 1;
        // Grown from empty: presized from the previous day's length, the
        // batch measured about 0.2 MB more peak RSS on a 1000-file fleet
        // under glibc, and no faster.
        let mut events = Vec::new();
        self.expand_day(day, &mut events);
        Some(DayBatch::sealed(day, events))
    }

    fn refetch(&mut self, day: usize) -> Option<DayBatch> {
        if day >= self.trace.days {
            return None;
        }
        let mut events = Vec::new();
        self.expand_day(day, &mut events);
        Some(DayBatch::sealed(day, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use tracegen::TraceConfig;

    fn trace() -> Trace {
        Trace::generate(&TraceConfig::small(12, 9, 41))
    }

    /// Every event a [`TraceSource`] delivers from `start_day` on, batches
    /// concatenated.
    fn events(t: &Trace, profile: DiurnalProfile, seed: u64, start_day: usize) -> Vec<Event> {
        let mut source = TraceSource::new(t, profile, seed, start_day);
        std::iter::from_fn(|| source.next_batch()).flat_map(|b| b.events).collect()
    }

    /// The event stream by definition, one event at a time: every
    /// (day, hour, file) in order, re-splitting the file-day from its
    /// stateless seed each time. Shares no scratch or batching with
    /// [`TraceSource::expand_day`].
    fn reference_events(t: &Trace, profile: &DiurnalProfile, seed: u64) -> Vec<Event> {
        let split = |file: &tracegen::FileSeries, day: usize, domain: u64, total: u64| {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, file.id, day, domain));
            profile.split_day(total, Some(&mut rng))
        };
        let mut out = Vec::new();
        for day in 0..t.days {
            for hour in 0..HOURS {
                for file in &t.files {
                    let reads = split(file, day, READ_DOMAIN, file.reads[day])[hour];
                    let writes = split(file, day, WRITE_DOMAIN, file.writes[day])[hour];
                    if reads + writes > 0 {
                        out.push(Event {
                            hour: (day * HOURS + hour) as u64,
                            file: file.id,
                            reads,
                            writes,
                            bytes: (file.size_gb * BYTES_PER_GB).max(0.0) as u64,
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn events_conserve_daily_totals_exactly() {
        let t = trace();
        let mut reads: BTreeMap<(usize, u32), u64> = BTreeMap::new();
        let mut writes: BTreeMap<(usize, u32), u64> = BTreeMap::new();
        for ev in events(&t, DiurnalProfile::web_default(), 7, 0) {
            *reads.entry((ev.day(), ev.file.0)).or_insert(0) += ev.reads;
            *writes.entry((ev.day(), ev.file.0)).or_insert(0) += ev.writes;
        }
        for file in &t.files {
            for day in 0..t.days {
                let key = (day, file.id.0);
                assert_eq!(reads.get(&key).copied().unwrap_or(0), file.reads[day]);
                assert_eq!(writes.get(&key).copied().unwrap_or(0), file.writes[day]);
            }
        }
    }

    #[test]
    fn events_are_time_ordered_with_id_tiebreak() {
        let t = trace();
        let events: Vec<Event> = events(&t, DiurnalProfile::web_default(), 3, 0);
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            assert!(
                pair[0].hour < pair[1].hour
                    || (pair[0].hour == pair[1].hour && pair[0].file < pair[1].file),
                "{:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
        // Every event carries some activity and a size.
        assert!(events.iter().all(|e| e.reads + e.writes > 0));
        assert!(events.iter().all(|e| e.bytes > 0));
    }

    #[test]
    fn stream_is_deterministic_and_seed_sensitive() {
        let t = trace();
        let p = DiurnalProfile::web_default;
        let a = events(&t, p(), 9, 0);
        let b = events(&t, p(), 9, 0);
        let c = events(&t, p(), 10, 0);
        assert_eq!(a, b);
        assert_ne!(a, c, "seed must shuffle the hourly apportionment");
    }

    #[test]
    fn starting_mid_horizon_matches_the_suffix() {
        let t = trace();
        let p = DiurnalProfile::web_default;
        let full = events(&t, p(), 5, 0);
        let resume_day = 4;
        let resumed = events(&t, p(), 5, resume_day);
        let suffix: Vec<Event> = full.into_iter().filter(|e| e.day() >= resume_day).collect();
        assert_eq!(resumed, suffix, "restart at a day boundary must be bit-identical");
    }

    #[test]
    fn empty_and_exhausted_streams_terminate() {
        let empty = Trace { days: 0, files: vec![] };
        assert_eq!(events(&empty, DiurnalProfile::flat(), 1, 0).len(), 0);
        let t = trace();
        let mut past_end = TraceSource::new(&t, DiurnalProfile::flat(), 1, t.days + 3);
        assert_eq!(std::iter::from_fn(|| past_end.next_batch()).count(), 0);
    }

    #[test]
    fn trace_source_batches_cover_the_stream_exactly() {
        let t = trace();
        let p = DiurnalProfile::web_default;
        let mut source = TraceSource::new(&t, p(), 5, 0);
        let mut batched = Vec::new();
        let mut days_seen = 0;
        while let Some(batch) = source.next_batch() {
            assert_eq!(batch.day, days_seen, "batches arrive in horizon order");
            assert!(batch.verifies(), "sealed batches self-verify");
            batched.extend(batch.events);
            days_seen += 1;
        }
        assert_eq!(days_seen, t.days);
        let flat = reference_events(&t, &p(), 5);
        assert_eq!(batched, flat, "batching must not reorder or drop events");
    }

    #[test]
    fn refetch_reproduces_delivered_batches_bit_identically() {
        let t = trace();
        let p = DiurnalProfile::web_default;
        let mut source = TraceSource::new(&t, p(), 9, 0);
        let delivered: Vec<DayBatch> = std::iter::from_fn(|| source.next_batch()).collect();
        for batch in &delivered {
            let again = source.refetch(batch.day).expect("within horizon");
            assert_eq!(&again, batch, "day {} refetch", batch.day);
        }
        assert!(source.refetch(t.days).is_none(), "past the horizon");
    }

    /// `fnv1a64` over the byte-serialized events of every batch delivered
    /// from `start_day` on, each batch prefixed by its day.
    fn fingerprint(batches: &[DayBatch]) -> u64 {
        let mut bytes = Vec::new();
        for batch in batches {
            bytes.extend_from_slice(&(batch.day as u64).to_le_bytes());
            for e in &batch.events {
                bytes.extend_from_slice(&e.hour.to_le_bytes());
                bytes.extend_from_slice(&e.file.0.to_le_bytes());
                bytes.extend_from_slice(&e.reads.to_le_bytes());
                bytes.extend_from_slice(&e.writes.to_le_bytes());
                bytes.extend_from_slice(&e.bytes.to_le_bytes());
            }
        }
        crate::checkpoint::fnv1a64(&bytes)
    }

    #[test]
    fn event_identity_is_pinned_across_seeds_profiles_and_start_days() {
        // Fingerprints recorded from the per-event iterator the day
        // expander replaced; every event must stay bit-identical.
        let t = trace();
        let cases = [
            (DiurnalProfile::flat(), 3, 0, 0x0b54_9fac_9225_5f8d_u64),
            (DiurnalProfile::flat(), 41, 5, 0x2af2_4645_41d9_30b6),
            (DiurnalProfile::web_default(), 5, 0, 0x94ea_67cf_9a6a_7eaf),
            (DiurnalProfile::web_default(), 9, 4, 0x8910_28aa_f397_ddf9),
            (DiurnalProfile::web_default(), 2020, 8, 0xeaf4_584b_95f2_66d8),
        ];
        for (profile, seed, start, pinned) in cases {
            let mut source = TraceSource::new(&t, profile.clone(), seed, start);
            let delivered: Vec<DayBatch> = std::iter::from_fn(|| source.next_batch()).collect();
            assert_eq!(fingerprint(&delivered), pinned, "seed {seed} from day {start}");
            for (ix, batch) in delivered.iter().enumerate() {
                assert_eq!(
                    source.refetch(batch.day).as_ref(),
                    Some(batch),
                    "refetch {}",
                    batch.day
                );
                let mut resumed = TraceSource::new(&t, profile.clone(), seed, batch.day);
                let suffix: Vec<DayBatch> = std::iter::from_fn(|| resumed.next_batch()).collect();
                assert_eq!(suffix, delivered[ix..], "seed {seed} resumed at day {}", batch.day);
            }
        }
        let wide = Trace::generate(&TraceConfig::small(200, 30, 7));
        let mut source = TraceSource::new(&wide, DiurnalProfile::web_default(), 11, 0);
        let delivered: Vec<DayBatch> = std::iter::from_fn(|| source.next_batch()).collect();
        assert_eq!(fingerprint(&delivered), 0x7f3a_8de2_d4bd_8787, "200 files x 30 days");
    }

    #[test]
    fn event_identity_is_pinned_at_benchmark_scale() {
        // The serve benchmarks' fleet: hundreds of distinct day totals per
        // day, more than the expander's limit cache has rows, so cached
        // limits are evicted and recomputed. Recorded before the cache.
        let t = Trace::generate(&TraceConfig {
            files: 1000,
            days: 20,
            seed: 2020,
            ..Default::default()
        });
        let mut source = TraceSource::new(&t, DiurnalProfile::web_default(), 2020, 0);
        let delivered: Vec<DayBatch> = std::iter::from_fn(|| source.next_batch()).collect();
        assert_eq!(fingerprint(&delivered), 0x648a_c0fd_d0f7_2705, "1000 files x 20 days");
    }

    /// The field `field` (0..5: hour, file, reads, writes, bytes) of `e`,
    /// passed through `f`. The file id is 32 bits wide, so its "bit 63"
    /// is bit 31.
    fn mutate(e: &Event, field: usize, f: impl Fn(u64, u32) -> u64) -> Event {
        let mut out = *e;
        match field {
            0 => out.hour = f(e.hour, 63),
            1 => out.file = FileId(f(u64::from(e.file.0), 31) as u32),
            2 => out.reads = f(e.reads, 63),
            3 => out.writes = f(e.writes, 63),
            _ => out.bytes = f(e.bytes, 63),
        }
        out
    }

    #[test]
    fn digest_detects_every_single_field_substitution() {
        let t = trace();
        let mut source = TraceSource::new(&t, DiurnalProfile::web_default(), 3, 0);
        let batch = source.next_batch().expect("day 0");
        assert!(batch.events.len() >= 20, "a busy day: {}", batch.events.len());
        let substitutions: [&dyn Fn(u64, u32) -> u64; 3] = [
            &|v, top| v ^ 1 << top,
            &|v, top| (v.wrapping_add(1)) & (u64::MAX >> (63 - top)),
            &|v, top| (v.wrapping_sub(1)) & (u64::MAX >> (63 - top)),
        ];
        for ix in 0..batch.events.len() {
            for field in 0..5 {
                for (kind, sub) in substitutions.iter().enumerate() {
                    let mut tampered = batch.clone();
                    tampered.events[ix] = mutate(&batch.events[ix], field, sub);
                    assert_ne!(tampered.events, batch.events);
                    assert!(!tampered.verifies(), "event {ix} field {field} substitution {kind}");
                }
            }
        }
    }

    /// A field value from a raw draw: 0 and `u64::MAX` one draw in four
    /// each, else the draw itself.
    fn edge_value(raw: u64) -> u64 {
        match raw % 4 {
            0 => 0,
            1 => u64::MAX,
            _ => raw,
        }
    }

    /// Events built five raw draws at a time, one per field; the file id
    /// keeps the low 32 bits, so it too takes 0 and `u32::MAX`.
    fn events_from(raw: &[u64]) -> Vec<Event> {
        raw.chunks_exact(5)
            .map(|w| Event {
                hour: edge_value(w[0]),
                file: FileId(edge_value(w[1]) as u32),
                reads: edge_value(w[2]),
                writes: edge_value(w[3]),
                bytes: edge_value(w[4]),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any one field of any one event of a random batch, changed to
        /// any other value, changes the digest.
        #[test]
        fn digest_changes_with_any_single_field_of_a_random_batch(
            raw in proptest::collection::vec(any::<u64>(), 5..200),
            at in any::<u64>(),
            field in 0usize..5,
            value in any::<u64>(),
        ) {
            let events = events_from(&raw);
            let ix = (at % events.len() as u64) as usize;
            let tampered_event = mutate(&events[ix], field, |_, top| {
                edge_value(value) & (u64::MAX >> (63 - top))
            });
            prop_assume!(tampered_event != events[ix]);
            let mut tampered = events.clone();
            tampered[ix] = tampered_event;
            prop_assert_ne!(digest_events(&tampered), digest_events(&events));
        }
    }

    #[test]
    fn digest_detects_swaps_drops_duplicates_and_reversal() {
        let t = trace();
        let mut source = TraceSource::new(&t, DiurnalProfile::web_default(), 3, 0);
        for batch in std::iter::from_fn(|| source.next_batch()).filter(|b| b.events.len() >= 2) {
            for ix in 0..batch.events.len() - 1 {
                let mut swapped = batch.clone();
                swapped.events.swap(ix, ix + 1);
                assert!(!swapped.verifies(), "day {} swap at {ix}", batch.day);
            }
            let mut dropped = batch.clone();
            dropped.events.pop();
            assert!(!dropped.verifies(), "day {} drop-last", batch.day);
            let mut duplicated = batch.clone();
            duplicated.events.insert(0, batch.events[0]);
            assert!(!duplicated.verifies(), "day {} duplicate-first", batch.day);
            let mut reversed = batch.clone();
            reversed.events.reverse();
            assert!(!reversed.verifies(), "day {} reversal", batch.day);
        }
    }

    #[test]
    fn digest_is_sensitive_to_every_anomaly_kind() {
        let t = trace();
        let mut source = TraceSource::new(&t, DiurnalProfile::web_default(), 3, 0);
        let batch = std::iter::from_fn(|| source.next_batch())
            .find(|b| b.events.len() >= 2)
            .expect("an active day");
        // Reorder.
        let mut reordered = batch.clone();
        reordered.events.reverse();
        assert!(!reordered.verifies());
        // Drop.
        let mut dropped = batch.clone();
        dropped.events.pop();
        assert!(!dropped.verifies());
        // Duplicate.
        let mut duplicated = batch.clone();
        let first = duplicated.events[0];
        duplicated.events.push(first);
        assert!(!duplicated.verifies());
        // Burst amplification.
        let mut burst = batch.clone();
        for e in &mut burst.events {
            e.reads = e.reads.saturating_mul(7);
            e.writes = e.writes.saturating_mul(7);
        }
        assert!(!burst.verifies());
    }
}
