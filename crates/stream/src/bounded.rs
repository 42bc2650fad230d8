//! Graceful degradation for fleets larger than exact state allows.
//!
//! [`BoundedStats`] caps memory at `O(max_tracked * window + sketch)`
//! regardless of fleet size by splitting the fleet into two tiers:
//!
//! * **Tracked tier** — the `max_tracked` heaviest files (by lifetime
//!   request mass, per a deterministic [`SpaceSaving`] summary) carry full
//!   [`FileStats`] windows, so the files that dominate cost are decided on
//!   exact features.
//! * **Sketched tier** — everything else is answered from count-min
//!   sketches: one pair per closed day in the ring (recent-window
//!   channels), one lifetime pair (normalizing means), and one open-day
//!   pair (current-day counts). Estimates never underestimate, so the long
//!   tail reads as "at least this active" rather than silently cold.
//!
//! Membership is re-evaluated at each day close; a file promoted into the
//! tracked tier has its window backfilled from the day-ring sketches. Note
//! that billing in the serve loop is always exact — this type approximates
//! *decision features* only (ISSUE 4, bounded mode contract).

use crate::checkpoint::SnapshotError;
use crate::event::Event;
use crate::sketch::{CountMinSketch, SpaceSaving};
use crate::stats::FileStats;
use crate::wire::{invalid_state, put_len, put_u64_le, put_varint, Reader, Sink};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Geometry and seeding for a [`BoundedStats`] instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundedConfig {
    /// Number of files tracked with exact windows.
    pub max_tracked: usize,
    /// Count-min sketch width (counters per row).
    pub cms_width: usize,
    /// Count-min sketch depth (independent rows).
    pub cms_depth: usize,
    /// Feature window in days (ring length).
    pub window: usize,
    /// Hash seed for every sketch.
    pub seed: u64,
}

impl BoundedConfig {
    /// A small default geometry: 64 tracked files, 1024×4 sketches.
    #[must_use]
    pub fn small(window: usize, seed: u64) -> BoundedConfig {
        BoundedConfig { max_tracked: 64, cms_width: 1024, cms_depth: 4, window, seed }
    }
}

/// One exactly-tracked heavy hitter.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct TrackedFile {
    id: u32,
    stats: FileStats,
}

/// Read/write count-min sketches for one closed day.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct DaySketch {
    reads: CountMinSketch,
    writes: CountMinSketch,
}

/// Bounded-memory fleet statistics: exact windows for the heavy hitters,
/// sketch estimates for the long tail. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundedStats {
    config: BoundedConfig,
    heavy: SpaceSaving,
    tracked: Vec<TrackedFile>,
    ring: VecDeque<DaySketch>,
    current: DaySketch,
    life_reads: CountMinSketch,
    life_writes: CountMinSketch,
    closed_days: u64,
}

impl BoundedStats {
    /// Fresh bounded statistics under `config` (window and `max_tracked`
    /// clamped to at least 1).
    #[must_use]
    pub fn new(config: BoundedConfig) -> BoundedStats {
        let config = BoundedConfig {
            max_tracked: config.max_tracked.max(1),
            window: config.window.max(1),
            ..config
        };
        let cms =
            |salt: u64| CountMinSketch::new(config.cms_width, config.cms_depth, config.seed ^ salt);
        BoundedStats {
            config,
            // Space-saving needs slack beyond the queried top-k: with
            // exactly k slots, every tail arrival evicts a genuine heavy
            // hitter and inherits its count. 4x is the usual ratio.
            heavy: SpaceSaving::new(config.max_tracked.saturating_mul(4)),
            tracked: Vec::new(),
            ring: VecDeque::new(),
            current: DaySketch { reads: cms(0x0D47), writes: cms(0x1D47) },
            life_reads: cms(0x2D47),
            life_writes: cms(0x3D47),
            closed_days: 0,
        }
    }

    /// The configuration this instance was built with.
    #[must_use]
    pub fn config(&self) -> &BoundedConfig {
        &self.config
    }

    /// Days closed so far.
    #[must_use]
    pub fn closed_days(&self) -> u64 {
        self.closed_days
    }

    /// Ids currently carried with exact windows, ascending.
    #[must_use]
    pub fn tracked_ids(&self) -> Vec<u32> {
        self.tracked.iter().map(|t| t.id).collect()
    }

    /// Whether `id` is in the exactly-tracked tier.
    #[must_use]
    pub fn is_tracked(&self, id: u32) -> bool {
        self.tracked.binary_search_by_key(&id, |t| t.id).is_ok()
    }

    /// Routes one event into the open day.
    pub fn ingest(&mut self, event: &Event) {
        let id = event.file.0;
        self.heavy.add(id, event.reads.saturating_add(event.writes));
        self.current.reads.add(u64::from(id), event.reads);
        self.current.writes.add(u64::from(id), event.writes);
        self.life_reads.add(u64::from(id), event.reads);
        self.life_writes.add(u64::from(id), event.writes);
        if let Some(t) = self
            .tracked
            .binary_search_by_key(&id, |t| t.id)
            .ok()
            .and_then(|p| self.tracked.get_mut(p))
        {
            t.stats.record(event.reads, event.writes);
        }
    }

    /// Closes the open day: rolls the day sketches into the ring, closes
    /// every tracked window, and re-evaluates tracked membership against
    /// the heavy-hitter summary (promotions backfill their window from the
    /// ring sketches; demoted files fall back to sketch answers).
    ///
    /// Once the ring is full, the day sketch that leaves it is cleared and
    /// becomes the new open day, so a day close allocates no sketch. Every
    /// ring day started as a clone of the open day, so the recycled one
    /// hashes alike (a restore rejects a ring that does not).
    pub fn close_day(&mut self) {
        let recycled =
            if self.ring.len() >= self.config.window { self.ring.pop_front() } else { None };
        let mut fresh = recycled.unwrap_or_else(|| self.current.clone());
        fresh.reads.clear();
        fresh.writes.clear();
        let day = std::mem::replace(&mut self.current, fresh);
        self.ring.push_back(day);
        while self.ring.len() > self.config.window {
            self.ring.pop_front();
        }
        for t in &mut self.tracked {
            t.stats.close_day(self.config.window);
        }
        self.closed_days += 1;
        self.retrack();
    }

    /// Aligns the tracked tier with the current heavy-hitter top set.
    fn retrack(&mut self) {
        let mut wanted: Vec<u32> =
            self.heavy.top(self.config.max_tracked).iter().map(|e| e.id).collect();
        wanted.sort_unstable();
        self.tracked.retain(|t| wanted.binary_search(&t.id).is_ok());
        for id in wanted {
            if self.tracked.binary_search_by_key(&id, |t| t.id).is_err() {
                let stats = self.backfill(id);
                let pos = match self.tracked.binary_search_by_key(&id, |t| t.id) {
                    Ok(p) | Err(p) => p,
                };
                self.tracked.insert(pos, TrackedFile { id, stats });
            }
        }
    }

    /// Reconstructs a promoted file's window from the day-ring sketches and
    /// its lifetime sums from the lifetime sketches.
    fn backfill(&self, id: u32) -> FileStats {
        let key = u64::from(id);
        let recent_reads: Vec<u64> = self.ring.iter().map(|d| d.reads.estimate(key)).collect();
        let recent_writes: Vec<u64> = self.ring.iter().map(|d| d.writes.estimate(key)).collect();
        FileStats::from_parts(
            self.config.window,
            recent_reads,
            recent_writes,
            self.closed_days,
            self.life_reads.estimate(key),
            self.life_writes.estimate(key),
        )
    }

    /// Writes the last `<= window` closed days of `id` into the tails of
    /// `reads`/`writes`, oldest first (see [`FileStats::window_into`]) —
    /// exact if tracked, otherwise ring-sketch estimates.
    pub fn window_into(&self, id: u32, reads: &mut [u64], writes: &mut [u64]) {
        if let Some(t) = self.tracked_entry(id) {
            t.stats.window_into(reads, writes);
            return;
        }
        reads.fill(0);
        writes.fill(0);
        let key = u64::from(id);
        let slots = reads.iter_mut().rev().zip(writes.iter_mut().rev());
        for ((r, w), day) in slots.zip(self.ring.iter().rev()) {
            *r = day.reads.estimate(key);
            *w = day.writes.estimate(key);
        }
    }

    /// Lifetime (read, write) totals for `id` — exact if tracked, otherwise
    /// count-min estimates (never under the truth).
    #[must_use]
    pub fn lifetime(&self, id: u32) -> (u64, u64) {
        if let Some(t) = self.tracked_entry(id) {
            return (t.stats.sum_reads(), t.stats.sum_writes());
        }
        (self.life_reads.estimate(u64::from(id)), self.life_writes.estimate(u64::from(id)))
    }

    /// Open-day (read, write) counts for `id` — exact if tracked, otherwise
    /// current-day sketch estimates.
    #[must_use]
    pub fn pending(&self, id: u32) -> (u64, u64) {
        if let Some(t) = self.tracked_entry(id) {
            return t.stats.pending();
        }
        (self.current.reads.estimate(u64::from(id)), self.current.writes.estimate(u64::from(id)))
    }

    /// The tracked-tier entry for `id`, if it currently holds a slot.
    fn tracked_entry(&self, id: u32) -> Option<&TrackedFile> {
        self.tracked.binary_search_by_key(&id, |t| t.id).ok().and_then(|p| self.tracked.get(p))
    }

    /// Every sketch this instance holds.
    fn sketches(&self) -> impl Iterator<Item = &CountMinSketch> {
        self.ring
            .iter()
            .chain(std::iter::once(&self.current))
            .flat_map(|d| [&d.reads, &d.writes])
            .chain([&self.life_reads, &self.life_writes])
    }

    /// Appends the v3 encoding: the configuration, the heavy-hitter
    /// summary, the tracked files, the day ring, the open day, the two
    /// lifetime sketches and the closed-day count.
    pub(crate) fn write_wire(&self, out: &mut impl Sink) {
        let c = &self.config;
        for n in [c.max_tracked, c.cms_width, c.cms_depth, c.window] {
            put_len(out, n);
        }
        put_u64_le(out, c.seed);
        self.heavy.write_wire(out);
        put_len(out, self.tracked.len());
        for t in &self.tracked {
            put_varint(out, u64::from(t.id));
            t.stats.write_wire(out);
        }
        put_len(out, self.ring.len());
        for day in &self.ring {
            day.reads.write_wire(out);
            day.writes.write_wire(out);
        }
        self.current.reads.write_wire(out);
        self.current.writes.write_wire(out);
        self.life_reads.write_wire(out);
        self.life_writes.write_wire(out);
        put_varint(out, self.closed_days);
    }

    /// Reads what [`BoundedStats::write_wire`] wrote.
    pub(crate) fn read_wire(r: &mut Reader<'_>) -> Result<BoundedStats, SnapshotError> {
        let config = BoundedConfig {
            max_tracked: r.varint_usize("bounded max tracked")?,
            cms_width: r.varint_usize("bounded sketch width")?,
            cms_depth: r.varint_usize("bounded sketch depth")?,
            window: r.varint_usize("bounded window")?,
            seed: r.word_le("bounded seed")?,
        };
        let heavy = SpaceSaving::read_wire(r)?;
        let n = r.seq_len("tracked files", 1 + FileStats::MIN_WIRE_BYTES)?;
        let mut tracked = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.varint_u32("tracked id")?;
            tracked.push(TrackedFile { id, stats: FileStats::read_wire(r)? });
        }
        let day = |r: &mut Reader<'_>| -> Result<DaySketch, SnapshotError> {
            Ok(DaySketch {
                reads: CountMinSketch::read_wire(r)?,
                writes: CountMinSketch::read_wire(r)?,
            })
        };
        let n = r.seq_len("day ring", 2 * CountMinSketch::MIN_WIRE_BYTES)?;
        let mut ring = VecDeque::with_capacity(n);
        for _ in 0..n {
            ring.push_back(day(r)?);
        }
        Ok(BoundedStats {
            config,
            heavy,
            tracked,
            ring,
            current: day(r)?,
            life_reads: CountMinSketch::read_wire(r)?,
            life_writes: CountMinSketch::read_wire(r)?,
            closed_days: r.varint("bounded closed days")?,
        })
    }

    /// Checks a restored instance against what [`BoundedStats::new`] and
    /// the day loop guarantee: a nonzero window and tracked budget, at
    /// most that many tracked files in strictly ascending id order, rings
    /// within the window whose day sketches share the open day's width,
    /// depth and seed, well-formed sketches and summary, and `closed_days`
    /// days closed everywhere.
    pub(crate) fn check_restored(&self, closed_days: u64) -> Result<(), SnapshotError> {
        let window = self.config.window;
        if window == 0 || self.config.max_tracked == 0 {
            return Err(invalid_state("bounded window or tracked budget is zero"));
        }
        if self.closed_days != closed_days {
            return Err(invalid_state("bounded closed-day count differs from the day cursor"));
        }
        if self.tracked.len() > self.config.max_tracked {
            return Err(invalid_state("more tracked files than the tracked budget"));
        }
        if !self.tracked.windows(2).all(|w| matches!(w, [a, b] if a.id < b.id)) {
            return Err(invalid_state("tracked ids not strictly ascending"));
        }
        if self.ring.len() > window {
            return Err(invalid_state("day ring longer than the window"));
        }
        let open = &self.current;
        if !self
            .ring
            .iter()
            .all(|d| d.reads.same_geometry(&open.reads) && d.writes.same_geometry(&open.writes))
        {
            return Err(invalid_state("day ring sketch hashed unlike the open day"));
        }
        self.heavy.check_restored()?;
        self.tracked.iter().try_for_each(|t| t.stats.check_restored(window, closed_days))?;
        self.sketches().try_for_each(CountMinSketch::check_restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::FileId;

    fn ev(ix: u32, reads: u64, writes: u64) -> Event {
        Event { hour: 0, file: FileId(ix), reads, writes, bytes: 1 }
    }

    /// `id`'s (reads, writes) window, one slot per ring day.
    fn window(b: &BoundedStats, id: u32) -> (Vec<u64>, Vec<u64>) {
        let (mut reads, mut writes) = (vec![0; b.ring.len()], vec![0; b.ring.len()]);
        b.window_into(id, &mut reads, &mut writes);
        (reads, writes)
    }

    fn tiny() -> BoundedStats {
        BoundedStats::new(BoundedConfig {
            max_tracked: 2,
            cms_width: 256,
            cms_depth: 4,
            window: 3,
            seed: 99,
        })
    }

    #[test]
    fn heavy_files_get_exact_windows() {
        let mut b = tiny();
        for day in 0..4u64 {
            b.ingest(&ev(0, 100 + day, 10));
            b.ingest(&ev(1, 50, 5));
            for cold in 2..6 {
                b.ingest(&ev(cold, 1, 0));
            }
            b.close_day();
        }
        assert_eq!(b.tracked_ids(), vec![0, 1], "the two heavy ids win the tracked slots");
        assert!(b.is_tracked(0) && !b.is_tracked(5));
        // Tracked answers are exact.
        assert_eq!(window(&b, 0), (vec![101, 102, 103], vec![10; 3]));
        assert_eq!(b.lifetime(1), (200, 20));
        assert_eq!(b.pending(0), (0, 0));
    }

    #[test]
    fn sketched_tail_never_underestimates() {
        let mut b = tiny();
        for day in 0..3u64 {
            b.ingest(&ev(0, 1000, 0));
            b.ingest(&ev(1, 900, 0));
            b.ingest(&ev(7, 3 + day, 2));
            b.close_day();
        }
        assert!(!b.is_tracked(7));
        let (win, _) = window(&b, 7);
        assert_eq!(win.len(), 3);
        for (got, want) in win.iter().zip([3u64, 4, 5]) {
            assert!(*got >= want, "sketch window {got} < true {want}");
        }
        let (lr, lw) = b.lifetime(7);
        assert!(lr >= 12 && lw >= 6);
    }

    #[test]
    fn ring_and_tracked_memory_stay_bounded() {
        let mut b = tiny();
        for day in 0..20u32 {
            for id in 0..50 {
                b.ingest(&ev(id, u64::from(day % 7 + id), 1));
            }
            b.close_day();
            assert!(b.ring.len() <= b.config().window);
            assert!(b.tracked.len() <= b.config().max_tracked);
        }
        assert_eq!(b.closed_days(), 20);
    }

    #[test]
    fn promotion_backfills_from_ring() {
        let mut b = tiny();
        // Two incumbents dominate; id 9 is quiet, then surges.
        for _ in 0..3 {
            b.ingest(&ev(0, 500, 0));
            b.ingest(&ev(1, 400, 0));
            b.ingest(&ev(9, 2, 1));
            b.close_day();
        }
        assert!(!b.is_tracked(9));
        for _ in 0..3 {
            b.ingest(&ev(9, 10_000, 0));
            b.ingest(&ev(0, 500, 0));
            b.close_day();
        }
        assert!(b.is_tracked(9), "surging file must be promoted");
        // Backfilled window exists and respects the no-underestimate bound
        // for the days still in the ring.
        let (win, _) = window(&b, 9);
        assert!(!win.is_empty() && win.len() <= 3);
        assert!(win.last().copied().unwrap_or(0) >= 10_000);
    }

    #[test]
    fn open_day_pending_reads_through_sketch_and_exact() {
        let mut b = tiny();
        b.ingest(&ev(4, 7, 3));
        let (r, w) = b.pending(4);
        assert!(r >= 7 && w >= 3);
        b.close_day();
        assert!(b.is_tracked(4));
        b.ingest(&ev(4, 2, 2));
        assert_eq!(b.pending(4), (2, 2), "tracked pending is exact");
    }

    #[test]
    fn rings_hold_min_window_closed_days_in_both_modes() {
        // Serve's decision fleet copies these rings positionally into its
        // closed-day columns, so both modes must hold exactly the last
        // `min(window, closed_days)` days — tracked or sketched, and across
        // a snapshot round trip.
        use crate::stats::ExactStats;
        let window = 3usize;
        let mut exact = ExactStats::new(window, 8);
        let mut bounded = tiny();
        let check = |exact: &ExactStats, bounded: &BoundedStats| {
            let want = window.min(exact.closed_days() as usize);
            assert_eq!(bounded.closed_days(), exact.closed_days());
            assert_eq!(bounded.ring.len(), want, "sketch ring");
            for id in 0..8u32 {
                let exact = exact.file(id as usize).unwrap();
                let tracked = bounded.tracked_entry(id).map(|t| &t.stats);
                for stats in std::iter::once(exact).chain(tracked) {
                    assert_eq!(stats.recent_reads().len(), want, "id {id}");
                    assert_eq!(stats.recent_writes().len(), want, "id {id}");
                }
            }
        };
        check(&exact, &bounded);
        for day in 0..9u64 {
            // Ids 0..2 are heavy (tracked), the rest a sketched tail, and
            // id 5 surges mid-run to force a promotion with backfill.
            for id in 0..8u32 {
                let reads = match id {
                    0 | 1 => 500,
                    5 if day >= 4 => 5_000,
                    _ => u64::from(id) + day,
                };
                let e = ev(id, reads, day % 2);
                exact.ingest(&e);
                bounded.ingest(&e);
            }
            exact.close_day();
            bounded.close_day();
            check(&exact, &bounded);
            let exact_back: ExactStats =
                serde_json::from_str(&serde_json::to_string(&exact).unwrap()).unwrap();
            let bounded_back: BoundedStats =
                serde_json::from_str(&serde_json::to_string(&bounded).unwrap()).unwrap();
            check(&exact_back, &bounded_back);
        }
        assert!(bounded.is_tracked(5), "the surge must have been promoted");
        assert!(!bounded.is_tracked(7), "the tail must stay sketched");
    }

    #[test]
    fn restored_bounded_stats_are_checked() {
        let invalid = |r: Result<(), SnapshotError>| matches!(r, Err(SnapshotError::Invalid(_)));
        let mut b = tiny();
        for day in 0..5u64 {
            for id in 0..4 {
                b.ingest(&ev(id, 10 * u64::from(id) + day, 1));
            }
            b.close_day();
        }
        assert_eq!(b.tracked.len(), 2);
        assert!(b.check_restored(5).is_ok());
        assert!(invalid(b.check_restored(6)), "closed days");
        let mut unsorted = b.clone();
        unsorted.tracked.reverse();
        assert!(invalid(unsorted.check_restored(5)), "tracked ids out of order");
        let mut over = b.clone();
        over.config.max_tracked = 1;
        assert!(invalid(over.check_restored(5)), "over the tracked budget");
        let mut long = b.clone();
        long.ring.push_back(long.current.clone());
        assert!(invalid(long.check_restored(5)), "ring longer than the window");
        let mut reseeded = b.clone();
        reseeded.ring[0].writes = CountMinSketch::new(256, 4, 7);
        assert!(invalid(reseeded.check_restored(5)), "ring sketch hashed unlike the open day");
        let mut torn = b.clone();
        torn.life_writes =
            serde_json::from_str(r#"{"width":2,"depth":2,"seed":0,"rows":[0,0,0]}"#).unwrap();
        assert!(invalid(torn.check_restored(5)), "mis-sized sketch");
        let mut zero = b;
        zero.config.window = 0;
        assert!(invalid(zero.check_restored(5)), "zero window");
    }

    /// Per-day digests for [`bounded_wire_digests_are_pinned_per_day`].
    const PINNED_DAY_DIGESTS: [u64; 60] = [
        0x8c29_0771_83d3_266c,
        0x81e1_818f_4b55_7209,
        0x09ea_cba6_df90_12f4,
        0x3490_d7ed_3628_b076,
        0x5e96_24ff_5ae6_d4f9,
        0x39cd_c227_6ae0_f2f4,
        0xb6e3_3eae_1487_06cc,
        0x7d6d_0b2a_c13c_6aa6,
        0xc06c_e743_56fd_fd52,
        0x5d2e_c3d5_30a5_3493,
        0x3810_e68e_9fff_68fb,
        0xd210_5859_900e_6288,
        0xf8ca_cc5d_9f91_8879,
        0xdd73_14e4_2b36_9b1c,
        0xd082_da93_d5ac_ca04,
        0xcae6_a9fc_8ed6_1376,
        0xb7ac_6653_5713_878d,
        0x2351_350a_7446_5d68,
        0xbeb2_b108_5931_40f2,
        0x25c2_07ff_f0e5_c513,
        0x9be9_5fd2_7055_eba8,
        0x02ac_aa6a_d75d_550a,
        0x4fb6_eec0_bcf9_2544,
        0x6fa9_2e71_0eb8_cd13,
        0x8b85_0f97_12c9_ada2,
        0xaeba_c3c4_0c8e_a61e,
        0x411f_7d34_1713_caa1,
        0xa503_e5b6_10ca_d2f9,
        0x4295_bed2_9059_7f09,
        0x4d77_c292_e257_c131,
        0xfdf7_7141_946e_a401,
        0x6d3d_c972_f085_ba43,
        0xeb76_894a_a024_4f86,
        0xeb95_6ee5_df97_f88f,
        0x3273_b145_c6f2_8389,
        0xb105_5188_56ac_d95c,
        0x9539_cdd6_6512_d405,
        0x6c98_94e6_3019_a114,
        0xb695_8e03_bfd9_c2c9,
        0xe5da_1f19_965d_ca75,
        0xf899_3380_ef13_1e04,
        0x061b_7b49_13c6_cb76,
        0xecc2_fd34_4aaa_ef80,
        0x2a27_fe5c_3e33_5eeb,
        0x3437_34c4_c942_858d,
        0x6328_4ddc_9295_0d3a,
        0x2453_bc78_79c8_4dd6,
        0xde81_3be9_9c28_2067,
        0x6da5_692d_3d63_95ac,
        0xc561_bbd2_681c_8f45,
        0x779a_5255_5a20_9ab5,
        0xcb86_5049_d3f8_1b6a,
        0x4126_c078_c7a6_5d77,
        0xa6a1_6b30_2170_0477,
        0x93b6_f260_0c66_0173,
        0x6755_a807_7d9b_e39f,
        0xa9c3_c365_162f_9bcb,
        0x480e_6f34_a61a_53fc,
        0x3d14_14ed_452c_34fd,
        0x4198_e190_d6b6_0b26,
    ];

    /// The fnv1a64 of the bounded wire bytes after each closed day of a
    /// seeded 300-file, 60-day trace at `max_tracked` 25, so 300 files
    /// contend for the summary's 100 slots and most untracked arrivals
    /// evict. The digests were recorded before `SpaceSaving` gained its
    /// min-index, on the linear-scan eviction it replaced; any change to
    /// eviction order shifts them. The benchmark's ledger pins cannot catch
    /// that, because its offline-optimum policy ignores features.
    #[test]
    fn bounded_wire_digests_are_pinned_per_day() {
        use crate::checkpoint::fnv1a64;
        use crate::event::{EventSource, TraceSource};
        use tracegen::{DiurnalProfile, Trace, TraceConfig};

        let trace = Trace::generate(&TraceConfig::small(300, 60, 2020));
        let mut source = TraceSource::new(&trace, DiurnalProfile::web_default(), 2020, 0);
        let mut b = BoundedStats::new(BoundedConfig {
            max_tracked: 25,
            cms_width: 256,
            cms_depth: 4,
            window: 7,
            seed: 2020,
        });
        let mut digests = Vec::new();
        while let Some(batch) = source.next_batch() {
            for e in &batch.events {
                b.ingest(e);
            }
            b.close_day();
            let mut wire = Vec::new();
            b.write_wire(&mut wire);
            digests.push(fnv1a64(&wire));
        }
        assert_eq!(digests.len(), PINNED_DAY_DIGESTS.len());
        for (day, (got, want)) in digests.iter().zip(PINNED_DAY_DIGESTS).enumerate() {
            assert_eq!(*got, want, "bounded state after day {day} drifted");
        }
    }

    #[test]
    fn bounded_stats_serialize_round_trip() {
        let mut b = tiny();
        for day in 0..4u64 {
            b.ingest(&ev(0, 10 + day, 1));
            b.ingest(&ev(3, 2, 2));
            b.close_day();
        }
        b.ingest(&ev(0, 5, 0));
        let json = serde_json::to_string(&b).unwrap();
        let back: BoundedStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
    }
}
