//! The [`StoragePool`]: one vdev per tier, object locations, I/O
//! accounting, and seeded fault consultation.
//!
//! The pool is the single chokepoint every store byte moves through, so
//! it owns the three concerns the migration pipeline composes:
//!
//! * **Location truth** — each tracked file resides on exactly one tier;
//!   a file found on two tiers is an in-flight migration the journal must
//!   explain (see [`crate::migrate::recover`]).
//! * **Virtual-time accounting** — every transfer is priced by the tier's
//!   [`VdevProfile`] in virtual milliseconds; the wall clock is never
//!   consulted, so runs replay bit-identically.
//! * **Fault consultation** — reads, writes, and allocations consult the
//!   shared seeded injector (`VdevRead`, `VdevWrite`, `TierFull`,
//!   `SlowVdev`) exactly once each in a fixed order. Initial placement
//!   (`put`) deliberately bypasses injection: chaos targets the migration
//!   path, not run setup.

use crate::object::{frame_object, synth_payload, unframe_object, ObjectFrame};
use crate::vdev::{FileVdev, MemoryVdev, Vdev, VdevError, VdevProfile};
use crate::StoreError;
use pricing::{Tier, TIER_COUNT};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use stream::{FaultSite, SharedInjector};

/// Latency inflation factor applied when the `SlowVdev` fault fires on a
/// transfer. Large enough that a default-profile transfer can trip a
/// tight migration timeout, small enough that the default timeout
/// tolerates it.
const SLOW_VDEV_FACTOR: u64 = 25;

/// One value per tier, addressed by [`Tier`] without any indexing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PerTier<T> {
    hot: T,
    cool: T,
    archive: T,
}

impl<T> PerTier<T> {
    fn get(&self, tier: Tier) -> &T {
        match tier {
            Tier::Hot => &self.hot,
            Tier::Cool => &self.cool,
            Tier::Archive => &self.archive,
        }
    }

    fn get_mut(&mut self, tier: Tier) -> &mut T {
        match tier {
            Tier::Hot => &mut self.hot,
            Tier::Cool => &mut self.cool,
            Tier::Archive => &mut self.archive,
        }
    }
}

/// Per-tier I/O counters, in logical bytes (the bandwidth/billing unit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierIo {
    /// Successful object reads.
    pub read_ops: u64,
    /// Successful object writes.
    pub write_ops: u64,
    /// Object deletes (including idempotent no-ops).
    pub delete_ops: u64,
    /// Logical bytes read.
    pub read_bytes: u64,
    /// Logical bytes written.
    pub write_bytes: u64,
}

/// How to construct a pool (the CLI/server-config spelling).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolBuild {
    /// In-memory vdevs: fast, ephemeral, cannot survive a restart.
    Memory,
    /// File vdevs under `<dir>/hot`, `<dir>/cool`, `<dir>/archive`, with
    /// the migration journal at `<dir>/journal.log`.
    Dir(PathBuf),
}

impl PoolBuild {
    /// The journal path for this build, if durable.
    #[must_use]
    pub fn journal_path(&self) -> Option<PathBuf> {
        match self {
            PoolBuild::Memory => None,
            PoolBuild::Dir(dir) => Some(dir.join("journal.log")),
        }
    }
}

/// A tiered pool of vdevs with location tracking and fault injection.
pub struct StoragePool {
    vdevs: PerTier<Box<dyn Vdev>>,
    profiles: PerTier<VdevProfile>,
    locations: BTreeMap<u64, Tier>,
    io: PerTier<TierIo>,
    injector: Option<SharedInjector>,
    virtual_ms: u64,
}

impl std::fmt::Debug for StoragePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoragePool")
            .field("objects", &self.locations.len())
            .field("virtual_ms", &self.virtual_ms)
            .finish()
    }
}

impl StoragePool {
    /// An empty in-memory pool with the standard tier profiles.
    #[must_use]
    pub fn memory() -> StoragePool {
        StoragePool {
            vdevs: PerTier {
                hot: Box::new(MemoryVdev::new()) as Box<dyn Vdev>,
                cool: Box::new(MemoryVdev::new()),
                archive: Box::new(MemoryVdev::new()),
            },
            profiles: PerTier {
                hot: VdevProfile::standard(Tier::Hot),
                cool: VdevProfile::standard(Tier::Cool),
                archive: VdevProfile::standard(Tier::Archive),
            },
            locations: BTreeMap::new(),
            io: PerTier::default(),
            injector: None,
            virtual_ms: 0,
        }
    }

    /// Opens (creating as needed) a file-backed pool under `dir`, locating
    /// the objects each tier's one directory listing found (see
    /// [`FileVdev`]). Objects found on more than one tier are left
    /// unlocated; journal recovery must resolve them before the pool is
    /// usable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Vdev`] if the tier directories cannot be created.
    pub fn open_dir(dir: &Path) -> Result<StoragePool, StoreError> {
        let mut pool = StoragePool::memory();
        pool.vdevs = PerTier {
            hot: Box::new(FileVdev::open(&dir.join("hot"), None)?) as Box<dyn Vdev>,
            cool: Box::new(FileVdev::open(&dir.join("cool"), None)?),
            archive: Box::new(FileVdev::open(&dir.join("archive"), None)?),
        };
        pool.locations = BTreeMap::new();
        for tier in Tier::ALL {
            for key in pool.vdevs.get(tier).keys() {
                match pool.locations.entry(key) {
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert(tier);
                    }
                    std::collections::btree_map::Entry::Occupied(o) => {
                        // Duplicate across tiers: in-flight migration.
                        o.remove();
                    }
                }
            }
        }
        Ok(pool)
    }

    /// Builds a pool from its config spelling.
    ///
    /// # Errors
    ///
    /// See [`StoragePool::open_dir`].
    pub fn build(spec: &PoolBuild) -> Result<StoragePool, StoreError> {
        match spec {
            PoolBuild::Memory => Ok(StoragePool::memory()),
            PoolBuild::Dir(dir) => StoragePool::open_dir(dir),
        }
    }

    /// Replaces a tier's vdev (tests: capacity-bounded or pre-seeded
    /// devices). Clears nothing else; call before any I/O.
    pub fn set_vdev(&mut self, tier: Tier, vdev: Box<dyn Vdev>) {
        *self.vdevs.get_mut(tier) = vdev;
    }

    /// Attaches the seeded fault injector consulted by read/write paths.
    pub fn attach_injector(&mut self, injector: SharedInjector) {
        self.injector = Some(injector);
    }

    /// Consults a fault site on the shared injector, if one is attached.
    #[must_use]
    pub fn fires(&mut self, site: FaultSite) -> bool {
        match &self.injector {
            Some(inj) => inj.borrow_mut().fires(site),
            None => false,
        }
    }

    /// The tier an object resides on, if located.
    #[must_use]
    pub fn location(&self, key: u64) -> Option<Tier> {
        self.locations.get(&key).copied()
    }

    /// Number of located objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether the pool holds no located objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Records an object's location (recovery and commit paths).
    pub fn set_location(&mut self, key: u64, tier: Tier) {
        self.locations.insert(key, tier);
    }

    /// Whether `key`'s object (possibly torn) is resident on `tier`.
    #[must_use]
    pub fn contains_at(&self, tier: Tier, key: u64) -> bool {
        self.vdevs.get(tier).contains(key)
    }

    /// Keys resident on more than one tier (unresolved migrations),
    /// read from the vdevs' key sets: a file vdev answers from its listing
    /// at open, kept current by every write and delete since.
    #[must_use]
    pub fn duplicate_keys(&self) -> Vec<u64> {
        let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
        for tier in Tier::ALL {
            for key in self.vdevs.get(tier).keys() {
                *counts.entry(key).or_insert(0) += 1;
            }
        }
        counts.into_iter().filter(|&(_, n)| n > 1).map(|(k, _)| k).collect()
    }

    /// Initial placement: synthesizes and stores `key`'s object on `tier`
    /// if not already located. Bypasses fault injection (setup, not
    /// migration) but still counts I/O and virtual time.
    ///
    /// # Errors
    ///
    /// Propagates vdev failures (including real capacity exhaustion).
    pub fn put(&mut self, key: u64, tier: Tier, logical_bytes: u64) -> Result<(), StoreError> {
        if self.locations.contains_key(&key) {
            return Ok(());
        }
        if self.vdevs.get(tier).contains(key) {
            // Already on disk from a previous run; adopt it.
            self.locations.insert(key, tier);
            return Ok(());
        }
        let frame = frame_object(logical_bytes, &synth_payload(key, logical_bytes));
        self.vdevs.get_mut(tier).write(key, &frame)?;
        let ms = self.profiles.get(tier).transfer_ms(true, logical_bytes, 0);
        self.account_write(tier, logical_bytes, ms);
        self.locations.insert(key, tier);
        Ok(())
    }

    /// Reads and verifies `key`'s object from its located tier.
    ///
    /// # Errors
    ///
    /// [`StoreError::Inconsistent`] if unlocated, [`StoreError::Vdev`] on
    /// read failure (including injected), [`StoreError::Inconsistent`] on
    /// frame corruption.
    pub fn get(&mut self, key: u64) -> Result<ObjectFrame, StoreError> {
        let tier = self
            .location(key)
            .ok_or_else(|| StoreError::Inconsistent(format!("object {key:016x} unlocated")))?;
        if self.fires(FaultSite::VdevRead) {
            return Err(StoreError::Vdev(VdevError::Io("injected vdev read fault".to_owned())));
        }
        let bytes = self.vdevs.get_mut(tier).read(key).map_err(StoreError::Vdev)?;
        let frame = unframe_object(&bytes).map_err(StoreError::Inconsistent)?;
        let mut ms = self.profiles.get(tier).transfer_ms(false, frame.logical_bytes, 0);
        if self.fires(FaultSite::SlowVdev) {
            ms = ms.saturating_mul(SLOW_VDEV_FACTOR);
        }
        let io = self.io.get_mut(tier);
        io.read_ops += 1;
        io.read_bytes = io.read_bytes.saturating_add(frame.logical_bytes);
        self.virtual_ms = self.virtual_ms.saturating_add(ms);
        Ok(frame)
    }

    /// Reads an object's raw frame from a specific tier, consulting the
    /// `VdevRead` and `SlowVdev` fault sites and charging virtual time
    /// for `logical_bytes` at the tier's profile (optionally capped by
    /// `bw_cap_mib_s`). Returns the frame and the virtual ms charged.
    ///
    /// # Errors
    ///
    /// [`VdevError`] on failure (injected failures charge no time).
    pub fn read_frame(
        &mut self,
        tier: Tier,
        key: u64,
        logical_bytes: u64,
        bw_cap_mib_s: u64,
    ) -> Result<(Vec<u8>, u64), VdevError> {
        if self.fires(FaultSite::VdevRead) {
            return Err(VdevError::Io("injected vdev read fault".to_owned()));
        }
        let bytes = self.vdevs.get_mut(tier).read(key)?;
        let mut ms = self.profiles.get(tier).transfer_ms(false, logical_bytes, bw_cap_mib_s);
        if self.fires(FaultSite::SlowVdev) {
            ms = ms.saturating_mul(SLOW_VDEV_FACTOR);
        }
        let io = self.io.get_mut(tier);
        io.read_ops += 1;
        io.read_bytes = io.read_bytes.saturating_add(logical_bytes);
        self.virtual_ms = self.virtual_ms.saturating_add(ms);
        Ok((bytes, ms))
    }

    /// Writes an object's raw frame to a specific tier, consulting the
    /// `TierFull`, `VdevWrite`, and `SlowVdev` fault sites and charging
    /// virtual time as [`StoragePool::read_frame`] does.
    ///
    /// # Errors
    ///
    /// [`VdevError`] on failure (injected failures charge no time).
    pub fn write_frame(
        &mut self,
        tier: Tier,
        key: u64,
        frame: &[u8],
        logical_bytes: u64,
        bw_cap_mib_s: u64,
    ) -> Result<u64, VdevError> {
        if self.fires(FaultSite::TierFull) {
            return Err(VdevError::Full { needed: logical_bytes, free: 0 });
        }
        if self.fires(FaultSite::VdevWrite) {
            return Err(VdevError::Io("injected vdev write fault".to_owned()));
        }
        self.vdevs.get_mut(tier).write(key, frame)?;
        let mut ms = self.profiles.get(tier).transfer_ms(true, logical_bytes, bw_cap_mib_s);
        if self.fires(FaultSite::SlowVdev) {
            ms = ms.saturating_mul(SLOW_VDEV_FACTOR);
        }
        let io = self.io.get_mut(tier);
        io.write_ops += 1;
        io.write_bytes = io.write_bytes.saturating_add(logical_bytes);
        self.virtual_ms = self.virtual_ms.saturating_add(ms);
        Ok(ms)
    }

    /// Deletes an object's frame from a specific tier (idempotent, never
    /// fault-injected: deletes sit on the commit/rollback paths, which
    /// must converge).
    ///
    /// # Errors
    ///
    /// [`VdevError::Io`] on real I/O failure.
    pub fn delete_frame(&mut self, tier: Tier, key: u64) -> Result<(), VdevError> {
        self.vdevs.get_mut(tier).delete(key)?;
        self.io.get_mut(tier).delete_ops += 1;
        Ok(())
    }

    fn account_write(&mut self, tier: Tier, logical_bytes: u64, ms: u64) {
        let io = self.io.get_mut(tier);
        io.write_ops += 1;
        io.write_bytes = io.write_bytes.saturating_add(logical_bytes);
        self.virtual_ms = self.virtual_ms.saturating_add(ms);
    }

    /// This tier's I/O counters.
    #[must_use]
    pub fn io(&self, tier: Tier) -> TierIo {
        *self.io.get(tier)
    }

    /// All tiers' counters in [`Tier::ALL`] order.
    #[must_use]
    pub fn io_all(&self) -> [TierIo; TIER_COUNT] {
        [self.io(Tier::Hot), self.io(Tier::Cool), self.io(Tier::Archive)]
    }

    /// Total virtual milliseconds charged for pool I/O so far.
    #[must_use]
    pub fn virtual_ms(&self) -> u64 {
        self.virtual_ms
    }

    /// Keys resident on `tier`, ascending.
    #[must_use]
    pub fn keys_at(&self, tier: Tier) -> Vec<u64> {
        self.vdevs.get(tier).keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream::FaultPlan;

    #[test]
    fn put_get_round_trip_and_counters() {
        let mut pool = StoragePool::memory();
        pool.put(1, Tier::Hot, 1000).unwrap();
        pool.put(2, Tier::Archive, 2000).unwrap();
        assert_eq!(pool.location(1), Some(Tier::Hot));
        assert_eq!(pool.location(2), Some(Tier::Archive));
        assert_eq!(pool.len(), 2);
        let frame = pool.get(1).unwrap();
        assert_eq!(frame.logical_bytes, 1000);
        assert_eq!(frame.payload, synth_payload(1, 1000));
        assert_eq!(pool.io(Tier::Hot).write_bytes, 1000);
        assert_eq!(pool.io(Tier::Hot).read_bytes, 1000);
        assert_eq!(pool.io(Tier::Archive).write_ops, 1);
        assert!(pool.virtual_ms() > 0);
        // put is idempotent for located objects.
        pool.put(1, Tier::Cool, 1000).unwrap();
        assert_eq!(pool.location(1), Some(Tier::Hot));
    }

    #[test]
    fn injected_faults_fire_on_the_store_path() {
        let mut pool = StoragePool::memory();
        pool.put(5, Tier::Hot, 100).unwrap();
        let plan = FaultPlan { vdev_read_permille: 1000, ..FaultPlan::quiet(3) };
        pool.attach_injector(plan.injector());
        match pool.read_frame(Tier::Hot, 5, 100, 0) {
            Err(VdevError::Io(msg)) => assert!(msg.contains("injected")),
            other => panic!("expected injected read fault, got {other:?}"),
        }
        let plan = FaultPlan { tier_full_permille: 1000, ..FaultPlan::quiet(4) };
        pool.attach_injector(plan.injector());
        match pool.write_frame(Tier::Cool, 5, b"frame", 100, 0) {
            Err(VdevError::Full { .. }) => {}
            other => panic!("expected injected tier-full, got {other:?}"),
        }
    }

    #[test]
    fn slow_vdev_inflates_virtual_time_deterministically() {
        let base = {
            let mut pool = StoragePool::memory();
            pool.put(9, Tier::Archive, 50_000_000).unwrap();
            let before = pool.virtual_ms();
            pool.read_frame(Tier::Archive, 9, 50_000_000, 0).unwrap();
            pool.virtual_ms() - before
        };
        let slow = {
            let mut pool = StoragePool::memory();
            pool.put(9, Tier::Archive, 50_000_000).unwrap();
            let plan = FaultPlan { slow_vdev_permille: 1000, ..FaultPlan::quiet(8) };
            pool.attach_injector(plan.injector());
            let before = pool.virtual_ms();
            pool.read_frame(Tier::Archive, 9, 50_000_000, 0).unwrap();
            pool.virtual_ms() - before
        };
        assert_eq!(slow, base * SLOW_VDEV_FACTOR);
    }

    #[test]
    fn dir_pool_scans_and_adopts_existing_objects() {
        let dir = std::env::temp_dir().join(format!("minicost-pool-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut pool = StoragePool::open_dir(&dir).unwrap();
            pool.put(11, Tier::Cool, 4096).unwrap();
        }
        let pool = StoragePool::open_dir(&dir).unwrap();
        assert_eq!(pool.location(11), Some(Tier::Cool), "reopen must rediscover objects");
        assert!(pool.duplicate_keys().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_copy_after_open_shows_in_duplicates_without_reopen() {
        let dir = std::env::temp_dir().join(format!("minicost-pool-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut pool = StoragePool::open_dir(&dir).unwrap();
        pool.put(7, Tier::Hot, 128).unwrap();
        assert!(pool.duplicate_keys().is_empty());
        let frame = frame_object(128, &synth_payload(7, 128));
        pool.write_frame(Tier::Cool, 7, &frame[..frame.len() / 2], 128, 0).unwrap();
        assert!(pool.contains_at(Tier::Cool, 7));
        assert_eq!(pool.duplicate_keys(), vec![7]);
        pool.delete_frame(Tier::Cool, 7).unwrap();
        assert!(pool.duplicate_keys().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        /// An open pool's listing answers what a fresh reopen of the same
        /// directory lists, after every `put`, `write_frame` and
        /// `delete_frame` of a generated sequence.
        #[test]
        fn listing_matches_a_fresh_reopen(
            ops in proptest::collection::vec((0u8..3, 0u64..6, 0usize..3), 1..24),
        ) {
            let dir =
                std::env::temp_dir().join(format!("minicost-pool-listing-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut pool = StoragePool::open_dir(&dir).unwrap();
            for &(op, key, tier) in &ops {
                let tier = Tier::ALL[tier];
                match op {
                    0 => pool.put(key, tier, 64).unwrap(),
                    1 => {
                        let frame = frame_object(64, &synth_payload(key, 64));
                        pool.write_frame(tier, key, &frame, 64, 0).unwrap();
                    }
                    _ => pool.delete_frame(tier, key).unwrap(),
                }
                let fresh = StoragePool::open_dir(&dir).unwrap();
                for tier in Tier::ALL {
                    proptest::prop_assert_eq!(pool.keys_at(tier), fresh.keys_at(tier));
                }
                proptest::prop_assert_eq!(pool.duplicate_keys(), fresh.duplicate_keys());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn duplicate_objects_are_unlocated_until_recovery() {
        let dir = std::env::temp_dir().join(format!("minicost-pool-dup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut pool = StoragePool::open_dir(&dir).unwrap();
            pool.put(7, Tier::Hot, 128).unwrap();
            // A second copy lands on cool (mid-migration crash state).
            let frame = frame_object(128, &synth_payload(7, 128));
            pool.write_frame(Tier::Cool, 7, &frame, 128, 0).unwrap();
        }
        let pool = StoragePool::open_dir(&dir).unwrap();
        assert_eq!(pool.location(7), None, "duplicates must stay unlocated");
        assert_eq!(pool.duplicate_keys(), vec![7]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
