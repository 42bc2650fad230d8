//! Seeded, deterministic fault injection for the serving path.
//!
//! A [`FaultPlan`] is a small, serializable description of *which* fault
//! sites may fire and *how often*. Whether a particular consultation of a
//! site actually fires is a pure splitmix64 function of
//! `(plan seed, site tag, consultation index)` — no wall clock, no global
//! RNG — so an entire chaos run is replayable from the plan alone, and the
//! supervisor's incident log is bit-identical across reruns (the property
//! `tests/chaos_serve.rs` pins).
//!
//! Two injectable wrappers live here:
//!
//! * [`FaultyBackend`] wraps any [`StorageBackend`] and corrupts the
//!   checkpoint path: transient I/O errors on read/write, *torn writes*
//!   (the write "succeeds" but only a prefix lands — a lying fsync), and
//!   single-byte *bit flips* in otherwise complete snapshots.
//! * [`FaultySource`] wraps any [`EventSource`] and corrupts delivery:
//!   duplicated days, dropped days, out-of-order events within a day, and
//!   burst amplification of request counts. Read-repair (`refetch`) is
//!   deliberately exempt — it models re-reading the durable log, which is
//!   what makes every delivery anomaly recoverable.
//!
//! Recoverability is budgeted, not assumed: [`FaultPlan::max_faults`]
//! caps the *total* number of injected faults, so any plan with a finite
//! budget below the supervisor's retry allowance is provably recoverable —
//! the headline invariant (DESIGN.md §11) that the post-recovery ledger is
//! bit-identical to the fault-free run.

use crate::checkpoint::{SnapshotError, StorageBackend};
use crate::event::{DayBatch, EventSource};
use crate::mix64;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

/// The named places a [`FaultPlan`] can inject a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// Checkpoint write fails with a transient I/O error (retryable).
    SaveIo,
    /// Checkpoint write "succeeds" but only a prefix of the bytes lands.
    TornWrite,
    /// Checkpoint write lands complete but with one byte flipped.
    BitFlip,
    /// Checkpoint read fails with a transient I/O error (retryable).
    LoadIo,
    /// A policy decision step fails.
    PolicyStep,
    /// An already-delivered day is delivered again.
    DuplicateDay,
    /// A day's batch is dropped from the delivery stream.
    DropDay,
    /// A day's events arrive out of order.
    Reorder,
    /// A day's request counts arrive amplified (duplicated upstream).
    Burst,
    /// A vdev object read fails with a transient I/O error (retryable).
    VdevRead,
    /// A vdev object write fails with a transient I/O error (retryable).
    VdevWrite,
    /// A vdev transfer runs at inflated latency (can trip the migration
    /// timeout; the transfer itself still completes).
    SlowVdev,
    /// A vdev allocation is refused as if the tier were full (retryable;
    /// models transient capacity pressure).
    TierFull,
    /// The process "crashes" between a migration's copy and its commit
    /// record — the torn state the journal must roll back on restart.
    CrashCopy,
}

/// Every site, in a fixed order (indexes match the injector's counters).
pub const FAULT_SITES: [FaultSite; 14] = [
    FaultSite::SaveIo,
    FaultSite::TornWrite,
    FaultSite::BitFlip,
    FaultSite::LoadIo,
    FaultSite::PolicyStep,
    FaultSite::DuplicateDay,
    FaultSite::DropDay,
    FaultSite::Reorder,
    FaultSite::Burst,
    FaultSite::VdevRead,
    FaultSite::VdevWrite,
    FaultSite::SlowVdev,
    FaultSite::TierFull,
    FaultSite::CrashCopy,
];

impl FaultSite {
    /// Stable index into per-site counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FaultSite::SaveIo => 0,
            FaultSite::TornWrite => 1,
            FaultSite::BitFlip => 2,
            FaultSite::LoadIo => 3,
            FaultSite::PolicyStep => 4,
            FaultSite::DuplicateDay => 5,
            FaultSite::DropDay => 6,
            FaultSite::Reorder => 7,
            FaultSite::Burst => 8,
            FaultSite::VdevRead => 9,
            FaultSite::VdevWrite => 10,
            FaultSite::SlowVdev => 11,
            FaultSite::TierFull => 12,
            FaultSite::CrashCopy => 13,
        }
    }

    /// Domain-separation tag mixed into the fire/no-fire hash.
    #[must_use]
    fn tag(self) -> u64 {
        // Arbitrary fixed odd constants; changing any silently reshuffles
        // every chaos run, so treat them as frozen.
        const TAGS: [u64; 14] = [
            0x5341_5645_494f_0001,
            0x544f_524e_5752_0003,
            0x4249_5446_4c49_0005,
            0x4c4f_4144_494f_0007,
            0x504f_4c49_4359_0009,
            0x4455_5044_4159_000b,
            0x4452_4f50_4441_000d,
            0x5245_4f52_4445_000f,
            0x4255_5253_5421_0011,
            0x5644_4556_5244_0013,
            0x5644_4556_5752_0015,
            0x534c_4f57_5644_0017,
            0x5449_4552_4655_0019,
            0x4352_4153_4843_001b,
        ];
        TAGS[self.index()]
    }

    /// Human-readable site name (used in incident logs and reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SaveIo => "save-io",
            FaultSite::TornWrite => "torn-write",
            FaultSite::BitFlip => "bit-flip",
            FaultSite::LoadIo => "load-io",
            FaultSite::PolicyStep => "policy-step",
            FaultSite::DuplicateDay => "duplicate-day",
            FaultSite::DropDay => "drop-day",
            FaultSite::Reorder => "reorder",
            FaultSite::Burst => "burst",
            FaultSite::VdevRead => "vdev-read",
            FaultSite::VdevWrite => "vdev-write",
            FaultSite::SlowVdev => "slow-vdev",
            FaultSite::TierFull => "tier-full",
            FaultSite::CrashCopy => "crash-copy",
        }
    }
}

/// A seeded, serializable, replayable fault schedule.
///
/// Each `*_permille` field is the probability (in parts per thousand) that
/// the corresponding [`FaultSite`] fires on one consultation. All zeros is
/// a quiet plan; [`FaultPlan::chaos`] is the standard mixed plan the CLI's
/// `--chaos-seed` shorthand expands to.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed every fire/no-fire decision derives from.
    pub seed: u64,
    /// Transient checkpoint-write failures.
    #[serde(default)]
    pub save_io_permille: u32,
    /// Torn (prefix-only) checkpoint writes.
    #[serde(default)]
    pub torn_write_permille: u32,
    /// Single-byte corruption of written checkpoints.
    #[serde(default)]
    pub bit_flip_permille: u32,
    /// Transient checkpoint-read failures.
    #[serde(default)]
    pub load_io_permille: u32,
    /// Policy decision-step failures.
    #[serde(default)]
    pub policy_step_permille: u32,
    /// Duplicated-day deliveries.
    #[serde(default)]
    pub duplicate_day_permille: u32,
    /// Dropped-day deliveries.
    #[serde(default)]
    pub drop_day_permille: u32,
    /// Out-of-order deliveries within a day.
    #[serde(default)]
    pub reorder_permille: u32,
    /// Burst-amplified deliveries.
    #[serde(default)]
    pub burst_permille: u32,
    /// Transient vdev object-read failures (store path).
    #[serde(default)]
    pub vdev_read_permille: u32,
    /// Transient vdev object-write failures (store path).
    #[serde(default)]
    pub vdev_write_permille: u32,
    /// Latency-inflated vdev transfers (store path).
    #[serde(default)]
    pub slow_vdev_permille: u32,
    /// Transient tier-full refusals on vdev allocation (store path).
    #[serde(default)]
    pub tier_full_permille: u32,
    /// Simulated crashes between a migration's copy and commit (store
    /// path; recoverable only across a restart).
    #[serde(default)]
    pub crash_copy_permille: u32,
    /// Hard cap on total injected faults across all sites; 0 means
    /// unlimited. A finite cap below the supervisor's retry budget makes
    /// the whole plan provably recoverable.
    #[serde(default)]
    pub max_faults: u32,
}

impl FaultPlan {
    /// A plan that never fires (the supervisor's default).
    #[must_use]
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            save_io_permille: 0,
            torn_write_permille: 0,
            bit_flip_permille: 0,
            load_io_permille: 0,
            policy_step_permille: 0,
            duplicate_day_permille: 0,
            drop_day_permille: 0,
            reorder_permille: 0,
            burst_permille: 0,
            vdev_read_permille: 0,
            vdev_write_permille: 0,
            slow_vdev_permille: 0,
            tier_full_permille: 0,
            crash_copy_permille: 0,
            max_faults: 0,
        }
    }

    /// The standard mixed chaos plan behind `--chaos-seed`: every site
    /// armed at a moderate rate, with a finite budget so the plan stays
    /// recoverable under the default supervisor retry allowance.
    #[must_use]
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            save_io_permille: 150,
            torn_write_permille: 120,
            bit_flip_permille: 120,
            load_io_permille: 150,
            policy_step_permille: 100,
            duplicate_day_permille: 120,
            drop_day_permille: 120,
            reorder_permille: 150,
            burst_permille: 120,
            vdev_read_permille: 0,
            vdev_write_permille: 0,
            slow_vdev_permille: 0,
            tier_full_permille: 0,
            crash_copy_permille: 0,
            max_faults: 6,
        }
    }

    /// The store-path chaos plan behind `--chaos-seed` when a store is
    /// attached: the checkpoint/delivery sites of [`FaultPlan::chaos`] plus
    /// every retryable vdev site, still under a finite budget below the
    /// migration retry allowance. `CrashCopy` stays disarmed — a simulated
    /// crash is recoverable only across a restart, so it is armed
    /// explicitly (see `store_crash`) rather than mixed into soak plans.
    #[must_use]
    pub fn store_chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            vdev_read_permille: 150,
            vdev_write_permille: 150,
            slow_vdev_permille: 120,
            tier_full_permille: 100,
            ..FaultPlan::chaos(seed)
        }
    }

    /// A plan that fires exactly one crash between copy and commit (first
    /// consultation, rate 1000‰, budget 1) and nothing else: the
    /// deterministic kill switch the chaos drills restart from.
    #[must_use]
    pub fn store_crash(seed: u64) -> FaultPlan {
        FaultPlan { crash_copy_permille: 1000, max_faults: 1, ..FaultPlan::quiet(seed) }
    }

    /// The firing rate for `site`, in parts per thousand.
    #[must_use]
    pub fn permille(&self, site: FaultSite) -> u32 {
        match site {
            FaultSite::SaveIo => self.save_io_permille,
            FaultSite::TornWrite => self.torn_write_permille,
            FaultSite::BitFlip => self.bit_flip_permille,
            FaultSite::LoadIo => self.load_io_permille,
            FaultSite::PolicyStep => self.policy_step_permille,
            FaultSite::DuplicateDay => self.duplicate_day_permille,
            FaultSite::DropDay => self.drop_day_permille,
            FaultSite::Reorder => self.reorder_permille,
            FaultSite::Burst => self.burst_permille,
            FaultSite::VdevRead => self.vdev_read_permille,
            FaultSite::VdevWrite => self.vdev_write_permille,
            FaultSite::SlowVdev => self.slow_vdev_permille,
            FaultSite::TierFull => self.tier_full_permille,
            FaultSite::CrashCopy => self.crash_copy_permille,
        }
    }

    /// Builds the shared runtime injector for this plan.
    #[must_use]
    pub fn injector(&self) -> SharedInjector {
        Rc::new(RefCell::new(FaultInjector::new(self.clone())))
    }

    /// Parses a plan from its JSON spelling (omitted rates default to 0).
    ///
    /// # Errors
    ///
    /// Returns the parse failure as a message.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        serde_json::from_str(text).map_err(|e| format!("fault plan: {e}"))
    }

    /// Serializes the plan to JSON (the `--fault-plan` file format).
    ///
    /// # Errors
    ///
    /// Returns the serialization failure as a message.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("fault plan: {e}"))
    }

    /// Reads and parses a plan file.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse failure as a message.
    pub fn load(path: &Path) -> Result<FaultPlan, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        FaultPlan::from_json(&text)
    }
}

/// Runtime state of one chaos run: per-site consultation counters plus the
/// spent fault budget. Deterministic: the `n`-th consultation of a site
/// fires iff `mix64(seed ⊕ tag ⊕ mix64(n)) mod 1000 < permille`.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    consults: [u64; FAULT_SITES.len()],
    injected: [u64; FAULT_SITES.len()],
    total_injected: u64,
}

impl FaultInjector {
    /// A fresh injector for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            consults: [0; FAULT_SITES.len()],
            injected: [0; FAULT_SITES.len()],
            total_injected: 0,
        }
    }

    /// Consults `site`: returns whether a fault fires here, advancing the
    /// site's deterministic consultation counter either way.
    pub fn fires(&mut self, site: FaultSite) -> bool {
        let ix = site.index();
        let n = self.consults[ix];
        self.consults[ix] += 1;
        let rate = u64::from(self.plan.permille(site));
        if rate == 0 {
            return false;
        }
        if self.plan.max_faults > 0 && self.total_injected >= u64::from(self.plan.max_faults) {
            return false;
        }
        let roll = mix64(self.plan.seed ^ site.tag() ^ mix64(n)) % 1000;
        let fire = roll < rate;
        if fire {
            self.injected[ix] += 1;
            self.total_injected += 1;
        }
        fire
    }

    /// A deterministic nonce for shaping the `site`'s current fault (e.g.
    /// which byte to flip); varies per injection of that site.
    #[must_use]
    pub fn nonce(&self, site: FaultSite) -> u64 {
        mix64(self.plan.seed ^ site.tag().rotate_left(17) ^ self.injected[site.index()])
    }

    /// Total faults injected so far, across all sites.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.total_injected
    }

    /// Faults injected at one site so far.
    #[must_use]
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }

    /// The plan this injector replays.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

/// The injector handle shared by every faulty wrapper in one run. Serving
/// is single-threaded, so plain `Rc<RefCell<…>>` suffices and keeps the
/// consultation order — and therefore the replay — deterministic.
pub type SharedInjector = Rc<RefCell<FaultInjector>>;

/// A [`StorageBackend`] wrapper that injects checkpoint-path faults.
#[derive(Debug)]
pub struct FaultyBackend<B: StorageBackend> {
    inner: B,
    injector: SharedInjector,
}

impl<B: StorageBackend> FaultyBackend<B> {
    /// Wraps `inner`, drawing faults from `injector`.
    pub fn new(inner: B, injector: SharedInjector) -> FaultyBackend<B> {
        FaultyBackend { inner, injector }
    }
}

impl<B: StorageBackend> StorageBackend for FaultyBackend<B> {
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, SnapshotError> {
        if self.injector.borrow_mut().fires(FaultSite::LoadIo) {
            return Err(SnapshotError::Io("injected transient read failure".to_owned()));
        }
        self.inner.read(path)
    }

    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
        let (save_io, torn, flip) = {
            let mut inj = self.injector.borrow_mut();
            (
                inj.fires(FaultSite::SaveIo),
                inj.fires(FaultSite::TornWrite),
                inj.fires(FaultSite::BitFlip),
            )
        };
        if save_io {
            return Err(SnapshotError::Io("injected transient write failure".to_owned()));
        }
        if torn && !bytes.is_empty() {
            // The write reports success but only a prefix lands — the
            // torn-write/lying-fsync failure mode the snapshot checksum catches
            // at the next restore.
            let nonce = self.injector.borrow().nonce(FaultSite::TornWrite);
            let keep = 1 + (nonce % (bytes.len() as u64)) as usize;
            return self.inner.write_atomic(path, &bytes[..keep.min(bytes.len() - 1)]);
        }
        if flip && !bytes.is_empty() {
            let nonce = self.injector.borrow().nonce(FaultSite::BitFlip);
            let ix = (nonce % (bytes.len() as u64)) as usize;
            let mut corrupted = bytes.to_vec();
            // Any nonzero xor works; 0x20 keeps most bytes printable so the
            // corruption survives text-mode copies in CI logs.
            corrupted[ix] ^= 0x20;
            return self.inner.write_atomic(path, &corrupted);
        }
        self.inner.write_atomic(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), SnapshotError> {
        self.inner.rename(from, to)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// An [`EventSource`] wrapper that injects delivery anomalies. Digests are
/// passed through untouched, so every corruption is detectable downstream;
/// `refetch` (read-repair) is exempt by design.
#[derive(Debug)]
pub struct FaultySource<S: EventSource> {
    inner: S,
    injector: SharedInjector,
    /// A batch held back for duplicate delivery on the next pull.
    replay: Option<DayBatch>,
}

impl<S: EventSource> FaultySource<S> {
    /// Wraps `inner`, drawing faults from `injector`.
    pub fn new(inner: S, injector: SharedInjector) -> FaultySource<S> {
        FaultySource { inner, injector, replay: None }
    }
}

impl<S: EventSource> EventSource for FaultySource<S> {
    fn next_batch(&mut self) -> Option<DayBatch> {
        if let Some(dup) = self.replay.take() {
            return Some(dup);
        }
        let mut batch = self.inner.next_batch()?;
        let (dup, drop_day, reorder, burst) = {
            let mut inj = self.injector.borrow_mut();
            (
                inj.fires(FaultSite::DuplicateDay),
                inj.fires(FaultSite::DropDay),
                inj.fires(FaultSite::Reorder),
                inj.fires(FaultSite::Burst),
            )
        };
        if drop_day {
            // This day's delivery vanishes; the consumer sees the next day
            // (or the end of the stream) and must read-repair the gap.
            batch = self.inner.next_batch()?;
        }
        if dup {
            self.replay = Some(batch.clone());
        }
        if reorder && batch.events.len() > 1 {
            batch.events.reverse();
        }
        if burst {
            for e in &mut batch.events {
                e.reads = e.reads.saturating_mul(7);
                e.writes = e.writes.saturating_mul(7);
            }
        }
        Some(batch)
    }

    fn refetch(&mut self, day: usize) -> Option<DayBatch> {
        self.inner.refetch(day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::FsBackend;
    use crate::event::TraceSource;
    use std::path::PathBuf;
    use tracegen::{DiurnalProfile, Trace, TraceConfig};

    fn trace() -> Trace {
        Trace::generate(&TraceConfig::small(10, 8, 31))
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("minicost-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::chaos(42);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        // Omitted rate fields default to zero (forward-compatible plans).
        let sparse: FaultPlan = serde_json::from_str("{\"seed\":7}").unwrap();
        assert_eq!(sparse, FaultPlan::quiet(7));
    }

    #[test]
    fn injector_is_deterministic_and_seed_sensitive() {
        let fire_pattern = |seed: u64| -> Vec<bool> {
            let mut inj =
                FaultInjector::new(FaultPlan { save_io_permille: 300, ..FaultPlan::quiet(seed) });
            (0..200).map(|_| inj.fires(FaultSite::SaveIo)).collect()
        };
        assert_eq!(fire_pattern(1), fire_pattern(1), "same seed, same schedule");
        assert_ne!(fire_pattern(1), fire_pattern(2), "different seed, different schedule");
        let fired = fire_pattern(1).iter().filter(|&&f| f).count();
        assert!(fired > 20 && fired < 120, "300‰ over 200 consults fired {fired} times");
    }

    #[test]
    fn budget_caps_total_injections() {
        let plan = FaultPlan { save_io_permille: 1000, max_faults: 3, ..FaultPlan::quiet(9) };
        let mut inj = FaultInjector::new(plan);
        let fired = (0..100).filter(|_| inj.fires(FaultSite::SaveIo)).count();
        assert_eq!(fired, 3, "budget of 3 must stop the 100%-rate site");
        assert_eq!(inj.total_injected(), 3);
        assert_eq!(inj.injected_at(FaultSite::SaveIo), 3);
    }

    #[test]
    fn store_plans_arm_the_right_sites() {
        let soak = FaultPlan::store_chaos(21);
        for site in
            [FaultSite::VdevRead, FaultSite::VdevWrite, FaultSite::SlowVdev, FaultSite::TierFull]
        {
            assert!(soak.permille(site) > 0, "{} must be armed in store_chaos", site.name());
        }
        assert_eq!(soak.permille(FaultSite::CrashCopy), 0, "soak plans never self-crash");
        assert_eq!(soak.max_faults, FaultPlan::chaos(21).max_faults);

        // The crash plan fires exactly once, at the first consultation.
        let mut inj = FaultInjector::new(FaultPlan::store_crash(4));
        assert!(inj.fires(FaultSite::CrashCopy));
        let again = (0..50).filter(|_| inj.fires(FaultSite::CrashCopy)).count();
        assert_eq!(again, 0, "budget 1 caps the crash plan");
        for site in FAULT_SITES {
            if site != FaultSite::CrashCopy {
                assert!(!inj.fires(site), "{} fired under store_crash", site.name());
            }
        }
    }

    #[test]
    fn quiet_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::quiet(5));
        for site in FAULT_SITES {
            for _ in 0..50 {
                assert!(!inj.fires(site), "{} fired under a quiet plan", site.name());
            }
        }
    }

    #[test]
    fn faulty_backend_torn_write_is_caught_by_checksum() {
        use crate::checkpoint::{Snapshot, StorageBackend};
        let plan = FaultPlan { torn_write_permille: 1000, ..FaultPlan::quiet(3) };
        let mut backend = FaultyBackend::new(FsBackend, plan.injector());
        let path = scratch("torn.json");
        let bytes = b"minicost-snapshot v2 fnv1a64:0000000000000000\n{}".to_vec();
        backend.write_atomic(&path, &bytes).unwrap();
        let landed = std::fs::read(&path).unwrap();
        assert!(landed.len() < bytes.len(), "torn write must truncate");
        assert!(Snapshot::load(&path).is_err(), "truncated snapshot must not load");
    }

    #[test]
    fn faulty_backend_bit_flip_changes_exactly_one_byte() {
        use crate::checkpoint::StorageBackend;
        let plan = FaultPlan { bit_flip_permille: 1000, ..FaultPlan::quiet(11) };
        let mut backend = FaultyBackend::new(FsBackend, plan.injector());
        let path = scratch("flip.json");
        let bytes: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        backend.write_atomic(&path, &bytes).unwrap();
        let landed = std::fs::read(&path).unwrap();
        assert_eq!(landed.len(), bytes.len());
        let diffs = landed.iter().zip(&bytes).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1, "exactly one byte must differ");
    }

    /// Ground-truth batches for the test trace.
    fn truth(t: &Trace) -> Vec<DayBatch> {
        let mut clean = TraceSource::new(t, DiurnalProfile::web_default(), 5, 0);
        std::iter::from_fn(|| clean.next_batch()).collect()
    }

    fn faulty(t: &Trace, plan: FaultPlan) -> FaultySource<TraceSource<'_>> {
        FaultySource::new(TraceSource::new(t, DiurnalProfile::web_default(), 5, 0), plan.injector())
    }

    #[test]
    fn duplicate_day_redelivers_the_same_batch() {
        let t = trace();
        let plan = FaultPlan { duplicate_day_permille: 1000, max_faults: 1, ..FaultPlan::quiet(3) };
        let mut source = faulty(&t, plan);
        let first = source.next_batch().unwrap();
        let second = source.next_batch().unwrap();
        assert_eq!(first, second, "the duplicated batch is delivered twice");
        assert_eq!(source.next_batch().unwrap().day, first.day + 1, "then delivery resumes");
    }

    #[test]
    fn drop_day_skips_a_delivery() {
        let t = trace();
        let plan = FaultPlan { drop_day_permille: 1000, max_faults: 1, ..FaultPlan::quiet(3) };
        let mut source = faulty(&t, plan);
        assert_eq!(source.next_batch().unwrap().day, 1, "day 0 vanished from delivery");
        // Read-repair recovers the dropped day from durable ground truth.
        assert_eq!(source.refetch(0).unwrap(), truth(&t)[0]);
    }

    #[test]
    fn reorder_breaks_the_digest_and_refetch_repairs() {
        let t = trace();
        let ground = truth(&t);
        let plan = FaultPlan { reorder_permille: 1000, ..FaultPlan::quiet(3) };
        let mut source = faulty(&t, plan);
        let mut saw_corruption = false;
        while let Some(b) = source.next_batch() {
            if b.events.len() > 1 {
                assert!(!b.verifies(), "day {} should fail its digest", b.day);
                saw_corruption = true;
            }
            assert_eq!(&source.refetch(b.day).unwrap(), &ground[b.day]);
        }
        assert!(saw_corruption, "a multi-event day must have been reordered");
    }

    #[test]
    fn burst_breaks_the_digest_and_refetch_repairs() {
        let t = trace();
        let ground = truth(&t);
        let plan = FaultPlan { burst_permille: 1000, ..FaultPlan::quiet(3) };
        let mut source = faulty(&t, plan);
        let mut saw_corruption = false;
        while let Some(b) = source.next_batch() {
            if b.events.iter().any(|e| e.reads > 0 || e.writes > 0) {
                assert!(!b.verifies(), "day {} should fail its digest", b.day);
                saw_corruption = true;
            }
            assert_eq!(&source.refetch(b.day).unwrap(), &ground[b.day]);
        }
        assert!(saw_corruption, "an active day must have been amplified");
    }
}
