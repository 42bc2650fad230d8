//! Versioned, checksummed, atomically-written snapshots of serving state.
//!
//! A [`Snapshot`] captures everything the online decision loop needs to
//! resume bit-identically after a crash: the fleet's current tiers, the
//! accrued cost ledgers, the online statistics (exact or bounded), and the
//! stream cursor. There is **no RNG cursor** to save — event expansion is
//! seeded statelessly per `(file, day)` (see [`crate::event`]), so
//! restarting the stream at `next_day` reproduces the exact event suffix.
//!
//! # On-disk format (v2)
//!
//! Since [`SNAPSHOT_VERSION`] 2 a snapshot file is a one-line header
//! followed by the JSON payload:
//!
//! ```text
//! minicost-snapshot v2 fnv1a64:<16 hex digits>\n
//! {"version":2,...}
//! ```
//!
//! The header checksum is FNV-1a over the **exact payload bytes**, so any
//! single-byte corruption — a bit flip, a torn write that truncated the
//! payload, an editor that "fixed" a field — is detected at load and
//! surfaced as [`SnapshotError::Corrupt`] rather than silently resuming
//! from poisoned state. FNV-1a's per-byte step `h ↦ (h ⊕ b) · p` is
//! injective in `h` for fixed `b` (odd multiplier mod 2⁶⁴), so a
//! single-byte substitution *always* changes the digest — detection is
//! deterministic, not probabilistic. Legacy v1 files (bare JSON, no
//! header) still load for backward compatibility; they simply get no
//! checksum validation.
//!
//! Writes are crash-safe in the classic way: serialize to a sibling
//! `*.tmp` file, fsync (failures surface as the distinct
//! [`SnapshotError::Sync`]), then `rename` over the target — a reader
//! never observes a half-written snapshot through the real filesystem.
//! All I/O goes through the [`StorageBackend`] trait so the chaos harness
//! ([`crate::fault`]) can inject torn writes and transient errors
//! underneath an unchanged save/load contract (DESIGN.md §11).

use crate::bounded::BoundedStats;
use crate::stats::ExactStats;
use pricing::{CostLedger, Money, Tier, TIER_COUNT};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Current snapshot schema version. Bump on any incompatible change to
/// [`Snapshot`] or the file framing; loads of other versions are rejected
/// rather than misinterpreted. Version 1 (bare JSON, no checksum header)
/// remains loadable.
pub const SNAPSHOT_VERSION: u32 = 2;

/// First token of the v2 file header.
const HEADER_MAGIC: &str = "minicost-snapshot";

/// FNV-1a offset basis (64-bit).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime (64-bit).
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice — the snapshot payload digest.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The complete serialized serving state at a decision-epoch boundary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Schema version; must equal [`SNAPSHOT_VERSION`] (or the legacy `1`)
    /// to load.
    pub version: u32,
    /// Name of the policy that produced the decisions (sanity-checked on
    /// restore so a snapshot is never resumed under a different policy).
    pub policy_name: String,
    /// Stream seed the event expansion is keyed on.
    pub seed: u64,
    /// First day not yet ingested; the restored stream starts here.
    pub next_day: usize,
    /// Decision epochs completed so far.
    pub epoch: u64,
    /// Decision cadence in days.
    pub decide_every: usize,
    /// Feature window in days.
    pub window: usize,
    /// Tier every file started in.
    pub initial_tier: Tier,
    /// Current tier per file, indexed by file id.
    pub tiers: Vec<Tier>,
    /// Fleet-wide accrued cost ledger.
    pub ledger: CostLedger,
    /// Accrued cost per file, indexed by file id.
    pub per_file: Vec<Money>,
    /// Per-day tier occupancy counts.
    pub occupancy: Vec<[usize; TIER_COUNT]>,
    /// Total tier transitions applied so far.
    pub tier_changes: u64,
    /// Logical bytes billed as tier-change traffic so far. Cross-checked
    /// at end of run against the store journal's committed migration bytes
    /// when a tiered object store is attached; absent in older snapshots
    /// (defaults to 0).
    #[serde(default)]
    pub billed_change_bytes: u64,
    /// Exact online statistics (present in exact mode).
    #[serde(default)]
    pub exact: Option<ExactStats>,
    /// Bounded online statistics (present in bounded mode).
    #[serde(default)]
    pub bounded: Option<BoundedStats>,
}

/// Why a snapshot failed to save or load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem error (message carries the OS detail).
    Io(String),
    /// The temp file could not be fsynced/flushed before the rename — the
    /// bytes may not be durable, so the write must not be trusted.
    Sync(String),
    /// The file was readable but not a valid snapshot document.
    Parse(String),
    /// The file framed as a checksummed snapshot but the payload digest
    /// (or the header itself) does not check out — corruption, a torn
    /// write, or tampering.
    Corrupt(String),
    /// The file is a snapshot from a different schema version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
}

impl SnapshotError {
    /// Whether retrying the same operation can plausibly succeed.
    ///
    /// Transient I/O and fsync failures are retryable; parse errors,
    /// checksum corruption, and version mismatches are properties of the
    /// bytes themselves and never clear on retry.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            SnapshotError::Io(_) | SnapshotError::Sync(_) => true,
            SnapshotError::Parse(_)
            | SnapshotError::Corrupt(_)
            | SnapshotError::VersionMismatch { .. } => false,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot io error: {msg}"),
            SnapshotError::Sync(msg) => write!(f, "snapshot sync error: {msg}"),
            SnapshotError::Parse(msg) => write!(f, "snapshot parse error: {msg}"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} incompatible with expected {expected}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Minimal storage abstraction the checkpoint codec writes through.
///
/// The production implementation is [`FsBackend`]; the chaos harness wraps
/// any backend in [`crate::fault::FaultyBackend`] to inject I/O errors,
/// torn writes, and bit flips underneath an unchanged caller.
pub trait StorageBackend {
    /// Reads the entire file at `path`.
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, SnapshotError>;

    /// Writes `bytes` to `path` atomically (tmp + fsync + rename): after a
    /// successful return the file holds exactly `bytes`; after an error the
    /// previous contents (if any) are still intact.
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError>;

    /// Renames `from` over `to` (used by checkpoint rotation).
    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), SnapshotError>;

    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// The real-filesystem [`StorageBackend`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FsBackend;

impl StorageBackend for FsBackend {
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, SnapshotError> {
        std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| SnapshotError::Io(format!("bad snapshot path {}", path.display())))?;
        let tmp = path.with_file_name(format!("{file_name}.tmp"));
        {
            let mut f =
                std::fs::File::create(&tmp).map_err(|e| SnapshotError::Io(e.to_string()))?;
            f.write_all(bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
            // Flush to stable storage *before* the rename: a rename of an
            // unsynced file can survive a crash as a torn write, which is
            // exactly the corruption the v2 checksum exists to catch. The
            // failure is surfaced distinctly so callers can tell "disk said
            // no" (retryable) from "document is garbage" (not).
            f.sync_all().map_err(|e| SnapshotError::Sync(e.to_string()))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), SnapshotError> {
        std::fs::rename(from, to).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The path of rotation slot `slot` for checkpoint `path`: slot 0 is
/// `path` itself, slot `n` is `path` with `.n` appended
/// (`checkpoint.json.1`, `checkpoint.json.2`, ...).
#[must_use]
pub fn rotated_path(path: &Path, slot: usize) -> PathBuf {
    if slot == 0 {
        return path.to_path_buf();
    }
    let mut os = path.as_os_str().to_owned();
    os.push(format!(".{slot}"));
    PathBuf::from(os)
}

/// Restore candidates in newest-first order: `path`, `path.1`, ...,
/// `path.keep`.
#[must_use]
pub fn rotation_candidates(path: &Path, keep: usize) -> Vec<PathBuf> {
    (0..=keep).map(|slot| rotated_path(path, slot)).collect()
}

/// Shifts existing checkpoints one rotation slot down (`path.1` → `path.2`,
/// `path` → `path.1`, the oldest slot falling off) so a subsequent
/// [`Snapshot::save_with`] of `path` keeps `keep` predecessors on disk.
/// With `keep == 0` this is a no-op and saves simply overwrite.
pub fn rotate(
    backend: &mut dyn StorageBackend,
    path: &Path,
    keep: usize,
) -> Result<(), SnapshotError> {
    for slot in (0..keep).rev() {
        let from = rotated_path(path, slot);
        if backend.exists(&from) {
            backend.rename(&from, &rotated_path(path, slot + 1))?;
        }
    }
    Ok(())
}

impl Snapshot {
    /// Serializes this snapshot into the v2 framed byte format: checksum
    /// header line + JSON payload.
    pub fn to_checked_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let json = serde_json::to_string(self).map_err(|e| SnapshotError::Parse(e.to_string()))?;
        let digest = fnv1a64(json.as_bytes());
        let mut out =
            format!("{HEADER_MAGIC} v{SNAPSHOT_VERSION} fnv1a64:{digest:016x}\n").into_bytes();
        out.extend_from_slice(json.as_bytes());
        Ok(out)
    }

    /// Parses and validates snapshot bytes written by
    /// [`Snapshot::to_checked_bytes`] — or a legacy v1 bare-JSON document.
    ///
    /// Every validation failure is an error, never a best-effort value:
    /// header malformed / digest mismatch ⇒ [`SnapshotError::Corrupt`],
    /// invalid JSON ⇒ [`SnapshotError::Parse`], wrong schema version ⇒
    /// [`SnapshotError::VersionMismatch`].
    pub fn from_checked_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.starts_with(HEADER_MAGIC.as_bytes()) {
            let newline = bytes
                .iter()
                .position(|&b| b == b'\n')
                .ok_or_else(|| SnapshotError::Corrupt("header line not terminated".to_owned()))?;
            let header = std::str::from_utf8(&bytes[..newline])
                .map_err(|e| SnapshotError::Corrupt(format!("header not utf-8: {e}")))?;
            let payload = &bytes[newline + 1..];
            let mut fields = header.split(' ');
            let (magic, version, digest) = (fields.next(), fields.next(), fields.next());
            if magic != Some(HEADER_MAGIC) || fields.next().is_some() {
                return Err(SnapshotError::Corrupt(format!("malformed header {header:?}")));
            }
            match version {
                Some(v) if v == format!("v{SNAPSHOT_VERSION}") => {}
                Some(other) => {
                    let found = other.strip_prefix('v').and_then(|n| n.parse().ok()).unwrap_or(0);
                    return Err(SnapshotError::VersionMismatch {
                        found,
                        expected: SNAPSHOT_VERSION,
                    });
                }
                None => return Err(SnapshotError::Corrupt("header missing version".to_owned())),
            }
            let stated = digest
                .and_then(|d| d.strip_prefix("fnv1a64:"))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| SnapshotError::Corrupt("header digest unreadable".to_owned()))?;
            let actual = fnv1a64(payload);
            if stated != actual {
                return Err(SnapshotError::Corrupt(format!(
                    "payload digest {actual:016x} != header {stated:016x}"
                )));
            }
            let json = std::str::from_utf8(payload)
                .map_err(|e| SnapshotError::Parse(format!("payload not utf-8: {e}")))?;
            let snap: Snapshot =
                serde_json::from_str(json).map_err(|e| SnapshotError::Parse(e.to_string()))?;
            if snap.version != SNAPSHOT_VERSION {
                return Err(SnapshotError::VersionMismatch {
                    found: snap.version,
                    expected: SNAPSHOT_VERSION,
                });
            }
            Ok(snap)
        } else {
            // Legacy v1: bare JSON, no checksum to validate.
            let json = std::str::from_utf8(bytes)
                .map_err(|e| SnapshotError::Parse(format!("not utf-8: {e}")))?;
            let snap: Snapshot =
                serde_json::from_str(json).map_err(|e| SnapshotError::Parse(e.to_string()))?;
            if snap.version != 1 {
                return Err(SnapshotError::VersionMismatch {
                    found: snap.version,
                    expected: SNAPSHOT_VERSION,
                });
            }
            Ok(snap)
        }
    }

    /// Serializes and writes this snapshot through `backend` atomically.
    pub fn save_with(
        &self,
        backend: &mut dyn StorageBackend,
        path: &Path,
    ) -> Result<(), SnapshotError> {
        backend.write_atomic(path, &self.to_checked_bytes()?)
    }

    /// Loads and validates a snapshot through `backend`.
    pub fn load_with(
        backend: &mut dyn StorageBackend,
        path: &Path,
    ) -> Result<Snapshot, SnapshotError> {
        Snapshot::from_checked_bytes(&backend.read(path)?)
    }

    /// [`Snapshot::save_with`] on the real filesystem.
    pub fn save_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        self.save_with(&mut FsBackend, path)
    }

    /// [`Snapshot::load_with`] on the real filesystem.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        Snapshot::load_with(&mut FsBackend, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ExactStats;
    use pricing::CostBreakdown;
    use proptest::prelude::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("minicost-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> Snapshot {
        let mut ledger = CostLedger::new();
        ledger.accrue(CostBreakdown::default());
        Snapshot {
            version: SNAPSHOT_VERSION,
            policy_name: "greedy".to_string(),
            seed: 42,
            next_day: 6,
            epoch: 2,
            decide_every: 3,
            window: 7,
            initial_tier: Tier::Hot,
            tiers: vec![Tier::Hot, Tier::Archive],
            ledger,
            per_file: vec![Money::from_micros(10), Money::from_micros(0)],
            occupancy: vec![[2, 0, 0]; 6],
            tier_changes: 1,
            billed_change_bytes: 0,
            exact: Some(ExactStats::new(7, 2)),
            bounded: None,
        }
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let path = scratch("round-trip.json");
        let snap = sample();
        snap.save_atomic(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back, snap);
        // The temp sibling must not linger after a successful save.
        assert!(!path.with_file_name("round-trip.json.tmp").exists());
    }

    #[test]
    fn save_overwrites_previous_snapshot_atomically() {
        let path = scratch("overwrite.json");
        let mut snap = sample();
        snap.save_atomic(&path).unwrap();
        snap.next_day = 9;
        snap.epoch = 3;
        snap.save_atomic(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap().next_day, 9);
    }

    #[test]
    fn doctored_bytes_fail_the_checksum() {
        let path = scratch("doctored.json");
        let snap = sample();
        snap.save_atomic(&path).unwrap();
        // In-place editing of any payload field breaks the header digest.
        let doctored = std::fs::read_to_string(&path)
            .unwrap()
            .replace(&format!("\"version\":{SNAPSHOT_VERSION}"), "\"version\":999");
        std::fs::write(&path, doctored).unwrap();
        assert!(matches!(Snapshot::load(&path), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn alien_versions_are_rejected_as_mismatch() {
        // A bare-JSON document (legacy framing) from some future schema.
        let mut snap = sample();
        snap.version = 999;
        let json = serde_json::to_string(&snap).unwrap();
        match Snapshot::from_checked_bytes(json.as_bytes()) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!((found, expected), (999, SNAPSHOT_VERSION));
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        // A framed document whose header claims a future version.
        let framed = b"minicost-snapshot v9 fnv1a64:0000000000000000\n{}";
        match Snapshot::from_checked_bytes(framed) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!((found, expected), (9, SNAPSHOT_VERSION));
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn legacy_v1_snapshots_still_load() {
        let mut snap = sample();
        snap.version = 1;
        let json = serde_json::to_string(&snap).unwrap();
        let back = Snapshot::from_checked_bytes(json.as_bytes()).unwrap();
        assert_eq!(back, snap);
        // And through the filesystem path, as a real pre-upgrade file would.
        let path = scratch("legacy-v1.json");
        std::fs::write(&path, json).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
    }

    #[test]
    fn missing_and_corrupt_files_error_cleanly() {
        assert!(matches!(
            Snapshot::load(&scratch("does-not-exist.json")),
            Err(SnapshotError::Io(_))
        ));
        let path = scratch("corrupt.json");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(matches!(Snapshot::load(&path), Err(SnapshotError::Parse(_))));
        for err in [
            SnapshotError::Parse("x".into()),
            SnapshotError::Sync("x".into()),
            SnapshotError::Corrupt("x".into()),
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn transient_classification_is_stable() {
        assert!(SnapshotError::Io("x".into()).is_transient());
        assert!(SnapshotError::Sync("x".into()).is_transient());
        assert!(!SnapshotError::Parse("x".into()).is_transient());
        assert!(!SnapshotError::Corrupt("x".into()).is_transient());
        assert!(!SnapshotError::VersionMismatch { found: 1, expected: 2 }.is_transient());
    }

    #[test]
    fn rotation_shifts_slots_and_candidates_order_newest_first() {
        let base = scratch("rotate.json");
        let mut backend = FsBackend;
        for (generation, day) in [(0usize, 3usize), (1, 6), (2, 9)] {
            let _ = generation;
            rotate(&mut backend, &base, 2).unwrap();
            let mut snap = sample();
            snap.next_day = day;
            snap.save_with(&mut backend, &base).unwrap();
        }
        let candidates = rotation_candidates(&base, 2);
        assert_eq!(candidates.len(), 3);
        let days: Vec<usize> =
            candidates.iter().map(|p| Snapshot::load(p).unwrap().next_day).collect();
        assert_eq!(days, vec![9, 6, 3], "newest first, then rotated predecessors");
        // A fourth generation pushes day-3 off the end of the rotation.
        rotate(&mut backend, &base, 2).unwrap();
        let mut snap = sample();
        snap.next_day = 12;
        snap.save_with(&mut backend, &base).unwrap();
        let days: Vec<usize> = rotation_candidates(&base, 2)
            .iter()
            .map(|p| Snapshot::load(p).unwrap().next_day)
            .collect();
        assert_eq!(days, vec![12, 9, 6]);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    proptest! {
        /// Any single-byte substitution anywhere in a framed snapshot —
        /// header, digest, or payload — must be detected at load: the codec
        /// returns an error, never a silently different snapshot.
        #[test]
        fn any_single_byte_flip_is_detected(
            position_seed in 0u64..u64::MAX,
            xor in 1u8..=255u8,
        ) {
            let bytes = sample().to_checked_bytes().unwrap();
            let ix = (position_seed % bytes.len() as u64) as usize;
            let mut flipped = bytes.clone();
            flipped[ix] ^= xor;
            prop_assert!(
                Snapshot::from_checked_bytes(&flipped).is_err(),
                "flip at byte {ix} (xor {xor:#04x}) must not load"
            );
        }

        /// Any strict prefix (a torn/truncated write) must be detected.
        #[test]
        fn any_truncation_is_detected(cut_seed in 0u64..u64::MAX) {
            let bytes = sample().to_checked_bytes().unwrap();
            let cut = (cut_seed % bytes.len() as u64) as usize;
            prop_assert!(
                Snapshot::from_checked_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not load"
            );
        }

        /// Clean round-trips always succeed regardless of cursor values —
        /// the checksum is over exact bytes, so there is no float-printing
        /// or re-serialization fragility to worry about.
        #[test]
        fn clean_round_trip_is_total(
            next_day in 0usize..10_000,
            epoch in 0u64..1_000_000,
        ) {
            let mut snap = sample();
            snap.next_day = next_day;
            snap.epoch = epoch;
            let bytes = snap.to_checked_bytes().unwrap();
            prop_assert_eq!(Snapshot::from_checked_bytes(&bytes).unwrap(), snap);
        }
    }
}
