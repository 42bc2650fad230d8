//! Virtual devices: the per-tier storage backends and their performance
//! model.
//!
//! A [`Vdev`] stores opaque framed objects keyed by file id. Two backends:
//!
//! * [`MemoryVdev`] — a `BTreeMap`, for fast unit tests and benches.
//! * [`FileVdev`] — one file per object under a tier directory. Writes are
//!   *deliberately* non-atomic (plain create-and-write, no rename dance):
//!   a crash mid-copy leaves a torn object on disk, which is exactly the
//!   state the migration journal must recover from. Durability of the
//!   *commit* is the journal's job, not the vdev's.
//!
//! The [`VdevProfile`] prices transfers in virtual milliseconds —
//! `latency + logical_bytes / bandwidth` — which is what migration
//! throttling, timeouts, and the slow-vdev fault act on. Virtual time
//! never consults the wall clock, so every run is replayable.

use pricing::Tier;
use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsStr;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Why a vdev operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VdevError {
    /// Transient I/O failure (retryable; includes injected faults).
    Io(String),
    /// The object is not resident on this vdev.
    Missing(u64),
    /// The allocation would exceed the vdev's capacity (retryable under
    /// transient pressure; persistent fullness exhausts the retry budget
    /// and pins the file).
    Full {
        /// Bytes the allocation needed.
        needed: u64,
        /// Bytes the vdev had free.
        free: u64,
    },
}

impl std::fmt::Display for VdevError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VdevError::Io(msg) => write!(f, "io: {msg}"),
            VdevError::Missing(key) => write!(f, "missing object {key:016x}"),
            VdevError::Full { needed, free } => {
                write!(f, "tier full (needed {needed} bytes, free {free})")
            }
        }
    }
}

/// A per-tier storage device holding framed objects by key.
pub trait Vdev {
    /// Reads an object's full frame.
    ///
    /// # Errors
    ///
    /// [`VdevError::Missing`] if absent, [`VdevError::Io`] on failure.
    fn read(&mut self, key: u64) -> Result<Vec<u8>, VdevError>;

    /// Writes (or overwrites) an object's frame. Not atomic by contract.
    ///
    /// # Errors
    ///
    /// [`VdevError::Full`] past capacity, [`VdevError::Io`] on failure.
    fn write(&mut self, key: u64, frame: &[u8]) -> Result<(), VdevError>;

    /// Deletes an object; deleting an absent key is a no-op (idempotent,
    /// so journal replay can re-run cleanups).
    ///
    /// # Errors
    ///
    /// [`VdevError::Io`] on failure.
    fn delete(&mut self, key: u64) -> Result<(), VdevError>;

    /// Whether an object is resident (possibly torn).
    fn contains(&self, key: u64) -> bool;

    /// Every resident key, ascending (deterministic scan order).
    fn keys(&self) -> Vec<u64>;

    /// Physical bytes resident.
    fn used_bytes(&self) -> u64;

    /// Physical capacity, if bounded.
    fn capacity_bytes(&self) -> Option<u64>;
}

/// The virtual-time performance model of one tier's vdev.
///
/// All figures are model parameters, not measurements; they exist so that
/// throttling, timeouts, and latency-inflation faults have deterministic,
/// documented semantics (DESIGN.md §15).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VdevProfile {
    /// Fixed per-operation read latency, virtual ms.
    pub read_latency_ms: u64,
    /// Fixed per-operation write latency, virtual ms.
    pub write_latency_ms: u64,
    /// Sustained bandwidth in MiB per second of virtual time.
    pub mib_per_s: u64,
}

impl VdevProfile {
    /// The standard model for each tier: hot is fast, archive is slow.
    #[must_use]
    pub fn standard(tier: Tier) -> VdevProfile {
        match tier {
            Tier::Hot => VdevProfile { read_latency_ms: 1, write_latency_ms: 2, mib_per_s: 500 },
            Tier::Cool => VdevProfile { read_latency_ms: 5, write_latency_ms: 10, mib_per_s: 200 },
            Tier::Archive => {
                VdevProfile { read_latency_ms: 50, write_latency_ms: 100, mib_per_s: 50 }
            }
        }
    }

    /// Virtual ms to move `logical_bytes` at this profile's bandwidth,
    /// optionally capped by a migration throttle (`bw_cap_mib_s`, 0 =
    /// uncapped), plus the fixed latency for the given direction.
    #[must_use]
    pub fn transfer_ms(&self, write: bool, logical_bytes: u64, bw_cap_mib_s: u64) -> u64 {
        let latency = if write { self.write_latency_ms } else { self.read_latency_ms };
        let mut mib_s = self.mib_per_s.max(1);
        if bw_cap_mib_s > 0 {
            mib_s = mib_s.min(bw_cap_mib_s);
        }
        let bytes_per_ms = mib_s.saturating_mul(1024 * 1024).checked_div(1000).unwrap_or(1).max(1);
        let stream_ms = logical_bytes.checked_div(bytes_per_ms).unwrap_or(0);
        latency.saturating_add(stream_ms)
    }
}

/// An in-memory vdev (tests, benches, ephemeral soaks).
#[derive(Clone, Debug, Default)]
pub struct MemoryVdev {
    objects: BTreeMap<u64, Vec<u8>>,
    capacity: Option<u64>,
}

impl MemoryVdev {
    /// An unbounded in-memory vdev.
    #[must_use]
    pub fn new() -> MemoryVdev {
        MemoryVdev::default()
    }

    /// An in-memory vdev refusing writes past `capacity` physical bytes.
    #[must_use]
    pub fn with_capacity(capacity: u64) -> MemoryVdev {
        MemoryVdev { objects: BTreeMap::new(), capacity: Some(capacity) }
    }
}

impl Vdev for MemoryVdev {
    fn read(&mut self, key: u64) -> Result<Vec<u8>, VdevError> {
        self.objects.get(&key).cloned().ok_or(VdevError::Missing(key))
    }

    fn write(&mut self, key: u64, frame: &[u8]) -> Result<(), VdevError> {
        if let Some(cap) = self.capacity {
            let replaced = self.objects.get(&key).map_or(0, |o| o.len() as u64);
            let used = self.used_bytes().saturating_sub(replaced);
            let needed = frame.len() as u64;
            if used.saturating_add(needed) > cap {
                return Err(VdevError::Full { needed, free: cap.saturating_sub(used) });
            }
        }
        self.objects.insert(key, frame.to_vec());
        Ok(())
    }

    fn delete(&mut self, key: u64) -> Result<(), VdevError> {
        self.objects.remove(&key);
        Ok(())
    }

    fn contains(&self, key: u64) -> bool {
        self.objects.contains_key(&key)
    }

    fn keys(&self) -> Vec<u64> {
        self.objects.keys().copied().collect()
    }

    fn used_bytes(&self) -> u64 {
        self.objects.values().map(|o| o.len() as u64).sum()
    }

    fn capacity_bytes(&self) -> Option<u64> {
        self.capacity
    }
}

/// A directory-backed vdev: one `<key:016x>.obj` file per object.
///
/// [`FileVdev::open`] lists the directory once, parsing object names
/// without `stat`ing them, and keeps the keys it found; [`Vdev::write`]
/// and [`Vdev::delete`] keep that set current, and [`Vdev::keys`] and
/// [`Vdev::contains`] answer from it without touching the file system.
/// The contract that makes this sound: while a vdev is open it is the
/// only writer of its directory (another handle may rewrite an object's
/// bytes, but must not create or remove objects). The set may hold a key
/// whose object is gone, never miss one that is resident: a failed write
/// or delete keeps the key unless the object is known to be absent.
/// Only [`Vdev::used_bytes`], which capacity-bounded vdevs consult,
/// `stat`s objects.
#[derive(Debug)]
pub struct FileVdev {
    dir: PathBuf,
    capacity: Option<u64>,
    keys: BTreeSet<u64>,
}

impl FileVdev {
    /// Opens (creating if needed) the vdev directory and lists the
    /// objects already in it.
    ///
    /// # Errors
    ///
    /// [`VdevError::Io`] if the directory cannot be created or listed.
    pub fn open(dir: &Path, capacity: Option<u64>) -> Result<FileVdev, VdevError> {
        let io_err = |e: std::io::Error| VdevError::Io(format!("{}: {e}", dir.display()));
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let mut keys = BTreeSet::new();
        for entry in std::fs::read_dir(dir).map_err(io_err)? {
            if let Some(key) = object_key(&entry.map_err(io_err)?.file_name()) {
                keys.insert(key);
            }
        }
        Ok(FileVdev { dir: dir.to_path_buf(), capacity, keys })
    }

    /// The on-disk path of an object (stable; the torn-copy proptest
    /// truncates objects through it to simulate kills at arbitrary byte
    /// offsets).
    #[must_use]
    pub fn object_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.obj"))
    }

    /// After a failed write or delete of `key`: drops the key only if
    /// its object is certainly absent, so the set never under-approximates.
    fn resync(&mut self, key: u64) {
        if let Ok(false) = self.object_path(key).try_exists() {
            self.keys.remove(&key);
        } else {
            self.keys.insert(key);
        }
    }
}

/// The key whose [`FileVdev::object_path`] ends in `name`, if any: exactly
/// sixteen lowercase hex digits and `.obj`.
fn object_key(name: &OsStr) -> Option<u64> {
    let stem = name.to_str()?.strip_suffix(".obj")?;
    if stem.len() != 16 || !stem.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

impl Vdev for FileVdev {
    fn read(&mut self, key: u64) -> Result<Vec<u8>, VdevError> {
        match std::fs::read(self.object_path(key)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == ErrorKind::NotFound => Err(VdevError::Missing(key)),
            Err(e) => Err(VdevError::Io(format!("read {key:016x}: {e}"))),
        }
    }

    fn write(&mut self, key: u64, frame: &[u8]) -> Result<(), VdevError> {
        if let Some(cap) = self.capacity {
            let replaced = std::fs::metadata(self.object_path(key)).map_or(0, |m| m.len());
            let used = self.used_bytes().saturating_sub(replaced);
            let needed = frame.len() as u64;
            if used.saturating_add(needed) > cap {
                return Err(VdevError::Full { needed, free: cap.saturating_sub(used) });
            }
        }
        // Plain write on purpose: object durability is the journal's
        // problem, and a non-atomic write is what makes crash-mid-copy a
        // real, testable state.
        match std::fs::write(self.object_path(key), frame) {
            Ok(()) => {
                self.keys.insert(key);
                Ok(())
            }
            Err(e) => {
                self.resync(key);
                Err(VdevError::Io(format!("write {key:016x}: {e}")))
            }
        }
    }

    fn delete(&mut self, key: u64) -> Result<(), VdevError> {
        match std::fs::remove_file(self.object_path(key)) {
            Err(e) if e.kind() != ErrorKind::NotFound => {
                self.resync(key);
                Err(VdevError::Io(format!("delete {key:016x}: {e}")))
            }
            Ok(()) | Err(_) => {
                self.keys.remove(&key);
                Ok(())
            }
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    fn keys(&self) -> Vec<u64> {
        self.keys.iter().copied().collect()
    }

    fn used_bytes(&self) -> u64 {
        self.keys
            .iter()
            .map(|&key| std::fs::metadata(self.object_path(key)).map_or(0, |m| m.len()))
            .sum()
    }

    fn capacity_bytes(&self) -> Option<u64> {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("minicost-vdev-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn exercise(vdev: &mut dyn Vdev) {
        assert!(!vdev.contains(7));
        assert_eq!(vdev.read(7), Err(VdevError::Missing(7)));
        vdev.write(7, b"hello").unwrap();
        vdev.write(3, b"worlds").unwrap();
        assert!(vdev.contains(7));
        assert_eq!(vdev.read(7).unwrap(), b"hello");
        assert_eq!(vdev.keys(), vec![3, 7]);
        assert_eq!(vdev.used_bytes(), 11);
        vdev.write(7, b"hi").unwrap();
        assert_eq!(vdev.used_bytes(), 8, "overwrite replaces, not appends");
        vdev.delete(7).unwrap();
        vdev.delete(7).unwrap(); // idempotent
        assert!(!vdev.contains(7));
        assert_eq!(vdev.keys(), vec![3]);
    }

    #[test]
    fn memory_vdev_basic_ops() {
        exercise(&mut MemoryVdev::new());
    }

    #[test]
    fn file_vdev_basic_ops() {
        let dir = scratch("basic");
        exercise(&mut FileVdev::open(&dir, None).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_refuses_overflow_but_allows_replacement() {
        let mut v = MemoryVdev::with_capacity(10);
        v.write(1, b"12345678").unwrap();
        match v.write(2, b"123") {
            Err(VdevError::Full { needed: 3, free: 2 }) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        // Replacing the resident object within capacity is fine.
        v.write(1, b"1234567890").unwrap();
        assert_eq!(v.used_bytes(), 10);
    }

    #[test]
    fn file_vdev_reopens_with_contents_visible() {
        let dir = scratch("reopen");
        {
            let mut v = FileVdev::open(&dir, None).unwrap();
            v.write(0xabc, b"persist me").unwrap();
        }
        let v = FileVdev::open(&dir, None).unwrap();
        assert_eq!(v.keys(), vec![0xabc]);
        assert_eq!(v.used_bytes(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_vdev_lists_only_canonical_object_names() {
        let dir = scratch("names");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["00000000000000ab.obj", "00000000000000AB.obj", "ab.obj", "notes.txt"] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let v = FileVdev::open(&dir, None).unwrap();
        assert_eq!(v.keys(), vec![0xab]);
        assert!(v.contains(0xab) && !v.contains(0xac));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_or_delete_keeps_a_resident_key() {
        let dir = scratch("failed");
        let mut v = FileVdev::open(&dir, None).unwrap();
        // A directory squatting on the object path: writes and deletes of
        // the key fail, and the path stays resident.
        std::fs::create_dir(v.object_path(5)).unwrap();
        assert!(matches!(v.write(5, b"frame"), Err(VdevError::Io(_))));
        assert!(v.contains(5), "a failed write must not hide a resident path");
        assert!(matches!(v.delete(5), Err(VdevError::Io(_))));
        assert!(v.contains(5), "a failed delete must not hide a resident path");
        assert_eq!(v.keys(), FileVdev::open(&dir, None).unwrap().keys());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transfer_model_is_monotone_and_capped() {
        let hot = VdevProfile::standard(Tier::Hot);
        let archive = VdevProfile::standard(Tier::Archive);
        let gb = 1_073_741_824u64;
        assert!(hot.transfer_ms(false, gb, 0) < archive.transfer_ms(false, gb, 0));
        assert!(hot.transfer_ms(true, gb, 0) >= hot.transfer_ms(true, gb / 2, 0));
        // A throttle below the device bandwidth slows the transfer; a
        // throttle above it is a no-op.
        assert!(hot.transfer_ms(true, gb, 10) > hot.transfer_ms(true, gb, 0));
        assert_eq!(hot.transfer_ms(true, gb, 100_000), hot.transfer_ms(true, gb, 0));
        // Latency floor holds even for empty transfers.
        assert_eq!(archive.transfer_ms(true, 0, 0), 100);
    }
}
