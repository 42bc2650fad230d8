//! Tiered object store for MiniCost.
//!
//! The batch simulator and the serving loop treat a tier change as a pure
//! ledger entry. This crate makes it *physical*: every tracked file is an
//! object resident on exactly one per-tier vdev, and a tier change is a
//! migration — copy, verify, commit, delete — that can fail, stall, be
//! throttled, and be interrupted by a crash. The serving loop drives the
//! pipeline; this crate guarantees that whatever happens, the pool and the
//! ledger stay mutually consistent:
//!
//! * [`vdev`] — the [`vdev::Vdev`] trait with [`vdev::MemoryVdev`] and
//!   [`vdev::FileVdev`] backends, plus the per-tier latency/bandwidth
//!   model ([`vdev::VdevProfile`]) that prices every transfer in virtual
//!   milliseconds.
//! * [`object`] — checksummed object framing (reusing the snapshot path's
//!   `fnv1a64`) and deterministic payload synthesis, so torn or corrupted
//!   copies are detected by verification rather than trusted.
//! * [`pool`] — the [`pool::StoragePool`]: one vdev per [`pricing::Tier`],
//!   object location tracking, per-tier I/O counters, and seeded fault
//!   consultation (`VdevRead`/`VdevWrite`/`TierFull`/`SlowVdev`).
//! * [`journal`] — the append-only, per-line-checksummed migration journal
//!   that makes every migration a two-phase commit: the `committed` record
//!   is the commit point, and a torn tail line is indistinguishable from
//!   the record never having been written.
//! * [`migrate`] — the batched, bounded migration pipeline: deterministic
//!   exponential backoff on a virtual clock, per-job retry budget and
//!   timeout, bandwidth/inflight throttling, graceful pin-to-source on
//!   budget exhaustion, and journal-driven crash recovery
//!   ([`migrate::recover`]).
//!
//! The headline invariant (DESIGN.md §15): at end of run, the logical
//! bytes the cost ledger billed as tier-change traffic equal the bytes the
//! journal committed — under vdev faults, throttling, pinning, and
//! kill→restore mid-migration.

#![warn(missing_docs)]
// Library code must surface failures as values; tests may unwrap freely.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "tests may panic")
)]

pub mod journal;
pub mod migrate;
pub mod object;
pub mod pool;
pub mod vdev;

pub use journal::{JobId, JobPhase, Journal, JournalRecord};
pub use migrate::{
    recover, BatchOutcome, MigrateConfig, MigrationEvent, MigrationEventKind, MigrationJob,
    Migrator, RecoveryReport,
};
pub use object::{frame_object, synth_payload, unframe_object, ObjectFrame};
pub use pool::{PoolBuild, StoragePool, TierIo};
pub use vdev::{FileVdev, MemoryVdev, Vdev, VdevError, VdevProfile};

/// How a file's abstract size (GB, the billing unit) maps to the logical
/// bytes a migration moves. Logical bytes are the unit of the bandwidth
/// model, the journal, and the billed-vs-committed invariant; physical
/// payloads are miniature deterministic stand-ins (see
/// [`object::synth_payload`]) so tests and soaks stay fast.
#[must_use]
pub fn logical_bytes(size_gb: f64) -> u64 {
    if !size_gb.is_finite() || size_gb <= 0.0 {
        return 0;
    }
    // 1 GiB = 2^30 bytes, round-to-nearest.
    let bytes = (size_gb * 1_073_741_824.0).round();
    if bytes >= 1.8446744073709552e19 {
        u64::MAX
    } else {
        bytes as u64
    }
}

/// Why a store operation failed unrecoverably (the serving loop maps this
/// to its exit-code-5 "unrecoverable pool" taxonomy entry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A vdev operation failed outside any retry envelope.
    Vdev(VdevError),
    /// The migration journal could not be read or written.
    Journal(String),
    /// Pool contents and journal disagree in a way recovery cannot
    /// explain (e.g. an object resident on two tiers with no in-flight
    /// job covering it).
    Inconsistent(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Vdev(e) => write!(f, "vdev: {e}"),
            StoreError::Journal(msg) => write!(f, "journal: {msg}"),
            StoreError::Inconsistent(msg) => write!(f, "inconsistent pool: {msg}"),
        }
    }
}

impl From<VdevError> for StoreError {
    fn from(e: VdevError) -> StoreError {
        StoreError::Vdev(e)
    }
}

#[cfg(test)]
mod tests {
    use super::logical_bytes;

    #[test]
    fn logical_bytes_is_deterministic_and_monotone() {
        assert_eq!(logical_bytes(0.0), 0);
        assert_eq!(logical_bytes(-1.0), 0);
        assert_eq!(logical_bytes(f64::NAN), 0);
        assert_eq!(logical_bytes(1.0), 1_073_741_824);
        assert_eq!(logical_bytes(0.5), 536_870_912);
        assert!(logical_bytes(2.0) > logical_bytes(1.0));
        assert_eq!(logical_bytes(f64::MAX), u64::MAX);
    }
}
