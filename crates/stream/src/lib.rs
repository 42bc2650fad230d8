//! Online ingestion and serving substrate for MiniCost.
//!
//! The batch pipeline (`minicost-core`) pre-materializes the full
//! file × day request matrix and replays it in one shot. A production
//! deployment of the paper's system instead *observes* requests as a
//! stream and decides tiers online from the statistics it has accumulated
//! so far (§5.1: "Everyday, the trained agent runs one time for all data
//! files"). This crate provides the stream-side building blocks:
//!
//! * [`event`] — seeded, time-ordered `(hour, file, reads, writes, bytes)`
//!   request events delivered in digest-sealed day batches, each day
//!   expanded straight from the trace into its batch: one day resident at
//!   a time, never the whole matrix.
//! * [`stats`] — exact per-file sliding-window counters with strictly
//!   bounded memory: `O(window)` per tracked file, independent of the
//!   horizon.
//! * [`sketch`] — a count-min sketch and a space-saving heavy-hitter
//!   summary, the sublinear fallbacks for fleets larger than RAM-resident
//!   exact state.
//! * [`bounded`] — the combined degradation path: exact windows for the
//!   heavy hitters, sketch estimates for the long tail.
//! * [`checkpoint`] — a versioned, FNV-checksummed binary snapshot of the
//!   whole serving state (statistics, ledgers, cursors), read back by a
//!   total decoder and written atomically
//!   through a [`checkpoint::StorageBackend`], with rotation helpers, so a
//!   killed server restarts bit-identically (DESIGN.md §10) and a corrupt
//!   snapshot is detected rather than resumed (DESIGN.md §11).
//! * [`fault`] — the seeded, deterministic chaos layer: a serializable
//!   [`fault::FaultPlan`] drives injectable wrappers that corrupt the
//!   checkpoint path ([`fault::FaultyBackend`]) and the event delivery
//!   path ([`fault::FaultySource`]), replayably.
//!
//! The decision loop that drives a `Policy` from these statistics lives in
//! `minicost-core` (`serve` module); this crate deliberately depends only
//! on `minicost-trace` and `minicost-pricing` so the dependency graph
//! stays acyclic.

#![warn(missing_docs)]
// Library code must surface failures as values; tests may unwrap freely.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "tests may panic")
)]
// Tests assert bit-exact float reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp, reason = "bit-exact float asserts"))]

pub mod bounded;
pub mod checkpoint;
pub mod event;
pub mod fault;
pub mod sketch;
pub mod stats;
mod wire;

pub use bounded::{BoundedConfig, BoundedStats};
pub use checkpoint::{
    fnv1a64, rotate, rotated_path, rotation_candidates, FsBackend, Snapshot, SnapshotError,
    StorageBackend, SNAPSHOT_VERSION,
};
pub use event::{digest_events, DayBatch, Event, EventSource, TraceSource};
pub use fault::{
    FaultInjector, FaultPlan, FaultSite, FaultyBackend, FaultySource, SharedInjector, FAULT_SITES,
};
pub use sketch::{CountMinSketch, SpaceSaving, SpaceSavingEntry};
pub use stats::{ExactStats, FileStats};

/// Retries allowed per failing operation before it is declared exhausted:
/// a checkpoint read or write and a policy step under the serve supervisor,
/// a migration job in the store's pipeline. A fault plan whose `max_faults`
/// is below it can never exhaust a retry loop.
pub const MAX_RETRIES: u32 = 8;

/// The first retry's backoff delay, in virtual milliseconds.
const BACKOFF_BASE_MS: u64 = 10;

/// The ceiling on one backoff delay, in virtual milliseconds.
const BACKOFF_CAP_MS: u64 = 5_000;

/// The deterministic retry backoff shared by the serve supervisor and the
/// store's migration pipeline: the delay before retry number `attempt`
/// (0-based) is `10 · 2^attempt` virtual milliseconds, saturating, capped
/// at 5,000.
#[must_use]
pub fn backoff_ms(attempt: u32) -> u64 {
    let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
    BACKOFF_BASE_MS.saturating_mul(factor).min(BACKOFF_CAP_MS)
}

/// A splitmix64-style finalizer: the stable 64-bit mixer every seeded hash
/// in this crate derives from, so nothing depends on the process-seeded
/// std hasher.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::mix64;

    #[test]
    fn mix64_is_stable_and_spreading() {
        // Fixed regression anchors: these values must never change, or every
        // sketch cell assignment (and thus every bounded-mode decision)
        // silently shifts.
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        let distinct: std::collections::BTreeSet<u64> = (0..1000u64).map(mix64).collect();
        assert_eq!(distinct.len(), 1000, "mixer must be injective on small inputs");
    }
}
