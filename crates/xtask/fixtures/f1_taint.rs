//! Fixture: F1 `determinism-taint`. Not compiled; the flow self-tests load
//! this file as crate `core` and assert the wall-clock read three hops
//! below `Jittery::decide_batch_into` is caught, while the justified
//! log-only timestamp is not, and that each OS-entropy read taints its
//! `FaultPlan` sink.

use std::time::{SystemTime, UNIX_EPOCH};

pub struct Jittery;

impl Jittery {
    /// VIOLATION: tainted sink — the source is two call hops down.
    pub fn decide_batch_into(&mut self) -> u64 {
        score_all()
    }
}

pub struct Seeded;

impl Seeded {
    /// Clean sink: only seeded, pure helpers below.
    pub fn decide_batch_into(&mut self) -> u64 {
        seeded_score()
    }
}

fn score_all() -> u64 {
    jitter() + seeded_score()
}

fn jitter() -> u64 {
    wall_clock_nanos()
}

fn wall_clock_nanos() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.subsec_nanos() as u64)
}

fn seeded_score() -> u64 {
    42
}

/// Waived source: the justified escape stops taint at this read.
fn log_stamp() -> u64 {
    // xtask-allow(determinism-taint): log-only timestamp, not a decision input
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

pub struct LogOnly;

impl LogOnly {
    /// Clean sink despite calling a waived source.
    pub fn decide_batch_into(&mut self) -> u64 {
        log_stamp()
    }
}

/// Fault-plan fire decisions are sinks: a replayed chaos run must fire the
/// same faults, so none of them may draw OS entropy.
pub struct FaultPlan;

impl FaultPlan {
    /// VIOLATION: thread-local entropy-seeded RNG.
    pub fn fires_thread_rng(&self) -> bool {
        let mut rng = rand::thread_rng();
        rng.random_bool(0.5)
    }

    /// VIOLATION: bare `rand::rng()` entry point.
    pub fn fires_rand_rng(&self) -> bool {
        rand::rng().random_bool(0.5)
    }

    /// VIOLATION: entropy-based construction.
    pub fn fires_from_entropy(&self) -> bool {
        StdRng::from_entropy().random_bool(0.5)
    }

    /// VIOLATION: the OS generator, one call hop down.
    pub fn fires_os_rng(&self) -> bool {
        os_coin()
    }

    /// Clean: explicitly seeded, reproducible.
    pub fn fires_seeded(&self, seed: u64) -> bool {
        StdRng::seed_from_u64(seed).random_bool(0.5)
    }
}

fn os_coin() -> bool {
    OsRng.random_bool(0.5)
}
