//! Fixture: F5 `hot-alloc`. Not compiled; the alloc self-tests load this
//! file as crate `core` with roots `core::run_shard`, `core::serve`, and
//! the `decide_batch_into` impl, and assert reachable allocating functions are
//! flagged, the offline one is not, and the allowlist and site waivers
//! suppress.

/// Root: the per-day shard loop.
pub fn run_shard(days: usize) -> usize {
    let mut total = 0;
    for day in 0..days {
        total += decide(day);
    }
    total
}

/// VIOLATION: allocates a fresh buffer every day, one hop from the root.
fn decide(day: usize) -> usize {
    let scores = vec![day, day + 1];
    let copy = scores.clone();
    copy.len()
}

/// Batch decision trait mirroring the real `Policy` dispatch.
pub trait Policy {
    /// Decides every slot for one day.
    fn decide_batch_into(&mut self, n: usize) -> Vec<usize>;
}

/// A trivial policy implementation.
pub struct EveryDay;

impl Policy for EveryDay {
    /// Allowlisted root: the API returns an owned buffer by contract.
    fn decide_batch_into(&mut self, n: usize) -> Vec<usize> {
        (0..n).collect()
    }
}

/// Root: the serving decision loop.
pub fn serve(days: usize) -> usize {
    let mut total = 0;
    for day in 0..days {
        total += labeled(day).len();
    }
    total
}

/// Waived: the incident label is off the decision cadence.
fn labeled(day: usize) -> String {
    // xtask-allow(hot-alloc): incident labels format once per fault, not per day
    format!("day-{day}")
}

/// NOT reported: allocates, but nothing on the hot path calls it.
pub fn offline_report(days: usize) -> Vec<usize> {
    (0..days).map(|d| d * 2).collect()
}
