//! Co-request (concurrent request) modelling for the §5.2 aggregation
//! enhancement.
//!
//! The paper observes that files linked from the same web page are often
//! requested together, and aggregates such groups when the concurrent
//! request volume justifies the extra replica storage (Eqs. 13–16). The
//! original trace has no page-link structure, so this module synthesizes
//! "pages": groups of files whose members share a daily concurrent-request
//! count proportional to the least-requested member (a request that hits
//! all members at once cannot exceed any member's own request count).

use crate::file::FileId;
use crate::workload::Trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Domain-separation constant for the co-request RNG stream.
const COREQ_SEED_DOMAIN: u64 = 0xC0_C0_C0_C0_C0_C0_C0_C0;

/// A group of files requested concurrently (one synthetic "web page").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoRequestGroup {
    /// Member files (distinct).
    pub members: Vec<FileId>,
    /// Daily concurrent request counts `r_dc(t)` — requests that hit *all*
    /// members together.
    pub concurrent: Vec<u64>,
}

impl CoRequestGroup {
    /// Mean concurrent requests per day over days `range`.
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn mean_concurrent(&self, range: std::ops::Range<usize>) -> f64 {
        let window = &self.concurrent[range];
        if window.is_empty() {
            return 0.0;
        }
        window.iter().sum::<u64>() as f64 / window.len() as f64
    }
}

/// Configuration for synthesizing co-request structure over a trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoRequestModel {
    /// Number of groups (synthetic pages).
    pub groups: usize,
    /// Inclusive group-size range; the paper aggregates 2..n files.
    pub min_size: usize,
    /// Inclusive upper bound on group size.
    pub max_size: usize,
    /// Fraction of the least-requested member's daily reads that arrive as
    /// concurrent group requests, drawn per-group from `[0, level]`.
    pub level: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CoRequestModel {
    fn default() -> Self {
        CoRequestModel { groups: 200, min_size: 2, max_size: 5, level: 0.8, seed: 7 }
    }
}

impl CoRequestModel {
    /// Synthesizes co-request groups over `trace`.
    ///
    /// Groups draw disjoint member sets while files remain; if the trace is
    /// too small for the requested number of disjoint groups, fewer groups
    /// are returned. Panics if `min_size < 2` or `min_size > max_size`.
    #[must_use]
    pub fn generate(&self, trace: &Trace) -> Vec<CoRequestGroup> {
        assert!(self.min_size >= 2, "a co-request group needs at least 2 members");
        assert!(self.min_size <= self.max_size, "min_size must be <= max_size");
        let mut rng = StdRng::seed_from_u64(self.seed ^ COREQ_SEED_DOMAIN);
        // Assets of one page share the page's popularity, so group files of
        // similar traffic: sort by mean reads, then shuffle within small
        // popularity windows to avoid deterministic pairings. Grouping
        // uniformly at random would make the quietest member dominate the
        // joint request count and no group would ever clear Eq. 15.
        let mut pool: Vec<usize> = (0..trace.files.len()).collect();
        pool.sort_by(|&a, &b| trace.files[b].mean_reads().total_cmp(&trace.files[a].mean_reads()));
        let window = (self.max_size * 4).max(8);
        let mut start = 0;
        while start < pool.len() {
            let end = (start + window).min(pool.len());
            pool[start..end].shuffle(&mut rng);
            start = end;
        }
        pool.reverse(); // drain() takes from the back: most popular first

        let mut groups = Vec::with_capacity(self.groups);
        for _ in 0..self.groups {
            let size = rng.random_range(self.min_size..=self.max_size);
            if pool.len() < size {
                break;
            }
            let members: Vec<FileId> =
                pool.drain(pool.len() - size..).map(FileId::from_index).collect();
            let share: f64 = rng.random_range(0.0..self.level.max(f64::MIN_POSITIVE));
            #[expect(
                clippy::cast_possible_truncation,
                reason = "non-negative floor of a read count; `as` saturates"
            )]
            let concurrent = (0..trace.days)
                .map(|day| {
                    let min_reads =
                        members.iter().map(|id| trace.file(*id).reads[day]).min().unwrap_or(0);
                    (min_reads as f64 * share).floor() as u64
                })
                .collect();
            groups.push(CoRequestGroup { members, concurrent });
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceConfig;

    fn trace() -> Trace {
        Trace::generate(&TraceConfig::small(100, 14, 42))
    }

    #[test]
    fn groups_have_disjoint_members() {
        let t = trace();
        let model = CoRequestModel { groups: 20, ..CoRequestModel::default() };
        let groups = model.generate(&t);
        assert_eq!(groups.len(), 20);
        let mut seen = std::collections::BTreeSet::new();
        for g in &groups {
            for m in &g.members {
                assert!(seen.insert(*m), "file {m} appears in two groups");
            }
        }
    }

    #[test]
    fn concurrent_never_exceeds_any_member() {
        let t = trace();
        let groups = CoRequestModel::default().generate(&t);
        for g in &groups {
            for day in 0..t.days {
                for m in &g.members {
                    assert!(
                        g.concurrent[day] <= t.file(*m).reads[day],
                        "concurrent {} > member reads {}",
                        g.concurrent[day],
                        t.file(*m).reads[day]
                    );
                }
            }
        }
    }

    #[test]
    fn group_sizes_respect_bounds() {
        let t = trace();
        let model = CoRequestModel { min_size: 3, max_size: 4, groups: 10, ..Default::default() };
        for g in model.generate(&t) {
            assert!(g.members.len() >= 3 && g.members.len() <= 4);
        }
    }

    #[test]
    fn small_trace_yields_fewer_groups() {
        let t = Trace::generate(&TraceConfig::small(5, 7, 1));
        let model = CoRequestModel { groups: 10, min_size: 2, max_size: 2, ..Default::default() };
        let groups = model.generate(&t);
        assert!(groups.len() <= 2, "only 5 files -> at most 2 disjoint pairs");
    }

    #[test]
    fn generation_is_deterministic() {
        let t = trace();
        let model = CoRequestModel::default();
        assert_eq!(model.generate(&t), model.generate(&t));
    }

    #[test]
    fn mean_concurrent_over_window() {
        let g =
            CoRequestGroup { members: vec![FileId(0), FileId(1)], concurrent: vec![2, 4, 6, 8] };
        assert_eq!(g.mean_concurrent(0..4), 5.0);
        assert_eq!(g.mean_concurrent(1..3), 5.0);
        assert_eq!(g.mean_concurrent(2..2), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn singleton_groups_rejected() {
        let t = trace();
        let _ = CoRequestModel { min_size: 1, ..Default::default() }.generate(&t);
    }
}
