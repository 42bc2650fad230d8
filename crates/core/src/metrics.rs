//! Experiment metrics: per-bucket cost attribution, normalized-cost tables,
//! and the decision-latency digest (Figs. 7, 8, 12).

use crate::sim::SimResult;
use pricing::Money;
use serde::{Deserialize, Serialize};
use tracegen::analysis::{bucket_members, CV_BUCKET_COUNT};
use tracegen::Trace;

/// Total cost per CV bucket: attributes each file's ledger entry to its
/// request-frequency-variability bucket (the x-axis of Figs. 3, 4, 8).
///
/// Panics if `per_file` does not match the trace's file count.
#[must_use]
pub fn bucket_costs(trace: &Trace, per_file: &[Money]) -> [Money; CV_BUCKET_COUNT] {
    assert_eq!(per_file.len(), trace.files.len(), "ledger/trace mismatch");
    let members = bucket_members(trace);
    let mut out = [Money::ZERO; CV_BUCKET_COUNT];
    for (bucket, files) in members.iter().enumerate() {
        out[bucket] = files.iter().map(|&ix| per_file[ix]).sum();
    }
    out
}

/// Costs normalized by a reference (the paper's Fig. 7 normalizes by
/// *Optimal*). Returns `cost / reference` per result; a zero reference maps
/// to 1.0 when the cost is also zero, `f64::INFINITY` otherwise.
#[must_use]
pub fn normalized_costs(results: &[&SimResult], reference: Money) -> Vec<f64> {
    results
        .iter()
        .map(|r| {
            let cost = r.total_cost();
            if reference.is_zero() {
                if cost.is_zero() {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                cost.ratio_to(reference)
            }
        })
        .collect()
}

/// Decision-latency digest of a (possibly sharded) [`SimResult`] — the
/// Fig. 12 "computing overhead" measurement, made meaningful for parallel
/// runs. The wall-clock cost of a parallel decision day is the slowest
/// shard (the critical path), while the serial reference is the sum of all
/// shard ledgers; their ratio is the achieved speedup.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DecisionLatency {
    /// Total decision milliseconds per shard, in fixed shard order.
    pub shard_total_ms: Vec<f64>,
    /// Sum over decision days of the slowest shard's latency — what a
    /// caller actually waits for.
    pub critical_path_ms: f64,
    /// Sum of every shard's ledger — the single-threaded equivalent work.
    pub serial_ms: f64,
}

impl DecisionLatency {
    /// Achieved decision speedup (`serial / critical path`); 1.0 for an
    /// empty or single-shard run.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.critical_path_ms > 0.0 {
            self.serial_ms / self.critical_path_ms
        } else {
            1.0
        }
    }

    /// `speedup / shards`: 1.0 means perfectly balanced shards.
    #[must_use]
    pub fn parallel_efficiency(&self) -> f64 {
        if self.shard_total_ms.is_empty() {
            1.0
        } else {
            self.speedup() / self.shard_total_ms.len() as f64
        }
    }
}

/// Digests `result`'s per-shard decision ledgers (ordered reductions over
/// the fixed shard order — never thread-completion order).
#[must_use]
pub fn decision_latency(result: &SimResult) -> DecisionLatency {
    let shard_total_ms: Vec<f64> =
        result.shard_decision_millis.iter().map(|shard| shard.iter().sum()).collect();
    DecisionLatency {
        critical_path_ms: result.total_decision_millis(),
        serial_ms: shard_total_ms.iter().sum(),
        shard_total_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::HotPolicy;
    use crate::sim::{simulate, SimConfig};
    use pricing::{CostModel, PricingPolicy};
    use tracegen::TraceConfig;

    #[test]
    fn bucket_costs_partition_the_total() {
        let trace = Trace::generate(&TraceConfig::small(100, 21, 4));
        let model = CostModel::new(PricingPolicy::azure_blob_2020());
        let result = simulate(&trace, &model, &HotPolicy, &SimConfig::default());
        let buckets = bucket_costs(&trace, &result.per_file);
        let sum: Money = buckets.iter().sum();
        assert_eq!(sum, result.total_cost());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bucket_costs_rejects_wrong_ledger() {
        let trace = Trace::generate(&TraceConfig::small(5, 7, 4));
        let _ = bucket_costs(&trace, &[Money::ZERO; 3]);
    }

    #[test]
    fn normalized_costs_reference_semantics() {
        let trace = Trace::generate(&TraceConfig::small(10, 7, 4));
        let model = CostModel::new(PricingPolicy::azure_blob_2020());
        let result = simulate(&trace, &model, &HotPolicy, &SimConfig::default());
        let normalized = normalized_costs(&[&result], result.total_cost());
        assert!((normalized[0] - 1.0).abs() < 1e-12);
        // Zero reference.
        let inf = normalized_costs(&[&result], Money::ZERO);
        assert!(inf[0].is_infinite());
    }

    #[test]
    fn decision_latency_digests_shard_ledgers() {
        let trace = Trace::generate(&TraceConfig::small(30, 7, 4));
        let model = CostModel::new(PricingPolicy::azure_blob_2020());
        let mut result = simulate(&trace, &model, &HotPolicy, &SimConfig::default());
        // Overwrite the wall-clock ledgers with known values: 2 shards,
        // per-day maxima 3.0 and 4.0.
        result.shard_decision_millis = vec![vec![1.0, 4.0], vec![3.0, 2.0]];
        result.decision_millis = vec![3.0, 4.0];
        let latency = decision_latency(&result);
        assert_eq!(latency.shard_total_ms, vec![5.0, 5.0]);
        assert_eq!(latency.serial_ms, 10.0);
        assert_eq!(latency.critical_path_ms, 7.0);
        assert!((latency.speedup() - 10.0 / 7.0).abs() < 1e-12);
        assert!((latency.parallel_efficiency() - 10.0 / 14.0).abs() < 1e-12);

        // Degenerate cases stay finite.
        let empty = DecisionLatency::default();
        assert_eq!(empty.speedup(), 1.0);
        assert_eq!(empty.parallel_efficiency(), 1.0);
    }
}
