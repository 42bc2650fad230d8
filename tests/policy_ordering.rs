//! Cross-crate property tests of the paper's central cost-ordering claims
//! and the equivalence between the DP optimum and brute-force enumeration.

use minicost::prelude::*;
use proptest::prelude::*;
use tracegen::{FileId, FileSeries};

fn model() -> CostModel {
    CostModel::new(PricingPolicy::azure_blob_2020())
}

/// Validated config: default tier/cadence, explicit seed, worker count from
/// `MINICOST_WORKERS` (CI runs this suite at 1 and 4 workers).
fn sim_cfg() -> SimConfig {
    SimConfig::builder().seed(0).build().expect("valid sim config")
}

fn trace_from(reads: Vec<Vec<u64>>, size: f64) -> Trace {
    let days = reads.first().map_or(0, Vec::len);
    let files = reads
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let writes = r.iter().map(|x| x / 100).collect();
            FileSeries { id: FileId(i as u32), size_gb: size, reads: r, writes }
        })
        .collect();
    Trace { days, files }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimal lower-bounds every other policy on arbitrary workloads.
    #[test]
    fn optimal_is_global_lower_bound(
        reads in proptest::collection::vec(
            proptest::collection::vec(0u64..30_000, 6), 1..6),
        size in 0.01f64..5.0,
    ) {
        let trace = trace_from(reads, size);
        let m = model();
        let cfg = sim_cfg();
        let opt = simulate(&trace, &m, &OptimalPolicy::plan(&trace, &m, cfg.initial_tier), &cfg).total_cost();
        for policy in [
            &HotPolicy as &dyn Policy,
            &ColdPolicy,
            &GreedyPolicy,
            &SingleTierPolicy::new(Tier::Archive),
        ] {
            let cost = simulate(&trace, &m, policy, &cfg).total_cost();
            prop_assert!(opt <= cost, "optimal {opt} vs {} {cost}", policy.name());
        }
    }

    /// The workspace's two independent optimum implementations agree on
    /// whole traces (DP per file == exponential enumeration per file).
    #[test]
    fn dp_matches_brute_force_on_traces(
        reads in proptest::collection::vec(
            proptest::collection::vec(0u64..50_000, 5), 1..4),
        size in 0.01f64..3.0,
    ) {
        let trace = trace_from(reads, size);
        let m = model();
        let mut brute_total = Money::ZERO;
        for file in &trace.files {
            let (_, cost) = brute_force_plan(file, &m, Tier::Hot);
            brute_total += cost;
        }
        let opt = OptimalPolicy::plan(&trace, &m, Tier::Hot);
        prop_assert_eq!(opt.planned_cost, brute_total);
    }

    /// Greedy never pays more than the better of the two static baselines:
    /// it can always mimic "stay put forever".
    #[test]
    fn greedy_dominates_worst_static(
        reads in proptest::collection::vec(
            proptest::collection::vec(0u64..20_000, 8), 1..5),
        size in 0.01f64..5.0,
    ) {
        let trace = trace_from(reads, size);
        let m = model();
        let cfg = sim_cfg();
        let greedy = simulate(&trace, &m, &GreedyPolicy, &cfg).total_cost();
        let hot = simulate(&trace, &m, &HotPolicy, &cfg).total_cost();
        let cold = simulate(&trace, &m, &ColdPolicy, &cfg).total_cost();
        prop_assert!(greedy <= hot.max(cold));
    }

    /// Under the degenerate flat pricing policy every strategy that never
    /// moves data costs the same, and Optimal finds exactly that cost.
    #[test]
    fn flat_pricing_removes_all_savings(
        reads in proptest::collection::vec(
            proptest::collection::vec(0u64..10_000, 5), 1..4),
    ) {
        let trace = trace_from(reads, 0.5);
        let m = CostModel::new(PricingPolicy::flat());
        let cfg = sim_cfg();
        let hot = simulate(&trace, &m, &HotPolicy, &cfg).total_cost();
        let cold = simulate(&trace, &m, &ColdPolicy, &cfg).total_cost();
        let opt = simulate(&trace, &m, &OptimalPolicy::plan(&trace, &m, cfg.initial_tier), &cfg).total_cost();
        prop_assert_eq!(hot, cold);
        prop_assert_eq!(opt, hot);
    }

    /// Scaling every file's traffic up cannot reduce any policy's cost.
    #[test]
    fn costs_are_monotone_in_traffic(
        reads in proptest::collection::vec(
            proptest::collection::vec(0u64..5_000, 6), 1..4),
        factor in 2u64..5,
    ) {
        let trace = trace_from(reads.clone(), 1.0);
        let scaled = trace_from(
            reads.iter().map(|f| f.iter().map(|&r| r * factor).collect()).collect(),
            1.0,
        );
        let m = model();
        let cfg = sim_cfg();
        for (a, b) in [
            (
                simulate(&trace, &m, &HotPolicy, &cfg).total_cost(),
                simulate(&scaled, &m, &HotPolicy, &cfg).total_cost(),
            ),
            (
                simulate(&trace, &m, &OptimalPolicy::plan(&trace, &m, Tier::Hot), &cfg).total_cost(),
                simulate(&scaled, &m, &OptimalPolicy::plan(&scaled, &m, Tier::Hot), &cfg).total_cost(),
            ),
        ] {
            prop_assert!(b >= a, "scaled {b} must cost at least {a}");
        }
    }
}

#[test]
fn ordering_holds_on_a_calibrated_trace() {
    // Deterministic version of the Fig. 7 ordering skeleton on a
    // realistically-mixed trace: Optimal <= Greedy <= max(Hot, Cold).
    // Uses the op-dominated paper_2020 pricing — the regime the paper's
    // evaluation implies (see PricingPolicy::paper_2020 docs).
    let trace =
        Trace::generate(&TraceConfig { files: 400, days: 35, seed: 99, ..TraceConfig::default() });
    let m = CostModel::new(PricingPolicy::paper_2020());
    let cfg = sim_cfg();
    let hot = simulate(&trace, &m, &HotPolicy, &cfg).total_cost();
    let cold = simulate(&trace, &m, &ColdPolicy, &cfg).total_cost();
    let greedy = simulate(&trace, &m, &GreedyPolicy, &cfg).total_cost();
    let opt =
        simulate(&trace, &m, &OptimalPolicy::plan(&trace, &m, cfg.initial_tier), &cfg).total_cost();

    assert!(opt <= greedy);
    assert!(greedy <= hot.max(cold));
    // The calibrated mix leaves real savings on the table for the planner.
    assert!(
        opt.as_dollars() < 0.95 * hot.min(cold).as_dollars(),
        "optimal {opt} should save >5% vs best static {}",
        hot.min(cold)
    );
}
