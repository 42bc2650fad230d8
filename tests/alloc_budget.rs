//! Allocation budgets, measured rather than inferred.
//!
//! MiniCost applies one shared actor per file, so deciding a day costs
//! O(n) in the files and nothing that grows with the horizon (§5.1). A
//! counting global allocator checks the memory half of that on what really
//! runs:
//!
//! * `simulate` makes the same number of allocations on a `D`-day and a
//!   `2D`-day trace, for every policy but Predictive, at one worker and at
//!   four, on a 200-file fleet and on a fleet of five engine tiles.
//!   Predictive refits its plans, so it gets a per-refit budget.
//! * `serve`, run on one trace for `D` and for `2D` days (so both runs
//!   share their first `D` days), adds at most a committed number of
//!   allocations per extra day, for each serving configuration.
//!
//! Every assertion relates two runs of this binary, never an absolute
//! count, so a toolchain change that moves setup allocations does not break
//! it. The counter is one global atomic, so shard threads count too; the
//! file holds a single `#[test]`, so no other test's work can land in a
//! measurement. The test sees only the paths it exercises (DESIGN.md §13).

use minicost::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use store::{MigrateConfig, PoolBuild};

/// Horizon of the shorter run, in days; the longer run is twice this.
const D: usize = 20;

/// Files in every trace but the tiled ones.
const FILES: usize = 200;

/// Files per tile of the engine's shard loop (`engine::TILE_FILES`, private
/// to the engine): a shard forks its policy once per tile.
const TILE: usize = 1024;

/// Files in the tiled traces: five tiles at one worker, and shards of more
/// than one tile at four.
const TILED_FILES: usize = 5 * TILE;

/// Seed of the shard partition.
const SHARD_SEED: u64 = 3;

/// Shards of the parallel runs.
const WORKERS: usize = 4;

/// Predictive's refit cadence in days (the paper's weekly period).
const REFIT_EVERY: usize = 7;

/// A fork of Optimal (one per tile of every shard) boxes one handle to the
/// plans every fork shares; a Greedy fork is zero-sized and boxes nothing.
const OPTIMAL_ALLOCS_PER_FORK: u64 = 1;

/// Per file and refit, Predictive builds the file's observed history, its
/// forecast, the lattice solver's cost rows and parent table, and the plan
/// it keeps until the next refit.
const PREDICTIVE_ALLOCS_PER_FILE_REFIT: u64 = 5;

/// Exact serve grows each day's owned event batch from empty
/// (`TraceSource::next_batch`), which keeps peak memory at one day's
/// events; that growth is the whole per-day cost.
const SERVE_EXACT_ALLOCS_PER_DAY: u64 = 12;

/// Bounded serve (`max_tracked` 25) adds the sketch's promotions and
/// evictions of tracked files to the event batch growth; a day close
/// recycles the day sketch that leaves the ring, so it allocates none.
const SERVE_BOUNDED_ALLOCS_PER_DAY: u64 = 14;

/// A checkpoint every day adds to exact serve's event batch growth: one
/// buffer the snapshot is encoded into from borrowed serving state, with
/// nothing cloned, the rotation paths, and writing, syncing and renaming
/// the files.
const SERVE_CHECKPOINT_ALLOCS_PER_DAY: u64 = 28;

/// An attached directory store adds nothing per day to exact serving.
/// Greedy makes all its tier changes on this trace in the first `D` days,
/// so migrations have their own budget below.
const SERVE_DIR_STORE_ALLOCS_PER_DAY: u64 = 12;

/// Each migration into a directory store reads the source object, writes
/// and re-reads the copy, deletes the source and journals every phase.
const SERVE_DIR_STORE_ALLOCS_PER_MIGRATION: u64 = 98;

/// Allocations (and reallocations) made so far, by every thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation request.
struct Counting;

#[allow(unsafe_code, reason = "a global allocator is an unsafe trait; this one forwards to System")]
// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count is one relaxed atomic add,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`; returns its result and the allocations made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

fn trace(files: usize, days: usize) -> Trace {
    Trace::generate(&TraceConfig::small(files, days, 7))
}

/// The policies whose `simulate` allocations must not depend on the
/// horizon, as `policy_conformance` lists them: Hot, Cold, Greedy, a
/// briefly trained MiniCost agent, and Optimal planned on `trace`.
fn horizon_free_policies(
    trace: &Trace,
    model: &CostModel,
    agent: &MiniCost,
) -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(HotPolicy),
        Box::new(ColdPolicy),
        Box::new(GreedyPolicy),
        Box::new(agent.policy()),
        Box::new(OptimalPolicy::plan(trace, model, Tier::Hot)),
    ]
}

/// Allocations of one `simulate` call. `simulate` decides only on forks, so
/// no earlier run's scratch buffers are reused.
fn simulate_allocs(trace: &Trace, model: &CostModel, policy: &dyn Policy, workers: usize) -> u64 {
    let cfg =
        SimConfig::builder().seed(SHARD_SEED).workers(workers).build().expect("valid sim config");
    counted(|| simulate(trace, model, policy, &cfg)).1
}

/// Forks one `simulate` call makes at `workers`: one per tile of every
/// shard (`partition` returns one shard at one worker).
fn forks(trace: &Trace, workers: usize) -> u64 {
    let tiles = |files: usize| files.div_ceil(TILE) as u64;
    partition(trace, SHARD_SEED, workers).iter().map(|s| tiles(s.len())).sum()
}

/// Checks that `simulate` allocates as much over `short` as over `long`
/// (the same fleet over twice the days) for every horizon-free policy, and
/// that Optimal's forks cost no more than their handles.
fn check_horizon_free(
    short: &Trace,
    long: &Trace,
    model: &CostModel,
    agent: &MiniCost,
    failures: &mut Vec<String>,
) {
    let short_policies = horizon_free_policies(short, model, agent);
    let long_policies = horizon_free_policies(long, model, agent);
    for workers in [1, WORKERS] {
        let mut counts = BTreeMap::new();
        for (s, l) in short_policies.iter().zip(&long_policies) {
            let at_d = simulate_allocs(short, model, s.as_ref(), workers);
            let at_2d = simulate_allocs(long, model, l.as_ref(), workers);
            if at_d != at_2d {
                failures.push(format!(
                    "simulate {} on {} files at {workers} worker(s): {at_d} allocations over \
                     {D} days, {at_2d} over {}",
                    s.name(),
                    short.len(),
                    2 * D
                ));
            }
            counts.insert(s.name(), at_d);
        }
        let (greedy, optimal) = (counts["greedy"], counts["optimal"]);
        let forks = forks(short, workers);
        if optimal > greedy + OPTIMAL_ALLOCS_PER_FORK * forks {
            failures.push(format!(
                "simulate optimal on {} files at {workers} worker(s): {optimal} allocations, \
                 greedy {greedy}, {forks} forks",
                short.len()
            ));
        }
    }
}

/// Refits Predictive makes over `days` daily decisions.
fn refits(days: usize) -> u64 {
    days.div_ceil(REFIT_EVERY) as u64
}

/// A serving configuration under test and its per-day budget.
struct ServeCase {
    name: &'static str,
    budget: u64,
    /// The configuration, given a fresh directory for the run's files.
    cfg: fn(&Path) -> ServeConfig,
}

const SERVE_CASES: [ServeCase; 4] = [
    ServeCase {
        name: "exact",
        budget: SERVE_EXACT_ALLOCS_PER_DAY,
        cfg: |_| ServeConfig::default(),
    },
    ServeCase {
        name: "bounded",
        budget: SERVE_BOUNDED_ALLOCS_PER_DAY,
        cfg: |_| ServeConfig { max_tracked: Some(25), ..ServeConfig::default() },
    },
    ServeCase {
        name: "checkpointed",
        budget: SERVE_CHECKPOINT_ALLOCS_PER_DAY,
        cfg: |dir| ServeConfig {
            checkpoint_every: 1,
            checkpoint_path: Some(dir.join("checkpoint")),
            ..ServeConfig::default()
        },
    },
    ServeCase {
        name: "dir-store",
        budget: SERVE_DIR_STORE_ALLOCS_PER_DAY,
        cfg: |dir| ServeConfig {
            store: Some(StoreConfig {
                build: PoolBuild::Dir(dir.join("pool")),
                migrate: MigrateConfig::default(),
            }),
            ..ServeConfig::default()
        },
    },
];

/// An empty directory for one serve run.
fn run_dir(case: &str, days: usize) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("minicost-alloc-{}-{case}-{days:03}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("run dir");
    dir
}

/// Allocations of one `serve` call over the first `days` days, and the
/// migrations its store committed.
fn serve_allocs(
    trace: &Trace,
    model: &CostModel,
    policy: &dyn Policy,
    case: &ServeCase,
    days: usize,
) -> (u64, u64) {
    let dir = run_dir(case.name, days);
    let cfg = ServeConfig { max_days: Some(days), ..(case.cfg)(&dir) };
    let (report, n) = counted(|| serve(trace, model, policy, &cfg));
    let report = report.unwrap_or_else(|e| panic!("{} serve failed: {e:?}", case.name));
    assert_eq!(report.days_served_through, days, "{}", case.name);
    let migrations = report.store.as_ref().map_or(0, |s| s.jobs_committed);
    drop(report);
    std::fs::remove_dir_all(&dir).ok();
    (n, migrations)
}

#[test]
fn allocations_stay_within_their_budgets() {
    let model = CostModel::new(PricingPolicy::azure_blob_2020());
    let (short, long) = (trace(FILES, D), trace(FILES, 2 * D));
    let mut cfg = MiniCostConfig::fast();
    cfg.a3c.workers = 1;
    cfg.a3c.total_updates = 30;
    let agent = MiniCost::train(&short, &model, &cfg);
    let mut failures = Vec::new();

    check_horizon_free(&short, &long, &model, &agent, &mut failures);
    let (tiled_short, tiled_long) = (trace(TILED_FILES, D), trace(TILED_FILES, 2 * D));
    check_horizon_free(&tiled_short, &tiled_long, &model, &agent, &mut failures);

    let predictive = PredictivePolicy::new(forecast::Naive, REFIT_EVERY);
    let budget = PREDICTIVE_ALLOCS_PER_FILE_REFIT * FILES as u64 * (refits(2 * D) - refits(D));
    for workers in [1, WORKERS] {
        let at_d = simulate_allocs(&short, &model, &predictive, workers);
        let at_2d = simulate_allocs(&long, &model, &predictive, workers);
        if at_2d.saturating_sub(at_d) > budget {
            failures.push(format!(
                "simulate predictive at {workers} worker(s): {at_d} allocations over {D} days, \
                 {at_2d} over {}; budget {budget} more",
                2 * D
            ));
        }
    }

    for case in &SERVE_CASES {
        let (at_d, _) = serve_allocs(&long, &model, &GreedyPolicy, case, D);
        let (at_2d, _) = serve_allocs(&long, &model, &GreedyPolicy, case, 2 * D);
        let extra = at_2d.saturating_sub(at_d);
        if extra > case.budget * D as u64 {
            failures.push(format!(
                "serve {}: {at_d} allocations over {D} days, {at_2d} over {} ({} per day; \
                 budget {})",
                case.name,
                2 * D,
                extra as f64 / D as f64,
                case.budget
            ));
        }
    }

    // Cold moves every file out of Hot on day 0; Hot moves none.
    let store = &SERVE_CASES[3];
    let (idle, none) = serve_allocs(&long, &model, &HotPolicy, store, D);
    let (moving, migrations) = serve_allocs(&long, &model, &ColdPolicy, store, D);
    assert_eq!((none, migrations), (0, FILES as u64), "migrations committed by hot, cold");
    let extra = moving.saturating_sub(idle);
    if extra > SERVE_DIR_STORE_ALLOCS_PER_MIGRATION * migrations {
        failures.push(format!(
            "serve dir-store: {idle} allocations without migrations, {moving} with {migrations} \
             ({} per migration; budget {SERVE_DIR_STORE_ALLOCS_PER_MIGRATION})",
            extra as f64 / migrations as f64
        ));
    }

    assert!(failures.is_empty(), "allocation budgets exceeded:\n{}", failures.join("\n"));
}
