//! The five workloads: what each sets up, what one timed op is, and the
//! checks that its outputs are correct.
//!
//! Every workload is a closed loop: the next rep (or day) starts when the
//! previous one returns. Inputs come only from `Trace::generate` seeded by
//! `--seed`; the library receives nothing but the generated trace.

use crate::host::{HostClock, Timed};
use minicost::prelude::*;
use minicost::sim::SimResult;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use store::PoolBuild;

/// The workloads, in the order `run` executes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `simulate` + greedy: billing, columnarizing and the shard merge.
    SimGreedy,
    /// `simulate` + the width-128 actor: featurizing and NN inference.
    SimRl128,
    /// One long `serve` call: the read side of serving.
    ServeStream,
    /// One `serve` call per day with checkpoints and a store: the write side.
    ServeDaily,
    /// `MiniCost::train`: the NN layers under backprop and Adam.
    TrainA3c,
}

/// Every workload, in run order.
pub const WORKLOADS: [Workload; 5] = [
    Workload::SimGreedy,
    Workload::SimRl128,
    Workload::ServeStream,
    Workload::ServeDaily,
    Workload::TrainA3c,
];

/// Input size of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Size {
    /// Files in the generated trace.
    pub files: usize,
    /// Days in the generated trace.
    pub days: usize,
    /// A3C updates per timed `train` call (train-a3c only).
    pub updates: u64,
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimGreedy => "sim-greedy",
            Workload::SimRl128 => "sim-rl128",
            Workload::ServeStream => "serve-stream",
            Workload::ServeDaily => "serve-daily",
            Workload::TrainA3c => "train-a3c",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The input size; `quick` divides the file count (and updates) by ten.
    ///
    /// Sizes keep one op between about 0.5 and 2 s, so a run holds enough
    /// ops for a steady median on a small shared host.
    ///
    /// Every workload runs on one thread. On a two-core host, two busy
    /// threads measure whatever else the host runs: the median of 4-second
    /// windows swung by 30-37% at two threads against 1-5% at one.
    pub fn size(self, quick: bool) -> Size {
        let (files, days, updates) = match self {
            // 58 MB of u64 read/write columns: well past the last-level cache.
            Workload::SimGreedy => (10_000, 365, 0),
            // 63 days is the paper's trace length.
            Workload::SimRl128 => (1_000, 63, 0),
            Workload::ServeStream => (1_000, 350, 0),
            // Day 0 onboards the store; days 1.. are the timed invocations.
            Workload::ServeDaily => (1_000, 201, 0),
            Workload::TrainA3c => (2_000, 63, 150),
        };
        if quick {
            let days = if self == Workload::ServeDaily { 41 } else { days };
            Size { files: files / 10, days, updates: updates / 10 }
        } else {
            Size { files, days, updates }
        }
    }
}

/// How one workload process runs.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Seed for the generated trace (and every seeded library component).
    pub seed: u64,
    /// Seconds of timed ops; `0` runs exactly one op and no warm-up.
    pub seconds: f64,
    /// Run at a tenth of the size.
    pub quick: bool,
    /// Scratch directory inside the benchmark package.
    pub out_dir: PathBuf,
}

impl Settings {
    fn setup_reps(&self) -> usize {
        if self.seconds > 0.0 {
            5
        } else {
            1
        }
    }

    /// Untimed ops before the timed loop: caches, allocator and the host's
    /// first slow seconds settle. None in check mode.
    fn warm_up_seconds(&self) -> f64 {
        if self.seconds > 0.0 {
            1.5
        } else {
            0.0
        }
    }

    /// A private scratch directory for this process, removed by the caller.
    pub fn scratch_dir(&self, workload: Workload) -> PathBuf {
        self.out_dir.join(format!("tmp-{}-{}", workload.name(), std::process::id()))
    }
}

/// One correctness check.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, or the mismatch.
    pub detail: String,
}

impl Check {
    /// A check with the given outcome.
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check { name: name.to_owned(), ok, detail: detail.into() }
    }
}

/// Everything one untraced workload process measured.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Seconds of each set-up repetition, normalized to the reference host
    /// speed (see [`crate::host`]).
    pub setup_s: Vec<f64>,
    /// Wall seconds of each set-up repetition.
    pub setup_wall_s: Vec<f64>,
    /// Milliseconds of each timed op, normalized to the reference speed.
    pub op_ms: Vec<f64>,
    /// Wall milliseconds of each timed op.
    pub op_wall_ms: Vec<f64>,
    /// File-days each timed op processed (train-a3c: environment steps,
    /// one file-day decision each).
    pub op_work: Vec<f64>,
    /// `VmHWM` after the timed ops, in MB.
    pub peak_rss_mb: f64,
    /// Correctness checks, all run outside the timed regions.
    pub checks: Vec<Check>,
    /// Ops attempted: timed ops, migration jobs and checks.
    pub attempted: u64,
    /// Ops failed: errors, pinned or retried jobs and failed checks.
    pub failed: u64,
    /// Values this workload alone reports, `(name, value, unit)`; `compare`
    /// gates some of them.
    pub notes: Vec<(String, f64, String)>,
}

impl Measured {
    fn check(&mut self, check: Check) {
        self.attempted += 1;
        if !check.ok {
            self.failed += 1;
        }
        self.checks.push(check);
    }

    fn op(&mut self, t: Timed, work: f64) {
        self.attempted += 1;
        self.op_ms.push(t.ms);
        self.op_wall_ms.push(t.wall_ms);
        self.op_work.push(work);
    }

    fn setup(&mut self, times: &[Timed]) {
        self.setup_s = times.iter().map(|t| t.ms / 1e3).collect();
        self.setup_wall_s = times.iter().map(|t| t.wall_ms / 1e3).collect();
    }

    /// Whether every check held and no op failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// The pricing every workload bills under.
pub fn model() -> CostModel {
    CostModel::new(PricingPolicy::azure_blob_2020())
}

/// The workload's trace for `seed`.
pub fn generate(size: Size, seed: u64) -> Trace {
    Trace::generate(&TraceConfig { files: size.files, days: size.days, seed, ..Default::default() })
}

/// A simulate config with an explicit worker count.
pub fn sim_config(seed: u64, workers: usize) -> SimConfig {
    SimConfig::builder().seed(seed).workers(workers).build().expect("seeded, daily cadence")
}

/// The width-128 actor `MiniCostConfig::default()` ships, with the
/// parameters of a freshly initialized network.
pub fn rl_policy(seed: u64) -> RlPolicy {
    let spec = MiniCostConfig::default().net_spec();
    RlPolicy::from_params(spec, &spec.build_actor(seed).param_vector(), FeatureConfig::default())
}

/// `VmHWM` of this process in MB, 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall milliseconds of `f`, with its result.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Runs `setup` `reps` times, dropping each result before the next build
/// so peak memory reflects one copy, and returns the last result.
fn repeat_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, Vec<Timed>) {
    let mut clock = HostClock::new();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (t, state) = clock.time(&mut setup);
        times.push(t);
        last = Some(state);
    }
    (last.expect("at least one set-up"), times)
}

/// Runs `op` at least once, then again while another op is expected to
/// end within half an op of `seconds`, so long ops do not overshoot.
pub fn timed_reps<T>(seconds: f64, mut op: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let result = op(out.len());
        out.push(result);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / out.len() as f64 / 2.0 >= seconds {
            return out;
        }
    }
}

/// Untimed ops for `seconds` (at least one when `seconds > 0`).
fn warm_up(seconds: f64, mut op: impl FnMut()) {
    let start = Instant::now();
    if seconds > 0.0 {
        loop {
            op();
            if start.elapsed().as_secs_f64() >= seconds {
                return;
            }
        }
    }
}

/// Order-sensitive digests of the four ledgers a simulation produces.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Digests {
    /// FNV-1a over every day's storage/change/read/write charges.
    pub daily: String,
    /// FNV-1a over every file's total charge.
    pub per_file: String,
    /// Tier changes applied.
    pub tier_changes: u64,
    /// FNV-1a over every day's per-tier file counts.
    pub occupancy: String,
}

/// The ledger digests of `r`.
pub fn digests(r: &SimResult) -> Digests {
    let money = |m: Money| m.as_dollars().to_bits().to_le_bytes();
    let mut daily = Vec::new();
    for d in &r.daily {
        for m in [d.storage, d.change, d.read, d.write] {
            daily.extend_from_slice(&money(m));
        }
    }
    let per_file: Vec<u8> = r.per_file.iter().flat_map(|&m| money(m)).collect();
    let occupancy: Vec<u8> =
        r.occupancy.iter().flatten().flat_map(|&c| (c as u64).to_le_bytes()).collect();
    let hex = |bytes: &[u8]| format!("{:016x}", stream::fnv1a64(bytes));
    Digests {
        daily: hex(&daily),
        per_file: hex(&per_file),
        tier_changes: r.tier_changes,
        occupancy: hex(&occupancy),
    }
}

/// Whether two runs produced bit-identical ledgers.
pub fn same_ledgers(a: &SimResult, b: &SimResult) -> bool {
    a.daily == b.daily
        && a.per_file == b.per_file
        && a.tier_changes == b.tier_changes
        && a.occupancy == b.occupancy
}

/// The seed the pinned digests were recorded for.
pub const PINNED_SEED: u64 = 2020;

/// Ledger digests recorded for [`PINNED_SEED`], per workload and size.
fn pinned(workload: Workload, quick: bool) -> Option<Digests> {
    let all: BTreeMap<String, BTreeMap<String, Digests>> =
        serde_json::from_str(include_str!("../pinned.json")).expect("pinned.json parses");
    all.get(workload.name())?.get(if quick { "quick" } else { "full" }).cloned()
}

fn pinned_check(m: &mut Measured, workload: Workload, s: &Settings, got: &Digests) {
    if s.seed != PINNED_SEED {
        return;
    }
    match pinned(workload, s.quick) {
        Some(want) => m.check(Check::new(
            "ledger digests equal the pinned seed-2020 digests",
            &want == got,
            format!("got {got:?}, pinned {want:?}"),
        )),
        None => m.check(Check::new("pinned digests exist", false, "no entry in pinned.json")),
    }
}

/// Runs one workload untraced: set-up, warm-up, timed ops, then checks.
pub fn run(workload: Workload, s: &Settings) -> Measured {
    match workload {
        Workload::SimGreedy | Workload::SimRl128 => run_sim(workload, s),
        Workload::ServeStream => run_serve_stream(s),
        Workload::ServeDaily => run_serve_daily(s),
        Workload::TrainA3c => run_train(s),
    }
}

fn run_sim(workload: Workload, s: &Settings) -> Measured {
    let size = workload.size(s.quick);
    let model = model();
    let rl = workload == Workload::SimRl128;
    let mut m = Measured::default();
    let ((trace, mut policy), setup_s) = repeat_setup(s.setup_reps(), || {
        let policy: Box<dyn Policy> =
            if rl { Box::new(rl_policy(s.seed)) } else { Box::new(GreedyPolicy) };
        (generate(size, s.seed), policy)
    });
    m.setup(&setup_s);
    let cfg = sim_config(s.seed, 1);
    warm_up(s.warm_up_seconds(), || {
        simulate(&trace, &model, policy.as_mut(), &cfg);
    });
    let mut last = None;
    let mut clock = HostClock::new();
    let reps = timed_reps(s.seconds, |_| {
        clock.time(|| {
            let r = simulate(&trace, &model, policy.as_mut(), &cfg);
            let d = digests(&r);
            last = Some(r);
            d
        })
    });
    m.peak_rss_mb = peak_rss_mb();
    let work = (size.files * size.days) as f64;
    for (t, _) in &reps {
        m.op(*t, work);
    }

    let first = reps[0].1.clone();
    m.check(Check::new(
        "every timed rep produced the same ledgers",
        reps.iter().all(|(_, d)| *d == first),
        format!("{} reps, {first:?}", reps.len()),
    ));
    let r = last.expect("at least one timed rep");
    let files_ok = r.occupancy.iter().all(|d| d.iter().sum::<usize>() == size.files);
    let total: Money = r.per_file.iter().sum();
    m.check(Check::new(
        "per-file charges sum to the daily ledger and occupancy covers the fleet",
        total == r.total_cost() && files_ok && r.days() == size.days,
        format!("total {}", r.total_cost()),
    ));
    // The sharded engine must bill exactly what the single shard billed.
    let sharded = digests(&simulate(&trace, &model, policy.as_mut(), &sim_config(s.seed, 2)));
    m.check(Check::new(
        "workers 1 ledgers equal workers 2 ledgers",
        sharded == first,
        format!("workers 2: {sharded:?}"),
    ));
    pinned_check(&mut m, workload, s, &first);
    m
}

fn run_serve_stream(s: &Settings) -> Measured {
    let size = Workload::ServeStream.size(s.quick);
    let model = model();
    let mut m = Measured::default();
    let (trace, setup_s) = repeat_setup(s.setup_reps(), || generate(size, s.seed));
    m.setup(&setup_s);
    let cfg = ServeConfig { seed: s.seed, ..ServeConfig::default() };
    warm_up(s.warm_up_seconds(), || {
        let _ = serve(&trace, &model, &mut GreedyPolicy, &cfg);
    });
    let mut clock = HostClock::new();
    let reps =
        timed_reps(s.seconds, |_| clock.time(|| serve(&trace, &model, &mut GreedyPolicy, &cfg)));
    m.peak_rss_mb = peak_rss_mb();
    let batch = simulate(&trace, &model, &mut GreedyPolicy, &sim_config(s.seed, 1));
    let work = (size.files * size.days) as f64;
    let mut identical = true;
    let mut detail = format!("simulate: {:?}", digests(&batch));
    for (t, report) in &reps {
        m.op(*t, work);
        match report {
            Ok(r) => {
                identical &= same_ledgers(&r.result, &batch);
                m.failed += r.incidents.len() as u64;
            }
            Err(e) => {
                m.failed += 1;
                identical = false;
                detail = format!("serve failed: {e}");
            }
        }
    }
    m.check(Check::new("serve ledgers are bit-identical to simulate(greedy)", identical, detail));
    m
}

fn run_serve_daily(s: &Settings) -> Measured {
    let size = Workload::ServeDaily.size(s.quick);
    let model = model();
    let mut m = Measured::default();
    let ((trace, mut optimal), setup_s) = repeat_setup(s.setup_reps(), || {
        let trace = generate(size, s.seed);
        let optimal = OptimalPolicy::plan(&trace, &model, Tier::Hot);
        (trace, optimal)
    });
    m.setup(&setup_s);
    let reference = simulate(&trace, &model, &mut optimal.clone(), &sim_config(s.seed, 1));
    let scratch = s.scratch_dir(Workload::ServeDaily);

    // Every rep gets a fresh directory and nothing is deleted until the
    // timing ends: on a filesystem mounted with `discard`, freeing a rep's
    // thousand object files stalled the next days' fsyncs by 30-50%.
    let mut warm_ups = 0;
    let mut clock = HostClock::new();
    warm_up(s.warm_up_seconds(), || {
        let dir = scratch.join(format!("warm-up{warm_ups}"));
        warm_ups += 1;
        let _ =
            daily_rep(&trace, &model, &mut optimal, s.seed, &dir, 21.min(size.days), &mut clock);
    });
    let mut onboard_ms = Vec::new();
    let rep_outcomes = timed_reps(s.seconds, |i| {
        let dir = scratch.join(format!("rep{i}"));
        daily_rep(&trace, &model, &mut optimal, s.seed, &dir, size.days, &mut clock)
    });
    for rep in &rep_outcomes {
        if let Some(first) = rep.days.first() {
            onboard_ms.push(first.ms);
        }
        for &t in rep.days.iter().skip(1) {
            m.op(t, size.files as f64);
        }
    }
    m.peak_rss_mb = peak_rss_mb();
    remove_scratch(&scratch);

    let reps = rep_outcomes.len();
    let (mut completed, mut same, mut planned, mut committed) = (0, 0, 0, 0);
    let mut detail = String::new();
    for rep in &rep_outcomes {
        m.attempted += rep.jobs;
        m.failed += rep.failures;
        let Some(report) = &rep.last else {
            detail = rep.error.clone();
            continue;
        };
        completed += 1;
        same += usize::from(same_ledgers(&report.result, &reference));
        planned += usize::from(report.result.total_cost() == optimal.planned_cost);
        committed += usize::from(
            report.store.as_ref().is_some_and(|st| st.committed_bytes == st.billed_change_bytes),
        );
        detail = format!("{:?}", digests(&report.result));
    }
    let of_reps = |n: usize| format!("{n} of {reps} reps; {detail}");
    m.check(Check::new("every daily invocation succeeded", completed == reps, of_reps(completed)));
    m.check(Check::new(
        "final ledger is bit-identical to simulate(optimal)",
        same == reps,
        of_reps(same),
    ));
    m.check(Check::new(
        "final ledger equals the optimal plan's cost",
        planned == reps,
        format!("{} of {reps} reps; planned {}", planned, optimal.planned_cost),
    ));
    m.check(Check::new(
        "committed bytes equal billed tier-change bytes",
        committed == reps,
        of_reps(committed),
    ));
    if let Some(p) = crate::stats::tail_percentile(m.op_ms.len()) {
        let value = crate::stats::percentile(&m.op_ms, p);
        m.notes.push((format!("day_ms_p{p}"), value, "ms".to_owned()));
    }
    m.notes.push(("onboard_ms".to_owned(), crate::stats::median(&onboard_ms), "ms".to_owned()));
    m.notes.push((
        "migration_jobs_per_rep".to_owned(),
        rep_outcomes.first().map_or(0.0, |r| r.jobs as f64),
        "count".to_owned(),
    ));
    m
}

/// Removes a scratch directory, then commits the filesystem journal with
/// an fsync so the freed blocks are discarded before this process exits
/// rather than during the next run's timing.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let Some(parent) = dir.parent() else { return };
    let marker = parent.join(format!(".commit-{}", std::process::id()));
    if let Ok(file) = std::fs::File::create(&marker) {
        let _ = file.sync_all();
    }
    let _ = std::fs::remove_file(&marker);
}

/// The outcome of one onboarding-plus-daily-invocations rep.
pub struct DailyRep {
    /// The time of each invocation; index 0 is onboarding.
    pub days: Vec<Timed>,
    /// Migration jobs committed over the rep.
    pub jobs: u64,
    /// Pinned jobs, incidents and errors over the rep.
    pub failures: u64,
    /// The last invocation's report, when every invocation succeeded.
    pub last: Option<ServeReport>,
    /// The first error, if any.
    pub error: String,
}

/// The serve config of the daily deployment's invocation on `day`.
pub fn daily_config(seed: u64, dir: &Path, day: usize) -> ServeConfig {
    ServeConfig {
        seed,
        max_days: Some(day + 1),
        checkpoint_every: 1,
        checkpoint_path: Some(dir.join("checkpoint.json")),
        max_tracked: Some(100),
        store: Some(StoreConfig {
            build: PoolBuild::Dir(dir.join("pool")),
            migrate: store::MigrateConfig::default(),
        }),
        ..ServeConfig::default()
    }
}

/// Serves days `0..days` of `trace` as one `serve` call per day, each
/// resuming from the previous day's checkpoint under `dir`, timing each
/// call on `clock`.
pub fn daily_rep(
    trace: &Trace,
    model: &CostModel,
    policy: &mut OptimalPolicy,
    seed: u64,
    dir: &Path,
    days: usize,
    clock: &mut HostClock,
) -> DailyRep {
    let _ = std::fs::remove_dir_all(dir);
    let mut rep =
        DailyRep { days: Vec::new(), jobs: 0, failures: 0, last: None, error: String::new() };
    if let Err(e) = std::fs::create_dir_all(dir) {
        rep.failures += 1;
        rep.error = format!("{}: {e}", dir.display());
        return rep;
    }
    for day in 0..days {
        let cfg = daily_config(seed, dir, day);
        let (t, outcome) = clock.time(|| serve(trace, model, policy, &cfg));
        rep.days.push(t);
        match outcome {
            Ok(report) => {
                rep.failures += report.incidents.len() as u64;
                if let Some(st) = &report.store {
                    rep.jobs += st.jobs_committed + st.jobs_pinned;
                    rep.failures += st.jobs_pinned;
                }
                rep.last = Some(report);
            }
            Err(e) => {
                rep.failures += 1;
                rep.error = format!("day {day}: {e}");
                rep.last = None;
                return rep;
            }
        }
    }
    rep
}

/// The training configuration train-a3c times: the fast recipe at the
/// paper's width 128 on one A3C worker.
pub fn train_config(seed: u64, updates: u64) -> MiniCostConfig {
    let mut cfg = MiniCostConfig::fast();
    cfg.width = 128;
    cfg.a3c.workers = 1;
    cfg.a3c.seed = seed;
    cfg.a3c.total_updates = updates;
    cfg
}

fn run_train(s: &Settings) -> Measured {
    let size = Workload::TrainA3c.size(s.quick);
    let model = model();
    let mut m = Measured::default();
    let (trace, setup_s) = repeat_setup(s.setup_reps(), || generate(size, s.seed));
    m.setup(&setup_s);
    let cfg = train_config(s.seed, size.updates);
    let warm = train_config(s.seed, size.updates / 3);
    warm_up(s.warm_up_seconds(), || {
        let _ = MiniCost::train(&trace, &model, &warm);
    });
    let mut clock = HostClock::new();
    let reps = timed_reps(s.seconds, |_| clock.time(|| MiniCost::train(&trace, &model, &cfg)));
    m.peak_rss_mb = peak_rss_mb();
    let mut updates_ok = true;
    let mut finite = true;
    let mut applied = Vec::new();
    for (t, agent) in &reps {
        let updates = agent.result.updates;
        m.op(*t, (updates * cfg.a3c.rollout_len as u64) as f64);
        applied.push(updates as f64 / (t.ms / 1e3));
        updates_ok &= updates >= size.updates;
        finite &= agent
            .result
            .actor_params
            .iter()
            .chain(&agent.result.critic_params)
            .all(|p| p.is_finite());
    }
    m.check(Check::new(
        "every train call applied at least total_updates updates",
        updates_ok,
        format!(
            "updates per call: {:?}",
            reps.iter().map(|(_, a)| a.result.updates).collect::<Vec<_>>()
        ),
    ));
    m.check(Check::new("trained parameters are finite", finite, ""));
    m.notes.push(("updates_per_s".to_owned(), crate::stats::median(&applied), "1/s".to_owned()));
    m
}
