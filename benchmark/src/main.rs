//! The repository benchmark: five workloads over the MiniCost library, with
//! end-to-end metrics, correctness checks and an outside-in layer trace.
//!
//! Two ways in:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1 [--quick]` runs one
//!   workload in this process and prints, as its last stdout line, one JSON
//!   object `{correct, attempted, failed, metrics}`: the end-to-end metrics
//!   with `--trace 0`, the per-layer metrics with `--trace 1`.
//! * `run`, `trace`, `check` and `compare` drive every workload, each in its
//!   own child process, one at a time (see `README.md`).

mod host;
mod spans;
mod stats;
mod traced;
mod workloads;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Check, Measured, Settings, Size, Workload, WORKLOADS};

/// Seconds of timed ops per workload run (`run_seconds` in BENCHMARK.json).
const RUN_SECONDS: u64 = 12;
/// Seconds per workload under `--quick`.
const QUICK_SECONDS: u64 = 1;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("file_days_per_s", "file-days/s"),
    ("peak_rss_mb", "MB"),
];

/// One reported value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

fn metric(value: f64, unit: &str) -> MetricValue {
    MetricValue { value, unit: unit.to_owned() }
}

/// The last stdout line of a workload process.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

/// Raw per-op samples of an untraced workload process (`#samples` line).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Samples {
    workload: String,
    seed: u64,
    quick: bool,
    seconds: f64,
    size: Size,
    setup_s: Vec<f64>,
    setup_wall_s: Vec<f64>,
    op_ms: Vec<f64>,
    op_wall_ms: Vec<f64>,
    op_work: Vec<f64>,
    checks: Vec<Check>,
    notes: BTreeMap<String, MetricValue>,
}

/// The layer breakdown of a traced workload process (`#layers` line).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct LayerReport {
    workload: String,
    passes: u64,
    ref_ms: f64,
    traced_ms: f64,
    work: f64,
    layer_ms: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
    ratios: BTreeMap<String, f64>,
    checks: Vec<Check>,
    spans_file: String,
}

/// The spans of one traced process, as written to `out/`.
#[derive(Serialize)]
struct SpanFile {
    workload: String,
    seed: u64,
    spans: Vec<spans::Span>,
}

/// Where the host's result came from.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Host {
    nproc: usize,
    cpu_model: String,
    kernel: String,
}

/// One workload's entry in a `run` result file.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct WorkloadResult {
    name: String,
    exit_code: i32,
    outcome: Option<Outcome>,
    samples: Option<Samples>,
}

/// A `run` result file.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct RunFile {
    commit: String,
    host: Host,
    seed: u64,
    quick: bool,
    seconds: u64,
    workloads: Vec<WorkloadResult>,
}

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// Flags of the one-workload child protocol.
const WORKLOAD_FLAGS: &[&str] = &["workload", "seed", "seconds", "trace", "quick"];
/// Flags of `run`.
const RUN_FLAGS: &[&str] = &["seed", "quick", "workloads", "out"];
/// Flags of `trace` and `check`.
const PASS_FLAGS: &[&str] = &["seed", "quick", "workloads"];

/// Command-line flags: `--name value` pairs plus the `--quick` switch.
struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    /// Parses `args`, rejecting any flag not in `allowed`.
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if !allowed.contains(&name) {
                return Err(format!("unknown flag --{name} (allowed: --{})", allowed.join(", --")));
            }
            let value = match name {
                "quick" => "1".to_owned(),
                _ => it.next().ok_or_else(|| format!("--{name} needs a value"))?.clone(),
            };
            if values.insert(name.to_owned(), value).is_some() {
                return Err(format!("--{name} given twice"));
            }
        }
        Ok(Flags { values })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("--{name}: cannot parse {raw:?}")),
        }
    }

    fn quick(&self) -> bool {
        self.values.contains_key("quick")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some(a) if a.starts_with("--") => cmd_workload(&args),
        _ => Err("usage: minicost-benchmark run|trace|check|compare ... \
                  | --workload NAME --seed N --seconds S --trace 0|1 [--quick]"
            .to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process. Returns whether it was correct.
fn cmd_workload(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, WORKLOAD_FLAGS)?;
    let name = flags.values.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.get("seed", workloads::PINNED_SEED)?;
    let seconds: f64 = flags.get("seconds", RUN_SECONDS as f64)?;
    let trace: u8 = flags.get("trace", 0)?;
    if !seconds.is_finite() || seconds < 0.0 {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    let settings = Settings { seed, seconds, quick: flags.quick(), out_dir: out_dir() };
    std::fs::create_dir_all(&settings.out_dir)
        .map_err(|e| format!("{}: {e}", settings.out_dir.display()))?;
    let outcome = match trace {
        0 => untraced(workload, &settings),
        1 => traced(workload, &settings)?,
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    for (name, m) in &outcome.metrics {
        println!("{} {name} = {} {}", workload.name(), m.value, m.unit);
    }
    println!("{}", to_json(&outcome)?);
    Ok(outcome.correct)
}

fn to_json<T: Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

fn untraced(workload: Workload, s: &Settings) -> Outcome {
    let m: Measured = workloads::run(workload, s);
    let rates: Vec<f64> = m.op_work.iter().zip(&m.op_ms).map(|(w, ms)| w / (ms / 1e3)).collect();
    let values =
        [stats::median(&m.setup_s), stats::median(&m.op_ms), stats::median(&rates), m.peak_rss_mb];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_owned(), metric(value, unit)))
        .collect();
    for c in m.checks.iter().filter(|c| !c.ok) {
        eprintln!("{}: check failed: {}: {}", workload.name(), c.name, c.detail);
    }
    let samples = Samples {
        workload: workload.name().to_owned(),
        seed: s.seed,
        quick: s.quick,
        seconds: s.seconds,
        size: workload.size(s.quick),
        setup_s: m.setup_s.clone(),
        setup_wall_s: m.setup_wall_s.clone(),
        op_ms: m.op_ms.clone(),
        op_wall_ms: m.op_wall_ms.clone(),
        op_work: m.op_work.clone(),
        checks: m.checks.clone(),
        notes: m.notes.iter().map(|(n, v, u)| (n.clone(), metric(*v, u))).collect(),
    };
    if let Ok(line) = to_json(&samples) {
        println!("#samples {line}");
    }
    Outcome { correct: m.correct(), attempted: m.attempted, failed: m.failed, metrics }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn layer_metrics(t: &traced::Traced) -> BTreeMap<String, MetricValue> {
    let mut metrics = BTreeMap::new();
    for layer in traced::LAYERS {
        metrics.insert(format!("{layer}_pct"), metric(t.share_pct(layer), "%"));
    }
    for (name, unit) in traced::COUNTS {
        metrics.insert(name.to_owned(), metric(t.counts.get(name).copied().unwrap_or(0.0), unit));
    }
    metrics.insert("trace.generate_ms".to_owned(), metric(t.generate_ms(), "ms"));
    metrics.insert("trace.ref_ms".to_owned(), metric(t.ref_ms / t.passes as f64, "ms"));
    metrics.insert("trace.overhead".to_owned(), metric(t.overhead(), "ratio"));
    metrics
}

fn traced(workload: Workload, s: &Settings) -> Result<Outcome, String> {
    let t = traced::run(workload, s);
    let spans_path = s.out_dir.join(format!("spans-{}-seed{}.json", workload.name(), s.seed));
    let body = to_json(&SpanFile {
        workload: workload.name().to_owned(),
        seed: s.seed,
        spans: t.tracer.spans().to_vec(),
    })?;
    std::fs::write(&spans_path, body).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let failed = t.checks.iter().filter(|c| !c.ok).count() as u64;
    for c in t.checks.iter().filter(|c| !c.ok) {
        eprintln!("{}: check failed: {}: {}", workload.name(), c.name, c.detail);
    }
    let report = LayerReport {
        workload: workload.name().to_owned(),
        passes: t.passes,
        ref_ms: t.ref_ms,
        traced_ms: t.traced_ms,
        work: t.work,
        layer_ms: t.layer_ms.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        counts: t.counts.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        ratios: t.ratios.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        checks: t.checks.clone(),
        spans_file: spans_path.display().to_string(),
    };
    println!("#layers {}", to_json(&report)?);
    Ok(Outcome {
        correct: failed == 0,
        attempted: t.passes + t.checks.len() as u64,
        failed,
        metrics: layer_metrics(&t),
    })
}

/// What a child workload process printed.
struct Child {
    workload: Workload,
    exit_code: i32,
    outcome: Option<Outcome>,
    extra: Option<String>,
}

/// Runs each workload in its own child process, one at a time, with
/// `MINICOST_WORKERS` unset so thread counts are the benchmark's own.
fn run_children(flags: &Flags, seconds: f64, trace: u8) -> Result<Vec<Child>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed: u64 = flags.get("seed", workloads::PINNED_SEED)?;
    let selected: Vec<Workload> = match flags.values.get("workloads") {
        None => WORKLOADS.to_vec(),
        Some(list) => list
            .split(',')
            .map(|n| Workload::parse(n).ok_or_else(|| format!("unknown workload {n:?}")))
            .collect::<Result<_, _>>()?,
    };
    let mut children = Vec::new();
    for workload in selected {
        eprintln!("[{}] seed {seed}, {seconds} s, trace {trace}", workload.name());
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", &trace.to_string()])
            .env_remove("MINICOST_WORKERS")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if flags.quick() {
            cmd.arg("--quick");
        }
        let output = cmd.output().map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let outcome = stdout.lines().last().and_then(|l| serde_json::from_str(l).ok());
        let extra = stdout
            .lines()
            .find_map(|l| l.strip_prefix("#samples ").or_else(|| l.strip_prefix("#layers ")))
            .map(str::to_owned);
        children.push(Child {
            workload,
            exit_code: output.status.code().unwrap_or(-1),
            outcome,
            extra,
        });
    }
    Ok(children)
}

/// Seconds per workload for `run` and `trace`: fixed by the benchmark, so
/// runs of a parent and of a change always measure the same length.
fn run_seconds(flags: &Flags) -> u64 {
    if flags.quick() {
        QUICK_SECONDS
    } else {
        RUN_SECONDS
    }
}

fn host() -> Host {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |k| k.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    Host { nproc, cpu_model, kernel }
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(package_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn unix_now() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// `run`: every end-to-end metric of every workload, checks, result file.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, RUN_FLAGS)?;
    let seconds = run_seconds(&flags);
    let seed: u64 = flags.get("seed", workloads::PINNED_SEED)?;
    let children = run_children(&flags, seconds as f64, 0)?;
    let h = host();
    println!("host: {} x {} (kernel {})", h.nproc, h.cpu_model, h.kernel);
    println!("{:<13} {:<16} {:>16} {:<12} samples", "workload", "metric", "value", "unit");
    let mut ok = true;
    let mut results = Vec::new();
    for child in children {
        let samples: Option<Samples> =
            child.extra.as_deref().and_then(|l| serde_json::from_str(l).ok());
        let name = child.workload.name();
        match &child.outcome {
            Some(o) => {
                let n = samples.as_ref().map_or(0, |s| s.op_ms.len());
                for (metric, m) in &o.metrics {
                    println!("{name:<13} {metric:<16} {:>16.4} {:<12} n={n}", m.value, m.unit);
                }
                let error_rate = o.failed as f64 / o.attempted.max(1) as f64;
                println!(
                    "{name:<13} {:<16} {error_rate:>16.4} {:<12} {}/{}",
                    "error_rate", "ratio", o.failed, o.attempted
                );
                for (note, m) in samples.iter().flat_map(|s| &s.notes) {
                    let gated = GATED_NOTES.iter().any(|(n, ..)| n == note);
                    let gate = if gated { "(gated by compare)" } else { "(not gated)" };
                    println!("{name:<13} {note:<16} {:>16.4} {:<12} {gate}", m.value, m.unit);
                }
                ok &= o.correct && child.exit_code == 0;
            }
            None => {
                println!("{name:<13} FAILED (exit {}, no result line)", child.exit_code);
                ok = false;
            }
        }
        for c in samples.iter().flat_map(|s| &s.checks) {
            println!("{name:<13} check {}: {}", if c.ok { "ok  " } else { "FAIL" }, c.name);
        }
        results.push(WorkloadResult {
            name: name.to_owned(),
            exit_code: child.exit_code,
            outcome: child.outcome,
            samples,
        });
    }
    let file = RunFile {
        commit: commit(),
        host: h,
        seed,
        quick: flags.quick(),
        seconds,
        workloads: results,
    };
    let path = match flags.values.get("out") {
        Some(p) => PathBuf::from(p),
        None => out_dir().join(format!("run-seed{seed}-{}.json", unix_now())),
    };
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&path, to_json(&file)? + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// `check`: one op per workload and its correctness checks, no timing loop.
fn cmd_check(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, PASS_FLAGS)?;
    let mut ok = true;
    for child in run_children(&flags, 0.0, 0)? {
        let samples: Option<Samples> =
            child.extra.as_deref().and_then(|l| serde_json::from_str(l).ok());
        let correct = child.outcome.as_ref().is_some_and(|o| o.correct) && child.exit_code == 0;
        ok &= correct;
        println!("{:<13} {}", child.workload.name(), if correct { "ok" } else { "FAILED" });
        for c in samples.iter().flat_map(|s| &s.checks) {
            println!("  {} {} ({})", if c.ok { "ok  " } else { "FAIL" }, c.name, c.detail);
        }
    }
    Ok(ok)
}

/// `trace`: one traced pass per workload, printed as a layer table.
fn cmd_trace(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, PASS_FLAGS)?;
    let children = run_children(&flags, run_seconds(&flags) as f64, 1)?;
    let mut ok = true;
    let mut per_file_day = BTreeMap::new();
    for child in &children {
        let name = child.workload.name();
        let report: Option<LayerReport> =
            child.extra.as_deref().and_then(|l| serde_json::from_str(l).ok());
        let (Some(o), Some(r)) = (&child.outcome, report) else {
            println!("{name}: FAILED (exit {})", child.exit_code);
            ok = false;
            continue;
        };
        ok &= o.correct && child.exit_code == 0;
        println!(
            "== {name}: library call {:.1} ms per pass over {} pass(es); spans in {}",
            r.ref_ms / r.passes as f64,
            r.passes,
            r.spans_file
        );
        println!("  {:<26} {:>12} {:>8}", "layer", "self ms", "share");
        for layer in traced::LAYERS {
            if let Some(ms) = r.layer_ms.get(layer).filter(|ms| **ms != 0.0) {
                println!(
                    "  {layer:<26} {:>12.2} {:>7.2}%",
                    ms / r.passes as f64,
                    ms / r.ref_ms * 100.0
                );
            }
        }
        for (count, value) in &r.counts {
            println!("  {count:<26} {value:>12.0}");
        }
        for (ratio, value) in &r.ratios {
            println!("  {ratio:<26} {value:>12.4}");
        }
        println!("  {:<26} {:>12.4}", "trace.overhead", r.traced_ms / r.ref_ms - 1.0);
        for c in &r.checks {
            println!("  check {}: {}", if c.ok { "ok  " } else { "FAIL" }, c.name);
        }
        per_file_day.insert(name, r.ref_ms / r.passes as f64 / r.work);
    }
    if let (Some(rl), Some(greedy)) =
        (per_file_day.get("sim-rl128"), per_file_day.get("sim-greedy"))
    {
        println!(
            "ratio.rl128_over_greedy {:.2} (simulate ms per file-day, workers 1)",
            rl / greedy
        );
    }
    Ok(ok)
}

/// The gated metrics of `BENCHMARK.json`.
#[derive(Deserialize)]
struct Spec {
    end_to_end: Vec<MetricSpec>,
}

#[derive(Deserialize)]
struct MetricSpec {
    name: String,
    better: String,
    bound: f64,
}

fn load_json<T: serde::Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `x` to five significant digits, for tables.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 { 0 } else { 4 - x.abs().log10().floor() as i32 };
    format!("{x:.*}", digits.max(0) as usize)
}

/// Values `run` prints beside the end-to-end metrics that `compare` gates
/// too: `(name, better, bound)`. Each exists for one workload only
/// (serve-daily's tail, train-a3c's update rate), while every
/// `BENCHMARK.json` metric is reported by every workload.
const GATED_NOTES: [(&str, &str, f64); 2] =
    [("day_ms_p95", "lower", 0.25), ("updates_per_s", "higher", 0.25)];

/// Refuses to compare result files measured differently: every file must
/// share `quick` and `seconds`, and run `i` of the parent must have the
/// seed of run `i` of the change, since pairs are formed by position.
fn comparable(base: &[RunFile], new: &[RunFile]) -> Result<(), String> {
    let first = &base[0];
    for (i, r) in base.iter().chain(new).enumerate() {
        if (r.quick, r.seconds) != (first.quick, first.seconds) {
            return Err(format!(
                "result file {} ran with quick={} seconds={}, the first with quick={} seconds={}",
                i + 1,
                r.quick,
                r.seconds,
                first.quick,
                first.seconds
            ));
        }
    }
    for (i, (a, b)) in base.iter().zip(new).enumerate() {
        if a.seed != b.seed {
            return Err(format!(
                "pair {}: parent seed {} against change seed {}; list both sides in the same \
                 seed order",
                i + 1,
                a.seed,
                b.seed
            ));
        }
    }
    Ok(())
}

/// `compare A.json... vs B.json...`: parent runs against change runs.
fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let split =
        args.iter().position(|a| a == "vs").ok_or("usage: compare A.json... vs B.json...")?;
    let (base_paths, new_paths) = (&args[..split], &args[split + 1..]);
    if base_paths.is_empty() || new_paths.is_empty() {
        return Err("compare needs at least one result file on each side of `vs`".to_owned());
    }
    let spec: Spec = load_json(&package_dir().join("../BENCHMARK.json"))?;
    let gated: Vec<MetricSpec> = spec
        .end_to_end
        .into_iter()
        .chain(GATED_NOTES.iter().map(|&(name, better, bound)| MetricSpec {
            name: name.to_owned(),
            better: better.to_owned(),
            bound,
        }))
        .collect();
    let load = |paths: &[String]| -> Result<Vec<RunFile>, String> {
        paths.iter().map(|p| load_json(Path::new(p))).collect()
    };
    let (base, new) = (load(base_paths)?, load(new_paths)?);
    comparable(&base, &new)?;
    let values = |runs: &[RunFile], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .flat_map(|r| &r.workloads)
            .filter(|w| w.name == workload)
            .filter_map(|w| {
                let metrics = &w.outcome.as_ref()?.metrics;
                let m = metrics.get(metric).or_else(|| w.samples.as_ref()?.notes.get(metric))?;
                Some(m.value)
            })
            .collect()
    };
    let errors = |runs: &[RunFile], workload: &str| -> (u64, u64) {
        runs.iter()
            .flat_map(|r| &r.workloads)
            .filter(|w| w.name == workload)
            .filter_map(|w| w.outcome.as_ref())
            .fold((0, 0), |(f, a), o| (f + o.failed, a + o.attempted))
    };
    println!(
        "{:<13} {:<16} {:>28} {:>28} {:>6} verdict",
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "wins"
    );
    let mut ok = true;
    for workload in WORKLOADS {
        let name = workload.name();
        for m in &gated {
            let better =
                stats::Better::parse(&m.better).ok_or_else(|| format!("better: {:?}", m.better))?;
            let (a, b) = (values(&base, name, &m.name), values(&new, name, &m.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let c = stats::compare(&a, &b, better, m.bound);
            let fmt = |q: (f64, f64, f64)| format!("{}/{}/{}", sig(q.0), sig(q.1), sig(q.2));
            println!(
                "{name:<13} {:<16} {:>28} {:>28} {:>6} {}",
                m.name,
                fmt(c.base),
                fmt(c.new),
                format!("{}/{}", c.wins, c.pairs),
                c.verdict.name()
            );
            ok &= c.verdict != stats::Verdict::Regressed;
        }
        let ((fa, aa), (fb, ab)) = (errors(&base, name), errors(&new, name));
        let (ra, rb) = (fa as f64 / aa.max(1) as f64, fb as f64 / ab.max(1) as f64);
        let rose = rb > ra;
        println!(
            "{name:<13} {:<16} {:>28} {:>28} {:>6} {}",
            "error_rate",
            format!("{ra:.4} ({fa}/{aa})"),
            format!("{rb:.4} ({fb}/{ab})"),
            "",
            if rose { "regressed" } else { "unchanged" }
        );
        ok &= !rose;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the code emits are exactly the ones BENCHMARK.json
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        #[derive(Deserialize)]
        struct Entry {
            name: String,
            unit: String,
        }
        #[derive(Deserialize)]
        struct Declared {
            run_seconds: u64,
            end_to_end: Vec<Entry>,
            per_layer: Vec<Entry>,
            workloads: Vec<Named>,
        }
        #[derive(Deserialize)]
        struct Named {
            name: String,
        }
        let d: Declared = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(d.run_seconds, RUN_SECONDS);
        let declared: Vec<(String, String)> =
            d.end_to_end.iter().map(|e| (e.name.clone(), e.unit.clone())).collect();
        let emitted: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
        assert_eq!(declared, emitted);

        let t = traced::Traced { ref_ms: 1.0, passes: 1, traced_ms: 1.0, ..Default::default() };
        let emitted: BTreeMap<String, String> =
            layer_metrics(&t).into_iter().map(|(n, m)| (n, m.unit)).collect();
        let declared: BTreeMap<String, String> =
            d.per_layer.into_iter().map(|e| (e.name, e.unit)).collect();
        assert_eq!(declared, emitted);

        let names: Vec<String> = d.workloads.into_iter().map(|w| w.name).collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name().to_owned()).collect::<Vec<_>>());
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let f = Flags::parse(&strings(&["--seed", "7", "--quick"]), RUN_FLAGS).unwrap();
        assert_eq!(f.get("seed", 0u64).unwrap(), 7);
        assert!(f.quick());
        assert!(Flags::parse(&strings(&["--seed"]), RUN_FLAGS).is_err());
        assert!(Flags::parse(&strings(&["stray"]), RUN_FLAGS).is_err());
        assert!(Flags::parse(&strings(&["--seed", "1", "--seed", "2"]), RUN_FLAGS).is_err());
    }

    #[test]
    fn flags_reject_names_the_command_does_not_take() {
        // A typo, a child-protocol flag on `run`, and the run length, which
        // only the child protocol takes.
        for bad in [["--sed", "7"], ["--workload", "sim-greedy"], ["--seconds", "3"]] {
            assert!(Flags::parse(&strings(&bad), RUN_FLAGS).is_err(), "{bad:?}");
        }
        assert!(Flags::parse(&strings(&["--out", "x.json"]), PASS_FLAGS).is_err());
        let child = ["--workload", "sim-greedy", "--seed", "1", "--seconds", "3", "--trace", "0"];
        assert!(Flags::parse(&strings(&child), WORKLOAD_FLAGS).is_ok());
        assert!(Flags::parse(&strings(&["--workloads", "sim-greedy"]), WORKLOAD_FLAGS).is_err());
    }

    fn run_file(seed: u64, quick: bool, seconds: u64) -> RunFile {
        RunFile {
            commit: String::new(),
            host: Host { nproc: 1, cpu_model: String::new(), kernel: String::new() },
            seed,
            quick,
            seconds,
            workloads: Vec::new(),
        }
    }

    #[test]
    fn compare_refuses_files_measured_differently() {
        let a = [run_file(1, false, 12), run_file(2, false, 12)];
        assert!(comparable(&a, &[run_file(1, false, 12), run_file(2, false, 12)]).is_ok());
        assert!(comparable(&a, &[run_file(1, false, 12)]).is_ok());
        assert!(comparable(&a, &[run_file(2, false, 12), run_file(1, false, 12)]).is_err());
        assert!(comparable(&a, &[run_file(1, true, 1), run_file(2, true, 1)]).is_err());
        assert!(comparable(&a, &[run_file(1, false, 5), run_file(2, false, 12)]).is_err());
    }
}
