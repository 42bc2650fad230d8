//! `minicost` — the command-line front end.
//!
//! ```text
//! minicost generate --files 5000 --days 35 --seed 7 --out trace.csv
//! minicost analyze  --trace trace.csv
//! minicost train    --trace trace.csv --updates 100000 --width 32 --out agent.json
//! minicost evaluate --trace trace.csv --agent agent.json
//! ```
//!
//! `generate` writes a synthetic calibrated trace (or bring your own CSV in
//! the `tracegen::io` interchange format, e.g. converted from a real
//! pagecounts dump); `analyze` prints the Fig. 2 variability histogram;
//! `train` fits a MiniCost agent on the 80% split and saves it as JSON;
//! `evaluate` compares Hot/Cold/Greedy/MiniCost/Optimal on the 20% split.

use minicost::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use store::{MigrateConfig, PoolBuild};
use tracegen::FileId;

/// A CLI failure carrying the process exit code. `serve` maps its error
/// taxonomy onto distinct codes (see [`USAGE`]); a flag the command does
/// not read exits 2; every other failure exits 1.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    /// A generic (exit 1) failure.
    fn general(message: String) -> CliError {
        CliError { code: 1, message }
    }

    /// A configuration/usage failure (exit 2).
    fn config(message: String) -> CliError {
        CliError { code: 2, message }
    }
}

/// The `serve` exit-code taxonomy: 2 for configuration errors, 3 for
/// unrecoverable snapshot state (corrupt beyond rotation, or incompatible
/// with the run), 4 for faults that outlived the retry budget, 5 for an
/// unrecoverable object-store state (journal/pool disagreement), 6 for an
/// injected crash mid-migration (restart to recover), 1 otherwise.
fn serve_exit_code(e: &ServeError) -> u8 {
    match e {
        ServeError::Config(_) => 2,
        ServeError::Snapshot(_)
        | ServeError::SnapshotMismatch(_)
        | ServeError::Unrecoverable(_) => 3,
        ServeError::RetriesExhausted { .. } => 4,
        ServeError::Pool(_) => 5,
        ServeError::InjectedCrash(_) => 6,
        ServeError::Stream(_) | ServeError::Policy(_) => 1,
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(command) => parse_flags(args, command).and_then(|flags| (command.run)(&flags)),
        None => Err(CliError::general(format!("unknown command {name:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}\n{USAGE}", e.message);
            ExitCode::from(e.code)
        }
    }
}

/// A subcommand: its entry point and every flag it reads.
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Flags) -> Result<(), CliError>,
}

/// The subcommands. Each `flags` list is exactly the names the command's
/// `flag(..)`/`flags.get(..)` calls read; [`parse_flags`] rejects any other
/// flag, so a misspelt option fails instead of being silently ignored.
const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        flags: &["files", "days", "seed", "out"],
        run: |flags| generate(flags).map_err(CliError::general),
    },
    Command {
        name: "analyze",
        flags: &["trace"],
        run: |flags| analyze(flags).map_err(CliError::general),
    },
    Command {
        name: "train",
        flags: &["trace", "pricing", "out", "width", "updates", "workers", "seed"],
        run: |flags| train(flags).map_err(CliError::general),
    },
    Command {
        name: "evaluate",
        flags: &["trace", "pricing", "agent", "seed", "workers"],
        run: |flags| evaluate(flags).map_err(CliError::general),
    },
    Command {
        name: "serve",
        flags: &[
            "trace",
            "pricing",
            "seed",
            "decide-every",
            "agent",
            "policy",
            "max-tracked",
            "max-days",
            "store",
            "store-dir",
            "migrate-bw",
            "migrate-inflight",
            "checkpoint-every",
            "checkpoint",
            "checkpoint-keep",
            "fault-plan",
            "chaos-seed",
            "degraded-policy",
            "verify-batch",
            "workers",
        ],
        run: serve_cmd,
    },
];

const USAGE: &str = "usage:
  minicost generate --files N --days D [--seed S] --out trace.csv
  minicost analyze  --trace trace.csv
  minicost train    --trace trace.csv [--updates U] [--width W] [--seed S] \\
                    [--pricing paper|azure|aws] --out agent.json
  minicost evaluate --trace trace.csv --agent agent.json [--pricing ...] \\
                    [--workers W]
  minicost serve    --trace trace.csv [--policy hot|cold|greedy | --agent agent.json] \\
                    [--decide-every N] [--seed S] [--max-tracked K] \\
                    [--checkpoint snap.json] [--checkpoint-every E] \\
                    [--checkpoint-keep R] [--max-days D] [--verify-batch true] \\
                    [--store mem | --store-dir DIR] [--migrate-bw MIBS] \\
                    [--migrate-inflight N] \\
                    [--chaos-seed C | --fault-plan plan.json] \\
                    [--degraded-policy hot|cold|greedy] [--pricing ...]

serve chaos/recovery:
  --chaos-seed C        arm the standard seeded fault plan (replayable)
  --fault-plan F.json   arm a custom fault plan from a JSON file
  --degraded-policy P   pin decisions to baseline P when the policy step
                        fails past the retry budget (default: abort)
  --checkpoint-keep R   rotated predecessors kept for restore fallback
                        (default 2); incidents are summarized on stderr

serve object store:
  --store mem           attach an in-memory tiered pool (cannot resume)
  --store-dir DIR       attach a directory-backed pool + migration journal;
                        torn migrations recover on restart
  --migrate-bw MIBS     cap modeled migration bandwidth (MiB/s, 0 = device)
  --migrate-inflight N  virtual migration lanes draining the queue (default 4)

serve exit codes:
  0 success            2 configuration error      5 unrecoverable pool error
  1 other failure      3 unrecoverable snapshot   6 injected crash mid-migration
                       4 fault budget exhausted     (restart to recover)";

type Flags = BTreeMap<String, String>;

/// Parses `--name value` pairs. A flag `command` does not read is a
/// configuration error (exit 2) naming it.
fn parse_flags(
    mut args: impl Iterator<Item = String>,
    command: &Command,
) -> Result<Flags, CliError> {
    let mut flags = BTreeMap::new();
    while let Some(key) = args.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| CliError::general(format!("expected --flag, got {key:?}")))?;
        if !command.flags.contains(&name) {
            return Err(CliError::config(format!("{} does not take --{name}", command.name)));
        }
        let value =
            args.next().ok_or_else(|| CliError::general(format!("--{name} needs a value")))?;
        flags.insert(name.to_owned(), value);
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{name} {v:?}: {e}")),
    }
}

fn required<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags.get(name).map(String::as_str).ok_or_else(|| format!("--{name} is required"))
}

fn pricing(flags: &Flags) -> Result<CostModel, String> {
    let name = flags.get("pricing").map_or("paper", String::as_str);
    let policy = match name {
        "paper" => PricingPolicy::paper_2020(),
        "azure" => PricingPolicy::azure_blob_2020(),
        "aws" => PricingPolicy::aws_s3_like(),
        other => return Err(format!("unknown pricing {other:?} (paper|azure|aws)")),
    };
    Ok(CostModel::new(policy))
}

fn load_trace(flags: &Flags) -> Result<Trace, String> {
    let path = required(flags, "trace")?;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    tracegen::io::read_csv(file).map_err(|e| e.to_string())
}

fn generate(flags: &Flags) -> Result<(), String> {
    let cfg = TraceConfig {
        files: flag(flags, "files", 5_000usize)?,
        days: flag(flags, "days", 35usize)?,
        seed: flag(flags, "seed", 2020u64)?,
        ..TraceConfig::default()
    };
    cfg.validate()?;
    let out = required(flags, "out")?;
    let trace = Trace::generate(&cfg);
    let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
    tracegen::io::write_csv(&trace, file).map_err(|e| e.to_string())?;
    println!(
        "wrote {} files x {} days to {out} ({:.1}M reads)",
        trace.len(),
        trace.days,
        trace.total_reads() as f64 / 1e6
    );
    Ok(())
}

fn analyze(flags: &Flags) -> Result<(), String> {
    let trace = load_trace(flags)?;
    let summary = tracegen::analysis::summarize(&trace);
    println!(
        "{} files x {} days | mean daily reads {:.1} (peak {:.0}) | mean size {:.3} GB",
        summary.files,
        summary.days,
        summary.mean_daily_reads,
        summary.peak_daily_reads,
        summary.mean_size_gb
    );
    let hist = tracegen::analysis::bucket_histogram(&trace);
    let fractions = hist.fractions();
    println!("variability buckets (normalized daily std):");
    for (i, label) in tracegen::analysis::CV_BUCKET_LABELS.iter().enumerate() {
        println!("  {label:>8}: {:>8} files ({:.2}%)", hist.counts[i], fractions[i] * 100.0);
    }
    Ok(())
}

fn train(flags: &Flags) -> Result<(), String> {
    let trace = load_trace(flags)?;
    let model = pricing(flags)?;
    let out = required(flags, "out")?;
    let mut cfg = MiniCostConfig::fast();
    cfg.width = flag(flags, "width", 32usize)?;
    cfg.a3c.total_updates = flag(flags, "updates", 50_000u64)?;
    cfg.a3c.workers = flag(flags, "workers", 4usize)?;
    cfg.a3c.seed = flag(flags, "seed", 0u64)?;
    // A clamped ledger is not a price to learn from; `serve` and `evaluate`
    // refuse such a trace the same way. The check bills the whole trace, not
    // the train split, because the split renumbers files and the error must
    // name the file as the trace does.
    let sim_cfg = SimConfig::builder()
        .seed(cfg.a3c.seed)
        .workers(cfg.a3c.workers)
        .build()
        .map_err(|e| e.to_string())?;
    check_unsaturated(
        trace.files.iter().map(|f| f.id),
        &simulate(&trace, &model, &GreedyPolicy, &sim_cfg),
    )?;
    let split = trace.split(0.8, cfg.a3c.seed);
    eprintln!(
        "training on {} files for {} updates (width {}) ...",
        split.train.len(),
        cfg.a3c.total_updates,
        cfg.width
    );
    let agent = MiniCost::train(&split.train, &model, &cfg);
    agent.save(Path::new(out)).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "saved agent to {out} (final optimal-action rate: {})",
        agent.final_optimal_rate().map_or_else(|| "n/a".into(), |r| format!("{:.1}%", r * 100.0))
    );
    Ok(())
}

/// `minicost serve`: run a policy online over the trace's event stream
/// with bounded-memory statistics, optional checkpoint/restore with
/// rotation, and the optional chaos harness (`--chaos-seed` /
/// `--fault-plan`) exercising the supervisor's recovery paths. With
/// `--verify-batch true` the streamed ledgers are compared against the
/// batch simulator and a mismatch fails the command — the CI smoke job's
/// equivalence gate (which must hold even under a recoverable fault plan).
fn serve_cmd(flags: &Flags) -> Result<(), CliError> {
    let trace = load_trace(flags).map_err(CliError::config)?;
    let model = pricing(flags).map_err(CliError::config)?;
    let seed = flag(flags, "seed", 0u64).map_err(CliError::config)?;
    let decide_every = flag(flags, "decide-every", 1usize).map_err(CliError::config)?;

    let policy: Box<dyn Policy> = match flags.get("agent") {
        Some(agent_path) => {
            let agent = MiniCost::load(Path::new(agent_path))
                .map_err(|e| CliError::config(format!("{agent_path}: {e}")))?;
            Box::new(agent.policy())
        }
        None => match flags.get("policy").map_or("greedy", String::as_str) {
            "hot" => Box::new(HotPolicy),
            "cold" => Box::new(ColdPolicy),
            "greedy" => Box::new(GreedyPolicy),
            other => {
                return Err(CliError::config(format!("unknown policy {other:?} (hot|cold|greedy)")))
            }
        },
    };

    let max_tracked = match flags.get("max-tracked") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|e| CliError::config(format!("--max-tracked {v:?}: {e}")))?,
        ),
    };
    let max_days = match flags.get("max-days") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>().map_err(|e| CliError::config(format!("--max-days {v:?}: {e}")))?,
        ),
    };
    // Object-store attachment: `--store mem` for a volatile pool,
    // `--store-dir` for a durable one whose journal survives kills.
    let store_build = match (flags.get("store"), flags.get("store-dir")) {
        (Some(_), Some(_)) => {
            return Err(CliError::config(
                "--store and --store-dir are mutually exclusive".to_owned(),
            ))
        }
        (Some(v), None) if v == "mem" => Some(PoolBuild::Memory),
        (Some(v), None) => {
            return Err(CliError::config(format!(
                "unknown --store {v:?} (mem; use --store-dir DIR for a durable pool)"
            )))
        }
        (None, Some(dir)) => Some(PoolBuild::Dir(PathBuf::from(dir))),
        (None, None) => None,
    };
    let store = match store_build {
        Some(build) => Some(StoreConfig {
            build,
            migrate: MigrateConfig {
                bw_cap_mib_s: flag(flags, "migrate-bw", 0u64).map_err(CliError::config)?,
                inflight: flag(flags, "migrate-inflight", 4usize).map_err(CliError::config)?,
                ..MigrateConfig::default()
            },
        }),
        None => None,
    };

    let cfg = ServeConfig {
        decide_every,
        seed,
        max_tracked,
        checkpoint_every: flag(flags, "checkpoint-every", 0u64).map_err(CliError::config)?,
        checkpoint_path: flags.get("checkpoint").map(PathBuf::from),
        max_days,
        checkpoint_keep: flag(flags, "checkpoint-keep", ServeConfig::default().checkpoint_keep)
            .map_err(CliError::config)?,
        store,
        ..ServeConfig::default()
    };

    // Chaos/recovery configuration: an armed fault plan turns the quiet
    // supervisor into the deterministic chaos harness of DESIGN.md §11.
    let fault_plan = match (flags.get("fault-plan"), flags.get("chaos-seed")) {
        (Some(_), Some(_)) => {
            return Err(CliError::config(
                "--fault-plan and --chaos-seed are mutually exclusive".to_owned(),
            ))
        }
        (Some(path), None) => Some(FaultPlan::load(Path::new(path)).map_err(CliError::config)?),
        (None, Some(_)) => {
            let chaos_seed = flag(flags, "chaos-seed", 0u64).map_err(CliError::config)?;
            // With a store attached, the shorthand also arms the retryable
            // vdev sites (still under the recoverable fault budget).
            Some(if cfg.store.is_some() {
                FaultPlan::store_chaos(chaos_seed)
            } else {
                FaultPlan::chaos(chaos_seed)
            })
        }
        (None, None) => None,
    };
    let degraded = match flags.get("degraded-policy") {
        None => None,
        Some(name) => Some(DegradedPolicy::parse(name).map_err(CliError::config)?),
    };
    let sup_cfg = SuperviseConfig { fault_plan, degraded };

    let report = Supervisor::new(sup_cfg)
        .run(&trace, &model, policy.as_ref(), &cfg)
        .map_err(|e| CliError { code: serve_exit_code(&e), message: e.to_string() })?;
    check_unsaturated(trace.files.iter().map(|f| f.id), &report.result)
        .map_err(CliError::general)?;
    if let Some(day) = report.resumed_from_day {
        println!("resumed from checkpoint at day {day}");
    }
    // Incident accounting goes to stderr so ledgers on stdout stay
    // machine-readable.
    if !report.incidents.is_empty() {
        eprintln!("incidents: {}", report.incidents.summary());
        for incident in report.incidents.iter() {
            eprintln!("  {incident}");
        }
    }
    if report.degraded_epochs > 0 {
        eprintln!("degraded epochs: {}", report.degraded_epochs);
    }
    println!(
        "served {} files through day {} ({} decision epochs, {} checkpoints): \
         total cost {} | {} tier changes | {:.2} ms deciding",
        trace.len(),
        report.days_served_through,
        report.epochs,
        report.checkpoints_written,
        report.result.total_cost(),
        report.result.tier_changes,
        report.result.total_decision_millis(),
    );
    if let Some(s) = &report.store {
        println!(
            "store: {} objects | jobs: {} committed, {} skipped, {} pinned, {} rolled back, \
             {} replayed | billed == committed ({} bytes) | {} virtual ms migrating",
            s.objects,
            s.jobs_committed,
            s.jobs_skipped,
            s.jobs_pinned,
            s.jobs_rolled_back,
            s.jobs_replayed,
            s.committed_bytes,
            s.migration_ms,
        );
    }

    if flag(flags, "verify-batch", false).map_err(CliError::config)? {
        let workers = flag(flags, "workers", default_workers()).map_err(CliError::config)?;
        let sim_cfg = SimConfig::builder()
            .seed(seed)
            .decide_every(decide_every)
            .workers(workers)
            .build()
            .map_err(|e| CliError::config(e.to_string()))?;
        let horizon = cfg.max_days.map_or(trace.days, |m| m.min(trace.days));
        let batch = simulate(&trace, &model, policy.as_ref(), &sim_cfg);
        let daily_match = report.result.daily == batch.daily[..horizon.min(batch.daily.len())];
        let per_file_match = horizon == trace.days && report.result.per_file == batch.per_file;
        let full = horizon == trace.days;
        let ok = if full { daily_match && per_file_match } else { daily_match };
        if !ok {
            return Err(CliError::general(format!(
                "streamed ledgers diverge from batch: streamed {} vs batch {}",
                report.result.total_cost(),
                batch.total_cost()
            )));
        }
        println!("verified: streamed ledgers are bit-identical to batch (workers={workers})");
    }
    Ok(())
}

fn evaluate(flags: &Flags) -> Result<(), String> {
    let trace = load_trace(flags)?;
    let model = pricing(flags)?;
    let agent_path = required(flags, "agent")?;
    let agent = MiniCost::load(Path::new(agent_path)).map_err(|e| format!("{agent_path}: {e}"))?;
    let seed = flag(flags, "seed", 0u64)?;
    let workers = flag(flags, "workers", default_workers())?;
    let split = trace.split(0.8, seed);
    let test = &split.test;
    let sim_cfg =
        SimConfig::builder().seed(seed).workers(workers).build().map_err(|e| e.to_string())?;

    // All five comparison strategies through one `dyn Policy` code path.
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(HotPolicy),
        Box::new(ColdPolicy),
        Box::new(GreedyPolicy),
        Box::new(agent.policy()),
        Box::new(OptimalPolicy::plan(test, &model, sim_cfg.initial_tier)),
    ];
    let runs: Vec<SimResult> =
        policies.iter().map(|policy| simulate(test, &model, policy.as_ref(), &sim_cfg)).collect();
    for run in &runs {
        check_unsaturated(split.test_ids.iter().copied(), run)?;
    }
    let reference = runs.last().expect("non-empty").total_cost();
    println!("{} held-out files x {} days under {}:", test.len(), test.days, model.policy().name);
    println!("{:<10} {:>14} {:>11} {:>9}", "policy", "total cost", "vs optimal", "changes");
    for run in &runs {
        println!(
            "{:<10} {:>14} {:>10.3}x {:>9}",
            run.policy_name,
            run.total_cost().to_string(),
            run.total_cost().ratio_to(reference),
            run.tier_changes
        );
    }
    Ok(())
}

/// Fails when the ledgers of `result` saturated at [`Money::MAX`], which is
/// a clamp, not a price. Bills are never negative, so any saturated
/// `per_file` or `daily` entry saturates the running total; the error names
/// the day it did and the first saturated file, by its entry in `ids`: the
/// id each file of the run has in the trace the user loaded.
fn check_unsaturated(
    ids: impl IntoIterator<Item = FileId>,
    result: &SimResult,
) -> Result<(), String> {
    let mut running = Money::ZERO;
    let Some(day) = result.daily.iter().position(|bill| {
        running += bill.total();
        running == Money::MAX
    }) else {
        return Ok(());
    };
    let file =
        result.per_file.iter().position(|&paid| paid == Money::MAX).map_or(String::new(), |ix| {
            format!("; file {}'s total reads it", ids.into_iter().nth(ix).map_or(ix, FileId::index))
        });
    Err(format!(
        "the {} cost ledger saturated at {} on day {day}{file}: the trace's request counts are \
         too large to bill",
        result.policy_name,
        Money::MAX,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_ledger_is_an_error_naming_day_and_file() {
        let mut trace = Trace::generate(&TraceConfig::small(30, 10, 4));
        let model = CostModel::new(PricingPolicy::azure_blob_2020());
        let cfg = SimConfig::builder().seed(0).workers(1).build().unwrap();
        let batch = simulate(&trace, &model, &GreedyPolicy, &cfg);
        assert_eq!(check_unsaturated(trace.files.iter().map(|f| f.id), &batch), Ok(()));
        trace.files[0].reads = vec![u64::MAX; 10];
        let served = serve(&trace, &model, &GreedyPolicy, &ServeConfig::default()).unwrap();
        let err = check_unsaturated(trace.files.iter().map(|f| f.id), &served.result).unwrap_err();
        assert!(err.contains(" on day 1; file 0's total reads it"), "{err}");
        let batch = simulate(&trace, &model, &GreedyPolicy, &cfg);
        assert_eq!(check_unsaturated(trace.files.iter().map(|f| f.id), &batch), Err(err));
    }

    #[test]
    fn evaluate_names_a_saturating_held_out_file_by_its_trace_id() {
        let dir =
            std::env::temp_dir().join(format!("minicost-cli-{}-evaluate", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (csv, agent) = (dir.join("trace.csv"), dir.join("agent.json"));
        let mut trace = Trace::generate(&TraceConfig::small(30, 10, 4));
        let write = |trace: &Trace| {
            tracegen::io::write_csv(trace, std::fs::File::create(&csv).unwrap()).unwrap();
        };
        write(&trace);
        let line = format!(
            "train --trace {} --updates 20 --width 16 --workers 1 --out {}",
            csv.display(),
            agent.display()
        );
        train(&parse(&line).unwrap_or_else(|e| panic!("{line}: {}", e.message))).unwrap();
        // File 18 is the first held-out file at seed 0, renumbered 0 there.
        let held_out = trace.split(0.8, 0).test_ids;
        assert_eq!(held_out.first(), Some(&FileId(18)));
        trace.files[18].reads = vec![u64::MAX; 10];
        write(&trace);
        let line =
            format!("evaluate --trace {} --agent {} --workers 1", csv.display(), agent.display());
        let err = evaluate(&parse(&line).unwrap_or_else(|e| panic!("{line}: {}", e.message)))
            .unwrap_err();
        assert!(err.contains("; file 18's total reads it"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn train_refuses_a_trace_whose_ledger_saturates() {
        let dir = std::env::temp_dir().join(format!("minicost-cli-{}-train", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut trace = Trace::generate(&TraceConfig::small(30, 10, 4));
        trace.files[0].reads = vec![u64::MAX; 10];
        let (csv, agent) = (dir.join("trace.csv"), dir.join("agent.json"));
        tracegen::io::write_csv(&trace, std::fs::File::create(&csv).unwrap()).unwrap();
        let line = format!(
            "train --trace {} --updates 20 --width 16 --workers 1 --out {}",
            csv.display(),
            agent.display()
        );
        let flags = parse(&line).unwrap_or_else(|e| panic!("{line}: {}", e.message));
        let err = train(&flags).unwrap_err();
        assert!(err.starts_with("the greedy cost ledger saturated"), "{err}");
        assert!(err.contains("; file 0's total reads it"), "{err}");
        assert!(!agent.exists(), "no agent is saved from a saturated trace");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn parse(line: &str) -> Result<Flags, CliError> {
        let mut words = line.split_whitespace().map(str::to_owned);
        let name = words.next().unwrap();
        let command = COMMANDS.iter().find(|c| c.name == name).unwrap();
        parse_flags(words, command)
    }

    #[test]
    fn misspelt_flag_is_a_config_error_naming_it() {
        let err = parse("serve --trace t.csv --chekpoint-every 1 --checkpoint s.json").unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--chekpoint-every"), "{}", err.message);
        // A flag another command reads is still foreign here.
        assert_eq!(parse("analyze --trace t.csv --out x").unwrap_err().code, 2);
    }

    #[test]
    fn ci_smoke_command_lines_parse() {
        for line in [
            "generate --files 40 --days 9 --seed 7 --out smoke.csv",
            "analyze --trace smoke.csv",
            "train --trace smoke.csv --updates 150 --seed 9 --width 32 --workers 1 \
             --pricing paper --out agent.json",
            "evaluate --trace smoke.csv --agent agent.json --pricing azure --seed 0 --workers 2",
            "serve --trace smoke.csv --policy greedy --decide-every 3 \
             --checkpoint smoke-snapshot.json --checkpoint-every 1 --max-days 5 \
             --verify-batch true",
            "serve --trace chaos.csv --policy greedy --decide-every 1 \
             --checkpoint chaos-snapshot.json --checkpoint-every 1 --checkpoint-keep 2 \
             --chaos-seed 7 --max-days 5 --verify-batch true",
            "serve --trace store.csv --policy greedy --decide-every 1 --store-dir store-pool \
             --migrate-bw 200 --migrate-inflight 2 --checkpoint store-snapshot.json \
             --checkpoint-every 1 --fault-plan crash-plan.json",
            "serve --trace t.csv --agent agent.json --max-tracked 64 --store mem \
             --degraded-policy greedy --seed 3 --pricing aws --workers 2",
        ] {
            let flags = parse(line).unwrap_or_else(|e| panic!("{line}: {}", e.message));
            assert_eq!(flags.len(), line.matches("--").count(), "{line}");
        }
    }
}
