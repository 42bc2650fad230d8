//! Online serving: drive a [`Policy`] from streamed request events.
//!
//! The batch simulator ([`crate::sim::simulate`]) replays a fully
//! materialized file × day matrix. This module is the production-shaped
//! counterpart: it *observes* requests one hourly [`stream::Event`] at a
//! time, maintains bounded-memory online statistics, runs the policy at
//! the decision cadence on features assembled **from those statistics
//! alone**, accrues exact [`pricing::Money`] ledgers incrementally, and
//! snapshots everything atomically so a killed server resumes
//! bit-identically (DESIGN.md §10).
//!
//! # Equivalence contract (the keystone)
//!
//! In exact mode ([`ServeConfig::max_tracked`] = `None`) the serving loop
//! reproduces the batch engine bit-for-bit: for the same trace, policy,
//! cadence, and initial tier, [`serve`] returns `daily` / `per_file` /
//! `tier_changes` / `occupancy` ledgers equal to [`crate::sim::simulate`]'s
//! — including runs interrupted by a kill and resumed from a checkpoint.
//! The argument, piece by piece:
//!
//! * the event stream conserves each file's daily totals exactly
//!   (largest-remainder apportionment), so day-binned counts — and thus
//!   billing — are exact;
//! * policies decide on a trailing-window [`FleetState`] kept in place:
//!   ingest fills today's column (greedy's input, and billing's through
//!   the shared [`crate::engine::bill_day`]); decision days refill the
//!   closed-day columns from the stats rings, which hold exactly the last
//!   `min(window, closed_days)` days, and carry `lifetime - ring sum` as
//!   prior sums — so features are bit-identical `f64`s;
//! * checkpoints cut only at day boundaries, and event expansion is seeded
//!   statelessly per `(file, day)`, so the resumed stream is the exact
//!   suffix of the uninterrupted one.
//!
//! In bounded mode (`max_tracked = Some(k)`) only *decision features*
//! degrade to sketch estimates for untracked files — billing stays exact
//! because the loop owns today's dense column either way.
//!
//! Full-series readers ([`crate::predictive::PredictivePolicy`]) are
//! simulate-only. `tests/serve_equivalence.rs` proves the contract for
//! hot/cold/greedy/RL at cadence 1 and greedy/RL at cadences 3 and 7.
//!
//! # State
//!
//! The checkpoint is the serving state: a run keeps everything it mutates
//! in one [`stream::Snapshot`]. A restore decodes straight into it, and a
//! checkpoint encodes it in place ([`Snapshot::to_checked_bytes`]), so
//! nothing is cloned either way. The state carries the statistics of
//! exactly one mode: a fresh run builds only the ones
//! [`ServeConfig::max_tracked`] selects, and a restore drops the other
//! mode's, so every checkpoint a run writes carries one. Ingest, window
//! refill and day close read exact statistics when present, else the
//! bounded ones.

use crate::engine::bill_day;
use crate::fleet::FleetState;
use crate::policy::{DecisionContext, Policy};
use crate::sim::SimResult;
use crate::supervise::{IncidentKind, IncidentLog, SuperviseConfig, Supervisor};
use pricing::{CostLedger, CostModel, Money, Tier, TIER_COUNT};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use store::{
    logical_bytes, recover, JobId, JobPhase, Journal, MigrateConfig, MigrationEventKind,
    MigrationJob, Migrator, PoolBuild, StoragePool, TierIo,
};
use stream::{
    rotate, rotation_candidates, BoundedConfig, BoundedStats, DayBatch, Event, EventSource,
    ExactStats, FaultyBackend, FaultySource, FileStats, FsBackend, Snapshot, SnapshotError,
    StorageBackend, TraceSource, SNAPSHOT_VERSION,
};
use tracegen::{DiurnalProfile, Trace};

/// Configuration for one serving run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Tier every file occupies before day 0.
    pub initial_tier: Tier,
    /// Run the policy every `decide_every` days (must be positive).
    pub decide_every: usize,
    /// Feature window in days; must match the policy's
    /// [`crate::features::FeatureConfig::window`] for RL policies.
    pub window: usize,
    /// Seed for the hourly event expansion (and sketch hashing).
    pub seed: u64,
    /// `None` runs exact per-file statistics (the batch-equivalent mode);
    /// `Some(k)` caps exact tracking at the `k` heaviest files and serves
    /// the long tail from sketch estimates.
    pub max_tracked: Option<usize>,
    /// Write a snapshot every this many decision epochs (0 = never).
    pub checkpoint_every: u64,
    /// Where snapshots are written; also consulted at startup — an existing
    /// readable snapshot there resumes the run.
    pub checkpoint_path: Option<PathBuf>,
    /// Stop after serving this many days (used to emulate a mid-run kill);
    /// `None` serves the full trace horizon.
    pub max_days: Option<usize>,
    /// Rotation depth: how many predecessor snapshots to keep next to the
    /// checkpoint (`checkpoint.json.1`, `.2`, ...). Restore falls back
    /// through them newest-first when the newest snapshot is corrupt. `0`
    /// disables rotation (saves overwrite in place).
    pub checkpoint_keep: usize,
    /// Attach a tiered object store: every decided tier change then runs
    /// through the migration pipeline (copy → verify → commit → delete)
    /// before it is billed. `None` serves ledgers only, as before.
    pub store: Option<StoreConfig>,
}

/// Configuration for the tiered object store attached to a serving run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Where the pool's vdevs (and, for directory pools, the migration
    /// journal) live. Memory pools cannot resume from a checkpoint.
    pub build: PoolBuild,
    /// Migration pipeline tuning (`--migrate-bw`, `--migrate-inflight`).
    pub migrate: MigrateConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            initial_tier: Tier::Hot,
            decide_every: 1,
            window: crate::features::FeatureConfig::default().window,
            seed: 0,
            max_tracked: None,
            checkpoint_every: 0,
            checkpoint_path: None,
            max_days: None,
            checkpoint_keep: 2,
            store: None,
        }
    }
}

/// Why a serving run could not start or finish.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Invalid configuration (message explains the field).
    Config(String),
    /// A checkpoint failed to save or load.
    Snapshot(SnapshotError),
    /// An existing snapshot is incompatible with this run's configuration.
    SnapshotMismatch(String),
    /// Checkpoints exist but every rotation candidate is corrupt or
    /// unusable — resuming would require manual intervention.
    Unrecoverable(String),
    /// A fault persisted past the supervisor's bounded retry budget.
    RetriesExhausted {
        /// The operation that kept failing.
        what: String,
        /// Retries spent before giving up.
        attempts: u32,
        /// The last observed failure.
        last: String,
    },
    /// The event source could not deliver (or read-repair) an in-horizon
    /// day.
    Stream(String),
    /// The object store is in a state recovery cannot explain, or its
    /// journal disagrees with the billed tier changes — manual
    /// intervention required (CLI exit code 5).
    Pool(String),
    /// The injected crash fired between a migration's copy and commit.
    /// The run aborted *before* billing the day; a restart from the last
    /// checkpoint replays it deterministically (CLI exit code 6).
    InjectedCrash(String),
    /// The policy did not decide exactly one tier per file; the day was
    /// not billed (CLI exit code 1).
    Policy(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serve config error: {msg}"),
            ServeError::Snapshot(e) => write!(f, "serve snapshot error: {e}"),
            ServeError::SnapshotMismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
            ServeError::Unrecoverable(msg) => write!(f, "unrecoverable checkpoints: {msg}"),
            ServeError::RetriesExhausted { what, attempts, last } => {
                write!(f, "{what} still failing after {attempts} retries: {last}")
            }
            ServeError::Stream(msg) => write!(f, "event stream error: {msg}"),
            ServeError::Pool(msg) => write!(f, "unrecoverable pool error: {msg}"),
            ServeError::InjectedCrash(msg) => write!(f, "injected crash: {msg}"),
            ServeError::Policy(msg) => write!(f, "policy error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> ServeError {
        ServeError::Snapshot(e)
    }
}

/// The outcome of a serving run: the batch-comparable ledgers plus
/// serving-specific bookkeeping.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Ledgers in the batch result shape; in exact mode `daily`,
    /// `per_file`, `tier_changes`, and `occupancy` are bit-identical to
    /// [`crate::sim::simulate`] (wall-clock `decision_millis` legitimately
    /// differ, and cover only this invocation's epochs).
    pub result: SimResult,
    /// Decision epochs completed over the life of the run.
    pub epochs: u64,
    /// Day the run resumed from, when a snapshot was restored.
    pub resumed_from_day: Option<usize>,
    /// Snapshots written during this invocation.
    pub checkpoints_written: u64,
    /// How many days of the horizon have been served, counting any days
    /// a restored snapshot had already served: the first day not yet
    /// served. The horizon length after a full run, fewer when `max_days`
    /// cut the run short (the checkpoint then carries the rest).
    pub days_served_through: usize,
    /// Every recovery action the supervisor took; empty for a clean run,
    /// bit-identical across reruns of the same fault plan.
    pub incidents: IncidentLog,
    /// Decision epochs served by the degraded fallback policy.
    pub degraded_epochs: u64,
    /// Object-store accounting, when [`ServeConfig::store`] was set.
    pub store: Option<StoreReport>,
}

/// What the attached object store did over the run. The headline
/// invariant has already been enforced when this exists:
/// `committed_bytes == billed_change_bytes`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreReport {
    /// Objects resident in the pool at shutdown.
    pub objects: usize,
    /// Migration jobs committed during this invocation.
    pub jobs_committed: u64,
    /// Jobs skipped because the journal already recorded them durable
    /// (day replay after a restart).
    pub jobs_skipped: u64,
    /// Jobs pinned to their source tier after retry exhaustion.
    pub jobs_pinned: u64,
    /// Torn migrations rolled back by startup recovery.
    pub jobs_rolled_back: u64,
    /// Committed migrations rolled forward by startup recovery.
    pub jobs_replayed: u64,
    /// Logical bytes the journal holds commit records for (all time).
    pub committed_bytes: u64,
    /// Logical bytes billed as tier changes (all time, snapshot-carried).
    pub billed_change_bytes: u64,
    /// Virtual ms spent draining migration batches this invocation.
    pub migration_ms: u64,
    /// Per-tier vdev I/O counters for this invocation.
    pub io: [TierIo; TIER_COUNT],
}

/// The state a run serves from before its first day: day 0, every file on
/// `cfg.initial_tier`, empty ledgers, and only the statistics
/// `cfg.max_tracked` selects.
fn fresh(cfg: &ServeConfig, policy_name: &str, fleet: usize) -> Snapshot {
    Snapshot {
        version: SNAPSHOT_VERSION,
        policy_name: policy_name.to_owned(),
        seed: cfg.seed,
        next_day: 0,
        epoch: 0,
        decide_every: cfg.decide_every,
        window: cfg.window,
        initial_tier: cfg.initial_tier,
        tiers: vec![cfg.initial_tier; fleet],
        ledger: CostLedger::new(),
        per_file: vec![Money::ZERO; fleet],
        occupancy: Vec::new(),
        tier_changes: 0,
        billed_change_bytes: 0,
        exact: cfg.max_tracked.is_none().then(|| ExactStats::new(cfg.window, fleet)),
        bounded: cfg.max_tracked.map(|k| {
            BoundedStats::new(BoundedConfig {
                max_tracked: k,
                cms_width: 2048,
                cms_depth: 4,
                window: cfg.window,
                seed: cfg.seed,
            })
        }),
    }
}

/// Opens `day` on the decision fleet and drains its events into the
/// state's online statistics and the fleet's column for today.
fn ingest(state: &mut Snapshot, fleet: &mut FleetState, day: usize, events: &[Event]) {
    fleet.open_day(day);
    for event in events {
        match (&mut state.exact, &mut state.bounded) {
            (Some(exact), _) => exact.ingest(event),
            (None, Some(bounded)) => bounded.ingest(event),
            (None, None) => {}
        }
        fleet.record(event.file.index(), event.reads, event.writes);
    }
}

/// Refills the decision fleet's closed-day columns and prior sums from
/// the state's online statistics, ahead of a decision.
fn refill_history(state: &Snapshot, fleet: &mut FleetState, catalog: &Trace) {
    // Exact statistics cover the whole fleet (checked on restore); a file
    // outside them would read as never observed.
    let unobserved = FileStats::new();
    for (ix, file) in catalog.files.iter().enumerate() {
        fleet.refill(ix, |reads, writes| match (&state.exact, &state.bounded) {
            (None, Some(bounded)) => {
                bounded.window_into(file.id.0, reads, writes);
                bounded.lifetime(file.id.0)
            }
            (exact, _) => {
                let s = exact.as_ref().and_then(|exact| exact.file(ix)).unwrap_or(&unobserved);
                s.window_into(reads, writes);
                (s.sum_reads(), s.sum_writes())
            }
        });
    }
}

/// Closes the served day in the state's statistics.
fn close_day(state: &mut Snapshot) {
    match (&mut state.exact, &mut state.bounded) {
        (Some(exact), _) => exact.close_day(),
        (None, Some(bounded)) => bounded.close_day(),
        (None, None) => {}
    }
}

/// Validates a restored snapshot against this run's configuration and
/// keeps only the statistics of the mode the run serves in, so every
/// later checkpoint carries one mode.
fn check_snapshot(
    mut snap: Snapshot,
    cfg: &ServeConfig,
    policy_name: &str,
    fleet: usize,
) -> Result<Snapshot, ServeError> {
    let mismatch = |what: &str| Err(ServeError::SnapshotMismatch(what.to_owned()));
    if snap.policy_name != policy_name {
        return mismatch(&format!("policy {} vs {}", snap.policy_name, policy_name));
    }
    if snap.seed != cfg.seed {
        return mismatch("stream seed differs");
    }
    if snap.decide_every != cfg.decide_every {
        return mismatch("decision cadence differs");
    }
    if snap.window != cfg.window {
        return mismatch("feature window differs");
    }
    if snap.initial_tier != cfg.initial_tier {
        return mismatch("initial tier differs");
    }
    if snap.tiers.len() != fleet {
        return mismatch(&format!("fleet size {} vs {}", snap.tiers.len(), fleet));
    }
    if cfg.max_tracked.is_none() {
        snap.bounded = None;
        if snap.exact.is_none() {
            return mismatch("snapshot lacks exact statistics");
        }
    } else {
        snap.exact = None;
        if snap.bounded.is_none() {
            return mismatch("snapshot lacks bounded statistics");
        }
    }
    Ok(snap)
}

/// Restores serving state from the newest usable rotation candidate.
///
/// Candidates are tried newest-first (`path`, `path.1`, ...). A candidate
/// is usable when it loads (transient read failures are retried), passes
/// the checksum and the decoder's checks, and agrees with this run's
/// configuration. Falling back to an older slot is recorded as
/// [`IncidentKind::RolledBack`].
///
/// Returns `Ok(None)` when no candidate file exists (fresh start). When
/// candidates exist but none is usable: the newest candidate's failure is
/// surfaced — as [`ServeError::SnapshotMismatch`] if it was a
/// configuration disagreement (operator error, not data loss), otherwise
/// wrapped in [`ServeError::Unrecoverable`].
fn restore(
    sup: &mut Supervisor,
    backend: &mut dyn StorageBackend,
    path: &Path,
    cfg: &ServeConfig,
    policy_name: &str,
    fleet: usize,
) -> Result<Option<Snapshot>, ServeError> {
    let candidates = rotation_candidates(path, cfg.checkpoint_keep);
    let mut newest_failure: Option<ServeError> = None;
    let mut tried = 0usize;
    for (slot, cand) in candidates.iter().enumerate() {
        if !backend.exists(cand) {
            continue;
        }
        tried += 1;
        let loaded = sup.retry_snapshot(0, IncidentKind::LoadRetried, "checkpoint load", || {
            Snapshot::load_with(backend, cand)
        });
        match loaded {
            Ok(snap) => match check_snapshot(snap, cfg, policy_name, fleet) {
                Ok(state) => {
                    if slot > 0 {
                        sup.record(
                            state.next_day,
                            IncidentKind::RolledBack,
                            format!("restored rotation slot {slot} ({})", cand.display()),
                        );
                    }
                    return Ok(Some(state));
                }
                Err(e) => {
                    sup.record(0, IncidentKind::CheckpointMismatch, format!("slot {slot}: {e}"));
                    newest_failure.get_or_insert(e);
                }
            },
            Err(e @ ServeError::RetriesExhausted { .. }) => return Err(e),
            Err(e) => {
                sup.record(0, IncidentKind::CheckpointCorrupt, format!("slot {slot}: {e}"));
                newest_failure.get_or_insert(e);
            }
        }
    }
    match newest_failure {
        None => Ok(None),
        Some(ServeError::SnapshotMismatch(m)) => Err(ServeError::SnapshotMismatch(m)),
        Some(e) => Err(ServeError::Unrecoverable(format!(
            "no usable checkpoint among {tried} candidate(s); newest failure: {e}"
        ))),
    }
}

/// Rotates predecessors down one slot, then writes the encoded snapshot
/// `bytes` — both under the supervisor's transient-retry policy, so a
/// retried write rewrites the same bytes.
fn write_checkpoint(
    sup: &mut Supervisor,
    backend: &mut dyn StorageBackend,
    bytes: &[u8],
    keep: usize,
    path: &Path,
    day: usize,
) -> Result<(), ServeError> {
    sup.retry_snapshot(day, IncidentKind::SaveRetried, "checkpoint rotation", || {
        rotate(backend, path, keep)
    })?;
    sup.retry_snapshot(day, IncidentKind::SaveRetried, "checkpoint write", || {
        backend.write_atomic(path, bytes)
    })
}

/// Re-reads one day's canonical batch from the durable log (exempt from
/// delivery faults by construction) after a delivery anomaly.
fn refetch_day(source: &mut dyn EventSource, day: usize) -> Result<Vec<Event>, ServeError> {
    match source.refetch(day) {
        Some(batch) if batch.verifies() => Ok(batch.events),
        Some(_) => Err(ServeError::Stream(format!("read-repair of day {day} failed its digest"))),
        None => Err(ServeError::Stream(format!("day {day} is unavailable from the durable log"))),
    }
}

/// Acquires exactly `day`'s canonical events from a possibly-anomalous
/// delivery stream, recording and recovering every detectable anomaly:
///
/// * stale redelivery (`batch.day < day`) — skipped;
/// * gap (`batch.day > day` or stream ended early) — the future batch is
///   stashed in `lookahead` and the missing day is read-repaired;
/// * digest mismatch — first re-sorted to canonical order (repairs pure
///   reordering locally), else read-repaired from the durable log.
fn acquire_day(
    sup: &mut Supervisor,
    source: &mut dyn EventSource,
    lookahead: &mut Option<DayBatch>,
    day: usize,
) -> Result<Vec<Event>, ServeError> {
    loop {
        let Some(batch) = lookahead.take().or_else(|| source.next_batch()) else {
            sup.record(
                day,
                IncidentKind::DroppedDay,
                "delivery ended before the day; read-repair".to_owned(),
            );
            return refetch_day(source, day);
        };
        if batch.day < day {
            sup.record(
                batch.day,
                IncidentKind::DuplicateDay,
                "stale redelivery skipped".to_owned(),
            );
            continue;
        }
        if batch.day > day {
            sup.record(
                day,
                IncidentKind::DroppedDay,
                format!("delivery jumped to day {}; read-repair", batch.day),
            );
            *lookahead = Some(batch);
            return refetch_day(source, day);
        }
        if batch.verifies() {
            return Ok(batch.events);
        }
        // Pure reordering is repairable locally: restore canonical order
        // (ascending hour, ties by file id) and recheck before paying for
        // a durable-log read.
        let mut sorted = batch;
        sorted.events.sort_by_key(|e| (e.hour, e.file.0));
        if sorted.verifies() {
            sup.record(day, IncidentKind::OutOfOrder, "re-sorted to canonical order".to_owned());
            return Ok(sorted.events);
        }
        sup.record(day, IncidentKind::CorruptBatch, "digest mismatch; read-repair".to_owned());
        return refetch_day(source, day);
    }
}

/// Serves `trace` through `policy` under `cfg`, streaming events and
/// deciding online. Resumes from `cfg.checkpoint_path` when a compatible
/// snapshot exists there (falling back through rotation slots if the
/// newest is corrupt).
///
/// The trace is read only as (a) the event source behind
/// [`stream::TraceSource`] and (b) the size/id catalog — per-day request
/// counts reach the policy exclusively through the online statistics.
/// `policy` is forked once per call and never decides itself, so a resumed
/// run decides exactly as a fresh process would.
///
/// This is the unsupervised spelling: it runs under a quiet
/// [`Supervisor`] (no fault plan, no degraded fallback). To arm the chaos
/// harness or degraded mode, build a [`Supervisor`] with a
/// [`SuperviseConfig`] and call [`Supervisor::run`].
///
/// # Errors
///
/// [`ServeError::Config`] for invalid cadence, [`ServeError::Snapshot`] /
/// [`ServeError::SnapshotMismatch`] / [`ServeError::Unrecoverable`] for
/// checkpoint problems.
pub fn serve(
    trace: &Trace,
    model: &CostModel,
    policy: &dyn Policy,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    Supervisor::new(SuperviseConfig::default()).run(trace, model, policy, cfg)
}

/// Live object-store state for one serving run: the pool, its journal,
/// the migrator, and this invocation's counters.
struct StoreRuntime {
    pool: StoragePool,
    journal: Journal,
    migrator: Migrator,
    /// Object key → fleet index, for pinned-job decision overrides.
    file_ix: BTreeMap<u64, usize>,
    jobs_committed: u64,
    jobs_skipped: u64,
    jobs_pinned: u64,
    jobs_rolled_back: u64,
    jobs_replayed: u64,
    migration_ms: u64,
}

/// Opens (or builds) the pool and journal, runs crash recovery, then
/// reconciles the recovered pool against the restored serving state:
/// missing objects are placed at their snapshot tier; an object resident
/// *ahead* of the snapshot is legitimate only when a durable journal
/// record from a to-be-replayed day explains it.
///
/// Recovery and initial placement run before the fault injector is
/// attached — chaos targets the migration pipeline, not the repair path.
fn setup_store(
    sup: &mut Supervisor,
    trace: &Trace,
    sc: &StoreConfig,
    state: &Snapshot,
    resumed: bool,
) -> Result<StoreRuntime, ServeError> {
    if resumed && sc.build == PoolBuild::Memory {
        return Err(ServeError::Config(
            "a memory store cannot resume from a checkpoint; use a directory store".to_owned(),
        ));
    }
    let mut pool = StoragePool::build(&sc.build).map_err(|e| ServeError::Pool(e.to_string()))?;
    let mut journal = match sc.build.journal_path() {
        Some(path) => {
            Journal::open_file(&path).map_err(|e| ServeError::Pool(format!("journal: {e}")))?
        }
        None => Journal::in_memory(),
    };
    let recovery = recover(&mut pool, &mut journal).map_err(|e| ServeError::Pool(e.to_string()))?;
    for id in &recovery.rolled_back {
        sup.record(
            id.day,
            IncidentKind::MigrationRolledBack,
            format!("{id}: torn copy rolled back to {}", id.from),
        );
    }
    for id in &recovery.replayed {
        sup.record(
            id.day,
            IncidentKind::MigrationReplayed,
            format!("{id}: durable commit rolled forward to {}", id.to),
        );
    }
    let mut file_ix = BTreeMap::new();
    for (ix, file) in trace.files.iter().enumerate() {
        let key = u64::from(file.id.0);
        file_ix.insert(key, ix);
        let Some(&expected) = state.tiers.get(ix) else { continue };
        match pool.location(key) {
            None => pool
                .put(key, expected, logical_bytes(file.size_gb))
                .map_err(|e| ServeError::Pool(e.to_string()))?,
            Some(t) if t == expected => {}
            Some(t) => {
                let explained = journal.records().iter().any(|r| {
                    r.job.file == key
                        && r.job.to == t
                        && r.job.day >= state.next_day
                        && matches!(r.phase, JobPhase::Committed | JobPhase::Done)
                });
                if !explained {
                    return Err(ServeError::Pool(format!(
                        "object {key:016x} resident on {t} but the snapshot says {expected}, \
                         with no journal record explaining it"
                    )));
                }
            }
        }
    }
    if let Some(inj) = sup.injector() {
        pool.attach_injector(inj);
    }
    Ok(StoreRuntime {
        pool,
        journal,
        migrator: Migrator::new(sc.migrate),
        file_ix,
        jobs_committed: 0,
        jobs_skipped: 0,
        jobs_pinned: 0,
        jobs_rolled_back: recovery.rolled_back.len() as u64,
        jobs_replayed: recovery.replayed.len() as u64,
        migration_ms: 0,
    })
}

/// Drains one decision epoch's tier changes through the migration
/// pipeline *before* billing. Pinned jobs (retry budget exhausted)
/// overwrite the decision back to the source tier, so the billing sweep
/// that follows charges the file where it actually stayed. An injected
/// crash aborts the run before the day is billed — the restart replays
/// the day and the journal dedups whatever had already committed.
fn run_migrations(
    sup: &mut Supervisor,
    rt: &mut StoreRuntime,
    trace: &Trace,
    day: usize,
    decision: &mut [Tier],
    current: &[Tier],
) -> Result<(), ServeError> {
    let mut jobs = Vec::new();
    for ((file, &from), &to) in trace.files.iter().zip(current.iter()).zip(decision.iter()) {
        if from != to {
            jobs.push(MigrationJob {
                id: JobId { day, file: u64::from(file.id.0), from, to },
                logical_bytes: logical_bytes(file.size_gb),
            });
        }
    }
    if jobs.is_empty() {
        return Ok(());
    }
    let out = rt
        .migrator
        .run_batch(&mut rt.pool, &mut rt.journal, &jobs)
        .map_err(|e| ServeError::Pool(e.to_string()))?;
    for ev in &out.events {
        let kind = match ev.kind {
            MigrationEventKind::Retried => IncidentKind::MigrationRetried,
            MigrationEventKind::Pinned => IncidentKind::MigrationPinned,
            MigrationEventKind::RolledBack => IncidentKind::MigrationRolledBack,
            MigrationEventKind::Replayed => IncidentKind::MigrationReplayed,
            MigrationEventKind::Crashed => IncidentKind::MigrationCrashed,
        };
        sup.record_at(ev.at_ms, day, kind, format!("{}: {}", ev.job, ev.detail));
    }
    sup.advance_ms(out.elapsed_ms);
    rt.migration_ms = rt.migration_ms.saturating_add(out.elapsed_ms);
    rt.jobs_committed += out.committed_jobs;
    rt.jobs_skipped += out.skipped_jobs;
    rt.jobs_pinned += out.pinned.len() as u64;
    for id in &out.pinned {
        if let Some(slot) = rt.file_ix.get(&id.file).and_then(|&ix| decision.get_mut(ix)) {
            *slot = id.from;
        }
    }
    if out.crashed {
        return Err(ServeError::InjectedCrash(format!(
            "migration batch on day {day} stopped between copy and commit; \
             restart from the last checkpoint to recover"
        )));
    }
    Ok(())
}

/// The supervised serve loop behind both [`serve`] and
/// [`Supervisor::run`]. Decides on one fork of `policy` per call, never on
/// `policy` itself.
pub(crate) fn run_supervised(
    sup: &mut Supervisor,
    trace: &Trace,
    model: &CostModel,
    policy: &dyn Policy,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    if cfg.decide_every == 0 {
        return Err(ServeError::Config("decide_every must be positive".to_owned()));
    }
    let mut policy = policy.fork();
    let fleet = trace.files.len();

    // The storage backend and event source, wrapped in their faulty
    // counterparts when a chaos plan is armed.
    let mut backend: Box<dyn StorageBackend> = match sup.injector() {
        Some(inj) => Box::new(FaultyBackend::new(FsBackend, inj)),
        None => Box::new(FsBackend),
    };

    // Restore from the newest usable rotation candidate, or start fresh.
    let restored = match &cfg.checkpoint_path {
        Some(path) => restore(sup, backend.as_mut(), path, cfg, policy.name(), fleet)?,
        None => None,
    };
    let resumed_from_day = restored.as_ref().map(|state| state.next_day);
    let mut state = restored.unwrap_or_else(|| fresh(cfg, policy.name(), fleet));

    // The object store, when attached: recover torn migrations, reconcile
    // with the restored state, place any missing objects.
    let mut store_rt = match &cfg.store {
        Some(sc) => Some(setup_store(sup, trace, sc, &state, resumed_from_day.is_some())?),
        None => None,
    };

    let end = cfg.max_days.map_or(trace.days, |m| m.min(trace.days));
    let clean = TraceSource::new(trace, DiurnalProfile::web_default(), cfg.seed, state.next_day);
    let mut source: Box<dyn EventSource + '_> = match sup.injector() {
        Some(inj) => Box::new(FaultySource::new(clean, inj)),
        None => Box::new(clean),
    };
    let mut lookahead: Option<DayBatch> = None;
    let mut checkpoints_written = 0u64;
    // The day cursor of this invocation's last checkpoint, so shutdown
    // does not write the same state twice.
    let mut checkpointed_day = None;
    // Wall-clock ms per decision epoch of this invocation: reported, never
    // persisted, so identical runs write identical checkpoints.
    let mut decision_millis = Vec::new();
    // The decision input, sized once per session and refilled in place:
    // the last `window` closed days and today per file (DESIGN.md §10).
    let mut decision_fleet = FleetState::default();
    decision_fleet.reset_window(trace, cfg.window);
    let all: Vec<usize> = (0..fleet).collect();
    // One decision buffer for the session, refilled on decision days.
    let mut decision = Vec::with_capacity(fleet);

    for day in state.next_day..end {
        sup.tick();
        // Ingest phase: acquire this day's canonical events (recovering
        // any delivery anomaly) and drain them into the online statistics
        // and today's column, which decisions and billing read.
        let events = acquire_day(sup, source.as_mut(), &mut lookahead, day)?;
        ingest(&mut state, &mut decision_fleet, day, &events);

        // Decision phase, at the batch engine's cadence, on a window
        // refilled purely from online statistics. The supervisor retries
        // injected policy-step failures and degrades past the budget.
        let decided = day % cfg.decide_every == 0;
        if decided {
            refill_history(&state, &mut decision_fleet, trace);
            let ctx = DecisionContext {
                day,
                fleet: &decision_fleet,
                model,
                batch: &all,
                current: &state.tiers,
            };
            let start = Instant::now();
            sup.decide(policy.as_mut(), &ctx, &mut decision)?;
            decision_millis.push(start.elapsed().as_secs_f64() * 1e3);
            if decision.len() != fleet {
                return Err(ServeError::Policy(format!(
                    "policy {:?} decided {} tier(s) for {fleet} file(s) on day {day}",
                    policy.name(),
                    decision.len()
                )));
            }
        }

        // Migration phase: physically apply the decision's tier changes
        // through the pipeline before billing, so exhausted jobs can pin
        // their file (and its bill) to the source tier, and an injected
        // crash aborts before the day is billed.
        if let Some(rt) = store_rt.as_mut().filter(|_| decided) {
            run_migrations(sup, rt, trace, day, &mut decision, &state.tiers)?;
        }

        // Billing phase: the simulate kernel on today's column, after
        // tallying the logical bytes of the (post-pinning) tier changes.
        let decided_tiers = decided.then_some(decision.as_slice());
        let moved =
            decided_tiers.into_iter().flat_map(|d| trace.files.iter().zip(&state.tiers).zip(d));
        for ((file, _), _) in moved.filter(|((_, from), to)| from != to) {
            state.billed_change_bytes =
                state.billed_change_bytes.saturating_add(logical_bytes(file.size_gb));
        }
        let bill = bill_day(
            model,
            &decision_fleet,
            day,
            &all,
            decided_tiers,
            &mut state.tiers,
            &mut state.per_file,
        );
        state.tier_changes += bill.tier_changes;
        state.ledger.accrue(bill.breakdown);
        state.occupancy.push(bill.occupancy);

        // Close the day everywhere; the next event belongs to `day + 1`.
        close_day(&mut state);
        state.next_day = day + 1;

        if decided {
            state.epoch += 1;
            if cfg.checkpoint_every > 0 && state.epoch % cfg.checkpoint_every == 0 {
                if let Some(path) = &cfg.checkpoint_path {
                    let bytes = state.to_checked_bytes()?;
                    write_checkpoint(
                        sup,
                        backend.as_mut(),
                        &bytes,
                        cfg.checkpoint_keep,
                        path,
                        day,
                    )?;
                    checkpoints_written += 1;
                    checkpointed_day = Some(state.next_day);
                }
            }
        }
    }

    // The headline invariant, checked before the final checkpoint so a
    // disagreeing ledger is never persisted as clean: every logical byte
    // billed as a tier change must have a durable commit record, and vice
    // versa (DESIGN.md §15).
    let store_report = match &store_rt {
        Some(rt) => {
            let committed = rt.journal.committed_bytes();
            if committed != state.billed_change_bytes {
                return Err(ServeError::Pool(format!(
                    "store/ledger invariant violated: billed {} tier-change byte(s) but the \
                     journal committed {committed}",
                    state.billed_change_bytes
                )));
            }
            Some(StoreReport {
                objects: rt.pool.len(),
                jobs_committed: rt.jobs_committed,
                jobs_skipped: rt.jobs_skipped,
                jobs_pinned: rt.jobs_pinned,
                jobs_rolled_back: rt.jobs_rolled_back,
                jobs_replayed: rt.jobs_replayed,
                committed_bytes: committed,
                billed_change_bytes: state.billed_change_bytes,
                migration_ms: rt.migration_ms,
                io: rt.pool.io_all(),
            })
        }
        None => None,
    };

    // A final snapshot at shutdown so `max_days`-interrupted runs resume
    // from exactly where they stopped, not the last periodic checkpoint —
    // unless that checkpoint already holds this state, when a second copy
    // would only push a distinct predecessor out of the rotation.
    if let Some(path) = &cfg.checkpoint_path {
        if cfg.checkpoint_every > 0 && checkpointed_day != Some(state.next_day) {
            let bytes = state.to_checked_bytes()?;
            write_checkpoint(
                sup,
                backend.as_mut(),
                &bytes,
                cfg.checkpoint_keep,
                path,
                state.next_day,
            )?;
            checkpoints_written += 1;
        }
    }

    Ok(ServeReport {
        result: SimResult {
            policy_name: policy.name().to_owned(),
            daily: state.ledger.daily().to_vec(),
            per_file: state.per_file,
            decision_millis: decision_millis.clone(),
            shard_decision_millis: vec![decision_millis],
            tier_changes: state.tier_changes,
            occupancy: state.occupancy,
        },
        epochs: state.epoch,
        resumed_from_day,
        checkpoints_written,
        days_served_through: state.next_day,
        incidents: sup.take_incidents(),
        degraded_epochs: sup.degraded_epochs(),
        store: store_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyPolicy, HotPolicy};
    use crate::sim::{simulate, SimConfig};
    use pricing::PricingPolicy;
    use tracegen::TraceConfig;

    fn setup() -> (Trace, CostModel) {
        (
            Trace::generate(&TraceConfig::small(24, 12, 17)),
            CostModel::new(PricingPolicy::azure_blob_2020()),
        )
    }

    fn batch_cfg() -> SimConfig {
        SimConfig { workers: 1, ..SimConfig::default() }
    }

    #[test]
    fn exact_serve_matches_batch_greedy_bit_for_bit() {
        let (trace, model) = setup();
        let batch = simulate(&trace, &model, &GreedyPolicy, &batch_cfg());
        let report = serve(&trace, &model, &GreedyPolicy, &ServeConfig::default()).unwrap();
        assert_eq!(report.result.daily, batch.daily);
        assert_eq!(report.result.per_file, batch.per_file);
        assert_eq!(report.result.tier_changes, batch.tier_changes);
        assert_eq!(report.result.occupancy, batch.occupancy);
        assert_eq!(report.epochs, trace.days as u64);
        assert_eq!(report.days_served_through, trace.days);
    }

    #[test]
    fn exact_serve_matches_batch_at_weekly_cadence() {
        let (trace, model) = setup();
        let batch =
            simulate(&trace, &model, &GreedyPolicy, &SimConfig { decide_every: 7, ..batch_cfg() });
        let cfg = ServeConfig { decide_every: 7, ..ServeConfig::default() };
        let report = serve(&trace, &model, &GreedyPolicy, &cfg).unwrap();
        assert_eq!(report.result.daily, batch.daily);
        assert_eq!(report.result.per_file, batch.per_file);
        assert_eq!(report.result.occupancy, batch.occupancy);
        assert_eq!(report.epochs, 2, "12 days at weekly cadence decide on days 0 and 7");
    }

    #[test]
    fn bounded_serve_bills_exactly_even_with_sketched_features() {
        let (trace, model) = setup();
        let cfg = ServeConfig { max_tracked: Some(4), ..ServeConfig::default() };
        let report = serve(&trace, &model, &GreedyPolicy, &cfg).unwrap();
        // Hot baseline ignores features entirely, so bounded mode must be
        // bit-identical there; greedy may legitimately diverge in decisions
        // but its ledgers must still be self-consistent.
        let per_file_total: Money = report.result.per_file.iter().sum();
        assert_eq!(per_file_total, report.result.total_cost());
        let hot_cfg = ServeConfig { max_tracked: Some(4), ..ServeConfig::default() };
        let hot = serve(&trace, &model, &HotPolicy, &hot_cfg).unwrap();
        let batch_hot = simulate(&trace, &model, &HotPolicy, &batch_cfg());
        assert_eq!(hot.result.daily, batch_hot.daily);
        assert_eq!(hot.result.per_file, batch_hot.per_file);
    }

    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("minicost-serve-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn identical_checkpointed_runs_write_identical_files() {
        let (trace, model) = setup();
        let runs: Vec<Vec<u8>> = ["a", "b"]
            .iter()
            .map(|run| {
                let path = scratch_dir(&format!("identical-{run}")).join("snapshot.json");
                let cfg = ServeConfig {
                    checkpoint_every: 1,
                    checkpoint_path: Some(path.clone()),
                    ..ServeConfig::default()
                };
                serve(&trace, &model, &GreedyPolicy, &cfg).unwrap();
                let bytes = std::fs::read(&path).unwrap();
                std::fs::remove_dir_all(path.parent().unwrap()).ok();
                bytes
            })
            .collect();
        assert!(runs[0] == runs[1], "two identical runs wrote different checkpoints");
    }

    /// The fnv1a64 and length of the checkpoint file a full checkpointed
    /// run writes, in exact and in bounded mode, recorded before the
    /// encoder wrote from borrowed state with its digest folded in.
    const PINNED_CHECKPOINTS: [(Option<usize>, u64, usize); 2] =
        [(None, 0xce15_2088_e381_0fa3, 794), (Some(4), 0x4048_c83a_eeeb_97c9, 148_221)];

    #[test]
    fn checkpoint_files_are_pinned() {
        let (trace, model) = setup();
        for (max_tracked, digest, len) in PINNED_CHECKPOINTS {
            let dir = scratch_dir(&format!("pinned-{max_tracked:?}"));
            let path = dir.join("snapshot.ckpt");
            let cfg = ServeConfig {
                max_tracked,
                checkpoint_every: 1,
                checkpoint_path: Some(path.clone()),
                ..ServeConfig::default()
            };
            serve(&trace, &model, &GreedyPolicy, &cfg).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            let got = (stream::fnv1a64(&bytes), bytes.len());
            assert_eq!(got, (digest, len), "max_tracked {max_tracked:?}: {:#018x}", got.0);
        }
    }

    #[test]
    fn snapshot_with_legacy_decision_millis_key_still_resumes() {
        // v2 files written before serve stopped persisting its timings
        // carry a `decision_millis` array; the loader ignores the key.
        let (trace, model) = setup();
        let dir = scratch_dir("legacy-millis");
        let path = dir.join("snapshot.json");
        let base = ServeConfig {
            checkpoint_every: 1,
            checkpoint_path: Some(path.clone()),
            ..ServeConfig::default()
        };
        let cut = ServeConfig { max_days: Some(5), ..base.clone() };
        serve(&trace, &model, &GreedyPolicy, &cut).unwrap();

        // Rewrite the checkpoint as such a v2 file: its JSON with the key.
        let snap = Snapshot::load(&path).unwrap();
        let payload = serde_json::to_string(&Snapshot { version: 2, ..snap }).unwrap();
        let legacy = payload.replacen('{', r#"{"decision_millis":[0.5,0.25,1.75,0.125,2.0],"#, 1);
        let digest = stream::fnv1a64(legacy.as_bytes());
        std::fs::write(&path, format!("minicost-snapshot v2 fnv1a64:{digest:016x}\n{legacy}"))
            .unwrap();

        let resumed = serve(&trace, &model, &GreedyPolicy, &base).unwrap();
        assert_eq!(resumed.resumed_from_day, Some(5));
        let batch = simulate(&trace, &model, &GreedyPolicy, &batch_cfg());
        assert_eq!(resumed.result.daily, batch.daily);
        assert_eq!(resumed.result.per_file, batch.per_file);
        assert_eq!(resumed.result.tier_changes, batch.tier_changes);
        assert_eq!(resumed.result.occupancy, batch.occupancy);
        // Timings cover only the resumed invocation's epochs.
        assert_eq!(resumed.result.decision_millis.len(), trace.days - 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_call_per_day_writes_one_checkpoint_per_call() {
        // The daily deployment: one call per day, each resuming from the
        // last. Each call must write its state once, so the rotation keeps
        // two distinct predecessors rather than a duplicate of the newest.
        let (trace, model) = setup();
        let dir = scratch_dir("daily-rotation");
        let path = dir.join("snapshot.json");
        for day in 0..5 {
            let cfg = ServeConfig {
                checkpoint_every: 1,
                checkpoint_keep: 2,
                checkpoint_path: Some(path.clone()),
                max_days: Some(day + 1),
                ..ServeConfig::default()
            };
            let report = serve(&trace, &model, &GreedyPolicy, &cfg).unwrap();
            assert_eq!(report.checkpoints_written, 1, "day {day}");
        }
        let days: Vec<usize> = rotation_candidates(&path, 2)
            .iter()
            .map(|p| Snapshot::load(p).unwrap().next_day)
            .collect();
        assert_eq!(days, vec![5, 4, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_checkpoint_is_kept_when_days_follow_the_last_write() {
        // Days served after the last periodic checkpoint still get a
        // shutdown snapshot: at `checkpoint_every 2`, and at a cadence of
        // 3 cut by `max_days`.
        let (trace, model) = setup();
        for (decide_every, checkpoint_every) in [(1, 2), (3, 1)] {
            let dir = scratch_dir(&format!("shutdown-{decide_every}-{checkpoint_every}"));
            let path = dir.join("snapshot.json");
            let cfg = ServeConfig {
                decide_every,
                checkpoint_every,
                checkpoint_path: Some(path.clone()),
                max_days: Some(5),
                ..ServeConfig::default()
            };
            let report = serve(&trace, &model, &GreedyPolicy, &cfg).unwrap();
            assert_eq!(report.checkpoints_written, 3);
            assert_eq!(Snapshot::load(&path).unwrap().next_day, 5);
            let resumed =
                serve(&trace, &model, &GreedyPolicy, &ServeConfig { max_days: None, ..cfg })
                    .unwrap();
            assert_eq!(resumed.resumed_from_day, Some(5));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_snapshot_with_both_modes_resumes_in_the_configured_one() {
        // Serve to day 5 and graft in the other mode's statistics from a
        // run to the same day. The resumed run must serve in its own mode
        // alone: the uninterrupted run's ledgers, and a next checkpoint
        // that carries only that mode's statistics.
        let (trace, model) = setup();
        let exact = ServeConfig::default();
        let bounded = ServeConfig { max_tracked: Some(4), ..ServeConfig::default() };
        for (mode, other) in [(&exact, &bounded), (&bounded, &exact)] {
            let dir = scratch_dir(&format!("graft-{:?}", mode.max_tracked));
            let (path, donor) = (dir.join("state.ckpt"), dir.join("donor.ckpt"));
            let checkpointed = |cfg: &ServeConfig, path: &Path, max_days| ServeConfig {
                checkpoint_every: 1,
                checkpoint_path: Some(path.to_path_buf()),
                max_days,
                ..cfg.clone()
            };
            serve(&trace, &model, &GreedyPolicy, &checkpointed(mode, &path, Some(5))).unwrap();
            serve(&trace, &model, &GreedyPolicy, &checkpointed(other, &donor, Some(5))).unwrap();
            let mut snap = Snapshot::load(&path).unwrap();
            let graft = Snapshot::load(&donor).unwrap();
            snap.exact = snap.exact.or(graft.exact);
            snap.bounded = snap.bounded.or(graft.bounded);
            assert!(snap.exact.is_some() && snap.bounded.is_some());
            snap.save_atomic(&path).unwrap();

            let resumed =
                serve(&trace, &model, &GreedyPolicy, &checkpointed(mode, &path, None)).unwrap();
            assert_eq!(resumed.resumed_from_day, Some(5));
            let whole = serve(&trace, &model, &GreedyPolicy, mode).unwrap();
            assert_eq!(resumed.result.daily, whole.result.daily);
            assert_eq!(resumed.result.per_file, whole.result.per_file);
            assert_eq!(resumed.result.tier_changes, whole.result.tier_changes);
            assert_eq!(resumed.result.occupancy, whole.result.occupancy);
            let next = Snapshot::load(&path).unwrap();
            assert_eq!(next.next_day, trace.days);
            assert_eq!(next.exact.is_some(), mode.max_tracked.is_none());
            assert_eq!(next.bounded.is_some(), mode.max_tracked.is_some());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn zero_cadence_is_rejected() {
        let (trace, model) = setup();
        let cfg = ServeConfig { decide_every: 0, ..ServeConfig::default() };
        assert!(matches!(serve(&trace, &model, &GreedyPolicy, &cfg), Err(ServeError::Config(_))));
    }

    /// A policy bug: answers `keep / 2` archive tiers per batch file (half
    /// or one and a half times too many), never one per file.
    struct MisSized {
        keep: usize,
    }

    impl Policy for MisSized {
        fn name(&self) -> &'static str {
            "mis-sized"
        }

        fn decide_batch_into(&mut self, ctx: &DecisionContext<'_>, out: &mut Vec<Tier>) {
            out.clear();
            out.resize(ctx.len() * self.keep / 2, Tier::Archive);
        }

        fn fork(&self) -> Box<dyn Policy> {
            Box::new(MisSized { keep: self.keep })
        }
    }

    #[test]
    fn mis_sized_decisions_are_a_typed_error_and_never_billed() {
        let (trace, model) = setup();
        for keep in [1usize, 3] {
            let dir = scratch_dir(&format!("mis-sized-{keep}"));
            let cfg = ServeConfig {
                checkpoint_path: Some(dir.join("state.ckpt")),
                checkpoint_every: 1,
                ..ServeConfig::default()
            };
            match serve(&trace, &model, &MisSized { keep }, &cfg) {
                Err(ServeError::Policy(msg)) => {
                    let want = format!("{} tier(s) for {} file(s) on day 0", 12 * keep, 24);
                    assert!(msg.contains(&want), "{msg}");
                }
                other => panic!("keep {keep}/2: expected a policy error, got {other:?}"),
            }
            // The failing day was neither billed nor checkpointed.
            assert!(!dir.join("state.ckpt").exists());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn decision_fleet_encodes_like_from_trace() {
        // Exact mode: the window the serve loop keeps must give the same
        // encoder rows (bit for bit) and today's counts as the whole-trace
        // fleet simulate decides on — before the window fills, as it
        // fills, once prior sums are carried, and on the last day.
        let (trace, _) = setup();
        let cfg = ServeConfig::default();
        let window = cfg.window;
        let features = crate::features::FeatureConfig { window };
        let n = trace.len();
        let full = FleetState::from_trace(&trace);
        let mut state = fresh(&cfg, "greedy", n);
        let mut fleet = FleetState::default();
        fleet.reset_window(&trace, window);
        let mut source = TraceSource::new(&trace, DiurnalProfile::web_default(), cfg.seed, 0);
        let batch: Vec<usize> = (0..n).collect();
        let current: Vec<Tier> = (0..n).filter_map(|i| Tier::from_index(i % 3)).collect();
        let checked = [0, 1, window - 1, window, window + 1, trace.days - 1];
        let (mut want, mut got) =
            (crate::fleet::FeatureBlock::new(), crate::fleet::FeatureBlock::new());
        for day in 0..trace.days {
            let events = source.next_batch().expect("in-horizon day").events;
            ingest(&mut state, &mut fleet, day, &events);
            if checked.contains(&day) {
                refill_history(&state, &mut fleet, &trace);
                features.encode_block(&full.view(&batch, day), &current, &mut want);
                features.encode_block(&fleet.view(&batch, day), &current, &mut got);
                let bits = |b: &crate::fleet::FeatureBlock| -> Vec<u64> {
                    b.matrix().as_slice().iter().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(&got), bits(&want), "encoded rows differ on day {day}");
                for ix in 0..n {
                    assert_eq!(fleet.day_counts(ix, day), full.day_counts(ix, day), "day {day}");
                }
            }
            close_day(&mut state);
        }
    }
}
