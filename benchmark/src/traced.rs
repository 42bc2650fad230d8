//! The traced pass: per-layer time for each workload, measured outside-in.
//!
//! The library has no tracing of its own, so the benchmark times calls
//! into each module's public functions. Where the engine's steps are
//! public (simulate's fleet build, partition, decide, bill, merge; the RL
//! policy's featurize and layer-by-layer forward) the harness re-composes
//! them with a span around each call and checks the result is bit-identical
//! to the library's own output. Where they are not (inside `serve` and
//! `MiniCost::train`) it times the same public calls on the same inputs
//! beside the library call, and the remainder is reported as that layer's
//! `unattributed` time.
//!
//! Each layer's time is reported as a share of the library call's own
//! untraced wall time (`trace.ref_ms`), so the shares of one workload add
//! up to about 100%.

use crate::host::HostClock;
use crate::spans::{self_times, total_ns, Tracer};
use crate::workloads::{
    daily_config, daily_rep, generate, model, remove_scratch, same_ledgers, sim_config, time_ms,
    timed_reps, train_config, Check, Settings, Workload,
};
use minicost::engine::{merge_shards, partition, ShardRun};
use minicost::features::FeatureConfig;
use minicost::fleet::{FeatureBlock, FleetState};
use minicost::mdp::{TieringEnv, TieringEnvConfig};
use minicost::optimal::suffix_values;
use minicost::prelude::*;
use nn::{Conv1d, ConvBranch, Dense, ForwardScratch, Layer, Matrix, Network, Optimizer, Relu};
use pricing::{CostBreakdown, FileDay, TIER_COUNT};
use rl::actor_critic::argmax;
use rl::{ActorCritic, Env, NetSpec};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use store::{recover, JobId, Journal, MigrateConfig, MigrationJob, Migrator, StoragePool};
use stream::{BoundedConfig, BoundedStats, EventSource, ExactStats, Snapshot, TraceSource};
use tracegen::DiurnalProfile;

/// Layers whose time a traced pass reports, as `<layer>_pct` of
/// `trace.ref_ms`. A layer a workload does not run reports 0.
pub const LAYERS: [&str; 32] = [
    "fleet.from_trace",
    "engine.partition",
    "engine.merge",
    "engine.unattributed",
    "pricing.bill",
    "policy.greedy_decide",
    "policy.argmax",
    "policy.optimal_plan",
    "features.encode",
    "nn.conv_branch",
    "nn.relu1",
    "nn.dense1",
    "nn.relu2",
    "nn.dense2",
    "stream.event_gen",
    "stream.digest",
    "stream.exact_ingest",
    "stream.bounded_ingest",
    "stream.snapshot_load",
    "stream.snapshot_save",
    "serve.unattributed",
    "store.onboard",
    "store.pool_open",
    "store.journal_open",
    "store.recover",
    "store.migrate",
    "optimal.suffix_values",
    "mdp.env_step",
    "nn.train_forward",
    "nn.train_backward",
    "nn.adam_step",
    "rl.update_unattributed",
];

/// Deterministic counters a traced pass reports, with their units.
pub const COUNTS: [(&str, &str); 13] = [
    ("engine.shard_files_max", "count"),
    ("engine.shard_files_mean", "count"),
    ("pricing.bill_calls", "count"),
    ("policy.tier_changes", "count"),
    ("features.rows", "count"),
    ("nn.forward_rows", "count"),
    ("nn.macs", "count"),
    ("nn.bytes_moved", "bytes"),
    ("stream.events", "count"),
    ("stream.snapshot_bytes", "bytes"),
    ("store.jobs", "count"),
    ("store.committed_bytes", "bytes"),
    ("store.journal_records", "count"),
];

/// What one traced workload process measured.
#[derive(Default)]
pub struct Traced {
    /// Every span, kept in memory until exit.
    pub tracer: Tracer,
    /// Milliseconds attributed to each layer, summed over passes.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Counters, per pass (identical across passes).
    pub counts: BTreeMap<&'static str, f64>,
    /// Untraced wall ms of the library call the layers decompose.
    pub ref_ms: f64,
    /// Wall ms of the same work with spans recorded.
    pub traced_ms: f64,
    /// File-days one pass processes (train-a3c: environment steps).
    pub work: f64,
    /// Derived ratios reported beside the layers.
    pub ratios: BTreeMap<&'static str, f64>,
    /// Bit-identity and invariant checks.
    pub checks: Vec<Check>,
    /// Traced passes completed.
    pub passes: u64,
}

impl Traced {
    /// `trace.overhead`: traced wall over untraced wall, minus one.
    pub fn overhead(&self) -> f64 {
        self.traced_ms / self.ref_ms - 1.0
    }

    /// `Trace::generate` wall ms (median over its set-up calls).
    pub fn generate_ms(&self) -> f64 {
        let calls: Vec<f64> = self
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "trace.generate")
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        crate::stats::median(&calls)
    }

    /// A layer's share of `ref_ms`, in percent.
    pub fn share_pct(&self, layer: &str) -> f64 {
        self.layer_ms.get(layer).copied().unwrap_or(0.0) / self.ref_ms * 100.0
    }

    fn add_ms(&mut self, layer: &'static str, ms: f64) {
        *self.layer_ms.entry(layer).or_insert(0.0) += ms;
    }

    /// Adds each listed layer's span self time to `layer_ms`.
    fn take_span_ms(&mut self, layers: &[&'static str]) {
        let st = self_times(self.tracer.spans());
        for &layer in layers {
            let ms = st.get(layer).copied().unwrap_or(0) as f64 / 1e6;
            self.add_ms(layer, ms);
        }
    }

    fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }
}

/// Runs traced passes of `workload` until `s.seconds` have passed.
pub fn run(workload: Workload, s: &Settings) -> Traced {
    match workload {
        Workload::SimGreedy | Workload::SimRl128 => trace_sim(workload, s),
        Workload::ServeStream => trace_serve_stream(s),
        Workload::ServeDaily => trace_serve_daily(s),
        Workload::TrainA3c => trace_train(s),
    }
}

/// One day's billing sweep in `engine::run_shard` order: decide-or-hold,
/// count the change, bill, move the file.
fn bill_day(
    model: &CostModel,
    size_gb: impl Fn(usize) -> f64,
    counts: impl Fn(usize) -> (u64, u64),
    decision: &[Tier],
    current: &mut [Tier],
    per_file: &mut [Money],
    tier_changes: &mut u64,
) -> CostBreakdown {
    let mut breakdown = CostBreakdown::default();
    for slot in 0..current.len() {
        let target = decision[slot];
        let changed_from = if target == current[slot] {
            None
        } else {
            *tier_changes += 1;
            Some(current[slot])
        };
        let (reads, writes) = counts(slot);
        let bill = model.day_breakdown(&FileDay {
            size_gb: size_gb(slot),
            reads,
            writes,
            tier: target,
            changed_from,
        });
        per_file[slot] += bill.total();
        breakdown += bill;
        current[slot] = target;
    }
    breakdown
}

fn occupancy(tiers: &[Tier]) -> [usize; TIER_COUNT] {
    let mut counts = [0usize; TIER_COUNT];
    for t in tiers {
        counts[t.index()] += 1;
    }
    counts
}

/// The actor's five layers as standalone objects, loaded from the same
/// parameter vector, plus the whole network to check the logits against.
struct NnLayers {
    features: FeatureConfig,
    conv: ConvBranch,
    relu1: Relu,
    dense1: Dense,
    relu2: Relu,
    dense2: Dense,
    block: FeatureBlock,
    a0: Matrix,
    a1: Matrix,
    a2: Matrix,
    a3: Matrix,
    logits: Matrix,
    actor: Network,
    scratch: ForwardScratch,
    /// Multiply-adds per row: conv, dense1, dense2.
    macs_per_row: u64,
    /// Floats read and written per row, and parameters, per layer call.
    floats_per_row: u64,
    params: u64,
    logits_checked: u64,
    logits_differ: u64,
}

impl NnLayers {
    fn new(spec: NetSpec, params: &[f64]) -> NnLayers {
        let conv =
            Conv1d::new(spec.channels, spec.window, spec.filters, spec.kernel, spec.stride, 0);
        let conv_out = conv.out_width();
        let conv_len = conv.output_len();
        let mut layers = NnLayers {
            features: FeatureConfig::default(),
            conv: ConvBranch::new(conv, spec.extras),
            relu1: Relu::new(),
            dense1: Dense::new(conv_out + spec.extras, spec.hidden, 0),
            relu2: Relu::new(),
            dense2: Dense::new(spec.hidden, spec.actions, 0),
            block: FeatureBlock::new(),
            a0: Matrix::default(),
            a1: Matrix::default(),
            a2: Matrix::default(),
            a3: Matrix::default(),
            logits: Matrix::default(),
            actor: spec.build_actor(0),
            scratch: ForwardScratch::new(),
            macs_per_row: (spec.filters * conv_len * spec.channels * spec.kernel
                + (conv_out + spec.extras) * spec.hidden
                + spec.hidden * spec.actions) as u64,
            floats_per_row: 0,
            params: params.len() as u64,
            logits_checked: 0,
            logits_differ: 0,
        };
        let widths = [
            spec.state_dim(),
            conv_out + spec.extras,
            conv_out + spec.extras,
            spec.hidden,
            spec.hidden,
            spec.actions,
        ];
        layers.floats_per_row = widths.windows(2).map(|w| (w[0] + w[1]) as u64).sum();
        let mut at = 0;
        for layer in layers.trunk() {
            at += layer.set_params(&params[at..]);
        }
        assert_eq!(at, params.len(), "standalone layers consume the whole parameter vector");
        layers.actor.set_params(params);
        layers
    }

    fn trunk(&mut self) -> [&mut dyn Layer; 5] {
        [&mut self.conv, &mut self.relu1, &mut self.dense1, &mut self.relu2, &mut self.dense2]
    }

    /// `RlPolicy::decide_batch_into`, one layer per span.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        &mut self,
        tr: &mut Tracer,
        fleet: &FleetState,
        day: usize,
        batch: &[usize],
        current: &[Tier],
        out: &mut Vec<Tier>,
        check_logits: bool,
        counts: &mut BTreeMap<&'static str, f64>,
    ) {
        out.clear();
        if day == 0 || batch.is_empty() {
            out.extend_from_slice(current);
            return;
        }
        let view = fleet.view(batch, day);
        let (features, block) = (&self.features, &mut self.block);
        tr.time("features.encode", || features.encode_block(&view, current, block));
        let input = self.block.matrix();
        tr.time("nn.conv_branch", || self.conv.forward_into(input, &mut self.a0));
        tr.time("nn.relu1", || self.relu1.forward_into(&self.a0, &mut self.a1));
        tr.time("nn.dense1", || self.dense1.forward_into(&self.a1, &mut self.a2));
        tr.time("nn.relu2", || self.relu2.forward_into(&self.a2, &mut self.a3));
        tr.time("nn.dense2", || self.dense2.forward_into(&self.a3, &mut self.logits));
        let logits = &self.logits;
        tr.time("policy.argmax", || {
            out.extend(
                current
                    .iter()
                    .enumerate()
                    .map(|(row, &cur)| Tier::from_index(argmax(logits.row(row))).unwrap_or(cur)),
            );
        });
        if check_logits {
            let whole = self.actor.forward_into(self.block.matrix(), &mut self.scratch);
            let same = whole.shape() == self.logits.shape()
                && whole
                    .as_slice()
                    .iter()
                    .zip(self.logits.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            self.logits_checked += 1;
            self.logits_differ += u64::from(!same);
        }
        let rows = batch.len() as f64;
        *counts.entry("features.rows").or_insert(0.0) += rows;
        *counts.entry("nn.forward_rows").or_insert(0.0) += rows;
        *counts.entry("nn.macs").or_insert(0.0) += rows * self.macs_per_row as f64;
        *counts.entry("nn.bytes_moved").or_insert(0.0) +=
            8.0 * (rows * self.floats_per_row as f64 + self.params as f64);
    }
}

/// `engine::run_shard`, re-composed with a span around each layer call.
fn compose_shard(
    tr: &mut Tracer,
    fleet: &FleetState,
    model: &CostModel,
    cfg: &SimConfig,
    indices: &[usize],
    mut nn: Option<&mut NnLayers>,
    counts: &mut BTreeMap<&'static str, f64>,
) -> ShardRun {
    let days = fleet.days();
    let mut current = vec![cfg.initial_tier; indices.len()];
    let mut decision = Vec::with_capacity(indices.len());
    let mut per_file = vec![Money::ZERO; indices.len()];
    let (mut daily, mut occ) = (Vec::with_capacity(days), Vec::with_capacity(days));
    let mut tier_changes = 0u64;
    for day in 0..days {
        match nn.as_deref_mut() {
            Some(layers) => {
                let check = day == 1 || day + 1 == days;
                layers.decide(tr, fleet, day, indices, &current, &mut decision, check, counts);
            }
            None => {
                let ctx = DecisionContext { day, fleet, model, batch: indices, current: &current };
                tr.time("policy.greedy_decide", || {
                    GreedyPolicy.decide_batch_into(&ctx, &mut decision)
                });
            }
        }
        let bill = tr.time("pricing.bill", || {
            bill_day(
                model,
                |slot| fleet.size_gb(indices[slot]),
                |slot| fleet.day_counts(indices[slot], day),
                &decision,
                &mut current,
                &mut per_file,
                &mut tier_changes,
            )
        });
        daily.push(bill);
        occ.push(occupancy(&current));
    }
    *counts.entry("pricing.bill_calls").or_insert(0.0) += (indices.len() * days) as f64;
    ShardRun {
        indices: indices.to_vec(),
        daily,
        per_file,
        decision_millis: Vec::new(),
        tier_changes,
        occupancy: occ,
    }
}

fn trace_sim(workload: Workload, s: &Settings) -> Traced {
    let size = workload.size(s.quick);
    let model = model();
    let mut t = Traced::default();
    let trace = t.tracer.time("trace.generate", || generate(size, s.seed));
    let rl = workload == Workload::SimRl128;
    let spec = MiniCostConfig::default().net_spec();
    let params = spec.build_actor(s.seed).param_vector();
    let mut layers = rl.then(|| NnLayers::new(spec, &params));
    let cfg = sim_config(s.seed, 1);
    let all: Vec<usize> = (0..trace.len()).collect();
    let mut identical = true;
    t.passes = timed_reps(s.seconds, |pass| {
        t.tracer.req = pass as u64;
        let mut policy: Box<dyn Policy> = if rl {
            Box::new(RlPolicy::from_params(spec, &params, FeatureConfig::default()))
        } else {
            Box::new(GreedyPolicy)
        };
        let (ref_ms, reference) = time_ms(|| simulate(&trace, &model, policy.as_mut(), &cfg));
        let mut counts = BTreeMap::new();
        let (traced_ms, composed) = time_ms(|| {
            let tr = &mut t.tracer;
            let fleet = tr.time("fleet.from_trace", || FleetState::from_trace(&trace));
            // The workers-2 partition is timed for its shard sizes; the
            // composed loop itself runs `simulate(workers 1)`'s single shard.
            let shards = tr.time("engine.partition", || partition(&trace, s.seed, 2));
            let run = compose_shard(tr, &fleet, &model, &cfg, &all, layers.as_mut(), &mut counts);
            let name = policy.name();
            let merged = tr.time("engine.merge", || {
                merge_shards(name, trace.days, trace.len(), std::slice::from_ref(&run))
            });
            let sizes: Vec<f64> = shards.iter().map(|ix| ix.len() as f64).collect();
            counts.insert("engine.shard_files_max", sizes.iter().copied().fold(0.0, f64::max));
            counts
                .insert("engine.shard_files_mean", sizes.iter().sum::<f64>() / sizes.len() as f64);
            merged
        });
        identical &= same_ledgers(&composed, &reference);
        counts.insert("policy.tier_changes", composed.tier_changes as f64);
        t.counts = counts;
        t.ref_ms += ref_ms;
        t.traced_ms += traced_ms;
    })
    .len() as u64;
    t.work = (size.files * size.days) as f64;
    t.check("composed simulate ledgers are bit-identical to simulate", identical, "");
    let attributed: &[&'static str] = &[
        "fleet.from_trace",
        "engine.merge",
        "policy.greedy_decide",
        "features.encode",
        "nn.conv_branch",
        "nn.relu1",
        "nn.dense1",
        "nn.relu2",
        "nn.dense2",
        "policy.argmax",
        "pricing.bill",
    ];
    t.take_span_ms(attributed);
    t.take_span_ms(&["engine.partition"]);
    let inside: f64 = attributed.iter().map(|l| t.layer_ms[l]).sum();
    t.add_ms("engine.unattributed", t.ref_ms - inside);
    if let Some(layers) = &layers {
        t.check(
            "composed layer logits are bit-identical to Network::forward_into",
            layers.logits_checked > 0 && layers.logits_differ == 0,
            format!("{} of {} blocks differ", layers.logits_differ, layers.logits_checked),
        );
    }
    t
}

fn trace_serve_stream(s: &Settings) -> Traced {
    let size = Workload::ServeStream.size(s.quick);
    let model = model();
    let mut t = Traced::default();
    let trace = t.tracer.time("trace.generate", || generate(size, s.seed));
    let cfg = ServeConfig { seed: s.seed, ..ServeConfig::default() };
    // Greedy reads only the decided day's counts, which equal serve's exact
    // open-day counters, so it decides on the trace's own columns here.
    let fleet = FleetState::from_trace(&trace);
    let all: Vec<usize> = (0..trace.len()).collect();
    let (mut sim_ms, mut identical, mut composed_ok) = (0.0, true, true);
    t.passes = timed_reps(s.seconds, |pass| {
        t.tracer.req = pass as u64;
        let (ms, batch) =
            time_ms(|| simulate(&trace, &model, &mut GreedyPolicy, &sim_config(s.seed, 1)));
        sim_ms += ms;
        let (ref_ms, reference) = time_ms(|| serve(&trace, &model, &mut GreedyPolicy, &cfg));
        t.ref_ms += ref_ms;
        let root = t.tracer.open("serve.serve");
        let _ = serve(&trace, &model, &mut GreedyPolicy, &cfg);
        t.tracer.close(root);
        let Ok(reference) = reference else {
            identical = false;
            return;
        };
        identical &= same_ledgers(&reference.result, &batch);

        let tr = &mut t.tracer;
        let n = trace.len();
        let mut source = TraceSource::new(&trace, DiurnalProfile::web_default(), s.seed, 0);
        let mut stats = ExactStats::new(cfg.window, n);
        let (mut reads, mut writes) = (vec![0u64; n], vec![0u64; n]);
        let mut tiers = vec![cfg.initial_tier; n];
        let mut decision = Vec::with_capacity(n);
        let mut per_file = vec![Money::ZERO; n];
        let (mut daily, mut occ, mut changes, mut events) = (Vec::new(), Vec::new(), 0u64, 0u64);
        for day in 0..trace.days {
            let Some(batch) = tr.time("stream.event_gen", || source.next_batch()) else {
                composed_ok = false;
                break;
            };
            composed_ok &= tr.time("stream.digest", || batch.verifies());
            events += batch.events.len() as u64;
            tr.time("stream.exact_ingest", || {
                reads.iter_mut().chain(writes.iter_mut()).for_each(|c| *c = 0);
                for e in &batch.events {
                    stats.ingest(e);
                    reads[e.file.index()] += e.reads;
                    writes[e.file.index()] += e.writes;
                }
            });
            let ctx =
                DecisionContext { day, fleet: &fleet, model: &model, batch: &all, current: &tiers };
            tr.time("policy.greedy_decide", || GreedyPolicy.decide_batch_into(&ctx, &mut decision));
            let bill = tr.time("pricing.bill", || {
                bill_day(
                    &model,
                    |ix| trace.files[ix].size_gb,
                    |ix| (reads[ix], writes[ix]),
                    &decision,
                    &mut tiers,
                    &mut per_file,
                    &mut changes,
                )
            });
            daily.push(bill);
            occ.push(occupancy(&tiers));
            tr.time("stream.exact_ingest", || stats.close_day());
        }
        composed_ok &= daily == reference.result.daily
            && per_file == reference.result.per_file
            && changes == reference.result.tier_changes
            && occ == reference.result.occupancy;
        t.counts.insert("stream.events", events as f64);
        t.counts.insert("pricing.bill_calls", (n * trace.days) as f64);
        t.counts.insert("policy.tier_changes", changes as f64);
    })
    .len() as u64;
    t.traced_ms = total_ns(t.tracer.spans(), "serve.serve") as f64 / 1e6;
    t.work = (size.files * size.days) as f64;
    t.check("serve ledgers are bit-identical to simulate(greedy)", identical, "");
    t.check(
        "composed stream/decide/bill ledgers are bit-identical to serve",
        composed_ok,
        "event digests verified, counts conserved",
    );
    let attributed: &[&'static str] = &[
        "stream.event_gen",
        "stream.digest",
        "stream.exact_ingest",
        "policy.greedy_decide",
        "pricing.bill",
    ];
    t.take_span_ms(attributed);
    let inside: f64 = attributed.iter().map(|l| t.layer_ms[l]).sum();
    t.add_ms("serve.unattributed", t.ref_ms - inside);
    t.ratios.insert("ratio.serve_over_sim", t.ref_ms / sim_ms);
    t
}

/// The shadow store the serve-daily trace replays each day's migrations on.
struct Shadow {
    pool: StoragePool,
    journal: Journal,
}

fn trace_serve_daily(s: &Settings) -> Traced {
    let size = Workload::ServeDaily.size(s.quick);
    let model = model();
    let mut t = Traced::default();
    let trace = t.tracer.time("trace.generate", || generate(size, s.seed));
    let mut optimal =
        t.tracer.time("policy.optimal_plan", || OptimalPolicy::plan(&trace, &model, Tier::Hot));
    let plan_ms = total_ns(t.tracer.spans(), "policy.optimal_plan") as f64 / 1e6;
    let scratch = s.scratch_dir(Workload::ServeDaily);
    let fleet = FleetState::from_trace(&trace);
    let all: Vec<usize> = (0..trace.len()).collect();
    let n = trace.len();
    let window = ServeConfig::default().window;
    let mut failures = Vec::new();
    // Fresh directories per pass, deleted only at the end (see
    // `remove_scratch`).
    let mut clock = HostClock::new();
    t.passes = timed_reps(s.seconds, |pass| {
        let untraced = scratch.join(format!("untraced{pass}"));
        let untraced =
            daily_rep(&trace, &model, &mut optimal, s.seed, &untraced, size.days, &mut clock);
        t.ref_ms += untraced.days.iter().map(|d| d.wall_ms).sum::<f64>();

        let dir = scratch.join(format!("traced{pass}"));
        let shadow_dir = scratch.join(format!("shadow{pass}"));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::create_dir_all(&shadow_dir))
        {
            failures.push(format!("scratch dir: {e}"));
            return;
        }
        let tr = &mut t.tracer;
        let mut source = TraceSource::new(&trace, DiurnalProfile::web_default(), s.seed, 0);
        let mut bounded = BoundedStats::new(BoundedConfig {
            max_tracked: 100,
            cms_width: 2048,
            cms_depth: 4,
            window,
            seed: s.seed,
        });
        let mut tiers = vec![Tier::Hot; n];
        let mut decision = Vec::with_capacity(n);
        let mut per_file = vec![Money::ZERO; n];
        let (mut daily, mut occ, mut changes) = (Vec::new(), Vec::new(), 0u64);
        let (mut jobs_total, mut snapshot_bytes, mut events) = (0u64, 0u64, 0u64);
        let mut shadow: Option<Shadow> = None;
        let mut last = None;
        for day in 0..size.days {
            tr.req = day as u64;
            let cfg = daily_config(s.seed, &dir, day);
            let report = tr.time("serve.day", || serve(&trace, &model, &mut optimal, &cfg));
            match report {
                Ok(r) => last = Some(r),
                Err(e) => {
                    failures.push(format!("day {day}: {e}"));
                    return;
                }
            }
            let checkpoint = dir.join("checkpoint.json");
            let copy = shadow_dir.join("checkpoint.json");
            if let Err(e) = std::fs::copy(&checkpoint, &copy) {
                failures.push(format!("copy checkpoint: {e}"));
                return;
            }
            snapshot_bytes = std::fs::metadata(&copy).map_or(0, |m| m.len());
            match tr.time("stream.snapshot_load", || Snapshot::load(&copy)) {
                Ok(snap) => {
                    let saved = tr.time("stream.snapshot_save", || {
                        snap.save_atomic(&shadow_dir.join("saved.json"))
                    });
                    if let Err(e) = saved {
                        failures.push(format!("snapshot save: {e}"));
                    }
                }
                Err(e) => failures.push(format!("snapshot load: {e}")),
            }

            let Some(batch) = tr.time("stream.event_gen", || source.next_batch()) else {
                failures.push(format!("no events for day {day}"));
                return;
            };
            if !tr.time("stream.digest", || batch.verifies()) {
                failures.push(format!("day {day} batch digest mismatch"));
            }
            events += batch.events.len() as u64;
            tr.time("stream.bounded_ingest", || {
                for e in &batch.events {
                    bounded.ingest(e);
                }
            });

            let ctx =
                DecisionContext { day, fleet: &fleet, model: &model, batch: &all, current: &tiers };
            optimal.decide_batch_into(&ctx, &mut decision);
            let jobs: Vec<MigrationJob> = trace
                .files
                .iter()
                .zip(tiers.iter().zip(&decision))
                .filter(|(_, (from, to))| from != to)
                .map(|(file, (&from, &to))| MigrationJob {
                    id: JobId { day, file: u64::from(file.id.0), from, to },
                    logical_bytes: store::logical_bytes(file.size_gb),
                })
                .collect();
            let pool_dir = shadow_dir.join("pool");
            let opened = match shadow.take() {
                None => tr.time("store.onboard", || onboard(&trace, &pool_dir)),
                Some(previous) => {
                    drop(previous);
                    reopen(tr, &pool_dir)
                }
            };
            let mut sh = match opened {
                Ok(sh) => sh,
                Err(e) => {
                    failures.push(format!("shadow store: {e}"));
                    return;
                }
            };
            if !jobs.is_empty() {
                let migrator = Migrator::new(MigrateConfig::default());
                let (pool, journal) = (&mut sh.pool, &mut sh.journal);
                match tr.time("store.migrate", || migrator.run_batch(pool, journal, &jobs)) {
                    Ok(out) if out.pinned.is_empty() && !out.crashed => {}
                    Ok(out) => failures.push(format!("day {day}: {} pinned", out.pinned.len())),
                    Err(e) => failures.push(format!("day {day} migrate: {e}")),
                }
                jobs_total += jobs.len() as u64;
            }
            shadow = Some(sh);

            let bill = tr.time("pricing.bill", || {
                bill_day(
                    &model,
                    |ix| fleet.size_gb(ix),
                    |ix| fleet.day_counts(ix, day),
                    &decision,
                    &mut tiers,
                    &mut per_file,
                    &mut changes,
                )
            });
            daily.push(bill);
            occ.push(occupancy(&tiers));
            tr.time("stream.bounded_ingest", || bounded.close_day());
        }
        let Some(report) = last else { return };
        let composed_same = daily == report.result.daily
            && per_file == report.result.per_file
            && changes == report.result.tier_changes
            && occ == report.result.occupancy;
        if !composed_same {
            failures.push("composed bill ledger differs from serve".to_owned());
        }
        if report.result.total_cost() != optimal.planned_cost {
            failures.push("serve ledger differs from the optimal plan's cost".to_owned());
        }
        let committed = shadow.as_ref().map_or(0, |sh| sh.journal.committed_bytes());
        let served = report.store.as_ref().map_or(0, |st| st.committed_bytes);
        if committed != served
            || report.store.as_ref().is_none_or(|st| st.billed_change_bytes != served)
        {
            failures.push(format!("shadow committed {committed} vs serve committed {served}"));
        }
        t.counts.insert("store.jobs", jobs_total as f64);
        t.counts.insert("store.committed_bytes", committed as f64);
        t.counts.insert(
            "store.journal_records",
            shadow.as_ref().map_or(0, |sh| sh.journal.records().len()) as f64,
        );
        t.counts.insert("stream.snapshot_bytes", snapshot_bytes as f64);
        t.counts.insert("stream.events", events as f64);
        t.counts.insert("pricing.bill_calls", (n * size.days) as f64);
        t.counts.insert("policy.tier_changes", changes as f64);
    })
    .len() as u64;
    remove_scratch(&scratch);
    t.traced_ms = total_ns(t.tracer.spans(), "serve.day") as f64 / 1e6;
    t.work = (size.files * size.days) as f64;
    t.check(
        "shadow store, composed bill and serve agree; serve equals the optimal plan",
        failures.is_empty(),
        failures.join("; "),
    );
    let attributed: &[&'static str] = &[
        "stream.snapshot_load",
        "stream.snapshot_save",
        "stream.event_gen",
        "stream.digest",
        "stream.bounded_ingest",
        "store.onboard",
        "store.pool_open",
        "store.journal_open",
        "store.recover",
        "store.migrate",
        "pricing.bill",
    ];
    t.take_span_ms(attributed);
    let inside: f64 = attributed.iter().map(|l| t.layer_ms[l]).sum();
    // Against the traced invocations, which the shadow layers ran beside.
    let serve_ms = t.traced_ms;
    t.add_ms("serve.unattributed", serve_ms - inside);
    t.add_ms("policy.optimal_plan", plan_ms);
    t
}

/// Day 0 of the shadow store: open a fresh pool and put every object hot.
fn onboard(trace: &Trace, dir: &Path) -> Result<Shadow, String> {
    let mut pool = StoragePool::open_dir(dir).map_err(|e| e.to_string())?;
    let journal = Journal::open_file(&dir.join("journal.log"))?;
    for file in &trace.files {
        pool.put(u64::from(file.id.0), Tier::Hot, store::logical_bytes(file.size_gb))
            .map_err(|e| e.to_string())?;
    }
    Ok(Shadow { pool, journal })
}

/// Days 1..: what `serve` does to its store on start-up.
fn reopen(tr: &mut Tracer, dir: &Path) -> Result<Shadow, String> {
    let mut pool =
        tr.time("store.pool_open", || StoragePool::open_dir(dir)).map_err(|e| e.to_string())?;
    let mut journal =
        tr.time("store.journal_open", || Journal::open_file(&dir.join("journal.log")))?;
    tr.time("store.recover", || recover(&mut pool, &mut journal)).map_err(|e| e.to_string())?;
    Ok(Shadow { pool, journal })
}

fn trace_train(s: &Settings) -> Traced {
    let size = Workload::TrainA3c.size(s.quick);
    let model = model();
    let mut t = Traced::default();
    let trace = t.tracer.time("trace.generate", || generate(size, s.seed));
    let cfg = train_config(s.seed, size.updates);
    let spec = cfg.net_spec();
    let workers = cfg.a3c.workers as f64;
    let rollout = cfg.a3c.rollout_len;
    let batch_rows = cfg.a3c.batch_size;
    let mut updates = 0u64;
    let mut finite = true;
    // Probed updates per pass.
    const PROBES: usize = 16;
    t.passes = timed_reps(s.seconds, |pass| {
        t.tracer.req = pass as u64;
        let (ref_ms, agent) = time_ms(|| MiniCost::train(&trace, &model, &cfg));
        t.ref_ms += ref_ms;
        updates = agent.result.updates;
        let root = t.tracer.open("rl.train");
        let again = MiniCost::train(&trace, &model, &cfg);
        t.tracer.close(root);
        finite &= again.result.actor_params.iter().all(|p| p.is_finite());

        let tr = &mut t.tracer;
        let shared = Arc::new(trace.clone());
        let model_arc = Arc::new(model.clone());
        let oracle = tr.time("optimal.suffix_values", || {
            trace.files.iter().map(|f| Some(suffix_values(f, &model))).collect::<Vec<_>>()
        });
        let env_cfg = TieringEnvConfig {
            features: cfg.features,
            reward: cfg.reward,
            episode_len: cfg.episode_len,
            seed: cfg.a3c.seed,
            with_oracle: true,
        };
        let mut env = TieringEnv::with_oracle_tables(shared, model_arc, env_cfg, Arc::new(oracle));
        let mut states = Vec::with_capacity(batch_rows * spec.state_dim());
        let mut state = env.reset();
        tr.time("mdp.env_step", || {
            for k in 0..PROBES * rollout {
                let step = env.step(k % TIER_COUNT);
                if states.len() < batch_rows * spec.state_dim() {
                    states.extend_from_slice(&state);
                }
                state = if step.done { env.reset() } else { step.next_state };
            }
        });
        let batch = Matrix::from_vec(batch_rows, spec.state_dim(), states);
        let row = Matrix::row_vector(batch.row(0));
        let mut ac = ActorCritic::new(spec, cfg.a3c.gamma, cfg.a3c.entropy_coeff, s.seed);
        let mut adam_actor = nn::Adam::new(cfg.a3c.learning_rate);
        let mut adam_critic = nn::Adam::new(cfg.a3c.learning_rate);
        let (mut pa, mut pc) = (ac.actor.param_vector(), ac.critic.param_vector());
        for _ in 0..PROBES {
            // Per update: two single-row actor passes per rollout step
            // (acting and scoring), then one minibatch pass of both nets.
            tr.time("nn.train_forward", || {
                for _ in 0..2 * rollout {
                    std::hint::black_box(ac.actor.forward(&row));
                }
                std::hint::black_box(ac.actor.forward(&batch));
                std::hint::black_box(ac.critic.forward(&batch));
            });
            let actor_grad =
                Matrix::from_vec(batch_rows, spec.actions, vec![1e-3; batch_rows * spec.actions]);
            let critic_grad = Matrix::from_vec(batch_rows, 1, vec![1e-3; batch_rows]);
            tr.time("nn.train_backward", || {
                std::hint::black_box(ac.actor.backward(&actor_grad));
                std::hint::black_box(ac.critic.backward(&critic_grad));
            });
            let (ga, gc) = (ac.actor.grad_vector(), ac.critic.grad_vector());
            tr.time("nn.adam_step", || {
                adam_actor.step(&mut pa, &ga);
                adam_critic.step(&mut pc, &gc);
            });
        }
    })
    .len() as u64;
    // Each pass probed PROBES updates and the library call applied
    // `updates`, shared by `workers` threads; `MiniCost::train` builds the
    // oracle tables on as many threads.
    let spans = t.tracer.spans();
    let ms = |name| total_ns(spans, name) as f64 / 1e6 / workers;
    let scale = updates as f64 / PROBES as f64;
    let scaled = [
        ("optimal.suffix_values", ms("optimal.suffix_values")),
        ("mdp.env_step", ms("mdp.env_step") * scale),
        ("nn.train_forward", ms("nn.train_forward") * scale),
        ("nn.train_backward", ms("nn.train_backward") * scale),
        ("nn.adam_step", ms("nn.adam_step") * scale),
    ];
    for (layer, ms) in scaled {
        t.add_ms(layer, ms);
    }
    let inside: f64 = t.layer_ms.values().sum();
    t.add_ms("rl.update_unattributed", t.ref_ms - inside);
    t.traced_ms = total_ns(t.tracer.spans(), "rl.train") as f64 / 1e6;
    t.work = (updates * rollout as u64) as f64;
    t.check(
        "traced train applied total_updates with finite params",
        finite && updates >= size.updates,
        format!("{updates} updates"),
    );
    t
}
