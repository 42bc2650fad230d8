//! Mutation harness for the v3 snapshot decoder.
//!
//! Seeds are real v3 checkpoints written by `serve` on a small trace, one
//! with exact statistics and one with bounded statistics (`max_tracked`).
//! Each mutant is a truncation, a byte flip or a field splice (a span
//! copied over another, two spans swapped, or a span duplicated in place)
//! drawn from the vendored proptest RNG, so every run replays the same
//! mutants.
//!
//! * Under the original header every mutant must fail to load: the digest
//!   covers every payload byte, and the header must be canonical.
//! * Re-framed with a recomputed digest, so the mutant reaches the payload
//!   decoder, the decoder must never panic and never allocate more than a
//!   small multiple of the payload. It may return `Ok` only for a payload
//!   that re-encodes to the same bytes, and `serve` resumed from that
//!   snapshot must return `Ok` or a typed `ServeError`.

use minicost::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::OnceLock;
use stream::{fnv1a64, Snapshot};

/// The system allocator, tallying the requests of any thread that has
/// armed it: the largest single request and the total requested.
struct Tally;

thread_local! {
    static ARMED: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if let Some((largest, total)) = armed.get() {
            armed.set(Some((largest.max(size), total.saturating_add(size))));
        }
    });
}

#[allow(unsafe_code, reason = "a global allocator is an unsafe trait; this one forwards to System")]
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tally = Tally;

/// Runs `f` with this thread's allocations tallied; returns its result
/// with the largest single request and the total bytes requested.
fn tallied<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    ARMED.with(|armed| armed.set(Some((0, 0))));
    let out = f();
    let (largest, total) = ARMED.with(|armed| armed.take()).unwrap_or_default();
    (out, largest, total)
}

/// A real checkpoint and the configuration that wrote it.
struct Seed {
    name: &'static str,
    cfg: ServeConfig,
    bytes: Vec<u8>,
}

impl Seed {
    /// The payload after the header line.
    fn payload(&self) -> &[u8] {
        let newline = self.bytes.iter().position(|&b| b == b'\n').expect("header line");
        &self.bytes[newline + 1..]
    }
}

fn setup() -> (Trace, CostModel) {
    (
        Trace::generate(&TraceConfig::small(12, 10, 7)),
        CostModel::new(PricingPolicy::azure_blob_2020()),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minicost-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// The two seed checkpoints: greedy served 6 of 10 days, checkpointing
/// every day, in exact and in bounded mode.
fn seeds() -> &'static [Seed] {
    static SEEDS: OnceLock<Vec<Seed>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let (trace, model) = setup();
        [("exact", None), ("bounded", Some(3))]
            .into_iter()
            .map(|(name, max_tracked)| {
                let path = scratch(&format!("seed-{name}"));
                let _ = std::fs::remove_file(&path);
                let cfg = ServeConfig {
                    seed: 7,
                    max_tracked,
                    checkpoint_every: 1,
                    checkpoint_keep: 0,
                    checkpoint_path: Some(path.clone()),
                    ..ServeConfig::default()
                };
                let cut = ServeConfig { max_days: Some(6), ..cfg.clone() };
                serve(&trace, &model, &GreedyPolicy, &cut).expect("seed run");
                let bytes = std::fs::read(&path).expect("seed checkpoint");
                assert!(bytes.starts_with(b"minicost-snapshot v3 "), "{name} seed is v3");
                Seed { name, cfg, bytes }
            })
            .collect()
    })
}

/// Frames `payload` as v3 under a freshly computed digest.
fn reframe(payload: &[u8]) -> Vec<u8> {
    let mut out = format!("minicost-snapshot v3 fnv1a64:{:016x}\n", fnv1a64(payload)).into_bytes();
    out.extend_from_slice(payload);
    out
}

/// One mutant of `bytes`: a truncation, a byte flip, or a splice. Half of
/// the positions fall in the first kilobyte, where the structural fields
/// live; the rest are uniform (mostly sketch counters in bounded mode).
fn mutate(bytes: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let len = bytes.len();
    let pos = |rng: &mut TestRng, room: usize| -> usize {
        let near_start = rng.next_u64() & 1 == 0;
        let bound = if near_start { room.min(1024) } else { room };
        rng.below(bound as u64) as usize
    };
    let mut out = bytes.to_vec();
    let span = 1 + rng.below(16.min(len as u64 / 4)) as usize;
    match rng.below(5) {
        0 => out.truncate(pos(rng, len)),
        1 => {
            let at = pos(rng, len);
            out[at] ^= (1..=255u8).generate(rng);
        }
        2 => {
            let (from, to) = (pos(rng, len - span), pos(rng, len - span));
            out.copy_within(from..from + span, to);
        }
        3 => {
            let a = pos(rng, len - 2 * span);
            let b = a + span + pos(rng, len - a - 2 * span);
            let (left, right) = out.split_at_mut(b);
            left[a..a + span].swap_with_slice(&mut right[..span]);
        }
        _ => {
            let (from, at) = (pos(rng, len - span), pos(rng, len));
            let copy = bytes[from..from + span].to_vec();
            out.splice(at..at, copy);
        }
    }
    out
}

#[test]
fn snapshot_seeds_load_and_re_encode_exactly() {
    for seed in seeds() {
        let snap = Snapshot::from_checked_bytes(&seed.bytes).expect("seed loads");
        assert_eq!(snap.to_checked_bytes().expect("encode"), seed.bytes, "{}", seed.name);
    }
}

#[test]
fn snapshot_mutants_under_the_original_header_never_load() {
    let mut rng = TestRng::from_name("snapshot_mutants_under_the_original_header_never_load");
    let mut tried = 0;
    for case in 0..600 {
        let seed = &seeds()[case % 2];
        let mutant = mutate(&seed.bytes, &mut rng);
        if mutant == seed.bytes {
            continue; // a splice of equal spans changes nothing
        }
        tried += 1;
        assert!(
            Snapshot::from_checked_bytes(&mutant).is_err(),
            "case {case}: a {} mutant of {} bytes loaded under the original header",
            seed.name,
            mutant.len()
        );
    }
    assert!(tried > 400, "only {tried} mutants differed from their seed");
}

#[test]
fn reframed_snapshot_mutants_decode_totally_and_resume_cleanly() {
    let (trace, model) = setup();
    let mut rng = TestRng::from_name("reframed_snapshot_mutants_decode_totally_and_resume_cleanly");
    let (mut rejected, mut resumed) = (0, 0);
    for case in 0..400 {
        let seed = &seeds()[case % 2];
        let payload = mutate(seed.payload(), &mut rng);
        let framed = reframe(&payload);
        let (decoded, largest, total) = tallied(|| Snapshot::from_checked_bytes(&framed));
        let budget = 16 * payload.len() + 4096;
        assert!(
            largest <= budget && total <= budget,
            "case {case} ({}): decoding {} bytes allocated {largest} at once, {total} in all",
            seed.name,
            payload.len()
        );
        let Ok(snap) = decoded else {
            rejected += 1;
            continue;
        };
        assert_eq!(
            snap.to_checked_bytes().expect("encode"),
            framed,
            "case {case} ({}): a mutant decoded to a state with another encoding",
            seed.name
        );
        // Resuming must finish or fail with a typed error, never panic;
        // a finished run covers every day and every file exactly once.
        let path = scratch(&format!("resume-{}", seed.name));
        std::fs::write(&path, &framed).expect("stage mutant");
        let cfg = ServeConfig { checkpoint_path: Some(path), ..seed.cfg.clone() };
        match serve(&trace, &model, &GreedyPolicy, &cfg) {
            Ok(report) => {
                let r = &report.result;
                assert_eq!(
                    (r.daily.len(), r.occupancy.len(), r.per_file.len()),
                    (trace.days, trace.days, trace.len()),
                    "case {case} ({}): resumed ledgers do not cover the horizon",
                    seed.name
                );
            }
            Err(e) => assert!(!e.to_string().is_empty()),
        }
        resumed += 1;
    }
    assert!(rejected > 0 && resumed > 0, "{rejected} rejected, {resumed} resumed");
}
