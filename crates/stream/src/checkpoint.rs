//! Versioned, checksummed, atomically-written snapshots of serving state.
//!
//! A [`Snapshot`] captures everything the online decision loop needs to
//! resume bit-identically after a crash: the fleet's current tiers, the
//! accrued cost ledgers, the online statistics (exact or bounded), and the
//! stream cursor. There is **no RNG cursor** to save — event expansion is
//! seeded statelessly per `(file, day)` (see [`crate::event`]), so
//! restarting the stream at `next_day` reproduces the exact event suffix.
//!
//! # On-disk format (v3)
//!
//! A snapshot file is a one-line header followed by the payload:
//!
//! ```text
//! minicost-snapshot v3 fnv1a64:<16 hex digits>\n
//! <binary payload>
//! ```
//!
//! The header checksum is FNV-1a over the **exact payload bytes**, so any
//! single-byte corruption — a bit flip, a torn write that truncated the
//! payload, an editor that "fixed" a field — is detected at load and
//! surfaced as [`SnapshotError::Corrupt`] rather than silently resuming
//! from poisoned state. FNV-1a's per-byte step `h ↦ (h ⊕ b) · p` is
//! injective in `h` for fixed `b` (odd multiplier mod 2⁶⁴), so a
//! single-byte substitution *always* changes the digest — detection is
//! deterministic, not probabilistic. There is no wall-clock field: two
//! identical runs write identical files.
//!
//! The payload is a fixed sequence of fields with no tags. `varint` is
//! unsigned LEB128, `zigzag` is a zigzag-mapped varint, `u64le` is eight
//! little-endian bytes, `tier` is one byte below `TIER_COUNT`, `flag` is
//! one byte, 0 or 1, and `[T]` is a varint length followed by that many
//! `T`s:
//!
//! | field | encoding |
//! |---|---|
//! | `policy_name` | varint byte length, UTF-8 bytes |
//! | `seed` | u64le |
//! | `next_day`, `epoch`, `decide_every`, `window` | varint each |
//! | `initial_tier` | tier |
//! | `tiers` | `[tier]` |
//! | `ledger` | `[(storage, change, read, write)]`, each zigzag micro-dollars |
//! | `per_file` | `[zigzag]` |
//! | `occupancy` | `[(varint; TIER_COUNT)]` |
//! | `tier_changes`, `billed_change_bytes` | varint each |
//! | `exact` | flag, then if 1: window, closed days, `[file]` |
//! | `bounded` | flag, then if 1: the bounded record below |
//!
//! A `file` ([`crate::FileStats`]) is closed days, read sum, write sum,
//! pending reads and pending writes (varints), then its read and write
//! rings as `[varint]` columns. A `sketch` ([`crate::CountMinSketch`]) is
//! width, depth (varints), seed (u64le) and its counters, row-major, as
//! one `[varint]` column. The bounded record ([`crate::BoundedStats`]) is
//! its configuration (max tracked, sketch width, sketch depth, window as
//! varints, seed as u64le), the heavy-hitter summary (capacity, then
//! `[(id, count, overestimate)]` as varints), the tracked files
//! `[(varint id, file)]`, the day ring `[(sketch, sketch)]`, the open
//! day's read and write sketches, the lifetime read and write sketches,
//! and the closed-day count (varint).
//!
//! The ledger stores only its days; its running total is rebuilt on read
//! by accruing them in order ([`CostLedger::from_daily`]).
//!
//! The decoder is total. Every length is checked against the bytes that
//! remain before anything is allocated; overlong varints, out-of-range
//! tier or flag bytes, invalid UTF-8 and trailing bytes are
//! [`SnapshotError::Parse`], so each snapshot has exactly one encoding.
//! A payload that decodes to a state serving could not resume from —
//! mismatched lengths, unsorted or over-capacity ids, a zero-sized or
//! mis-sized sketch, a ring longer than its window, day counts that
//! disagree with `next_day` — is [`SnapshotError::Invalid`].
//!
//! ## One pass each way
//!
//! Each side touches the payload bytes once. Serving keeps its live state
//! in a [`Snapshot`], so a checkpoint encodes that state in place and
//! clones nothing, and a restore decodes straight into the state serving
//! resumes on. The encoder reserves the 46-byte header, appends the
//! payload through a sink that digests each byte as it lands, and then
//! writes the header in place, so there is one buffer and no copy. The
//! loader decodes a v3 payload first, with a reader that digests each byte
//! it consumes, then finishes the digest over any bytes the decode did not
//! reach and compares it with the header. A mismatch is
//! [`SnapshotError::Corrupt`] whatever the decode returned;
//! [`SnapshotError::Parse`] and [`SnapshotError::Invalid`] surface only
//! when the digest matches, and the state checks run only then. Decoding
//! bytes before they are verified is safe because the decoder is total,
//! and FNV-1a is a check against accidents, not a MAC: a payload under a
//! recomputed digest reaches the decoder either way. Legacy JSON is
//! digested, then parsed.
//!
//! ## Legacy formats (read-only)
//!
//! Every write is v3. Two older formats still load, so checkpoints from
//! earlier builds restore; both pass the same [`SnapshotError::Invalid`]
//! checks after parsing:
//!
//! * **v2**: the same header with `v2`, then the [`Snapshot`] as a JSON
//!   document whose `version` field is 2.
//! * **v1**: the JSON document alone, no header and no checksum, with
//!   `version` 1.
//!
//! Writes are crash-safe in the classic way: serialize to a sibling
//! `*.tmp` file, fsync (failures surface as the distinct
//! [`SnapshotError::Sync`]), then `rename` over the target — a reader
//! never observes a half-written snapshot through the real filesystem.
//! All I/O goes through the [`StorageBackend`] trait so the chaos harness
//! ([`crate::fault`]) can inject torn writes and transient errors
//! underneath an unchanged save/load contract (DESIGN.md §11).

use crate::bounded::BoundedStats;
use crate::stats::ExactStats;
use crate::wire::{
    fnv_fold, invalid_state, put_len, put_money, put_tier, put_u64_le, put_varint, DigestSink,
    Reader, Sink,
};
use pricing::{CostBreakdown, CostLedger, Money, Tier, TIER_COUNT};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The snapshot format every write uses. Bump on any incompatible change
/// to [`Snapshot`] or the file framing; loads of unknown versions are
/// rejected rather than misinterpreted. Versions 1 and 2 (JSON) remain
/// loadable.
pub const SNAPSHOT_VERSION: u32 = 3;

/// The last JSON format, framed with the same header as v3.
const JSON_VERSION: u32 = 2;

/// First token of the file header.
const HEADER_MAGIC: &str = "minicost-snapshot";

/// The v3 header line up to its digest: [`HEADER_MAGIC`], the version and
/// the digest's name.
const V3_PREFIX: &str = "minicost-snapshot v3 fnv1a64:";

/// Bytes in a v3 header line: the prefix, 16 hex digits and the newline.
const V3_HEADER_LEN: usize = V3_PREFIX.len() + 17;

/// FNV-1a offset basis (64-bit).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime (64-bit).
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice — the snapshot payload digest.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

/// The complete serialized serving state at a decision-epoch boundary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// The format this snapshot was read from: [`SNAPSHOT_VERSION`], or
    /// the legacy 1 or 2. Writes ignore it and always produce v3.
    pub version: u32,
    /// Name of the policy that produced the decisions (sanity-checked on
    /// restore so a snapshot is never resumed under a different policy).
    pub policy_name: String,
    /// Stream seed the event expansion is keyed on.
    pub seed: u64,
    /// First day not yet ingested; the restored stream starts here.
    pub next_day: usize,
    /// Decision epochs completed so far.
    pub epoch: u64,
    /// Decision cadence in days.
    pub decide_every: usize,
    /// Feature window in days.
    pub window: usize,
    /// Tier every file started in.
    pub initial_tier: Tier,
    /// Current tier per file, indexed by file id.
    pub tiers: Vec<Tier>,
    /// Fleet-wide accrued cost ledger.
    pub ledger: CostLedger,
    /// Accrued cost per file, indexed by file id.
    pub per_file: Vec<Money>,
    /// Per-day tier occupancy counts.
    pub occupancy: Vec<[usize; TIER_COUNT]>,
    /// Total tier transitions applied so far.
    pub tier_changes: u64,
    /// Logical bytes billed as tier-change traffic so far. Cross-checked
    /// at end of run against the store journal's committed migration bytes
    /// when a tiered object store is attached; absent in older snapshots
    /// (defaults to 0).
    #[serde(default)]
    pub billed_change_bytes: u64,
    /// Exact online statistics (present in exact mode).
    #[serde(default)]
    pub exact: Option<ExactStats>,
    /// Bounded online statistics (present in bounded mode).
    #[serde(default)]
    pub bounded: Option<BoundedStats>,
}

/// Why a snapshot failed to save or load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem error (message carries the OS detail).
    Io(String),
    /// The temp file could not be fsynced/flushed before the rename — the
    /// bytes may not be durable, so the write must not be trusted.
    Sync(String),
    /// The file was readable but not a valid snapshot document.
    Parse(String),
    /// The file framed as a checksummed snapshot but the payload digest
    /// (or the header itself) does not check out — corruption, a torn
    /// write, or tampering.
    Corrupt(String),
    /// The payload decoded, but to a state serving cannot resume from:
    /// lengths that disagree, unsorted or over-capacity ids, a malformed
    /// sketch, or day counts that disagree with the day cursor.
    Invalid(String),
    /// The file is a snapshot from a different schema version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
}

impl SnapshotError {
    /// Whether retrying the same operation can plausibly succeed.
    ///
    /// Transient I/O and fsync failures are retryable; parse errors,
    /// checksum corruption, and version mismatches are properties of the
    /// bytes themselves and never clear on retry.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            SnapshotError::Io(_) | SnapshotError::Sync(_) => true,
            SnapshotError::Parse(_)
            | SnapshotError::Corrupt(_)
            | SnapshotError::Invalid(_)
            | SnapshotError::VersionMismatch { .. } => false,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot io error: {msg}"),
            SnapshotError::Sync(msg) => write!(f, "snapshot sync error: {msg}"),
            SnapshotError::Parse(msg) => write!(f, "snapshot parse error: {msg}"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            SnapshotError::Invalid(msg) => write!(f, "snapshot invalid: {msg}"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} incompatible with expected {expected}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Minimal storage abstraction the checkpoint codec writes through.
///
/// The production implementation is [`FsBackend`]; the chaos harness wraps
/// any backend in [`crate::fault::FaultyBackend`] to inject I/O errors,
/// torn writes, and bit flips underneath an unchanged caller.
pub trait StorageBackend {
    /// Reads the entire file at `path`.
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, SnapshotError>;

    /// Writes `bytes` to `path` atomically (tmp + fsync + rename): after a
    /// successful return the file holds exactly `bytes`; after an error the
    /// previous contents (if any) are still intact.
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError>;

    /// Renames `from` over `to` (used by checkpoint rotation).
    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), SnapshotError>;

    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// The real-filesystem [`StorageBackend`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FsBackend;

impl StorageBackend for FsBackend {
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, SnapshotError> {
        std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| SnapshotError::Io(format!("bad snapshot path {}", path.display())))?;
        let tmp = path.with_file_name(format!("{file_name}.tmp"));
        {
            let mut f =
                std::fs::File::create(&tmp).map_err(|e| SnapshotError::Io(e.to_string()))?;
            f.write_all(bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
            // Flush to stable storage *before* the rename: a rename of an
            // unsynced file can survive a crash as a torn write, which is
            // exactly the corruption the checksum exists to catch. The
            // failure is surfaced distinctly so callers can tell "disk said
            // no" (retryable) from "document is garbage" (not).
            f.sync_all().map_err(|e| SnapshotError::Sync(e.to_string()))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), SnapshotError> {
        std::fs::rename(from, to).map_err(|e| SnapshotError::Io(e.to_string()))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The path of rotation slot `slot` for checkpoint `path`: slot 0 is
/// `path` itself, slot `n` is `path` with `.n` appended
/// (`checkpoint.json.1`, `checkpoint.json.2`, ...).
#[must_use]
pub fn rotated_path(path: &Path, slot: usize) -> PathBuf {
    if slot == 0 {
        return path.to_path_buf();
    }
    let mut os = path.as_os_str().to_owned();
    os.push(format!(".{slot}"));
    PathBuf::from(os)
}

/// Restore candidates in newest-first order: `path`, `path.1`, ...,
/// `path.keep`.
#[must_use]
pub fn rotation_candidates(path: &Path, keep: usize) -> Vec<PathBuf> {
    (0..=keep).map(|slot| rotated_path(path, slot)).collect()
}

/// Shifts existing checkpoints one rotation slot down (`path.1` → `path.2`,
/// `path` → `path.1`, the oldest slot falling off) so a subsequent
/// [`Snapshot::save_with`] of `path` keeps `keep` predecessors on disk.
/// With `keep == 0` this is a no-op and saves simply overwrite.
pub fn rotate(
    backend: &mut dyn StorageBackend,
    path: &Path,
    keep: usize,
) -> Result<(), SnapshotError> {
    for slot in (0..keep).rev() {
        let from = rotated_path(path, slot);
        if backend.exists(&from) {
            backend.rename(&from, &rotated_path(path, slot + 1))?;
        }
    }
    Ok(())
}

/// The error for a payload whose digest is not the one its header states.
fn check_digest(stated: u64, actual: u64) -> Result<(), SnapshotError> {
    if stated == actual {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt(format!("payload digest {actual:016x} != header {stated:016x}")))
    }
}

impl Snapshot {
    /// Serializes this snapshot into the v3 framed byte format: the
    /// checksum header line, then the binary payload. Encoding reads
    /// `self` in place, so serving checkpoints its live state without
    /// cloning it; the version field is ignored.
    ///
    /// One buffer, one pass: the header's 46 bytes are reserved up front,
    /// the payload is digested as it is appended behind them, and the
    /// header is written in place once the digest is known.
    pub fn to_checked_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = Vec::with_capacity(1 << 12);
        out.resize(V3_HEADER_LEN, 0);
        let mut sink = DigestSink::new(&mut out);
        self.encode_payload(&mut sink);
        let digest = sink.digest();
        let hex = (0..16).rev().map(|i| match (digest >> (4 * i)) as u8 & 0xf {
            n @ 0..=9 => b'0' + n,
            n => b'a' + (n - 10),
        });
        let header = V3_PREFIX.bytes().chain(hex).chain([b'\n']);
        for (slot, b) in out.iter_mut().zip(header) {
            *slot = b;
        }
        Ok(out)
    }

    /// Appends the v3 payload (field order in the module docs).
    fn encode_payload(&self, out: &mut impl Sink) {
        put_len(out, self.policy_name.len());
        out.put_bytes(self.policy_name.as_bytes());
        put_u64_le(out, self.seed);
        put_len(out, self.next_day);
        put_varint(out, self.epoch);
        put_len(out, self.decide_every);
        put_len(out, self.window);
        put_tier(out, self.initial_tier);
        put_len(out, self.tiers.len());
        for &tier in &self.tiers {
            put_tier(out, tier);
        }
        put_len(out, self.ledger.days());
        for day in self.ledger.daily() {
            for money in [day.storage, day.change, day.read, day.write] {
                put_money(out, money);
            }
        }
        put_len(out, self.per_file.len());
        for &money in &self.per_file {
            put_money(out, money);
        }
        put_len(out, self.occupancy.len());
        for day in &self.occupancy {
            for &count in day {
                put_len(out, count);
            }
        }
        put_varint(out, self.tier_changes);
        put_varint(out, self.billed_change_bytes);
        out.put_byte(u8::from(self.exact.is_some()));
        if let Some(exact) = &self.exact {
            exact.write_wire(out);
        }
        out.put_byte(u8::from(self.bounded.is_some()));
        if let Some(bounded) = &self.bounded {
            bounded.write_wire(out);
        }
    }

    /// Parses and validates snapshot bytes written by
    /// [`Snapshot::to_checked_bytes`] — or a legacy v2 or v1 document.
    ///
    /// Every validation failure is an error, never a best-effort value:
    /// header malformed / digest mismatch ⇒ [`SnapshotError::Corrupt`],
    /// undecodable payload ⇒ [`SnapshotError::Parse`], a state serving
    /// cannot resume from ⇒ [`SnapshotError::Invalid`], unknown format ⇒
    /// [`SnapshotError::VersionMismatch`].
    ///
    /// A v3 payload is decoded and digested in one pass: the decoder's
    /// reader digests what it consumes, and the digest is finished over
    /// any bytes the decode did not reach. A digest mismatch is `Corrupt`
    /// whatever the decode returned; `Parse` and `Invalid` surface only
    /// under a matching digest. v1 and v2 JSON are digested, then parsed.
    pub fn from_checked_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let snap = if bytes.starts_with(HEADER_MAGIC.as_bytes()) {
            let mut lines = bytes.splitn(2, |&b| b == b'\n');
            let (header, payload) = match (lines.next(), lines.next()) {
                (Some(header), Some(payload)) => (header, payload),
                _ => return Err(SnapshotError::Corrupt("header line not terminated".to_owned())),
            };
            let header = std::str::from_utf8(header)
                .map_err(|e| SnapshotError::Corrupt(format!("header not utf-8: {e}")))?;
            let mut fields = header.split(' ');
            let (magic, version, digest) = (fields.next(), fields.next(), fields.next());
            if magic != Some(HEADER_MAGIC) || fields.next().is_some() {
                return Err(SnapshotError::Corrupt(format!("malformed header {header:?}")));
            }
            let version = match version {
                Some(v) => v.strip_prefix('v').and_then(|n| n.parse().ok()).unwrap_or(0),
                None => return Err(SnapshotError::Corrupt("header missing version".to_owned())),
            };
            if version != SNAPSHOT_VERSION && version != JSON_VERSION {
                return Err(SnapshotError::VersionMismatch {
                    found: version,
                    expected: SNAPSHOT_VERSION,
                });
            }
            let stated = digest
                .and_then(|d| d.strip_prefix("fnv1a64:"))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| SnapshotError::Corrupt("header digest unreadable".to_owned()))?;
            // One spelling per header: `from_str_radix` would also take
            // upper-case digits or a leading `+`.
            if header != format!("{HEADER_MAGIC} v{version} fnv1a64:{stated:016x}") {
                return Err(SnapshotError::Corrupt(format!("non-canonical header {header:?}")));
            }
            if version == SNAPSHOT_VERSION {
                let mut reader = Reader::new(payload);
                let decoded = Snapshot::decode_v3(&mut reader);
                check_digest(stated, reader.digest())?;
                decoded?
            } else {
                check_digest(stated, fnv1a64(payload))?;
                Snapshot::from_legacy_json(payload, JSON_VERSION)?
            }
        } else {
            // Legacy v1: bare JSON, no checksum to validate.
            Snapshot::from_legacy_json(bytes, 1)?
        };
        snap.check_restored()?;
        Ok(snap)
    }

    /// Parses a legacy JSON document that must carry `version`, and checks
    /// that its stored running total is the accrual of its days.
    fn from_legacy_json(json: &[u8], version: u32) -> Result<Snapshot, SnapshotError> {
        let json = std::str::from_utf8(json)
            .map_err(|e| SnapshotError::Parse(format!("payload not utf-8: {e}")))?;
        let snap: Snapshot =
            serde_json::from_str(json).map_err(|e| SnapshotError::Parse(e.to_string()))?;
        if snap.version != version {
            return Err(SnapshotError::VersionMismatch {
                found: snap.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        if CostLedger::from_daily(snap.ledger.daily().to_vec()) != snap.ledger {
            return Err(invalid_state("ledger running total disagrees with its days"));
        }
        Ok(snap)
    }

    /// Reads what [`Snapshot::to_checked_bytes`] wrote behind the
    /// header, to the last byte.
    fn decode_v3(r: &mut Reader<'_>) -> Result<Snapshot, SnapshotError> {
        let name_len = r.seq_len("policy name", 1)?;
        let policy_name = std::str::from_utf8(r.take_bytes(name_len, "policy name")?)
            .map_err(|e| SnapshotError::Parse(format!("v3 payload: policy name: {e}")))?
            .to_owned();
        let seed = r.word_le("seed")?;
        let next_day = r.varint_usize("next day")?;
        let epoch = r.varint("epoch")?;
        let decide_every = r.varint_usize("decision cadence")?;
        let window = r.varint_usize("window")?;
        let initial_tier = r.tier_byte("initial tier")?;
        let n = r.seq_len("tiers", 1)?;
        let mut tiers = Vec::with_capacity(n);
        for _ in 0..n {
            tiers.push(r.tier_byte("tiers")?);
        }
        let n = r.seq_len("ledger days", 4)?;
        let mut daily = Vec::with_capacity(n);
        for _ in 0..n {
            daily.push(CostBreakdown {
                storage: r.zigzag_money("ledger storage")?,
                change: r.zigzag_money("ledger change")?,
                read: r.zigzag_money("ledger read")?,
                write: r.zigzag_money("ledger write")?,
            });
        }
        let n = r.seq_len("per-file ledger", 1)?;
        let mut per_file = Vec::with_capacity(n);
        for _ in 0..n {
            per_file.push(r.zigzag_money("per-file ledger")?);
        }
        let n = r.seq_len("occupancy", TIER_COUNT)?;
        let mut occupancy = Vec::with_capacity(n);
        for _ in 0..n {
            let mut day = [0; TIER_COUNT];
            for count in &mut day {
                *count = r.varint_usize("occupancy")?;
            }
            occupancy.push(day);
        }
        let tier_changes = r.varint("tier changes")?;
        let billed_change_bytes = r.varint("billed change bytes")?;
        let exact =
            if r.presence("exact statistics")? { Some(ExactStats::read_wire(r)?) } else { None };
        let bounded = if r.presence("bounded statistics")? {
            Some(BoundedStats::read_wire(r)?)
        } else {
            None
        };
        r.expect_end()?;
        Ok(Snapshot {
            version: SNAPSHOT_VERSION,
            policy_name,
            seed,
            next_day,
            epoch,
            decide_every,
            window,
            initial_tier,
            tiers,
            ledger: CostLedger::from_daily(daily),
            per_file,
            occupancy,
            tier_changes,
            billed_change_bytes,
            exact,
            bounded,
        })
    }

    /// Rejects a state that would later panic or mis-bill: per-file
    /// columns of different lengths, per-day records that disagree with
    /// `next_day`, more epochs than days or more tier changes than
    /// file-days, and statistics that fail their own checks.
    fn check_restored(&self) -> Result<(), SnapshotError> {
        let days = self.next_day as u64;
        if self.per_file.len() != self.tiers.len() {
            return Err(invalid_state("tiers and per-file ledgers differ in length"));
        }
        if self.occupancy.len() != self.next_day || self.ledger.days() != self.next_day {
            return Err(invalid_state("occupancy days, ledger days and the day cursor disagree"));
        }
        if self.epoch > days {
            return Err(invalid_state("more decision epochs than days served"));
        }
        if self.tier_changes > days.saturating_mul(self.tiers.len() as u64) {
            return Err(invalid_state("more tier changes than file-days served"));
        }
        if let Some(exact) = &self.exact {
            exact.check_restored(self.tiers.len(), days)?;
        }
        if let Some(bounded) = &self.bounded {
            bounded.check_restored(days)?;
        }
        Ok(())
    }

    /// Serializes and writes this snapshot through `backend` atomically.
    pub fn save_with(
        &self,
        backend: &mut dyn StorageBackend,
        path: &Path,
    ) -> Result<(), SnapshotError> {
        backend.write_atomic(path, &self.to_checked_bytes()?)
    }

    /// Loads and validates a snapshot through `backend`.
    pub fn load_with(
        backend: &mut dyn StorageBackend,
        path: &Path,
    ) -> Result<Snapshot, SnapshotError> {
        Snapshot::from_checked_bytes(&backend.read(path)?)
    }

    /// [`Snapshot::save_with`] on the real filesystem.
    pub fn save_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        self.save_with(&mut FsBackend, path)
    }

    /// [`Snapshot::load_with`] on the real filesystem.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        Snapshot::load_with(&mut FsBackend, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::BoundedConfig;
    use crate::event::Event;
    use crate::stats::ExactStats;
    use proptest::prelude::*;
    use tracegen::FileId;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("minicost-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn ev(file: u32, reads: u64, writes: u64) -> Event {
        Event { hour: 0, file: FileId(file), reads, writes, bytes: 1 }
    }

    /// A consistent two-file serving state `days` days in, deciding every
    /// third day, with exact or bounded statistics.
    fn sample_at(days: usize, bounded: bool) -> Snapshot {
        let mut exact = ExactStats::new(7, 2);
        let mut sketched = BoundedStats::new(BoundedConfig {
            max_tracked: 1,
            cms_width: 8,
            cms_depth: 2,
            window: 3,
            seed: 5,
        });
        let mut daily = Vec::new();
        for day in 0..days as u64 {
            for e in [ev(0, day, 1), ev(1, 2 * day + 1, 0)] {
                exact.ingest(&e);
                sketched.ingest(&e);
            }
            exact.close_day();
            sketched.close_day();
            daily.push(CostBreakdown {
                storage: Money::from_micros(1_000 + day as i64),
                change: Money::from_micros(-(day as i64)),
                read: Money::from_micros(300),
                write: Money::ZERO,
            });
        }
        // An open day in progress: pending counts survive the round trip.
        exact.ingest(&ev(1, 4, 2));
        sketched.ingest(&ev(1, 4, 2));
        Snapshot {
            version: SNAPSHOT_VERSION,
            policy_name: "greedy".to_string(),
            seed: 42,
            next_day: days,
            epoch: days.div_ceil(3) as u64,
            decide_every: 3,
            window: 7,
            initial_tier: Tier::Hot,
            tiers: vec![Tier::Hot, Tier::Archive],
            ledger: CostLedger::from_daily(daily),
            per_file: vec![Money::from_micros(10), Money::from_micros(0)],
            occupancy: vec![[2, 0, 0]; days],
            tier_changes: u64::from(days > 0),
            billed_change_bytes: 0,
            exact: (!bounded).then_some(exact),
            bounded: bounded.then_some(sketched),
        }
    }

    fn sample() -> Snapshot {
        sample_at(6, false)
    }

    /// The v2 format this module wrote before v3: the header line and the
    /// snapshot as JSON with `version` 2.
    fn to_v2_bytes(snap: &Snapshot) -> Vec<u8> {
        let json =
            serde_json::to_string(&Snapshot { version: JSON_VERSION, ..snap.clone() }).unwrap();
        let mut out =
            format!("{HEADER_MAGIC} v2 fnv1a64:{:016x}\n", fnv1a64(json.as_bytes())).into_bytes();
        out.extend_from_slice(json.as_bytes());
        out
    }

    /// Frames `payload` as v3 with a freshly computed digest, so it reaches
    /// the payload decoder.
    fn reframe(payload: &[u8]) -> Vec<u8> {
        let mut out = format!("{HEADER_MAGIC} v3 fnv1a64:{:016x}\n", fnv1a64(payload)).into_bytes();
        out.extend_from_slice(payload);
        out
    }

    /// The v3 payload of `snap`, without its header line.
    fn payload(snap: &Snapshot) -> Vec<u8> {
        let bytes = snap.to_checked_bytes().unwrap();
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[newline + 1..].to_vec()
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let path = scratch("round-trip.json");
        let snap = sample();
        snap.save_atomic(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back, snap);
        // The temp sibling must not linger after a successful save.
        assert!(!path.with_file_name("round-trip.json.tmp").exists());
        assert!(std::fs::read(&path).unwrap().starts_with(b"minicost-snapshot v3 fnv1a64:"));
    }

    #[test]
    fn save_overwrites_previous_snapshot_atomically() {
        let path = scratch("overwrite.json");
        sample().save_atomic(&path).unwrap();
        sample_at(9, false).save_atomic(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap().next_day, 9);
    }

    #[test]
    fn doctored_bytes_fail_the_checksum() {
        let path = scratch("doctored.json");
        std::fs::write(&path, to_v2_bytes(&sample())).unwrap();
        // In-place editing of any payload field breaks the header digest.
        let doctored = std::fs::read_to_string(&path)
            .unwrap()
            .replace(&format!("\"version\":{JSON_VERSION}"), "\"version\":999");
        std::fs::write(&path, doctored).unwrap();
        assert!(matches!(Snapshot::load(&path), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn alien_versions_are_rejected_as_mismatch() {
        // A bare-JSON document (legacy framing) from some future schema.
        let mut snap = sample();
        snap.version = 999;
        let json = serde_json::to_string(&snap).unwrap();
        match Snapshot::from_checked_bytes(json.as_bytes()) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!((found, expected), (999, SNAPSHOT_VERSION));
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        // A framed document whose header claims a future version.
        let framed = b"minicost-snapshot v9 fnv1a64:0000000000000000\n{}";
        match Snapshot::from_checked_bytes(framed) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!((found, expected), (9, SNAPSHOT_VERSION));
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn legacy_v1_snapshots_still_load() {
        let mut snap = sample();
        snap.version = 1;
        let json = serde_json::to_string(&snap).unwrap();
        let back = Snapshot::from_checked_bytes(json.as_bytes()).unwrap();
        assert_eq!(back, snap);
        // And through the filesystem path, as a real pre-upgrade file would.
        let path = scratch("legacy-v1.json");
        std::fs::write(&path, json).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
    }

    #[test]
    fn legacy_v2_snapshots_load_and_resave_as_v3() {
        for bounded in [false, true] {
            let snap = sample_at(5, bounded);
            let back = Snapshot::from_checked_bytes(&to_v2_bytes(&snap)).unwrap();
            assert_eq!(back, Snapshot { version: JSON_VERSION, ..snap.clone() });
            // Re-saving writes v3, which reads back as the same state.
            let again = Snapshot::from_checked_bytes(&back.to_checked_bytes().unwrap()).unwrap();
            assert_eq!(again, snap);
        }
    }

    #[test]
    fn legacy_running_totals_must_match_their_days() {
        let mut snap = sample();
        snap.version = 1;
        let json = serde_json::to_string(&snap).unwrap();
        let lied = json.replacen("\"running\":{\"storage\":", "\"running\":{\"storage\":1", 1);
        assert_ne!(lied, json);
        assert!(matches!(
            Snapshot::from_checked_bytes(lied.as_bytes()),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn v3_is_far_smaller_than_v2_for_sketched_state() {
        let snap = sample_at(9, true);
        let (v3, v2) = (snap.to_checked_bytes().unwrap(), to_v2_bytes(&snap));
        assert!(v3.len() * 2 < v2.len(), "v3 {} bytes vs v2 {}", v3.len(), v2.len());
    }

    #[test]
    fn inconsistent_states_are_rejected_as_invalid() {
        let reject = |snap: Snapshot, why: &str| {
            let bytes = snap.to_checked_bytes().unwrap();
            match Snapshot::from_checked_bytes(&bytes) {
                Err(SnapshotError::Invalid(_)) => {}
                other => panic!("{why}: expected Invalid, got {other:?}"),
            }
        };
        let mut s = sample();
        s.per_file.push(Money::ZERO);
        reject(s, "per_file longer than tiers");
        let mut s = sample();
        s.occupancy.pop();
        reject(s, "occupancy shorter than next_day");
        let mut s = sample();
        s.next_day += 1;
        reject(s, "next_day ahead of the ledger");
        let mut s = sample();
        s.epoch = 7;
        reject(s, "more epochs than days");
        let mut s = sample();
        s.tier_changes = 13;
        reject(s, "more tier changes than file-days");
        let mut s = sample();
        s.exact = Some(ExactStats::new(7, 3));
        reject(s, "exact fleet of the wrong size");
        let mut s = sample_at(6, true);
        s.exact = Some(ExactStats::new(7, 2));
        reject(s, "exact statistics with no closed days");
    }

    #[test]
    fn v3_headers_written_in_place_are_46_bytes_in_the_loaders_spelling() {
        assert_eq!(V3_PREFIX, format!("{HEADER_MAGIC} v{SNAPSHOT_VERSION} fnv1a64:"));
        assert_eq!(V3_HEADER_LEN, 46);
        for days in 0..12 {
            let bytes = sample_at(days, days % 2 == 1).to_checked_bytes().unwrap();
            let (header, payload) = bytes.split_at(V3_HEADER_LEN);
            let want =
                format!("{HEADER_MAGIC} v{SNAPSHOT_VERSION} fnv1a64:{:016x}\n", fnv1a64(payload));
            assert_eq!(header, want.as_bytes(), "{days} days");
        }
    }

    #[test]
    fn headers_have_exactly_one_spelling() {
        let bytes = sample().to_checked_bytes().unwrap();
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[..newline]).unwrap();
        let digest = header.rsplit(':').next().unwrap();
        // The same digest value, spelled in ways `from_str_radix` accepts.
        for respelled in [
            header.replace(digest, &digest.to_uppercase()),
            header.replace(digest, &format!("+{}", &digest[1..])),
            header.replace(" v3 ", " v03 "),
        ] {
            if respelled == header {
                continue; // a digest with no letters has no upper case
            }
            let mut doctored = respelled.into_bytes();
            doctored.extend_from_slice(&bytes[newline..]);
            assert!(Snapshot::from_checked_bytes(&doctored).is_err());
        }
    }

    #[test]
    fn byte_level_defects_are_parse_errors() {
        let good = payload(&sample());
        // Policy name length (1 byte), "greedy", the seed word, then
        // next_day, epoch, decide_every and window (one byte each) put
        // the initial tier at offset 19.
        assert_eq!(good[19], 0, "initial tier Hot");
        for (what, bytes) in [
            ("tier byte past TIER_COUNT", {
                let mut b = good.clone();
                b[19] = TIER_COUNT as u8;
                b
            }),
            ("trailing byte", {
                let mut b = good.clone();
                b.push(0);
                b
            }),
            ("policy name not UTF-8", {
                let mut b = good.clone();
                b[1] = 0xff;
                b
            }),
            ("empty payload", Vec::new()),
        ] {
            assert!(
                matches!(
                    Snapshot::from_checked_bytes(&reframe(&bytes)),
                    Err(SnapshotError::Parse(_))
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn missing_and_corrupt_files_error_cleanly() {
        assert!(matches!(
            Snapshot::load(&scratch("does-not-exist.json")),
            Err(SnapshotError::Io(_))
        ));
        let path = scratch("corrupt.json");
        std::fs::write(&path, "{ not json").unwrap();
        assert!(matches!(Snapshot::load(&path), Err(SnapshotError::Parse(_))));
        for err in [
            SnapshotError::Parse("x".into()),
            SnapshotError::Sync("x".into()),
            SnapshotError::Corrupt("x".into()),
            SnapshotError::Invalid("x".into()),
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn transient_classification_is_stable() {
        assert!(SnapshotError::Io("x".into()).is_transient());
        assert!(SnapshotError::Sync("x".into()).is_transient());
        assert!(!SnapshotError::Parse("x".into()).is_transient());
        assert!(!SnapshotError::Corrupt("x".into()).is_transient());
        assert!(!SnapshotError::Invalid("x".into()).is_transient());
        assert!(!SnapshotError::VersionMismatch { found: 1, expected: 2 }.is_transient());
    }

    #[test]
    fn rotation_shifts_slots_and_candidates_order_newest_first() {
        let base = scratch("rotate.json");
        let mut backend = FsBackend;
        for day in [3usize, 6, 9] {
            rotate(&mut backend, &base, 2).unwrap();
            sample_at(day, false).save_with(&mut backend, &base).unwrap();
        }
        let candidates = rotation_candidates(&base, 2);
        assert_eq!(candidates.len(), 3);
        let days: Vec<usize> =
            candidates.iter().map(|p| Snapshot::load(p).unwrap().next_day).collect();
        assert_eq!(days, vec![9, 6, 3], "newest first, then rotated predecessors");
        // A fourth generation pushes day-3 off the end of the rotation.
        rotate(&mut backend, &base, 2).unwrap();
        sample_at(12, false).save_with(&mut backend, &base).unwrap();
        let days: Vec<usize> = rotation_candidates(&base, 2)
            .iter()
            .map(|p| Snapshot::load(p).unwrap().next_day)
            .collect();
        assert_eq!(days, vec![12, 9, 6]);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    proptest! {
        /// Any single-byte substitution anywhere in a framed v2 snapshot —
        /// header, digest, or payload — must be detected at load: the codec
        /// returns an error, never a silently different snapshot.
        #[test]
        fn any_single_byte_flip_is_detected(
            position_seed in 0u64..u64::MAX,
            xor in 1u8..=255u8,
        ) {
            let bytes = to_v2_bytes(&sample());
            let ix = (position_seed % bytes.len() as u64) as usize;
            let mut flipped = bytes.clone();
            flipped[ix] ^= xor;
            prop_assert!(
                Snapshot::from_checked_bytes(&flipped).is_err(),
                "flip at byte {ix} (xor {xor:#04x}) must not load"
            );
        }

        /// Any strict prefix (a torn/truncated write) of a v2 file must be
        /// detected.
        #[test]
        fn any_truncation_is_detected(cut_seed in 0u64..u64::MAX) {
            let bytes = to_v2_bytes(&sample());
            let cut = (cut_seed % bytes.len() as u64) as usize;
            prop_assert!(
                Snapshot::from_checked_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not load"
            );
        }

        /// The same for v3, in both statistics modes.
        #[test]
        fn any_single_byte_flip_of_v3_snapshot_is_detected(
            position_seed in 0u64..u64::MAX,
            xor in 1u8..=255u8,
            bounded in any::<bool>(),
        ) {
            let bytes = sample_at(5, bounded).to_checked_bytes().unwrap();
            let ix = (position_seed % bytes.len() as u64) as usize;
            let mut flipped = bytes.clone();
            flipped[ix] ^= xor;
            prop_assert!(
                Snapshot::from_checked_bytes(&flipped).is_err(),
                "flip at byte {ix} (xor {xor:#04x}) must not load"
            );
        }

        /// Any strict prefix of a v3 file must be detected.
        #[test]
        fn any_truncation_of_v3_snapshot_is_detected(
            cut_seed in 0u64..u64::MAX,
            bounded in any::<bool>(),
        ) {
            let bytes = sample_at(5, bounded).to_checked_bytes().unwrap();
            let cut = (cut_seed % bytes.len() as u64) as usize;
            prop_assert!(
                Snapshot::from_checked_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not load"
            );
        }

        /// Clean v3 round trips always succeed at any day count — the
        /// checksum is over exact bytes, and each state has one encoding.
        #[test]
        fn clean_round_trip_is_total(days in 0usize..40, bounded in any::<bool>()) {
            let snap = sample_at(days, bounded);
            let bytes = snap.to_checked_bytes().unwrap();
            let back = Snapshot::from_checked_bytes(&bytes).unwrap();
            prop_assert_eq!(back.to_checked_bytes().unwrap(), bytes);
            prop_assert_eq!(back, snap);
        }
    }
}
