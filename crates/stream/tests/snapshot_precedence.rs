//! Error precedence of the one-pass v3 loader.
//!
//! A v3 payload is decoded and digested in the same pass, so the decoder
//! runs on bytes the digest has not yet vouched for. Whatever the decode
//! makes of a payload that does not match its header's digest, the load
//! must fail with `SnapshotError::Corrupt` and exactly the message a
//! digest-first loader gives: `payload digest <actual> != header <stated>`.
//!
//! Mutants are truncations, byte flips and splices of real exact and
//! bounded checkpoints written by `serve`, kept under their original
//! header. Each is also re-framed under a fresh digest to show which of
//! them the decoder alone would reject, so the precedence is exercised on
//! payloads that are both undecodable and mis-digested.

use minicost::prelude::*;
use stream::{fnv1a64, Snapshot, SnapshotError};

/// A real checkpoint: greedy served 6 of 10 days, checkpointing every day.
fn checkpoint(name: &str, max_tracked: Option<usize>) -> Vec<u8> {
    let trace = Trace::generate(&TraceConfig::small(12, 10, 7));
    let model = CostModel::new(PricingPolicy::azure_blob_2020());
    let dir = std::env::temp_dir().join(format!("minicost-precedence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let cfg = ServeConfig {
        seed: 7,
        max_tracked,
        checkpoint_every: 1,
        checkpoint_keep: 0,
        checkpoint_path: Some(path.clone()),
        max_days: Some(6),
        ..ServeConfig::default()
    };
    serve(&trace, &model, &GreedyPolicy, &cfg).expect("seed run");
    let bytes = std::fs::read(&path).expect("seed checkpoint");
    std::fs::remove_file(&path).ok();
    assert!(bytes.starts_with(b"minicost-snapshot v3 fnv1a64:"), "{name} is v3");
    bytes
}

/// Frames `payload` under `header` (the header line without its newline).
fn frame(header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = header.to_vec();
    out.push(b'\n');
    out.extend_from_slice(payload);
    out
}

/// Truncations, byte flips and splices of `payload`: every position in
/// the first 64 bytes, where the structural fields live, then about 120
/// positions spread over the rest (mostly sketch counters when bounded).
fn mutants(payload: &[u8]) -> Vec<Vec<u8>> {
    let len = payload.len();
    let stride = (len / 120).max(1);
    let positions: Vec<usize> = (0..len.min(64)).chain((64..len).step_by(stride)).collect();
    let mut out = Vec::new();
    for &at in &positions {
        out.push(payload[..at].to_vec());
        let mut flipped = payload.to_vec();
        flipped[at] ^= 0x80 | (at as u8 & 0x7f);
        out.push(flipped);
        let span = 8.min(len - at);
        let to = (at * 7919 + 13) % (len - span + 1);
        let mut copied = payload.to_vec();
        copied.copy_within(at..at + span, to);
        out.push(copied);
        let mut duplicated = payload.to_vec();
        duplicated.splice(at..at, payload[at..at + span].to_vec());
        out.push(duplicated);
    }
    out.retain(|m| m != payload);
    out
}

#[test]
fn mis_digested_snapshot_payloads_are_corrupt_whatever_they_decode_to() {
    for (name, max_tracked) in [("exact", None), ("bounded", Some(3))] {
        let bytes = checkpoint(name, max_tracked);
        let newline = bytes.iter().position(|&b| b == b'\n').expect("header line");
        let (header, payload) = (&bytes[..newline], &bytes[newline + 1..]);
        let stated = std::str::from_utf8(header)
            .ok()
            .and_then(|h| h.rsplit(':').next())
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .expect("header digest");
        assert!(Snapshot::from_checked_bytes(&bytes).is_ok(), "{name} seed loads");

        let (mut undecodable, mut decodable) = (0, 0);
        for mutant in mutants(payload) {
            let want = format!("payload digest {:016x} != header {stated:016x}", fnv1a64(&mutant));
            match Snapshot::from_checked_bytes(&frame(header, &mutant)) {
                Err(SnapshotError::Corrupt(msg)) => assert_eq!(msg, want, "{name}"),
                other => panic!("{name}: a mis-digested payload gave {other:?}, not Corrupt"),
            }
            let reframed = frame(
                format!("minicost-snapshot v3 fnv1a64:{:016x}", fnv1a64(&mutant)).as_bytes(),
                &mutant,
            );
            match Snapshot::from_checked_bytes(&reframed) {
                Err(SnapshotError::Parse(_) | SnapshotError::Invalid(_)) => undecodable += 1,
                _ => decodable += 1,
            }
        }
        assert!(
            undecodable > 100 && decodable > 0,
            "{name}: {undecodable} undecodable and {decodable} decodable mutants"
        );
    }
}
