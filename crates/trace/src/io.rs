//! Trace import/export.
//!
//! The synthetic generator stands in for the paper's Wikipedia pagecounts
//! dump, but a downstream user with access to a real trace (pagecounts,
//! CDN logs, object-store access logs) should be able to drive every
//! experiment with it. This module defines a minimal CSV interchange
//! format, one row per file:
//!
//! ```text
//! id,size_gb,reads_day0;reads_day1;...,writes_day0;writes_day1;...
//! ```
//!
//! plus JSON round-tripping helpers (the whole [`Trace`] is `serde`).

use crate::file::{FileId, FileSeries};
use crate::workload::Trace;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// 2^64: the first byte count a `u64` cannot hold.
const TWO_POW_64: f64 = 4_294_967_296.0 * 4_294_967_296.0;

/// Writes `trace` as interchange CSV.
///
/// # Errors
/// Propagates I/O errors from the writer as [`TraceIoError::Io`].
pub fn write_csv<W: Write>(trace: &Trace, writer: W) -> Result<(), TraceIoError> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "id,size_gb,reads,writes")?;
    for file in &trace.files {
        let reads: Vec<String> = file.reads.iter().map(u64::to_string).collect();
        let writes: Vec<String> = file.writes.iter().map(u64::to_string).collect();
        writeln!(out, "{},{},{},{}", file.id.0, file.size_gb, reads.join(";"), writes.join(";"))?;
    }
    out.flush()?;
    Ok(())
}

/// Errors from trace import/export ([`read_csv`], [`write_csv`],
/// [`read_json`], [`write_json`]).
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed CSV row, with its 1-based line number and a description.
    Parse(usize, String),
    /// Malformed JSON, with a description.
    Json(String),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace io error: {e}"),
            TraceIoError::Parse(line, msg) => write!(f, "trace line {line}: {msg}"),
            TraceIoError::Json(msg) => write!(f, "trace json error: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Reads a trace from interchange CSV (as written by [`write_csv`]).
///
/// Files are re-identified densely in row order; the `id` column must hold
/// distinct integers, each `size_gb` must be a byte count (`size_gb * 1e9`)
/// that fits in a `u64`, and all series must share one day count.
///
/// # Errors
/// Returns [`TraceIoError`] on I/O failure or any malformed row.
pub fn read_csv<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    let input = BufReader::new(reader);
    let mut files = Vec::new();
    let mut ids = BTreeMap::new();
    let mut days: Option<usize> = None;
    for (ix, line) in input.lines().enumerate() {
        let line = line?;
        if ix == 0 {
            if line.trim() != "id,size_gb,reads,writes" {
                return Err(TraceIoError::Parse(1, format!("bad header {line:?}")));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let row = ix + 1;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(TraceIoError::Parse(
                row,
                format!("expected 4 fields, got {}", fields.len()),
            ));
        }
        let id: u64 =
            fields[0].trim().parse().map_err(|e| TraceIoError::Parse(row, format!("id: {e}")))?;
        if let Some(first) = ids.insert(id, row) {
            return Err(TraceIoError::Parse(
                row,
                format!("duplicate id {id} (first on line {first})"),
            ));
        }
        let size_gb: f64 =
            fields[1].parse().map_err(|e| TraceIoError::Parse(row, format!("size_gb: {e}")))?;
        // Events carry `size_gb * 1e9` bytes as a u64; past 2^64 it would
        // saturate into a size, and a price, that means nothing.
        if !size_gb.is_finite() || size_gb < 0.0 || size_gb * 1e9 >= TWO_POW_64 {
            return Err(TraceIoError::Parse(row, format!("size_gb out of range: {size_gb}")));
        }
        let parse_series = |field: &str, name: &str| -> Result<Vec<u64>, TraceIoError> {
            if field.is_empty() {
                return Ok(Vec::new());
            }
            field
                .split(';')
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|e| TraceIoError::Parse(row, format!("{name}: {v:?}: {e}")))
                })
                .collect()
        };
        let reads = parse_series(fields[2], "reads")?;
        let writes = parse_series(fields[3], "writes")?;
        if reads.len() != writes.len() {
            return Err(TraceIoError::Parse(
                row,
                format!("reads ({}) and writes ({}) differ", reads.len(), writes.len()),
            ));
        }
        match days {
            None => days = Some(reads.len()),
            Some(d) if d != reads.len() => {
                return Err(TraceIoError::Parse(
                    row,
                    format!("series length {} != trace days {d}", reads.len()),
                ))
            }
            _ => {}
        }
        files.push(FileSeries { id: FileId::from_index(files.len()), size_gb, reads, writes });
    }
    Ok(Trace { days: days.unwrap_or(0), files })
}

/// Writes `trace` as JSON (the whole [`Trace`] is `serde`).
///
/// # Errors
/// Propagates I/O errors from the writer as [`TraceIoError::Io`].
pub fn write_json<W: Write>(trace: &Trace, writer: W) -> Result<(), TraceIoError> {
    let text = serde_json::to_string(trace).map_err(|e| TraceIoError::Json(e.to_string()))?;
    let mut out = BufWriter::new(writer);
    out.write_all(text.as_bytes())?;
    out.flush()?;
    Ok(())
}

/// Reads a trace from JSON (as written by [`write_json`]).
///
/// # Errors
/// Returns [`TraceIoError::Io`] on read failure and [`TraceIoError::Json`]
/// on malformed or mistyped JSON.
pub fn read_json<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    let mut text = String::new();
    BufReader::new(reader).read_to_string(&mut text)?;
    serde_json::from_str(&text).map_err(|e| TraceIoError::Json(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceConfig;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_traces_round_trip(
            series in proptest::collection::vec(
                proptest::collection::vec(0u64..1_000_000, 4), 0..12),
            size_milli_gb in 1u32..10_000,
        ) {
            let files = series
                .iter()
                .enumerate()
                .map(|(i, reads)| FileSeries {
                    id: FileId(i as u32),
                    size_gb: f64::from(size_milli_gb) / 1000.0,
                    reads: reads.clone(),
                    writes: reads.iter().map(|r| r / 7).collect(),
                })
                .collect();
            let trace = Trace { days: if series.is_empty() { 0 } else { 4 }, files };
            let mut buffer = Vec::new();
            write_csv(&trace, &mut buffer).unwrap();
            let back = read_csv(buffer.as_slice()).unwrap();
            prop_assert_eq!(back.files.len(), trace.files.len());
            for (a, b) in trace.files.iter().zip(&back.files) {
                prop_assert_eq!(&a.reads, &b.reads);
                prop_assert_eq!(&a.writes, &b.writes);
                prop_assert!((a.size_gb - b.size_gb).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn csv_round_trip_preserves_series() {
        let trace = Trace::generate(&TraceConfig::small(25, 10, 77));
        let mut buffer = Vec::new();
        write_csv(&trace, &mut buffer).unwrap();
        let back = read_csv(buffer.as_slice()).unwrap();
        assert_eq!(back.days, trace.days);
        assert_eq!(back.files.len(), trace.files.len());
        for (a, b) in trace.files.iter().zip(&back.files) {
            assert_eq!(a.reads, b.reads);
            assert_eq!(a.writes, b.writes);
            assert!((a.size_gb - b.size_gb).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace { days: 0, files: vec![] };
        let mut buffer = Vec::new();
        write_csv(&trace, &mut buffer).unwrap();
        let back = read_csv(buffer.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let trace = Trace::generate(&TraceConfig::small(12, 6, 5));
        let mut buffer = Vec::new();
        write_json(&trace, &mut buffer).unwrap();
        let back = read_json(buffer.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn json_rejects_garbage() {
        let err = read_json("not json".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Json(_)), "{err}");
        let err = read_json(r#"{"days": "three"}"#.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Json(_)), "{err}");
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_csv("wrong,header\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(1, _)), "{err}");
    }

    #[test]
    fn rejects_ragged_series() {
        let csv = "id,size_gb,reads,writes\n0,0.1,1;2;3,1;2\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("differ"), "{err}");
    }

    #[test]
    fn rejects_mixed_day_counts() {
        let csv = "id,size_gb,reads,writes\n0,0.1,1;2,0;0\n1,0.1,1;2;3,0;0;0\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("trace days"), "{err}");
    }

    #[test]
    fn rejects_garbage_values() {
        let csv = "id,size_gb,reads,writes\n0,lots,1,0\n";
        assert!(read_csv(csv.as_bytes()).is_err());
        let csv = "id,size_gb,reads,writes\n0,0.1,minus-one,0\n";
        assert!(read_csv(csv.as_bytes()).is_err());
        let csv = "id,size_gb,reads,writes\n0,-3.0,1,0\n";
        assert!(read_csv(csv.as_bytes()).is_err());
    }

    #[test]
    fn rejects_duplicate_ids() {
        let csv = "id,size_gb,reads,writes\n7,0.1,1;2,0;0\n3,0.2,3;4,0;1\n7,0.3,5;6,0;0\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(4, _)), "{err}");
        assert!(err.to_string().contains("duplicate id 7 (first on line 2)"), "{err}");
    }

    #[test]
    fn rejects_sizes_whose_bytes_overflow_u64() {
        let csv = "id,size_gb,reads,writes\n0,0.1,1,0\n1,1e308,1,0\n";
        let err = read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(3, _)), "{err}");
        assert!(err.to_string().contains("size_gb out of range"), "{err}");
        // 2^64 bytes is one past u64::MAX; a GB count just below it loads.
        let csv = "id,size_gb,reads,writes\n0,18446744073.709553,1,0\n";
        assert!(read_csv(csv.as_bytes()).is_err());
        let csv = "id,size_gb,reads,writes\n0,18446744073.709,1,0\n";
        assert!(read_csv(csv.as_bytes()).is_ok());
    }

    #[test]
    fn skips_blank_lines_and_reindexes() {
        let csv = "id,size_gb,reads,writes\n99,0.1,1;2,0;0\n\n7,0.2,3;4,0;1\n";
        let trace = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(trace.files.len(), 2);
        // Re-identified densely regardless of the id column.
        assert_eq!(trace.files[0].id, FileId(0));
        assert_eq!(trace.files[1].id, FileId(1));
        assert_eq!(trace.files[1].reads, vec![3, 4]);
    }
}
