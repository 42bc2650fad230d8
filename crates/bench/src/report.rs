//! Tabular experiment reports: printed to stdout and persisted as CSV (and,
//! when a run configuration is attached, as a JSON sidecar with the shared
//! `config` block of DESIGN.md §14) under `results/`.

use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// The run-configuration block a JSON sidecar leads with (DESIGN.md §14),
/// so every figure's artifact parses with one schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigBlock {
    /// Number of files in the generated trace.
    pub files: usize,
    /// Trace horizon in days.
    pub days: usize,
    /// Generator / simulation seed.
    pub seed: u64,
    /// Simulation shard count.
    pub workers: usize,
}

impl ConfigBlock {
    /// Builds a config block from the run's resolved parameters.
    #[must_use]
    pub fn new(files: usize, days: usize, seed: u64, workers: usize) -> ConfigBlock {
        ConfigBlock { files, days, seed, workers }
    }
}

/// The on-disk shape of a report's JSON sidecar (DESIGN.md §14): the shared
/// `config` block first-class, then the table verbatim.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct JsonDoc {
    name: String,
    title: String,
    config: Option<ConfigBlock>,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

/// One experiment's output table plus free-form notes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// Experiment identifier (`"fig7"`, ...) — names the CSV file.
    pub name: String,
    /// A one-line description printed above the table.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Table rows (stringified cells).
    pub rows: Vec<Vec<String>>,
    /// Interpretation notes printed after the table (paper comparison).
    pub notes: Vec<String>,
    /// The resolved run configuration; when present, [`Report::emit_into`]
    /// also writes a `<name>.json` sidecar led by this `config` block.
    pub config: Option<ConfigBlock>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new(name: &str, title: &str, header: &[&str]) -> Report {
        Report {
            name: name.to_owned(),
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            config: None,
        }
    }

    /// Attaches the run's resolved configuration (builder style).
    #[must_use]
    pub fn with_config(mut self, config: ConfigBlock) -> Report {
        self.config = Some(config);
        self
    }

    /// Appends a row; panics if the width differs from the header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.name, self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("-- {note}\n"));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.to_table());
    }

    /// Writes the table as `results/<name>.csv` under `dir`.
    ///
    /// Returns the written path.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut file = fs::File::create(&path)?;
        writeln!(file, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(file, "{}", row.join(","))?;
        }
        Ok(path)
    }

    /// Writes the table (and the attached config block) as
    /// `<dir>/<name>.json`, the schema of DESIGN.md §14.
    ///
    /// Returns the written path.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        let doc = JsonDoc {
            name: self.name.clone(),
            title: self.title.clone(),
            config: self.config,
            header: self.header.clone(),
            rows: self.rows.clone(),
            notes: self.notes.clone(),
        };
        let body = serde_json::to_string(&doc)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        fs::write(&path, format!("{body}\n"))?;
        Ok(path)
    }

    /// Prints and persists to the workspace-standard `results/` directory.
    pub fn emit(&self) {
        self.emit_into(Path::new("results"));
    }

    /// Prints and persists CSV (plus the JSON sidecar when a config block
    /// is attached) under `dir` — the `--out` directory of the binaries.
    pub fn emit_into(&self, dir: &Path) {
        self.print();
        match self.write_csv(dir) {
            Ok(path) => println!("-- wrote {}", path.display()),
            Err(e) => eprintln!("-- could not write CSV: {e}"),
        }
        if self.config.is_some() {
            match self.write_json(dir) {
                Ok(path) => println!("-- wrote {}", path.display()),
                Err(e) => eprintln!("-- could not write JSON: {e}"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("figX", "demo", &["day", "cost"]);
        r.push_row(vec!["7".into(), "1.25".into()]);
        r.push_row(vec!["14".into(), "2.50".into()]);
        r.note("shape matches");
        r
    }

    #[test]
    fn table_contains_all_cells() {
        let t = sample().to_table();
        assert!(t.contains("figX"));
        assert!(t.contains("day"));
        assert!(t.contains("1.25"));
        assert!(t.contains("-- shape matches"));
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join(format!("minicost-report-{}", std::process::id()));
        let path = sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "day,cost\n7,1.25\n14,2.50\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_row_panics() {
        let mut r = Report::new("x", "y", &["a", "b"]);
        r.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn serializes_with_stable_field_names() {
        let block = ConfigBlock::new(100, 35, 2020, 4);
        let json = serde_json::to_string(&block).unwrap();
        assert_eq!(json, r#"{"files":100,"days":35,"seed":2020,"workers":4}"#);
        let back: ConfigBlock = serde_json::from_str(&json).unwrap();
        assert_eq!(back, block);
    }

    #[test]
    fn json_sidecar_embeds_the_shared_config_block() {
        let dir = std::env::temp_dir().join(format!("minicost-json-{}", std::process::id()));
        let report = sample().with_config(ConfigBlock::new(300, 14, 3, 2));
        let path = report.write_json(&dir).unwrap();
        let doc: JsonDoc = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        // The `config` object is the exact ConfigBlock schema every
        // sidecar shares (DESIGN.md §14).
        assert_eq!(doc.config, Some(ConfigBlock::new(300, 14, 3, 2)));
        assert_eq!(doc.name, "figX");
        assert_eq!(doc.rows[0][1], "1.25");
        std::fs::remove_dir_all(&dir).ok();
    }
}
