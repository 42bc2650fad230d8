//! Minimal CLI argument parsing for the experiment binaries.
//!
//! Every figure binary accepts `--files N --days D --seed S --updates U
//! --runs R` with figure-appropriate defaults, so the paper-scale runs and
//! CI-scale smoke runs use the same code path. The shared `--workers`,
//! `--seed`, and `--out` flags are parsed here once, so every binary
//! resolves them identically and the JSON sidecars carry the same `config`
//! block (DESIGN.md §14).

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parsed command-line arguments (`--key value` pairs).
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses the process's arguments. Panics on a malformed pair (a
    /// `--key` without a value), which is the right behavior for a lab
    /// harness — fail loudly, immediately.
    #[must_use]
    pub fn parse() -> Args {
        Args::from_list(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    #[must_use]
    pub fn from_list<I: IntoIterator<Item = String>>(iter: I) -> Args {
        let mut values = BTreeMap::new();
        let mut iter = iter.into_iter();
        while let Some(key) = iter.next() {
            let name =
                key.strip_prefix("--").unwrap_or_else(|| panic!("expected --flag, got {key:?}"));
            let value = iter.next().unwrap_or_else(|| panic!("flag --{name} needs a value"));
            values.insert(name.to_owned(), value);
        }
        Args { values }
    }

    /// A `usize` flag with default.
    #[must_use]
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.get_parsed(name).unwrap_or(default)
    }

    /// A `u64` flag with default.
    #[must_use]
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.get_parsed(name).unwrap_or(default)
    }

    /// An `f64` flag with default.
    #[must_use]
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.get_parsed(name).unwrap_or(default)
    }

    /// The `--workers` flag shared by the figure binaries: simulation shard
    /// count, defaulting to the `MINICOST_WORKERS` environment variable
    /// (else 1) and clamped to ≥ 1. Sharding never changes results — only
    /// wall-clock (see DESIGN.md §9).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.usize("workers", minicost::default_workers()).max(1)
    }

    /// The `--seed` flag shared by the experiment binaries, with the
    /// caller's figure-appropriate default.
    #[must_use]
    pub fn seed(&self, default: u64) -> u64 {
        self.u64("seed", default)
    }

    /// The `--out` flag: the directory a figure binary writes its
    /// artifacts to (default `results/`).
    #[must_use]
    pub fn out(&self, default: &str) -> PathBuf {
        PathBuf::from(self.values.get("out").map_or(default, String::as_str))
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: std::fmt::Debug,
    {
        self.values.get(name).map(|v| v.parse().unwrap_or_else(|e| panic!("--{name} {v:?}: {e:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_list(s.iter().map(|x| (*x).to_owned()))
    }

    #[test]
    fn parses_typed_flags() {
        let a = args(&["--files", "500", "--lr", "0.003"]);
        assert_eq!(a.usize("files", 1), 500);
        assert_eq!(a.f64("lr", 0.1), 0.003);
        assert_eq!(a.u64("updates", 7), 7);
    }

    #[test]
    fn defaults_apply_when_missing() {
        let a = args(&[]);
        assert_eq!(a.usize("files", 42), 42);
    }

    #[test]
    fn workers_flag_is_clamped() {
        assert_eq!(args(&["--workers", "4"]).workers(), 4);
        assert_eq!(args(&["--workers", "0"]).workers(), 1);
        assert!(args(&[]).workers() >= 1);
    }

    #[test]
    fn seed_and_out_share_the_common_parser() {
        let a = args(&["--seed", "7", "--out", "artifacts"]);
        assert_eq!(a.seed(2020), 7);
        assert_eq!(a.out("results"), std::path::Path::new("artifacts"));
        let d = args(&[]);
        assert_eq!(d.seed(2020), 2020);
        assert_eq!(d.out("results"), std::path::Path::new("results"));
    }

    #[test]
    #[should_panic(expected = "needs a value")]
    fn dangling_flag_panics() {
        let _ = args(&["--files"]);
    }

    #[test]
    #[should_panic(expected = "expected --flag")]
    fn positional_arg_panics() {
        let _ = args(&["bare"]);
    }

    #[test]
    #[should_panic(expected = "--files")]
    fn unparsable_value_panics() {
        let a = args(&["--files", "many"]);
        let _ = a.usize("files", 1);
    }
}
