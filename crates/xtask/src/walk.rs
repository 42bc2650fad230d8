//! Workspace file discovery for the lint pass.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Recursively collects `.rs` files under `root`, sorted for stable output.
pub fn rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    collect(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if dir.is_file() {
        if dir.extension().is_some_and(|e| e == "rs") {
            out.push(dir.to_path_buf());
        }
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The source files the workspace lint pass covers: every `crates/*/src`
/// tree except `xtask` itself (its fixtures are violations on purpose).
///
/// `tests/`, `benches/`, and `examples/` trees are excluded: the lints
/// exempt test and bench code, and example binaries are demo code.
pub fn workspace_lint_files(repo_root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates_dir = repo_root.join("crates");
    let mut out = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let path = entry?.path();
        if !path.is_dir() || path.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        let src = path.join("src");
        if src.is_dir() {
            out.extend(rust_files(&src)?);
        }
    }
    out.sort();
    Ok(out)
}

/// The repository root, resolved from this crate's manifest directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn lint_files_exclude_xtask_and_tests_dirs() {
        let files = workspace_lint_files(&repo_root()).expect("walk");
        assert!(!files.is_empty());
        for f in &files {
            let s = f.display().to_string();
            assert!(!s.contains("xtask"), "{s}");
            assert!(!s.contains("/tests/"), "{s}");
        }
    }
}
