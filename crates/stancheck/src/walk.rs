//! Workspace discovery and file classification.
//!
//! The walker is deterministic by construction (paths are sorted before analysis —
//! a hazard scanner whose own output depends on `read_dir` order would fail its own
//! audit) and skips build output, VCS metadata, and the fixture corpus: fixtures are
//! *known-bad by design* and only scanned when named explicitly.

use crate::rules::{FileContext, FileKind};
use std::io;
use std::path::{Path, PathBuf};

/// Directory names the workspace walk never descends into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

/// Recursively collects every `.rs` file under `root`, sorted lexicographically.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect(root, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Classifies a repo-relative path into its crate and target kind.
pub fn classify(rel: &Path) -> FileContext {
    let components: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    // The benchmark package nests inside the experiment crate's directory but is a
    // crate of its own: `crates/bench/perf/**` is `perf`, `crates/bench/src/**` `bench`.
    let crate_name = if components.len() > 3 && components[..3] == ["crates", "bench", "perf"] {
        components[2].clone()
    } else if components.len() > 2 && components[0] == "crates" {
        components[1].clone()
    } else {
        "workspace".to_string()
    };
    let file_name = components.last().map(String::as_str).unwrap_or("");
    let kind = if file_name == "build.rs" {
        FileKind::Build
    } else if components.iter().any(|c| c == "bin") || file_name == "main.rs" {
        FileKind::Bin
    } else if components.iter().any(|c| c == "tests") {
        FileKind::Test
    } else if components.iter().any(|c| c == "benches") {
        FileKind::Bench
    } else if components.iter().any(|c| c == "examples") {
        FileKind::Example
    } else {
        FileKind::Lib
    };
    // Top-level module under `src/`: the first path segment after `src` (its file
    // stem for direct children, the directory name otherwise). Scoped rules — e.g.
    // serve's transport-only wall-clock allowance — key on this.
    let module = components
        .iter()
        .position(|c| c == "src")
        .and_then(|i| components.get(i + 1))
        .map(|seg| seg.strip_suffix(".rs").unwrap_or(seg).to_string())
        .unwrap_or_default();
    FileContext {
        crate_name,
        kind,
        module,
    }
}

/// Walks upward from `start` to the enclosing workspace root (the first directory
/// whose `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str) -> FileContext {
        classify(Path::new(path))
    }

    #[test]
    fn crate_and_kind_classification() {
        let c = ctx("crates/core/src/harness.rs");
        assert_eq!(c.crate_name, "core");
        assert_eq!(c.kind, FileKind::Lib);
        assert!(c.is_simulation());

        let c = ctx("crates/bench/src/bin/scale_campaign.rs");
        assert_eq!(c.crate_name, "bench");
        assert_eq!(c.kind, FileKind::Bin);
        assert!(!c.is_simulation());
        // The benchmark package is its own crate, and only it reads the clock.
        let c = ctx("crates/bench/perf/src/run.rs");
        assert_eq!(c.crate_name, "perf");
        assert!(c.allows_wall_clock());
        assert!(!ctx("crates/bench/src/report.rs").allows_wall_clock());
        assert_eq!(ctx("crates/bench/perf/src/main.rs").kind, FileKind::Bin);

        assert_eq!(ctx("crates/bench/benches/hotpath.rs").kind, FileKind::Bench);
        assert_eq!(ctx("crates/bench/tests/gate.rs").kind, FileKind::Test);
        assert_eq!(ctx("tests/properties.rs").kind, FileKind::Test);
        assert_eq!(ctx("examples/quickstart.rs").kind, FileKind::Example);
        assert_eq!(ctx("src/lib.rs").kind, FileKind::Lib);
        assert_eq!(ctx("src/lib.rs").crate_name, "workspace");
        assert_eq!(ctx("crates/rng/build.rs").kind, FileKind::Build);
        assert_eq!(ctx("crates/stancheck/src/main.rs").kind, FileKind::Bin);
    }

    #[test]
    fn module_is_the_first_segment_under_src() {
        assert_eq!(ctx("crates/serve/src/transport.rs").module, "transport");
        assert_eq!(ctx("crates/serve/src/transport/mod.rs").module, "transport");
        assert_eq!(ctx("crates/serve/src/session.rs").module, "session");
        assert_eq!(ctx("crates/serve/src/bin/sdn-serve-cli.rs").module, "bin");
        assert_eq!(ctx("crates/core/src/lib.rs").module, "lib");
        assert_eq!(ctx("crates/bench/tests/gate.rs").module, "");
        // Only transport gets the wall-clock allowance.
        assert!(ctx("crates/serve/src/transport.rs").allows_wall_clock());
        assert!(!ctx("crates/serve/src/session.rs").allows_wall_clock());
        assert!(ctx("crates/serve/src/session.rs").restricts_thread_identity());
        assert!(!ctx("crates/serve/src/transport.rs").restricts_thread_identity());
    }
}
