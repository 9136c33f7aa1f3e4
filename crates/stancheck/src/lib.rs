//! `sdn-stancheck` — the workspace determinism guard.
//!
//! Every figure this repository reproduces rests on one contract: **a seeded run is
//! bit-identical across thread counts, machines, and refactors.** The scenario
//! runner's parallel/sequential property test and the byte-compared BENCH baselines
//! enforce that contract dynamically; this crate enforces it statically, flagging the code
//! patterns that historically break it before they reach a baseline:
//!
//! | rule | hazard |
//! |------|--------|
//! | `hash-collections` | `HashMap`/`HashSet` in simulation crates (iteration order) |
//! | `wall-clock` | `SystemTime` / `Instant::now` outside the benchmark package and serve's transport |
//! | `env-read` | `env::var` / `var_os` / `vars` anywhere (a run is a function of its flags) |
//! | `thread-identity` | `thread::current` / `ThreadId` / `available_parallelism` in simulation crates or serve outside transport |
//! | `unordered-merge` | `rayon`-style `par_*` iteration anywhere outside tests |
//! | `unsafe-block` | `unsafe` anywhere (the workspace forbids it) |
//! | `boxed-event-payload` | `Box` in netsim library code (per-event heap allocation in the dispatch path) |
//! | `unwrap-expect` | `.unwrap()` / `.expect(...)` in library, non-test code |
//! | `test-only-api` | a `pub`/`pub(crate)` item in library code that no production code names |
//!
//! `test-only-api` is the one cross-file rule ([`callers`]); it runs only on a
//! whole-workspace scan ([`analyze_workspace`]). Its callers are production tokens
//! with the item's name: the item's own file, library code, binaries, examples, and
//! every token of the benchmark package `crates/bench/perf` (frozen, so its tests
//! count too); integration tests, test scopes, docs and strings are not. A finding is
//! deleted or waived for one of four reasons: a reference implementation a test
//! compares against, a transient-fault hook for Theorem 2 experiments, API named in
//! README or in a crate-level doc example, or API that awaits a ROADMAP decision.
//!
//! The tool is hand-rolled and dependency-free, in the same offline idiom as
//! `sdn-rng` and the `bench::report` JSON emitter: a small Rust lexer
//! ([`lexer`]) that is literal-aware (no false positives from strings or doc
//! comments), a test-scope mask ([`scope`]), token-pattern rules ([`rules`]), and
//! an auditable waiver channel ([`waiver`]):
//!
//! ```text
//! // stancheck: allow(<rule>) — <written justification>
//! ```
//!
//! Run it locally with `cargo run -p sdn-stancheck`; `cargo test` scans the whole
//! workspace (`tests/fixtures.rs`) and fails on any unwaived finding. `--json` emits
//! the machine-readable report.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod callers;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod waiver;
pub mod walk;

use std::path::{Path, PathBuf};

pub use analyze::fixture_directive;
pub use report::{Finding, Report, WaiverRecord};
pub use rules::{FileContext, FileKind, Rule, Severity, RULES, SIMULATION_CRATES};

/// Analyzes a set of files (absolute paths) against `root`-relative display paths
/// with the per-file rules, honoring fixture directives. Files that cannot be read
/// are reported as findings rather than silently skipped — a guard that cannot see a
/// file must say so.
pub fn analyze_files(root: &Path, files: &[PathBuf]) -> Report {
    analyze(root, files, false)
}

/// [`analyze_files`] plus the cross-file `test-only-api` pass ([`callers`]): `files`
/// must be a whole workspace, since a name used nowhere in them counts as unused.
pub fn analyze_workspace(root: &Path, files: &[PathBuf]) -> Report {
    analyze(root, files, true)
}

fn analyze(root: &Path, files: &[PathBuf], cross_file: bool) -> Report {
    let mut out = Report::default();
    let mut sources = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel_display = rel.to_string_lossy().replace('\\', "/");
        match std::fs::read_to_string(path) {
            Ok(src) => {
                let ctx = fixture_directive(&src).unwrap_or_else(|| walk::classify(rel));
                sources.push((rel_display, ctx, src));
            }
            Err(err) => out.findings.push(Finding {
                rule: "io-error".to_string(),
                severity: Severity::Error,
                file: rel_display,
                line: 0,
                message: format!("cannot read file: {err}"),
                waived: false,
                waiver_reason: None,
            }),
        }
    }
    let lexed: Vec<_> = sources.iter().map(|(_, _, src)| lexer::lex(src)).collect();
    let masks: Vec<_> = lexed.iter().map(|l| scope::test_mask(&l.tokens)).collect();
    let scanned: Vec<_> = sources
        .iter()
        .zip(&lexed)
        .zip(&masks)
        .map(|(((_, ctx, _), l), mask)| callers::Scanned {
            ctx,
            tokens: &l.tokens,
            mask,
        })
        .collect();
    let mut raw: Vec<_> = scanned
        .iter()
        .map(|f| rules::scan(f.tokens, f.mask, f.ctx))
        .collect();
    if cross_file {
        for (file, found) in raw.iter_mut().zip(callers::test_only_api(&scanned)) {
            file.extend(found);
        }
    }
    for (((file, _, _), l), raw) in sources.iter().zip(&lexed).zip(raw) {
        let (findings, waivers) = analyze::resolve(file, raw, &l.comments, cross_file);
        out.findings.extend(findings);
        out.waivers.extend(waivers);
        out.files_scanned += 1;
    }
    out
}
