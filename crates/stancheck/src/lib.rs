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
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod waiver;
pub mod walk;

use std::path::Path;

pub use analyze::{analyze_source, fixture_directive};
pub use report::{Finding, Report, WaiverRecord};
pub use rules::{FileContext, FileKind, Rule, Severity, RULES, SIMULATION_CRATES};

/// Analyzes a set of files (absolute paths) against `root`-relative display paths,
/// honoring fixture directives. Files that cannot be read are reported as findings
/// rather than silently skipped — a guard that cannot see a file must say so.
pub fn analyze_files(root: &Path, files: &[std::path::PathBuf]) -> Report {
    let mut out = Report::default();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel_display = rel.to_string_lossy().replace('\\', "/");
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(err) => {
                out.findings.push(Finding {
                    rule: "io-error".to_string(),
                    severity: Severity::Error,
                    file: rel_display,
                    line: 0,
                    message: format!("cannot read file: {err}"),
                    waived: false,
                    waiver_reason: None,
                });
                continue;
            }
        };
        let ctx = fixture_directive(&src).unwrap_or_else(|| walk::classify(rel));
        let (findings, waivers) = analyze_source(&rel_display, &src, &ctx);
        out.findings.extend(findings);
        out.waivers.extend(waivers);
        out.files_scanned += 1;
    }
    out
}
