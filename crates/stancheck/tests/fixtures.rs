//! Integration tests over the fixture corpus and the real workspace.
//!
//! The corpus has one known-bad file per rule; each must produce its rule's
//! finding(s) and nothing unrelated. The clean fixture must produce nothing, the
//! waived fixture must produce only suppressed findings, and — the teeth — the
//! actual workspace scan must come back clean and no crate below the experiment
//! harness may depend on it, so `cargo test` is where the determinism guard runs.

use sdn_stancheck::{analyze_files, analyze_workspace, walk, Report, RULES};
use std::path::{Path, PathBuf};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn analyze_fixture(name: &str) -> Report {
    let root = manifest_dir();
    let path = root.join("fixtures").join(name);
    assert!(path.exists(), "missing fixture {}", path.display());
    analyze_files(&root, &[path])
}

fn unwaived_rules(report: &Report) -> Vec<String> {
    report.unwaived().map(|f| f.rule.clone()).collect()
}

#[test]
fn each_bad_fixture_triggers_exactly_its_rule() {
    let cases = [
        ("bad/hash_collections.rs", "hash-collections", 6),
        ("bad/wall_clock.rs", "wall-clock", 3),
        ("bad/env_read.rs", "env-read", 3),
        ("bad/thread_identity.rs", "thread-identity", 2),
        ("bad/unordered_merge.rs", "unordered-merge", 1),
        ("bad/unsafe_block.rs", "unsafe-block", 1),
        ("bad/unwrap_expect.rs", "unwrap-expect", 2),
        ("bad/serve_session_wall_clock.rs", "wall-clock", 3),
        // The `..` scrambler only; the exhaustive one beside it passes.
        ("bad/scramble_rest.rs", "scramble-rest", 1),
    ];
    for (fixture, rule, count) in cases {
        let report = analyze_fixture(fixture);
        let rules = unwaived_rules(&report);
        assert_eq!(
            rules.len(),
            count,
            "{fixture}: expected {count} findings, got {rules:?}"
        );
        assert!(
            rules.iter().all(|r| r == rule),
            "{fixture}: expected only `{rule}`, got {rules:?}"
        );
        for finding in report.unwaived() {
            assert!(finding.line > 0, "{fixture}: finding without a line");
            assert!(
                finding.file.ends_with(fixture),
                "{fixture}: wrong file {}",
                finding.file
            );
        }
    }
}

#[test]
fn abused_waivers_are_each_reported() {
    let report = analyze_fixture("bad/bad_waivers.rs");
    let rules = unwaived_rules(&report);
    for expected in [
        "hash-collections",             // the unjustified waiver must not suppress
        "waiver-missing-justification", // ... and is itself a finding
        "waiver-unknown-rule",
        "waiver-unused",
        "waiver-syntax",
    ] {
        assert!(
            rules.iter().any(|r| r == expected),
            "expected `{expected}` in {rules:?}"
        );
    }
}

#[test]
fn clean_fixture_has_zero_findings() {
    let report = analyze_fixture("clean.rs");
    assert_eq!(
        report.unwaived_count(),
        0,
        "clean fixture flagged: {:?}",
        unwaived_rules(&report)
    );
    assert_eq!(report.waived_count(), 0);
    assert!(report.waivers.is_empty());
}

#[test]
fn waived_fixture_round_trips_justifications() {
    let report = analyze_fixture("waived.rs");
    assert_eq!(
        report.unwaived_count(),
        0,
        "waived fixture has unwaived findings: {:?}",
        unwaived_rules(&report)
    );
    assert!(report.waived_count() >= 3);
    assert_eq!(report.waivers.len(), 3);
    assert!(report.waivers.iter().all(|w| w.used));
    // Round-trip: the reasons written in the fixture come back verbatim, both in
    // the waiver records and attached to the findings they suppressed.
    let reasons: Vec<&str> = report.waivers.iter().map(|w| w.reason.as_str()).collect();
    assert!(reasons
        .iter()
        .any(|r| r.starts_with("scratch map, drained into a sorted Vec")));
    assert!(reasons
        .iter()
        .any(|r| r.starts_with("callers are required to pass non-empty slices")));
    for finding in &report.findings {
        assert!(finding.waived);
        let reason = finding.waiver_reason.as_deref().unwrap_or("");
        assert!(!reason.is_empty(), "waived finding lost its justification");
    }
    // And the JSON report carries them too.
    let json = report.to_json();
    assert!(json.contains("\"waived\": true"));
    assert!(json.contains("scratch map, drained into a sorted Vec"));
}

#[test]
fn serve_transport_fixture_is_clean_under_the_scope_rule() {
    // The allowed half of the serve scope-rule pair: the exact APIs that flag the
    // session module (`Instant::now`, `thread::current`) are sanctioned in the
    // transport module, where they cannot reach simulated state.
    let report = analyze_fixture("serve_transport.rs");
    assert_eq!(
        report.unwaived_count(),
        0,
        "transport fixture flagged: {:?}",
        unwaived_rules(&report)
    );
    assert_eq!(
        report.waived_count(),
        0,
        "transport fixture needs no waivers"
    );
}

#[test]
fn test_only_api_fixture_flags_what_no_production_code_names() {
    let root = manifest_dir();
    let dir = root.join("fixtures").join("test_only_api");
    let files = [dir.join("caller.rs"), dir.join("lib.rs")];
    let report = analyze_workspace(&root, &files);
    let unwaived: Vec<(&str, u32)> = report
        .unwaived()
        .map(|f| (f.rule.as_str(), f.line))
        .collect();
    assert_eq!(
        unwaived,
        [
            ("test-only-api", 11), // used_only_by_tests: only its own test calls it
            ("test-only-api", 16), // NAMED_BY_NOBODY
            ("test-only-api", 20), // NamedInDocs: named only in a doc comment and a string
            ("test-only-api", 41), // total: named only as a field
            ("waiver-unused", 34), // hook has a production caller
        ]
    );
    let names = [
        "used_only_by_tests",
        "NAMED_BY_NOBODY",
        "NamedInDocs",
        "total",
    ];
    for (finding, name) in report.unwaived().zip(names) {
        assert!(
            finding.message.contains(&format!("`{name}`")),
            "{finding:?}"
        );
    }
    // The waived reference implementation is suppressed, and its reason recorded.
    let waived: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.waived)
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(waived.len(), 1);
    assert!(waived[0].contains("`reference`"));
    let reasons: Vec<(&str, bool)> = report
        .waivers
        .iter()
        .map(|w| (w.reason.as_str(), w.used))
        .collect();
    assert_eq!(
        reasons,
        [
            ("reference implementation a test compares against", true),
            ("transient-fault hook for Theorem 2 experiments", false),
        ]
    );

    // Explicit paths run only the per-file rules: nothing is flagged, and a
    // `test-only-api` waiver is not judged unused by a pass that did not run.
    let per_file = analyze_files(&root, &files);
    assert_eq!(per_file.findings.len(), 0, "{:?}", per_file.findings);
}

#[test]
fn whole_bad_corpus_fails_loudly() {
    let root = manifest_dir();
    let dir = root.join("fixtures").join("bad");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures/bad exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 9, "fixture corpus shrank: {files:?}");
    let report = analyze_files(&root, &files);
    assert!(
        report.unwaived_count() >= files.len(),
        "corpus produced too few findings"
    );
}

#[test]
fn json_report_is_machine_readable() {
    let report = analyze_fixture("bad/wall_clock.rs");
    let json = report.to_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"tool\": \"sdn-stancheck\""));
    assert!(json.contains("\"rule\": \"wall-clock\""));
    assert!(json.contains("\"severity\": \"error\""));
    assert!(json.contains("\"files_scanned\": 1"));
}

fn workspace_root() -> PathBuf {
    let root = manifest_dir()
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    root
}

#[test]
fn the_workspace_itself_is_clean() {
    // The determinism guard's own acceptance criterion: scanning the real
    // workspace yields zero unwaived findings, and every waiver that exists both
    // suppresses something and carries a written justification.
    let root = workspace_root();
    let files = walk::workspace_files(&root).expect("walk workspace");
    assert!(files.len() > 80, "workspace walk found too few files");
    let report = analyze_workspace(&root, &files);
    let offenders: Vec<String> = report
        .unwaived()
        .map(|f| format!("{}:{} {} {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        offenders.is_empty(),
        "unwaived determinism hazards in the workspace:\n{}",
        offenders.join("\n")
    );
    for waiver in &report.waivers {
        assert!(
            waiver.used,
            "stale waiver at {}:{}",
            waiver.file, waiver.line
        );
        assert!(!waiver.reason.is_empty());
    }
    // Public API only tests call stays for one of three reasons, and says which.
    let reasons = [
        "reference implementation a test compares against",
        "transient-fault hook for Theorem 2 experiments",
        "API named in README or in a crate-level doc example",
    ];
    for waiver in report
        .waivers
        .iter()
        .filter(|w| w.rules.iter().any(|r| r == "test-only-api"))
    {
        assert!(
            reasons.iter().any(|r| waiver.reason.starts_with(r)),
            "{}:{}: a test-only-api waiver must give one of {reasons:?}, not `{}`",
            waiver.file,
            waiver.line,
            waiver.reason
        );
    }
}

#[test]
fn readme_rule_table_names_every_rule_in_order() {
    // README's "Correctness tooling" table names every rule, in `RULES` order:
    // `| `id` | severity | what it flags |`.
    let readme = std::fs::read_to_string(workspace_root().join("README.md")).expect("read README");
    let section = readme
        .split("## Correctness tooling")
        .nth(1)
        .expect("README section")
        .split("\n## ")
        .next()
        .unwrap_or_default();
    let rows: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .collect();
    let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    assert_eq!(rows, ids, "README rule table vs stancheck::RULES");
}

#[test]
fn no_crate_below_the_bench_layer_depends_on_it() {
    // The experiment harness sits on top of the simulation stack and the service;
    // an edge back up (as `sdn-serve -> renaissance-bench` once was) would make a
    // lower crate's build and behaviour depend on the harness.
    let root = workspace_root();
    for name in [
        "core", "switch", "topology", "netsim", "traffic", "metrics", "tags", "rng", "serve",
    ] {
        let path = root.join("crates").join(name).join("Cargo.toml");
        let manifest = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let edges: Vec<&str> = manifest
            .lines()
            .filter(|line| !line.trim_start().starts_with('#'))
            .filter(|line| line.contains("renaissance-bench"))
            .collect();
        assert!(
            edges.is_empty(),
            "crates/{name}/Cargo.toml depends on renaissance-bench: {edges:?}"
        );
    }
}
