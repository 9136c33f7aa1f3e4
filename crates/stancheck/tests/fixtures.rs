//! Integration tests over the fixture corpus and the real workspace.
//!
//! The corpus has one known-bad file per rule; each must produce its rule's
//! finding(s) and nothing unrelated. The clean fixture must produce nothing, the
//! waived fixture must produce only suppressed findings, and — the teeth — the
//! actual workspace scan must come back clean and no crate below the experiment
//! harness may depend on it, so `cargo test` is where the determinism guard runs.

use sdn_stancheck::{analyze_files, walk, Report};
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
    let report = analyze_files(&root, &files);
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
