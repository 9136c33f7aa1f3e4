//! The scale campaign's artifacts are byte-identical contracts. A committed
//! `BENCH_scale*.json` is accepted only if the command that wrote it writes the same
//! bytes again, and since an artifact holds one result cell per line, `git diff` of it
//! is the per-cell delta.
//!
//! The campaign's metrics are simulated quantities, deterministic for equal seeds, so
//! "equal to the artifact the same command wrote" is an exact statement, not a
//! tolerance. This file holds the smoke tier to its committed file, proves an artifact
//! is a function of the flags alone, and checks what every committed tier must say.

mod common;

use sdn_metrics::json::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

/// A scratch path that does not collide across parallel test runs.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("renaissance_gate_{}_{name}", std::process::id()))
}

/// Variables named after the flags. No binary reads the environment; the test sets
/// these on a child to prove it.
const FLAG_NAMED_ENV: [(&str, &str); 4] = [
    ("RENAISSANCE_SEED", "5"),
    ("RENAISSANCE_RUNS", "3"),
    ("RENAISSANCE_THREADS", "1"),
    ("RENAISSANCE_NETWORKS", "B4"),
];

/// The gray-failure scenarios (see `scale_campaign`'s `GRAY_SCENARIOS`).
const GRAY_SCENARIOS: [&str; 4] = [
    "gray_link_recovery",
    "partition_heal",
    "flapping_link",
    "rolling_upgrade",
];

/// Runs the scale campaign with `args` and `env` on top of a clean environment and
/// returns (exit code, stdout).
fn campaign(args: &[&str], env: &[(&str, &str)]) -> (i32, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_scale_campaign"));
    for (name, _) in FLAG_NAMED_ENV {
        command.env_remove(name);
    }
    let output = command
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn scale_campaign");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// Runs the smoke tier on one tiny network with `args` and `env` and returns the
/// artifact's bytes.
fn artifact(name: &str, args: &[&str], env: &[(&str, &str)]) -> Vec<u8> {
    let out = scratch(name);
    let mut all = vec![
        "--smoke",
        "--networks",
        "grid(3, 3)",
        "--out",
        out.to_str().unwrap(),
    ];
    all.extend(args);
    let (code, stdout) = campaign(&all, env);
    assert_eq!(code, 0, "campaign run failed:\n{stdout}");
    let bytes = std::fs::read(&out).expect("read artifact");
    let _ = std::fs::remove_file(&out);
    bytes
}

#[test]
fn campaign_artifact_is_a_function_of_the_flags() {
    // The artifact holds no host time, so the same command writes the same bytes, and
    // the thread count is not an input: runs are merged in seed order.
    let seeded = |threads| ["--seed", "77", "--runs", "2", "--threads", threads];
    let first = artifact("t1.json", &seeded("1"), &[]);
    for name in ["t4.json", "t4_again.json"] {
        assert_eq!(artifact(name, &seeded("4"), &[]), first, "{name}");
    }

    // Without --seed, variables named after the flags change nothing.
    let seedless = ["--threads", "2"];
    let clean = artifact("clean.json", &seedless, &[]);
    let from_env = artifact("from_env.json", &seedless, &FLAG_NAMED_ENV);
    assert_eq!(from_env, clean, "environment leaked in");
}

#[test]
fn two_tiers_at_once_are_refused_before_any_run() {
    let out = scratch("two_tiers.json");
    let args = ["--smoke", "--large", "--out", out.to_str().unwrap()];
    let (code, stdout) = campaign(&args, &[]);
    assert_eq!(code, 2, "--smoke --large must exit 2:\n{stdout}");
    assert!(stdout.is_empty(), "a tier ran:\n{stdout}");
    assert!(!out.exists(), "an artifact was written");
}

/// A committed tier baseline is what its campaign writes today, byte for byte: the
/// artifact holds only simulated quantities, so any difference is a change of
/// simulated behaviour (or of the artifact's layout) that the PR has to own.
fn tier_reproduces_the_committed_baseline(tier: &str, committed: &str) {
    let out = scratch(&format!("{tier}.json"));
    let flag = format!("--{tier}");
    let (code, stdout) = campaign(&[&flag, "--out", out.to_str().unwrap()], &[]);
    assert_eq!(code, 0, "{tier} campaign failed:\n{stdout}");
    let current = std::fs::read_to_string(&out).expect("read artifact");
    let _ = std::fs::remove_file(&out);
    common::assert_equals_committed(
        &current,
        committed,
        &format!("cargo run --release -p renaissance-bench --bin scale_campaign -- {flag}"),
    );
}

#[test]
fn smoke_campaign_reproduces_the_committed_baseline() {
    tier_reproduces_the_committed_baseline("smoke", "BENCH_scale_smoke.json");
}

#[test]
#[ignore = "about a minute in release: cargo test --release -p renaissance-bench --test gate -- --ignored"]
fn large_campaign_reproduces_the_committed_baseline() {
    tier_reproduces_the_committed_baseline("large", "BENCH_scale_large.json");
}

/// What every committed tier must say, beyond being reproducible: one result cell
/// per line, every cell converged, every under-load cell completed flows, the gray
/// cells carry their dedicated metrics, and the gray family runs on enough networks.
/// The large tier runs it on one network only.
#[test]
fn committed_artifacts_hold_the_campaign_invariants() {
    for (name, min_gray_networks, min_gray_cells) in [
        ("BENCH_scale_smoke.json", 2, 8),
        ("BENCH_scale.json", 2, 8),
        ("BENCH_scale_large.json", 1, 4),
    ] {
        let text = common::read_committed(name);
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"));
        assert_eq!(
            doc.get("benchmark").and_then(Json::as_str),
            Some("scale_campaign"),
            "{name}"
        );
        let cells = doc
            .get("results")
            .and_then(Json::as_array)
            .unwrap_or_default();
        assert!(!cells.is_empty(), "{name}: no results");
        assert_eq!(
            text.lines().count(),
            cells.len() + 2,
            "{name}: not one result cell per line"
        );

        let mut loaded = 0;
        let mut gray_networks = BTreeSet::new();
        let mut gray_cells = 0;
        for cell in cells {
            let field = |key: &str| {
                cell.get(key)
                    .unwrap_or_else(|| panic!("{name}: a cell has no {key}: {cell}"))
            };
            let network = field("network").as_str().unwrap_or_default();
            let scenario = field("scenario").as_str().unwrap_or_default();
            let id = format!("{name}: {network}/{scenario}");
            for key in ["family", "switches", "bootstrap_s"] {
                field(key);
            }
            assert_eq!(field("converged").as_bool(), Some(true), "{id} converged");
            if scenario.ends_with("_under_load") {
                loaded += 1;
                assert!(
                    field("completed_flows").as_u64().is_some_and(|n| n > 0),
                    "{id}: no flows completed"
                );
            }
            match scenario {
                "flapping_link" => assert!(cell.get("flap_survival").is_some(), "{id}"),
                "partition_heal" => assert!(cell.get("partition_messages").is_some(), "{id}"),
                _ => {}
            }
            if GRAY_SCENARIOS.contains(&scenario) {
                gray_networks.insert(network);
                gray_cells += 1;
            }
        }
        assert!(loaded > 0, "{name}: no *_under_load cells");
        assert!(
            gray_networks.len() >= min_gray_networks && gray_cells >= min_gray_cells,
            "{name}: the gray family ran {gray_cells} cells on {gray_networks:?}"
        );
    }
}
