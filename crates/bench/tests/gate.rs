//! End-to-end test of the scale campaign's baseline regression gate: the binary must
//! exit zero when the fresh artifact matches the baseline and nonzero when a gated
//! metric regressed past `--gate` — and the smoke tier must still write the committed
//! `BENCH_scale_smoke.json`.
//!
//! The campaign's gated metrics are simulated quantities, deterministic for equal
//! seeds, so "no regression against an artifact produced by the same command" is an
//! exact statement, not a tolerance.

mod common;

use sdn_metrics::json::Json;
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

/// Runs the scale campaign's smoke tier with `args` and `env` on top of a clean
/// environment and returns (exit code, stdout).
fn campaign(args: &[&str], env: &[(&str, &str)]) -> (i32, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_scale_campaign"));
    for (name, _) in FLAG_NAMED_ENV {
        command.env_remove(name);
    }
    let output = command
        .arg("--smoke")
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn scale_campaign");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// Runs the scale campaign on one tiny network and returns (exit code, stdout).
fn run_campaign(extra: &[&str]) -> (i32, String) {
    let mut args = vec!["--networks", "grid(3, 3)", "--seed", "77", "--runs", "1"];
    args.extend(extra);
    campaign(&args, &[])
}

#[test]
fn campaign_gate_passes_on_identical_baseline_and_fails_on_regression() {
    let baseline = scratch("baseline.json");
    let current = scratch("current.json");
    let doctored = scratch("doctored.json");
    let baseline_str = baseline.to_str().unwrap().to_string();

    // 1. Produce a baseline artifact.
    let (code, _) = run_campaign(&["--out", &baseline_str]);
    assert_eq!(code, 0, "baseline campaign run failed");

    // 2. The same command gated against its own artifact is clean: simulated metrics
    //    are deterministic for equal seeds.
    let (code, stdout) = run_campaign(&[
        "--out",
        current.to_str().unwrap(),
        "--baseline",
        &baseline_str,
        "--gate",
        "5",
    ]);
    assert_eq!(code, 0, "identical rerun tripped the gate:\n{stdout}");
    assert!(
        stdout.contains("OK — no gated metric regressed"),
        "{stdout}"
    );
    let delta = scratch("current.delta.json");
    assert!(delta.exists(), "delta report missing");
    // Not just gate-clean: the artifact holds no host time, so the two runs of the
    // same command wrote the same bytes.
    let read = |path: &PathBuf| std::fs::read(path).expect("read artifact");
    assert_eq!(read(&current), read(&baseline), "same command, same bytes");

    // The flags are the only input: without --seed, variables named after the flags
    // change nothing, and neither does the thread count.
    let from_env = scratch("from_env.json");
    let flags = ["--networks", "grid(3, 3)", "--threads", "2", "--out"];
    for (out, env) in [(&current, &[][..]), (&from_env, &FLAG_NAMED_ENV[..])] {
        let mut args = flags.to_vec();
        args.push(out.to_str().unwrap());
        let (code, _) = campaign(&args, env);
        assert_eq!(code, 0, "seedless campaign run failed");
    }
    assert_eq!(read(&from_env), read(&current), "environment leaked in");

    // 3. Doctor the baseline so the current run looks 10x slower to bootstrap, then
    //    verify the synthetic regression makes the campaign exit nonzero.
    let text = std::fs::read_to_string(&baseline).expect("read baseline");
    let mut doc = Json::parse(&text).expect("parse baseline");
    shrink_bootstrap_means(&mut doc, 10.0);
    std::fs::write(&doctored, format!("{doc}\n")).expect("write doctored baseline");
    let (code, stdout) = run_campaign(&[
        "--out",
        current.to_str().unwrap(),
        "--baseline",
        doctored.to_str().unwrap(),
        "--gate",
        "25",
    ]);
    assert_eq!(code, 1, "synthetic regression must exit nonzero:\n{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("bootstrap_s"), "{stdout}");

    for path in [&baseline, &current, &doctored, &delta, &from_env] {
        let _ = std::fs::remove_file(path);
    }
}

/// The committed smoke baseline is what the smoke campaign writes today, byte for
/// byte: the artifact holds only simulated quantities, so any difference is a change
/// of simulated behaviour (or of the artifact's layout) that the PR has to own.
#[test]
fn smoke_campaign_reproduces_the_committed_baseline() {
    let out = scratch("smoke.json");
    let (code, stdout) = campaign(&["--out", out.to_str().unwrap()], &[]);
    assert_eq!(code, 0, "smoke campaign failed:\n{stdout}");
    let current = std::fs::read_to_string(&out).expect("read artifact");
    let _ = std::fs::remove_file(&out);
    common::assert_equals_committed(
        &current,
        "BENCH_scale_smoke.json",
        "cargo run --release -p renaissance-bench --bin scale_campaign -- --smoke",
    );
}

/// Divides every result cell's `bootstrap_s.mean` by `factor`, making a re-run of the
/// same command appear `factor`x slower than this baseline.
fn shrink_bootstrap_means(doc: &mut Json, factor: f64) {
    let Json::Obj(members) = doc else {
        panic!("artifact is not an object")
    };
    let results = members
        .iter_mut()
        .find(|(k, _)| k == "results")
        .map(|(_, v)| v)
        .expect("results array");
    let Json::Arr(cells) = results else {
        panic!("results is not an array")
    };
    let mut shrunk = 0;
    for cell in cells {
        let Json::Obj(cell_members) = cell else {
            continue;
        };
        let Some((_, bootstrap)) = cell_members.iter_mut().find(|(k, _)| k == "bootstrap_s") else {
            continue;
        };
        let Json::Obj(stats) = bootstrap else {
            continue;
        };
        if let Some((_, Json::Num(mean))) = stats.iter_mut().find(|(k, _)| k == "mean") {
            *mean /= factor;
            shrunk += 1;
        }
    }
    assert!(shrunk > 0, "no bootstrap_s.mean members found to doctor");
}
