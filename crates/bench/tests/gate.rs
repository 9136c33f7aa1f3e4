//! The scale campaign's artifacts are byte-identical contracts. A committed
//! `BENCH_scale*.json` is accepted only if the tier that wrote it writes the same
//! bytes again, and since an artifact holds one result cell per line, `git diff` of it
//! is the per-cell delta.
//!
//! The campaign's metrics are simulated quantities, deterministic for equal seeds, so
//! "equal to the artifact the same command wrote" is an exact statement, not a
//! tolerance. This file runs the campaign in-process through
//! `renaissance_bench::campaign`: it holds the smoke tier to its committed file, each
//! tier's cell table to its committed artifact, and a small run's bytes to the thread
//! count and its CSV. Only the flag/environment check and the two-tier refusal spawn
//! the `scale_campaign` binary.

mod common;

use renaissance_bench::campaign::{self, Scenario, Tier};
use renaissance_bench::ExperimentScale;
use sdn_metrics::json::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

/// Every tier, each with its committed artifact ([`Tier::default_out`]).
const TIERS: [Tier; 3] = [Tier::Smoke, Tier::Full, Tier::Large];

/// The command that regenerates a tier's committed artifact.
fn regenerate(tier: Tier) -> String {
    let flag = match tier {
        Tier::Smoke => " -- --smoke",
        Tier::Full => "",
        Tier::Large => " -- --large",
    };
    format!("cargo run --release -p renaissance-bench --bin scale_campaign{flag}")
}

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

/// The small campaign the flag, thread and CSV checks run: the smoke tier on
/// `grid(3, 3)`, as `--smoke --networks "grid(3, 3)"` plus the given flags sets it.
fn small(seed: Option<u64>, runs: Option<usize>, threads: usize) -> ExperimentScale {
    let mut scale = ExperimentScale {
        networks: vec!["grid(3, 3)".to_string()],
        seed,
        threads: Some(threads),
        ..Tier::Smoke.scale()
    };
    if let Some(runs) = runs {
        scale.runs = runs;
    }
    scale
}

/// The CSV of `--smoke --networks "grid(3, 3)" --seed 77 --runs 2 --format csv`, as
/// the campaign wrote it before it became a library.
const SMALL_CSV: &str = r#"scope,metric,unit,n,mean,stddev,min,p50,p90,p99,max
"grid(3, 3)/bootstrap",scenario/bootstrap_s,s,2,0.75,0,0.75,0.75,0.75,0.75,0.75
"grid(3, 3)/bootstrap",scenario/sim_end_s,s,2,0.75,0,0.75,0.75,0.75,0.75,0.75
"grid(3, 3)/bootstrap",network/messages_sent,count,2,356,0,356,356,356,356,356
"grid(3, 3)/controller_failure",scenario/bootstrap_s,s,2,0.75,0,0.75,0.75,0.75,0.75,0.75
"grid(3, 3)/controller_failure",scenario/recovery_s,s,2,0.5,0,0.5,0.5,0.5,0.5,0.5
"grid(3, 3)/controller_failure",scenario/sim_end_s,s,2,1.25,0,1.25,1.25,1.25,1.25,1.25
"grid(3, 3)/controller_failure",network/messages_sent,count,2,629.5,21.920310216782973,614,614,645,645,645
"grid(3, 3)/midpath_link_failure",scenario/bootstrap_s,s,2,0.75,0,0.75,0.75,0.75,0.75,0.75
"grid(3, 3)/midpath_link_failure",scenario/recovery_s,s,2,0.25,0,0.25,0.25,0.25,0.25,0.25
"grid(3, 3)/midpath_link_failure",scenario/sim_end_s,s,2,1,0,1,1,1,1,1
"grid(3, 3)/midpath_link_failure",network/messages_sent,count,2,560,28.284271247461902,540,540,580,580,580
"#;

/// The digest statistics a CSV row and an artifact cell both carry, in CSV order.
const STATS: [&str; 8] = ["n", "mean", "stddev", "min", "p50", "p90", "p99", "max"];

#[test]
fn small_campaign_is_thread_independent_and_its_csv_matches_its_json() {
    // Runs are merged in seed order, so the thread count is not an input.
    let one = campaign::run(Tier::Smoke, &small(Some(77), Some(2), 1));
    let four = campaign::run(Tier::Smoke, &small(Some(77), Some(2), 4));
    assert_eq!(four.json(), one.json(), "JSON differs across thread counts");
    assert_eq!(four.csv(), one.csv(), "CSV differs across thread counts");
    assert_eq!(one.csv(), SMALL_CSV, "the campaign's CSV moved");

    // Every CSV row is the digest its cell carries in the JSON artifact.
    let doc = Json::parse(&one.json()).expect("parse the artifact");
    let cells = doc
        .get("results")
        .and_then(Json::as_array)
        .unwrap_or_default();
    let csv = one.csv();
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert!(!rows.is_empty());
    for row in rows {
        // The scope is quoted (it holds the spec's commas); the rest is plain.
        let (scope, rest) = row[1..].split_once("\",").expect("a quoted scope");
        let fields: Vec<&str> = rest.split(',').collect();
        let (metric, numbers) = (fields[0], &fields[2..]);
        assert_eq!(numbers.len(), STATS.len(), "{row}");
        let cell = cells
            .iter()
            .find(|c| {
                let field = |k| c.get(k).and_then(Json::as_str).unwrap_or_default();
                format!("{}/{}", field("spec"), field("scenario")) == scope
            })
            .unwrap_or_else(|| panic!("no cell for {scope}"));
        let name = metric.rsplit('/').next().unwrap_or_default();
        let digest = cell
            .get(name)
            .unwrap_or_else(|| panic!("{scope}: the cell has no {name}"));
        for (stat, number) in STATS.iter().zip(numbers) {
            assert_eq!(
                digest.get(stat).and_then(Json::as_f64),
                number.parse::<f64>().ok(),
                "{scope} {name}.{stat}"
            );
        }
    }
}

/// Runs the scale campaign with `args` and `env` on top of a clean environment and
/// returns (exit code, stdout).
fn spawn_campaign(args: &[&str], env: &[(&str, &str)]) -> (i32, String) {
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

/// The binary's artifact for `--smoke --networks "grid(3, 3)"` plus `args`.
fn spawned_artifact(name: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let out = scratch(name);
    let mut all = vec![
        "--smoke",
        "--networks",
        "grid(3, 3)",
        "--out",
        out.to_str().unwrap(),
    ];
    all.extend(args);
    let (code, stdout) = spawn_campaign(&all, env);
    assert_eq!(code, 0, "campaign run failed:\n{stdout}");
    let text = std::fs::read_to_string(&out).expect("read artifact");
    let _ = std::fs::remove_file(&out);
    text
}

#[test]
fn campaign_artifact_is_a_function_of_the_flags() {
    // The flags set exactly what the library runs with.
    let flags = [
        "--seed",
        "77",
        "--runs",
        "2",
        "--threads",
        "2",
        "--format",
        "csv",
    ];
    let csv = spawned_artifact("flags.csv", &flags, &[]);
    let in_process = campaign::run(Tier::Smoke, &small(Some(77), Some(2), 2)).csv();
    assert_eq!(csv, in_process, "--seed/--runs/--networks --format csv");

    // Without --seed or --runs, variables named after the flags change nothing.
    let from_env = spawned_artifact("from_env.json", &["--threads", "2"], &FLAG_NAMED_ENV);
    let in_process = campaign::run(Tier::Smoke, &small(None, None, 2)).json();
    assert_eq!(from_env, in_process, "environment leaked in");
}

#[test]
fn two_tiers_at_once_are_refused_before_any_run() {
    let out = scratch("two_tiers.json");
    let args = ["--smoke", "--large", "--out", out.to_str().unwrap()];
    let (code, stdout) = spawn_campaign(&args, &[]);
    assert_eq!(code, 2, "--smoke --large must exit 2:\n{stdout}");
    assert!(stdout.is_empty(), "a tier ran:\n{stdout}");
    assert!(!out.exists(), "an artifact was written");
}

/// A committed tier baseline is what its campaign writes today, byte for byte: the
/// artifact holds only simulated quantities, so any difference is a change of
/// simulated behaviour (or of the artifact's layout) that the PR has to own.
fn tier_reproduces_the_committed_baseline(tier: Tier) {
    let current = campaign::run(tier, &tier.scale()).json();
    common::assert_equals_committed(&current, tier.default_out(), &regenerate(tier));
}

#[test]
fn smoke_campaign_reproduces_the_committed_baseline() {
    tier_reproduces_the_committed_baseline(Tier::Smoke);
}

#[test]
#[ignore = "about a minute in release: cargo test --release -p renaissance-bench --test gate -- --ignored"]
fn large_campaign_reproduces_the_committed_baseline() {
    tier_reproduces_the_committed_baseline(Tier::Large);
}

/// Runs nothing: each tier's cell table and defaults are what its committed artifact
/// says, so editing a tier without regenerating its artifact fails here, including
/// the full and large tiers that tier-1 never runs.
#[test]
fn each_tier_registry_matches_its_committed_artifact() {
    for tier in TIERS {
        let name = tier.default_out();
        let doc = Json::parse(&common::read_committed(name))
            .unwrap_or_else(|e| panic!("parse {name}: {e}"));
        let scale = tier.scale();
        let config = |key| doc.get("config").and_then(|c| c.get(key));
        assert_eq!(
            doc.get("tier").and_then(Json::as_str),
            Some(tier.name()),
            "{name}"
        );
        assert_eq!(
            config("runs").and_then(Json::as_u64),
            Some(scale.runs as u64),
            "{name} runs"
        );
        assert_eq!(
            config("seed").and_then(Json::as_str),
            Some(campaign::SEED.to_string().as_str()),
            "{name} seed"
        );
        assert_eq!(
            config("task_delay_ms").and_then(Json::as_f64),
            Some(scale.task_delay.as_secs_f64() * 1e3),
            "{name} task_delay_ms"
        );
        let committed: Vec<(&str, &str)> = doc
            .get("results")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|cell| {
                let field = |k| cell.get(k).and_then(Json::as_str).unwrap_or_default();
                (field("spec"), field("scenario"))
            })
            .collect();
        let cells = campaign::cells(tier, &scale.networks);
        let registry: Vec<(&str, &str)> = cells
            .iter()
            .map(|cell| (cell.spec.as_str(), cell.scenario.name()))
            .collect();
        assert_eq!(
            committed,
            registry,
            "{name} holds other cells than the {} tier runs; regenerate it:\n  {}",
            tier.name(),
            regenerate(tier)
        );
    }
}

/// What every committed tier must say, beyond being reproducible: one result cell
/// per line, every cell converged, every under-load cell completed flows, the gray
/// cells carry their dedicated metrics, and the gray family runs on enough networks.
/// The large tier runs it on one network only.
#[test]
fn committed_artifacts_hold_the_campaign_invariants() {
    let gray: Vec<&str> = Scenario::GRAY.iter().map(|s| s.name()).collect();
    for (tier, min_gray_networks, min_gray_cells) in
        [(Tier::Smoke, 2, 8), (Tier::Full, 2, 8), (Tier::Large, 1, 4)]
    {
        let name = tier.default_out();
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
            if gray.contains(&scenario) {
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
