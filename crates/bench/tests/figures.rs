//! The paper-figure path under the byte-identity contract: `renaissance-fig --all` at a
//! small fixed scale must print exactly the committed `BENCH_figures.txt`, the same
//! bytes at `--threads 1` and `--threads 4`, the command line must fail before any run
//! on a typo, and the registry, `--help` and the README table must name the same
//! figures in the same order.
//!
//! Every number the binary prints is simulated and deterministic for equal flags, so
//! "equal to the committed text" is an exact statement, like the campaign baselines.

mod common;

use renaissance_bench::figures::FIGURES;
use std::path::PathBuf;
use std::process::{Command, Output};

/// The command (after the binary name) whose stdout `BENCH_figures.txt` holds.
const GOLDEN_ARGS: [&str; 5] = ["--all", "--runs", "1", "--networks", "B4,Clos"];

fn repo_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// A scratch path that does not collide across parallel test runs.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("renaissance_fig_{}_{name}", std::process::id()))
}

fn fig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_renaissance-fig"))
        .args(args)
        .output()
        .expect("spawn renaissance-fig")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn all_figures_match_the_committed_golden() {
    let output = fig(&GOLDEN_ARGS);
    assert!(output.status.success(), "{}", text(&output.stderr));
    let regenerate = format!(
        "cargo run --release -p renaissance-bench --bin renaissance-fig -- {} > BENCH_figures.txt",
        GOLDEN_ARGS.join(" ")
    );
    common::assert_equals_committed(&text(&output.stdout), "BENCH_figures.txt", &regenerate);
}

#[test]
fn all_figures_print_the_same_bytes_at_one_and_four_threads() {
    // Two runs per cell give the worker pool something to reorder; fig15/16 carry the
    // flow engine's FCT columns, so this also covers the engine under the parallel merge.
    let tables = ["1", "4"].map(|threads| {
        let args = [
            "--all",
            "--runs",
            "2",
            "--networks",
            "B4",
            "--task-delay-ms",
            "5000",
        ];
        let output = fig(&[&args[..], &["--threads", threads]].concat());
        assert!(output.status.success(), "{}", text(&output.stderr));
        text(&output.stdout)
    });
    assert!(tables[0].contains("Figure 15"), "{}", tables[0]);
    assert_eq!(tables[0], tables[1], "--threads 1 vs --threads 4");
}

#[test]
fn an_unknown_figure_id_exits_2_and_lists_the_known_ones() {
    let output = fig(&["fig05", "fig99"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "nothing may run before the error");
    let stderr = text(&output.stderr);
    assert!(
        stderr.starts_with("error: unknown figure 'fig99'"),
        "{stderr}"
    );
    for figure in FIGURES {
        assert!(
            stderr.contains(figure.id),
            "{} not listed: {stderr}",
            figure.id
        );
    }
}

#[test]
fn a_networks_typo_exits_2_before_any_run() {
    let out = scratch("typo.jsonl");
    let output = fig(&[
        "fig05",
        "--networks",
        "B4,Foo",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = text(&output.stderr);
    assert!(
        stderr.starts_with("error: unknown network 'Foo'"),
        "{stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "B4 ran before the typo was reported"
    );
    assert!(
        !out.exists(),
        "--out was created before the typo was reported"
    );

    // Zero is refused like any other invalid value, not clamped to 1.
    for flag in ["--runs", "--threads", "--task-delay-ms"] {
        let output = fig(&["fig05", flag, "0"]);
        assert_eq!(output.status.code(), Some(2), "{flag} 0");
        let stderr = text(&output.stderr);
        assert!(
            stderr.contains(&format!("invalid value '0' for {flag}")),
            "{stderr}"
        );
    }
}

#[test]
fn all_is_the_per_id_runs_in_registry_order() {
    // Any scale shows it; a long task delay makes the non-adaptive ablation's run to
    // its timeout cheap, so this one stays in the seconds.
    let scale = ["--runs", "1", "--networks", "B4", "--task-delay-ms", "5000"];
    let run = |selection: &str, out: &PathBuf| {
        let mut args = vec![selection, "--out", out.to_str().unwrap()];
        args.extend(scale);
        let output = fig(&args);
        assert!(
            output.status.success(),
            "{selection}: {}",
            text(&output.stderr)
        );
        let records = std::fs::read(out).expect("read --out file");
        let _ = std::fs::remove_file(out);
        (output.stdout, records)
    };
    let (all_stdout, all_records) = run("--all", &scratch("all.jsonl"));
    let mut stdout = Vec::new();
    let mut records = Vec::new();
    for figure in FIGURES {
        let (figure_stdout, figure_records) = run(figure.id, &scratch(figure.id));
        assert!(!figure_records.is_empty(), "{} recorded nothing", figure.id);
        stdout.extend(figure_stdout);
        records.extend(figure_records);
    }
    assert_eq!(text(&all_records), text(&records), "--out record stream");
    assert_eq!(text(&all_stdout), text(&stdout), "stdout tables");
    // A record's scope names the full configuration it measured.
    for scope in ["B4/c=3/task=5000ms", "B4/c=3/links(1)"] {
        let field = format!("{{\"scope\":\"{scope}\",");
        assert!(text(&all_records).contains(&field), "no {scope} record");
    }
}

#[test]
fn registry_help_and_readme_name_the_same_figures() {
    let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), FIGURES.len(), "duplicate figure id");

    let output = fig(&["--help"]);
    assert!(output.status.success());
    let help = text(&output.stdout);
    for figure in FIGURES {
        let line = format!("  {:<9} {}", figure.id, figure.about);
        assert!(help.contains(&line), "--help lacks `{line}`");
    }

    // README's table is the registry, row for row: `| `id` | one-liner |`.
    let readme = std::fs::read_to_string(repo_file("README.md")).expect("read README");
    let section = readme
        .split("## Reproducing the paper's figures")
        .nth(1)
        .expect("README section")
        .split("\n## ")
        .next()
        .unwrap_or_default();
    let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
    let expected: Vec<String> = FIGURES
        .iter()
        .map(|f| format!("| `{}` | {} |", f.id, f.about))
        .collect();
    assert_eq!(rows, expected, "README figure table vs figures::FIGURES");
}
