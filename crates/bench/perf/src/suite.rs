//! The one command: every workload untraced for the end-to-end metrics, then once
//! more traced for the per-layer ledger — each in a child process of its own, run
//! one after the other, so `peak_rss_mb` belongs to a single workload and nothing
//! shares the two cores. `--selfcheck` does all of that twice and compares.

use crate::json::{self, Value};
use crate::spec::{self, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::Command;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub selfcheck: bool,
}

/// The parsed result line of one child, plus the fingerprint line before it.
struct Child {
    failed: u64,
    attempted: u64,
    values: BTreeMap<String, f64>,
    fingerprint: String,
}

/// One set: for each workload, `(untraced, traced)`.
type Set = Vec<(&'static str, Child, Child)>;

fn run_child(workload: &str, traced: bool, options: &Options) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if options.quick {
        command.arg("--quick");
    }
    for (key, value) in spec::ALLOCATOR_ENV {
        command.env(key, value);
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    let parsed = json::parse(result).map_err(|e| {
        format!(
            "the {workload} child (exit {:?}) printed no result line: {e}",
            output.status.code()
        )
    })?;
    let count = |key: &str| parsed.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let values = parsed
        .get("metrics")
        .map(Value::members)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let fingerprint = lines
        .iter()
        .find_map(|line| line.strip_prefix("sim_fingerprint "))
        .and_then(|rest| rest.split_whitespace().nth(1))
        .unwrap_or("")
        .to_string();
    Ok(Child {
        failed: count("failed"),
        attempted: count("attempted"),
        values,
        fingerprint,
    })
}

fn run_set(options: &Options) -> Result<Set, String> {
    spec::workload_names()
        .map(|workload| {
            let untraced = run_child(workload, false, options)?;
            let traced = run_child(workload, true, options)?;
            Ok((workload, untraced, traced))
        })
        .collect()
}

fn print_summary(set: &Set) {
    println!();
    println!(
        "{:<22}{:<38}{:>18}  {:<6}should move",
        "workload", "metric", "value", "unit"
    );
    for (workload, untraced, traced) in set {
        let rows = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, untraced.values.get(m.name), String::new()))
            .chain(PER_LAYER.iter().map(|m| {
                let moves: Vec<String> = m
                    .moves
                    .iter()
                    .map(|(metric, on)| format!("{metric}@{on}"))
                    .collect();
                (m.name, m.unit, traced.values.get(m.name), moves.join(" "))
            }));
        for (name, unit, value, moves) in rows {
            match value {
                Some(v) => println!("{workload:<22}{name:<38}{v:>18.6}  {unit:<6}{moves}"),
                None => println!("{workload:<22}{name:<38}{:>18}  {unit}", "missing"),
            }
        }
        println!(
            "{workload:<22}{:<38}{:>18}  count",
            "ops",
            untraced.attempted + traced.attempted
        );
        println!(
            "{workload:<22}{:<38}{:>18}  count",
            "failed_ops",
            untraced.failed + traced.failed
        );
        println!(
            "{workload:<22}{:<38}{:>18}",
            "sim_fingerprint", untraced.fingerprint
        );
    }
}

fn failed_ops(set: &Set) -> u64 {
    set.iter().map(|(_, u, t)| u.failed + t.failed).sum()
}

/// The end-to-end metrics of `b` that differ from `a` by more than their bound.
fn out_of_bound(a: &Child, b: &Child) -> Vec<String> {
    END_TO_END
        .iter()
        .filter_map(|m| {
            let (Some(a), Some(b)) = (a.values.get(m.name), b.values.get(m.name)) else {
                return Some(format!("{} is missing", m.name));
            };
            let diff = (b - a).abs() / a.abs();
            (diff.is_nan() || diff > m.bound).then(|| {
                format!(
                    "{} differs by {:.1}% (bound {:.0}%)",
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0
                )
            })
        })
        .collect()
}

/// Compares two sets of the same code. End-to-end metrics may differ by at most
/// their own bound; counts and fingerprints may not differ at all. A workload whose
/// timings disagree is measured a third time and passes if that run agrees with
/// either earlier one: a burst of host noise can cover one whole run, an unsteady
/// benchmark disagrees again.
fn compare(first: &Set, second: &Set, options: &Options) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    println!();
    println!(
        "{:<22}{:<16}{:>16}{:>16}{:>10}  bound",
        "workload", "metric", "first", "second", "diff"
    );
    for ((workload, u1, t1), (_, u2, t2)) in first.iter().zip(second) {
        for m in &END_TO_END {
            let a = u1.values.get(m.name).copied().unwrap_or(f64::NAN);
            let b = u2.values.get(m.name).copied().unwrap_or(f64::NAN);
            println!(
                "{workload:<22}{:<16}{a:>16.6}{b:>16.6}{:>9.2}%  {:.0}%",
                m.name,
                (b - a).abs() / a.abs() * 100.0,
                m.bound * 100.0
            );
        }
        let disagreements = out_of_bound(u1, u2);
        if !disagreements.is_empty() {
            println!(
                "selfcheck: {workload}: {}; measuring a third time",
                disagreements.join("; ")
            );
            let third = run_child(workload, false, options)?;
            if !out_of_bound(u1, &third).is_empty() && !out_of_bound(u2, &third).is_empty() {
                problems.extend(
                    disagreements
                        .iter()
                        .map(|d| format!("{workload}: {d}, and a third run agrees with neither")),
                );
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
            if t1.values.get(m.name) != t2.values.get(m.name) {
                problems.push(format!(
                    "{workload}: count {} differs: {:?} vs {:?}",
                    m.name,
                    t1.values.get(m.name),
                    t2.values.get(m.name)
                ));
            }
        }
        for (a, b) in [(u1, u2), (t1, t2)] {
            if a.fingerprint != b.fingerprint || a.fingerprint.is_empty() {
                problems.push(format!(
                    "{workload}: sim_fingerprint differs: `{}` vs `{}`",
                    a.fingerprint, b.fingerprint
                ));
            }
        }
    }
    Ok(problems)
}

/// Runs the suite; `Ok(true)` when no op failed and (with `--selfcheck`) the two
/// sets agree.
pub fn run(options: &Options) -> Result<bool, String> {
    let first = run_set(options)?;
    print_summary(&first);
    let mut ok = failed_ops(&first) == 0;
    if options.selfcheck {
        let second = run_set(options)?;
        print_summary(&second);
        ok &= failed_ops(&second) == 0;
        let problems = compare(&first, &second, options)?;
        for problem in &problems {
            println!("selfcheck: {problem}");
        }
        let verdict = if problems.is_empty() {
            "passed"
        } else {
            "FAILED"
        };
        println!("selfcheck: {verdict}");
        ok &= problems.is_empty();
    }
    Ok(ok)
}
