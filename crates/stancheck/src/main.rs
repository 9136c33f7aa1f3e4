//! The `sdn-stancheck` command-line entry point.
//!
//! ```text
//! sdn-stancheck [OPTIONS] [PATHS...]
//!
//!   --root DIR     workspace root (default: discovered from the working directory)
//!   --json         print the JSON report to stdout (human summary moves to stderr)
//!   --out PATH     also write the JSON report to PATH
//!   --list-rules   print the rule table and exit
//!   PATHS...       explicit files or directories to scan instead of the workspace
//!
//! exit status: 0 = no unwaived findings, 1 = unwaived findings, 2 = usage/IO error
//! ```

use sdn_stancheck::{analyze_files, walk, Report, Severity, RULES};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: Option<PathBuf>,
    json: bool,
    out: Option<PathBuf>,
    list_rules: bool,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: false,
        out: None,
        list_rules: false,
        paths: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let value = args.next().ok_or("--root needs a directory argument")?;
                opts.root = Some(PathBuf::from(value));
            }
            "--json" => opts.json = true,
            "--out" => {
                let value = args.next().ok_or("--out needs a file argument")?;
                opts.out = Some(PathBuf::from(value));
            }
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => {
                println!(
                    "sdn-stancheck: static determinism guard for the Renaissance workspace\n\n\
                     usage: sdn-stancheck [--root DIR] [--json] [--out PATH] [--list-rules] [PATHS...]\n\n\
                     Scans every Rust source in the workspace (or just PATHS) for determinism\n\
                     hazards. Suppress a finding with an auditable inline waiver:\n\n\
                     \t// stancheck: allow(<rule>) — <written justification>\n\n\
                     exit status: 0 clean, 1 unwaived findings, 2 usage/IO error"
                );
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("sdn-stancheck: {message}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in &RULES {
            println!(
                "{:18} [{}] {}",
                rule.id,
                rule.severity.label(),
                rule.summary
            );
        }
        return ExitCode::SUCCESS;
    }

    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| walk::find_workspace_root(&cwd))
    }) {
        Some(root) => root,
        None => {
            eprintln!("sdn-stancheck: no workspace root found (pass --root DIR)");
            return ExitCode::from(2);
        }
    };

    let files = if opts.paths.is_empty() {
        match walk::workspace_files(&root) {
            Ok(files) => files,
            Err(err) => {
                eprintln!("sdn-stancheck: cannot walk {}: {err}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        let mut files = Vec::new();
        for path in &opts.paths {
            let path = if path.is_absolute() {
                path.clone()
            } else {
                root.join(path)
            };
            if path.is_dir() {
                // Explicit directories are scanned in full — including fixture dirs
                // the workspace walk skips, so `sdn-stancheck crates/stancheck/fixtures/bad`
                // shows the corpus failing.
                match collect_all(&path) {
                    Ok(mut found) => files.append(&mut found),
                    Err(err) => {
                        eprintln!("sdn-stancheck: cannot walk {}: {err}", path.display());
                        return ExitCode::from(2);
                    }
                }
            } else {
                files.push(path);
            }
        }
        files.sort();
        files
    };

    let report = analyze_files(&root, &files);

    if let Some(out_path) = &opts.out {
        if let Err(err) = std::fs::write(out_path, report.to_json()) {
            eprintln!("sdn-stancheck: cannot write {}: {err}", out_path.display());
            return ExitCode::from(2);
        }
    }
    if opts.json {
        print!("{}", report.to_json());
        let _ = print_human(&mut std::io::stderr(), &report);
    } else {
        let _ = print_human(&mut std::io::stdout(), &report);
    }

    if report.unwaived_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Collects every `.rs` under `dir` with no skip list (explicit-path mode).
fn collect_all(dir: &std::path::Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            out.append(&mut collect_all(&path)?);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(out)
}

fn print_human(to: &mut dyn Write, report: &Report) -> std::io::Result<()> {
    let mut unwaived = 0usize;
    let mut errors = 0usize;
    for f in &report.findings {
        if f.waived {
            continue;
        }
        unwaived += 1;
        if f.severity == Severity::Error {
            errors += 1;
        }
        writeln!(
            to,
            "{}:{}: [{}] {}: {}",
            f.file,
            f.line,
            f.severity.label(),
            f.rule,
            f.message
        )?;
    }
    let waived = report.waived_count();
    if waived > 0 {
        writeln!(to, "{waived} finding(s) suppressed by justified waivers:")?;
        for f in report.findings.iter().filter(|f| f.waived) {
            writeln!(
                to,
                "  {}:{}: {} — {}",
                f.file,
                f.line,
                f.rule,
                f.waiver_reason.as_deref().unwrap_or("")
            )?;
        }
    }
    writeln!(
        to,
        "stancheck: {} file(s), {} unwaived finding(s) ({} error, {} warning), {} waived",
        report.files_scanned,
        unwaived,
        errors,
        unwaived - errors,
        waived
    )?;
    Ok(())
}
