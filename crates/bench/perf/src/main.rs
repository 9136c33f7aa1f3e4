//! `renaissance-perf` — the repository's benchmark. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! renaissance-perf                         every workload, untraced then traced
//! renaissance-perf --selfcheck             the same twice, compared
//! renaissance-perf --workload W --seed N --seconds S --trace 0|1
//!                                          one workload; last stdout line is the
//!                                          JSON result the benchmark driver reads
//! ```

mod fingerprint;
mod json;
mod ledger;
mod probes;
mod run;
mod serve;
mod sim;
mod spec;
mod stats;
mod suite;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: renaissance-perf [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--selfcheck] [--describe]
  without --workload: runs every workload untraced, then traced, and prints every metric
  --workload NAME     one workload only; the last stdout line is the JSON result
  --seed N            base run seed (default 1000); run i of a sample uses N+i
  --seconds S         measuring time (default 15); sets the number of timed samples
  --trace 0|1         0: end-to-end metrics; 1: per-layer metrics and trace.json
  --quick             every workload at about a tenth of the size — smoke use only
  --selfcheck         two full sets back to back, compared against the bounds
  --describe          print the declarations as the BENCHMARK.json document and exit";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    selfcheck: bool,
    describe: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1000,
        seconds: 15.0,
        traced: false,
        quick: false,
        selfcheck: false,
        describe: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--describe" => args.describe = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("renaissance-perf: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let size = if args.quick {
        workloads::Size::Quick
    } else {
        workloads::Size::Full
    };
    let passed = match args.workload {
        Some(workload) => run::run(&run::Request {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            size,
            process_start,
        })
        .map(|outcome| {
            print!("{}", outcome.render());
            outcome.failures.is_empty()
        }),
        None => suite::run(&suite::Options {
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            selfcheck: args.selfcheck,
        }),
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("renaissance-perf: {message}");
            ExitCode::from(1)
        }
    }
}
