//! The shared command-line convention of every experiment binary.
//!
//! `renaissance-fig` and the `scale_campaign` accept the same core flags, so sweeping
//! seeds or scaling repetitions never requires editing a binary:
//!
//! | flag | meaning |
//! |------|---------|
//! | `--runs N` | repetitions per configuration |
//! | `--seed N` | base seed (run `i` uses `seed + i`) |
//! | `--networks A,B` | topology list (paper names or generator names like `fat_tree(8)`) |
//! | `--task-delay-ms N` | controller do-forever-loop delay |
//! | `--threads N` | scenario-runner worker threads |
//! | `--out PATH` | machine-readable results file |
//! | `--format json\|csv` | format of the `--out` file |
//! | `--help` | print usage and exit |
//!
//! The flags are the only input: no binary reads an environment variable. Flags take
//! their value as the next argument (`--runs 5`) or inline (`--runs=5`). A binary can
//! register extra flags (the scale campaign adds `--smoke` and `--large`;
//! `renaissance-fig` adds `--all`) and, by declaring a [`Flag`] whose
//! name is a placeholder such as `<id>...`, positional arguments. A bare word given
//! to a binary that declares none is a typo and fails like an unknown flag.

use std::collections::BTreeMap;

/// Description of one accepted flag, used for parsing and for `--help` output.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag including the leading dashes, e.g. `"--runs"` — or, without dashes, the
    /// placeholder (`"<id>..."`) under which the binary accepts positional arguments.
    pub name: &'static str,
    /// Placeholder for the value in `--help`; `None` for boolean switches.
    pub value_name: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
}

/// The flags every experiment binary accepts.
pub const COMMON_FLAGS: &[Flag] = &[
    Flag {
        name: "--runs",
        value_name: Some("N"),
        help: "repetitions per configuration (default 3)",
    },
    Flag {
        name: "--seed",
        value_name: Some("N"),
        help: "base seed; run i uses seed+i (default per experiment)",
    },
    Flag {
        name: "--networks",
        value_name: Some("A,B"),
        help: "comma-separated topologies: B4,Clos,Telstra,AT&T,EBONE or fat_tree(8), jellyfish(100,4,7), grid(10,12)",
    },
    Flag {
        name: "--task-delay-ms",
        value_name: Some("N"),
        help: "controller do-forever-loop delay in milliseconds (default 500)",
    },
    Flag {
        name: "--threads",
        value_name: Some("N"),
        help: "scenario-runner worker threads (default: all cores)",
    },
    Flag {
        name: "--out",
        value_name: Some("PATH"),
        help: "write machine-readable results to PATH (per-sample metric records; \
               the scale campaign writes its BENCH artifact here instead)",
    },
    Flag {
        name: "--format",
        value_name: Some("F"),
        help: "output format for --out: json (default) or csv",
    },
];

/// Parsed command-line arguments: `--flag value` pairs, boolean switches, and
/// positional arguments in the order given.
#[derive(Clone, Debug, Default)]
pub struct CliArgs {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl CliArgs {
    /// The raw value of a flag, if it was passed.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// A flag value parsed to any `FromStr` type.
    ///
    /// # Panics
    ///
    /// Exits the process with an error message when the value does not parse — a CLI
    /// typo should fail loudly, not fall back silently.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|raw| match raw.parse() {
            Ok(v) => v,
            Err(_) => die(&format!("invalid value '{raw}' for {flag}")),
        })
    }

    /// Whether a boolean switch was passed.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// The positional arguments, in the order given.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

/// Parses `std::env::args` against the common flags plus `extra` binary-specific ones.
///
/// Handles `--help` (prints `about`, the flag table, and exits 0) and rejects unknown
/// flags or missing values (exits 2), so every binary's `--help` documents the same
/// convention.
pub fn parse(about: &str, extra: &[Flag]) -> CliArgs {
    parse_from(about, extra, std::env::args().skip(1))
}

fn parse_from(about: &str, extra: &[Flag], args: impl Iterator<Item = String>) -> CliArgs {
    let flags: Vec<Flag> = COMMON_FLAGS.iter().chain(extra).copied().collect();
    let mut parsed = CliArgs::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            print_help(about, &flags);
            std::process::exit(0);
        }
        if !arg.starts_with('-') && flags.iter().any(|f| !f.name.starts_with('-')) {
            parsed.positionals.push(arg);
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        let Some(flag) = flags.iter().find(|f| f.name == name) else {
            die(&format!("unknown argument '{name}' (try --help)"));
        };
        if flag.value_name.is_some() {
            let value = match inline {
                Some(v) => v,
                None => args
                    .next()
                    .unwrap_or_else(|| die(&format!("{name} requires a value"))),
            };
            parsed.values.insert(name, value);
        } else {
            if inline.is_some() {
                die(&format!("{name} does not take a value"));
            }
            parsed.switches.push(name);
        }
    }
    parsed
}

fn print_help(about: &str, flags: &[Flag]) {
    println!("{about}\n\nOptions:");
    for flag in flags {
        let left = match flag.value_name {
            Some(value) => format!("{} <{value}>", flag.name),
            None => flag.name.to_string(),
        };
        println!("  {left:<24} {}", flag.help);
    }
    println!("  {:<24} print this help", "--help");
}

/// Reports a command-line mistake and exits 2, before any run has started.
pub fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    const SMOKE: Flag = Flag {
        name: "--smoke",
        value_name: None,
        help: "tiny sizes",
    };

    #[test]
    fn parses_values_switches_and_inline_form() {
        let parsed = parse_from(
            "t",
            &[SMOKE],
            args(&[
                "--runs",
                "5",
                "--seed=9",
                "--networks",
                "B4,grid(3,4)",
                "--smoke",
            ]),
        );
        assert_eq!(parsed.parsed::<usize>("--runs"), Some(5));
        assert_eq!(parsed.parsed::<u64>("--seed"), Some(9));
        assert_eq!(parsed.value("--networks"), Some("B4,grid(3,4)"));
        assert!(parsed.switch("--smoke"));
        assert!(!parsed.switch("--other"));
        assert_eq!(parsed.value("--threads"), None);
    }

    #[test]
    fn positionals_keep_their_order_between_flags() {
        const IDS: Flag = Flag {
            name: "<id>...",
            value_name: None,
            help: "what to run",
        };
        let parsed = parse_from("t", &[IDS], args(&["fig10", "--runs", "2", "fig05"]));
        assert_eq!(parsed.positionals(), ["fig10", "fig05"]);
        assert_eq!(parsed.parsed::<usize>("--runs"), Some(2));
    }

    #[test]
    fn empty_args_parse_to_defaults() {
        let parsed = parse_from("t", &[], args(&[]));
        assert_eq!(parsed.parsed::<usize>("--runs"), None);
        assert!(!parsed.switch("--smoke"));
    }
}
