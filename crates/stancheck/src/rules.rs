//! The determinism-hazard rule set.
//!
//! Each rule is a token-level pattern plus an applicability predicate over the file's
//! crate and kind. Rules are deliberately conservative: they key on identifiers the
//! lexer guarantees are real code (not strings or comments), and scoping mistakes are
//! resolved toward *flagging* — a human then either fixes the hazard or writes a
//! justified waiver.

use crate::lexer::{Token, TokenKind};

/// How bad an unwaived finding is. Both severities fail the build; the split exists
/// so reports can rank determinism breakers above robustness and dead-code smells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Breaks seeded bit-identical reproduction (hash iteration, wall clock, ...).
    Error,
    /// Robustness hazard or dead public API in library code.
    Warning,
}

impl Severity {
    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// What kind of source file this is, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: `src/**` excluding binaries.
    Lib,
    /// A binary target (`src/bin/**` or `src/main.rs`).
    Bin,
    /// Integration tests (`tests/**`).
    Test,
    /// Benchmarks (`benches/**`).
    Bench,
    /// Examples (`examples/**`).
    Example,
    /// `build.rs`.
    Build,
}

impl FileKind {
    /// Label used in reports and fixture directives.
    pub fn label(self) -> &'static str {
        match self {
            FileKind::Lib => "lib",
            FileKind::Bin => "bin",
            FileKind::Test => "test",
            FileKind::Bench => "bench",
            FileKind::Example => "example",
            FileKind::Build => "build",
        }
    }

    /// Parses a fixture-directive label.
    pub fn from_label(label: &str) -> Option<FileKind> {
        Some(match label {
            "lib" => FileKind::Lib,
            "bin" => FileKind::Bin,
            "test" => FileKind::Test,
            "bench" => FileKind::Bench,
            "example" => FileKind::Example,
            "build" => FileKind::Build,
            _ => return None,
        })
    }
}

/// The crates whose code runs *inside* the simulation: a nondeterministic data
/// structure or clock here corrupts seeded results directly.
pub const SIMULATION_CRATES: [&str; 5] = ["core", "switch", "topology", "netsim", "traffic"];

/// Per-file analysis context: which crate the file belongs to, what kind it is, and
/// which top-level module (the first path segment under `src/`) it lives in.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate directory name (`core`, `bench`, ...) or `workspace` for the root facade.
    pub crate_name: String,
    /// Target kind.
    pub kind: FileKind,
    /// Top-level module under `src/` (`"transport"` for both `src/transport.rs` and
    /// `src/transport/mod.rs`; `"lib"` for `src/lib.rs`; empty outside `src/`).
    pub module: String,
}

impl FileContext {
    /// True when the file belongs to a simulation crate.
    pub fn is_simulation(&self) -> bool {
        SIMULATION_CRATES.contains(&self.crate_name.as_str())
    }

    /// True when wall-clock reads are sanctioned here: the benchmark package
    /// (`crates/bench/perf`, classified as crate `perf`; measuring wall time is its
    /// whole job — the experiment harness beside it in `crates/bench/src` is crate
    /// `bench` and reads no clock) and the serve crate's transport module, the one
    /// place where the long-running service is *supposed* to meet the host clock.
    /// The serve session/driver modules stay restricted — a clock read there would
    /// leak wall time into the replayable command log.
    pub fn allows_wall_clock(&self) -> bool {
        self.crate_name == "perf" || (self.crate_name == "serve" && self.module == "transport")
    }

    /// True when host-thread-identity APIs are a hazard here: the simulation crates
    /// (always were), plus the serve crate outside its transport module — the
    /// session driver must behave identically whether it is driven live from a
    /// server thread or re-executed single-threaded from a command log.
    pub fn restricts_thread_identity(&self) -> bool {
        self.is_simulation() || (self.crate_name == "serve" && self.module != "transport")
    }
}

/// One rule's static metadata.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id, used in reports and waiver comments.
    pub id: &'static str,
    /// Severity of findings.
    pub severity: Severity,
    /// One-line description for `--list-rules` and docs.
    pub summary: &'static str,
}

/// Every rule the analyzer knows, in report order.
pub const RULES: [Rule; 9] = [
    Rule {
        id: "hash-collections",
        severity: Severity::Error,
        summary: "HashMap/HashSet in a simulation crate: iteration order is \
                  nondeterministic; use BTreeMap/BTreeSet or a sorted Vec",
    },
    Rule {
        id: "wall-clock",
        severity: Severity::Error,
        summary: "SystemTime/Instant::now outside the benchmark package and serve's \
                  transport: wall-clock reads leak host timing into simulated results",
    },
    Rule {
        id: "env-read",
        severity: Severity::Error,
        summary: "env::var/var_os/vars anywhere: a run is a function of its flags; \
                  an environment read makes two equal commands differ",
    },
    Rule {
        id: "thread-identity",
        severity: Severity::Error,
        summary: "thread::current/ThreadId/available_parallelism in a simulation \
                  crate or serve's session/driver modules: thread identity or host \
                  core count feeding simulation logic breaks seed determinism",
    },
    Rule {
        id: "unordered-merge",
        severity: Severity::Error,
        summary: "par-style iteration (rayon et al.): parallel merges must be \
                  explicitly ordered; unordered reduction reorders floating-point \
                  and sequence results",
    },
    Rule {
        id: "unsafe-block",
        severity: Severity::Error,
        summary: "unsafe code: every crate in this workspace forbids it; any use \
                  needs an explicit audit trail",
    },
    Rule {
        id: "boxed-event-payload",
        severity: Severity::Error,
        summary: "Box in netsim library code: the event-dispatch path stores \
                  payloads in the slab arena and pooled buffers; a per-event heap \
                  allocation reintroduces the malloc traffic the calendar rewrite \
                  removed",
    },
    Rule {
        id: "unwrap-expect",
        severity: Severity::Warning,
        summary: "unwrap/expect in library (non-test, non-binary) code: panics in \
                  library paths abort whole campaigns; return errors or justify \
                  infallibility with a waiver",
    },
    Rule {
        id: "test-only-api",
        severity: Severity::Warning,
        summary: "pub/pub(crate) fn, const, static, struct, enum, type or trait in \
                  library code that no production token names (whole-workspace scans \
                  only): callers are the item's own file, library code, binaries, \
                  examples and every token of the benchmark package; tests and docs \
                  are not. Delete it, or waive it as a test's reference \
                  implementation, a transient-fault hook, API named in README or a \
                  crate doc example, or API awaiting a ROADMAP decision",
    },
];

/// Looks up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One raw finding (before waiver resolution).
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// The rule that fired.
    pub rule: &'static Rule,
    /// 1-based source line.
    pub line: u32,
    /// Human-oriented message naming the exact token that triggered.
    pub message: String,
}

/// Identifiers whose presence alone constitutes an unordered-merge hazard.
const PAR_IDENTS: [&str; 6] = [
    "rayon",
    "par_iter",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "par_extend",
];

/// Runs every per-file rule over a lexed token stream (`test-only-api` is the
/// cross-file pass in [`crate::callers`]).
///
/// `mask[i]` marks tokens inside test-only scopes (see [`crate::scope::test_mask`]);
/// most rules skip those.
pub fn scan(tokens: &[Token<'_>], mask: &[bool], ctx: &FileContext) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    let in_test_target = matches!(
        ctx.kind,
        FileKind::Test | FileKind::Bench | FileKind::Example
    );
    for (i, token) in tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident {
            continue;
        }
        let in_test = mask[i] || in_test_target;
        match token.text {
            "HashMap" | "HashSet" if ctx.is_simulation() && !in_test => {
                findings.push(finding(
                    "hash-collections",
                    token.line,
                    format!(
                        "`{}` in simulation crate `{}`: iteration order varies per \
                         process; use BTreeMap/BTreeSet or a Vec sorted on a stable key",
                        token.text, ctx.crate_name
                    ),
                ));
            }
            "SystemTime" if !ctx.allows_wall_clock() && !in_test => {
                findings.push(finding(
                    "wall-clock",
                    token.line,
                    format!(
                        "`SystemTime` in crate `{}`: simulated code must derive time \
                         from the simulator clock, not the host",
                        ctx.crate_name
                    ),
                ));
            }
            "Instant"
                if !ctx.allows_wall_clock()
                    && !in_test
                    && next_is(tokens, i, &[":", ":", "now"]) =>
            {
                findings.push(finding(
                    "wall-clock",
                    token.line,
                    format!(
                        "`Instant::now` in crate `{}`: wall-clock timing belongs in \
                         the benchmark package or serve's transport",
                        ctx.crate_name
                    ),
                ));
            }
            "env"
                if ["var", "var_os", "vars", "vars_os"]
                    .iter()
                    .any(|read| next_is(tokens, i, &[":", ":", read])) =>
            {
                findings.push(finding(
                    "env-read",
                    token.line,
                    format!(
                        "`env::{}` in crate `{}`: inputs come from flags (or \
                         `ScenarioBuilder` calls), never from the environment",
                        tokens[i + 3].text,
                        ctx.crate_name
                    ),
                ));
            }
            "available_parallelism" | "ThreadId" if ctx.restricts_thread_identity() && !in_test => {
                findings.push(finding(
                    "thread-identity",
                    token.line,
                    format!(
                        "`{}` in crate `{}`: host core count / thread identity must \
                         never influence simulated behavior",
                        token.text, ctx.crate_name
                    ),
                ));
            }
            "thread"
                if ctx.restricts_thread_identity()
                    && !in_test
                    && next_is(tokens, i, &[":", ":", "current"]) =>
            {
                findings.push(finding(
                    "thread-identity",
                    token.line,
                    format!(
                        "`thread::current` in crate `{}`: thread identity feeding \
                         simulation logic breaks seed determinism",
                        ctx.crate_name
                    ),
                ));
            }
            t if PAR_IDENTS.contains(&t) && !in_test => {
                findings.push(finding(
                    "unordered-merge",
                    token.line,
                    format!(
                        "`{t}`: parallel iteration merges must be explicitly ordered \
                         (merge in seed/index order like the scenario runner does)"
                    ),
                ));
            }
            "unsafe" => {
                findings.push(finding(
                    "unsafe-block",
                    token.line,
                    "`unsafe` is forbidden across the workspace".to_string(),
                ));
            }
            "Box" if ctx.crate_name == "netsim" && ctx.kind == FileKind::Lib && !in_test => {
                findings.push(finding(
                    "boxed-event-payload",
                    token.line,
                    "`Box` in the netsim event-dispatch path: payloads live in the \
                     simulator's slab arena and pooled delivery buffers; allocate \
                     from the pool (or justify the indirection with a waiver)"
                        .to_string(),
                ));
            }
            "unwrap" | "expect"
                if ctx.kind == FileKind::Lib
                    && !mask[i]
                    && i > 0
                    && tokens[i - 1].text == "."
                    && next_is(tokens, i, &["("]) =>
            {
                findings.push(finding(
                    "unwrap-expect",
                    token.line,
                    format!(
                        "`.{}(...)` in library code: a panic here aborts the whole \
                         campaign; bubble an error or waive with the reason it cannot \
                         fail",
                        token.text
                    ),
                ));
            }
            _ => {}
        }
    }
    findings
}

pub(crate) fn finding(id: &str, line: u32, message: String) -> RawFinding {
    RawFinding {
        rule: rule_by_id(id).unwrap_or(&RULES[0]),
        line,
        message,
    }
}

/// True when the tokens after `i` match `expected` texts exactly.
fn next_is(tokens: &[Token<'_>], i: usize, expected: &[&str]) -> bool {
    expected
        .iter()
        .enumerate()
        .all(|(k, want)| matches!(tokens.get(i + 1 + k), Some(t) if t.text == *want))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_mask;

    fn scan_str(src: &str, crate_name: &str, kind: FileKind) -> Vec<RawFinding> {
        scan_str_in(src, crate_name, kind, "lib")
    }

    fn scan_str_in(src: &str, crate_name: &str, kind: FileKind, module: &str) -> Vec<RawFinding> {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        scan(
            &lexed.tokens,
            &mask,
            &FileContext {
                crate_name: crate_name.to_string(),
                kind,
                module: module.to_string(),
            },
        )
    }

    fn ids(findings: &[RawFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.id).collect()
    }

    #[test]
    fn hashmap_flagged_only_in_simulation_crates() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        assert_eq!(scan_str(src, "core", FileKind::Lib).len(), 3);
        assert!(scan_str(src, "bench", FileKind::Lib).is_empty());
        assert!(scan_str(src, "metrics", FileKind::Lib).is_empty());
    }

    #[test]
    fn hashmap_in_test_module_is_fine() {
        let src = "#[cfg(test)]\nmod tests { use std::collections::HashMap; fn f() { HashMap::<u8, u8>::new(); } }";
        assert!(scan_str(src, "core", FileKind::Lib).is_empty());
    }

    #[test]
    fn wall_clock_allows_bench_crate() {
        let src = "fn t() { let s = std::time::Instant::now(); }";
        assert_eq!(ids(&scan_str(src, "netsim", FileKind::Lib)), ["wall-clock"]);
        // The benchmark package (`perf`) measures host time; the experiment harness
        // (`bench`) it sits beside does not.
        assert!(scan_str(src, "perf", FileKind::Lib).is_empty());
        assert_eq!(ids(&scan_str(src, "bench", FileKind::Lib)), ["wall-clock"]);
        // `Instant` as a type alone (stored, compared) is not flagged — only `::now`.
        let stored = "struct S { at: Instant }";
        assert!(scan_str(stored, "netsim", FileKind::Lib).is_empty());
        // SystemTime is flagged on sight: there is no deterministic use for it.
        let sys = "fn t() -> SystemTime { unreachable!() }";
        assert_eq!(
            ids(&scan_str(sys, "metrics", FileKind::Lib)),
            ["wall-clock"]
        );
    }

    #[test]
    fn env_reads_flagged_everywhere() {
        let src = "fn f() { let _ = std::env::var(\"X\"); let _ = env::var_os(\"Y\"); }\n\
                   fn g() { for _ in std::env::vars() {} }";
        let rules = ["env-read", "env-read", "env-read"];
        assert_eq!(ids(&scan_str(src, "core", FileKind::Lib)), rules);
        assert_eq!(ids(&scan_str(src, "perf", FileKind::Bin)), rules);
        assert_eq!(ids(&scan_str(src, "bench", FileKind::Test)), rules);
        let in_test_mod = "#[cfg(test)]\nmod tests { fn f() { std::env::var(\"X\"); } }";
        assert_eq!(
            ids(&scan_str(in_test_mod, "metrics", FileKind::Lib)),
            ["env-read"]
        );
        // Arguments and compile-time `env!` are inputs a run is a function of.
        let legal = "fn f() { let _ = std::env::args(); let _ = env!(\"CARGO_MANIFEST_DIR\"); }";
        assert!(scan_str(legal, "core", FileKind::Lib).is_empty());
    }

    #[test]
    fn thread_identity_rules() {
        let src = "fn n() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }";
        assert_eq!(
            ids(&scan_str(src, "core", FileKind::Lib)),
            ["thread-identity"]
        );
        assert!(scan_str(src, "metrics", FileKind::Lib).is_empty());
        let cur = "fn id() { let t = thread::current().id(); }";
        assert_eq!(
            ids(&scan_str(cur, "core", FileKind::Lib)),
            ["thread-identity"]
        );
        // thread::scope / spawn are the *sanctioned* primitives.
        let scoped = "fn s() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert!(scan_str(scoped, "core", FileKind::Lib).is_empty());
    }

    #[test]
    fn serve_transport_is_the_only_serve_module_allowed_wall_clock() {
        let src = "fn t() { let s = std::time::Instant::now(); }";
        assert!(scan_str_in(src, "serve", FileKind::Lib, "transport").is_empty());
        assert_eq!(
            ids(&scan_str_in(src, "serve", FileKind::Lib, "session")),
            ["wall-clock"]
        );
        let sys = "fn t() -> SystemTime { unreachable!() }";
        assert!(scan_str_in(sys, "serve", FileKind::Lib, "transport").is_empty());
        assert_eq!(
            ids(&scan_str_in(sys, "serve", FileKind::Lib, "log")),
            ["wall-clock"]
        );
    }

    #[test]
    fn serve_restricts_thread_identity_outside_transport() {
        let cur = "fn id() { let t = thread::current().id(); }";
        assert_eq!(
            ids(&scan_str_in(cur, "serve", FileKind::Lib, "session")),
            ["thread-identity"]
        );
        assert!(scan_str_in(cur, "serve", FileKind::Lib, "transport").is_empty());
        // Non-serve, non-simulation crates stay unrestricted.
        assert!(scan_str(cur, "metrics", FileKind::Lib).is_empty());
    }

    #[test]
    fn par_idents_flagged_everywhere_outside_tests() {
        let src = "fn f(v: &[u32]) { v.par_iter().for_each(|_| {}); }";
        assert_eq!(
            ids(&scan_str(src, "metrics", FileKind::Lib)),
            ["unordered-merge"]
        );
    }

    #[test]
    fn unsafe_flagged_even_in_tests() {
        let src =
            "#[cfg(test)]\nmod tests { fn f() { unsafe { core::hint::unreachable_unchecked() } } }";
        assert_eq!(ids(&scan_str(src, "tags", FileKind::Lib)), ["unsafe-block"]);
    }

    #[test]
    fn unwrap_expect_only_in_lib_non_test() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\nfn g(r: Result<u32, ()>) -> u32 { r.expect(\"msg\") }";
        assert_eq!(
            ids(&scan_str(src, "metrics", FileKind::Lib)),
            ["unwrap-expect", "unwrap-expect"]
        );
        assert!(scan_str(src, "metrics", FileKind::Bin).is_empty());
        assert!(scan_str(src, "metrics", FileKind::Test).is_empty());
        // unwrap_or and friends are fine.
        let or = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(1) }";
        assert!(scan_str(or, "metrics", FileKind::Lib).is_empty());
        // A method *named* unwrap on a path (Self::unwrap) is not a `.unwrap()` call.
        let path = "fn f() { Wrapper::unwrap(w); }";
        assert!(scan_str(path, "metrics", FileKind::Lib).is_empty());
    }

    #[test]
    fn boxed_payload_only_in_netsim_lib() {
        let src = "pub struct Ev { body: Box<[u8]> }\nfn f() { let _ = Box::new(7u32); }";
        assert_eq!(
            ids(&scan_str(src, "netsim", FileKind::Lib)),
            ["boxed-event-payload", "boxed-event-payload"]
        );
        // Other crates and netsim's own tests/benches may box freely.
        assert!(scan_str(src, "core", FileKind::Lib).is_empty());
        assert!(scan_str(src, "netsim", FileKind::Test).is_empty());
        let in_test_mod = "#[cfg(test)]\nmod tests { fn f() { let _ = Box::new(1u8); } }";
        assert!(scan_str(in_test_mod, "netsim", FileKind::Lib).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"
            // HashMap SystemTime unsafe unwrap
            fn f() -> &'static str { "HashMap unsafe par_iter" }
        "#;
        assert!(scan_str(src, "core", FileKind::Lib).is_empty());
    }
}
