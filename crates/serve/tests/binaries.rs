//! The service binaries end to end. `service.rs` and `all_faults.rs` drive the
//! session and the HTTP surface in-process; this file covers what only the binaries
//! add: `sdn-serve`'s flag parsing and `--log`, the `sdn-serve-cli` client, and
//! `sdn-serve replay` of the log a live session wrote.

use sdn_metrics::json::Json;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const SERVE: &str = env!("CARGO_BIN_EXE_sdn-serve");
const CLI: &str = env!("CARGO_BIN_EXE_sdn-serve-cli");

/// A scratch path that does not collide across parallel test runs.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdn_serve_binaries_{}_{name}", std::process::id()))
}

/// Kills the server if the test panics before shutting it down.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One `sdn-serve-cli` call that must succeed; returns its stdout as JSON.
fn cli(addr: &str, args: &[&str]) -> Json {
    let out = Command::new(CLI)
        .args(["--addr", addr])
        .args(args)
        .output()
        .expect("spawn sdn-serve-cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sdn-serve-cli {args:?} failed: {}{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.trim()).unwrap_or_else(|e| panic!("{args:?}: bad JSON `{stdout}`: {e}"))
}

/// Polls `legitimacy` until the network is legitimate (bounded).
fn await_legitimate(addr: &str) {
    for _ in 0..2000 {
        let verdict = cli(addr, &["legitimacy"]);
        if verdict.get("legitimate").and_then(Json::as_bool) == Some(true) {
            return;
        }
        thread::sleep(Duration::from_millis(5));
    }
    panic!("network never became legitimate");
}

fn tick(ack: &Json) -> f64 {
    ack.get("tick")
        .and_then(Json::as_f64)
        .expect("ack carries the tick")
}

fn replay(log: &Path) -> Output {
    Command::new(SERVE)
        .arg("replay")
        .arg(log)
        .output()
        .expect("spawn sdn-serve replay")
}

#[test]
fn a_served_session_replays_byte_for_byte_and_a_tampered_log_is_refused() {
    let log = scratch("session.jsonl");
    let mut server = Running(
        Command::new(SERVE)
            .args(["serve", "--addr", "127.0.0.1:0", "--topology", "grid(2,3)"])
            .args(["--controllers", "2", "--seed", "42", "--tick-ms", "250"])
            .arg("--log")
            .arg(&log)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sdn-serve"),
    );
    // The bound port is only known from the `listening on` line.
    let stderr = server.0.stderr.take().expect("piped stderr");
    let (addr_tx, addr_rx) = mpsc::channel();
    let stderr = thread::spawn(move || {
        let mut rest = String::new();
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            match line.split_once("listening on http://") {
                Some((_, addr)) => addr_tx.send(addr.to_string()).expect("report address"),
                None => rest.push_str(&line),
            }
        }
        rest
    });
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("sdn-serve printed its address");

    cli(&addr, &["run"]);
    await_legitimate(&addr);
    // grid(2,3) with 2 controllers: switches 2..7, and 3-4 is a switch-switch link.
    cli(&addr, &["fault", r#"{"kind":"fail_link","a":3,"b":4}"#]);
    await_legitimate(&addr);
    cli(
        &addr,
        &[
            "flows",
            r#"{"pairs":16,"duration_ticks":10,"rate_per_tick":2.0}"#,
        ],
    );
    let paused = tick(&cli(&addr, &["pause"]));
    assert_eq!(tick(&cli(&addr, &["step", "5"])), paused + 5.0);
    assert_eq!(
        cli(&addr, &["node", "3"]).get("id").and_then(Json::as_f64),
        Some(3.0)
    );
    assert!(cli(&addr, &["log", "0", "10"]).get("lines").is_some());
    assert_eq!(tick(&cli(&addr, &["metrics"])), paused + 5.0);
    cli(&addr, &["shutdown"]);

    let mut report = String::new();
    let mut stdout = server.0.stdout.take().expect("piped stdout");
    stdout.read_to_string(&mut report).expect("read the report");
    assert!(server.0.wait().expect("wait for sdn-serve").success());
    let stderr = stderr.join().expect("stderr reader");
    assert!(stderr.contains("command log written to"), "{stderr}");

    let replayed = replay(&log);
    assert!(
        replayed.status.success(),
        "{}",
        String::from_utf8_lossy(&replayed.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&replayed.stdout), report);

    // One byte of the footer's recorded report changed: replay recomputes the
    // original and must refuse the log.
    let text = std::fs::read_to_string(&log).expect("read the log");
    let footer = text.trim_end().rfind('\n').map_or(0, |i| i + 1);
    assert!(text[footer..].starts_with(r#"{"kind":"final""#), "{text}");
    let at = text.rfind(|c: char| c.is_ascii_digit()).expect("a digit");
    assert!(at > footer);
    let digit = text.as_bytes()[at] - b'0';
    let mut edited = text.clone();
    edited.replace_range(at..=at, &((digit + 1) % 10).to_string());
    let tampered = scratch("tampered.jsonl");
    std::fs::write(&tampered, edited).expect("write the tampered log");
    let refused = replay(&tampered);
    let why = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(1), "{why}");
    assert!(why.contains("replay FAILED"), "{why}");

    // A header naming an unknown topology is refused before anything boots.
    let unknown = scratch("unknown.jsonl");
    std::fs::write(&unknown, text.replacen("grid(2,3)", "arpanet(3)", 1)).expect("write");
    let refused = replay(&unknown);
    let why = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(1), "{why}");
    assert!(why.contains("header: unknown topology"), "{why}");

    for path in [log, tampered, unknown] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn the_client_without_a_command_prints_the_usage() {
    for args in [&[][..], &["--addr", "127.0.0.1:9"][..]] {
        let out = Command::new(CLI)
            .args(args)
            .output()
            .expect("spawn sdn-serve-cli");
        let why = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {why}");
        assert!(why.contains("usage: sdn-serve-cli"), "{args:?}: {why}");
    }
}

#[test]
fn a_config_that_cannot_boot_is_refused_before_booting() {
    for (topology, controllers) in [("arpanet", "2"), ("B4", "65")] {
        let out = Command::new(SERVE)
            .args(["serve", "--addr", "127.0.0.1:0", "--topology", topology])
            .args(["--controllers", controllers])
            .output()
            .expect("spawn sdn-serve");
        let why = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{topology}: {why}");
        assert!(
            why.starts_with(&format!("unknown topology `{topology}`")),
            "{topology}: {why}"
        );
        assert!(why.contains("usage:"), "{topology}: {why}");
        assert!(out.stdout.is_empty(), "{topology}: nothing is reported");
    }
}
