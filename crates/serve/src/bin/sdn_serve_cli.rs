//! `sdn-serve-cli` — terminal client for a running `sdn-serve` instance.
//!
//! Speaks the same dependency-free HTTP/1.1 the server does: one connection per
//! request, JSON bodies, chunked transfer for `stream`.

use sdn_metrics::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: sdn-serve-cli [--addr HOST:PORT] <command> [args]

commands:
  topology                 the static topology snapshot
  legitimacy               current legitimacy verdict and open issues
  metrics                  counters for the current tick
  node <ID>                one node's state
  log [FROM] [LIMIT]       a page of retained probe samples
  fault <JSON>             inject a fault, e.g. '{\"kind\":\"fail_link\",\"a\":1,\"b\":2}'
  flows <JSON>             attach flows, e.g. '{\"pairs\":8,\"duration_ticks\":20}'
  step [TICKS]             advance N ticks (default 1)
  run [UNTIL_S]            free-run, optionally until simulated time UNTIL_S
  pause                    stop free-running
  shutdown                 end the session (server seals its command log)
  stream                   tail the live telemetry stream (NDJSON)
  watch [INTERVAL_MS]      poll metrics+legitimacy into a one-line ticker";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    if args.first().map(String::as_str) == Some("--addr") {
        if args.len() < 2 {
            eprintln!("--addr needs a value\n{USAGE}");
            return ExitCode::from(2);
        }
        addr = args[1].clone();
        args.drain(..2);
    }
    let cmd = args.first().cloned().unwrap_or_default();
    let rest = &args[1..];
    let outcome = match cmd.as_str() {
        "topology" => show(&addr, "GET", "/topology", ""),
        "legitimacy" => show(&addr, "GET", "/legitimacy", ""),
        "metrics" => show(&addr, "GET", "/metrics", ""),
        "node" => match rest.first() {
            Some(id) => show(&addr, "GET", &format!("/nodes/{id}"), ""),
            None => Err("node needs an ID".to_string()),
        },
        "log" => {
            let from = rest.first().map(String::as_str).unwrap_or("0");
            let limit = rest.get(1).map(String::as_str).unwrap_or("100");
            show(&addr, "GET", &format!("/log?from={from}&limit={limit}"), "")
        }
        "fault" => match rest.first() {
            Some(body) => show(&addr, "POST", "/faults", body),
            None => Err("fault needs a JSON body".to_string()),
        },
        "flows" => match rest.first() {
            Some(body) => show(&addr, "POST", "/flows", body),
            None => Err("flows needs a JSON body".to_string()),
        },
        "step" => {
            let ticks = rest.first().map(String::as_str).unwrap_or("1");
            show(&addr, "POST", &format!("/step?ticks={ticks}"), "")
        }
        "run" => match rest.first() {
            Some(until) => show(&addr, "POST", &format!("/run?until={until}"), ""),
            None => show(&addr, "POST", "/run", ""),
        },
        "pause" => show(&addr, "POST", "/pause", ""),
        "shutdown" => show(&addr, "POST", "/shutdown", ""),
        "stream" => stream(&addr),
        "watch" => {
            let interval: u64 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(1000);
            watch(&addr, interval)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("sdn-serve-cli: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Issues one request and prints the JSON response body.
fn show(addr: &str, method: &str, path: &str, body: &str) -> Result<(), String> {
    let (status, body) = request(addr, method, path, body)?;
    println!("{body}");
    if status < 400 {
        Ok(())
    } else {
        Err(format!("HTTP {status} for {method} {path}"))
    }
}

/// One full HTTP exchange: returns (status, body).
fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("write to {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed HTTP status line")?;
    Ok((status, payload.to_string()))
}

/// Tails `GET /stream`, de-chunking the NDJSON feed to stdout until the server
/// ends the session.
fn stream(addr: &str) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let head = format!("GET /stream HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("write to {addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    // Skip the response head.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("connection closed before response head ended".to_string());
        }
        if line == "\r\n" {
            break;
        }
    }
    // De-chunk until the zero-length terminator.
    loop {
        let mut size_line = String::new();
        if reader
            .read_line(&mut size_line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Ok(());
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size `{}`", size_line.trim()))?;
        if size == 0 {
            return Ok(());
        }
        let mut chunk = vec![0u8; size + 2];
        reader
            .read_exact(&mut chunk)
            .map_err(|e| format!("read chunk: {e}"))?;
        print!("{}", String::from_utf8_lossy(&chunk[..size]));
        let _ = std::io::stdout().flush();
    }
}

/// Polls `/metrics` and `/legitimacy` into a one-line ticker.
fn watch(addr: &str, interval_ms: u64) -> Result<(), String> {
    loop {
        let (status, metrics) = request(addr, "GET", "/metrics", "")?;
        if status >= 400 {
            return Err(format!("HTTP {status} for GET /metrics"));
        }
        let (_, legitimacy) = request(addr, "GET", "/legitimacy", "")?;
        let metrics = Json::parse(&metrics).map_err(|e| format!("bad /metrics JSON: {e}"))?;
        let legitimacy =
            Json::parse(&legitimacy).map_err(|e| format!("bad /legitimacy JSON: {e}"))?;
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "tick {:>6}  sim {:>8.1}s  events {:>9}  msgs {:>9}  rules {:>5}  legitimate: {}",
            field(&metrics, "tick"),
            field(&metrics, "sim_s"),
            field(&metrics, "events"),
            field(&metrics, "msgs_sent"),
            field(&metrics, "rules_total"),
            legitimacy
                .get("legitimate")
                .and_then(Json::as_bool)
                .map(|b| if b { "yes" } else { "NO" })
                .unwrap_or("?"),
        );
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}
