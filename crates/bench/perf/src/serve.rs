//! `serve_ft8`: the operator's path. An in-process `sdn-serve` server on loopback,
//! driven by **one closed-loop client** (the next request is sent only after the
//! previous response arrived) that opens **one connection per request** — the
//! protocol is `Connection: close`. Loopback is not a real link: the latencies here
//! are transport + session cost, not wire time.
//!
//! One *session* is: boot, a few discarded warm-up iterations, then the timed loop
//! of `POST /step {"ticks":1}` + one rotating `GET` per iteration with the fault
//! script at fixed iterations, `POST /shutdown`, and finally parse + `verify()` of
//! the recorded command log (replay: the same ticks with no transport).

use crate::json::{self, Value};
use crate::workloads::ServePlan;
use sdn_serve::{CommandLog, Server, Session, SessionConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The request kinds whose latency is tracked separately: `step`, then the five
/// reads in rotation order.
pub const KINDS: [&str; 6] = ["step", "metrics", "legitimacy", "topology", "log", "node"];

/// What the client observed over one session's timed loop.
#[derive(Clone, Debug, Default)]
pub struct ClientLog {
    /// Construction of the session and server, the topology probe and the warm-up
    /// iterations, in seconds.
    pub setup_s: f64,
    pub loop_s: f64,
    /// `(index into KINDS, client-observed milliseconds)` per timed request.
    pub latencies_ms: Vec<(usize, f64)>,
    pub requests: u64,
    pub bytes_out: u64,
    /// Simulator events at the start of the timed loop.
    pub events_at_loop_start: u64,
    /// Nodes of the served topology (the `/nodes/:id` reads rotate over them).
    pub nodes: u32,
    /// Non-2xx responses and transport errors.
    pub failures: Vec<String>,
}

/// One finished session: client view, replay result and the deterministic report.
#[derive(Clone, Debug)]
pub struct SessionRun {
    pub client: ClientLog,
    pub replay_s: f64,
    pub report: String,
    pub log: CommandLog,
    pub events_total: u64,
    pub ticks: u64,
    /// Replay verification failure, if any.
    pub replay_failure: Option<String>,
}

impl SessionRun {
    pub fn latencies_of(&self, pick: impl Fn(usize) -> bool) -> Vec<f64> {
        self.client
            .latencies_ms
            .iter()
            .filter(|(kind, _)| pick(*kind))
            .map(|&(_, ms)| ms)
            .collect()
    }

    pub fn step_ms(&self) -> Vec<f64> {
        self.latencies_of(|k| k == 0)
    }

    pub fn read_ms(&self) -> Vec<f64> {
        self.latencies_of(|k| k != 0)
    }

    /// Ops: every HTTP request plus the one replay verification.
    pub fn ops(&self) -> u64 {
        self.client.requests + 1
    }

    pub fn failures(&self) -> Vec<String> {
        let mut all = self.client.failures.clone();
        all.extend(self.replay_failure.clone());
        all
    }

    pub fn wall_s(&self) -> f64 {
        self.client.loop_s + self.replay_s
    }

    pub fn events_per_s(&self) -> f64 {
        (self.events_total - self.client.events_at_loop_start) as f64 / self.client.loop_s
    }
}

pub fn session_config(plan: &ServePlan, seed: u64) -> SessionConfig {
    SessionConfig {
        topology: plan.topology.to_string(),
        controllers: crate::workloads::CONTROLLERS,
        seed,
        tick_millis: plan.tick_millis,
        ring_capacity: 4096,
    }
}

/// One raw HTTP exchange: status, body and total response bytes.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, u64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("response has no status code")?;
    Ok((status, payload.to_string(), response.len() as u64))
}

/// The client side of one session.
struct Client {
    addr: SocketAddr,
    log: ClientLog,
}

impl Client {
    /// Sends one request; any transport error or non-2xx status is recorded as a
    /// failed op. Returns the body on success.
    fn send(&mut self, method: &str, path: &str, body: &str) -> Option<String> {
        self.log.requests += 1;
        match exchange(self.addr, method, path, body) {
            Ok((status, payload, bytes)) => {
                self.log.bytes_out += bytes;
                if (200..300).contains(&status) {
                    Some(payload)
                } else {
                    self.log
                        .failures
                        .push(format!("{method} {path} -> {status}: {payload}"));
                    None
                }
            }
            Err(e) => {
                self.log.failures.push(format!("{method} {path}: {e}"));
                None
            }
        }
    }

    fn timed(&mut self, kind: usize, method: &str, path: &str, body: &str) -> Option<String> {
        let started = Instant::now();
        let reply = self.send(method, path, body);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.log.latencies_ms.push((kind, ms));
        reply
    }

    /// One iteration: the scripted command due at `i` (if any), one step, one read.
    fn iteration(&mut self, i: u32, plan: &ServePlan, target: &Targets) {
        if let Some(body) = scripted_fault(i, plan, target) {
            self.send("POST", "/faults", &body);
        }
        if i == 5 * plan.script_stride {
            let body = format!(
                "{{\"pairs\":{},\"duration_ticks\":{}}}",
                plan.flow_pairs, plan.flow_ticks
            );
            self.send("POST", "/flows", &body);
        }
        self.timed(0, "POST", "/step", "{\"ticks\":1}");
        let read = ReadRequest::of_iteration(i, target.nodes);
        self.timed(read.kind(), "GET", &read.path(), "");
    }
}

/// The read issued after the step of an iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadRequest {
    Metrics,
    Legitimacy,
    Topology,
    Log { from: u64 },
    Node(u32),
}

impl ReadRequest {
    /// The rotating read of iteration `i` on a topology of `nodes` nodes.
    pub fn of_iteration(i: u32, nodes: u32) -> ReadRequest {
        match i % 5 {
            0 => ReadRequest::Metrics,
            1 => ReadRequest::Legitimacy,
            2 => ReadRequest::Topology,
            3 => ReadRequest::Log {
                from: u64::from(i.saturating_sub(64)),
            },
            _ => ReadRequest::Node((i / 5) % nodes.max(1)),
        }
    }

    /// Index into [`KINDS`].
    pub fn kind(self) -> usize {
        match self {
            ReadRequest::Metrics => 1,
            ReadRequest::Legitimacy => 2,
            ReadRequest::Topology => 3,
            ReadRequest::Log { .. } => 4,
            ReadRequest::Node(_) => 5,
        }
    }

    pub fn path(self) -> String {
        match self {
            ReadRequest::Metrics => "/metrics".to_string(),
            ReadRequest::Legitimacy => "/legitimacy".to_string(),
            ReadRequest::Topology => "/topology".to_string(),
            ReadRequest::Log { from } => format!("/log?from={from}&limit={LOG_PAGE}"),
            ReadRequest::Node(id) => format!("/nodes/{id}"),
        }
    }
}

/// Page size of the scripted `/log` reads.
pub const LOG_PAGE: usize = 64;

/// The iteration index of the `n`-th (0-based) step of a session: the warm-up runs
/// at indices past the end of the script, so it stays silent.
pub fn iteration_of_step(n: u32, plan: &ServePlan) -> u32 {
    if n < plan.warmup_iterations {
        plan.iterations + 1 + n
    } else {
        n - plan.warmup_iterations + 1
    }
}

/// What the fault script aims at, read from `GET /topology` before the timed loop.
#[derive(Clone, Copy, Debug)]
pub struct Targets {
    /// The first switch–switch link of the topology.
    pub link: (u32, u32),
    pub controller: u32,
    pub nodes: u32,
}

impl Targets {
    pub fn from_topology(topology: &Value) -> Result<Targets, String> {
        let ids = |key: &str| -> Vec<u32> {
            topology
                .get(key)
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| v.as_f64().map(|n| n as u32))
                .collect()
        };
        let switches = ids("switches");
        let controllers = ids("controllers");
        let link = topology
            .get("links")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|l| {
                let ends = l.as_array()?;
                let a = ends.first()?.as_f64()? as u32;
                let b = ends.get(1)?.as_f64()? as u32;
                (switches.contains(&a) && switches.contains(&b)).then_some((a, b))
            })
            .next()
            .ok_or("topology has no switch-switch link")?;
        Ok(Targets {
            link,
            controller: *controllers.first().ok_or("topology has no controller")?,
            nodes: (switches.len() + controllers.len()) as u32,
        })
    }
}

/// The `POST /faults` body due at iteration `i`, if any: the script fires on
/// half-strides (full size: 100, 200, 300, 350, 400, 450).
pub fn scripted_fault(i: u32, plan: &ServePlan, t: &Targets) -> Option<String> {
    let (a, b) = t.link;
    let link = |kind: &str| format!("{{\"kind\":\"{kind}\",\"a\":{a},\"b\":{b}}}");
    let node = |kind: &str| format!("{{\"kind\":\"{kind}\",\"node\":{}}}", t.controller);
    let half = plan.script_stride / 2;
    if half == 0 || i % half != 0 {
        return None;
    }
    match i / half {
        2 => Some(link("fail_link")),
        4 => Some(link("restore_link")),
        6 => Some(node("fail_controller")),
        7 => Some(node("revive_controller")),
        8 => Some(format!(
            "{{\"kind\":\"degrade_link\",\"a\":{a},\"b\":{b},\"asymmetric\":true,\
             \"burst\":{{\"p_enter\":0.15,\"p_exit\":0.35,\"loss_bad\":1.0}}}}"
        )),
        9 => Some(link("restore_link_quality")),
        _ => None,
    }
}

/// The whole client script; always ends with `POST /shutdown` so the driver thread
/// returns even after an earlier failure.
fn client_script(addr: SocketAddr, plan: &ServePlan, setup_started: Instant) -> ClientLog {
    let mut client = Client {
        addr,
        log: ClientLog::default(),
    };
    let targets = client
        .send("GET", "/topology", "")
        .ok_or_else(|| "GET /topology failed".to_string())
        .and_then(|body| json::parse(&body))
        .and_then(|topology| Targets::from_topology(&topology));
    match targets {
        Ok(targets) => {
            client.log.nodes = targets.nodes;
            for n in 0..plan.warmup_iterations {
                client.iteration(iteration_of_step(n, plan), plan, &targets);
            }
            client.log.latencies_ms.clear();
            client.log.events_at_loop_start = client
                .send("GET", "/metrics", "")
                .and_then(|body| json::parse(&body).ok())
                .and_then(|m| m.get("events")?.as_f64())
                .map_or(0, |e| e as u64);
            client.log.setup_s = setup_started.elapsed().as_secs_f64();
            let loop_started = Instant::now();
            for i in 1..=plan.iterations {
                client.iteration(i, plan, &targets);
            }
            client.log.loop_s = loop_started.elapsed().as_secs_f64();
        }
        Err(e) => client.log.failures.push(e),
    }
    client.send("POST", "/shutdown", "");
    client.log
}

/// Runs one full session. `setup_started` is when this session's set-up began (the
/// process start for the first session of an invocation).
pub fn run_session(
    plan: &ServePlan,
    seed: u64,
    setup_started: Instant,
) -> Result<SessionRun, String> {
    let server = Server::bind(Session::new(session_config(plan, seed)), "127.0.0.1:0")
        .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
    let addr = server.addr();
    let (client, (report, log)) = std::thread::scope(|scope| {
        let client = scope.spawn(|| client_script(addr, plan, setup_started));
        let served = server.run();
        (client.join(), served)
    });
    let client = client.map_err(|_| "the client thread panicked".to_string())?;
    let report = report.to_string();

    let jsonl = log.to_jsonl();
    let replay_started = Instant::now();
    let verified = CommandLog::parse(&jsonl).and_then(|parsed| parsed.verify());
    let replay_s = replay_started.elapsed().as_secs_f64();
    let replay_failure = match verified {
        Ok(replayed) if replayed.to_string() == report => None,
        Ok(_) => Some("replay verified but differs from the live report".to_string()),
        Err(e) => Some(format!("replay: {}", e.lines().next().unwrap_or(""))),
    };

    let parsed = json::parse(&report)?;
    let metric = |key: &str| -> u64 {
        parsed
            .get("metrics")
            .and_then(|m| m.get(key))
            .and_then(Value::as_f64)
            .map_or(0, |v| v as u64)
    };
    Ok(SessionRun {
        client,
        replay_s,
        events_total: metric("events"),
        ticks: metric("tick"),
        report,
        log,
        replay_failure,
    })
}

/// `count` sessions one after the other, session `j` seeded `seed + j`. Each one's
/// replay re-executes its ticks and must reproduce its report byte for byte, which
/// is this workload's same-seed-twice check. The first session's set-up starts at
/// `process_start`, the others' when the session before them ended.
pub fn sessions(
    plan: &ServePlan,
    seed: u64,
    count: usize,
    process_start: Instant,
) -> Result<Vec<SessionRun>, String> {
    let mut setup_started = process_start;
    (0..count as u64)
        .map(|j| {
            let run = run_session(plan, seed + j, setup_started);
            setup_started = Instant::now();
            run
        })
        .collect()
}
