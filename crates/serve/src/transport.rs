//! The HTTP/1.1 transport: the only module of this crate allowed to touch the host
//! clock.
//!
//! Architecture: one thread. The driver (the caller of [`Server::run`]) owns the
//! session, a nonblocking listener and every connection. Between ticks it accepts,
//! makes one nonblocking pass that reads each connection, answers each complete
//! request inline and writes what each socket takes; replies and `/stream` lines
//! share one outbox per connection. Every [`Command`] is stamped with its tick into
//! the [`CommandLog`] in the order the driver applied it, so a session replays bit
//! for bit whatever order the sockets were read in. Wall-clock reads (deadlines,
//! pacing, `/metrics` uptime) stop at this boundary (`sdn-stancheck` enforces it).
//!
//! The protocol is dependency-free HTTP/1.1, one request per connection
//! (`Connection: close`), JSON bodies both ways; `GET /stream` switches to chunked
//! transfer and tails the probe-sample feed.

use crate::command::{fault_from_json, step_ticks, Command, FlowsSpec};
use crate::log::CommandLog;
use crate::session::Session;
use sdn_metrics::json::Json;
use sdn_netsim::SimDuration;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Largest accepted request head + body, in bytes.
const MAX_REQUEST_BYTES: usize = 64 * 1024;
/// Lines a slow `/stream` consumer may lag before the oldest are dropped.
const MAX_STREAM_BACKLOG: usize = 1024;
/// Connections open at once, `/stream` subscribers included; the next one is
/// refused with 503.
const MAX_CONNECTIONS: usize = 256;
/// Host time a connection has to send one complete request, and again to take its
/// whole reply; past it the connection gets a 400 (or, mid-reply, is dropped).
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);
/// The driver's nap when it is paused and a pass moved nothing.
const IDLE_NAP: Duration = Duration::from_micros(200);

/// One typed request for the driver.
enum Request {
    Topology,
    Node(u32),
    Legitimacy,
    Metrics,
    LogPage { from: u64, limit: usize },
    Command(Command),
}

/// The driver's answer to one request.
struct Reply {
    status: u16,
    body: Json,
}

impl Reply {
    fn ok(body: Json) -> Reply {
        Reply { status: 200, body }
    }

    fn error(status: u16, message: impl Into<String>) -> Reply {
        let body = Json::obj([("error", Json::str(message))]);
        Reply { status, body }
    }
}

/// One open connection.
struct Conn {
    stream: TcpStream,
    /// Request bytes read so far.
    inbox: Vec<u8>,
    /// Response bytes not yet written, and how much of the front chunk was.
    outbox: VecDeque<Vec<u8>>,
    sent: usize,
    /// When the request (before an answer) or the reply (after it) runs out of time.
    deadline: Instant,
    /// An answer (or the stream header) is queued: nothing more is read.
    answered: bool,
    /// A `/stream` subscriber: stays open for sample lines until shutdown.
    subscriber: bool,
}

impl Conn {
    /// Whether the driver owes work: a request not yet complete or bytes not yet sent.
    fn busy(&self) -> bool {
        !self.answered || !self.outbox.is_empty()
    }

    /// Reads whatever has arrived.
    fn fill(&mut self) {
        let mut chunk = [0u8; 4096];
        // A head and a body of at most `MAX_REQUEST_BYTES` each, plus the blank line.
        while self.inbox.len() < 2 * MAX_REQUEST_BYTES + 4 {
            match self.stream.read(&mut chunk) {
                Ok(n) if n > 0 => self.inbox.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                _ => return self.hang_up(),
            }
        }
    }

    /// The peer hung up or a socket call failed: nothing more is read or streamed,
    /// and the connection closes once whatever is still queued has been tried.
    fn hang_up(&mut self) {
        self.answered = true;
        self.subscriber = false;
        self.outbox.clear();
    }

    /// Queues `reply` as the answer; the deadline restarts for its drain.
    fn reply(&mut self, reply: &Reply) {
        self.inbox = Vec::new();
        self.outbox.push_back(response(reply));
        self.answered = true;
        self.deadline = Instant::now() + REQUEST_DEADLINE;
    }

    /// Turns this connection into a `/stream` subscriber.
    fn subscribe(&mut self) {
        self.inbox = Vec::new();
        self.outbox.push_back(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                .to_vec(),
        );
        self.answered = true;
        self.subscriber = true;
    }

    /// Queues one NDJSON line as a chunk. Past [`MAX_STREAM_BACKLOG`] the oldest line
    /// not yet in flight is dropped (the front chunk may be partly written).
    fn push_line(&mut self, line: &str) {
        if self.outbox.len() > MAX_STREAM_BACKLOG {
            self.outbox.remove(1);
        }
        let chunk = format!("{:x}\r\n{line}\n\r\n", line.len() + 1);
        self.outbox.push_back(chunk.into_bytes());
    }

    /// Writes what the socket takes; returns whether anything was written.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while let Some(front) = self.outbox.front() {
            match self.stream.write(&front[self.sent..]) {
                Ok(n) if n > 0 => {
                    progress = true;
                    self.sent += n;
                    if self.sent == front.len() {
                        self.outbox.pop_front();
                        self.sent = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                _ => self.hang_up(),
            }
        }
        progress
    }

    /// Whether to stay open after a pass at `now`; only a reply's drain has a deadline.
    fn keep(&self, now: Instant) -> bool {
        self.subscriber || self.busy() && !(self.answered && now >= self.deadline)
    }
}

/// A bound service: listener plus the session it will drive. Connections wait in the
/// listener's backlog from [`Server::bind`] on; [`Server::run`] serves them and drives
/// the session until `shutdown`, then returns the final report and the sealed log.
pub struct Server {
    addr: SocketAddr,
    listener: TcpListener,
    conns: Vec<Conn>,
    session: Session,
    running: bool,
    until_s: Option<f64>,
    shutdown: bool,
    pace: Duration,
    started: Instant,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(session: Session, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            addr: listener.local_addr()?,
            listener,
            conns: Vec::new(),
            session,
            running: false,
            until_s: None,
            shutdown: false,
            pace: Duration::ZERO,
            started: Instant::now(),
        })
    }

    /// Wall-clock pause between ticks in free-running mode — purely cosmetic pacing
    /// for human watchers; simulated results are identical at any pace.
    pub fn with_pace_millis(mut self, millis: u64) -> Self {
        self.pace = Duration::from_millis(millis);
        self
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drives the session until shutdown. Returns the final report and the sealed
    /// command log (whose recorded report equals the returned one).
    pub fn run(mut self) -> (Json, CommandLog) {
        let mut log = CommandLog::new(self.session.config().clone());
        while !self.shutdown {
            // With nothing to do until a client connects, block in `accept`.
            self.accept(!self.running && !self.conns.iter().any(Conn::busy));
            let progress = self.pass(&mut log);
            if self.running {
                self.session.step();
                self.broadcast();
                self.running = self.session.sim_secs() < self.until_s.unwrap_or(f64::INFINITY);
                thread::sleep(self.pace);
            } else if !progress {
                self.nap();
            }
        }
        let report = self.session.final_report();
        log.finalize(self.session.tick(), report.clone());
        // End every stream and refuse every unanswered connection (the backlog's too);
        // return once every reply is written or past its deadline.
        self.accept(false);
        for conn in &mut self.conns {
            if conn.subscriber {
                conn.subscriber = false;
                conn.outbox.push_back(b"0\r\n\r\n".to_vec());
                conn.deadline = Instant::now() + REQUEST_DEADLINE;
            } else if !conn.answered {
                conn.reply(&Reply::error(410, "session is shut down"));
            }
        }
        while !self.conns.is_empty() {
            if !self.pass(&mut log) {
                thread::sleep(IDLE_NAP);
            }
        }
        (report, log)
    }

    /// Waits up to [`IDLE_NAP`] for more bytes of the first unfinished request, so a
    /// request that trails its connection is read as it lands; or just sleeps.
    fn nap(&self) {
        let Some(conn) = self.conns.iter().find(|conn| !conn.answered) else {
            thread::sleep(IDLE_NAP);
            return;
        };
        let _ = conn.stream.set_nonblocking(false);
        let _ = conn.stream.peek(&mut [0u8; 1]);
        let _ = conn.stream.set_nonblocking(true);
    }

    /// Accepts every connection waiting in the backlog; with `block`, waits for one
    /// first.
    fn accept(&mut self, block: bool) {
        if block {
            let _ = self.listener.set_nonblocking(false);
            let accepted = self.listener.accept();
            let _ = self.listener.set_nonblocking(true);
            if let Ok((stream, _)) = accepted {
                self.admit(stream);
            }
        }
        while let Ok((stream, _)) = self.listener.accept() {
            self.admit(stream);
        }
    }

    /// Opens `stream` as a connection, or refuses it with 503 once
    /// [`MAX_CONNECTIONS`] are open.
    fn admit(&mut self, stream: TcpStream) {
        // The read timeout bounds only `nap`'s blocking peek.
        if stream.set_nonblocking(true).is_err() || stream.set_read_timeout(Some(IDLE_NAP)).is_err()
        {
            return;
        }
        let mut conn = Conn {
            stream,
            inbox: Vec::new(),
            outbox: VecDeque::new(),
            sent: 0,
            deadline: Instant::now() + REQUEST_DEADLINE,
            answered: false,
            subscriber: false,
        };
        if self.conns.len() < MAX_CONNECTIONS {
            self.conns.push(conn);
            return;
        }
        // Best effort, without waiting: take the request that has arrived (closing on
        // unread bytes would reset the connection under the reply), answer, hang up.
        conn.fill();
        conn.reply(&Reply::error(503, "too many open connections"));
        conn.flush();
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.fill();
    }

    /// One nonblocking pass: read what has arrived, answer each complete request, write
    /// what each socket takes, close the finished, hung-up and expired; true if any moved.
    fn pass(&mut self, log: &mut CommandLog) -> bool {
        let now = Instant::now();
        let mut progress = false;
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            if conn.subscriber {
                // A subscriber's bytes are discarded; reading notices its hang-up.
                conn.fill();
                conn.inbox.clear();
            } else if !conn.answered {
                conn.fill();
                match parse_request(&conn.inbox) {
                    Ok(Some(parts)) => {
                        progress = true;
                        self.answer(i, parts, log);
                    }
                    Ok(None) if now >= conn.deadline => {
                        conn.reply(&Reply::error(400, "request deadline passed"));
                    }
                    Ok(None) => {}
                    Err(error) => conn.reply(&Reply::error(400, error)),
                }
            }
            progress |= self.conns[i].flush();
        }
        self.conns.retain(|conn| conn.keep(now));
        progress
    }

    /// Answers the complete request of connection `i`.
    fn answer(&mut self, i: usize, request: (String, String, String), log: &mut CommandLog) {
        let (method, target, body) = request;
        let (path, query) = target.split_once('?').unwrap_or((&target, ""));
        let reply = if self.shutdown {
            Reply::error(410, "session is shut down")
        } else if method == "GET" && path == "/stream" {
            self.conns[i].subscribe();
            return;
        } else {
            match route(&method, path, query, &body, self.session.config().tick()) {
                Ok(request) => self.handle(request, log),
                Err((status, error)) => Reply::error(status, error),
            }
        };
        self.conns[i].reply(&reply);
    }

    fn handle(&mut self, request: Request, log: &mut CommandLog) -> Reply {
        match request {
            Request::Topology => Reply::ok(self.session.topology_json()),
            Request::Node(id) => match self.session.node_json(id) {
                Some(body) => Reply::ok(body),
                None => Reply::error(404, format!("no node {id}")),
            },
            Request::Legitimacy => Reply::ok(self.session.legitimacy_json()),
            Request::Metrics => {
                let mut body = self.session.metrics_json();
                // Transport-only annotation: wall-clock uptime never enters the
                // session state or the replayable report.
                let uptime = Json::num(self.started.elapsed().as_secs_f64());
                push_member(&mut body, "uptime_s", uptime);
                Reply::ok(body)
            }
            Request::LogPage { from, limit } => Reply::ok(self.session.log_json(from, limit)),
            Request::Command(cmd) => {
                log.push(self.session.tick(), cmd.clone());
                let mut body = self.session.apply(&cmd);
                match cmd {
                    Command::Step { ticks } => {
                        for _ in 0..ticks {
                            self.session.step();
                            self.broadcast();
                        }
                    }
                    Command::Run { until_s } => {
                        self.running = true;
                        self.until_s = until_s;
                    }
                    Command::Pause => self.running = false,
                    Command::Shutdown => self.shutdown = true,
                    Command::Fault(_) | Command::Flows(_) => {}
                }
                let refused = body.get("ok").and_then(Json::as_bool) == Some(false);
                let status = if refused { 409 } else { 200 };
                push_member(&mut body, "tick", Json::num(self.session.tick() as f64));
                Reply { status, body }
            }
        }
    }

    /// Queues the newest probe sample on every `/stream` subscriber and writes what
    /// each socket takes, so streams stay live through a long `/step`.
    fn broadcast(&mut self) {
        let Some((_, line)) = self.session.last_sample() else {
            return;
        };
        for conn in self.conns.iter_mut().filter(|conn| conn.subscriber) {
            conn.push_line(&line);
            conn.flush();
        }
    }
}

/// A typed request, or `(status, message)` on error.
type Routed = Result<Request, (u16, String)>;

/// Maps `(method, path)` onto a typed request; `tick` is the fault wire form's unit.
fn route(method: &str, path: &str, query: &str, body: &str, tick: SimDuration) -> Routed {
    let body_json = || -> Result<Json, (u16, String)> {
        if body.trim().is_empty() {
            Ok(Json::obj::<String>([]))
        } else {
            Json::parse(body).map_err(|e| (400, format!("bad JSON body: {e}")))
        }
    };
    match (method, path) {
        ("GET", "/topology") => Ok(Request::Topology),
        ("GET", "/legitimacy") => Ok(Request::Legitimacy),
        ("GET", "/metrics") => Ok(Request::Metrics),
        ("GET", "/log") => Ok(Request::LogPage {
            from: query_num(query, "from").unwrap_or(0.0) as u64,
            limit: query_num(query, "limit").unwrap_or(100.0).max(0.0) as usize,
        }),
        ("GET", _) if path.starts_with("/nodes/") => {
            let id = path["/nodes/".len()..]
                .parse::<u32>()
                .map_err(|_| (400, format!("bad node id in `{path}`")))?;
            Ok(Request::Node(id))
        }
        ("POST", "/faults") => {
            let event = fault_from_json(&body_json()?, tick).map_err(|e| (400, e))?;
            Ok(Request::Command(Command::Fault(event)))
        }
        ("POST", "/flows") => {
            let spec = FlowsSpec::from_json(&body_json()?).map_err(|e| (400, e))?;
            Ok(Request::Command(Command::Flows(spec)))
        }
        ("POST", "/step") => {
            let ticks = match query_value(query, "ticks") {
                Some(count) => step_ticks(Some(&Json::parse(count).unwrap_or(Json::Null))),
                None => step_ticks(body_json()?.get("ticks")),
            };
            let ticks = ticks.map_err(|e| (400, e))?;
            Ok(Request::Command(Command::Step { ticks }))
        }
        ("POST", "/run") => {
            let until_s =
                query_num(query, "until").or_else(|| body_json().ok()?.get("until_s")?.as_f64());
            Ok(Request::Command(Command::Run { until_s }))
        }
        ("POST", "/pause") => Ok(Request::Command(Command::Pause)),
        ("POST", "/shutdown") => Ok(Request::Command(Command::Shutdown)),
        _ => Err((404, format!("no route for {method} {path}"))),
    }
}

/// The raw value of a `key=value` query parameter.
fn query_value<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// The numeric value of a `key=value` query parameter.
fn query_num(query: &str, key: &str) -> Option<f64> {
    query_value(query, key)?.parse().ok()
}

/// Parses one HTTP/1.1 request off the bytes read so far: request line, headers
/// (only `Content-Length` is honored), body. `Ok(None)` while it is incomplete;
/// bounded by [`MAX_REQUEST_BYTES`] for the head and again for the body.
fn parse_request(buf: &[u8]) -> Result<Option<(String, String, String)>, String> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n");
    if head_end.unwrap_or(buf.len()) > MAX_REQUEST_BYTES {
        return Err("request head too large".to_string());
    }
    let Some(head_end) = head_end else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("").to_string();
    if method.is_empty() || !target.starts_with('/') {
        return Err(format!("malformed request line `{request_line}`"));
    }
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_REQUEST_BYTES {
        return Err("request body too large".to_string());
    }
    let body = &buf[head_end + 4..];
    if body.len() < content_length {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&body[..content_length]).into_owned();
    Ok(Some((method, target, body)))
}

/// The whole HTTP response carrying `reply`.
fn response(reply: &Reply) -> Vec<u8> {
    let text = reply.body.to_string();
    let reason = match reply.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        410 => "Gone",
        503 => "Service Unavailable",
        _ => "Error",
    };
    format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{text}",
        reply.status,
        text.len()
    )
    .into_bytes()
}

/// Appends a member to a JSON object (no-op on non-objects).
fn push_member(json: &mut Json, key: &str, value: Json) {
    if let Json::Obj(members) = json {
        members.push((key.to_string(), value));
    }
}
