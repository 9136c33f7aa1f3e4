//! The HTTP/1.1 transport: the only module of this crate allowed to touch the host
//! clock and host threads.
//!
//! Architecture: accept threads never touch the [`Session`]. Each HTTP request is
//! parsed into a typed [`Request`] and enqueued; the driver thread (the caller of
//! [`Server::run`]) owns the session, answers snapshot requests between ticks, and
//! stamps every [`Command`] onto the tick it was applied at before appending it to
//! the [`CommandLog`]. Wall-clock reads stop at this boundary — the session core
//! never sees them, which is what keeps a recorded session replayable bit for bit
//! (`sdn-stancheck` enforces the boundary statically via its serve/transport scope
//! rule).
//!
//! The protocol is dependency-free HTTP/1.1, one request per connection
//! (`Connection: close`), JSON bodies both ways; `GET /stream` switches to chunked
//! transfer and tails the probe-sample feed.

use crate::command::{fault_from_json, Command, FlowsSpec};
use crate::log::CommandLog;
use crate::session::Session;
use sdn_metrics::json::Json;
use sdn_netsim::SimDuration;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Largest accepted request head + body, in bytes.
const MAX_REQUEST_BYTES: usize = 64 * 1024;
/// Lines a slow `/stream` consumer may lag before the oldest are dropped.
const MAX_STREAM_BACKLOG: usize = 1024;
/// Requests that may wait for the driver (it drains them between ticks, so they pile
/// up during a long `/run` or `/step`) before further ones are refused with 503.
const MAX_PENDING_REQUESTS: usize = 256;

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

struct Pending {
    request: Request,
    reply: mpsc::Sender<Reply>,
}

/// One `/stream` subscriber's feed.
struct StreamSub {
    /// Buffered lines plus the closed flag.
    feed: Mutex<(VecDeque<String>, bool)>,
    ready: Condvar,
}

struct Inner {
    queue: VecDeque<Pending>,
    running: bool,
    until_s: Option<f64>,
    shutdown: bool,
    subscribers: Vec<Arc<StreamSub>>,
}

struct Shared {
    inner: Mutex<Inner>,
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A bound service: listener plus the session it will drive.
///
/// [`Server::bind`] starts accepting connections immediately (requests queue up);
/// [`Server::run`] drives the session until a `shutdown` command arrives and
/// returns the final report with the sealed command log.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    session: Session,
    pace: Duration,
    started: Instant,
    accept: thread::JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts the
    /// accept loop.
    pub fn bind(session: Session, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                running: false,
                until_s: None,
                shutdown: false,
                subscribers: Vec::new(),
            }),
            wake: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let tick = session.config().tick();
        let accept = thread::spawn(move || accept_loop(listener, accept_shared, tick));
        Ok(Server {
            addr,
            shared,
            session,
            pace: Duration::ZERO,
            started: Instant::now(),
            accept,
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
        let shared = Arc::clone(&self.shared);
        let mut log = CommandLog::new(self.session.config().clone());
        loop {
            let pending: Vec<Pending> = {
                let mut inner = shared.lock();
                while inner.queue.is_empty() && !inner.running && !inner.shutdown {
                    inner = shared.wake.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
                inner.queue.drain(..).collect()
            };
            for p in pending {
                self.handle(p, &mut log);
            }
            let (running, until_s, shutdown) = {
                let inner = shared.lock();
                (inner.running, inner.until_s, inner.shutdown)
            };
            if shutdown {
                break;
            }
            if running {
                self.session.step();
                self.broadcast();
                if let Some(until) = until_s {
                    if self.session.sim_secs() >= until {
                        shared.lock().running = false;
                    }
                }
                if !self.pace.is_zero() {
                    thread::sleep(self.pace);
                }
            }
        }
        let report = self.session.final_report();
        log.finalize(self.session.tick(), report.clone());
        // Close every stream, answer stragglers, and unblock the accept loop.
        {
            let mut inner = shared.lock();
            for sub in inner.subscribers.drain(..) {
                sub.feed.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
                sub.ready.notify_all();
            }
            for p in inner.queue.drain(..) {
                let _ = p.reply.send(Reply {
                    status: 410,
                    body: Json::obj([("error", Json::str("session is shut down"))]),
                });
            }
        }
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        (report, log)
    }

    fn handle(&mut self, p: Pending, log: &mut CommandLog) {
        let reply = match p.request {
            Request::Topology => Reply {
                status: 200,
                body: self.session.topology_json(),
            },
            Request::Node(id) => match self.session.node_json(id) {
                Some(body) => Reply { status: 200, body },
                None => Reply {
                    status: 404,
                    body: Json::obj([("error", Json::str(format!("no node {id}")))]),
                },
            },
            Request::Legitimacy => Reply {
                status: 200,
                body: self.session.legitimacy_json(),
            },
            Request::Metrics => {
                let mut body = self.session.metrics_json();
                // Transport-only annotation: wall-clock uptime never enters the
                // session state or the replayable report.
                push_member(
                    &mut body,
                    "uptime_s",
                    Json::num(self.started.elapsed().as_secs_f64()),
                );
                Reply { status: 200, body }
            }
            Request::LogPage { from, limit } => Reply {
                status: 200,
                body: self.session.log_json(from, limit),
            },
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
                        let mut inner = self.shared.lock();
                        inner.running = true;
                        inner.until_s = until_s;
                    }
                    Command::Pause => self.shared.lock().running = false,
                    Command::Shutdown => self.shared.lock().shutdown = true,
                    Command::Fault(_) | Command::Flows(_) => {}
                }
                let status = if body.get("ok").and_then(Json::as_bool) == Some(false) {
                    409
                } else {
                    200
                };
                push_member(&mut body, "tick", Json::num(self.session.tick() as f64));
                Reply { status, body }
            }
        };
        let _ = p.reply.send(reply);
    }

    /// Fans the newest probe sample out to every `/stream` subscriber, dropping
    /// subscribers whose connection closed and the oldest backlog of slow ones.
    fn broadcast(&self) {
        let Some((_, line)) = self.session.last_sample() else {
            return;
        };
        let mut inner = self.shared.lock();
        inner.subscribers.retain(|sub| {
            let mut feed = sub.feed.lock().unwrap_or_else(|e| e.into_inner());
            if feed.1 {
                return false;
            }
            if feed.0.len() >= MAX_STREAM_BACKLOG {
                feed.0.pop_front();
            }
            feed.0.push_back(line.clone());
            sub.ready.notify_all();
            true
        });
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, tick: SimDuration) {
    for stream in listener.incoming() {
        if shared.lock().shutdown {
            break;
        }
        if let Ok(stream) = stream {
            let shared = Arc::clone(&shared);
            thread::spawn(move || handle_connection(stream, shared, tick));
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>, tick: SimDuration) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let (method, target, body) = match read_request(&mut stream) {
        Ok(parts) => parts,
        Err(error) => {
            write_json(&mut stream, 400, &Json::obj([("error", Json::str(error))]));
            return;
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    if method == "GET" && path == "/stream" {
        stream_connection(stream, shared);
        return;
    }
    match route(&method, &path, &query, &body, tick) {
        Ok(request) => {
            let (tx, rx) = mpsc::channel();
            // Decide under the lock, answer a refusal after releasing it.
            let refusal = {
                let mut inner = shared.lock();
                if inner.shutdown {
                    Some((410, "session is shut down"))
                } else if inner.queue.len() >= MAX_PENDING_REQUESTS {
                    Some((503, "driver queue is full"))
                } else {
                    inner.queue.push_back(Pending { request, reply: tx });
                    None
                }
            };
            if let Some((status, error)) = refusal {
                write_json(
                    &mut stream,
                    status,
                    &Json::obj([("error", Json::str(error))]),
                );
                return;
            }
            shared.wake.notify_all();
            match rx.recv_timeout(Duration::from_secs(60)) {
                Ok(reply) => write_json(&mut stream, reply.status, &reply.body),
                Err(_) => write_json(
                    &mut stream,
                    504,
                    &Json::obj([("error", Json::str("driver did not answer in time"))]),
                ),
            }
        }
        Err((status, error)) => {
            write_json(
                &mut stream,
                status,
                &Json::obj([("error", Json::str(error))]),
            );
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
            let ticks = query_num(query, "ticks")
                .or_else(|| body_json().ok()?.get("ticks")?.as_f64())
                .unwrap_or(1.0)
                .max(1.0) as u32;
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

/// The numeric value of a `key=value` query parameter.
fn query_num(query: &str, key: &str) -> Option<f64> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

/// Reads one HTTP/1.1 request: request line, headers (only `Content-Length` is
/// honored), body. Bounded by [`MAX_REQUEST_BYTES`].
fn read_request(stream: &mut TcpStream) -> Result<(String, String, String), String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err("request head too large".to_string());
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-request".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
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
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((method, target, String::from_utf8_lossy(&body).into_owned()))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_json(stream: &mut TcpStream, status: u16, body: &Json) {
    let text = body.to_string();
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        410 => "Gone",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{text}",
        text.len()
    );
    let _ = stream.flush();
}

/// Serves `GET /stream`: registers a subscriber and tails probe samples as one
/// chunked NDJSON response until the session shuts down or the client disconnects.
fn stream_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let sub = Arc::new(StreamSub {
        feed: Mutex::new((VecDeque::new(), false)),
        ready: Condvar::new(),
    });
    {
        let mut inner = shared.lock();
        if inner.shutdown {
            write_json(
                &mut stream,
                410,
                &Json::obj([("error", Json::str("session is shut down"))]),
            );
            return;
        }
        inner.subscribers.push(Arc::clone(&sub));
    }
    let header = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    if stream.write_all(header.as_bytes()).is_err() {
        close_sub(&sub);
        return;
    }
    loop {
        let (lines, closed) = {
            let mut feed = sub.feed.lock().unwrap_or_else(|e| e.into_inner());
            while feed.0.is_empty() && !feed.1 {
                let (next, _) = sub
                    .ready
                    .wait_timeout(feed, Duration::from_millis(500))
                    .unwrap_or_else(|e| e.into_inner());
                feed = next;
            }
            (feed.0.drain(..).collect::<Vec<_>>(), feed.1)
        };
        for line in lines {
            let payload = format!("{line}\n");
            let chunk = format!("{:x}\r\n{payload}\r\n", payload.len());
            if stream.write_all(chunk.as_bytes()).is_err() {
                close_sub(&sub);
                return;
            }
        }
        if closed {
            let _ = stream.write_all(b"0\r\n\r\n");
            let _ = stream.flush();
            return;
        }
        let _ = stream.flush();
    }
}

fn close_sub(sub: &StreamSub) {
    sub.feed.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
}

/// Appends a member to a JSON object (no-op on non-objects).
fn push_member(json: &mut Json, key: &str, value: Json) {
    if let Json::Obj(members) = json {
        members.push((key.to_string(), value));
    }
}
