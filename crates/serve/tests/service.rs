//! End-to-end service test: boot `sdn-serve` on an ephemeral port, drive a whole
//! interactive session over real HTTP — free-run to legitimacy, inject a link
//! failure, stream telemetry, attach flows, pause/step — then shut down cleanly
//! and prove the recorded command log replays bit-identically.

use sdn_metrics::json::Json;
use sdn_serve::{CommandLog, Server, Session, SessionConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

fn config() -> SessionConfig {
    SessionConfig {
        topology: "grid(2,3)".to_string(),
        controllers: 2,
        seed: 11,
        tick_millis: 250,
        ring_capacity: 256,
    }
}

/// One raw HTTP exchange against the service.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, payload) = response.split_once("\r\n\r\n").expect("split response");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let json = Json::parse(payload).unwrap_or_else(|e| panic!("bad JSON `{payload}`: {e}"));
    (status, json)
}

/// Polls `/legitimacy` until the network converges (bounded).
fn await_legitimate(addr: &str) {
    for _ in 0..2000 {
        let (status, verdict) = http(addr, "GET", "/legitimacy", "");
        assert_eq!(status, 200);
        if verdict.get("legitimate").and_then(Json::as_bool) == Some(true) {
            return;
        }
        thread::sleep(Duration::from_millis(5));
    }
    panic!("network never became legitimate");
}

#[test]
fn a_full_interactive_session_replays_bit_identically() {
    let server = Server::bind(Session::new(config()), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let driver = thread::spawn(move || server.run());

    // Free-run until the control plane converges.
    let (status, ack) = http(&addr, "POST", "/run", "");
    assert_eq!(status, 200, "{ack}");
    await_legitimate(&addr);

    // Pick a real switch-switch link off the live topology and fail it.
    let (status, topo) = http(&addr, "GET", "/topology", "");
    assert_eq!(status, 200);
    let switches: Vec<f64> = topo
        .get("switches")
        .and_then(Json::as_array)
        .expect("switches")
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let link = topo
        .get("links")
        .and_then(Json::as_array)
        .expect("links")
        .iter()
        .filter_map(|l| {
            let ends = l.as_array()?;
            let a = ends.first()?.as_f64()?;
            let b = ends.get(1)?.as_f64()?;
            (switches.contains(&a) && switches.contains(&b)).then_some((a as u32, b as u32))
        })
        .next()
        .expect("a switch-switch link");
    let fault = format!(
        "{{\"kind\":\"fail_link\",\"a\":{},\"b\":{}}}",
        link.0, link.1
    );
    let (status, ack) = http(&addr, "POST", "/faults", &fault);
    assert_eq!(status, 200, "{ack}");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack}");

    // Self-stabilization must recover legitimacy after the failure.
    await_legitimate(&addr);

    // Tail the telemetry stream long enough to see live samples flowing.
    let stream_addr = addr.clone();
    let tail = thread::spawn(move || {
        let mut stream = TcpStream::connect(&stream_addr).expect("connect stream");
        stream
            .write_all(
                format!("GET /stream HTTP/1.1\r\nHost: {stream_addr}\r\nConnection: close\r\n\r\n")
                    .as_bytes(),
            )
            .expect("write stream request");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set timeout");
        let mut seen = String::new();
        let mut buf = [0u8; 4096];
        while seen.matches("\"tick\"").count() < 3 {
            let n = stream.read(&mut buf).expect("read stream");
            assert!(n > 0, "stream closed early");
            seen.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
        assert!(seen.contains("\"legitimate\""), "samples carry legitimacy");
    });
    tail.join().expect("stream tail");

    // Attach an open-loop Poisson flow set mid-run.
    let (status, ack) = http(
        &addr,
        "POST",
        "/flows",
        "{\"pairs\":4,\"duration_ticks\":3,\"rate_per_tick\":1.5}",
    );
    assert_eq!(status, 200, "{ack}");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true), "{ack}");

    // Pause, then single-step deterministically.
    let (status, _) = http(&addr, "POST", "/pause", "");
    assert_eq!(status, 200);
    let (_, before) = http(&addr, "GET", "/metrics", "");
    let tick_before = before.get("tick").and_then(Json::as_f64).expect("tick");
    assert!(
        before.get("uptime_s").and_then(Json::as_f64).is_some(),
        "transport annotates /metrics with uptime"
    );
    let (status, _) = http(&addr, "POST", "/step?ticks=4", "");
    assert_eq!(status, 200);
    let (_, after) = http(&addr, "GET", "/metrics", "");
    let tick_after = after.get("tick").and_then(Json::as_f64).expect("tick");
    assert_eq!(
        tick_after,
        tick_before + 4.0,
        "step advanced exactly 4 ticks"
    );

    // Node snapshots and the paged probe log.
    let (status, node) = http(&addr, "GET", &format!("/nodes/{}", link.0), "");
    assert_eq!(status, 200);
    assert!(node.get("id").is_some(), "{node}");
    // A controller's object has a pinned wire shape.
    let controller = topo
        .get("controllers")
        .and_then(Json::as_array)
        .and_then(|ids| ids.first()?.as_u64())
        .expect("a controller");
    let (status, node) = http(&addr, "GET", &format!("/nodes/{controller}"), "");
    assert_eq!(status, 200);
    let keys: Vec<&str> = match &node {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other}"),
    };
    assert_eq!(keys, ["id", "kind", "live", "degree", "c_resets"], "{node}");
    let (status, _) = http(&addr, "GET", "/nodes/9999", "");
    assert_eq!(status, 404);
    let (status, page) = http(&addr, "GET", "/log?from=0&limit=5", "");
    assert_eq!(status, 200);
    assert!(
        !page
            .get("lines")
            .and_then(Json::as_array)
            .expect("lines")
            .is_empty(),
        "{page}"
    );

    // The gray-failure family: degrade the same link's quality in one direction,
    // restore it, split the network along its rows, heal it, then flap a link and
    // roll the controllers — all through the public fault surface.
    for (body, expect) in [
        (
            format!(
                "{{\"kind\":\"degrade_link\",\"a\":{},\"b\":{},\"burst\":{{\"p_enter\":0.15,\"p_exit\":0.35,\"loss_bad\":1.0}},\"asymmetric\":true}}",
                link.0, link.1
            ),
            200,
        ),
        (
            format!(
                "{{\"kind\":\"restore_link_quality\",\"a\":{},\"b\":{}}}",
                link.0, link.1
            ),
            200,
        ),
        (
            "{\"kind\":\"partition\",\"groups\":[[0,2,3,4],[1,5,6,7]]}".to_string(),
            200,
        ),
        ("{\"kind\":\"heal_partition\"}".to_string(), 200),
        // Healing twice is a state conflict, not a parse error.
        ("{\"kind\":\"heal_partition\"}".to_string(), 409),
        (
            format!(
                "{{\"kind\":\"flap_link\",\"a\":{},\"b\":{},\"period_ticks\":4,\"count\":1}}",
                link.0, link.1
            ),
            200,
        ),
        (
            "{\"kind\":\"rolling_restart\",\"interval_ticks\":6,\"down_ticks\":3,\"count\":1}"
                .to_string(),
            200,
        ),
    ] {
        let (status, ack) = http(&addr, "POST", "/faults", &body);
        assert_eq!(status, expect, "{body} -> {ack}");
    }
    // Drain the scheduled flap and restart phases, then prove the control plane
    // recovers legitimacy after the whole gray barrage.
    let (status, _) = http(&addr, "POST", "/step?ticks=12", "");
    assert_eq!(status, 200);
    let (status, _) = http(&addr, "POST", "/run", "");
    assert_eq!(status, 200);
    await_legitimate(&addr);
    let (status, _) = http(&addr, "POST", "/pause", "");
    assert_eq!(status, 200);

    // Bad input is rejected at the transport boundary.
    let (status, _) = http(&addr, "POST", "/faults", "{\"kind\":\"nonsense\"}");
    assert_eq!(status, 400);
    // A body under the request limit that nests 60 000 arrays deep: the parser's depth
    // bound makes it one more 400 (unbounded recursion would overflow the connection
    // thread's stack and abort the process), and the service keeps serving.
    let (status, _) = http(&addr, "POST", "/faults", &"[".repeat(60_000));
    assert_eq!(status, 400);
    let (status, _) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let (status, _) = http(&addr, "GET", "/no-such-route", "");
    assert_eq!(status, 404);

    // Clean shutdown hands back the report and the sealed command log.
    let (status, _) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    let (report, log) = driver.join().expect("driver thread");

    // The recorded session must replay bit-identically, including through a
    // serialization round trip.
    assert!(log.entries.len() >= 6, "all commands were logged");
    assert_eq!(log.replay().to_string(), report.to_string());
    let text = log.to_jsonl();
    let parsed = CommandLog::parse(&text).expect("parse recorded log");
    parsed.verify().expect("round-tripped log verifies");
    assert_eq!(parsed.to_jsonl(), text);
}

/// A Poisson window the engine cannot hold is refused before it reaches the driver,
/// and the service keeps serving.
#[test]
fn an_unholdable_flow_population_is_refused_with_400() {
    let server = Server::bind(Session::new(config()), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let driver = thread::spawn(move || server.run());
    let body = r#"{"pairs":1,"duration_ticks":1,"rate_per_tick":1e-12}"#;
    let (status, reply) = http(&addr, "POST", "/flows", body);
    assert_eq!(status, 400, "{reply}");
    let (status, _) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let (status, _) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    let (_, log) = driver.join().expect("driver thread");
    assert_eq!(log.entries.len(), 1, "only the shutdown was logged");
}

/// The driver's queue is bounded: with the driver not draining, the 257th pending
/// request is refused with 503, and the service keeps serving once it drains.
#[test]
fn a_full_driver_queue_refuses_with_503_and_recovers() {
    const QUEUE: usize = 256; // transport::MAX_PENDING_REQUESTS
    const SURPLUS: usize = 8;
    // Bound but not running: every routed request waits in the queue.
    let server = Server::bind(Session::new(config()), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();

    let (refused_tx, refused_rx) = mpsc::channel();
    let clients: Vec<_> = (0..QUEUE + SURPLUS)
        .map(|_| {
            let (addr, refused_tx) = (addr.clone(), refused_tx.clone());
            thread::spawn(move || {
                let (status, body) = http(&addr, "POST", "/step?ticks=1", "");
                if status == 503 {
                    refused_tx.send(body.to_string()).expect("report refusal");
                }
                status
            })
        })
        .collect();
    // Nothing leaves the queue, so exactly the surplus is refused — and once those
    // refusals are in, the other 256 requests are known to be queued.
    for _ in 0..SURPLUS {
        let body = refused_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a refusal");
        assert!(body.contains("driver queue is full"), "{body}");
    }
    let (status, _) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 503, "the 257th pending request is refused");

    // Drain: every queued request is answered, and the service serves again.
    let driver = thread::spawn(move || server.run());
    let statuses: Vec<u16> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    assert_eq!(statuses.iter().filter(|&&s| s == 200).count(), QUEUE);
    assert_eq!(statuses.iter().filter(|&&s| s == 503).count(), SURPLUS);
    let (status, metrics) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(
        metrics.get("tick").and_then(Json::as_f64),
        Some(QUEUE as f64)
    );

    let (status, _) = http(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    let (report, log) = driver.join().expect("driver thread");
    // Only accepted commands were logged: the queued steps and the shutdown.
    assert_eq!(log.entries.len(), QUEUE + 1);
    assert_eq!(log.replay().to_string(), report.to_string());
}
