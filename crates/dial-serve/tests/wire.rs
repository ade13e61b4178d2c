//! Wire pin: the full raw bytes a node writes — status line, headers in
//! order, body — for one request per response shape it can produce.
//!
//! Any refactor of the HTTP layer must leave every byte here unchanged;
//! clients (and the router, which relays node replies) parse these
//! heads, so a reordered header or a reworded reason phrase is a wire
//! change, not an internal one.

use dial_serve::{Engine, ServeConfig, ServeExperiment, Server, SnapshotStore};
use dial_sim::SimConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn test_store() -> SnapshotStore {
    let out = SimConfig::paper_default().with_seed(7).with_scale(0.01).simulate_full();
    SnapshotStore::from_parts(out.dataset, out.ledger, 7, 4)
}

/// One experiment with a fixed result, so the 200 body depends only on
/// the snapshot fingerprint and the envelope the engine wraps it in.
fn pinned_experiment() -> ServeExperiment {
    ServeExperiment {
        id: "pin".into(),
        title: "fixed result".into(),
        paper_claim: String::new(),
        scope: dial_serve::EraScope::All,
        run: Arc::new(|_| "{\"value\":42}".to_string()),
    }
}

fn start(engine: Engine, tune: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut cfg = ServeConfig { port: 0, threads: 2, ..ServeConfig::default() };
    tune(&mut cfg);
    Server::start(Arc::new(engine), &cfg).expect("bind ephemeral port")
}

/// Sends `request` verbatim and returns everything the server writes
/// before it closes the connection.
fn exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(request).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    String::from_utf8(raw).expect("responses are UTF-8")
}

fn get(addr: SocketAddr, path: &str) -> String {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: pin\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: pin\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, request.as_bytes())
}

/// A JSON reply's head plus body, as the node writes it.
fn json_wire(status_line: &str, extra: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status_line}\r\nContent-Type: application/json\r\n{extra}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn month_zero() -> String {
    let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
    dial_stream::encode_ndjson(&dial_stream::segments(&out)[0])
}

fn live_engine(max_pending_events: usize) -> Engine {
    Engine::new_live(9, 3, dial_serve::registry_experiments(), 2, 16, max_pending_events)
}

#[test]
fn snapshot_node_responses_are_pinned_byte_for_byte() {
    let engine = Engine::new(test_store(), vec![pinned_experiment()], 2, 16);
    let server = start(engine, |c| c.read_timeout = Duration::from_millis(300));
    let addr = server.addr();

    assert_eq!(
        get(addr, "/v1/analyze/pin"),
        json_wire(
            "200 OK",
            "",
            "{\"id\":\"pin\",\"snapshot\":\"c5d63a157ee52360-5529952533b3c584\",\"params\":\"seed=7&classes=4\",\"result\":{\"value\":42}}",
        ),
        "200 analyze"
    );

    assert_eq!(
        get(addr, "/healthz"),
        json_wire(
            "308 Permanent Redirect",
            "Location: /v1/healthz\r\n",
            "{\"error\":{\"code\":\"moved_permanently\",\"message\":\"this endpoint moved to /v1/healthz\",\"detail\":{\"location\":\"/v1/healthz\"}}}",
        ),
        "308 legacy redirect"
    );

    assert_eq!(
        get(addr, "/nope"),
        json_wire(
            "404 Not Found",
            "",
            "{\"error\":{\"code\":\"unknown_endpoint\",\"message\":\"no such endpoint: /nope\",\"detail\":{}}}",
        ),
        "404"
    );

    assert_eq!(
        exchange(addr, b"POST /v1/healthz HTTP/1.1\r\nHost: pin\r\nConnection: close\r\n\r\n"),
        json_wire(
            "405 Method Not Allowed",
            "",
            "{\"error\":{\"code\":\"method_not_allowed\",\"message\":\"method POST is not supported here; use GET (or POST /v1/ingest, /v1/promote)\",\"detail\":{}}}",
        ),
        "405"
    );

    // A silent client: the head window (300ms here) runs out.
    assert_eq!(
        exchange(addr, b""),
        json_wire(
            "408 Request Timeout",
            "",
            "{\"error\":{\"code\":\"request_timeout\",\"message\":\"request head did not arrive within 300ms\",\"detail\":{}}}",
        ),
        "408"
    );

    assert_eq!(
        exchange(addr, b"GET /v1/healthz HTTP/1.1\r\nHost: pin\r\nContent-Length: 999999\r\n\r\n"),
        json_wire(
            "413 Payload Too Large",
            "",
            "{\"error\":{\"code\":\"payload_too_large\",\"message\":\"declared body of 999999 bytes exceeds 65536 bytes\",\"detail\":{}}}",
        ),
        "413"
    );

    let padding = "a".repeat(17 * 1024);
    let oversized = format!("GET /v1/healthz HTTP/1.1\r\nX-Padding: {padding}\r\n\r\n");
    assert_eq!(
        exchange(addr, oversized.as_bytes()),
        json_wire(
            "431 Request Header Fields Too Large",
            "",
            "{\"error\":{\"code\":\"headers_too_large\",\"message\":\"request head exceeds 16384 bytes\",\"detail\":{}}}",
        ),
        "431"
    );

    server.shutdown();
}

#[test]
fn live_node_responses_are_pinned_byte_for_byte() {
    let month = month_zero();

    // An 8-event buffer: a month-sized batch is shed with 429.
    let server = start(live_engine(8), |c| c.max_body_bytes = 32 * 1024 * 1024);
    let addr = server.addr();
    assert_eq!(
        exchange(addr, b"POST /v1/ingest HTTP/1.1\r\nHost: pin\r\nConnection: close\r\n\r\n"),
        json_wire(
            "411 Length Required",
            "",
            "{\"error\":{\"code\":\"length_required\",\"message\":\"POST /v1/ingest needs a Content-Length header\",\"detail\":{}}}",
        ),
        "411"
    );
    assert_eq!(
        post(addr, "/v1/ingest", &month),
        json_wire(
            "429 Too Many Requests",
            "Retry-After: 1\r\n",
            "{\"error\":{\"code\":\"ingest_backpressure\",\"message\":\"0 events already pending; retry after the next seal\",\"detail\":{}}}",
        ),
        "429"
    );
    server.shutdown();

    // A roomy buffer: one sealed month, then the stream head and its
    // first chunk (the replayed history starts with the era frame).
    let server = start(live_engine(1 << 20), |c| c.max_body_bytes = 32 * 1024 * 1024);
    let addr = server.addr();
    let ingested = post(addr, "/v1/ingest", &month);
    assert!(ingested.starts_with("HTTP/1.1 200 OK\r\n"), "ingest failed: {ingested}");
    let first = "event: era\ndata: {\"month\":{\"year\":2018,\"month\":6},\"transition\":{\"from\":null,\"to\":\"SetUp\"}}\n\n";
    assert_eq!(
        get(addr, "/v1/stream?max=1"),
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n{:x}\r\n{first}\r\n0\r\n\r\n",
            first.len()
        ),
        "stream head, first chunk, terminal chunk"
    );
    server.shutdown();
}

#[test]
fn draining_node_answers_503_with_retry_after() {
    let engine = Engine::new(test_store(), vec![pinned_experiment()], 2, 16);
    let server = start(engine, |c| {
        c.read_timeout = Duration::from_millis(1500);
        c.drain_timeout = Duration::from_secs(10);
    });
    let addr = server.addr();
    // A silent connection keeps the drain open until its head window ends.
    let holder = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    let drain = std::thread::spawn(move || server.graceful_shutdown());
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        get(addr, "/v1/healthz"),
        json_wire(
            "503 Service Unavailable",
            "Retry-After: 10\r\n",
            "{\"error\":{\"code\":\"draining\",\"message\":\"server is draining for shutdown, retry shortly\",\"detail\":{}}}",
        ),
        "drain 503"
    );
    drop(holder);
    drain.join().expect("drain thread");
}
