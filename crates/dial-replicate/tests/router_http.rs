//! The `dial route` front's own HTTP behaviour over real sockets: what it
//! answers before any node is involved (the request limits and its error
//! envelope), and which upstream headers survive a relay.

use dial_replicate::{Router, RouterConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Sends `request` and reads until the router closes the connection.
fn exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(request).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    String::from_utf8_lossy(&raw).into_owned()
}

fn body_of(raw: &str) -> &str {
    raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default()
}

/// An address nothing listens on.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

/// Reads one request (head, then its `Content-Length` body) off `stream`.
fn read_request(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&raw[..end]).to_lowercase();
            let len = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .map_or(0, |v| v.trim().parse::<usize>().unwrap());
            if raw.len() >= end + 4 + len {
                return head;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return String::from_utf8_lossy(&raw).to_lowercase(),
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
        }
    }
}

/// A stand-in node that sheds every write with 429 and answers every
/// read as a draining node would, both with `Retry-After`.
fn shedding_upstream() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let request = read_request(&mut stream);
            let (status, retry, body) = if request.starts_with("post") {
                (
                    "429 Too Many Requests",
                    1,
                    r#"{"error":{"code":"ingest_backpressure","message":"shed","detail":{}}}"#,
                )
            } else {
                (
                    "503 Service Unavailable",
                    5,
                    r#"{"error":{"code":"draining","message":"later","detail":{}}}"#,
                )
            };
            let reply = format!(
                "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nRetry-After: {retry}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(reply.as_bytes());
        }
    });
    addr
}

fn router_over(leader: String) -> Router {
    Router::start(RouterConfig::new(0, leader, Vec::new())).expect("start router")
}

#[test]
fn relayed_replies_keep_retry_after() {
    let router = router_over(shedding_upstream());
    let addr = router.addr();

    let shed = exchange(
        addr,
        b"POST /v1/ingest HTTP/1.1\r\nHost: r\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
    );
    assert!(shed.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{shed:?}");
    assert!(shed.contains("\r\nRetry-After: 1\r\n"), "429 lost its retry hint: {shed:?}");

    // Every replica is draining: the held 503 is relayed, hint included.
    let drained =
        exchange(addr, b"GET /v1/analyze/table1 HTTP/1.1\r\nHost: r\r\nConnection: close\r\n\r\n");
    assert!(drained.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{drained:?}");
    assert!(drained.contains("\r\nRetry-After: 5\r\n"), "503 lost its retry hint: {drained:?}");
    assert!(body_of(&drained).contains("\"draining\""), "{drained:?}");
    router.stop();
}

#[test]
fn oversized_head_answers_431_and_oversized_body_413() {
    let router = router_over(dead_addr());
    let addr = router.addr();

    let padding = "a".repeat(17 * 1024);
    let raw =
        exchange(addr, format!("GET /v1/healthz HTTP/1.1\r\nX-Pad: {padding}\r\n\r\n").as_bytes());
    assert!(raw.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"), "{raw:?}");
    assert_eq!(
        body_of(&raw),
        r#"{"error":{"code":"headers_too_large","message":"request head exceeds 16384 bytes","detail":{}}}"#
    );

    let declared = 64 * 1024 * 1024 + 1;
    let raw = exchange(
        addr,
        format!("POST /v1/ingest HTTP/1.1\r\nHost: r\r\nContent-Length: {declared}\r\n\r\n")
            .as_bytes(),
    );
    assert!(raw.starts_with("HTTP/1.1 413 Payload Too Large\r\n"), "{raw:?}");
    assert_eq!(
        body_of(&raw),
        format!(
            r#"{{"error":{{"code":"payload_too_large","message":"declared body of {declared} bytes exceeds 67108864 bytes","detail":{{}}}}}}"#
        )
    );
    router.stop();
}

#[test]
fn dribbling_client_gets_408_when_the_window_ends() {
    let router = router_over(dead_addr());
    let mut stream = TcpStream::connect(router.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
    let started = Instant::now();
    stream.write_all(b"GET /v1/healthz HTTP/1.1\r\nX-Slow: ").unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 1024];
    // One byte every 300ms never completes the head, and each read
    // succeeds: only a window over the whole head cuts this client off.
    while raw.is_empty() {
        assert!(
            started.elapsed() < Duration::from_secs(15),
            "no reply after 15s of dribbling: the window does not bound the head"
        );
        let _ = stream.write_all(b"a");
        match stream.read(&mut chunk) {
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("read failed before any reply: {e}"),
        }
    }
    let elapsed = started.elapsed();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = stream.read_to_end(&mut raw);
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{raw:?}");
    assert!(body_of(&raw).contains(r#""code":"request_timeout""#), "{raw:?}");
    assert!(elapsed >= Duration::from_secs(9), "cut off before the 10s window: {elapsed:?}");
    router.stop();
}

#[test]
fn router_errors_use_the_node_envelope() {
    let router = router_over(dead_addr());
    let addr = router.addr();

    let raw = exchange(addr, b"GET /v1/summary HTTP/1.1\r\nHost: r\r\nConnection: close\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 502 Bad Gateway\r\n"), "{raw:?}");
    let v: serde_json::Value = serde_json::from_str(body_of(&raw)).expect("envelope is JSON");
    assert_eq!(v.get("error").get("code").as_str(), Some("bad_upstream"));
    assert!(body_of(&raw).ends_with(r#","detail":{}}}"#), "detail must be {{}}: {raw:?}");

    let raw = exchange(addr, b"PUT /v1/summary HTTP/1.1\r\nHost: r\r\nConnection: close\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"), "{raw:?}");
    assert_eq!(
        body_of(&raw),
        r#"{"error":{"code":"method_not_allowed","message":"router accepts GET, and POST /v1/ingest","detail":{}}}"#
    );
    router.stop();
}
