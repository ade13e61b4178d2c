//! The workspace's one HTTP/1.1 transport. The node front-end
//! ([`crate::http`]), the `dial route` front, the sync runner, the
//! promote survey, the CLI and the benches all run on it (DESIGN §10).
//!
//! One request per connection and `Connection: close` on every reply;
//! bodies are sized by `Content-Length`, or chunked for `/v1/stream`.
//! The readers hold one total deadline per head or body, re-arming the
//! socket timeout with the *remaining* window before every read, so a
//! client dribbling bytes is cut off (408) like a silent one.
//!
//! There are no fault hooks here: slow reads, truncated writes and
//! stalls are node faults and stay at the node's call sites, so a
//! router sharing this code never takes them.

use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---- accept loop -------------------------------------------------------

/// A listener on `127.0.0.1` serving every connection on its own thread.
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Binds `127.0.0.1:port` (0 = ephemeral) and spawns the accept loop
    /// on a `{name}-accept` thread; each connection runs `handler` on its
    /// own `{name}-conn` thread.
    pub fn start<H>(port: u16, name: &str, handler: H) -> std::io::Result<Self>
    where
        H: Fn(TcpStream) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let active = Arc::clone(&active);
            let handler = Arc::new(handler);
            let conn_name = format!("{name}-conn");
            std::thread::Builder::new().name(format!("{name}-accept")).spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let handler = Arc::clone(&handler);
                    let done = Arc::clone(&active);
                    active.fetch_add(1, Ordering::SeqCst);
                    let spawned =
                        std::thread::Builder::new().name(conn_name.clone()).spawn(move || {
                            handler(stream);
                            done.fetch_sub(1, Ordering::SeqCst);
                        });
                    if spawned.is_err() {
                        active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })?
        };
        Ok(Self { addr, stop, active, handle: Some(handle) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections whose handler is still running.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Blocks until the accept loop ends.
    pub fn join(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting: set the flag, poke the listener (the loop only
    /// sees the flag around an accept), join the loop. Connections
    /// already accepted finish on their own threads.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.join();
    }
}

// ---- request side ------------------------------------------------------

/// Size and time limits on one inbound request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// The budget for the whole head to arrive (and, from its own start,
    /// for the body).
    pub window: Duration,
    /// Heads larger than this answer 431.
    pub max_head: usize,
    /// A declared `Content-Length` above this answers 413.
    pub max_body: usize,
}

/// A request head read off the wire.
pub struct Head {
    /// The request method, e.g. `GET`.
    pub method: String,
    /// The request target as sent: path plus any query string.
    pub target: String,
    /// Body bytes that arrived in the same reads as the head.
    pub leftover: Vec<u8>,
    text: String,
}

impl Head {
    /// The value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.text.lines().skip(1).find_map(|line| {
            let (n, value) = line.split_once(':')?;
            n.trim().eq_ignore_ascii_case(name).then(|| value.trim())
        })
    }

    /// The declared `Content-Length`, if a header carries one.
    pub fn content_length(&self) -> Option<usize> {
        self.header("content-length").and_then(|v| v.parse().ok())
    }
}

/// Reads the request head (everything through `\r\n\r\n`) before
/// `deadline`, then checks it in a fixed order. A refusal is the reply
/// to send: 408 (window ran out — silent *or* dribbling client), 431
/// (head over `max_head`), 400 (no `METHOD target` line; the whole head
/// was read, so only this refusal leaves nothing unread), 413 (declared
/// body over `max_body`). The body stays unread for [`read_body`], so a
/// handler can refuse a request first.
pub fn read_head(
    stream: &mut TcpStream,
    deadline: Instant,
    limits: &Limits,
) -> Result<Head, Response> {
    let timeout = || {
        let message = format!("request head did not arrive within {:?}", limits.window);
        Response::error(408, "request_timeout", message)
    };
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let (text, leftover) = loop {
        let now = Instant::now();
        if now >= deadline || stream.set_read_timeout(Some(deadline - now)).is_err() {
            return Err(timeout());
        }
        match stream.read(&mut chunk) {
            Ok(0) => break (String::from_utf8_lossy(&buf).into_owned(), Vec::new()),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > limits.max_head {
                    let message = format!("request head exceeds {} bytes", limits.max_head);
                    return Err(Response::error(431, "headers_too_large", message));
                }
                if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    let body = buf.split_off(pos + 4);
                    break (String::from_utf8_lossy(&buf).into_owned(), body);
                }
            }
            Err(_) => return Err(timeout()),
        }
    };
    let mut parts = text.lines().next().unwrap_or_default().split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(Response::error(400, "malformed_request", "could not parse the request line"));
    };
    let (method, target) = (method.to_string(), target.to_string());
    let head = Head { method, target, leftover, text };
    match head.content_length() {
        Some(len) if len > limits.max_body => {
            let message = format!("declared body of {len} bytes exceeds {} bytes", limits.max_body);
            Err(Response::error(413, "payload_too_large", message))
        }
        _ => Ok(head),
    }
}

/// Reads a `len`-byte body before `deadline` — the head reader's
/// slow-loris defence applied to the body. `body` holds the bytes that
/// came with the head ([`Head::leftover`]). A refusal is the reply to
/// send: 408 when the window runs out, 400 when the client stops short.
pub fn read_body(
    stream: &mut TcpStream,
    mut body: Vec<u8>,
    len: usize,
    deadline: Instant,
    limits: &Limits,
) -> Result<Vec<u8>, Response> {
    let mut chunk = [0u8; 4096];
    while body.len() < len {
        let now = Instant::now();
        let read = if now >= deadline || stream.set_read_timeout(Some(deadline - now)).is_err() {
            None
        } else {
            stream.read(&mut chunk).ok()
        };
        match read {
            None => {
                let message = format!("request body did not arrive within {:?}", limits.window);
                return Err(Response::error(408, "request_timeout", message));
            }
            Some(0) => {
                let message = format!("body ended after {} of {len} declared bytes", body.len());
                return Err(Response::error(400, "truncated_body", message));
            }
            Some(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(len);
    Ok(body)
}

/// After replying to a request whose bytes were not all read, briefly
/// drains what the client already sent, so closing the socket does not
/// RST the unread data and destroy the reply before the client reads it.
pub fn drain_unread(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

// ---- response side -----------------------------------------------------

// Owned fields throughout: the vendored serde derive does not support
// lifetime parameters, and these bodies are tiny.
#[derive(Serialize)]
struct ErrorEnvelope {
    error: ErrorBody,
}

#[derive(Serialize)]
struct ErrorBody {
    code: String,
    message: String,
    detail: Value,
}

/// One reply: status, body with its content type, and the optional
/// `Location` (308/421) and `Retry-After` (429/503) headers.
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of `body`.
    pub content_type: String,
    /// The body bytes.
    pub body: Vec<u8>,
    /// `Location` header, when set.
    pub location: Option<String>,
    /// `Retry-After` header in seconds, when set.
    pub retry_after: Option<u64>,
}

impl Response {
    /// An `application/json` reply.
    pub fn json(status: u16, body: String) -> Self {
        Self::with_body(status, "application/json", body.into_bytes())
    }

    /// A 200 of raw bytes (CRC-framed sync batches).
    pub fn octets(bytes: Vec<u8>) -> Self {
        Self::with_body(200, "application/octet-stream", bytes)
    }

    fn with_body(status: u16, content_type: &str, body: Vec<u8>) -> Self {
        let content_type = content_type.to_string();
        Self { status, content_type, body, location: None, retry_after: None }
    }

    /// The uniform error envelope, with `"detail": {}`.
    pub fn error(status: u16, code: &str, message: impl Into<String>) -> Self {
        Self::error_with(status, code, message, BTreeMap::new())
    }

    /// The error envelope with structured `detail` (the valid ids, a
    /// redirect target, the epoch that fenced a write).
    pub fn error_with(
        status: u16,
        code: &str,
        message: impl Into<String>,
        detail: BTreeMap<String, Value>,
    ) -> Self {
        let error = ErrorBody {
            code: code.to_string(),
            message: message.into(),
            detail: Value::Object(detail),
        };
        Self::json(status, to_json(&ErrorEnvelope { error }))
    }

    /// An upstream reply passed on whole: status, body, and the headers
    /// that carry meaning across a hop (Content-Type, Location,
    /// Retry-After).
    pub fn relay(reply: HttpReply) -> Self {
        let content_type = reply.header("content-type").unwrap_or("application/json").to_string();
        let location = reply.header("location").map(str::to_string);
        let retry_after = reply.header("retry-after").and_then(|v| v.parse().ok());
        Self { status: reply.status, content_type, body: reply.body, location, retry_after }
    }

    /// The status line and headers, through the blank line.
    pub fn head(&self) -> String {
        let location =
            self.location.as_ref().map(|l| format!("Location: {l}\r\n")).unwrap_or_default();
        let retry_after =
            self.retry_after.map(|s| format!("Retry-After: {s}\r\n")).unwrap_or_default();
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n{location}{retry_after}Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )
    }

    /// Writes the head, then the body.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(self.head().as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// The reason phrase for every status the workspace emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        308 => "Permanent Redirect",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// Starts a chunked `text/event-stream` reply; [`write_chunk`] sends
/// each frame and [`end_chunks`] closes the feed.
pub fn write_stream_head(w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )
}

/// One HTTP/1.1 chunk, flushed.
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> std::io::Result<()> {
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")?;
    w.flush()
}

/// The terminal chunk: the client sees a clean end of stream.
pub fn end_chunks(w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// Serialises an in-memory value to JSON.
pub fn to_json<T: Serialize>(value: &T) -> String {
    // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
    serde_json::to_string(value).expect("response bodies serialise")
}

/// JSON string literal for `s` (quotes + escaping).
pub fn json_str(s: &str) -> String {
    // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
    serde_json::to_string(&s).expect("strings serialise")
}

// ---- client ------------------------------------------------------------

/// How long a single request may take end to end. Sync fetches move at
/// most one sealed batch (a few hundred KiB at paper scale), so a slow
/// leader is indistinguishable from a dead one well before this.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed HTTP response: status code, headers in arrival order, raw
/// body bytes.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// Status code from the response line.
    pub status: u16,
    /// `(name, value)` pairs in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// The response body, raw.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// First header value matching `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy) — for JSON endpoints.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// `GET {path}` against `addr` (a `host:port` string).
pub fn get(addr: &str, path: &str) -> Result<HttpReply, String> {
    exchange(addr, "GET", path, None, &[], IO_TIMEOUT)
}

/// [`get`] under a caller-chosen deadline — for probes, where "slow" must
/// mean "down" long before the default 10s would say so. `timeout`
/// bounds connect, write, and read each.
pub fn get_with_timeout(addr: &str, path: &str, timeout: Duration) -> Result<HttpReply, String> {
    exchange(addr, "GET", path, None, &[], timeout)
}

/// `POST {path}` with a body against `addr`.
pub fn post(addr: &str, path: &str, body: &[u8]) -> Result<HttpReply, String> {
    exchange(addr, "POST", path, Some(body), &[], IO_TIMEOUT)
}

/// [`post`] with extra request headers (`(name, value)` pairs) — how the
/// router stamps forwarded writes with `X-Dial-Epoch`/`X-Dial-Leader`.
pub fn post_with_headers(
    addr: &str,
    path: &str,
    body: &[u8],
    headers: &[(&str, &str)],
) -> Result<HttpReply, String> {
    exchange(addr, "POST", path, Some(body), headers, IO_TIMEOUT)
}

/// Opens a long-lived `GET {path}` (a `/v1/stream` feed) and returns the
/// socket with the response unread: status line, headers and chunks
/// arrive as the caller reads. `timeout` bounds the connect and the
/// write, and stays the read timeout until the caller re-arms it.
pub fn open_get(addr: &str, path: &str, timeout: Duration) -> Result<TcpStream, String> {
    let mut stream = connect(addr, timeout)?;
    stream
        .write_all(request_head("GET", path, addr, &[], None).as_bytes())
        .map_err(|e| format!("write to {addr}: {e}"))?;
    Ok(stream)
}

/// A fresh connection to `addr` with `timeout` on connect, read and write.
fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("bad address {addr}: no socket address"))?;
    let stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("socket timeouts on {addr}: {e}"))?;
    Ok(stream)
}

/// The request line and headers, through the blank line.
fn request_head(
    method: &str,
    path: &str,
    addr: &str,
    headers: &[(&str, &str)],
    body_len: Option<usize>,
) -> String {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(len) = body_len {
        head.push_str(&format!("Content-Length: {len}\r\n"));
    }
    head.push_str("\r\n");
    head
}

/// The one implementation behind every request/response entry point.
fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    headers: &[(&str, &str)],
    timeout: Duration,
) -> Result<HttpReply, String> {
    let mut stream = connect(addr, timeout)?;
    let head = request_head(method, path, addr, headers, body.map(<[u8]>::len));
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.unwrap_or(&[])))
        .map_err(|e| format!("write to {addr}: {e}"))?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read from {addr}: {e}"))?;
    parse(&raw).map_err(|e| format!("response from {addr}: {e}"))
}

/// Splits raw response bytes into status, headers, and body.
fn parse(raw: &[u8]) -> Result<HttpReply, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "no header terminator".to_string())?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|e| format!("non-UTF-8 header block: {e}"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| "empty response".to_string())?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    let mut body = raw[head_end + 4..].to_vec();
    // The server closes after each response, so EOF normally bounds the
    // body; Content-Length still wins when declared, guarding against
    // trailing bytes from a confused upstream.
    let declared = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok());
    if let Some(len) = declared {
        if body.len() < len {
            return Err(format!("truncated body: {} of {len} byte(s)", body.len()));
        }
        body.truncate(len);
    }
    Ok(HttpReply { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_headers_and_bounded_body() {
        let raw = b"HTTP/1.1 421 Misdirected Request\r\nContent-Type: application/json\r\nLocation: http://h:1/v1/ingest\r\nContent-Length: 4\r\n\r\nbodyJUNK";
        let reply = parse(raw).unwrap();
        assert_eq!(reply.status, 421);
        assert_eq!(reply.header("location"), Some("http://h:1/v1/ingest"));
        assert_eq!(reply.header("CONTENT-TYPE"), Some("application/json"));
        assert_eq!(reply.body, b"body");
    }

    #[test]
    fn rejects_truncated_and_malformed_responses() {
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort").is_err());
        assert!(parse(b"garbage").is_err());
        assert!(parse(b"HTTP/1.1 nope\r\n\r\n").is_err());
    }

    #[test]
    fn relay_keeps_the_headers_that_cross_a_hop() {
        let mut upstream = Response::error(503, "draining", "later");
        upstream.retry_after = Some(7);
        upstream.location = Some("/v1/x".to_string());
        let mut wire = upstream.head().into_bytes();
        wire.extend_from_slice(&upstream.body);
        let relayed = Response::relay(parse(&wire).unwrap());
        assert_eq!(relayed.head(), upstream.head());
        assert_eq!(relayed.body, upstream.body);
    }
}
