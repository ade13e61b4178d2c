//! The load generator's own HTTP/1.1 client: one connection per request
//! (the server answers `Connection: close`), plus a `/v1/stream` reader.
//! It is deliberately separate from the program's clients, so a change to
//! those cannot change how the benchmark measures.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(120);

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let sock = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    sock.set_read_timeout(Some(TIMEOUT))?;
    sock.set_write_timeout(Some(TIMEOUT))?;
    sock.set_nodelay(true)?;
    Ok(sock)
}

pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    request(addr, "GET", path, b"")
}

pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    request(addr, "POST", path, body)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let mut sock = connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut msg = head.into_bytes();
    msg.extend_from_slice(body);
    sock.write_all(&msg)?;
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw)?;
    parse(&raw)
}

fn parse(raw: &[u8]) -> std::io::Result<Reply> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let split =
        raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(|| bad("no header end"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-utf8 head"))?;
    let status =
        head.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| bad("no status code"))?;
    let mut body = raw[split + 4..].to_vec();
    let length = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse::<usize>().ok())?
    });
    if let Some(n) = length {
        if body.len() < n {
            return Err(bad("short body"));
        }
        body.truncate(n);
    }
    Ok(Reply { status, body })
}

/// One `/v1/stream` frame and when the reader received it.
pub struct Frame {
    pub event: String,
    pub data: String,
    pub at: Instant,
}

/// A `/v1/stream` subscription read on its own thread.
pub struct Subscription {
    pub frames: Receiver<Frame>,
    sock: TcpStream,
    reader: Option<JoinHandle<()>>,
}

impl Subscription {
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let mut sock = connect(addr)?;
        sock.set_read_timeout(None)?;
        write!(sock, "GET /v1/stream HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
        let mut reader = BufReader::new(sock.try_clone()?);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 || line == "\r\n" {
                break;
            }
        }
        let (tx, frames) = channel();
        let reader = std::thread::spawn(move || {
            // Chunked framing: size line, chunk, CRLF. Each chunk holds one
            // whole `event:`/`data:` frame (or a keep-alive comment).
            let mut size = String::new();
            loop {
                size.clear();
                match reader.read_line(&mut size) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {}
                }
                let Ok(n) = usize::from_str_radix(size.trim(), 16) else { return };
                if n == 0 {
                    return;
                }
                let mut chunk = vec![0u8; n + 2];
                if reader.read_exact(&mut chunk).is_err() {
                    return;
                }
                let at = Instant::now();
                let text = String::from_utf8_lossy(&chunk[..n]);
                let mut event = String::new();
                let mut data = String::new();
                for l in text.lines() {
                    if let Some(v) = l.strip_prefix("event: ") {
                        event = v.to_string();
                    } else if let Some(v) = l.strip_prefix("data: ") {
                        data = v.to_string();
                    }
                }
                if !event.is_empty() && tx.send(Frame { event, data, at }).is_err() {
                    return;
                }
            }
        });
        Ok(Self { frames, sock, reader: Some(reader) })
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let _ = self.sock.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
