//! Chaos suite: drives the dial-serve stack through `dial-fault`'s
//! deterministic fault plans and asserts, per fault rule, that the server
//! stays up, answers the documented status, and counts the event in
//! `/v1/metrics` — plus the deadline, drain, and dial-par panic-safety
//! acceptance scenarios from DESIGN §12.
//!
//! Chaos installs are process-global, so every test here (including the
//! ones without a plan, whose injection points must stay silent) holds
//! one shared mutex.

use dial_serve::{transport, Engine, ServeConfig, ServeExperiment, Server, SnapshotStore};
use dial_sim::SimConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serialises chaos installs (and any test whose injection points must
/// not observe another test's plan).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn test_store() -> SnapshotStore {
    let out = SimConfig::paper_default().with_seed(7).with_scale(0.01).simulate_full();
    SnapshotStore::from_parts(out.dataset, out.ledger, 7, 4)
}

fn start(engine: Engine, tune: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut cfg = ServeConfig { port: 0, ..ServeConfig::default() };
    tune(&mut cfg);
    Server::start(Arc::new(engine), &cfg).expect("bind ephemeral port")
}

/// Minimal GET returning the raw response bytes (read to EOF; the server
/// always closes the connection).
fn http_get_raw(addr: SocketAddr, path: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    raw
}

/// GET through the shared client, returning `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let reply = transport::get(&addr.to_string(), path).expect("GET");
    (reply.status, reply.text())
}

fn metrics(addr: SocketAddr) -> serde_json::Value {
    let (status, body) = http_get(addr, "/v1/metrics");
    assert_eq!(status, 200, "metrics endpoint must stay up: {body}");
    serde_json::from_str(&body).expect("metrics is JSON")
}

fn error_code(body: &str) -> String {
    let v: serde_json::Value =
        serde_json::from_str(body).unwrap_or_else(|e| panic!("not JSON ({e:?}): {body}"));
    v.get("error").get("code").as_str().expect("error.code").to_string()
}

#[test]
fn slow_read_fault_yields_408_and_server_stays_up() {
    let _serial = serial();
    // One injected 400ms read stall against a 250ms header window: the
    // dribbled request must be cut off with 408, and the follow-up
    // metrics request (the limit is spent) must sail through.
    let _chaos = dial_fault::install(
        dial_fault::ChaosPlan::parse("seed=1;slow_read@1:delay=400:limit=1").unwrap(),
    );
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 8);
    let server = start(engine, |cfg| cfg.read_timeout = Duration::from_millis(250));
    let addr = server.addr();

    let (status, body) = http_get(addr, "/v1/healthz");
    assert_eq!(status, 408, "stalled read must time the request out: {body}");
    assert_eq!(error_code(&body), "request_timeout");

    let m = metrics(addr);
    assert_eq!(m.get("faults_by_point").get("slow_read").as_u64(), Some(1));
    assert!(m.get("requests_rejected").as_u64().unwrap() >= 1);
    let (status, _) = http_get(addr, "/v1/healthz");
    assert_eq!(status, 200, "server must keep serving after the fault");
    server.shutdown();
}

#[test]
fn slow_loris_dribble_is_cut_off_at_the_header_deadline() {
    let _serial = serial();
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 8);
    let server = start(engine, |cfg| cfg.read_timeout = Duration::from_millis(300));
    let addr = server.addr();

    // Dribble one byte every 40ms: each read() succeeds, so a per-read
    // timeout would never fire — only the total header window cuts this
    // client off.
    let begun = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let doomed = b"GET /v1/healthz HTTP/1.1\r\n";
    let mut raw = Vec::new();
    for byte in doomed {
        if stream.write_all(&[*byte]).is_err() {
            break; // server already hung up on us, which is the point
        }
        std::thread::sleep(Duration::from_millis(40));
        // Poll for an early response without blocking the dribble.
        stream.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
        let mut chunk = [0u8; 512];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                break;
            }
            Err(_) => {}
        }
    }
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "dribbling client must get 408, got {text:?}");
    assert!(
        begun.elapsed() < Duration::from_secs(2),
        "the total header window must cut the dribble off promptly, took {:?}",
        begun.elapsed()
    );
    assert!(metrics(addr).get("requests_rejected").as_u64().unwrap() >= 1);
    server.shutdown();
}

#[test]
fn truncated_write_is_bounded_and_next_request_is_clean() {
    let _serial = serial();
    let _chaos = dial_fault::install(
        dial_fault::ChaosPlan::parse("seed=1;trunc_write@1:bytes=20:limit=1").unwrap(),
    );
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 8);
    let server = start(engine, |_| {});
    let addr = server.addr();

    let raw = http_get_raw(addr, "/v1/analyze/table1");
    assert_eq!(raw.len(), 20, "the faulted response is cut at exactly `bytes`");
    assert!(raw.starts_with(b"HTTP/1.1 200"), "truncation happens mid-wire, not mid-compute");

    // The limit is spent: the same request now arrives whole and parses.
    let (status, body) = http_get(addr, "/v1/analyze/table1");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).expect("clean body is JSON");
    assert_eq!(v.get("id").as_str(), Some("table1"));

    let m = metrics(addr);
    assert_eq!(m.get("faults_by_point").get("trunc_write").as_u64(), Some(1));
    server.shutdown();
}

/// A servable experiment fanning out over the shared pool, so injected
/// worker panics have chunks to land on.
fn parallel_sum_experiment() -> ServeExperiment {
    ServeExperiment {
        id: "par-sum".into(),
        title: "parallel map sum".into(),
        paper_claim: String::new(),
        scope: dial_serve::EraScope::All,
        run: Arc::new(|_| {
            let parts = dial_par::parallel_map((0u64..64).collect(), |i| i * i);
            format!("{{\"sum\":{}}}", parts.iter().sum::<u64>())
        }),
    }
}

#[test]
fn injected_worker_panic_fails_the_request_not_the_server() {
    let _serial = serial();
    let _chaos =
        dial_fault::install(dial_fault::ChaosPlan::parse("seed=1;worker_panic@1:limit=1").unwrap());
    let out = SimConfig::paper_default().with_seed(7).with_scale(0.01).simulate_full();
    let store = SnapshotStore::from_parts(out.dataset, out.ledger, 7, 4);
    let engine = Engine::new(store, vec![parallel_sum_experiment()], 2, 8);
    let server = start(engine, |_| {});
    let addr = server.addr();

    let (status, body) = http_get(addr, "/v1/analyze/par-sum");
    assert_eq!(status, 500, "the panicked run fails only its own request: {body}");
    assert_eq!(error_code(&body), "experiment_failed");

    // The worker survived; the spent limit means a clean, correct rerun.
    let (status, body) = http_get(addr, "/v1/analyze/par-sum");
    assert_eq!(status, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let expected: u64 = (0u64..64).map(|i| i * i).sum();
    assert_eq!(v.get("result").get("sum").as_u64(), Some(expected));

    let m = metrics(addr);
    assert_eq!(m.get("panics_recovered").as_u64(), Some(1));
    server.shutdown();
}

#[test]
fn handler_stall_converts_to_504_under_request_deadline() {
    let _serial = serial();
    let _chaos = dial_fault::install(
        dial_fault::ChaosPlan::parse("seed=1;stall@1:delay=300:limit=1").unwrap(),
    );
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 8);
    let server = start(engine, |cfg| cfg.request_deadline = Some(Duration::from_millis(100)));
    let addr = server.addr();

    let begun = Instant::now();
    let (status, body) = http_get(addr, "/v1/healthz");
    assert_eq!(status, 504, "a stalled handler burns the request budget: {body}");
    assert_eq!(error_code(&body), "deadline_exceeded");
    assert!(
        begun.elapsed() < Duration::from_millis(600),
        "the 504 lands as soon as the stall clears, took {:?}",
        begun.elapsed()
    );

    let m = metrics(addr);
    assert_eq!(m.get("faults_by_point").get("stall").as_u64(), Some(1));
    assert_eq!(m.get("deadlines_exceeded").as_u64(), Some(1));
    let (status, _) = http_get(addr, "/v1/healthz");
    assert_eq!(status, 200, "subsequent requests fit the budget fine");
    server.shutdown();
}

#[test]
fn cache_poison_attempt_is_rejected_by_fingerprint_check() {
    let _serial = serial();
    let _chaos =
        dial_fault::install(dial_fault::ChaosPlan::parse("seed=1;poison@1:limit=1").unwrap());
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 8);
    let server = start(engine, |_| {});
    let addr = server.addr();

    let (status, first) = http_get(addr, "/v1/analyze/table1");
    assert_eq!(status, 200, "the poison attempt rides a successful request");
    let (status, second) = http_get(addr, "/v1/analyze/table1");
    assert_eq!(status, 200);
    assert_eq!(first, second, "the cache serves the legitimate body, not the tampered one");
    assert!(!first.contains("tampered"));

    let m = metrics(addr);
    assert_eq!(m.get("faults_by_point").get("poison").as_u64(), Some(1));
    assert_eq!(m.get("poison_rejected").as_u64(), Some(1));
    server.shutdown();
}

#[test]
fn oversized_request_head_answers_431() {
    let _serial = serial();
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 8);
    let server = start(engine, |cfg| cfg.max_header_bytes = 1024);
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let padding = "x".repeat(4096);
    write!(stream, "GET /v1/healthz HTTP/1.1\r\nX-Padding: {padding}\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 431"), "oversized head must 431, got {raw:?}");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default();
    assert_eq!(error_code(body), "headers_too_large");
    assert!(metrics(addr).get("requests_rejected").as_u64().unwrap() >= 1);
    server.shutdown();
}

#[test]
fn oversized_declared_body_answers_413() {
    let _serial = serial();
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 8);
    let server = start(engine, |cfg| cfg.max_body_bytes = 1024);
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET /v1/healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 999999\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 413"), "oversized declared body must 413, got {raw:?}");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default();
    assert_eq!(error_code(body), "payload_too_large");
    assert!(metrics(addr).get("requests_rejected").as_u64().unwrap() >= 1);
    server.shutdown();
}

/// The fixed request sequence used by the replay test; `/v1/metrics` is
/// deliberately absent (latency sums are wall-clock and may differ).
const REPLAY_PATHS: [&str; 6] = [
    "/v1/healthz",
    "/v1/analyze/table1",
    "/v1/analyze/fig1",
    "/v1/analyze/table1",
    "/v1/summary",
    "/v1/analyze/fig1",
];

/// Runs the fixed sequence on a fresh same-seed server (optionally under
/// `spec`) and returns the responses plus the recorded fault events.
fn replay_run(spec: Option<&str>) -> (Vec<(u16, String)>, Vec<dial_fault::FaultEvent>) {
    let _chaos = spec.map(|s| dial_fault::install(dial_fault::ChaosPlan::parse(s).unwrap()));
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 8);
    let server = start(engine, |_| {});
    let addr = server.addr();
    let responses: Vec<(u16, String)> = REPLAY_PATHS.iter().map(|p| http_get(addr, p)).collect();
    let events = dial_fault::events();
    server.shutdown();
    (responses, events)
}

#[test]
fn chaos_schedule_replays_identically_and_clean_requests_match_unfaulted() {
    let _serial = serial();
    // A rate rule keeps the schedule non-trivial; the delay is small so
    // every request still succeeds and only *timing* is perturbed.
    let spec = "seed=42;slow_read%40:delay=5";
    let (responses_a, events_a) = replay_run(Some(spec));
    let (responses_b, events_b) = replay_run(Some(spec));
    assert_eq!(events_a, events_b, "same seed must produce the identical fault sequence");
    assert!(!events_a.is_empty(), "a 40% rate over the sequence should fire at least once");
    assert_eq!(responses_a, responses_b, "status tallies and bodies must replay identically");

    let (responses_clean, events_clean) = replay_run(None);
    assert!(events_clean.is_empty());
    assert_eq!(
        responses_a, responses_clean,
        "requests surviving the faulted run are byte-identical to the unfaulted run"
    );
}

#[test]
fn width_one_pool_reuses_slot_after_cooperative_timeout() {
    let _serial = serial();
    let coop = ServeExperiment {
        id: "coop".into(),
        title: "cooperative sleeper".into(),
        paper_claim: String::new(),
        scope: dial_serve::EraScope::All,
        run: Arc::new(|_| {
            for _ in 0..200 {
                std::thread::sleep(Duration::from_millis(10));
                dial_fault::deadline::checkpoint();
            }
            "{\"slept\":true}".to_string()
        }),
    };
    let fast = ServeExperiment {
        id: "fast".into(),
        title: "returns immediately".into(),
        paper_claim: String::new(),
        scope: dial_serve::EraScope::All,
        run: Arc::new(|_| "{\"fast\":true}".to_string()),
    };
    let out = SimConfig::paper_default().with_seed(7).with_scale(0.01).simulate_full();
    let store = SnapshotStore::from_parts(out.dataset, out.ledger, 7, 4);
    // One running slot, zero queue: a burnt slot would starve everything.
    let engine = Engine::new(store, vec![coop, fast], 1, 0);
    let server = start(engine, |cfg| cfg.request_deadline = Some(Duration::from_millis(120)));
    let addr = server.addr();

    let begun = Instant::now();
    let (status, body) = http_get(addr, "/v1/analyze/coop");
    assert_eq!(status, 504, "{body}");
    assert_eq!(error_code(&body), "deadline_exceeded");
    assert!(
        begun.elapsed() < Duration::from_millis(220),
        "504 must land within deadline + 100ms, took {:?}",
        begun.elapsed()
    );

    // The cooperative unwind frees the slot within one checkpoint hop;
    // the deterministic retry client absorbs that sliver of time.
    let retry = dial_fault::retry::RetryPolicy::quick(3);
    let follow_up = retry.run(|_| {
        let (status, body) = http_get(addr, "/v1/analyze/fast");
        if status == 200 {
            Ok(body)
        } else {
            Err((status, body))
        }
    });
    assert!(follow_up.is_ok(), "slot not immediately reusable: {follow_up:?}");
    server.shutdown();
}

#[test]
fn panicking_parallel_map_propagates_while_concurrent_scope_completes() {
    let _serial = serial();
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // Thread A: a closure that organically panics on one item. Thread B:
    // an honest computation on the same shared pool, started while A's
    // panic is in flight.
    let b = std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(10));
        let parts = dial_par::parallel_map((0u64..1024).collect(), |i| {
            std::thread::sleep(Duration::from_micros(50));
            i
        });
        parts.iter().sum::<u64>()
    });
    let a = std::panic::catch_unwind(|| {
        dial_par::parallel_map((0u64..1024).collect(), |i| {
            if i == 700 {
                panic!("organic bug in item 700");
            }
            i
        })
    });
    let b_sum = b.join().expect("the concurrent scope must be unaffected");
    std::panic::set_hook(quiet);
    let err = a.expect_err("the panic must propagate to parallel_map's caller");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("organic bug"), "panic payload preserved, got {msg:?}");
    assert_eq!(b_sum, (0u64..1024).sum::<u64>());

    // The pool's workers all survived: a follow-up map still works.
    let again = dial_par::parallel_map((0u64..32).collect(), |i| i + 1);
    assert_eq!(again.iter().sum::<u64>(), (1u64..=32).sum::<u64>());
}

#[test]
fn sigterm_drains_in_flight_completes_all_and_rejects_late_connections() {
    let _serial = serial();
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("dial-chaos-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("market.json");
    let out = Command::new(env!("CARGO_BIN_EXE_dial"))
        .args(["generate", "--scale", "0.01", "--seed", "5", "--out"])
        .arg(&snapshot)
        .output()
        .expect("run dial generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));

    // Every request stalls 600ms in the handler, so a burst is reliably
    // in flight when the signal lands.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dial"))
        .arg("serve")
        .arg("--snapshot")
        .arg(&snapshot)
        .args(["--port", "0", "--threads", "2", "--drain-timeout", "5"])
        .args(["--chaos", "seed=1;stall@1:delay=600"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dial serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr: SocketAddr = loop {
        let line = lines
            .next()
            .expect("dial serve exited before announcing its address")
            .expect("read child stderr");
        if let Some(rest) = line.strip_prefix("serving on http://") {
            let addr = rest.split_whitespace().next().expect("address after prefix");
            break addr.parse().expect("parseable socket address");
        }
    };
    // Keep draining the pipe so the child never blocks on a full buffer.
    let drain_stderr = std::thread::spawn(move || for _ in lines.by_ref() {});

    // 8 concurrent in-flight requests, each stalled past the signal.
    let in_flight: Vec<_> =
        (0..8).map(|_| std::thread::spawn(move || http_get(addr, "/v1/healthz"))).collect();
    std::thread::sleep(Duration::from_millis(200));

    let killed_at = Instant::now();
    let kill =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("run kill");
    assert!(kill.success());

    // A late connection during the drain is turned away with the hint.
    std::thread::sleep(Duration::from_millis(150));
    let raw = String::from_utf8_lossy(&http_get_raw(addr, "/v1/healthz")).into_owned();
    assert!(raw.starts_with("HTTP/1.1 503"), "late connection must 503, got {raw:?}");
    assert!(raw.contains("Retry-After:"), "drain 503 carries Retry-After: {raw:?}");
    assert_eq!(error_code(raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap()), "draining");

    // Every in-flight request still completes with 200.
    for handle in in_flight {
        let (status, body) = handle.join().expect("client thread");
        assert_eq!(status, 200, "in-flight requests must finish during the drain: {body}");
    }

    // The process exits 0 well before the drain deadline.
    let exit = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status;
        }
        assert!(
            killed_at.elapsed() < Duration::from_secs(6),
            "dial serve failed to exit before the drain deadline"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(exit.success(), "graceful drain must exit 0, got {exit:?}");
    drain_stderr.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// POST returning `(status, body)`.
fn http_post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn start_live(tune: impl FnOnce(&mut ServeConfig)) -> (Server, Vec<String>) {
    let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
    let batches: Vec<String> =
        dial_stream::segments(&out).iter().map(|s| dial_stream::encode_ndjson(s)).collect();
    let engine = Engine::new_live(9, 3, dial_serve::registry_experiments(), 2, 16, 1 << 20);
    let server = start(engine, |cfg| {
        cfg.max_body_bytes = 32 * 1024 * 1024;
        tune(cfg);
    });
    (server, batches)
}

#[test]
fn injected_seal_panic_fails_the_batch_and_leaves_the_stream_usable() {
    let _serial = serial();
    let _chaos =
        dial_fault::install(dial_fault::ChaosPlan::parse("seed=1;seal_panic@1:limit=1").unwrap());
    let (server, batches) = start_live(|_| {});
    let addr = server.addr();

    // The first watermark panics before its commit stage: 500, counted,
    // nothing committed.
    let (status, body) = http_post(addr, "/v1/ingest", &batches[0]);
    assert_eq!(status, 500, "{body}");
    assert_eq!(error_code(&body), "seal_failed");
    let m = metrics(addr);
    assert_eq!(m.get("seal_failures").as_u64(), Some(1));
    assert_eq!(m.get("seals_total").as_u64(), Some(0));

    // The panic was pre-commit: the batch's entity events are still
    // pending, so resending just the watermark (the limit is spent)
    // seals the month cleanly — no gap, no drift.
    let watermark = format!("{}\n", batches[0].lines().last().unwrap());
    let (status, body) = http_post(addr, "/v1/ingest", &watermark);
    assert_eq!(status, 200, "watermark retry after injected seal panic failed: {body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("seals").as_u64(), Some(1));
    assert_eq!(v.get("pending").as_u64(), Some(0));

    server.shutdown();
}

#[test]
fn injected_ingest_stall_delays_but_still_applies_the_batch() {
    let _serial = serial();
    let _chaos = dial_fault::install(
        dial_fault::ChaosPlan::parse("seed=1;ingest_stall@1:delay=300:limit=1").unwrap(),
    );
    let (server, batches) = start_live(|_| {});
    let addr = server.addr();

    let begun = Instant::now();
    let (status, body) = http_post(addr, "/v1/ingest", &batches[0]);
    assert_eq!(status, 200, "stalled ingest must still land: {body}");
    assert!(
        begun.elapsed() >= Duration::from_millis(300),
        "the stall must actually delay the request, took {:?}",
        begun.elapsed()
    );
    let m = metrics(addr);
    assert_eq!(m.get("faults_by_point").get("ingest_stall").as_u64(), Some(1));
    assert_eq!(m.get("seals_total").as_u64(), Some(1));

    server.shutdown();
}
