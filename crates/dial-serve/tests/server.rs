//! End-to-end tests for the dial-serve HTTP server: real sockets on an
//! ephemeral port, the workspace's own client, no mocks. The one request
//! that client cannot send (a POST without `Content-Length`) goes out
//! over a raw socket.

use dial_serve::transport::{self, HttpReply};
use dial_serve::{Engine, ServeConfig, ServeExperiment, Server, SnapshotStore};
use dial_sim::SimConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// GET returning the whole reply (status, headers, body).
fn http_get_full(addr: SocketAddr, path: &str) -> HttpReply {
    transport::get(&addr.to_string(), path).expect("GET")
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let reply = http_get_full(addr, path);
    (reply.status, reply.text())
}

fn test_store() -> SnapshotStore {
    let out = SimConfig::paper_default().with_seed(7).with_scale(0.01).simulate_full();
    SnapshotStore::from_parts(out.dataset, out.ledger, 7, 4)
}

fn start_server(engine: Engine) -> Server {
    let cfg = ServeConfig { port: 0, ..ServeConfig::default() };
    Server::start(Arc::new(engine), &cfg).expect("bind ephemeral port")
}

/// Asserts `body` is the uniform error envelope and returns its parts.
fn parse_envelope(body: &str) -> (String, serde_json::Value) {
    let v: serde_json::Value = serde_json::from_str(body)
        .unwrap_or_else(|e| panic!("error body is not JSON ({e:?}): {body}"));
    let err = v.get("error").as_object().unwrap_or_else(|| panic!("no error object: {body}"));
    let code = err["code"].as_str().expect("code is a string").to_string();
    assert!(err["message"].as_str().is_some(), "message missing: {body}");
    (code, err["detail"].clone())
}

#[test]
fn analyze_twice_is_identical_and_second_call_hits_the_cache() {
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 16);
    let server = start_server(engine);
    let addr = server.addr();

    let (status_a, body_a) = http_get(addr, "/v1/analyze/table1");
    let (status_b, body_b) = http_get(addr, "/v1/analyze/table1");
    assert_eq!(status_a, 200);
    assert_eq!(status_b, 200);
    assert_eq!(body_a, body_b, "cached response must be byte-identical");

    let (status_m, metrics) = http_get(addr, "/v1/metrics");
    assert_eq!(status_m, 200);
    let m: serde_json::Value = serde_json::from_str(&metrics).expect("metrics is JSON");
    assert_eq!(m.get("cache_misses").as_u64(), Some(1));
    assert_eq!(m.get("cache_hits").as_u64(), Some(1));

    server.shutdown();
}

#[test]
fn every_endpoint_answers_valid_json() {
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 16);
    let server = start_server(engine);
    let addr = server.addr();

    for path in ["/v1/healthz", "/v1/experiments", "/v1/summary", "/v1/metrics", "/v1/analyze/fig1"]
    {
        let (status, body) = http_get(addr, path);
        assert_eq!(status, 200, "{path} failed: {body}");
        serde_json::from_str::<serde_json::Value>(&body)
            .unwrap_or_else(|e| panic!("{path} returned invalid JSON ({e:?}): {body}"));
    }

    // Unknown experiment: enveloped 404 with the valid ids in the detail.
    let (status, body) = http_get(addr, "/v1/analyze/table99");
    assert_eq!(status, 404);
    let (code, detail) = parse_envelope(&body);
    assert_eq!(code, "unknown_experiment");
    let valid = detail.get("valid").as_array().expect("detail.valid is an array");
    assert!(valid.iter().any(|v| v.as_str() == Some("table1")), "{body}");

    // Unknown path and unsupported method, both enveloped.
    let (status, body) = http_get(addr, "/nope");
    assert_eq!(status, 404);
    assert_eq!(parse_envelope(&body).0, "unknown_endpoint");
    let reply = http_post(addr, "/v1/healthz", "");
    assert_eq!(reply.status, 405, "POST should 405, got {reply:?}");
    assert_eq!(parse_envelope(&reply.text()).0, "method_not_allowed");

    server.shutdown();
}

#[test]
fn legacy_paths_redirect_permanently_to_v1() {
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 16);
    let server = start_server(engine);
    let addr = server.addr();

    for (old, new) in [
        ("/healthz", "/v1/healthz"),
        ("/experiments", "/v1/experiments"),
        ("/summary", "/v1/summary"),
        ("/metrics", "/v1/metrics"),
        ("/analyze/table1", "/v1/analyze/table1"),
        ("/analyze?ids=table1,fig1", "/v1/analyze?ids=table1,fig1"),
    ] {
        let reply = http_get_full(addr, old);
        let body = reply.text();
        assert_eq!(reply.status, 308, "{old} should 308: {body}");
        let location = reply
            .header("location")
            .unwrap_or_else(|| panic!("{old}: no Location header in {:?}", reply.headers));
        assert_eq!(location, new);
        let (code, detail) = parse_envelope(&body);
        assert_eq!(code, "moved_permanently");
        assert_eq!(detail.get("location").as_str(), Some(new));

        // Following the redirect reaches a working endpoint.
        let (status, body) = http_get(addr, location);
        assert_eq!(status, 200, "{location} after redirect failed: {body}");
    }

    server.shutdown();
}

#[test]
fn batch_analyze_returns_every_result_keyed_by_id() {
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 4, 32);
    let server = start_server(engine);
    let addr = server.addr();

    let (status, body) = http_get(addr, "/v1/analyze?ids=table1,fig1,table1");
    assert_eq!(status, 200, "batch failed: {body}");
    let v: serde_json::Value = serde_json::from_str(&body).expect("batch body is JSON");
    let results = v.get("results").as_object().expect("results object");
    assert_eq!(results.len(), 2, "duplicate ids collapse: {body}");
    assert!(v.get("errors").as_object().is_some_and(|e| e.is_empty()), "{body}");

    // Each batch entry is byte-identical to its single-experiment body.
    for id in ["table1", "fig1"] {
        let (status, single) = http_get(addr, &format!("/v1/analyze/{id}"));
        assert_eq!(status, 200);
        let single_v: serde_json::Value = serde_json::from_str(&single).unwrap();
        assert_eq!(results[id], single_v, "batch and single bodies disagree for {id}");
    }

    // Missing or empty ids: enveloped 400.
    for path in ["/v1/analyze", "/v1/analyze?ids=", "/v1/analyze?ids=,,"] {
        let (status, body) = http_get(addr, path);
        assert_eq!(status, 400, "{path}: {body}");
        assert_eq!(parse_envelope(&body).0, "missing_ids");
    }

    server.shutdown();
}

#[test]
fn batch_analyze_rejects_whole_request_on_unknown_id() {
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 4, 32);
    let server = start_server(engine);
    let addr = server.addr();

    let (status, body) = http_get(addr, "/v1/analyze?ids=table1,definitely-not-real");
    assert_eq!(status, 404, "unknown id must fail the whole batch: {body}");
    let (code, detail) = parse_envelope(&body);
    assert_eq!(code, "unknown_experiment");
    let valid = detail.get("valid").as_array().expect("valid ids listed");
    assert!(valid.iter().any(|v| v.as_str() == Some("table1")), "{body}");

    server.shutdown();
}

#[test]
fn eight_parallel_clients_get_consistent_answers() {
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 4, 32);
    let server = start_server(engine);
    let addr = server.addr();

    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                // Half hammer the same experiment, half walk other endpoints.
                let path = if i % 2 == 0 { "/v1/analyze/table2" } else { "/v1/healthz" };
                http_get(addr, path)
            })
        })
        .collect();
    let results: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let analyze_bodies: Vec<&String> = results
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, (status, body))| {
            assert_eq!(*status, 200);
            body
        })
        .collect();
    // Concurrent misses may each compute, but every answer must agree.
    for body in &analyze_bodies {
        assert_eq!(*body, analyze_bodies[0]);
    }
    for (i, (status, _)) in results.iter().enumerate() {
        assert_eq!(*status, 200, "client {i} failed");
    }

    server.shutdown();
}

/// `(started_count, released)` behind a condvar: experiments park here so
/// the test controls exactly when the running slot frees up.
struct Gate {
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Self { state: Mutex::new((0, false)), cv: Condvar::new() }
    }

    fn enter(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 += 1;
        self.cv.notify_all();
        while !st.1 {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn wait_started(&self) {
        let mut st = self.state.lock().unwrap();
        while st.0 < 1 {
            let (next, timeout) = self.cv.wait_timeout(st, Duration::from_secs(10)).unwrap();
            assert!(!timeout.timed_out(), "blocking experiment never started");
            st = next;
        }
    }

    fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

fn blocking_engine(gate: &Arc<Gate>) -> Engine {
    let block = {
        let gate = Arc::clone(gate);
        ServeExperiment {
            id: "block".into(),
            title: "parks until released".into(),
            paper_claim: String::new(),
            scope: dial_serve::EraScope::All,
            run: Arc::new(move |_| {
                gate.enter();
                "{\"blocked\":false}".to_string()
            }),
        }
    };
    // One running slot, zero queue slots: once the slot is busy, every
    // further submission must shed immediately.
    Engine::new(test_store(), vec![block], 1, 0)
}

#[test]
fn saturated_queue_sheds_with_503() {
    let gate = Arc::new(Gate::new());
    let server = start_server(blocking_engine(&gate));
    let addr = server.addr();

    let first = std::thread::spawn(move || http_get(addr, "/v1/analyze/block"));
    gate.wait_started();

    // The slot is parked inside the experiment, so this miss cannot be
    // admitted and the server sheds it with the enveloped 503.
    let (status, body) = http_get(addr, "/v1/analyze/block");
    assert_eq!(status, 503, "expected shed, got {status}: {body}");
    let (code, _) = parse_envelope(&body);
    assert_eq!(code, "saturated");
    assert!(body.contains("saturated"));

    gate.release();
    let (status, body) = first.join().unwrap();
    assert_eq!(status, 200, "parked request should finish: {body}");

    let (_, metrics) = http_get(addr, "/v1/metrics");
    let m: serde_json::Value = serde_json::from_str(&metrics).unwrap();
    assert!(m.get("shed_total").as_u64().unwrap() >= 1);
    assert!(m.get("responses_5xx").as_u64().unwrap() >= 1);

    server.shutdown();
}

#[test]
fn saturated_batch_sheds_whole_request_with_503() {
    let gate = Arc::new(Gate::new());
    let server = start_server(blocking_engine(&gate));
    let addr = server.addr();

    let first = std::thread::spawn(move || http_get(addr, "/v1/analyze/block"));
    gate.wait_started();

    let (status, body) = http_get(addr, "/v1/analyze?ids=block");
    assert_eq!(status, 503, "batch should shed whole: {status}: {body}");
    assert_eq!(parse_envelope(&body).0, "saturated");

    gate.release();
    let (status, _) = first.join().unwrap();
    assert_eq!(status, 200);

    server.shutdown();
}

/// POST returning the whole reply (status, headers, body).
fn http_post(addr: SocketAddr, path: &str, body: &str) -> HttpReply {
    transport::post(&addr.to_string(), path, body.as_bytes()).expect("POST")
}

fn start_live_server(max_pending_events: usize) -> Server {
    let engine =
        Engine::new_live(9, 3, dial_serve::registry_experiments(), 2, 16, max_pending_events);
    // Month segments can outgrow the default body cap; raise it the way
    // `dial serve --live` does.
    let cfg = ServeConfig { port: 0, max_body_bytes: 32 * 1024 * 1024, ..ServeConfig::default() };
    Server::start(Arc::new(engine), &cfg).expect("bind ephemeral port")
}

#[test]
fn live_ingest_then_stream_replays_the_story_over_http() {
    let server = start_live_server(1 << 20);
    let addr = server.addr();

    let (status, body) = http_get(addr, "/v1/healthz");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("mode").as_str(), Some("live"));

    let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
    let segs = dial_stream::segments(&out);
    let reply = http_post(addr, "/v1/ingest", &dial_stream::encode_ndjson(&segs[0]));
    let body = reply.text();
    assert_eq!(reply.status, 200, "ingest failed: {body}");
    let v: serde_json::Value = serde_json::from_str(&body).expect("ingest report is JSON");
    assert_eq!(v.get("accepted").as_u64(), Some(segs[0].len() as u64));
    assert_eq!(v.get("seals").as_u64(), Some(1));
    assert_eq!(v.get("pending").as_u64(), Some(0));
    let sealed_fp = v.get("snapshot").as_str().expect("snapshot fingerprint").to_string();

    // The healthz fingerprint now names the sealed snapshot.
    let (_, body) = http_get(addr, "/v1/healthz");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("snapshot").as_str(), Some(sealed_fp.as_str()));

    // A late subscriber replays the era + seal frames, then the server
    // ends the stream at ?max=2 with a clean terminal chunk.
    let reply = http_get_full(addr, "/v1/stream?max=2");
    let sse = reply.text();
    assert_eq!(reply.status, 200, "stream failed: {sse}");
    assert_eq!(reply.header("content-type"), Some("text/event-stream"), "{reply:?}");
    assert_eq!(reply.header("transfer-encoding"), Some("chunked"), "{reply:?}");
    assert!(sse.contains("event: era"), "missing era frame: {sse}");
    assert!(sse.contains("event: seal"), "missing seal frame: {sse}");
    assert!(sse.contains(&sealed_fp), "seal frame must carry the snapshot fingerprint: {sse}");
    assert!(sse.ends_with("0\r\n\r\n"), "missing terminal chunk: {sse:?}");

    // Analysis serves from the live snapshot like any other.
    let (status, _) = http_get(addr, "/v1/analyze/table1");
    assert_eq!(status, 200);

    server.shutdown();
}

#[test]
fn snapshot_server_answers_409_on_live_endpoints() {
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 16);
    let server = start_server(engine);
    let addr = server.addr();

    let reply = http_post(addr, "/v1/ingest", "{}");
    let body = reply.text();
    assert_eq!(reply.status, 409, "{body}");
    assert_eq!(parse_envelope(&body).0, "not_live");

    let (status, body) = http_get(addr, "/v1/stream");
    assert_eq!(status, 409, "{body}");
    assert_eq!(parse_envelope(&body).0, "not_live");

    server.shutdown();
}

#[test]
fn ingest_guards_length_method_and_backpressure() {
    let server = start_live_server(8);
    let addr = server.addr();

    // No Content-Length: 411.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "POST /v1/ingest HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 411"), "expected 411, got {raw:?}");

    // GET on the ingest path: 405.
    let (status, body) = http_get(addr, "/v1/ingest");
    assert_eq!(status, 405, "{body}");
    assert_eq!(parse_envelope(&body).0, "method_not_allowed");

    // A month-sized batch against an 8-event buffer: 429 + Retry-After.
    let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
    let segs = dial_stream::segments(&out);
    let reply = http_post(addr, "/v1/ingest", &dial_stream::encode_ndjson(&segs[0]));
    assert_eq!(reply.status, 429, "{reply:?}");
    assert_eq!(parse_envelope(&reply.text()).0, "ingest_backpressure");
    assert!(reply.header("retry-after").is_some(), "{reply:?}");

    // Malformed NDJSON: enveloped 400 naming the line.
    let reply = http_post(addr, "/v1/ingest", "{\"nope\":1}\n");
    let body = reply.text();
    assert_eq!(reply.status, 400, "{body}");
    assert_eq!(parse_envelope(&body).0, "bad_event");

    server.shutdown();
}

/// A promote whose body stops short of its declared length is refused.
/// Read as far as it got, a cut-off adopt (`{"epoch":…,"leader":…}`)
/// would parse as an empty body: a self-promotion instead of a fence.
#[test]
fn truncated_promote_body_is_refused_not_read_as_self_promotion() {
    let server = start_server(Engine::new(test_store(), Vec::new(), 1, 4));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let fragment = "{\"epoch\":3,\"lea";
    write!(stream, "POST /v1/promote HTTP/1.1\r\nHost: x\r\nContent-Length: 40\r\n\r\n{fragment}")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "expected 400, got {raw:?}");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default();
    assert_eq!(parse_envelope(body).0, "truncated_body");
    server.shutdown();
}

#[test]
fn legacy_redirects_preserve_subpaths_and_query_strings() {
    let engine = Engine::new(test_store(), dial_serve::registry_experiments(), 2, 16);
    let server = start_server(engine);
    let addr = server.addr();

    // Query strings and subpaths must ride along verbatim — including
    // multi-parameter queries and both at once.
    for (old, new) in [
        ("/analyze/table1?verbose=1", "/v1/analyze/table1?verbose=1"),
        ("/analyze?ids=table1,fig1&x=y", "/v1/analyze?ids=table1,fig1&x=y"),
        ("/metrics?pretty=1", "/v1/metrics?pretty=1"),
    ] {
        let reply = http_get_full(addr, old);
        let body = reply.text();
        assert_eq!(reply.status, 308, "{old}: {body}");
        let location = reply
            .header("location")
            .unwrap_or_else(|| panic!("{old}: no Location header in {:?}", reply.headers));
        assert_eq!(location, new, "redirect must preserve the full path and query");
        assert_eq!(parse_envelope(&body).1.get("location").as_str(), Some(new));
    }

    server.shutdown();
}
