//! Crash-recovery integration tests: SIGKILL a real `dial serve --live
//! --data-dir` binary mid-ingest, restart it on the same directory, and
//! prove the recovered server is byte-identical to one that was never
//! interrupted.
//!
//! Two crash shapes are exercised:
//!
//! * **Clean kill** — SIGKILL between sealed months. Every durable seal
//!   was fsync'd, so recovery replays the whole log and resumes at the
//!   next month.
//! * **Torn write** — a `torn_write` chaos fault truncates one sealed
//!   batch on disk while the server believes it landed (a lying disk
//!   losing power). Recovery must detect the torn record via CRC,
//!   truncate back to the last provable seal, and resume from there.
//!
//! Both runs finish by re-ingesting the missing months and comparing
//! `/v1/healthz` (the sealed-prefix fingerprint plus the v2 role/sync
//! block) and `/v1/analyze` bodies byte-for-byte against an
//! uninterrupted durable run of the same event log.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dial_serve::transport;
use dial_sim::SimConfig;
use dial_stream::{encode_ndjson, segments};

const SEED: u64 = 9;
const CLASSES: usize = 3;

/// The watermarked event log, one NDJSON body per month (25 months).
fn month_bodies() -> Vec<String> {
    let out = SimConfig::paper_default().with_seed(SEED).with_scale(0.01).simulate_full();
    segments(&out).iter().map(|seg| encode_ndjson(seg)).collect()
}

fn dial() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dial"))
}

/// A spawned `dial serve --live` child plus the stderr lines it printed
/// before reporting its address (the recovery report lives there).
struct LiveServer {
    child: Child,
    addr: String,
    startup: Vec<String>,
}

impl LiveServer {
    fn spawn(extra: &[&str]) -> Self {
        let mut cmd = dial();
        cmd.args(["serve", "--live", "--port", "0", "--threads", "2"])
            .args(["--seed", &SEED.to_string(), "--classes", &CLASSES.to_string()])
            .args(extra)
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("spawn dial serve --live");

        let stderr = child.stderr.take().expect("piped stderr");
        let mut reader = BufReader::new(stderr);
        let mut startup = Vec::new();
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read server stderr") == 0 {
                panic!("server exited before reporting its address: {startup:?}");
            }
            startup.push(line.clone());
            if let Some(rest) = line.split("http://").nth(1) {
                break rest.split_whitespace().next().unwrap().to_string();
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = reader.read_to_string(&mut sink);
        });
        LiveServer { child, addr, startup }
    }

    /// SIGKILL — no drain, no flush beyond what fsync already made
    /// durable. This is the crash the store must survive.
    fn kill9(mut self) {
        self.child.kill().expect("SIGKILL the server");
        self.child.wait().expect("reap the server");
    }
}

/// A 200's body, waiting as long as a debug-built analyze may take.
fn get(addr: &str, path: &str) -> String {
    let reply = transport::get_with_timeout(addr, path, Duration::from_secs(120)).expect("GET");
    assert_eq!(reply.status, 200, "GET {path}: {}", reply.text());
    reply.text()
}

fn ingest(addr: &str, body: &str) {
    let reply = transport::post(addr, "/v1/ingest", body.as_bytes()).expect("POST /v1/ingest");
    assert_eq!(reply.status, 200, "ingest: {}", reply.text());
}

/// Last durable seal seq according to `GET /v1/store`.
fn sealed_seq(addr: &str) -> Option<u64> {
    let body = get(addr, "/v1/store");
    let v: serde_json::Value = serde_json::from_str(&body).expect("/v1/store is JSON");
    v.get("stats").get("sealed_seq").as_u64()
}

/// The byte-exact end state every run must reach: healthz (fingerprint
/// plus the leader role/sync block) and two analyze bodies, from an
/// uninterrupted durable run on a scratch store. The baseline must be
/// durable like the recovered runs: a durable live server reports
/// itself as a replication leader in `/v1/healthz` v2, a volatile one
/// as standalone.
fn baseline_state(tag: &str, months: &[String]) -> [String; 3] {
    let dir = scratch_dir(tag);
    let srv = LiveServer::spawn(&["--data-dir", &dir]);
    for body in months {
        ingest(&srv.addr, body);
    }
    let state = end_state(&srv.addr);
    srv.kill9();
    std::fs::remove_dir_all(&dir).ok();
    state
}

fn end_state(addr: &str) -> [String; 3] {
    [get(addr, "/v1/healthz"), get(addr, "/v1/analyze/table1"), get(addr, "/v1/analyze/fig1")]
}

fn scratch_dir(tag: &str) -> String {
    let dir =
        std::env::temp_dir().join(format!("dial-store-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().expect("temp path is utf-8").to_string()
}

#[test]
fn kill9_mid_ingest_recovers_byte_identical_state() {
    let months = month_bodies();
    let dir = scratch_dir("clean");

    // First life: ingest 9 of 25 months, then die without warning.
    let srv = LiveServer::spawn(&["--data-dir", &dir, "--checkpoint-interval", "4"]);
    for body in &months[..9] {
        ingest(&srv.addr, body);
    }
    assert_eq!(sealed_seq(&srv.addr), Some(8), "9 months seal seqs 0..=8");
    srv.kill9();

    // Second life: recovery must surface in the startup log and restore
    // every fsync'd seal.
    let srv = LiveServer::spawn(&["--data-dir", &dir, "--checkpoint-interval", "4"]);
    assert!(
        srv.startup.iter().any(|l| l.contains("store recovered")),
        "no recovery report in startup: {:?}",
        srv.startup
    );
    assert_eq!(sealed_seq(&srv.addr), Some(8), "clean kill loses nothing");

    // Resume exactly where the crash left off and compare end states.
    for body in &months[9..] {
        ingest(&srv.addr, body);
    }
    let recovered = end_state(&srv.addr);
    srv.kill9();

    assert_eq!(
        recovered,
        baseline_state("clean-baseline", &months),
        "recovered run diverged from baseline"
    );

    // The offline verifier agrees the store is sound (it must be told
    // the store's identity; the defaults belong to `dial serve`).
    let out = dial()
        .args(["store", "verify", "--data-dir", &dir])
        .args(["--seed", &SEED.to_string(), "--classes", &CLASSES.to_string()])
        .output()
        .expect("run dial store verify");
    assert!(out.status.success(), "verify failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("verify OK"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill9_after_torn_write_truncates_and_resumes() {
    let months = month_bodies();
    let dir = scratch_dir("torn");

    // First life under chaos: the 6th sealed batch (seal seq 5) is torn
    // on disk while the server believes it landed. Checkpoints are off so
    // recovery must lean on the log alone and the torn tail really bites.
    let srv = LiveServer::spawn(&[
        "--data-dir",
        &dir,
        "--checkpoint-interval",
        "0",
        "--chaos",
        "torn_write@6:limit=1",
    ]);
    for body in &months {
        ingest(&srv.addr, body);
    }
    // The lying disk is invisible from up here: the server still claims
    // all 25 seals. The crash is what exposes the lie.
    assert_eq!(sealed_seq(&srv.addr), Some(24));
    srv.kill9();

    // Second life: CRC scan finds the torn record, truncates back to the
    // last provable seal (seq 4), and drops everything after it.
    let srv = LiveServer::spawn(&["--data-dir", &dir, "--checkpoint-interval", "0"]);
    let recovered_line = srv
        .startup
        .iter()
        .find(|l| l.contains("store recovered"))
        .expect("recovery report in startup")
        .clone();
    assert_eq!(sealed_seq(&srv.addr), Some(4), "torn seal 5 rolls back to 4: {recovered_line}");
    assert!(
        !recovered_line.contains(" 0 byte(s) truncated"),
        "a torn tail must report truncation: {recovered_line}"
    );

    // Months 5.. replay cleanly on the truncated state; the end state is
    // byte-identical to a run that never crashed.
    for body in &months[5..] {
        ingest(&srv.addr, body);
    }
    let recovered = end_state(&srv.addr);
    srv.kill9();

    assert_eq!(
        recovered,
        baseline_state("torn-baseline", &months),
        "torn-write recovery diverged from baseline"
    );

    std::fs::remove_dir_all(&dir).ok();
}
