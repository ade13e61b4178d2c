//! Replication integration tests against real `dial` binaries: a
//! durable leader exports its sealed batches over `/v1/sync/*`, a
//! follower tails them through a background runner, and a `dial route`
//! front stitches the cluster behind one address.
//!
//! Four claims are proven here, each the end-to-end version of an
//! invariant the unit tests pin in isolation:
//!
//! * **Byte-identity** — a follower synced from scratch serves every
//!   registry experiment byte-for-byte identical to the leader, and
//!   keeps serving (stale, and saying so) after the leader is SIGKILLed.
//! * **Resume** — a durable follower SIGKILLed mid-transfer recovers its
//!   sealed prefix and fetches only the remainder, never the whole log.
//! * **Verification** — a corrupted fetch (chaos `segment_corrupt` on
//!   the leader's export path) is rejected by CRC/fingerprint checks,
//!   counted, retried, and converges to the same byte-identical state.
//! * **Routing** — `dial route` follows a `421 not_leader` redirect to
//!   find the real leader and serves reads from the follower pool.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dial_serve::transport::{self, HttpReply};
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

/// A spawned `dial` child that reports an address on stderr, plus the
/// startup lines printed before it (recovery reports live there).
struct LiveServer {
    child: Child,
    addr: String,
    startup: Vec<String>,
}

impl LiveServer {
    /// Spawns `dial serve --live` with the standard test identity.
    fn spawn(extra: &[&str]) -> Self {
        let mut args = vec!["serve", "--live", "--port", "0", "--threads", "2"];
        let seed = SEED.to_string();
        let classes = CLASSES.to_string();
        args.extend_from_slice(&["--seed", &seed, "--classes", &classes]);
        args.extend_from_slice(extra);
        Self::spawn_args(&args)
    }

    /// Spawns `dial route` in front of the given leader and followers.
    fn spawn_router(leader: &str, followers: &str) -> Self {
        Self::spawn_args(&["route", "--leader", leader, "--followers", followers, "--port", "0"])
    }

    fn spawn_args(args: &[&str]) -> Self {
        let mut cmd = dial();
        cmd.args(args).stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("spawn dial");

        let stderr = child.stderr.take().expect("piped stderr");
        let mut reader = BufReader::new(stderr);
        let mut startup = Vec::new();
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read child stderr") == 0 {
                panic!("child exited before reporting its address: {startup:?}");
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

    /// SIGKILL — no drain, no goodbye. Followers and stores must cope.
    fn kill9(mut self) {
        self.child.kill().expect("SIGKILL the child");
        self.child.wait().expect("reap the child");
    }
}

/// A 200's body. The registry sweeps run debug-built fitters, so the
/// wait is far longer than the client's default.
fn get(addr: &str, path: &str) -> String {
    let reply = transport::get_with_timeout(addr, path, Duration::from_secs(120)).expect("GET");
    assert_eq!(reply.status, 200, "GET {path}: {}", reply.text());
    reply.text()
}

/// POSTs one ingest body; returns the whole reply so callers can assert
/// on redirects as well as successes.
fn post_ingest(addr: &str, body: &str) -> HttpReply {
    transport::post(addr, "/v1/ingest", body.as_bytes()).expect("POST /v1/ingest")
}

fn ingest(addr: &str, body: &str) {
    let reply = post_ingest(addr, body);
    assert_eq!(reply.status, 200, "ingest: {}", reply.text());
}

fn cluster(addr: &str) -> serde_json::Value {
    serde_json::from_str(&get(addr, "/v1/cluster")).expect("/v1/cluster is JSON")
}

/// The follower's applied sync tip according to `GET /v1/cluster`.
fn synced_seq(addr: &str) -> Option<u64> {
    cluster(addr).get("sync").get("synced_seq").as_u64()
}

fn metrics(addr: &str) -> serde_json::Value {
    serde_json::from_str(&get(addr, "/v1/metrics")).expect("/v1/metrics is JSON")
}

/// Polls `cond` until it holds or `secs` elapse.
fn wait_for(what: &str, secs: u64, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    panic!("timed out after {secs}s waiting for {what}");
}

fn scratch_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("dial-replication-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().expect("temp path is utf-8").to_string()
}

#[test]
fn scratch_follower_is_byte_identical_and_survives_leader_loss() {
    let months = month_bodies();
    let tip = months.len() as u64 - 1;
    let dir = scratch_dir("scratch");

    let leader = LiveServer::spawn(&["--data-dir", &dir]);
    for body in &months {
        ingest(&leader.addr, body);
    }

    let follower = LiveServer::spawn(&["--follow", &leader.addr, "--sync-interval", "25"]);
    {
        let addr = follower.addr.clone();
        wait_for("follower to reach the leader's tip", 120, move || synced_seq(&addr) == Some(tip));
    }

    // Every registry experiment — paper tables/figures and extensions —
    // must serve byte-for-byte identically from both nodes.
    let exps: serde_json::Value =
        serde_json::from_str(&get(&leader.addr, "/v1/experiments")).expect("experiments JSON");
    let ids: Vec<String> = exps
        .as_array()
        .expect("experiment list")
        .iter()
        .filter_map(|e| e.get("id").as_str().map(String::from))
        .collect();
    assert!(ids.len() >= 30, "expected the full registry, got {}", ids.len());
    for id in &ids {
        let path = format!("/v1/analyze/{id}");
        assert_eq!(
            get(&leader.addr, &path),
            get(&follower.addr, &path),
            "{id} diverged between leader and follower"
        );
    }

    // Writes aimed at the follower answer 421 + a Location naming the
    // leader — the socket-level contract `dial route` relies on.
    let reply = post_ingest(&follower.addr, &months[0]);
    let raw = reply.text();
    assert_eq!(reply.status, 421, "follower must refuse writes: {raw}");
    assert_eq!(
        reply.header("location"),
        Some(format!("http://{}/v1/ingest", leader.addr).as_str()),
        "421 must name the leader: {raw}"
    );
    assert!(raw.contains("not_leader"), "error envelope must carry the code: {raw}");

    // Kill the leader: the follower keeps serving its sealed prefix and
    // flags the staleness in /v1/cluster.
    let before = get(&follower.addr, "/v1/analyze/table1");
    leader.kill9();
    {
        let addr = follower.addr.clone();
        wait_for("follower to notice the dead leader", 60, move || {
            cluster(&addr).get("sync").get("stale").as_bool() == Some(true)
        });
    }
    assert_eq!(
        get(&follower.addr, "/v1/analyze/table1"),
        before,
        "stale follower must keep serving its fingerprinted prefix"
    );
    let v = cluster(&follower.addr);
    assert_eq!(v.get("role").as_str(), Some("follower"));
    assert_eq!(v.get("sync").get("synced_seq").as_u64(), Some(tip));

    follower.kill9();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill9_mid_sync_resumes_from_recovered_tip() {
    let months = month_bodies();
    let tip = months.len() as u64 - 1;
    let dir_leader = scratch_dir("resume-leader");
    let dir_follower = scratch_dir("resume-follower");

    let leader = LiveServer::spawn(&["--data-dir", &dir_leader]);
    for body in &months {
        ingest(&leader.addr, body);
    }

    // First life: a durable follower whose every fetch is paced by the
    // sync_stall chaos point, so the SIGKILL lands mid-transfer.
    let follower = LiveServer::spawn(&[
        "--follow",
        &leader.addr,
        "--data-dir",
        &dir_follower,
        "--sync-interval",
        "25",
        "--chaos",
        "sync_stall@1:delay=150",
    ]);
    {
        let addr = follower.addr.clone();
        wait_for("a few batches to apply", 60, move || synced_seq(&addr) >= Some(3));
    }
    let mid = synced_seq(&follower.addr).expect("some batches applied");
    assert!(mid < tip, "kill must land mid-sync, but follower already reached {mid}");
    follower.kill9();

    // Second life, chaos-free: recovery restores the synced prefix and
    // the runner fetches only the remainder.
    let follower = LiveServer::spawn(&[
        "--follow",
        &leader.addr,
        "--data-dir",
        &dir_follower,
        "--sync-interval",
        "25",
    ]);
    assert!(
        follower.startup.iter().any(|l| l.contains("store recovered")),
        "no recovery report in startup: {:?}",
        follower.startup
    );
    {
        let addr = follower.addr.clone();
        wait_for("resumed follower to reach the tip", 120, move || synced_seq(&addr) == Some(tip));
    }
    let fetched = metrics(&follower.addr)
        .get("sync_segments_fetched")
        .as_u64()
        .expect("sync_segments_fetched in /v1/metrics");
    assert!(
        fetched < months.len() as u64,
        "a resumed follower must not refetch the whole log: fetched {fetched} of {}",
        months.len()
    );
    assert_eq!(
        get(&leader.addr, "/v1/analyze/table1"),
        get(&follower.addr, "/v1/analyze/table1"),
        "resumed follower diverged from leader"
    );

    follower.kill9();
    leader.kill9();
    std::fs::remove_dir_all(&dir_leader).ok();
    std::fs::remove_dir_all(&dir_follower).ok();
}

#[test]
fn corrupted_fetch_is_rejected_counted_and_retried_to_convergence() {
    let months = month_bodies();
    let tip = months.len() as u64 - 1;
    let dir = scratch_dir("corrupt");

    // The chaos point fires on the leader's export path: the first two
    // batches a follower fetches arrive with a flipped byte.
    let leader = LiveServer::spawn(&["--data-dir", &dir, "--chaos", "segment_corrupt@1:limit=2"]);
    for body in &months {
        ingest(&leader.addr, body);
    }

    let follower = LiveServer::spawn(&["--follow", &leader.addr, "--sync-interval", "25"]);
    {
        let addr = follower.addr.clone();
        wait_for("follower to converge past the corrupted fetches", 120, move || {
            synced_seq(&addr) == Some(tip)
        });
    }
    let m = metrics(&follower.addr);
    assert!(
        m.get("fingerprint_rejects").as_u64() >= Some(1),
        "corrupted fetches must be counted: {m:?}"
    );
    assert!(m.get("sync_retries").as_u64() >= Some(1), "rejected fetches must be retried: {m:?}");
    assert_eq!(
        get(&leader.addr, "/v1/analyze/table1"),
        get(&follower.addr, "/v1/analyze/table1"),
        "post-retry follower diverged from leader"
    );

    follower.kill9();
    leader.kill9();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn router_follows_not_leader_redirect_and_serves_reads() {
    let months = month_bodies();
    let dir = scratch_dir("route");

    let leader = LiveServer::spawn(&["--data-dir", &dir]);
    for body in &months[..5] {
        ingest(&leader.addr, body);
    }
    let follower = LiveServer::spawn(&["--follow", &leader.addr, "--sync-interval", "25"]);
    {
        let addr = follower.addr.clone();
        wait_for("follower to catch up", 60, move || synced_seq(&addr) == Some(4));
    }

    // Aim the router at the *follower* as its supposed leader: the first
    // write bounces 421, the router follows the Location header to the
    // real leader and the write lands.
    let router = LiveServer::spawn_router(&follower.addr, &follower.addr);
    let reply = post_ingest(&router.addr, &months[5]);
    assert_eq!(reply.status, 200, "router must follow the not_leader redirect: {}", reply.text());
    {
        let addr = follower.addr.clone();
        wait_for("follower to sync the routed write", 60, move || synced_seq(&addr) == Some(5));
    }

    // The router healed its cached leader and says so in /v1/cluster.
    let v = cluster(&router.addr);
    assert_eq!(v.get("role").as_str(), Some("router"));
    assert_eq!(v.get("leader").as_str(), Some(leader.addr.as_str()));

    // Reads through the router come from the follower pool and match
    // the leader byte-for-byte.
    assert_eq!(
        get(&router.addr, "/v1/analyze/table1"),
        get(&leader.addr, "/v1/analyze/table1"),
        "routed read diverged from leader"
    );

    router.kill9();
    follower.kill9();
    leader.kill9();
    std::fs::remove_dir_all(&dir).ok();
}
