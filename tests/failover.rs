//! Cluster self-healing tests against real `dial` binaries: epoch-fenced
//! leader failover driven by the router's health prober.
//!
//! The claims proven here, each end-to-end over real sockets and real
//! SIGKILLs:
//!
//! * **Crash failover** — SIGKILLing the leader makes a router running
//!   `--auto-failover` promote the highest-tip follower within a couple
//!   of probe intervals; writes resume at the new epoch; no acked seal
//!   is lost; every registry experiment stays byte-identical across the
//!   survivors.
//! * **Fencing** — the old leader restarting on its old address is
//!   probed, found claiming a stale epoch, demoted to follower, and
//!   converges onto the new leader's log.
//! * **Netsplit** — an *isolated* (not crashed) leader, whose
//!   coordination endpoints stall while its sync path keeps working,
//!   loses leadership to exactly one promoted follower at a higher
//!   epoch, and is fenced when the partition heals.
//! * **Manual promotion** — `dial promote` is the operator's escape
//!   hatch when no router (or no `--auto-failover`) is running.
//!
//! A proptest block pins the fencing rule itself: no interleaving of
//! lower-epoch promote/adopt/observe calls can move an engine off its
//! epoch.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dial_serve::transport::{self, HttpReply};
use dial_sim::SimConfig;
use dial_stream::{encode_ndjson, segments};
use proptest::prelude::*;

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

/// Reserves a port by binding it and letting it go — so a killed node
/// can be restarted *on the same address*, which is what makes a
/// revived old leader probeable (and thus fenceable) by the router.
fn reserve_port() -> u16 {
    TcpListener::bind(("127.0.0.1", 0))
        .expect("bind ephemeral")
        .local_addr()
        .expect("local addr")
        .port()
}

/// A spawned `dial` child that reports an address on stderr.
struct Node {
    child: Child,
    addr: String,
}

impl Node {
    /// Spawns `dial serve --live` with the standard test identity plus
    /// `extra` args (which may override `--port`, appended flags win in
    /// this harness because they are pushed *first*).
    fn serve(extra: &[&str]) -> Self {
        let seed = SEED.to_string();
        let classes = CLASSES.to_string();
        let mut args: Vec<&str> = vec!["serve", "--live", "--threads", "2"];
        args.extend_from_slice(extra);
        if !extra.contains(&"--port") {
            args.extend_from_slice(&["--port", "0"]);
        }
        args.extend_from_slice(&["--seed", &seed, "--classes", &classes]);
        Self::spawn(&args)
    }

    fn spawn(args: &[&str]) -> Self {
        let mut cmd = dial();
        cmd.args(args).stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("spawn dial");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut reader = BufReader::new(stderr);
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read child stderr") == 0 {
                panic!("child exited before reporting its address");
            }
            if let Some(rest) = line.split("http://").nth(1) {
                break rest.split_whitespace().next().unwrap().to_string();
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = reader.read_to_string(&mut sink);
        });
        Node { child, addr }
    }

    /// SIGKILL — no drain, no goodbye.
    fn kill9(mut self) {
        self.child.kill().expect("SIGKILL the child");
        self.child.wait().expect("reap the child");
    }
}

/// How long one GET may take: the registry sweeps run debug-built
/// fitters, far slower than the client's default.
const GET_TIMEOUT: Duration = Duration::from_secs(120);

/// A 200's body; `Err` on any other status or any transport failure (a
/// dead or mid-failover node), so callers can retry instead of panicking.
fn try_get(addr: &str, path: &str) -> Result<String, String> {
    let reply = transport::get_with_timeout(addr, path, GET_TIMEOUT)?;
    if reply.status != 200 {
        return Err(format!("GET {path}: {} {}", reply.status, reply.text()));
    }
    Ok(reply.text())
}

fn get(addr: &str, path: &str) -> String {
    try_get(addr, path).expect("GET")
}

fn post_ingest(addr: &str, body: &str) -> Result<HttpReply, String> {
    transport::post(addr, "/v1/ingest", body.as_bytes())
}

/// Ingests through a (possibly mid-failover) router: retries transport
/// errors and upstream failures until the write is acked with a 200.
/// Returns how many attempts the ack took.
fn ingest_acked(addr: &str, body: &str, secs: u64) -> u32 {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut attempts = 0;
    loop {
        attempts += 1;
        match post_ingest(addr, body) {
            Ok(reply) if reply.status == 200 => return attempts,
            Ok(_) | Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok(reply) => panic!(
                "ingest never acked after {attempts} attempt(s): {} {}",
                reply.status,
                reply.text()
            ),
            Err(e) => panic!("ingest never acked after {attempts} attempt(s): {e}"),
        }
    }
}

fn cluster(addr: &str) -> serde_json::Value {
    serde_json::from_str(&get(addr, "/v1/cluster")).expect("/v1/cluster is JSON")
}

fn try_cluster(addr: &str) -> Option<serde_json::Value> {
    try_get(addr, "/v1/cluster").ok().and_then(|b| serde_json::from_str(&b).ok())
}

/// A node's applied sync tip according to `GET /v1/cluster`.
fn synced_seq(addr: &str) -> Option<u64> {
    try_cluster(addr)?.get("sync").get("synced_seq").as_u64()
}

/// A node's sealed tip (leader- and follower-agnostic).
fn sealed_seq(addr: &str) -> Option<u64> {
    try_cluster(addr)?.get("sealed_seq").as_u64()
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
    let dir = std::env::temp_dir().join(format!("dial-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().expect("temp path is utf-8").to_string()
}

/// All registry experiment ids a node advertises.
fn experiment_ids(addr: &str) -> Vec<String> {
    let exps: serde_json::Value =
        serde_json::from_str(&get(addr, "/v1/experiments")).expect("experiments JSON");
    exps.as_array()
        .expect("experiment list")
        .iter()
        .filter_map(|e| e.get("id").as_str().map(String::from))
        .collect()
}

/// SIGKILL the leader under a router with `--auto-failover`: the
/// highest-tip follower is promoted at epoch 1, writes resume through
/// the router, no acked seal is lost, and every registry experiment
/// serves byte-identically from both survivors. Then the old leader
/// restarts on its old address and is fenced back to follower.
#[test]
fn sigkill_leader_auto_failover_resumes_writes_without_losing_acked_seals() {
    let months = month_bodies();
    let dir_leader = scratch_dir("crash-leader");
    let dir_f1 = scratch_dir("crash-f1");
    let dir_f2 = scratch_dir("crash-f2");
    let leader_port = reserve_port();
    let leader_addr = format!("127.0.0.1:{leader_port}");
    let port_arg = leader_port.to_string();

    let leader = Node::serve(&["--data-dir", &dir_leader, "--port", &port_arg]);
    assert_eq!(leader.addr, leader_addr);

    // Two durable followers. f2 names f1 as a peer so its promotion
    // self-survey can verify tips; f1's survey leans on the router
    // having already picked it *by* tip.
    let f1 =
        Node::serve(&["--follow", &leader_addr, "--data-dir", &dir_f1, "--sync-interval", "25"]);
    let f2 = Node::serve(&[
        "--follow",
        &leader_addr,
        "--data-dir",
        &dir_f2,
        "--sync-interval",
        "25",
        "--peers",
        &f1.addr,
    ]);

    let router = Node::spawn(&[
        "route",
        "--leader",
        &leader_addr,
        "--followers",
        &format!("{},{}", f1.addr, f2.addr),
        "--port",
        "0",
        "--auto-failover",
        "--probe-interval-ms",
        "200",
        "--breaker-threshold",
        "2",
    ]);

    // Phase 1: twelve months through the router, every write acked.
    for body in &months[..12] {
        let attempts = ingest_acked(&router.addr, body, 60);
        assert_eq!(attempts, 1, "healthy-cluster writes must ack first try");
    }
    {
        let (a1, a2) = (f1.addr.clone(), f2.addr.clone());
        wait_for("both followers at the pre-kill tip", 120, move || {
            synced_seq(&a1) == Some(11) && synced_seq(&a2) == Some(11)
        });
    }

    // Phase 2: kill the leader. The router's breaker opens after two
    // failed probes and promotes the best follower at epoch 1.
    leader.kill9();
    {
        let r = router.addr.clone();
        let (a1, a2) = (f1.addr.clone(), f2.addr.clone());
        wait_for("router to fail over to a follower", 60, move || {
            let v = match try_cluster(&r) {
                Some(v) => v,
                None => return false,
            };
            let new_leader = v.get("leader").as_str().unwrap_or_default().to_string();
            v.get("epoch").as_u64() >= Some(1) && (new_leader == a1 || new_leader == a2)
        });
    }
    let v = cluster(&router.addr);
    let new_leader = v.get("leader").as_str().expect("router names a leader").to_string();
    let epoch = v.get("epoch").as_u64().expect("router reports an epoch");
    assert!(epoch >= 1, "failover must raise the epoch, got {epoch}");
    assert!(
        v.get("counters").get("failovers").as_u64() >= Some(1),
        "failover counter must move: {v}"
    );
    let demoted = if new_leader == f1.addr { f2.addr.clone() } else { f1.addr.clone() };

    // Phase 3: writes resume through the router — the remaining months
    // all ack (retrying only while the failover window is open).
    for body in &months[12..] {
        ingest_acked(&router.addr, body, 60);
    }
    let tip = months.len() as u64 - 1;
    {
        let (a, b) = (new_leader.clone(), demoted.clone());
        wait_for("both survivors at the final tip", 120, move || {
            sealed_seq(&a) == Some(tip) && synced_seq(&b) == Some(tip)
        });
    }
    // No acked seal lost: the new leader's log holds every month that
    // was ever acked, pre- and post-failover.
    assert_eq!(sealed_seq(&new_leader), Some(tip));
    let nl = cluster(&new_leader);
    assert_eq!(nl.get("role").as_str(), Some("leader"), "promoted node must lead: {nl}");
    assert!(nl.get("epoch").as_u64() >= Some(1));
    let dm = cluster(&demoted);
    assert_eq!(dm.get("role").as_str(), Some("follower"), "the other node must follow: {dm}");
    assert_eq!(dm.get("leader").as_str(), Some(new_leader.as_str()));

    // Phase 4: every registry experiment byte-identical across the
    // survivors, directly and through the router.
    let ids = experiment_ids(&new_leader);
    assert!(ids.len() >= 30, "expected the full registry, got {}", ids.len());
    for id in &ids {
        let path = format!("/v1/analyze/{id}");
        assert_eq!(
            get(&new_leader, &path),
            get(&demoted, &path),
            "{id} diverged between the survivors"
        );
    }
    assert_eq!(get(&router.addr, "/v1/analyze/table1"), get(&new_leader, "/v1/analyze/table1"));

    // Phase 5: the old leader comes back on its old address, still
    // believing it leads at epoch 0. The prober sees the stale claim,
    // fences it to follower, and it converges onto the new leader's log.
    let revived = Node::serve(&["--data-dir", &dir_leader, "--port", &port_arg]);
    {
        let a = revived.addr.clone();
        wait_for("revived old leader to be fenced to follower", 60, move || {
            try_cluster(&a).is_some_and(|v| {
                v.get("role").as_str() == Some("follower") && v.get("epoch").as_u64() >= Some(1)
            })
        });
    }
    {
        let a = revived.addr.clone();
        wait_for("fenced old leader to converge", 120, move || synced_seq(&a) == Some(tip));
    }
    assert_eq!(
        get(&revived.addr, "/v1/analyze/table1"),
        get(&new_leader, "/v1/analyze/table1"),
        "fenced old leader diverged after convergence"
    );

    router.kill9();
    revived.kill9();
    f1.kill9();
    f2.kill9();
    for dir in [dir_leader, dir_f1, dir_f2] {
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A leader isolated by a netsplit — its coordination endpoints
/// (`/v1/cluster`, `/v1/promote`) stall while sync and analyze keep
/// working — looks dead to the prober. Exactly one follower is promoted
/// at a higher epoch; when the split heals, the old leader is found
/// claiming a stale epoch and fenced to follower without ever crashing.
#[test]
fn netsplit_isolated_leader_is_fenced_not_killed() {
    let months = month_bodies();
    let dir = scratch_dir("netsplit-leader");

    // The chaos rule stalls the first 10 coordination requests by 3s —
    // far past the prober's timeout — then exhausts, healing the split.
    let leader = Node::serve(&["--data-dir", &dir, "--chaos", "netsplit@1:delay=3000:limit=10"]);
    // Ingest is NOT a coordination endpoint: the isolated leader still
    // accepts writes, which is exactly why fencing (not crash-detection)
    // has to be the safety mechanism.
    for body in &months[..8] {
        let reply = post_ingest(&leader.addr, body).expect("direct ingest");
        assert_eq!(reply.status, 200, "isolated leader must still ingest: {}", reply.text());
    }

    let f1 = Node::serve(&[
        "--follow",
        &leader.addr,
        "--sync-interval",
        "25",
        "--data-dir",
        &scratch_dir("netsplit-f1"),
    ]);
    let f2 = Node::serve(&[
        "--follow",
        &leader.addr,
        "--sync-interval",
        "25",
        "--data-dir",
        &scratch_dir("netsplit-f2"),
        "--peers",
        &f1.addr,
    ]);
    {
        let (a1, a2) = (f1.addr.clone(), f2.addr.clone());
        wait_for("followers to sync through the split", 120, move || {
            synced_seq(&a1) == Some(7) && synced_seq(&a2) == Some(7)
        });
    }

    let router = Node::spawn(&[
        "route",
        "--leader",
        &leader.addr,
        "--followers",
        &format!("{},{}", f1.addr, f2.addr),
        "--port",
        "0",
        "--auto-failover",
        "--probe-interval-ms",
        "200",
        "--breaker-threshold",
        "2",
    ]);

    // The prober can't reach the isolated leader; a follower is
    // promoted at a higher epoch.
    {
        let r = router.addr.clone();
        let (a1, a2) = (f1.addr.clone(), f2.addr.clone());
        wait_for("router to promote a follower past the isolated leader", 60, move || {
            try_cluster(&r).is_some_and(|v| {
                let new_leader = v.get("leader").as_str().unwrap_or_default();
                v.get("epoch").as_u64() >= Some(1) && (new_leader == a1 || new_leader == a2)
            })
        });
    }
    // Exactly one survivor leads.
    {
        let (a1, a2) = (f1.addr.clone(), f2.addr.clone());
        wait_for("exactly one follower to lead, the other to follow", 60, move || {
            let roles: Vec<String> = [&a1, &a2]
                .iter()
                .filter_map(|a| try_cluster(a))
                .filter_map(|v| v.get("role").as_str().map(String::from))
                .collect();
            roles.len() == 2 && roles.iter().filter(|r| *r == "leader").count() == 1
        });
    }

    // When the chaos budget runs out the split heals: the old leader is
    // probed again, found claiming epoch 0, and fenced to follower. It
    // never restarted — demotion reached it over the wire.
    {
        let a = leader.addr.clone();
        wait_for("healed old leader to be fenced to follower", 120, move || {
            try_cluster(&a).is_some_and(|v| {
                v.get("role").as_str() == Some("follower") && v.get("epoch").as_u64() >= Some(1)
            })
        });
    }
    // One more write through the router proves the cluster is whole
    // again under the new leader.
    ingest_acked(&router.addr, &months[8], 60);
    let new_leader = cluster(&router.addr).get("leader").as_str().expect("leader").to_string();
    assert_ne!(new_leader, leader.addr, "the isolated leader must not lead again");
    assert_eq!(sealed_seq(&new_leader), Some(8));

    router.kill9();
    leader.kill9();
    f1.kill9();
    f2.kill9();
    std::fs::remove_dir_all(&dir).ok();
}

/// `dial promote <addr>` is the manual escape hatch: with no router in
/// play, an operator promotes the follower by hand and it starts
/// leading at the next epoch.
#[test]
fn manual_promote_cli_raises_follower_to_leader() {
    let months = month_bodies();
    let dir_leader = scratch_dir("manual-leader");
    let dir_f = scratch_dir("manual-f");

    let leader = Node::serve(&["--data-dir", &dir_leader]);
    for body in &months[..4] {
        let reply = post_ingest(&leader.addr, body).expect("ingest");
        assert_eq!(reply.status, 200, "{}", reply.text());
    }
    let follower =
        Node::serve(&["--follow", &leader.addr, "--data-dir", &dir_f, "--sync-interval", "25"]);
    {
        let a = follower.addr.clone();
        wait_for("follower to catch up", 120, move || synced_seq(&a) == Some(3));
    }
    leader.kill9();

    let out = dial().args(["promote", &follower.addr]).output().expect("run dial promote");
    assert!(
        out.status.success(),
        "dial promote failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let v = cluster(&follower.addr);
    assert_eq!(v.get("role").as_str(), Some("leader"), "promoted node must lead: {v}");
    assert_eq!(v.get("epoch").as_u64(), Some(1));
    // And it accepts writes now — no 421.
    let reply = post_ingest(&follower.addr, &months[4]).expect("ingest on promoted node");
    assert_eq!(reply.status, 200, "promoted node must accept writes: {}", reply.text());

    // A second promotion of the same node is idempotent-ish: it bumps
    // the epoch again rather than failing (it holds the highest tip).
    let out = dial().args(["promote", &follower.addr]).output().expect("re-promote");
    assert!(out.status.success());
    assert_eq!(cluster(&follower.addr).get("epoch").as_u64(), Some(2));

    follower.kill9();
    for dir in [dir_leader, dir_f] {
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Epoch fencing as a property: once an engine stands at epoch E, NO
    /// interleaving of lower-epoch messages — promotes, adopts, or
    /// observations, in any order — can move it off E or off its role.
    #[test]
    fn fencing_rejects_every_lower_epoch_interleaving(
        target in 2u64..20,
        ops in prop::collection::vec((0u8..3, 0u64..20), 1usize..40),
    ) {
        let engine = dial_serve::Engine::new_live(
            SEED, CLASSES, dial_serve::registry_experiments(), 1, 4, 1 << 20,
        );
        engine.promote(target).expect("initial promotion from epoch 0");
        prop_assert_eq!(engine.epoch(), target);

        for (kind, raw_epoch) in ops {
            // Clamp every op strictly below the fence line (promote
            // additionally rejects equality, so include `target` there).
            match kind {
                0 => {
                    let stale = raw_epoch % (target + 1); // 0..=target
                    prop_assert!(
                        engine.promote(stale).is_err(),
                        "promote({stale}) must be fenced at epoch {target}"
                    );
                }
                1 => {
                    let stale = raw_epoch % target; // 0..target
                    prop_assert!(
                        engine.adopt(stale, "10.0.0.1:1".into()).is_err(),
                        "adopt({stale}) must be fenced at epoch {target}"
                    );
                }
                _ => {
                    let stale = raw_epoch % target;
                    // Observations below the epoch are silently ignored,
                    // never applied.
                    engine.observe_epoch(stale).expect("observe never fails downward");
                }
            }
            prop_assert_eq!(engine.epoch(), target, "epoch moved");
            prop_assert_eq!(engine.role(), dial_serve::Role::Leader, "role moved");
        }

        // The fence is exactly at the epoch: the next epoch up is valid.
        engine.adopt(target + 1, "10.0.0.1:1".into()).expect("higher epoch must pass the fence");
        prop_assert_eq!(engine.epoch(), target + 1);
        prop_assert_eq!(engine.role(), dial_serve::Role::Follower);
    }
}
