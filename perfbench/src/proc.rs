//! Child `dial` processes: spawn, wait until listening, read CPU time and
//! peak RSS from `/proc`, and kill-and-reap on drop.

use crate::market::CLASSES;
use crate::THREADS;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::channel;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const READY_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Proc {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn to the moment the process announced its listening address.
    pub startup: Duration,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `dial <args>` and blocks until it prints `... on http://ADDR`
    /// on stderr (both `dial serve` and `dial route` do).
    pub fn spawn(dial: &Path, args: &[&str]) -> Result<Self, String> {
        let started = Instant::now();
        let mut child = Command::new(dial)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", dial.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = channel();
        // Keep draining stderr after the address line so the child can
        // never block on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sent = false;
            let mut tail: Vec<String> = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if !sent {
                    if let Some(addr) = line
                        .split("on http://")
                        .nth(1)
                        .and_then(|rest| rest.split_whitespace().next())
                        .and_then(|a| a.parse::<SocketAddr>().ok())
                    {
                        sent = tx.send(Ok(addr)).is_ok();
                        continue;
                    }
                    tail.push(line);
                }
            }
            if !sent {
                let _ = tx.send(Err(tail.join("\n")));
            }
        });
        let ready = rx.recv_timeout(READY_TIMEOUT);
        let startup = started.elapsed();
        match ready {
            Ok(Ok(addr)) => Ok(Self { child, addr, startup, drain: Some(drain) }),
            other => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
                Err(format!("dial {} did not start: {other:?}", args.join(" ")))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU seconds of the whole process so far.
    pub fn cpu_s(&self) -> f64 {
        cpu_s(self.pid())
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

/// `dial serve <mode...>` on an ephemeral port, with the benchmark's pool
/// width and the paper's class count, LCA-seeded with `seed`.
pub fn serve(dial: &Path, seed: u64, mode: &[&str]) -> Result<Proc, String> {
    let (seed, classes, threads) = (seed.to_string(), CLASSES.to_string(), THREADS.to_string());
    let mut args = vec!["serve"];
    args.extend_from_slice(mode);
    args.extend_from_slice(&["--port", "0", "--threads", &threads, "--seed", &seed]);
    args.extend_from_slice(&["--classes", &classes]);
    Proc::spawn(dial, &args)
}

/// `dial route` in front of `leader` alone, so the leader serves reads.
pub fn route(dial: &Path, leader: &Proc) -> Result<Proc, String> {
    Proc::spawn(dial, &["route", "--leader", &leader.addr.to_string(), "--port", "0"])
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

/// utime + stime of `pid`, including threads that have already exited.
fn cpu_s(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, so the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Number of online processors, as the scheduler reports it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
