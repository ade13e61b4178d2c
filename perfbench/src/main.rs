//! Layered benchmark of the release `dial` binary over loopback.
//!
//! ```text
//! perfbench --dial <path> --workload <registry-cold|routed-read|live-ingest>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload loads one group of layers and leaves the others idle:
//!
//! * `registry-cold`: cold full-registry sweeps on fresh snapshot nodes
//!   (the LCA/ZIP/HMM fitters and the pool).
//! * `routed-read`: open-loop cached reads through a `dial route` front
//!   (HTTP, result cache, metrics, router hop).
//! * `live-ingest`: month-by-month ingest into durable live nodes with a
//!   stream subscription and three cold reads per seal (codec, seal,
//!   store append and checkpoint, snapshot rebuild, SSE publish).
//!
//! The seed makes every input; the program sees only market files and
//! NDJSON batches. With `--trace 0` the run prints the end-to-end metrics;
//! with `--trace 1` it also records spans around its own calls into each
//! layer, runs the layer pass, writes the spans out and prints the
//! per-layer metrics. The last stdout line is the result object.

mod cold;
mod http;
mod ingest;
mod layers;
mod market;
mod proc;
mod routed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Width of the program's compute pool in every node.
pub const THREADS: usize = 2;

pub const WORKLOADS: [&str; 3] = ["registry-cold", "routed-read", "live-ingest"];

/// Everything a workload needs to run.
pub struct Run {
    pub dial: PathBuf,
    pub work: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

/// The end-to-end metrics every workload reports.
#[derive(Default)]
pub struct E2e {
    pub setup_s: f64,
    pub op_p50_ms: f64,
    pub op_p90_ms: f64,
    pub ops_per_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: E2e,
    /// Per-layer values the workload measured itself, by metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// Run metadata as `(key, JSON value)` pairs.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one op and whether its output check failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("output check failed: {}", what());
            }
        }
    }
}

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Run, String> {
    let need = |name: &str| arg(args, name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; valid: {}", WORKLOADS.join(", ")));
    }
    let seed: u64 = need("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let dial = PathBuf::from(need("--dial")?);
    if !dial.is_file() {
        return Err(format!("no dial binary at {}", dial.display()));
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Run { dial, work, workload, seed, seconds, tracer: Tracer::new(trace) })
}

fn run(run: Run) -> Result<(), String> {
    std::fs::create_dir_all(&run.work)
        .map_err(|e| format!("create {}: {e}", run.work.display()))?;
    let result = measure(&run);
    let _ = std::fs::remove_dir_all(&run.work);
    let (outcome, metrics, meta) = result?;
    println!("{{\"metadata\":{meta}}}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics
            .iter()
            .map(|(name, value, unit)| format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                stats::num(*value)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    Ok(())
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn measure(run: &Run) -> Result<(Outcome, Metrics, String), String> {
    let ref_before = host_ref_ms();
    let started = Instant::now();
    let mut outcome = match run.workload.as_str() {
        "registry-cold" => cold::run(run)?,
        "routed-read" => routed::run(run)?,
        _ => ingest::run(run)?,
    };
    let wall_s = started.elapsed().as_secs_f64();
    let ref_after = host_ref_ms();
    let host_ref = (ref_before + ref_after) / 2.0;

    let metrics = if run.tracer.on() {
        let mut m = layers::per_layer(run, &outcome);
        m.push(("host.ref_ms", host_ref, "ms"));
        let spans = run.tracer.spans();
        let path =
            PathBuf::from(".bench_work").join(format!("trace-{}-{}.json", run.workload, run.seed));
        std::fs::write(&path, trace::spans_json(&spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        outcome.meta.push(("trace_file", format!("\"{}\"", path.display())));
        outcome.meta.push(("spans", spans.len().to_string()));
        m
    } else {
        let e = &outcome.e2e;
        vec![
            ("setup_s", e.setup_s, "s"),
            ("op_p50_ms", e.op_p50_ms, "ms"),
            ("op_p90_ms", e.op_p90_ms, "ms"),
            ("ops_per_s", e.ops_per_s, "1/s"),
            ("cpu_s", e.cpu_s, "s"),
            ("peak_rss_mb", e.peak_rss_mb, "MiB"),
        ]
    };

    let mut meta = vec![
        ("workload", format!("\"{}\"", run.workload)),
        ("seed", run.seed.to_string()),
        ("seconds", stats::num(run.seconds)),
        ("traced", run.tracer.on().to_string()),
        ("classes", market::CLASSES.to_string()),
        ("pool_threads", THREADS.to_string()),
        ("nproc", proc::nproc().to_string()),
        ("git_rev", format!("\"{}\"", git_rev())),
        ("dial_digest", format!("\"{}\"", market::file_digest(&run.dial)?)),
        ("run_wall_s", stats::num(wall_s)),
        ("host_ref_ms_before", stats::num(ref_before)),
        ("host_ref_ms_after", stats::num(ref_after)),
    ];
    meta.append(&mut outcome.meta);
    let meta_json = format!(
        "{{{}}}",
        meta.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect::<Vec<_>>().join(",")
    );
    Ok((outcome, metrics, meta_json))
}

/// Fixed work unrelated to the program, timed to track host speed: a run
/// that reads slow here ran on a slow host, not on slow code.
fn host_ref_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut v: Vec<u64> = (0..200_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    std::hint::black_box(&v);
    started.elapsed().as_secs_f64() * 1e3
}

/// The source revision: `git rev-parse HEAD` where the tree is a git
/// checkout, otherwise `none`.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}
