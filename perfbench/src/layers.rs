//! The layer pass of a traced run, and the per-layer metrics derived from
//! the spans it and the workload recorded.
//!
//! The pass calls each layer's public functions on the run's own inputs:
//! the fitters and kernels on a scale-0.01 market, the codec, stream
//! engine, segment log, snapshot build and engine ingest month by month,
//! the result cache in-process, and the HTTP front, metrics endpoint,
//! router hop and stream feed over loopback. Nothing inside the program
//! is instrumented; every span wraps a call the benchmark makes.

use crate::http;
use crate::market::{self, CLASSES, FITTER_IDS};
use crate::proc::Proc;
use crate::stats::{median, quantile, sum};
use crate::trace::self_times_us;
use crate::{Outcome, Run, THREADS};
use dial_core::experiments::{all_experiments, extension_experiments, ExperimentContext};
use dial_core::{ltm, regression};
use dial_serve::Engine;
use dial_sim::SimOutput;
use dial_stream::{decode_ndjson, StreamEngine};
use dial_time::Era;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

/// Requests per HTTP probe series: enough that the 10 ms CPU tick of
/// `/proc` stays a small share of the CPU they cost.
const PROBE_REQUESTS: usize = 2000;
const METRICS_SCRAPES: usize = 100;
/// Routed probe reads, each sent after a random pause of up to one router
/// accept poll, so they meet the poll at a uniform phase as independent
/// clients do; back to back, every read would wait a whole poll.
const ROUTED_PROBE_REQUESTS: usize = 300;
const ROUTER_POLL: std::time::Duration = std::time::Duration::from_millis(20);
const CACHE_HITS: usize = 2000;

/// The in-process layer pass: the cold engine sweep, cache hits, fitters
/// and kernels on the scale-0.01 market `small`; the stream, store and
/// snapshot-build path and the feed on the month `batches` of the
/// workload's own market (the same market for the registry workloads).
pub fn pass(
    run: &Run,
    small: &SimOutput,
    small_seed: u64,
    batches: &[String],
    fingerprints: &[String],
    stream_seed: u64,
    o: &mut Outcome,
) -> Result<(), String> {
    engine_sweep(run, small, small_seed)?;
    fitter_pass(run, small, small_seed, o);
    stream_pass(run, batches, stream_seed, &crate::ingest::READ_IDS, o)?;
    feed_probe(run, batches, fingerprints, stream_seed, o)
}

/// The ZIP fits a full sweep runs: Table 9 fits all users in every era,
/// Table 10 first-time and existing users in the last two.
fn zip_fits() -> Vec<(Era, regression::UserSubset)> {
    use regression::UserSubset::{All, Existing, FirstTime};
    let mut fits: Vec<_> = Era::ALL.iter().map(|e| (*e, All)).collect();
    for era in [Era::Stable, Era::Covid19] {
        fits.push((era, FirstTime));
        fits.push((era, Existing));
    }
    fits
}

/// LCA, ZIP and HMM fits and every non-fitter kernel on `out`, as one
/// sweep would run them.
fn fitter_pass(run: &Run, out: &SimOutput, seed: u64, o: &mut Outcome) {
    let t = &run.tracer;
    let ds = &out.dataset;
    t.span("layer.fitters", 0, None, |root| {
        let analysis =
            t.span("dial-stats.lca.fit", 0, root, |_| ltm::ltm_analysis(ds, CLASSES, seed));
        o.layers.push(("dial-stats.lca.iterations", analysis.fit.iterations as f64));
        let mut fitted = 0;
        for (era, subset) in zip_fits() {
            let fit = t.span("dial-stats.zip.fit", 0, root, |_| {
                regression::era_zip_model(ds, era, subset)
            });
            fitted += usize::from(fit.is_some());
        }
        o.layers.push(("dial-stats.zip.fits", fitted as f64));
        let dynamics =
            t.span("dial-stats.hmm.fit", 0, root, |_| ltm::ltm_dynamics(ds, &analysis, seed));
        o.layers.push(("dial-stats.hmm.iterations", dynamics.hmm.iterations as f64));

        let ctx = ExperimentContext::new(ds.clone(), out.ledger.clone(), seed, CLASSES);
        for e in all_experiments().into_iter().chain(extension_experiments()) {
            if !FITTER_IDS.contains(&e.id) {
                t.span("dial-core.kernel", 0, root, |_| black_box(e.run_json(&ctx)));
            }
        }
    });
}

/// A cold in-process `Engine::analyze_many` sweep of every registry id on
/// `out`, then cache hits on the warmed engine.
fn engine_sweep(run: &Run, out: &SimOutput, seed: u64) -> Result<(), String> {
    let t = &run.tracer;
    let engine = market::batch_engine(out, seed, THREADS);
    let ids = market::registry_ids();
    t.span("dial-serve.engine.sweep", 0, None, |_| market::analyze_all(&engine, &ids))?;
    t.span("layer.cache", 0, None, |root| {
        for i in 0..CACHE_HITS {
            let id = &ids[i % ids.len()];
            t.span("dial-serve.cache.hit", 0, root, |_| black_box(engine.analyze(id)))
                .map_err(|e| format!("cache hit {id}: {e:?}"))?;
        }
        Ok(())
    })
}

/// Month by month through the same layers a durable live node runs per
/// seal: NDJSON decode, stream apply (with the seal), segment-log append
/// and checkpoint, snapshot build, and the cold reads of `read_ids`; then
/// `Engine::ingest` of the same batches on a durable in-process engine.
fn stream_pass(
    run: &Run,
    batches: &[String],
    seed: u64,
    read_ids: &[&str],
    o: &mut Outcome,
) -> Result<(), String> {
    let t = &run.tracer;
    let opts = || dial_store::StoreOptions::new(seed, CLASSES).with_fsync(false);
    let dir = run.work.join("layer-store");
    let (mut log, _, _) =
        dial_store::open_fs(&dir, opts()).map_err(|e| format!("open store: {e}"))?;
    let mut engine = StreamEngine::new();
    let experiments: Vec<_> = all_experiments()
        .into_iter()
        .chain(extension_experiments())
        .filter(|e| read_ids.contains(&e.id))
        .collect();
    let mut bytes = Vec::with_capacity(batches.len());
    for (m, body) in batches.iter().enumerate() {
        let op = m as u64;
        t.span("layer.month", op, None, |root| {
            let events = t
                .span("dial-stream.codec.decode", op, root, |_| decode_ndjson(body))
                .map_err(|e| format!("decode month {m}: {e}"))?;
            let delta = t.span("dial-stream.engine.apply", op, root, |_| {
                let mut sealed = None;
                for ev in events.iter().cloned() {
                    sealed =
                        engine.apply(ev).map_err(|e| format!("apply month {m}: {e:?}"))?.or(sealed);
                }
                sealed.ok_or_else(|| format!("month {m} did not seal"))
            })?;
            let before = log.stats().log_bytes;
            t.span("dial-store.log.append", op, root, |_| log.append_seal(&events, &delta))
                .map_err(|e| format!("append month {m}: {e}"))?;
            bytes.push((log.stats().log_bytes - before) as f64);
            if log.should_checkpoint(delta.seq) {
                let ckpt = dial_store::Checkpoint::from_engine(&engine).expect("sealed engine");
                t.span("dial-store.log.checkpoint", op, root, |_| log.write_checkpoint(&ckpt))
                    .map_err(|e| format!("checkpoint month {m}: {e}"))?;
            }
            let store = t.span("dial-serve.store.build", op, root, |_| {
                dial_serve::SnapshotStore::from_parts(
                    engine.dataset().clone(),
                    engine.ledger().clone(),
                    seed,
                    CLASSES,
                )
            });
            let ctx = store.context();
            for e in &experiments {
                t.span("dial-core.read_kernel", op, root, |_| black_box(e.run_json(&ctx)));
            }
            Ok::<(), String>(())
        })?;
    }
    o.layers.push(("dial-store.log.bytes_per_seal", median(&bytes)));
    drop(log);

    let (log, recovered, report) = dial_store::open_fs(run.work.join("layer-engine-store"), opts())
        .map_err(|e| format!("open store: {e}"))?;
    let live = Engine::new_live_durable(
        seed,
        CLASSES,
        dial_serve::registry_experiments(),
        THREADS,
        64,
        1 << 22,
        log,
        recovered,
        report,
    );
    for (m, body) in batches.iter().enumerate() {
        t.span("dial-serve.engine.ingest", m as u64, None, |_| live.ingest(body))
            .map_err(|e| format!("engine ingest month {m}: {e:?}"))?;
    }
    Ok(())
}

/// Cached reads direct to `node` and through `router`, metrics scrapes,
/// and the CPU each costs the node and the router.
pub fn http_probe(
    run: &Run,
    node: &Proc,
    router: &Proc,
    cached: &[(String, String)],
    o: &mut Outcome,
) -> Result<(), String> {
    let t = &run.tracer;
    let mut gap = market::uniform(run.seed);
    let mut series =
        |name: &'static str, addr: SocketAddr, n: usize, spaced: bool, o: &mut Outcome| {
            for i in 0..n {
                if spaced {
                    std::thread::sleep(ROUTER_POLL.mul_f64(gap()));
                }
                let (path, want) = &cached[i % cached.len()];
                let reply = t.span(name, 0, None, |_| http::get(addr, path));
                let ok = matches!(&reply, Ok(r) if r.status == 200 && r.text() == want);
                o.check(ok, || format!("{name} {path}"));
            }
        };
    let cpu0 = node.cpu_s();
    series("http.hit_direct", node.addr, PROBE_REQUESTS, false, o);
    let node_cpu = node.cpu_s() - cpu0;
    o.layers.push(("dial-serve.http.cpu_us_per_req", node_cpu * 1e6 / PROBE_REQUESTS as f64));

    let (n0, r0) = (node.cpu_s(), router.cpu_s());
    series("http.hit_routed", router.addr, ROUTED_PROBE_REQUESTS, true, o);
    let router_cpu = router.cpu_s() - r0;
    o.layers.push((
        "dial-replicate.route.cpu_us_per_req",
        router_cpu * 1e6 / ROUTED_PROBE_REQUESTS as f64,
    ));
    o.meta.push(("probe_node_cpu_s_routed", crate::stats::num(node.cpu_s() - n0)));

    for _ in 0..METRICS_SCRAPES {
        let reply = t.span("http.metrics", 0, None, |_| http::get(node.addr, "/v1/metrics"));
        o.check(matches!(&reply, Ok(r) if r.status == 200), || "metrics scrape".into());
    }
    Ok(())
}

/// A fresh durable live node fed `batches` one month at a time, timing
/// each POST from when it was sent to when its seal frame arrived.
fn feed_probe(
    run: &Run,
    batches: &[String],
    fingerprints: &[String],
    seed: u64,
    o: &mut Outcome,
) -> Result<(), String> {
    let dir = run.work.join("feed-store");
    let node = spawn_live(run, &dir, seed)?;
    let sub = http::Subscription::open(node.addr).map_err(|e| format!("subscribe: {e}"))?;
    for (m, body) in batches.iter().enumerate() {
        let sent = Instant::now();
        let reply = http::post(node.addr, "/v1/ingest", body.as_bytes());
        let frame = wait_seal(&sub, m as u64);
        let ok = matches!(&reply, Ok(r) if r.status == 200)
            && frame.as_ref().is_some_and(|(_, fp)| fp == &fingerprints[m]);
        o.check(ok, || format!("feed probe month {m}"));
        if let Some((at, _)) = frame {
            run.tracer.record("dial-serve.feed.frame_lag", m as u64, None, sent, at);
        }
    }
    Ok(())
}

/// `dial serve --live` with a durable store under `dir`, run with
/// `--no-fsync`: the store lives in the checkout on a shared disk, and its
/// fsync latency would swamp the CPU path being measured (the stream, the
/// store's framing and checkpoints, the snapshot rebuild). On tmpfs fsync
/// would cost as little.
pub fn spawn_live(run: &Run, dir: &std::path::Path, seed: u64) -> Result<Proc, String> {
    let dir = dir.to_str().ok_or("non-utf8 work dir")?;
    crate::proc::serve(&run.dial, seed, &["--live", "--data-dir", dir, "--no-fsync"])
}

/// Waits for the `seal` frame of `seq`; returns when it arrived and the
/// fingerprint it carries.
pub fn wait_seal(sub: &http::Subscription, seq: u64) -> Option<(Instant, String)> {
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let left = deadline.checked_duration_since(Instant::now())?;
        let frame = sub.frames.recv_timeout(left).ok()?;
        if frame.event != "seal" {
            continue;
        }
        let v: serde_json::Value = serde_json::from_str(&frame.data).ok()?;
        if v.get("seq").as_u64() == Some(seq) {
            return Some((frame.at, v.get("fingerprint").as_str()?.to_string()));
        }
    }
}

/// The node's cumulative result-cache hits and misses, from `/v1/metrics`.
pub fn cache_counts(addr: SocketAddr) -> Result<(f64, f64), String> {
    let reply = http::get(addr, "/v1/metrics").map_err(|e| format!("metrics: {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(reply.text()).map_err(|e| format!("metrics json: {e:?}"))?;
    let n = |k: &str| v.get(k).as_f64().unwrap_or(0.0);
    Ok((n("cache_hits"), n("cache_misses")))
}

/// Self times in ms of the spans named `name`.
pub fn self_ms(run: &Run, name: &str) -> Vec<f64> {
    self_ms_ops(run, name).into_iter().map(|(_, ms)| ms).collect()
}

/// `(op, self ms)` of the spans named `name`.
pub fn self_ms_ops(run: &Run, name: &str) -> Vec<(u64, f64)> {
    let spans = run.tracer.spans();
    let selfs = self_times_us(&spans);
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(s, v)| (s.op, v / 1e3)).collect()
}

/// What tracing added to each op: the time spent inside the recorder so
/// far, per op. Call it after the ops and before the layer pass.
pub fn trace_overhead_us(run: &Run, ops: usize) -> f64 {
    run.tracer.cost_us() / ops.max(1) as f64
}

/// Every per-layer metric, derived from the run's spans (self time) and
/// the counts the workload and the layer pass recorded.
pub fn per_layer(run: &Run, o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let ms = |name: &str| self_ms(run, name);
    let counted =
        |name: &str| o.layers.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v);
    let direct = median(&ms("http.hit_direct"));
    vec![
        ("dial-stats.lca.fit_ms", sum(&ms("dial-stats.lca.fit")), "ms"),
        ("dial-stats.lca.iterations", counted("dial-stats.lca.iterations"), "count"),
        ("dial-stats.zip.fit_ms", sum(&ms("dial-stats.zip.fit")), "ms"),
        ("dial-stats.zip.fits", counted("dial-stats.zip.fits"), "count"),
        ("dial-stats.hmm.fit_ms", sum(&ms("dial-stats.hmm.fit")), "ms"),
        ("dial-stats.hmm.iterations", counted("dial-stats.hmm.iterations"), "count"),
        ("dial-par.busy_cores", counted("dial-par.busy_cores"), "cores"),
        ("dial-core.kernels_ms", sum(&ms("dial-core.kernel")), "ms"),
        ("dial-serve.engine.sweep_ms", median(&ms("dial-serve.engine.sweep")), "ms"),
        ("dial-serve.node.startup_ms", median(&ms("dial-serve.node.startup")), "ms"),
        ("dial-serve.store.build_ms", median(&ms("dial-serve.store.build")), "ms"),
        ("dial-serve.http.hit_rtt_ms", direct, "ms"),
        ("dial-replicate.route.hop_ms", median(&ms("http.hit_routed")) - direct, "ms"),
        ("dial-serve.cache.hit_us", median(&ms("dial-serve.cache.hit")) * 1e3, "us"),
        ("dial-serve.cache.hit_ratio", counted("dial-serve.cache.hit_ratio"), "ratio"),
        ("dial-serve.metrics.render_ms", median(&ms("http.metrics")), "ms"),
        ("dial-serve.http.cpu_us_per_req", counted("dial-serve.http.cpu_us_per_req"), "us"),
        (
            "dial-replicate.route.cpu_us_per_req",
            counted("dial-replicate.route.cpu_us_per_req"),
            "us",
        ),
        ("dial-stream.codec.decode_ms", median(&ms("dial-stream.codec.decode")), "ms"),
        ("dial-stream.engine.apply_ms", median(&ms("dial-stream.engine.apply")), "ms"),
        ("dial-store.log.append_ms", median(&ms("dial-store.log.append")), "ms"),
        ("dial-store.log.bytes_per_seal", counted("dial-store.log.bytes_per_seal"), "bytes"),
        ("dial-store.log.checkpoint_ms", median(&ms("dial-store.log.checkpoint")), "ms"),
        ("dial-serve.engine.ingest_ms", median(&ms("dial-serve.engine.ingest")), "ms"),
        ("dial-serve.feed.frame_lag_ms", median(&ms("dial-serve.feed.frame_lag")), "ms"),
        ("loadgen.late_p99_ms", quantile(&ms("loadgen.late"), 0.99), "ms"),
        ("residual_ms", counted("residual_ms"), "ms"),
        ("predicted_share", counted("predicted_share"), "ratio"),
        ("trace.overhead_us_per_op", counted("trace.overhead_us_per_op"), "us"),
    ]
}
