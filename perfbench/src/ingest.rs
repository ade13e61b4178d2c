//! `live-ingest`: a fresh durable live node per seeded scale-0.05 market.
//! One op is one month: POST its NDJSON batch, wait for its seal frame on
//! a `/v1/stream` subscription, then GET three non-fitter ids from the new
//! snapshot (cold: every seal invalidates the cache). Closed loop. The
//! store skips fsync ([`layers::spawn_live`]).

use crate::http;
use crate::layers;
use crate::market;
use crate::stats::{median, num, quantile, sum};
use crate::{Outcome, Run};
use std::collections::BTreeMap;
use std::time::Instant;

pub const SCALE: f64 = 0.05;
/// Three plain kernels read after every seal.
pub const READ_IDS: [&str; 3] = ["table1", "fig7", "table5"];
/// Nominal seconds to ingest one market (25 months with their reads) on a
/// 2-core host; fixes the market count from `--seconds`.
const NOMINAL_MARKET_S: f64 = 1.4;

/// The `snapshot` field of a JSON body.
fn snapshot_of(body: &str) -> Option<String> {
    let v: serde_json::Value = serde_json::from_str(body).ok()?;
    v.get("snapshot").as_str().map(str::to_string)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let t = &run.tracer;
    let mut o = Outcome::default();
    let markets = ((run.seconds / NOMINAL_MARKET_S).round() as u64).max(2);
    let (mut setups, mut ops_ms, mut node_cpu, mut rss, mut late) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut lookups) = (0.0, 0.0);
    let mut first = None;
    let mut last_node = None;

    for i in 0..markets {
        let seed = market::market_seed(run.seed, &run.workload, i);
        let out = market::simulate(seed, SCALE);
        let batches = market::month_batches(&out);
        let fingerprints = market::prefix_fingerprints(&out);
        let reference = {
            let engine = market::batch_engine(&out, seed, crate::THREADS);
            READ_IDS
                .iter()
                .map(|id| {
                    engine
                        .analyze(id)
                        .map(|b| b.as_ref().clone())
                        .map_err(|e| format!("{id}: {e:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?
        };

        let spawned = Instant::now();
        let store = run.work.join(format!("store-{i}"));
        let node = layers::spawn_live(run, &store, seed)?;
        let ready = spawned + node.startup;
        let base = i * 1000;
        t.record("dial-serve.node.startup", base, None, spawned, ready);
        setups.push(node.startup.as_secs_f64());
        let sub = http::Subscription::open(node.addr).map_err(|e| format!("subscribe: {e}"))?;
        let (h0, m0) = layers::cache_counts(node.addr)?;

        let cpu0 = node.cpu_s();
        let mut prev = Instant::now();
        let mut last_reads = Vec::new();
        for (m, body) in batches.iter().enumerate() {
            let op = base + m as u64 + 1;
            let sent = Instant::now();
            late.push((sent - prev).as_secs_f64() * 1e3);
            t.record("loadgen.late", op, None, prev, sent);
            let (post, frame, reads) = t.span("op", op, None, |root| {
                let post = t.span("http.ingest_post", op, root, |_| {
                    http::post(node.addr, "/v1/ingest", body.as_bytes())
                });
                let frame =
                    t.span("feed.seal_wait", op, root, |_| layers::wait_seal(&sub, m as u64));
                let reads: Vec<_> = READ_IDS
                    .iter()
                    .map(|id| {
                        t.span("http.read", op, root, |_| {
                            http::get(node.addr, &format!("/v1/analyze/{id}"))
                        })
                    })
                    .collect();
                (post, frame, reads)
            });
            prev = Instant::now();
            ops_ms.push((prev - sent).as_secs_f64() * 1e3);

            let want = &fingerprints[m];
            let post_ok = matches!(&post, Ok(r) if r.status == 200 && snapshot_of(r.text()).as_ref() == Some(want));
            let frame_ok = frame.as_ref().is_some_and(|(_, fp)| fp == want);
            let reads_ok = reads
                .iter()
                .all(|r| matches!(r, Ok(r) if r.status == 200 && snapshot_of(r.text()).as_ref() == Some(want)));
            o.check(post_ok && frame_ok && reads_ok, || {
                format!("market {i} month {m}: seal or reads off the batch-built fingerprint")
            });
            last_reads = reads
                .into_iter()
                .map(|r| r.map(|r| r.text().to_string()).unwrap_or_default())
                .collect();
        }
        node_cpu.push(node.cpu_s() - cpu0);
        o.check(last_reads == reference, || {
            format!("market {i}: final read bodies differ from the batch-built store")
        });
        let (h1, m1) = layers::cache_counts(node.addr)?;
        hits += h1 - h0;
        lookups += (h1 - h0) + (m1 - m0);
        rss.push(node.peak_rss_mb());
        drop(sub);
        if i == 0 {
            first = Some((batches, fingerprints, seed));
        }
        if i + 1 == markets && t.on() {
            let cached: Vec<(String, String)> =
                READ_IDS.iter().map(|id| format!("/v1/analyze/{id}")).zip(reference).collect();
            last_node = Some((node, cached));
        } else {
            // Deleting the store while its pages are still dirty spares the
            // shared disk the write-back, which would otherwise land on
            // later markets' ops.
            drop(node);
            let _ = std::fs::remove_dir_all(&store);
        }
    }

    let wall_s = sum(&ops_ms) / 1e3;
    o.e2e = crate::E2e {
        setup_s: median(&setups),
        op_p50_ms: median(&ops_ms),
        op_p90_ms: quantile(&ops_ms, 0.9),
        ops_per_s: ops_ms.len() as f64 / wall_s,
        cpu_s: sum(&node_cpu),
        peak_rss_mb: median(&rss),
    };
    o.layers.push(("dial-par.busy_cores", sum(&node_cpu) / wall_s));
    o.layers.push(("dial-serve.cache.hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 }));
    o.meta.push(("scale", num(SCALE)));
    o.meta.push(("markets", markets.to_string()));
    o.meta.push(("op_samples", ops_ms.len().to_string()));
    o.meta.push(("read_ids", format!("[{}]", READ_IDS.map(|id| format!("\"{id}\"")).join(","))));
    o.meta.push(("cache_lookups", num(lookups)));
    o.meta.push(("node_peak_rss_mb", crate::stats::json_list(&rss)));

    if t.on() {
        o.layers.push(("trace.overhead_us_per_op", layers::trace_overhead_us(run, ops_ms.len())));
        let (node, cached) = last_node.expect("traced runs keep the last node");
        let router = crate::proc::route(&run.dial, &node)?;
        layers::http_probe(run, &node, &router, &cached, &mut o)?;
        drop((router, node));

        // The fitters stay idle here; the pass still times them, on the
        // first panel market, so every traced run reports every layer.
        let (batches, fingerprints, seed) = first.expect("at least one market");
        let small_seed = market::panel_seed(0);
        let small = market::simulate(small_seed, market::PANEL_SCALE);
        layers::pass(run, &small, small_seed, &batches, &fingerprints, seed, &mut o)?;

        // Market 0's months against the same months through the in-process
        // layers: snapshot build, stream and store are predicted to carry
        // the op, the three read kernels most of the rest.
        let per_op = |names: &[&str]| {
            let mut by: BTreeMap<u64, f64> = BTreeMap::new();
            for name in names {
                for (op, ms) in layers::self_ms_ops(run, name) {
                    *by.entry(op).or_default() += ms;
                }
            }
            by
        };
        let predicted = per_op(&[
            "dial-stream.codec.decode",
            "dial-stream.engine.apply",
            "dial-store.log.append",
            "dial-store.log.checkpoint",
            "dial-serve.store.build",
        ]);
        let reads = per_op(&["dial-core.read_kernel"]);
        let (mut residual, mut share) = (Vec::new(), Vec::new());
        for (m, op_ms) in ops_ms.iter().take(batches.len()).enumerate() {
            let p = predicted.get(&(m as u64)).copied().unwrap_or(0.0);
            let r = reads.get(&(m as u64)).copied().unwrap_or(0.0);
            residual.push(op_ms - p - r);
            share.push(p / op_ms);
        }
        o.layers.push(("residual_ms", median(&residual)));
        o.layers.push(("predicted_share", median(&share)));
    }
    o.meta.push(("late_p99_ms", num(quantile(&late, 0.99))));
    Ok(o)
}
