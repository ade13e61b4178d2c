//! `routed-read`: client → `dial route` (single-node config: the leader
//! serves reads) → a node warmed with the whole registry. Open loop at a
//! fixed rate from two sender threads, each request timed from when it
//! was due. Mix: Zipf-skewed single-id reads, 10% batches of three ids,
//! 5% `/v1/metrics` scrapes. The node serves the first panel market.

use crate::http;
use crate::layers;
use crate::market;
use crate::proc;
use crate::stats::{median, num, quantile};
use crate::{Outcome, Run};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered load, requests per second. The router accepts connections on a
/// 20 ms poll, so two closed-loop clients top out near 100 req/s (the
/// capacity probe records the figure each run); 40 req/s leaves each
/// sender idle most of the time, so requests do not queue behind their
/// own sender.
pub const RATE: f64 = 40.0;
const SENDERS: usize = 2;
const CAPACITY_PROBE: Duration = Duration::from_millis(1000);
const ZIPF_S: f64 = 1.1;

enum Kind {
    Single(usize),
    Batch([usize; 3]),
    Metrics,
}

struct Sample {
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
}

/// The seeded request mix: `n` requests over `ids` ids, ranked for the
/// Zipf skew by a seeded permutation.
fn plan(seed: u64, ids: usize, n: usize) -> Vec<Kind> {
    let rank = market::permutation(seed, ids);
    let mut next = market::uniform(seed ^ 0x5EED);
    let weights: Vec<f64> = (1..=ids).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let zipf = |u: f64| {
        let mut acc = 0.0;
        for (r, w) in weights.iter().enumerate() {
            acc += w / total;
            if u < acc {
                return rank[r];
            }
        }
        rank[ids - 1]
    };
    (0..n)
        .map(|_| {
            let u = next();
            if u < 0.05 {
                Kind::Metrics
            } else if u < 0.15 {
                let a = zipf(next());
                let mut b = zipf(next());
                while b == a {
                    b = zipf(next());
                }
                let mut c = zipf(next());
                while c == a || c == b {
                    c = zipf(next());
                }
                Kind::Batch([a, b, c])
            } else {
                Kind::Single(zipf(next()))
            }
        })
        .collect()
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let t = &run.tracer;
    let mut o = Outcome::default();
    let market::PanelMarket { seed, snapshot, reference } = market::panel_reference(0)?;
    let path_str = snapshot.to_str().ok_or("non-utf8 work dir")?;
    let ids: Vec<String> = reference.iter().map(|(id, _)| id.clone()).collect();

    // Set-up: node, router, and the warm-up sweep that fills the cache.
    let spawned = Instant::now();
    let node = proc::serve(&run.dial, seed, &["--snapshot", path_str])?;
    t.record("dial-serve.node.startup", 0, None, spawned, spawned + node.startup);
    let router = proc::route(&run.dial, &node)?;
    let sweep = http::get(node.addr, &format!("/v1/analyze?ids={}", ids.join(",")))
        .map_err(|e| format!("warm-up sweep: {e}"))?;
    let bodies: Vec<String> = reference.iter().map(|(_, body)| body.clone()).collect();
    o.check(sweep.status == 200 && sweep.text() == market::batch_body(&ids, &bodies), || {
        "warm-up sweep differs from the in-process reference".into()
    });
    let mut warm = Vec::with_capacity(ids.len());
    for (id, body) in &reference {
        let r = http::get(node.addr, &format!("/v1/analyze/{id}"))
            .map_err(|e| format!("warm {id}: {e}"))?;
        o.check(r.status == 200 && r.text() == body, || {
            format!("warmed {id} differs from the in-process reference")
        });
        warm.push(r.text().to_string());
    }
    let setup_s = spawned.elapsed().as_secs_f64();
    let single: Vec<String> = ids.iter().map(|id| format!("/v1/analyze/{id}")).collect();

    // Capacity: two closed-loop clients of routed single reads.
    let capacity = {
        let count = AtomicUsize::new(0);
        let started = Instant::now();
        std::thread::scope(|s| {
            for k in 0..SENDERS {
                let (count, single, router) = (&count, &single, router.addr);
                s.spawn(move || {
                    let mut i = k;
                    while started.elapsed() < CAPACITY_PROBE {
                        if http::get(router, &single[i % single.len()])
                            .is_ok_and(|r| r.status == 200)
                        {
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                        i += SENDERS;
                    }
                });
            }
        });
        count.load(Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
    };

    // The open loop.
    let n = (RATE * run.seconds).round().max(1.0) as usize;
    let requests = plan(run.seed, ids.len(), n);
    let (h0, m0) = layers::cache_counts(node.addr)?;
    let (node_cpu0, router_cpu0) = (node.cpu_s(), router.cpu_s());
    let start = Instant::now() + Duration::from_millis(20);
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SENDERS)
            .map(|k| {
                let (requests, warm, ids, router) = (&requests, &warm, &ids, router.addr);
                s.spawn(move || {
                    let mut mine = Vec::with_capacity(requests.len() / SENDERS + 1);
                    for i in (k..requests.len()).step_by(SENDERS) {
                        let due = start + Duration::from_secs_f64(i as f64 / RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let op = i as u64 + 1;
                        let ok = match &requests[i] {
                            Kind::Single(a) => {
                                http::get(router, &format!("/v1/analyze/{}", ids[*a]))
                                    .is_ok_and(|r| r.status == 200 && r.text() == warm[*a])
                            }
                            Kind::Batch(abc) => {
                                let names: Vec<String> =
                                    abc.iter().map(|j| ids[*j].clone()).collect();
                                let bodies: Vec<String> =
                                    abc.iter().map(|j| warm[*j].clone()).collect();
                                let want = market::batch_body(&names, &bodies);
                                http::get(router, &format!("/v1/analyze?ids={}", names.join(",")))
                                    .is_ok_and(|r| r.status == 200 && r.text() == want)
                            }
                            Kind::Metrics => http::get(router, "/v1/metrics")
                                .is_ok_and(|r| r.status == 200 && r.text().starts_with('{')),
                        };
                        let done = Instant::now();
                        if let Some(root) = t.record("op", op, None, due, done) {
                            t.record("loadgen.late", op, Some(root), due, sent);
                            t.record("http.routed_get", op, Some(root), sent, done);
                        }
                        mine.push(Sample { due, sent, done, ok });
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sender thread")).collect()
    });
    let cpu_s = (node.cpu_s() - node_cpu0) + (router.cpu_s() - router_cpu0);
    let (h1, m1) = layers::cache_counts(node.addr)?;

    let mut lat_ms = Vec::with_capacity(samples.len());
    let mut late_ms = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        o.check(s.ok, || format!("routed request {i} failed or differs from its warmed body"));
        lat_ms.push((s.done - s.due).as_secs_f64() * 1e3);
        late_ms.push((s.sent - s.due).as_secs_f64() * 1e3);
    }
    let first_due = samples.iter().map(|s| s.due).min().expect("at least one request");
    let last_done = samples.iter().map(|s| s.done).max().expect("at least one request");
    let completed = samples.iter().filter(|s| s.ok).count();
    o.e2e = crate::E2e {
        setup_s,
        op_p50_ms: median(&lat_ms),
        op_p90_ms: quantile(&lat_ms, 0.9),
        ops_per_s: completed as f64 / (last_done - first_due).as_secs_f64(),
        cpu_s,
        peak_rss_mb: node.peak_rss_mb(),
    };
    let (hits, lookups) = (h1 - h0, (h1 - h0) + (m1 - m0));
    o.layers.push(("dial-serve.cache.hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 }));
    o.layers.push((
        "dial-par.busy_cores",
        (node.cpu_s() - node_cpu0) / (last_done - first_due).as_secs_f64(),
    ));
    o.meta.push(("scale", num(market::PANEL_SCALE)));
    o.meta.push(("op_samples", lat_ms.len().to_string()));
    o.meta.push(("offered_rate_rps", num(RATE)));
    o.meta.push(("capacity_rps", num(capacity)));
    o.meta.push(("senders", SENDERS.to_string()));
    o.meta.push(("late_p99_ms", num(quantile(&late_ms, 0.99))));
    o.meta.push(("cache_lookups", num(lookups)));

    if t.on() {
        o.layers.push(("trace.overhead_us_per_op", layers::trace_overhead_us(run, samples.len())));
        let cached: Vec<(String, String)> =
            single.iter().cloned().zip(warm.iter().cloned()).collect();
        layers::http_probe(run, &node, &router, &cached, &mut o)?;
        drop((router, node));
        let out = market::simulate(seed, market::PANEL_SCALE);
        let batches = market::month_batches(&out);
        layers::pass(run, &out, seed, &batches, &market::prefix_fingerprints(&out), seed, &mut o)?;
        // The routed read as the probe sees it, the node's HTTP hit plus
        // the router hop, is predicted to carry the op.
        let routed = median(&layers::self_ms(run, "http.hit_routed"));
        let p50 = o.e2e.op_p50_ms;
        o.layers.push(("residual_ms", p50 - routed));
        o.layers.push(("predicted_share", routed / p50));
    }
    Ok(o)
}
