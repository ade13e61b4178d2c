//! Serving-path benchmarks: cold vs warm `/analyze` through the
//! scheduler + cache (the dial-serve [`Engine`], no sockets), on the
//! shared 0.1-scale snapshot.
//!
//! "Cold" measures the full miss path — queue hand-off, experiment run on
//! a worker thread, envelope build, cache insert — by evicting between
//! iterations with a fresh engine. "Warm" measures the steady state every
//! repeat query sees: a read-locked map probe returning a shared body.
//!
//! The faulted-load variant goes through real sockets and compares warm
//! request latency (p50/p99) clean vs. under a `dial-fault` plan that
//! slows ~10% of connection reads — the degradation an operator should
//! expect from a tail of slow clients.

use criterion::{criterion_group, criterion_main, Criterion};
use dial_bench::bench_market;
use dial_serve::{transport, Engine, ServeConfig, Server, SnapshotStore};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serve_store() -> SnapshotStore {
    let (dataset, ledger) = bench_market();
    SnapshotStore::from_parts(dataset.clone(), ledger.clone(), 0xBE9C, 4)
}

fn fresh_engine() -> Engine {
    Engine::new(serve_store(), dial_serve::registry_experiments(), 2, 16)
}

/// Cold path: every analyze is a miss (new engine per batch, so the cache
/// and the LTM memo start empty only once — table1 does not touch the LTM).
fn bench_analyze_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_analyze_cold");
    group.sample_size(10);
    group.bench_function("table1_miss", |b| {
        b.iter_with_setup(fresh_engine, |engine| {
            let body = engine.analyze(black_box("table1")).unwrap();
            black_box(body.len())
        });
    });
    group.finish();
}

/// Warm path: the first call primes the cache, every measured call hits.
fn bench_analyze_warm(c: &mut Criterion) {
    let engine = fresh_engine();
    engine.analyze("table1").unwrap();
    engine.analyze("fig1").unwrap();

    let mut group = c.benchmark_group("serve_analyze_warm");
    group.bench_function("table1_hit", |b| {
        b.iter(|| {
            let body = engine.analyze(black_box("table1")).unwrap();
            black_box(body.len())
        });
    });
    group.bench_function("alternating_hits", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let id = if flip { "table1" } else { "fig1" };
            let body = engine.analyze(black_box(id)).unwrap();
            black_box(body.len())
        });
    });
    group.finish();

    let m = engine.metrics().snapshot();
    println!("serve cache after warm benches: {} hits / {} misses", m.cache_hits, m.cache_misses);
}

/// One warm GET over a real socket, returning its wall-clock latency.
fn timed_get(addr: SocketAddr, path: &str) -> Duration {
    let started = Instant::now();
    let reply = transport::get(&addr.to_string(), path).expect("bench request");
    assert_eq!(reply.status, 200, "bench requests must succeed");
    started.elapsed()
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Socket-level faulted-load run: 200 warm requests, clean and then with
/// ~10% of connection reads slowed by 25ms. Reported as p50/p99 (a mean
/// would bury exactly the tail this measures).
fn bench_faulted_load(_c: &mut Criterion) {
    let engine = Engine::new(serve_store(), dial_serve::registry_experiments(), 2, 32);
    let cfg = ServeConfig { port: 0, ..ServeConfig::default() };
    let server = Server::start(Arc::new(engine), &cfg).expect("bind ephemeral port");
    let addr = server.addr();
    timed_get(addr, "/v1/analyze/table1"); // prime the cache

    for (label, plan) in
        [("clean", None), ("slow_clients_10pct", Some("seed=9;slow_read%10:delay=25"))]
    {
        let _chaos =
            plan.map(|s| dial_fault::install(dial_fault::ChaosPlan::parse(s).expect("spec")));
        let mut latencies: Vec<Duration> =
            (0..200).map(|_| timed_get(addr, "/v1/analyze/table1")).collect();
        latencies.sort();
        println!(
            "serve_faulted_load/{label}: p50 {:?}  p99 {:?}  (n={}, faults fired {})",
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.99),
            latencies.len(),
            dial_fault::fired_total(),
        );
    }
    server.shutdown();
}

criterion_group!(serve, bench_analyze_cold, bench_analyze_warm, bench_faulted_load);
criterion_main!(serve);
