//! `registry-cold`: one op is one cold `GET /v1/analyze?ids=<all 30>` on a
//! fresh `dial serve --snapshot` node (empty result cache and LTM memo).
//! Closed loop, one client, one op per market of the fixed scale-0.01
//! panel ([`market::panel_seed`]), swept in seeded order.

use crate::http;
use crate::layers;
use crate::market;
use crate::stats::{median, num, quantile, sum};
use crate::{Outcome, Run};
use std::time::Instant;

/// Nominal seconds of one sweep on a 2-core host. `--seconds` fixes the
/// op count through this constant, so both sides of a comparison do the
/// same work whatever their speed.
const NOMINAL_OP_S: f64 = 4.2;

pub fn run(run: &Run) -> Result<Outcome, String> {
    let t = &run.tracer;
    let mut o = Outcome::default();
    let markets = ((run.seconds / NOMINAL_OP_S).round() as usize).max(2);
    let (mut setups, mut ops_ms, mut node_cpu, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut lookups) = (0.0, 0.0);
    let (mut first_seed, mut last) = (None, None);

    for (i, panel) in market::permutation(run.seed, markets).into_iter().enumerate() {
        let op = i as u64 + 1;
        let market::PanelMarket { seed, snapshot, reference } =
            market::panel_reference(panel as u64)?;
        // The run seed also shuffles the id order of every sweep request.
        let order = market::permutation(market::mix(run.seed) ^ seed, reference.len());
        let ids: Vec<String> = order.iter().map(|&j| reference[j].0.clone()).collect();
        let bodies: Vec<String> = order.iter().map(|&j| reference[j].1.clone()).collect();
        let want = market::batch_body(&ids, &bodies);
        let query = format!("/v1/analyze?ids={}", ids.join(","));

        let spawned = Instant::now();
        let snapshot = snapshot.to_str().ok_or("non-utf8 work dir")?;
        let node = crate::proc::serve(&run.dial, seed, &["--snapshot", snapshot])?;
        let ready = spawned + node.startup;
        t.record("dial-serve.node.startup", op, None, spawned, ready);
        setups.push(node.startup.as_secs_f64());

        let cpu0 = node.cpu_s();
        let sent = Instant::now();
        t.record("loadgen.late", op, None, ready, sent);
        let reply = t.span("op", op, None, |root| {
            t.span("http.sweep", op, root, |_| http::get(node.addr, &query))
        });
        let done = Instant::now();
        node_cpu.push(node.cpu_s() - cpu0);
        ops_ms.push((done - sent).as_secs_f64() * 1e3);
        o.check(matches!(&reply, Ok(r) if r.status == 200 && r.text() == want), || {
            format!("panel market {panel}: sweep body differs from the in-process reference")
        });

        let (h, m) = layers::cache_counts(node.addr)?;
        hits += h;
        lookups += h + m;
        rss.push(node.peak_rss_mb());
        first_seed.get_or_insert(seed);
        if i + 1 == markets && t.on() {
            // Keep the last node: it is warm for the HTTP probe.
            last = Some((
                node,
                ids.iter().map(|id| format!("/v1/analyze/{id}")).zip(bodies).collect::<Vec<_>>(),
            ));
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
    o.meta.push(("scale", num(market::PANEL_SCALE)));
    o.meta.push(("markets", markets.to_string()));
    o.meta.push(("op_samples", ops_ms.len().to_string()));
    o.meta.push(("cache_lookups", num(lookups)));
    o.meta.push(("op_ms", crate::stats::json_list(&ops_ms)));

    if t.on() {
        o.layers.push(("trace.overhead_us_per_op", layers::trace_overhead_us(run, ops_ms.len())));
        let (node, cached) = last.expect("traced runs keep the last node");
        let router = crate::proc::route(&run.dial, &node)?;
        layers::http_probe(run, &node, &router, &cached, &mut o)?;
        drop((router, node));
        // The layer pass runs on the first market swept.
        let seed = first_seed.expect("at least one market");
        let out = market::simulate(seed, market::PANEL_SCALE);
        let batches = market::month_batches(&out);
        layers::pass(run, &out, seed, &batches, &market::prefix_fingerprints(&out), seed, &mut o)?;
        // The fitters are predicted to carry most of the op. The node runs
        // them on a two-thread pool while the pass runs them one after
        // another, so the split is taken over the op's node CPU time.
        let fit: f64 = ["dial-stats.lca.fit", "dial-stats.zip.fit", "dial-stats.hmm.fit"]
            .iter()
            .map(|n| sum(&layers::self_ms(run, n)))
            .sum();
        let kernels = sum(&layers::self_ms(run, "dial-core.kernel"));
        let op_cpu_ms = node_cpu[0] * 1e3;
        o.layers.push(("residual_ms", op_cpu_ms - fit - kernels));
        o.layers.push(("predicted_share", fit / op_cpu_ms));
    }
    Ok(o)
}
