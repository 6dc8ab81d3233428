//! The traced run (`--trace 1`): every per-layer metric of every
//! workload, whichever `--workload` is named, plus each workload's
//! tracing overhead. Spans are recorded around the benchmark's own calls
//! into each layer and written to `.bench_out/spans-<part>-seed<N>.jsonl`
//! (summarise with `python3 perfbench/summarize.py`). Per-layer numbers
//! come from span totals and from counter deltas; the end-to-end metrics
//! are never taken from this run.

use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::sim::simulate_layer_prepared;
use ptb_bench::{run_network_cached, ActivityCache, CacheMode};
use ptb_serve::engine::{MemoReport, Outcome as EngineOutcome};
use ptb_serve::http::Codec;
use ptb_serve::server::render;

use crate::fig::{policy_slug, slug};
use crate::{cluster, fig, host, serve, stats, trace, Args, Metric, Outcome};

/// Calls per in-process micro-measurement; the median is reported.
const MICRO_CALLS: usize = 51;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    fig_part(args, &mut out)?;
    quick_part(&mut out);
    serve_part(args, &mut out)?;
    cluster_part(args, &mut out)?;
    trace::set_enabled(false);
    Ok(out)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn write_spans(part: &str, seed: u64, spans: &[trace::Span]) {
    let path = format!("{}/spans-{part}-seed{seed}.jsonl", crate::OUT_DIR);
    let written = std::fs::create_dir_all(crate::OUT_DIR)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(spans)));
    if let Err(e) = written {
        eprintln!("warning: could not write {path}: {e}");
    }
}

fn overhead(part: &str, untraced: f64, traced: f64, samples: usize) -> Metric {
    Metric::new(
        format!("trace.{part}.overhead_pct"),
        (traced / untraced - 1.0) * 100.0,
        "%",
        samples,
    )
    .note("traced minus untraced pass time, share of untraced")
}

/// Cold generation per network, one untraced and one traced full pass,
/// and the serial per-layer simulations behind them.
fn fig_part(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let nets = fig::networks();
    let opts = fig::options();
    trace::set_enabled(true);
    let (cache, misses) = fig::setup(&nets, &opts);
    trace::set_enabled(false);
    out.counts.push(("setup.cache_misses".into(), misses));
    let order = fig::sweep_order(args.seed, nets.len() * 3);

    let untraced = fig::pass(&nets, &cache, &opts, &order);
    trace::set_enabled(true);
    let traced = fig::pass(&nets, &cache, &opts, &order);
    for p in [&untraced, &traced] {
        out.attempted += p.point_ms.len() as u64;
        out.failed += (fig::golden_mismatches(&nets, p).len() * SimInputs::tw_sweep().len()) as u64;
    }
    out.exact(
        "pass.word_kernel_calls",
        &[untraced.word_kernel_calls, traced.word_kernel_calls],
    );

    // Serial (`threads = 1`) simulation of every layer over the 7 TWs.
    for spec in &nets {
        for (i, layer) in spec.layers.iter().enumerate() {
            let prep = cache.layer(
                layer,
                opts.effective_shape(layer),
                fig::timesteps(&opts, spec),
                fig::layer_seed(opts.seed, i),
            );
            for policy in fig::policies() {
                let name = format!(
                    "sim.{}.{}.{}",
                    slug(&spec.name),
                    slug(&layer.name),
                    policy_slug(policy)
                );
                trace::span(name, trace::new_request(), || {
                    for tw in SimInputs::tw_sweep() {
                        black_box(simulate_layer_prepared(
                            &SimInputs::hpca22(tw),
                            policy,
                            &prep,
                        ));
                    }
                });
            }
        }
    }
    trace::set_enabled(false);
    let spans = trace::take();
    let totals = trace::totals(&spans);
    for spec in &nets {
        let name = format!("spikegen.{}", slug(&spec.name));
        let t = totals.get(&name).copied().unwrap_or_default();
        out.metrics.push(Metric::new(
            format!("{name}.generate_ms"),
            ms(t.total_ns),
            "ms",
            t.calls as usize,
        ));
    }
    let mut serial_total_ms = 0.0;
    for policy in fig::policies() {
        let suffix = format!(".{}", policy_slug(policy));
        let mut sum = 0.0;
        for (name, t) in totals
            .iter()
            .filter(|(n, _)| n.starts_with("sim.") && n.ends_with(&suffix))
        {
            out.metrics.push(Metric::new(
                format!("{name}_ms"),
                ms(t.self_ns),
                "ms",
                t.calls as usize,
            ));
            sum += ms(t.self_ns);
        }
        serial_total_ms += sum;
        out.metrics.push(Metric::new(
            format!("sim.{}_ms", policy_slug(policy)),
            sum,
            "ms",
            nets.iter().map(|n| n.layers.len()).sum(),
        ));
    }
    out.metrics.push(Metric::new(
        "sim.word_kernel_calls",
        untraced.word_kernel_calls as f64,
        "count",
        1,
    ));
    out.metrics.push(
        Metric::new(
            "harness.fanout_efficiency",
            serial_total_ms / 1e3 / (untraced.secs * host::nproc() as f64),
            "ratio",
            1,
        )
        .note(format!(
            "serial layer time / (pass_s x {} threads)",
            host::nproc()
        )),
    );
    out.metrics
        .push(overhead("fig_sweep", untraced.secs, traced.secs, 2));
    write_spans("fig_sweep", args.seed, &spans);
    Ok(())
}

/// Quick-fidelity simulation per policy, the harness's per-call cost,
/// and the two renderers.
fn quick_part(out: &mut Outcome) {
    let nets = fig::networks();
    let opts = serve::quick_options(serve::WARM_SEED);
    let cache = ActivityCache::new(CacheMode::Mem);
    // Warm every quick layer (activity and geometry) before timing.
    let preps: Vec<_> = nets
        .iter()
        .flat_map(|spec| {
            let timesteps = fig::timesteps(&opts, spec);
            let cache = &cache;
            spec.layers.iter().enumerate().map(move |(i, layer)| {
                let prep = cache.layer(
                    layer,
                    opts.effective_shape(layer),
                    timesteps,
                    fig::layer_seed(opts.seed, i),
                );
                prep.geometry();
                prep
            })
        })
        .collect();
    let mut quick_ms = Vec::new();
    for policy in Policy::all() {
        let t = Instant::now();
        for prep in &preps {
            for tw in SimInputs::tw_sweep() {
                black_box(simulate_layer_prepared(
                    &SimInputs::hpca22(tw),
                    policy,
                    prep,
                ));
            }
        }
        let v = t.elapsed().as_secs_f64() * 1e3;
        quick_ms.push((policy, v));
        out.metrics.push(
            Metric::new(format!("sim.quick.{}_ms", policy_slug(policy)), v, "ms", 1)
                .note("3 networks x 7 TWs, serial, warm"),
        );
    }

    let cheapest = quick_ms
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("six policies")
        .0;
    let spec = &nets[0];
    let mut call_us = Vec::new();
    for _ in 0..MICRO_CALLS {
        let t = Instant::now();
        black_box(run_network_cached(spec, cheapest, 8, &opts, &cache));
        call_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.metrics.push(
        Metric::new(
            "harness.quick_call_us",
            stats::median(&call_us),
            "us",
            call_us.len(),
        )
        .note(format!("{} {} TW 8, warm", spec.name, cheapest.label())),
    );

    let reports: Vec<_> = nets
        .iter()
        .map(|spec| run_network_cached(spec, Policy::ptb_with_stsap(), 8, &opts, &cache))
        .collect();
    for (name, codec) in [
        ("render.json_us", Codec::Json),
        ("render.ptbw_us", Codec::Binary),
    ] {
        let mut us = Vec::new();
        for i in 0..MICRO_CALLS {
            let fresh = EngineOutcome::Report(Arc::new(MemoReport::new(
                reports[i % reports.len()].clone(),
            )));
            let t = Instant::now();
            black_box(render(&fresh, codec));
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        out.metrics.push(
            Metric::new(name, stats::median(&us), "us", us.len())
                .note("fresh PTB+StSAP TW 8 quick report, 3 networks in turn"),
        );
    }
}

/// Runs measured units untraced (U) and traced (T) in the order
/// `U T T U U T T U`, which cancels a linear drift, after one unit that
/// is not compared, and returns the median untraced and traced times.
fn alternate(mut unit: impl FnMut() -> Result<f64, String>) -> Result<(f64, f64), String> {
    // One unit first that counts for neither side, so effects of the
    // first unit after set-up land on neither.
    trace::set_enabled(false);
    unit()?;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for i in 0..8 {
        let on = matches!(i % 4, 1 | 2);
        trace::set_enabled(on);
        let secs = unit()?;
        if on {
            traced.push(secs);
        } else {
            plain.push(secs);
        }
    }
    trace::set_enabled(false);
    Ok((stats::median(&plain), stats::median(&traced)))
}

fn serve_part(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut bench = serve::Bench::new(args.seed, 1)?;
    let addr = bench.server.addr();
    let before = serve::counters(addr)?;
    let mut rounds = serve::Rounds::default();
    let (plain, traced) = alternate(|| {
        serve::measured_round(&mut bench, &mut rounds)?;
        Ok(*rounds.round_s.last().expect("a round ran"))
    })?;
    let after = serve::counters(addr)?;
    serve::stop(bench.server);
    serve::record_exact(out, &rounds);
    out.attempted += rounds.attempted;
    out.failed += rounds.failed;
    write_spans("serve_mix", args.seed, &trace::take());

    let d = |f: fn(&serve::ServerCounters) -> u64| f(&after) - f(&before);
    let lookups = d(|c| c.cache_hits) + d(|c| c.cache_misses);
    let client_p50 = stats::median(&rounds.latencies);
    // `/metrics` exposes quantiles as log₂-bucket upper edges only.
    let server_p50 = after.simulate_p50_us as f64 / 1e3;
    let server_p50_floor = (after.simulate_p50_us + 1) as f64 / 2e3;
    let n = rounds.latencies.len();
    out.metrics.extend([
        Metric::new(
            "cache.hit_ratio",
            d(|c| c.cache_hits) as f64 / lookups.max(1) as f64,
            "ratio",
            lookups as usize,
        ),
        Metric::new(
            "cache.evictions",
            d(|c| c.cache_evictions) as f64,
            "count",
            1,
        ),
        Metric::new(
            "cache.mem_mb",
            after.cache_mem_bytes as f64 / (1u64 << 20) as f64,
            "MiB",
            1,
        ),
        Metric::new("serve.server_p50_ms", server_p50, "ms", 1)
            .note("/metrics simulate p50: log2-bucket upper edge since server start"),
        Metric::new(
            "serve.outside_p50_ms",
            client_p50 - server_p50_floor,
            "ms",
            n,
        )
        .note("client p50 minus the server p50 bucket's lower edge: an upper bound"),
        Metric::new(
            "serve.memo_hit_ratio",
            d(|c| c.memo_hits) as f64 / d(|c| c.simulate_requests).max(1) as f64,
            "ratio",
            n,
        ),
        Metric::new("serve.shed", d(|c| c.shed) as f64, "count", n),
        overhead("serve_mix", plain, traced, 8),
    ]);
    Ok(())
}

fn cluster_part(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut bench = cluster::Bench::new(args.seed, 1)?;
    let m = bench.fleet.coordinator.metrics();
    let sweep_hist = m.sweep.latency.snapshot();
    let dispatch_hist: Vec<[u64; 32]> = m.per_worker.iter().map(|w| w.latency.snapshot()).collect();
    let dispatched: Vec<u64> = m
        .per_worker
        .iter()
        .map(|w| w.dispatched.load(Ordering::Relaxed))
        .collect();
    let redispatch = |m: &ptb_cluster::ClusterMetrics| {
        m.shards_reclaimed.load(Ordering::Relaxed)
            + m.dispatch_failures.load(Ordering::Relaxed)
            + m.backpressure_redispatch.load(Ordering::Relaxed)
    };
    let redispatch_before = redispatch(m);
    let cache_before = cluster::worker_cache(&bench.fleet)?;
    let mut passes = cluster::Passes::default();
    let (plain, traced) = alternate(|| {
        cluster::measured_pass(&mut bench, &mut passes)?;
        Ok(*passes.pass_s.last().expect("a pass ran"))
    })?;
    let m = bench.fleet.coordinator.metrics();
    let mut dispatch_delta = vec![0u64; 32];
    for (w, before) in m.per_worker.iter().zip(&dispatch_hist) {
        for (acc, d) in dispatch_delta
            .iter_mut()
            .zip(stats::delta(&w.latency.snapshot(), before))
        {
            *acc += d;
        }
    }
    let sweep_delta = stats::delta(&m.sweep.latency.snapshot(), &sweep_hist);
    let per_worker: Vec<u64> = m
        .per_worker
        .iter()
        .zip(&dispatched)
        .map(|(w, b)| w.dispatched.load(Ordering::Relaxed) - b)
        .collect();
    let redispatched = redispatch(m) - redispatch_before;
    let cache_after = cluster::worker_cache(&bench.fleet)?;
    let mut worker_p50 = Vec::new();
    for addr in bench.fleet.worker_addrs() {
        let v = serve::metrics_value(addr)?;
        worker_p50.push(serve::u64_at(&v, &["endpoints", "sweep", "p50_us"]) as f64 / 1e3);
    }
    bench.fleet.stop();
    out.exact("sweep.shards_dispatched", &passes.shards_per_sweep);
    out.exact("pass.worker_cache_misses", &passes.worker_misses);
    out.attempted += passes.attempted;
    out.failed += passes.failed;
    write_spans("cluster_sweep", args.seed, &trace::take());

    let client_p50 = stats::median(&passes.latencies);
    // Log₂ buckets are too coarse to subtract an estimate from: take the
    // p50 bucket's lower edge, so the difference is an upper bound.
    let coordinator_p50_floor =
        stats::histogram_quantile_ms(&sweep_delta, 0.5).map_or(f64::NAN, |q| q.0);
    let hits = cache_after.cache_hits - cache_before.cache_hits;
    let lookups = hits + cache_after.cache_misses - cache_before.cache_misses;
    let most = per_worker.iter().copied().max().unwrap_or(0);
    let fewest = per_worker.iter().copied().min().unwrap_or(0);
    let n = passes.latencies.len();
    out.metrics.extend([
        Metric::new(
            "cluster.dispatch_p50_ms",
            stats::histogram_quantile_ms(&dispatch_delta, 0.5).map_or(f64::NAN, |q| q.2),
            "ms",
            dispatch_delta.iter().sum::<u64>() as usize,
        )
        .note("per-worker dispatch histograms, interpolated in the log2 bucket"),
        Metric::new(
            "cluster.worker_p50_ms",
            stats::median(&worker_p50),
            "ms",
            worker_p50.len(),
        )
        .note("workers' /metrics sweep p50: log2-bucket upper edge since start"),
        Metric::new(
            "cluster.outside_p50_ms",
            client_p50 - coordinator_p50_floor,
            "ms",
            n,
        )
        .note("client p50 minus the coordinator /sweep p50 bucket's lower edge: an upper bound"),
        Metric::new(
            "cluster.affinity_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
            lookups as usize,
        ),
        Metric::new(
            "cluster.shard_balance",
            most as f64 / fewest.max(1) as f64,
            "ratio",
            per_worker.len(),
        )
        .note(format!("shards per worker {per_worker:?}")),
        Metric::new("cluster.redispatch", redispatched as f64, "count", n),
        Metric::new(
            "cluster.cache_evictions",
            (cache_after.cache_evictions - cache_before.cache_evictions) as f64,
            "count",
            1,
        ),
        Metric::new(
            "cluster.cache_mem_mb",
            cache_after.cache_mem_bytes as f64 / (1u64 << 20) as f64,
            "MiB",
            1,
        ),
        overhead("cluster_sweep", plain, traced, 8),
    ]);
    Ok(())
}
