//! `fig_sweep`: the paper's Fig. 10/11 computation in process — the
//! three Table V networks × {PTB, PTB+StSAP, baseline[14]} × the 7-point
//! TW sweep at full fidelity, through `harness::sweep_summary_cached`
//! over a warm `ActivityCache` with `RunOptions.threads = nproc`.
//!
//! One request is one sweep point (one `sweep_summary_cached` call for a
//! single TW, the unit `sweep_summary_cached` itself is made of); one
//! pass is all 63. The activity seed is the paper's (42), so every run
//! does the same work and the rows are pinned bit-for-bit by
//! `perfbench/golden/fig_sweep.txt`; `--seed` orders the nine sweeps.

use std::time::Instant;

use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::sim::word_kernel_calls;
use ptb_bench::{sweep_summary_cached, ActivityCache, CacheMode, RunOptions, SweepRow};
use spikegen::NetworkSpec;

use crate::{host, stats, trace, Args, Metric, Outcome};

/// Digest of each sweep's rows at the paper's activity seed, one
/// `network<TAB>policy<TAB>fnv1a-hex` line per sweep. A model change
/// shows up here as a reviewed diff, never as silent drift.
const GOLDEN: &str = include_str!("../golden/fig_sweep.txt");

/// The paper's activity seed (`RunOptions::default().seed`).
pub const ACTIVITY_SEED: u64 = 42;

/// Latency limit of one full-fidelity sweep point, for `slo_ratio`.
pub const POINT_LIMIT_MS: f64 = 2000.0;

/// The tail percentile reported for this workload (two passes give 126
/// points, so p90 has at least ten samples beyond it).
pub const TAIL_Q: f64 = 0.90;

/// Timed passes per run at least, however long they take: `pass_s` is a
/// median, and the median of two is only their mean.
const MIN_PASSES: usize = 3;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

pub fn networks() -> Vec<NetworkSpec> {
    vec![
        spikegen::dvs_gesture(),
        spikegen::cifar10_dvs(),
        spikegen::alexnet(),
    ]
}

pub fn policies() -> [Policy; 3] {
    [
        Policy::ptb(),
        Policy::ptb_with_stsap(),
        Policy::BaselineTemporal,
    ]
}

/// Metric-name slug of a policy.
pub fn policy_slug(policy: Policy) -> &'static str {
    match policy {
        Policy::Ptb { stsap: false } => "ptb",
        Policy::Ptb { stsap: true } => "ptb_stsap",
        Policy::BaselineTemporal => "baseline14",
        Policy::TimeSerial => "time_serial",
        Policy::Ann => "ann",
        Policy::EventDriven => "event_driven",
    }
}

/// Metric-name slug of a network or layer name.
pub fn slug(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// Full fidelity at the paper's seed, one simulator thread per core.
pub fn options() -> RunOptions {
    RunOptions {
        seed: ACTIVITY_SEED,
        threads: host::nproc(),
        cache: CacheMode::Mem,
        ..RunOptions::full()
    }
}

/// The per-layer seed `harness::run_network_verified` derives, so set-up
/// warms exactly the keys the sweep will ask for.
pub fn layer_seed(run_seed: u64, index: usize) -> u64 {
    run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64)
}

/// The operational period `opts` simulates `spec` over.
pub fn timesteps(opts: &RunOptions, spec: &NetworkSpec) -> usize {
    opts.max_timesteps
        .map_or(spec.timesteps, |cap| spec.timesteps.min(cap))
}

/// Cold set-up: a fresh cache with every layer's activity generated and
/// its geometry built. Returns the cache and its generation count.
pub fn setup(nets: &[NetworkSpec], opts: &RunOptions) -> (ActivityCache, u64) {
    let cache = opts.new_cache();
    for spec in nets {
        let timesteps = timesteps(opts, spec);
        trace::span(format!("spikegen.{}", slug(&spec.name)), 0, || {
            for (i, layer) in spec.layers.iter().enumerate() {
                let shape = opts.effective_shape(layer);
                let prep = cache.layer(layer, shape, timesteps, layer_seed(opts.seed, i));
                prep.geometry();
            }
        });
    }
    let misses = cache.stats().misses;
    (cache, misses)
}

/// One timed pass over every sweep point.
pub struct Pass {
    pub secs: f64,
    pub point_ms: Vec<f64>,
    /// Rows per sweep, indexed `network * 3 + policy`.
    pub rows: Vec<Vec<SweepRow>>,
    pub word_kernel_calls: u64,
    pub cache_misses: u64,
}

pub fn pass(
    nets: &[NetworkSpec],
    cache: &ActivityCache,
    opts: &RunOptions,
    order: &[usize],
) -> Pass {
    let tws = SimInputs::tw_sweep();
    let mut rows = vec![Vec::new(); nets.len() * 3];
    let mut point_ms = Vec::with_capacity(order.len() * tws.len());
    let words_before = word_kernel_calls();
    let misses_before = cache.stats().misses;
    let start = Instant::now();
    for &sweep in order {
        let spec = &nets[sweep / 3];
        let policy = policies()[sweep % 3];
        for tw in tws {
            let t = Instant::now();
            let row = trace::span("harness.sweep_summary_cached", trace::new_request(), || {
                sweep_summary_cached(spec, policy, &[tw], opts, cache)
            });
            point_ms.push(t.elapsed().as_secs_f64() * 1e3);
            rows[sweep].extend(row);
        }
    }
    Pass {
        secs: start.elapsed().as_secs_f64(),
        point_ms,
        rows,
        word_kernel_calls: word_kernel_calls() - words_before,
        cache_misses: cache.stats().misses - misses_before,
    }
}

/// `network<TAB>policy<TAB>digest` for one sweep's rows, digesting every
/// float by its bits.
pub fn digest_line(spec: &NetworkSpec, policy: Policy, rows: &[SweepRow]) -> String {
    let mut bytes = Vec::with_capacity(rows.len() * 28);
    for r in rows {
        bytes.extend_from_slice(&r.tw.to_le_bytes());
        for v in [r.energy_j, r.seconds, r.edp] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    format!(
        "{}\t{}\t{:016x}",
        spec.name,
        policy.label(),
        ptb_bench::cache::fnv1a(&bytes)
    )
}

/// Which sweeps of `p` disagree with the golden file.
pub fn golden_mismatches(nets: &[NetworkSpec], p: &Pass) -> Vec<usize> {
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.trim().is_empty()).collect();
    (0..p.rows.len())
        .filter(|&s| {
            let line = digest_line(&nets[s / 3], policies()[s % 3], &p.rows[s]);
            !golden.contains(&line.as_str())
        })
        .collect()
}

/// The nine sweeps in the order `seed` picks.
pub fn sweep_order(seed: u64, sweeps: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..sweeps).collect();
    let mut state = seed ^ 0xF16_5EE9;
    crate::shuffle(&mut order, &mut state);
    order
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let nets = networks();
    let opts = options();
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut setup_misses = Vec::new();
    let mut cache = None;
    for _ in 0..SETUP_REPS {
        drop(cache.take()); // free the previous cache before building the next
        let t = Instant::now();
        let (c, misses) = setup(&nets, &opts);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_misses.push(misses);
        cache = Some(c);
    }
    let cache = cache.expect("at least one set-up");
    out.exact("setup.cache_misses", &setup_misses);

    let order = sweep_order(args.seed, nets.len() * 3);
    let min_points = stats::min_samples_for(TAIL_Q);
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed = 0.0;
    let mut points = 0;
    while (crate::Progress {
        passes: passes.len(),
        timed_s: timed,
        samples: points,
    })
    .keep_going(args.seconds, MIN_PASSES, min_points)
    {
        let p = pass(&nets, &cache, &opts, &order);
        timed += p.secs;
        points += p.point_ms.len();
        passes.push(p);
    }

    let mut ok_points = 0usize;
    let mut point_ms = Vec::new();
    for p in &passes {
        let bad = golden_mismatches(&nets, p);
        if !bad.is_empty() {
            eprintln!(
                "fig_sweep rows differ from perfbench/golden/fig_sweep.txt; this pass digests to:"
            );
            for s in 0..p.rows.len() {
                eprintln!(
                    "{}",
                    digest_line(&nets[s / 3], policies()[s % 3], &p.rows[s])
                );
            }
        }
        let tws = SimInputs::tw_sweep().len();
        out.attempted += p.point_ms.len() as u64;
        out.failed += (bad.len() * tws) as u64;
        for (k, &ms) in p.point_ms.iter().enumerate() {
            let sweep = order[k / tws];
            if !bad.contains(&sweep) && ms <= POINT_LIMIT_MS {
                ok_points += 1;
            }
        }
        point_ms.extend_from_slice(&p.point_ms);
    }
    let words: Vec<u64> = passes.iter().map(|p| p.word_kernel_calls).collect();
    out.exact("pass.word_kernel_calls", &words);
    let pass_misses: Vec<u64> = passes.iter().map(|p| p.cache_misses).collect();
    out.exact("pass.cache_misses", &pass_misses);
    if pass_misses.iter().any(|&m| m != 0) {
        out.problem("a timed pass regenerated activity: set-up did not warm every key");
    }

    let pass_s: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let (tail, beyond) = stats::percentile(&point_ms, TAIL_Q);
    let n = point_ms.len();
    out.metrics = vec![
        Metric::new("setup_s", stats::median(&setup_s), "s", setup_s.len())
            .note("median of cold activity generation for all 19 layers"),
        Metric::new("pass_s", stats::median(&pass_s), "s", pass_s.len()),
        Metric::new(
            "peak_rss_mb",
            host::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
            1,
        ),
        Metric::new(
            "throughput_rps",
            (out.attempted - out.failed) as f64 / timed,
            "1/s",
            n,
        )
        .note("correct sweep points per second"),
        Metric::new("latency_p50_ms", stats::median(&point_ms), "ms", n),
        Metric::new("latency_tail_ms", tail, "ms", n)
            .note(format!("p{:.0}, {beyond} samples beyond", TAIL_Q * 100.0)),
        Metric::new("slo_ratio", ok_points as f64 / n as f64, "ratio", n)
            .note(format!("correct within {POINT_LIMIT_MS} ms")),
    ];
    Ok(out)
}
