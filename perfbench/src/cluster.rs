//! `cluster_sweep`: an in-process `ptb_cluster::Coordinator` in front of
//! two in-process worker `Server`s (`workers = 1` each, no job dirs),
//! driven by one closed-loop keep-alive connection sending synchronous
//! quick-fidelity 7-TW `POST /sweep` requests.
//!
//! Requests rotate over 3 networks × {PTB, PTB+StSAP, baseline[14]} ×
//! the activity seeds of [`SEED_RING`]; set-up sends each once, so every
//! shard's activity already sits on its consistent-hash owner when the
//! timed passes begin. One pass sends every sweep once, in an order
//! drawn from `--seed`. Rows are compared bit-for-bit with an in-process
//! `sweep_summary_cached`.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use ptb_accel::config::{Policy, SimInputs};
use ptb_bench::{sweep_summary_cached, ActivityCache, CacheMode, SweepRow};
use ptb_cluster::{ClusterConfig, Coordinator};
use ptb_serve::client::Connection;
use ptb_serve::{Server, ServerConfig};
use spikegen::NetworkSpec;

use crate::serve::{counters, quick_options, stop};
use crate::{fig, host, stats, trace, Args, Metric, Outcome};

/// Activity seeds the sweeps rotate over.
pub const SEED_RING: [u64; 2] = [11, 12];

/// Ports of the two worker daemons. The consistent-hash ring hashes
/// worker addresses, so fixed ports make every run place every shard the
/// same way; with ephemeral ports the shard balance, and with it the
/// sweep latency, would change from run to run. A later pair is used only
/// when an earlier one cannot be bound.
const WORKER_PORTS: [[u16; 2]; 3] = [[47811, 47812], [47821, 47822], [47831, 47832]];

/// Latency limit of one quick 7-TW sweep, for `slo_ratio`.
pub const LIMIT_MS: f64 = 250.0;

/// Reported tail percentile; runs go on until it has ten samples beyond.
pub const TAIL_Q: f64 = 0.90;

const SETUP_REPS: usize = 3;

/// (network index, policy, activity seed) of one sweep request.
#[derive(Debug, Clone, Copy)]
pub struct SweepKey {
    pub net: usize,
    pub policy: Policy,
    pub seed: u64,
}

pub fn sweep_keys() -> Vec<SweepKey> {
    let mut keys = Vec::new();
    for net in 0..3 {
        for policy in fig::policies() {
            for seed in SEED_RING {
                keys.push(SweepKey { net, policy, seed });
            }
        }
    }
    keys
}

fn body(nets: &[NetworkSpec], key: SweepKey) -> Vec<u8> {
    format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": {:?}, \"quick\": true, \"seed\": {}}}",
        nets[key.net].name,
        key.policy.label(),
        SimInputs::tw_sweep(),
        key.seed
    )
    .into_bytes()
}

/// The coordinator and its workers.
pub struct Fleet {
    pub coordinator: Coordinator,
    pub workers: Vec<Server>,
}

impl Fleet {
    pub fn worker_addrs(&self) -> Vec<SocketAddr> {
        self.workers.iter().map(Server::addr).collect()
    }

    pub fn stop(self) {
        self.coordinator.shutdown();
        self.coordinator.join();
        for w in self.workers {
            stop(w);
        }
    }
}

/// Starts the two one-thread workers on the first free pair of
/// [`WORKER_PORTS`].
fn start_workers() -> Result<Vec<Server>, String> {
    let start = |port: u16| {
        Server::start(&ServerConfig {
            addr: format!("127.0.0.1:{port}"),
            workers: 1,
            cache: CacheMode::Mem,
            job_dir: None,
            ..ServerConfig::default()
        })
    };
    for [a, b] in WORKER_PORTS {
        match start(a) {
            Ok(first) => match start(b) {
                Ok(second) => return Ok(vec![first, second]),
                Err(e) => {
                    eprintln!("worker port {b} unavailable: {e}");
                    stop(first);
                }
            },
            Err(e) => eprintln!("worker port {a} unavailable: {e}"),
        }
    }
    Err(format!("no worker port pair of {WORKER_PORTS:?} is free"))
}

/// Starts the fleet, waits until the coordinator has probed every
/// worker, and sends every sweep once. Returns the fleet and the seconds
/// set-up took.
fn start(nets: &[NetworkSpec]) -> Result<(Fleet, f64), String> {
    let t = Instant::now();
    let workers = start_workers()?;
    let coordinator = Coordinator::start(&ClusterConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
        job_dir: None,
        ..ClusterConfig::default()
    })
    .map_err(|e| format!("start coordinator: {e}"))?;
    let fleet = Fleet {
        coordinator,
        workers,
    };
    wait_probed(&fleet)?;
    let mut conn =
        Connection::open(fleet.coordinator.addr()).map_err(|e| format!("connect: {e}"))?;
    for key in sweep_keys() {
        let resp = conn
            .request("POST", "/sweep", None, &body(nets, key))
            .map_err(|e| format!("warm-up sweep: {e}"))?;
        if resp.status != 200 {
            return Err(format!("warm-up sweep answered {}", resp.status));
        }
        if conn.server_closed() {
            conn =
                Connection::open(fleet.coordinator.addr()).map_err(|e| format!("connect: {e}"))?;
        }
    }
    Ok((fleet, t.elapsed().as_secs_f64()))
}

/// Waits until each worker has accepted a connection that is not one of
/// ours: the coordinator's first `/healthz` probe.
fn wait_probed(fleet: &Fleet) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    for addr in fleet.worker_addrs() {
        let mut ours = 0;
        loop {
            ours += 1;
            let accepted = crate::serve::u64_at(&crate::serve::metrics_value(addr)?, &["accepted"]);
            if accepted > ours {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("worker {addr} was never probed"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok(())
}

/// The running fleet, the request order and the reference rows.
pub struct Bench {
    pub nets: Vec<NetworkSpec>,
    pub fleet: Fleet,
    keys: Vec<SweepKey>,
    expected: Vec<Vec<SweepRow>>,
    rng: u64,
    conn: Connection,
    pub setup_s: Vec<f64>,
    /// Shards each set-up dispatched. (Activity generations during set-up
    /// follow the ring, which a fallback port pair would change.)
    pub setup_shards: Vec<u64>,
}

impl Bench {
    /// Computes the reference rows, then sets the fleet up `setup_reps`
    /// times (keeping the last) and times each set-up.
    pub fn new(seed: u64, setup_reps: usize) -> Result<Bench, String> {
        let nets = fig::networks();
        let keys = sweep_keys();
        let cache = ActivityCache::new(CacheMode::Mem);
        let expected = keys
            .iter()
            .map(|k| {
                sweep_summary_cached(
                    &nets[k.net],
                    k.policy,
                    &SimInputs::tw_sweep(),
                    &quick_options(k.seed),
                    &cache,
                )
            })
            .collect();
        drop(cache);
        let mut setup_s = Vec::new();
        let mut setup_shards = Vec::new();
        let mut fleet = None;
        for _ in 0..setup_reps {
            if let Some(old) = fleet.take() {
                Fleet::stop(old);
            }
            let (f, secs) = start(&nets)?;
            setup_s.push(secs);
            setup_shards.push(
                f.coordinator
                    .metrics()
                    .shards_dispatched
                    .load(Ordering::Relaxed),
            );
            fleet = Some(f);
        }
        let fleet = fleet.expect("at least one set-up");
        let conn =
            Connection::open(fleet.coordinator.addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Bench {
            nets,
            fleet,
            keys,
            expected,
            rng: seed ^ 0xC1_0575,
            conn,
            setup_s,
            setup_shards,
        })
    }
}

/// Everything the timed passes of one run produced.
#[derive(Default)]
pub struct Passes {
    pub pass_s: Vec<f64>,
    pub latencies: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correct answers within [`LIMIT_MS`].
    pub within_limit: u64,
    /// Shards the coordinator dispatched for each sweep.
    pub shards_per_sweep: Vec<u64>,
    /// Activity generations on the workers per pass: 0 while every shard
    /// lands on the worker that already holds its activity.
    pub worker_misses: Vec<u64>,
}

impl Passes {
    pub fn timed_s(&self) -> f64 {
        self.pass_s.iter().sum()
    }
}

/// One pass: every sweep once, in a fresh seed-drawn order.
pub fn measured_pass(bench: &mut Bench, acc: &mut Passes) -> Result<(), String> {
    let mut order: Vec<usize> = (0..bench.keys.len()).collect();
    crate::shuffle(&mut order, &mut bench.rng);
    let metrics = bench.fleet.coordinator.metrics();
    let addr = bench.fleet.coordinator.addr();
    let misses_before = worker_cache(&bench.fleet)?.cache_misses;
    let start = Instant::now();
    for i in order {
        let payload = body(&bench.nets, bench.keys[i]);
        let shards_before = metrics.shards_dispatched.load(Ordering::Relaxed);
        let req = trace::new_request();
        let t = Instant::now();
        let resp = trace::span("client.sweep", req, || {
            bench.conn.request("POST", "/sweep", None, &payload)
        })
        .map_err(|e| format!("POST /sweep: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        acc.shards_per_sweep
            .push(metrics.shards_dispatched.load(Ordering::Relaxed) - shards_before);
        if bench.conn.server_closed() {
            bench.conn = Connection::open(addr).map_err(|e| format!("reconnect: {e}"))?;
        }
        let ok = resp.status == 200
            && trace::span("verify.rows", req, || {
                rows_match(&resp.body, &bench.expected[i])
            });
        if !ok {
            eprintln!(
                "cluster_sweep: sweep {:?} answered {} with rows that differ from sweep_summary_cached",
                bench.keys[i], resp.status
            );
        }
        acc.attempted += 1;
        acc.latencies.push(ms);
        if !ok {
            acc.failed += 1;
        } else if ms <= LIMIT_MS {
            acc.within_limit += 1;
        }
    }
    acc.pass_s.push(start.elapsed().as_secs_f64());
    acc.worker_misses
        .push(worker_cache(&bench.fleet)?.cache_misses - misses_before);
    Ok(())
}

/// Whether a JSON rows body decodes to exactly `want`, bit for bit.
fn rows_match(body: &[u8], want: &[SweepRow]) -> bool {
    let Some(rows) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| serde_json::from_str::<Vec<SweepRow>>(t).ok())
    else {
        return false;
    };
    let bits = |r: &SweepRow| {
        (
            r.tw,
            r.energy_j.to_bits(),
            r.seconds.to_bits(),
            r.edp.to_bits(),
        )
    };
    rows.len() == want.len() && rows.iter().zip(want).all(|(a, b)| bits(a) == bits(b))
}

/// Worker-side cache counters summed over the fleet.
pub fn worker_cache(fleet: &Fleet) -> Result<crate::serve::ServerCounters, String> {
    let mut sum = crate::serve::ServerCounters::default();
    for addr in fleet.worker_addrs() {
        let c = counters(addr)?;
        sum.cache_hits += c.cache_hits;
        sum.cache_misses += c.cache_misses;
        sum.cache_evictions += c.cache_evictions;
        sum.cache_mem_bytes += c.cache_mem_bytes;
    }
    Ok(sum)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut bench = Bench::new(args.seed, SETUP_REPS)?;
    let mut out = Outcome::default();
    let mut passes = Passes::default();
    let min = stats::min_samples_for(TAIL_Q);
    while (crate::Progress {
        passes: passes.pass_s.len(),
        timed_s: passes.timed_s(),
        samples: passes.latencies.len(),
    })
    .keep_going(args.seconds, 2, min)
    {
        measured_pass(&mut bench, &mut passes)?;
    }
    bench.fleet.stop();
    out.exact("setup.shards_dispatched", &bench.setup_shards);
    out.exact("pass.worker_cache_misses", &passes.worker_misses);
    out.exact("sweep.shards_dispatched", &passes.shards_per_sweep);
    out.attempted = passes.attempted;
    out.failed = passes.failed;
    let n = passes.latencies.len();
    let (tail, beyond) = stats::percentile(&passes.latencies, TAIL_Q);
    out.metrics = vec![
        Metric::new(
            "setup_s",
            stats::median(&bench.setup_s),
            "s",
            bench.setup_s.len(),
        )
        .note("median of fleet start + first probe + one request per sweep"),
        Metric::new(
            "pass_s",
            stats::median(&passes.pass_s),
            "s",
            passes.pass_s.len(),
        )
        .note(format!("one pass: {} sweeps", bench.keys.len())),
        Metric::new(
            "peak_rss_mb",
            host::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
            1,
        ),
        Metric::new(
            "throughput_rps",
            (passes.attempted - passes.failed) as f64 / passes.timed_s(),
            "1/s",
            n,
        )
        .note("correct sweeps per second"),
        Metric::new("latency_p50_ms", stats::median(&passes.latencies), "ms", n),
        Metric::new("latency_tail_ms", tail, "ms", n)
            .note(format!("p{:.0}, {beyond} samples beyond", TAIL_Q * 100.0)),
        Metric::new(
            "slo_ratio",
            passes.within_limit as f64 / passes.attempted as f64,
            "ratio",
            n,
        )
        .note(format!("correct within {LIMIT_MS} ms")),
    ];
    Ok(out)
}
