//! `serve_mix`: an in-process `ptb_serve::Server` (`workers = nproc`,
//! a mem cache under [`CACHE_BUDGET_BYTES`], no job dir, verify off)
//! driven by closed-loop keep-alive connections sending quick-fidelity
//! `POST /simulate` — one connection in JSON, one in `PTBW1`.
//!
//! Each round sends [`PER_ROUND`] requests, a seed-shuffled mix of three
//! classes:
//! * hot — repeats of [`HOT_KEYS`], answered from the report memo;
//! * warm — a ring of (network, policy ∈ all six, TW) keys, larger than
//!   `REPORT_MEMO_CAP`, so memo misses whose activity is cached;
//! * cold — fresh seeds, so activity generation plus cache inserts and
//!   evictions.
//!
//! After each round, outside the timed window, every response is checked
//! against an in-process `run_network_cached` report: each distinct body
//! is decoded and compared, and byte-identical repeats of a verified body
//! are matched by digest.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::Instant;

use ptb_accel::config::{Policy, SimInputs};
use ptb_accel::report::NetworkReport;
use ptb_bench::{run_network_cached, ActivityCache, CacheBudget, CacheMode, RunOptions};
use ptb_serve::client::{self, Connection};
use ptb_serve::{wire, Server, ServerConfig};
use serde::Value;
use spikegen::NetworkSpec;

use crate::{fig, host, stats, trace, Args, Metric, Outcome};

/// Memory budget of the server's activity cache: the warm set (three
/// networks at [`WARM_SEED`], 2.3 MB as the cache accounts it) plus room
/// for several cold networks, so cold inserts evict each other rather
/// than the warm set.
pub const CACHE_BUDGET_BYTES: u64 = 8 << 20;

/// Activity seed of the hot and warm classes.
pub const WARM_SEED: u64 = 7;

/// Requests per round, by class, dealt alternately to the connections.
/// Every round sends the whole warm ring twice and the whole cold ring,
/// so each round does the same mix of work whatever the seed. Warm is the
/// majority, so the median request is a small simulation, not a memo hit
/// or the boundary between the two.
pub const HOT_PER_ROUND: usize = 50;
pub const WARM_RINGS_PER_ROUND: usize = 2;
pub const WARM_PER_ROUND: usize = WARM_RINGS_PER_ROUND * 3 * 6 * 7;
pub const COLD_PER_ROUND: usize = 3 * 6;
pub const PER_ROUND: usize = HOT_PER_ROUND + WARM_PER_ROUND + COLD_PER_ROUND;

/// Latency limit of one quick `/simulate`, for `slo_ratio`.
pub const LIMIT_MS: f64 = 100.0;

/// Reported tail percentile; runs go on until it has ten samples beyond.
pub const TAIL_Q: f64 = 0.99;

const SETUP_REPS: usize = 3;

/// (network index, policy index into `Policy::all()`, TW).
pub const HOT_KEYS: [(usize, usize, u32); 4] = [(0, 1, 8), (1, 0, 4), (2, 1, 16), (0, 2, 1)];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub net: usize,
    pub policy: usize,
    pub tw: u32,
    pub seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hot,
    Warm,
    Cold,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    Json,
    Ptbw,
}

fn warm_ring() -> Vec<Key> {
    let mut ring = Vec::new();
    for net in 0..3 {
        for policy in 0..Policy::all().len() {
            for tw in SimInputs::tw_sweep() {
                ring.push(Key {
                    net,
                    policy,
                    tw,
                    seed: WARM_SEED,
                });
            }
        }
    }
    ring
}

fn hot_keys() -> Vec<Key> {
    HOT_KEYS
        .iter()
        .map(|&(net, policy, tw)| Key {
            net,
            policy,
            tw,
            seed: WARM_SEED,
        })
        .collect()
}

fn body(nets: &[NetworkSpec], key: Key, codec: Codec) -> Vec<u8> {
    let network = &nets[key.net].name;
    let policy = Policy::all()[key.policy].label();
    match codec {
        Codec::Json => format!(
            "{{\"network\": \"{network}\", \"policy\": \"{policy}\", \"tw\": {}, \
             \"quick\": true, \"seed\": {}}}",
            key.tw, key.seed
        )
        .into_bytes(),
        Codec::Ptbw => wire::frame(
            wire::KIND_SIMULATE,
            &Value::Object(vec![
                ("network".into(), Value::Str(network.clone())),
                ("policy".into(), Value::Str(policy.into())),
                ("tw".into(), Value::U64(u64::from(key.tw))),
                ("quick".into(), Value::Bool(true)),
                ("seed".into(), Value::U64(key.seed)),
            ]),
        ),
    }
}

pub fn quick_options(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        ..RunOptions::quick()
    }
}

/// One answered request.
pub struct Sample {
    pub key: Key,
    pub class: Class,
    pub codec: Codec,
    pub status: u16,
    pub latency_ms: f64,
    pub body: Vec<u8>,
    /// Trace request id shared by this request's spans.
    pub req: u64,
}

/// Deals out each round's requests from `--seed`.
pub struct Planner {
    nets: usize,
    conns: usize,
    rng: u64,
    cold_tw: usize,
}

impl Planner {
    pub fn new(seed: u64, nets: usize, conns: usize) -> Self {
        Planner {
            nets,
            conns,
            rng: seed ^ 0x5E7E_0000_u64,
            cold_tw: 0,
        }
    }

    /// One round: every hot key in turn, the warm ring twice, and one
    /// fresh-seed request per (network, policy), shuffled and dealt
    /// alternately to the connections.
    pub fn round(&mut self) -> Vec<Vec<(Key, Class)>> {
        let hot = hot_keys();
        let mut all: Vec<(Key, Class)> = (0..HOT_PER_ROUND)
            .map(|i| (hot[i % hot.len()], Class::Hot))
            .chain(
                (0..WARM_RINGS_PER_ROUND)
                    .flat_map(|_| warm_ring())
                    .map(|k| (k, Class::Warm)),
            )
            .collect();
        let tws = SimInputs::tw_sweep();
        for net in 0..self.nets {
            for policy in 0..Policy::all().len() {
                self.cold_tw += 1;
                all.push((
                    Key {
                        net,
                        policy,
                        tw: tws[self.cold_tw % tws.len()],
                        // Never the warm seed: a cold key must miss the cache.
                        seed: (crate::splitmix(&mut self.rng) | 1 << 63) ^ WARM_SEED,
                    },
                    Class::Cold,
                ));
            }
        }
        crate::shuffle(&mut all, &mut self.rng);
        let mut plans = vec![Vec::with_capacity(all.len() / self.conns + 1); self.conns];
        for (i, item) in all.into_iter().enumerate() {
            plans[i % self.conns].push(item);
        }
        plans
    }
}

/// Server counters read over `GET /metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    pub simulate_requests: u64,
    pub codec_json: u64,
    pub codec_bin: u64,
    pub memo_hits: u64,
    pub shed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_mem_bytes: u64,
    pub simulate_p50_us: u64,
}

pub fn metrics_value(addr: SocketAddr) -> Result<Value, String> {
    let (status, body) = client::request(addr, "GET", "/metrics", b"")
        .map_err(|e| format!("GET /metrics on {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics on {addr} answered {status}"));
    }
    let text = String::from_utf8(body).map_err(|_| "metrics body is not UTF-8".to_string())?;
    serde_json::from_str::<Value>(&text).map_err(|e| format!("metrics JSON: {e}"))
}

pub fn u64_at(v: &Value, path: &[&str]) -> u64 {
    let mut cur = v;
    for p in path {
        match cur.get(p) {
            Some(next) => cur = next,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

pub fn counters(addr: SocketAddr) -> Result<ServerCounters, String> {
    let v = metrics_value(addr)?;
    Ok(ServerCounters {
        simulate_requests: u64_at(&v, &["endpoints", "simulate", "requests"]),
        codec_json: u64_at(&v, &["codec_json"]),
        codec_bin: u64_at(&v, &["codec_bin"]),
        memo_hits: u64_at(&v, &["report_memo_hits"]),
        shed: u64_at(&v, &["admission_shed"])
            + u64_at(&v, &["rejected_queue_full"])
            + u64_at(&v, &["deadline_expired"]),
        cache_hits: u64_at(&v, &["cache", "mem_hits"]),
        cache_misses: u64_at(&v, &["cache", "misses"]),
        cache_evictions: u64_at(&v, &["cache_evictions"]),
        cache_mem_bytes: u64_at(&v, &["cache_mem_bytes"]),
        simulate_p50_us: u64_at(&v, &["endpoints", "simulate", "p50_us"]),
    })
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: host::nproc(),
        cache: CacheMode::Mem,
        job_dir: None,
        deadline_ms: None,
        cache_budget: CacheBudget {
            mem_bytes: Some(CACHE_BUDGET_BYTES),
            disk_bytes: None,
        },
        mem_watermark: None,
        ..ServerConfig::default()
    }
}

/// The running server, its clients' plan and the reference reports.
pub struct Bench {
    pub nets: Vec<NetworkSpec>,
    pub server: Server,
    pub planner: Planner,
    /// Canonical JSON of the in-process report, per hot and warm key.
    expected: HashMap<Key, String>,
    /// (key, codec, body digest) already decoded and matched.
    verified: HashSet<(Key, Codec, u64)>,
    pub conns: usize,
    pub setup_s: Vec<f64>,
    /// Activity generations each set-up caused.
    pub setup_misses: Vec<u64>,
}

/// Starts a server and sends every hot and warm key once, so activity
/// and memo are warm. Returns the server and the seconds it took.
fn start_warm(nets: &[NetworkSpec]) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::start(&server_config()).map_err(|e| format!("start server: {e}"))?;
    let mut conn = Connection::open(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for key in hot_keys().into_iter().chain(warm_ring()) {
        let resp = conn
            .request("POST", "/simulate", None, &body(nets, key, Codec::Json))
            .map_err(|e| format!("warm-up request: {e}"))?;
        if resp.status != 200 {
            return Err(format!("warm-up request answered {}", resp.status));
        }
        if conn.server_closed() {
            conn = Connection::open(server.addr()).map_err(|e| format!("connect: {e}"))?;
        }
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

impl Bench {
    /// Computes the reference reports, then sets the server up
    /// `setup_reps` times (keeping the last) and times each set-up.
    pub fn new(seed: u64, setup_reps: usize) -> Result<Bench, String> {
        let nets = fig::networks();
        let cache = ActivityCache::new(CacheMode::Mem);
        let expected = hot_keys()
            .into_iter()
            .chain(warm_ring())
            .map(|k| (k, reference(&nets, k, &cache)))
            .collect();
        let mut setup_s = Vec::new();
        let mut setup_misses = Vec::new();
        let mut server = None;
        for _ in 0..setup_reps {
            if let Some(old) = server.take() {
                stop(old);
            }
            let (s, secs) = start_warm(&nets)?;
            setup_s.push(secs);
            setup_misses.push(counters(s.addr())?.cache_misses);
            server = Some(s);
        }
        let conns = host::nproc().min(2);
        Ok(Bench {
            planner: Planner::new(seed, nets.len(), conns),
            nets,
            server: server.expect("at least one set-up"),
            expected,
            verified: HashSet::new(),
            conns,
            setup_s,
            setup_misses,
        })
    }

    /// Runs one closed-loop round; returns its wall time and samples.
    pub fn round(&mut self) -> Result<(f64, Vec<Sample>), String> {
        let plans = self.planner.round();
        let addr = self.server.addr();
        let mut conns = (0..self.conns)
            .map(|_| Connection::open(addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let nets = &self.nets;
        let single = self.conns == 1;
        let start = Instant::now();
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&plans)
                .enumerate()
                .map(|(c, (conn, plan))| {
                    s.spawn(move || {
                        let codec_of = |i: usize| {
                            let pick = if single { i } else { c };
                            if pick % 2 == 0 {
                                Codec::Json
                            } else {
                                Codec::Ptbw
                            }
                        };
                        run_plan(addr, conn, nets, plan, codec_of)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread must not panic"))
                .collect::<Vec<_>>()
        });
        let secs = start.elapsed().as_secs_f64();
        let mut samples = Vec::new();
        for r in results {
            samples.extend(r?);
        }
        Ok((secs, samples))
    }

    /// Decodes and checks every sample: whether each one is correct.
    pub fn verify(&mut self, samples: &[Sample]) -> Vec<bool> {
        let off = ActivityCache::new(CacheMode::Off);
        samples.iter().map(|s| self.check(s, &off)).collect()
    }

    fn check(&mut self, s: &Sample, off: &ActivityCache) -> bool {
        if s.status != 200 {
            return false;
        }
        let digest = ptb_bench::cache::fnv1a(&s.body);
        if self.verified.contains(&(s.key, s.codec, digest)) {
            return true;
        }
        let got = trace::span("verify.decode", s.req, || decode(&s.body, s.codec));
        let want = match self.expected.get(&s.key) {
            Some(w) => w.clone(),
            None => trace::span("harness.run_network_cached", s.req, || {
                reference(&self.nets, s.key, off)
            }),
        };
        if got.as_deref() != Some(want.as_str()) {
            eprintln!(
                "serve_mix: response for {:?} ({:?}) differs from the in-process report",
                s.key, s.codec
            );
            return false;
        }
        if s.class != Class::Cold {
            self.verified.insert((s.key, s.codec, digest));
        }
        true
    }
}

fn run_plan(
    addr: SocketAddr,
    conn: &mut Connection,
    nets: &[NetworkSpec],
    plan: &[(Key, Class)],
    codec_of: impl Fn(usize) -> Codec,
) -> Result<Vec<Sample>, String> {
    let mut out = Vec::with_capacity(plan.len());
    for (i, &(key, class)) in plan.iter().enumerate() {
        let codec = codec_of(i);
        let ctype = (codec == Codec::Ptbw).then_some(wire::CONTENT_TYPE);
        let payload = body(nets, key, codec);
        let req = trace::new_request();
        let t = Instant::now();
        let resp = trace::span("client.simulate", req, || {
            conn.request("POST", "/simulate", ctype, &payload)
        })
        .map_err(|e| format!("POST /simulate: {e}"))?;
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        if conn.server_closed() {
            *conn = Connection::open(addr).map_err(|e| format!("reconnect: {e}"))?;
        }
        out.push(Sample {
            key,
            class,
            codec,
            status: resp.status,
            latency_ms,
            body: resp.body,
            req,
        });
    }
    Ok(out)
}

/// Canonical JSON of a response body's report, decoded in its codec.
fn decode(body: &[u8], codec: Codec) -> Option<String> {
    let report: NetworkReport = match codec {
        Codec::Json => serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?,
        Codec::Ptbw => {
            let (kind, value) = wire::unframe(body).ok()?;
            if kind != wire::KIND_REPORT {
                return None;
            }
            serde_json::from_value(&value).ok()?
        }
    };
    serde_json::to_string(&report).ok()
}

/// Canonical JSON of the in-process report for `key`.
fn reference(nets: &[NetworkSpec], key: Key, cache: &ActivityCache) -> String {
    let report = run_network_cached(
        &nets[key.net],
        Policy::all()[key.policy],
        key.tw,
        &quick_options(key.seed),
        cache,
    );
    serde_json::to_string(&report).expect("report serializes")
}

pub fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// Everything the timed rounds of one run produced.
#[derive(Default)]
pub struct Rounds {
    pub round_s: Vec<f64>,
    pub latencies: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correct answers within [`LIMIT_MS`].
    pub within_limit: u64,
    /// Per round: simulate requests, JSON requests and PTBW requests the
    /// server counted, and requests per class the clients sent.
    pub per_round: Vec<[u64; 6]>,
}

impl Rounds {
    pub fn timed_s(&self) -> f64 {
        self.round_s.iter().sum()
    }
}

/// Runs one round with its checks and adds it to `acc`.
pub fn measured_round(bench: &mut Bench, acc: &mut Rounds) -> Result<(), String> {
    let addr = bench.server.addr();
    let before = counters(addr)?;
    let (secs, samples) = bench.round()?;
    let after = counters(addr)?;
    let correct = bench.verify(&samples);
    acc.round_s.push(secs);
    acc.attempted += samples.len() as u64;
    let class_count = |c: Class| samples.iter().filter(|s| s.class == c).count() as u64;
    acc.per_round.push([
        after.simulate_requests - before.simulate_requests,
        // The `GET /metrics` that took `after` counts itself as JSON.
        after.codec_json - before.codec_json - 1,
        after.codec_bin - before.codec_bin,
        class_count(Class::Hot),
        class_count(Class::Warm),
        class_count(Class::Cold),
    ]);
    for (s, ok) in samples.iter().zip(correct) {
        acc.latencies.push(s.latency_ms);
        if !ok {
            acc.failed += 1;
        } else if s.latency_ms <= LIMIT_MS {
            acc.within_limit += 1;
        }
    }
    Ok(())
}

pub fn record_exact(out: &mut Outcome, rounds: &Rounds) {
    let names = [
        "round.server_simulate_requests",
        "round.server_codec_json",
        "round.server_codec_ptbw",
        "round.hot_requests",
        "round.warm_requests",
        "round.cold_requests",
    ];
    for (i, name) in names.iter().enumerate() {
        let v: Vec<u64> = rounds.per_round.iter().map(|r| r[i]).collect();
        out.exact(name, &v);
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut bench = Bench::new(args.seed, SETUP_REPS)?;
    let mut out = Outcome::default();
    let mut rounds = Rounds::default();
    let min = stats::min_samples_for(TAIL_Q);
    while (crate::Progress {
        passes: rounds.round_s.len(),
        timed_s: rounds.timed_s(),
        samples: rounds.latencies.len(),
    })
    .keep_going(args.seconds, 2, min)
    {
        measured_round(&mut bench, &mut rounds)?;
    }
    stop(bench.server);
    out.exact("setup.cache_misses", &bench.setup_misses);
    record_exact(&mut out, &rounds);
    out.attempted = rounds.attempted;
    out.failed = rounds.failed;
    let n = rounds.latencies.len();
    let (tail, beyond) = stats::percentile(&rounds.latencies, TAIL_Q);
    let timed = rounds.timed_s();
    out.metrics = vec![
        Metric::new(
            "setup_s",
            stats::median(&bench.setup_s),
            "s",
            bench.setup_s.len(),
        )
        .note("median of server start + one request per hot and warm key"),
        Metric::new(
            "pass_s",
            stats::median(&rounds.round_s),
            "s",
            rounds.round_s.len(),
        )
        .note(format!(
            "one round: {PER_ROUND} requests over {} connections",
            bench.conns
        )),
        Metric::new(
            "peak_rss_mb",
            host::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
            1,
        ),
        Metric::new(
            "throughput_rps",
            (rounds.attempted - rounds.failed) as f64 / timed,
            "1/s",
            n,
        )
        .note("correct requests per second"),
        Metric::new("latency_p50_ms", stats::median(&rounds.latencies), "ms", n),
        Metric::new("latency_tail_ms", tail, "ms", n)
            .note(format!("p{:.0}, {beyond} samples beyond", TAIL_Q * 100.0)),
        Metric::new(
            "slo_ratio",
            rounds.within_limit as f64 / rounds.attempted as f64,
            "ratio",
            n,
        )
        .note(format!("correct within {LIMIT_MS} ms")),
    ];
    Ok(out)
}
