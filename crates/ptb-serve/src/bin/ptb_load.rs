//! `ptb-load`: a closed-loop load generator and smoke checker for the
//! `ptb-serve` daemon.
//!
//! ```text
//! ptb-load --addr HOST:PORT --smoke
//! ptb-load --addr HOST:PORT --xcheck                # codec cross-equivalence probe
//! ptb-load --addr HOST:PORT --shutdown
//! ptb-load --addr HOST:PORT [--requests N] [--concurrency C]
//!          [--network NAME] [--policy LABEL] [--tw N]
//!          [--codec json|bin] [--keepalive]
//!          [--seed-mode unique|fixed] [--full] [--retries N] [--chaos]
//!          [--label TEXT]
//! ```
//!
//! Smoke mode drives `/healthz`, one quick `/simulate`, and `/metrics`,
//! checking each response; it exits nonzero on any failure (the CI
//! smoke stage runs this). `--xcheck` drives `/simulate` and a sync
//! `/sweep` through *both* codecs over one kept-alive connection —
//! including a pipelined pair — and exits nonzero unless the binary
//! responses decode to byte-identical JSON renderings of the JSON
//! responses (the cross-codec bit-identity contract of
//! `docs/PROTOCOL.md`). `--shutdown` POSTs the `/shutdown` admin
//! route and exits zero iff the daemon acknowledged it. Load mode runs
//! `C` closed-loop workers (each issues a request, waits for the full
//! response, repeats) until `N` total requests have completed, then
//! prints a JSON summary with throughput and latency percentiles to
//! stdout.
//!
//! `--codec bin` sends requests as binary `PTBW1` frames
//! (`Content-Type: application/x-ptbw`) instead of JSON; `--keepalive`
//! reuses one connection per worker instead of reconnecting per
//! request (reconnecting transparently when the server closes). The
//! 2×2 codec × connection matrix in `BENCH_serve.json` comes from
//! these two flags.
//!
//! Requests retry on connection errors and `503` with exponential
//! backoff and decorrelated jitter, honoring the server's `Retry-After`
//! header (`--retries 0` disables). `--chaos` makes each worker harass
//! the daemon before every real request — dropped connections, short
//! writes, garbage bytes, malformed binary frames — and demands
//! convergence anyway: the run exits nonzero unless *every* request
//! eventually succeeded through the retry loop.
//!
//! `--seed-mode unique` gives every request a distinct seed so each
//! one misses the server's activity cache ("cold"); `fixed` reuses one
//! seed so all but the first hit it ("warm"). Comparing the two
//! isolates what the shared cache buys under load; `BENCH_serve.json`
//! records exactly that comparison.
//!
//! The fleet and fault drills (cluster kill and saturation, the
//! governance soak, coordinator failover and fencing, crash recovery)
//! are integration tests: `crates/ptb-cluster/tests/fleet_drills.rs`,
//! `cluster_chaos.rs` and `cluster_roundtrip.rs`.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ptb_serve::client::{self, Connection, RetryPolicy};
use ptb_serve::wire;
use serde::Value;

struct LoadConfig {
    addr: SocketAddr,
    smoke: bool,
    xcheck: bool,
    shutdown: bool,
    requests: usize,
    concurrency: usize,
    network: String,
    policy: String,
    tw: u32,
    quick: bool,
    binary: bool,
    keepalive: bool,
    seed_unique: bool,
    retries: u32,
    chaos: bool,
    label: String,
}

fn main() {
    let cfg = parse_args();
    if cfg.shutdown {
        match client::request_json(cfg.addr, "POST", "/shutdown", "") {
            Ok((200, _)) => return,
            Ok((status, body)) => {
                eprintln!("shutdown answered {status}: {body}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if cfg.smoke {
        if let Err(msg) = run_smoke(&cfg) {
            eprintln!("smoke FAILED: {msg}");
            std::process::exit(1);
        }
        eprintln!("smoke OK");
        return;
    }
    if cfg.xcheck {
        if let Err(msg) = run_xcheck(&cfg) {
            eprintln!("xcheck FAILED: {msg}");
            std::process::exit(1);
        }
        eprintln!("xcheck OK");
        return;
    }
    run_load(&cfg);
}

fn parse_args() -> LoadConfig {
    let mut cfg = LoadConfig {
        addr: "127.0.0.1:7878"
            .parse()
            .expect("default address must parse"),
        smoke: false,
        xcheck: false,
        shutdown: false,
        requests: 16,
        concurrency: 4,
        network: "DVS-Gesture".into(),
        policy: "PTB+StSAP".into(),
        tw: 8,
        quick: true,
        binary: false,
        keepalive: false,
        seed_unique: false,
        retries: 5,
        chaos: false,
        label: String::new(),
    };
    if let Ok(addr) = std::env::var("PTB_ADDR") {
        cfg.addr = resolve_or_die(&addr);
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = resolve_or_die(&value("--addr")),
            "--smoke" => cfg.smoke = true,
            "--xcheck" => cfg.xcheck = true,
            "--shutdown" => cfg.shutdown = true,
            "--codec" => match value("--codec").as_str() {
                "json" => cfg.binary = false,
                "bin" => cfg.binary = true,
                other => {
                    eprintln!("error: --codec wants json|bin, got {other:?}");
                    std::process::exit(2);
                }
            },
            "--keepalive" => cfg.keepalive = true,
            "--requests" => cfg.requests = parse_or_die(&value("--requests"), "--requests").max(1),
            "--concurrency" => {
                cfg.concurrency = parse_or_die(&value("--concurrency"), "--concurrency").max(1);
            }
            "--network" => cfg.network = value("--network"),
            "--policy" => cfg.policy = value("--policy"),
            "--tw" => cfg.tw = parse_or_die(&value("--tw"), "--tw") as u32,
            "--full" => cfg.quick = false,
            "--seed-mode" => match value("--seed-mode").as_str() {
                "unique" => cfg.seed_unique = true,
                "fixed" => cfg.seed_unique = false,
                other => {
                    eprintln!("error: --seed-mode wants unique|fixed, got {other:?}");
                    std::process::exit(2);
                }
            },
            "--retries" => cfg.retries = parse_or_die(&value("--retries"), "--retries") as u32,
            "--chaos" => cfg.chaos = true,
            "--label" => cfg.label = value("--label"),
            "--help" | "-h" => {
                println!(
                    "usage: ptb-load [--addr HOST:PORT] (--smoke | --xcheck | --shutdown | \
                     [--requests N] [--concurrency C] [--network NAME] [--policy LABEL] \
                     [--tw N] [--codec json|bin] [--keepalive] \
                     [--seed-mode unique|fixed] [--full] [--retries N] \
                     [--chaos] [--label TEXT])"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    cfg
}

fn resolve_or_die(addr: &str) -> SocketAddr {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| {
            eprintln!("error: cannot resolve address {addr:?}");
            std::process::exit(2);
        })
}

fn parse_or_die(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} wants an integer, got {s:?}");
        std::process::exit(2);
    })
}

fn retry_policy(cfg: &LoadConfig, seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: cfg.retries,
        seed,
        ..RetryPolicy::default()
    }
}

fn simulate_body(cfg: &LoadConfig, seed: u64) -> String {
    format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tw\": {}, \"quick\": {}, \"seed\": {seed}}}",
        cfg.network, cfg.policy, cfg.tw, cfg.quick
    )
}

/// The same `/simulate` request as [`simulate_body`], as a binary
/// `PTBW1` frame.
fn simulate_frame(cfg: &LoadConfig, seed: u64) -> Vec<u8> {
    let request = Value::Object(vec![
        ("network".into(), Value::Str(cfg.network.clone())),
        ("policy".into(), Value::Str(cfg.policy.clone())),
        ("tw".into(), Value::U64(u64::from(cfg.tw))),
        ("quick".into(), Value::Bool(cfg.quick)),
        ("seed".into(), Value::U64(seed)),
    ]);
    wire::frame(wire::KIND_SIMULATE, &request)
}

/// The request body and `Content-Type` for this run's codec.
fn simulate_payload(cfg: &LoadConfig, seed: u64) -> (Vec<u8>, Option<&'static str>) {
    if cfg.binary {
        (simulate_frame(cfg, seed), Some(wire::CONTENT_TYPE))
    } else {
        (simulate_body(cfg, seed).into_bytes(), None)
    }
}

/// One request over a worker's kept-alive connection, (re)connecting
/// when none is open or the server closed the previous one.
fn keepalive_request(
    conn: &mut Option<Connection>,
    addr: SocketAddr,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> std::io::Result<client::ClientResponse> {
    if conn.is_none() {
        *conn = Some(Connection::open(addr)?);
    }
    let result =
        conn.as_mut()
            .expect("connection just opened")
            .request("POST", path, content_type, body);
    match &result {
        Ok(_) if conn.as_ref().is_some_and(|c| !c.server_closed()) => {}
        // Error or server-announced close: next request reconnects.
        _ => *conn = None,
    }
    result
}

/// Drives the core routes once each, verifying every response.
fn run_smoke(cfg: &LoadConfig) -> Result<(), String> {
    let (status, body) = client::request_json(cfg.addr, "GET", "/healthz", "")
        .map_err(|e| format!("/healthz: {e}"))?;
    if status != 200 || !body.contains("ok") {
        return Err(format!("/healthz answered {status}: {body}"));
    }

    let (status, body) =
        client::request_json(cfg.addr, "POST", "/simulate", &simulate_body(cfg, 42))
            .map_err(|e| format!("/simulate: {e}"))?;
    if status != 200 || !body.contains("\"layers\"") {
        return Err(format!("/simulate answered {status}: {body}"));
    }

    let sweep = format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": [1, {}], \"quick\": true}}",
        cfg.network, cfg.policy, cfg.tw
    );
    let (status, body) = client::request_json(cfg.addr, "POST", "/sweep", &sweep)
        .map_err(|e| format!("/sweep: {e}"))?;
    if status != 200 || !body.contains("\"edp\"") {
        return Err(format!("/sweep answered {status}: {body}"));
    }

    let (status, body) = client::request_json(cfg.addr, "GET", "/metrics", "")
        .map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 || !body.contains("\"endpoints\"") {
        return Err(format!("/metrics answered {status}: {body}"));
    }
    // The counters must reflect the traffic this smoke run just sent.
    if !body.contains("\"requests\": ") || body.contains("\"accepted\": 0,") {
        return Err(format!("/metrics counters look dead: {body}"));
    }
    // The audit counters must be exposed, and a healthy daemon shows
    // zero mismatches — any other value means a simulation diverged
    // from the reference model and smoke must fail loudly.
    if !body.contains("\"audit_mismatches\": 0,") {
        return Err(format!(
            "/metrics audit_mismatches missing or nonzero: {body}"
        ));
    }
    if !body.contains("\"acc_saturated\": ") {
        return Err(format!("/metrics is missing acc_saturated: {body}"));
    }
    Ok(())
}

/// The codec cross-equivalence probe: drives `/simulate` and a sync
/// `/sweep` through both codecs over one kept-alive connection
/// (including a pipelined pair) and demands that every binary response
/// decodes to a byte-identical JSON rendering of the JSON response.
fn run_xcheck(cfg: &LoadConfig) -> Result<(), String> {
    let mut conn = Connection::open(cfg.addr).map_err(|e| format!("connect: {e}"))?;
    // Tracks whether the whole probe really ran on reused connections;
    // the server may close under load, which reconnecting handles but
    // makes the reuse-counter assertion vacuous.
    let mut stayed_alive = true;
    let mut send = |conn: &mut Connection,
                    path: &str,
                    ctype: Option<&str>,
                    body: &[u8]|
     -> Result<client::ClientResponse, String> {
        let resp = match conn.request("POST", path, ctype, body) {
            Ok(resp) => resp,
            Err(e) => return Err(format!("{path}: {e}")),
        };
        if conn.server_closed() {
            stayed_alive = false;
            *conn = Connection::open(cfg.addr).map_err(|e| format!("reconnect: {e}"))?;
        }
        Ok(resp)
    };

    // /simulate through both codecs; same request, both on this
    // connection.
    let json = send(
        &mut conn,
        "/simulate",
        None,
        simulate_body(cfg, 42).as_bytes(),
    )?;
    if json.status != 200 {
        return Err(format!(
            "/simulate (json) answered {}: {}",
            json.status,
            String::from_utf8_lossy(&json.body)
        ));
    }
    let bin = send(
        &mut conn,
        "/simulate",
        Some(wire::CONTENT_TYPE),
        &simulate_frame(cfg, 42),
    )?;
    if bin.status != 200 {
        return Err(format!(
            "/simulate (bin) answered {}: {}",
            bin.status,
            String::from_utf8_lossy(&bin.body)
        ));
    }
    check_bit_identical("/simulate", wire::KIND_REPORT, &bin.body, &json.body)?;

    // A synchronous /sweep through both codecs.
    let sweep_json = format!(
        "{{\"network\": \"{}\", \"policy\": \"{}\", \"tws\": [1, {}], \"quick\": true, \"seed\": 42}}",
        cfg.network, cfg.policy, cfg.tw
    );
    let sweep_value = Value::Object(vec![
        ("network".into(), Value::Str(cfg.network.clone())),
        ("policy".into(), Value::Str(cfg.policy.clone())),
        (
            "tws".into(),
            Value::Array(vec![Value::U64(1), Value::U64(u64::from(cfg.tw))]),
        ),
        ("quick".into(), Value::Bool(true)),
        ("seed".into(), Value::U64(42)),
    ]);
    let json = send(&mut conn, "/sweep", None, sweep_json.as_bytes())?;
    if json.status != 200 {
        return Err(format!(
            "/sweep (json) answered {}: {}",
            json.status,
            String::from_utf8_lossy(&json.body)
        ));
    }
    let bin = send(
        &mut conn,
        "/sweep",
        Some(wire::CONTENT_TYPE),
        &wire::frame(wire::KIND_SWEEP, &sweep_value),
    )?;
    if bin.status != 200 {
        return Err(format!(
            "/sweep (bin) answered {}: {}",
            bin.status,
            String::from_utf8_lossy(&bin.body)
        ));
    }
    check_bit_identical("/sweep", wire::KIND_ROWS, &bin.body, &json.body)?;

    // A pipelined pair: both requests go out in ONE write (one segment
    // on loopback), so the server deterministically finds the second
    // already buffered when it finishes the first.
    conn.queue_request("GET", "/healthz", None, b"");
    conn.queue_request("GET", "/healthz", None, b"");
    conn.flush_queued()
        .map_err(|e| format!("pipelined write: {e}"))?;
    for i in 0..2 {
        let resp = conn
            .read_response()
            .map_err(|e| format!("pipelined response {i}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("pipelined /healthz {i} answered {}", resp.status));
        }
    }

    // The reuse and per-codec counters must have moved (unless the
    // server closed on us mid-probe, which makes them unprovable here).
    let (status, metrics) = client::request_json(cfg.addr, "GET", "/metrics", "")
        .map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    if metrics.contains("\"codec_bin\": 0,") {
        return Err(format!("codec_bin never counted: {metrics}"));
    }
    if stayed_alive {
        if metrics.contains("\"keepalive_reused\": 0,") {
            return Err(format!("connection reuse never counted: {metrics}"));
        }
        if metrics.contains("\"pipelined\": 0,") {
            return Err(format!("pipelined request never counted: {metrics}"));
        }
    }
    Ok(())
}

/// Asserts a binary response frame decodes to the same bytes the JSON
/// codec produced for the same request.
fn check_bit_identical(
    path: &str,
    expect_kind: u8,
    bin_body: &[u8],
    json_body: &[u8],
) -> Result<(), String> {
    let (kind, value) =
        wire::unframe(bin_body).map_err(|e| format!("{path}: bad response frame: {e}"))?;
    if kind != expect_kind {
        return Err(format!(
            "{path}: response kind {kind:#04x}, wanted {expect_kind:#04x}"
        ));
    }
    let rendered =
        serde_json::to_string(&value).map_err(|e| format!("{path}: render failed: {e}"))?;
    if rendered.as_bytes() != json_body {
        return Err(format!(
            "{path}: codecs diverged\n  json: {}\n  bin→json: {rendered}",
            String::from_utf8_lossy(json_body)
        ));
    }
    Ok(())
}

/// One chaos disruption: open a connection and misbehave — drop it
/// cold, send a short (truncated) write, or send garbage — exercising
/// the daemon's robustness right before a real request.
fn chaos_disrupt(addr: SocketAddr, draw: u64) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return; // daemon busy: that's the load test's problem, not ours
    };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    match draw % 4 {
        // Connect-and-drop: accepted, then EOF before any bytes.
        0 => {}
        // Short write: a valid head that promises more body than sent.
        1 => {
            let _ =
                stream.write_all(b"POST /simulate HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"ne");
        }
        // A well-framed HTTP request carrying a corrupt binary frame
        // (bad checksum): must come back as a clean 400 error.
        2 => {
            let mut frame = wire::frame(wire::KIND_SIMULATE, &Value::Null);
            let last = frame.len() - 1;
            frame[last] ^= 0xFF;
            let head = format!(
                "POST /simulate HTTP/1.1\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                wire::CONTENT_TYPE,
                frame.len()
            );
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(&frame);
        }
        // Garbage bytes.
        _ => {
            let _ = stream.write_all(b"\xff\xfe\x00 not http at all \x01\x02");
        }
    }
    drop(stream); // immediate close, whatever was (not) sent
}

/// Closed-loop load: `concurrency` workers issue requests until
/// `requests` total complete; prints a JSON summary. Under `--chaos`
/// every request is preceded by a disruption and the run demands
/// `ok == requests` (convergence through retries) to exit zero.
fn run_load(cfg: &LoadConfig) {
    let issued = AtomicUsize::new(0);
    let errors = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let latencies_us: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(cfg.requests));
    let started = Instant::now();

    std::thread::scope(|s| {
        for worker in 0..cfg.concurrency {
            let issued = &issued;
            let errors = &errors;
            let retried = &retried;
            let latencies_us = &latencies_us;
            s.spawn(move || {
                let policy = retry_policy(cfg, 0xC0FFEE ^ worker as u64);
                // Under --keepalive each worker holds one connection
                // across requests, reconnecting when the server closes.
                let mut conn: Option<Connection> = None;
                loop {
                    let i = issued.fetch_add(1, Ordering::Relaxed);
                    if i >= cfg.requests {
                        return;
                    }
                    if cfg.chaos {
                        chaos_disrupt(cfg.addr, (worker * 31 + i) as u64);
                    }
                    let seed = if cfg.seed_unique { 1000 + i as u64 } else { 42 };
                    let (body, ctype) = simulate_payload(cfg, seed);
                    let t0 = Instant::now();
                    let first = if cfg.keepalive {
                        keepalive_request(&mut conn, cfg.addr, "/simulate", ctype, &body)
                    } else {
                        client::request_typed(cfg.addr, "POST", "/simulate", ctype, &body)
                    };
                    let ok = match &first {
                        Ok(resp) if resp.status == 200 => true,
                        _ if cfg.retries > 0 => {
                            retried.fetch_add(1, Ordering::Relaxed);
                            matches!(
                                client::request_with_retry_typed(
                                    cfg.addr,
                                    "POST",
                                    "/simulate",
                                    ctype,
                                    &body,
                                    &policy,
                                ),
                                Ok(resp) if resp.status == 200
                            )
                        }
                        _ => false,
                    };
                    let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    if ok {
                        latencies_us
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(us);
                    } else {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let wall = started.elapsed().as_secs_f64();
    let mut lat = latencies_us
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    lat.sort_unstable();
    let pct = |q: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        let rank = ((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        lat[rank - 1]
    };
    let ok = lat.len();
    println!(
        "{{\"label\": \"{}\", \"requests\": {}, \"ok\": {ok}, \"errors\": {}, \
         \"retried\": {}, \"chaos\": {}, \
         \"codec\": \"{}\", \"keepalive\": {}, \
         \"concurrency\": {}, \"seed_mode\": \"{}\", \"wall_s\": {wall:.3}, \
         \"throughput_rps\": {:.3}, \"p50_us\": {}, \"p99_us\": {}}}",
        cfg.label,
        cfg.requests,
        errors.load(Ordering::Relaxed),
        retried.load(Ordering::Relaxed),
        cfg.chaos,
        if cfg.binary { "bin" } else { "json" },
        cfg.keepalive,
        cfg.concurrency,
        if cfg.seed_unique { "unique" } else { "fixed" },
        ok as f64 / wall.max(1e-9),
        pct(0.50),
        pct(0.99),
    );
    // Chaos demands convergence: every request must have gotten through.
    if ok == 0 || (cfg.chaos && ok != cfg.requests) {
        std::process::exit(1);
    }
    // And it demands integrity: whatever the disruptions did to the
    // daemon, no audited run may have diverged from the reference.
    if cfg.chaos {
        match client::request_json(cfg.addr, "GET", "/metrics", "") {
            Ok((200, body)) if body.contains("\"audit_mismatches\": 0,") => {}
            Ok((status, body)) => {
                eprintln!("chaos integrity check failed ({status}): {body}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("chaos integrity check could not read /metrics: {e}");
                std::process::exit(1);
            }
        }
    }
}
