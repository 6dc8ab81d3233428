//! The transport layer: a bounded job queue, a fixed worker pool, and
//! the HTTP connection loop that feeds the codec-independent
//! [`Engine`].
//!
//! ## Request lifecycle
//!
//! The acceptor thread owns the listening socket. Each accepted
//! connection becomes a `Work::Conn` item on the bounded queue (or is
//! answered `503` + `Retry-After` on the spot when the queue is full —
//! backpressure is explicit, never an unbounded buffer). A pool worker
//! dequeues the connection and serves it with `handle_conn`: read a
//! request, decode it in whichever codec the `Content-Type` negotiated
//! (JSON or binary `PTBW1`, see [`crate::wire`]), execute it on the
//! shared [`Engine`], render the [`Outcome`] back in the same codec,
//! and — under HTTP/1.1 keep-alive — loop for the next request on the
//! same connection. Leftover bytes stay buffered between requests
//! ([`crate::http::ConnReader`]), so clients may pipeline.
//!
//! The engine/transport split is strict: this module owns sockets,
//! framing, codecs, and the worker pool; [`crate::engine`] owns the
//! simulation state and produces codec-free [`Outcome`]s. Both codecs
//! render the same `Outcome`, which keeps responses bit-identical
//! across codecs (property-tested in `tests/codec_equivalence.rs`) and
//! makes a future cluster RPC a third renderer, not a rewrite. The
//! wire contract lives in `docs/PROTOCOL.md`.
//!
//! ## Keep-alive without starvation
//!
//! A kept-alive connection pins a worker, and the pool is bounded, so
//! the loop yields deliberately: the server closes (with
//! `Connection: close`) after an error response, after
//! [`MAX_REQUESTS_PER_CONN`] requests, at shutdown, and — the
//! starvation guard — whenever the connection has no pipelined bytes
//! buffered while other work sits queued. An idle reused connection is
//! dropped after [`KEEPALIVE_IDLE`].
//!
//! ## Sharded sweeps without deadlock
//!
//! `POST /sweep` fans its TW points out as `Work::Shard` items that
//! *other* workers can pick up, but the handling worker always claims
//! and runs shards itself too ([`SweepJob::run_shards_until`]). Shards
//! are claimed atomically, so the split adapts to whoever is free: on a
//! fully busy pool the handler simply runs the whole sweep alone, which
//! means a synchronous sweep can never deadlock waiting for workers
//! that are themselves waiting. Results merge by original index,
//! matching `ptb_bench::sweep_summary_cached` exactly.
//!
//! ## Fault tolerance
//!
//! Background jobs are journaled ([`crate::journal::JobJournal`]) when
//! a job directory is configured, and [`Server::start`] replays the
//! journal so a crashed daemon resumes unfinished jobs (see
//! [`Engine::replay_journal`]). Workers run every dequeued item under
//! `catch_unwind`: a panicking handler answers `500`, a panicking shard
//! fails its job, and either way the worker survives
//! (`panics_contained` in `/metrics`). Deadlines are checked at dequeue
//! and between sweep shards; expiry answers `503` + `Retry-After`.
//! `POST /shutdown` drains gracefully: queued work completes, new
//! pushes fail.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ptb_accel::audit::AuditLevel;
use ptb_bench::cache::parse_bytes_env;
use ptb_bench::sync::{lock_recover, wait_recover};
use ptb_bench::{ActivityCache, CacheBudget, CacheMode};
use serde::Value;

use crate::api;
use crate::engine::{Engine, Outcome, RETRY_AFTER_SECS};
use crate::http::{
    self, Codec, ConnReader, Request, RequestError, Response, KEEPALIVE_IDLE, MAX_REQUESTS_PER_CONN,
};
use crate::jobs::{panic_message, JobRegistry, JobState, SweepJob};
use crate::journal::JobJournal;
use crate::metrics::Metrics;
use crate::wire;

/// Server configuration; see [`ServerConfig::from_env`] for the
/// environment knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878`; port 0 binds an ephemeral
    /// port (read it back from [`Server::addr`]).
    pub addr: String,
    /// Worker threads handling requests and sweep shards.
    pub workers: usize,
    /// Maximum queued work items before new connections get `503`.
    pub queue_cap: usize,
    /// Cache mode for the shared [`ActivityCache`].
    pub cache: CacheMode,
    /// Directory for the durable job journal; `None` disables
    /// persistence (background jobs then live only in memory). The
    /// daemon defaults to `results/.jobs` via [`ServerConfig::from_env`];
    /// embedded/test servers opt in explicitly.
    pub job_dir: Option<PathBuf>,
    /// Default per-request deadline in milliseconds, measured from
    /// enqueue; `None` means no deadline. Requests may override with
    /// their own `deadline_ms`.
    pub deadline_ms: Option<u64>,
    /// Default audit level for every run ([`AuditLevel::Off`] unless
    /// `PTB_VERIFY` says otherwise); requests may override with their
    /// own `verify` field. Findings fail the response or job and count
    /// in `/metrics` (`audit_mismatches`, `acc_saturated`).
    pub verify: AuditLevel,
    /// Directory of the disk cache store (only used in
    /// [`CacheMode::Disk`]); defaults to `results/.cache`.
    pub cache_dir: PathBuf,
    /// Byte budgets bounding the shared cache
    /// (`PTB_CACHE_MEM_BYTES` / `PTB_CACHE_DISK_BYTES`).
    pub cache_budget: CacheBudget,
    /// Admission watermark (`PTB_MEM_WATERMARK_BYTES`): heavy requests
    /// are shed with `503` while the cache's resident bytes exceed it.
    pub mem_watermark: Option<u64>,
    /// How long terminal jobs (and their journal/quarantine files) are
    /// retained before GC (`PTB_JOB_RETAIN`, seconds).
    pub job_retain: Duration,
    /// Byte budget for the journal directory (`PTB_JOB_DIR_BYTES`).
    pub job_dir_bytes: Option<u64>,
}

/// Default retention for terminal jobs and their durable files.
pub const DEFAULT_JOB_RETAIN: Duration = Duration::from_secs(600);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2),
            queue_cap: 64,
            cache: CacheMode::Mem,
            job_dir: None,
            deadline_ms: None,
            verify: AuditLevel::Off,
            cache_dir: PathBuf::from("results/.cache"),
            cache_budget: CacheBudget::unlimited(),
            mem_watermark: None,
            job_retain: DEFAULT_JOB_RETAIN,
            job_dir_bytes: None,
        }
    }
}

impl ServerConfig {
    /// Reads `PTB_ADDR` (bind address, default `127.0.0.1:7878`),
    /// `PTB_WORKERS` (pool size, default `max(2, cores)`),
    /// `PTB_QUEUE_CAP` (queue bound, default 64), `PTB_CACHE`
    /// (shared cache mode, default `mem`), `PTB_JOB_DIR` (job journal
    /// directory, default `results/.jobs`; `off`/`none`/empty disables),
    /// `PTB_DEADLINE_MS` (default request deadline; `0` or unset means
    /// none), and `PTB_VERIFY` (default audit level, `off`).
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(addr) = std::env::var("PTB_ADDR") {
            cfg.addr = addr;
        }
        if let Some(n) = std::env::var("PTB_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            cfg.workers = n.max(1);
        }
        if let Some(n) = std::env::var("PTB_QUEUE_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            cfg.queue_cap = n.max(1);
        }
        cfg.cache = CacheMode::from_env();
        cfg.job_dir = match std::env::var("PTB_JOB_DIR") {
            Ok(dir) => match dir.trim() {
                "" | "off" | "none" => None,
                other => Some(PathBuf::from(other)),
            },
            Err(_) => Some(PathBuf::from("results/.jobs")),
        };
        cfg.deadline_ms = std::env::var("PTB_DEADLINE_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0);
        cfg.verify = AuditLevel::from_env();
        if let Ok(dir) = std::env::var("PTB_CACHE_DIR") {
            if !dir.trim().is_empty() {
                cfg.cache_dir = PathBuf::from(dir);
            }
        }
        cfg.cache_budget = CacheBudget::from_env();
        cfg.mem_watermark = parse_bytes_env("PTB_MEM_WATERMARK_BYTES");
        cfg.job_retain = match std::env::var("PTB_JOB_RETAIN") {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "" => DEFAULT_JOB_RETAIN,
                // Effectively forever: the pre-retention behavior.
                "off" | "none" => Duration::from_secs(u64::MAX),
                secs => match secs.parse::<u64>() {
                    Ok(n) => Duration::from_secs(n),
                    Err(_) => {
                        eprintln!("warning: unparseable PTB_JOB_RETAIN={v:?}; using default");
                        DEFAULT_JOB_RETAIN
                    }
                },
            },
            Err(_) => DEFAULT_JOB_RETAIN,
        };
        cfg.job_dir_bytes = parse_bytes_env("PTB_JOB_DIR_BYTES");
        cfg
    }
}

/// A unit of work for the pool.
enum Work {
    /// An accepted connection with requests to read, stamped with its
    /// enqueue time so deadlines cover queue wait.
    Conn(TcpStream, Instant),
    /// A sweep with unclaimed shards; the worker claims until dry.
    Shard(Arc<SweepJob>),
}

/// The bounded MPMC work queue.
struct Queue {
    items: Mutex<(VecDeque<Work>, bool)>, // (queue, closed)
    cv: Condvar,
    cap: usize,
}

impl Queue {
    fn new(cap: usize) -> Self {
        Queue {
            items: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Enqueues unless full or closed; on rejection the item is handed
    /// back so the caller can respond to (or drop) it.
    fn push(&self, work: Work) -> Result<(), Work> {
        let mut guard = lock_recover(&self.items);
        if guard.1 || guard.0.len() >= self.cap {
            return Err(work);
        }
        guard.0.push_back(work);
        drop(guard);
        self.cv.notify_one();
        Ok(())
    }

    /// Dequeues, blocking. `None` once the queue is closed and drained.
    fn pop(&self) -> Option<Work> {
        let mut guard = lock_recover(&self.items);
        loop {
            if let Some(work) = guard.0.pop_front() {
                return Some(work);
            }
            if guard.1 {
                return None;
            }
            guard = wait_recover(&self.cv, guard);
        }
    }

    /// Closes the queue: queued work still drains, new pushes fail, and
    /// idle workers wake to exit.
    fn close(&self) {
        lock_recover(&self.items).1 = true;
        self.cv.notify_all();
    }

    fn len(&self) -> usize {
        lock_recover(&self.items).0.len()
    }
}

/// State shared by the acceptor, every worker, and the handlers: the
/// codec-independent [`Engine`] plus the transport's own queue and
/// lifecycle flags.
struct Shared {
    engine: Engine,
    queue: Queue,
    workers: usize,
    shutdown: AtomicBool,
    /// Process-start nonce echoed on `/healthz`: a fleet prober that
    /// sees it change knows the worker *restarted* (losing its
    /// in-memory cache and epoch watermark) rather than merely
    /// answering a slow probe. Never zero — zero is the prober's
    /// "not yet known" sentinel.
    generation: u64,
    /// Highest dispatch epoch this worker has seen on a `/sweep`
    /// request. Dispatches carrying a *lower* epoch are from a deposed
    /// (zombie) coordinator and are rejected with `409` — fencing at
    /// the worker boundary, see `docs/PROTOCOL.md` §7.
    epoch_seen: AtomicU64,
}

/// A running server; dropping it does *not* stop the threads — call
/// [`Server::join`] after a shutdown request, or send `POST /shutdown`.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, replays the job journal (when configured), and starts the
    /// acceptor and worker threads. Unfinished journaled jobs are
    /// re-registered under their original ids and their remaining
    /// shards offered to the pool.
    pub fn start(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let journal = cfg
            .job_dir
            .as_deref()
            .map(|dir| Arc::new(JobJournal::new(dir)));
        let shared = Arc::new(Shared {
            engine: Engine {
                cache: ActivityCache::with_budget(cfg.cache, &cfg.cache_dir, cfg.cache_budget),
                metrics: Metrics::default(),
                jobs: JobRegistry::default(),
                journal,
                deadline: cfg.deadline_ms.map(Duration::from_millis),
                verify: cfg.verify,
                report_memo: Mutex::new(HashMap::new()),
                mem_watermark: cfg.mem_watermark,
                job_retain: cfg.job_retain,
                job_dir_bytes: cfg.job_dir_bytes,
            },
            queue: Queue::new(cfg.queue_cap),
            workers: cfg.workers,
            shutdown: AtomicBool::new(false),
            generation: start_generation(),
            epoch_seen: AtomicU64::new(0),
        });

        // Replay before any thread starts: the queue absorbs resumed
        // shards, and the workers pick them up the moment they spawn.
        shared
            .engine
            .replay_journal(|job| shared.queue.push(Work::Shard(job)).is_ok());

        let mut threads = Vec::with_capacity(cfg.workers + 2);
        let accept_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("ptb-accept".into())
                .spawn(move || accept_loop(listener, &accept_shared))
                .expect("spawn acceptor"),
        );
        let gc_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("ptb-gc".into())
                .spawn(move || gc_loop(&gc_shared))
                .expect("spawn gc"),
        );
        for i in 0..cfg.workers {
            let worker_shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ptb-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared))
                    .expect("spawn worker"),
            );
        }
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown from within the process (equivalent to
    /// `POST /shutdown`).
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared, self.addr);
    }

    /// Waits for every thread to exit (after a shutdown request).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// The process-start generation nonce: wall-clock nanoseconds XOR the
/// pid, forced odd so it can never be zero (the prober's "unknown"
/// sentinel). Two starts of the same worker address collide only if
/// they land on the same nanosecond with the same pid.
fn start_generation() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    (nanos ^ (u64::from(std::process::id()) << 32)) | 1
}

/// Flags shutdown and unblocks the acceptor with a wake-up connection.
fn trigger_shutdown(shared: &Shared, addr: SocketAddr) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // The acceptor blocks in accept(); a throwaway connection wakes it
    // so it can observe the flag. Errors don't matter: if the connect
    // fails the listener is already gone.
    let _ = TcpStream::connect(addr);
    shared.queue.close();
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared
            .engine
            .metrics
            .accepted
            .fetch_add(1, Ordering::Relaxed);
        http::configure_accepted(&stream);
        if let Err(Work::Conn(rejected, _)) = shared.queue.push(Work::Conn(stream, Instant::now()))
        {
            shared
                .engine
                .metrics
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            shed_connection(rejected);
        }
    }
    shared.queue.close();
}

/// Sheds one accepted connection with a 503 without provoking a TCP
/// reset. The client has usually written its whole request by the time
/// the queue-full check fires; closing the socket with those bytes
/// unread makes the kernel answer with RST, which can destroy the
/// in-flight 503 before the client reads it. Draining what has arrived,
/// answering, then half-closing lets the connection end in a clean FIN
/// and the client reliably observe the `Retry-After`. Reads are bounded
/// to ~20 ms apiece so a slow-loris client cannot pin the acceptor.
fn shed_connection(mut stream: std::net::TcpStream) {
    use std::io::Read;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut scratch = [0u8; 4096];
    // Small requests arrive whole before accept returns; one read
    // usually drains everything the client will ever send.
    let _ = stream.read(&mut scratch);
    Response::unavailable("work queue is full, try again later", RETRY_AFTER_SECS)
        .write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Wait out the client reading the 503 (EOF, trailing bytes, or the
    // 20 ms timeout — whichever ends first, a few rounds at most).
    for _ in 0..4 {
        if !matches!(stream.read(&mut scratch), Ok(n) if n > 0) {
            break;
        }
    }
}

/// How often the GC thread runs a retention pass.
const GC_TICK: Duration = Duration::from_millis(500);

/// The resource-governance loop: one [`Engine::gc`] pass per
/// [`GC_TICK`], polling the shutdown flag between short sleeps so
/// `join` never waits out a full tick.
fn gc_loop(shared: &Shared) {
    let mut last = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        if last.elapsed() >= GC_TICK {
            shared.engine.gc();
            last = Instant::now();
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(work) = shared.queue.pop() {
        // Containment boundary: nothing a request or shard does may
        // take the worker (and with it the daemon) down. Shard panics
        // are already absorbed inside `run_shards_until`; this guards
        // the handlers and the `worker_dequeue` failpoint itself.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = ptb_bench::failpoint!("worker_dequeue");
            match work {
                Work::Conn(stream, enqueued) => handle_conn(shared, &stream, enqueued),
                Work::Shard(job) => {
                    job.run_shards_until(&shared.engine.cache, None, Some(&shared.engine.metrics));
                }
            }
        }));
        if caught.is_err() {
            shared
                .engine
                .metrics
                .panics_contained
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serves one connection until it closes: the keep-alive loop.
///
/// Reads (`&TcpStream` is `Read`) go through a [`ConnReader`] so bytes
/// past the current request stay buffered for the next one
/// (pipelining); writes go straight to the stream. The first request
/// keeps the accept-time [`http::READ_TIMEOUT`]; subsequent requests get the
/// shorter [`KEEPALIVE_IDLE`] budget. Deadlines measured from enqueue
/// apply to the *first* request only — later requests on the
/// connection never waited in the accept queue, so their deadline
/// starts when they are read.
fn handle_conn(shared: &Shared, stream: &TcpStream, enqueued: Instant) {
    let mut reader = ConnReader::new(stream);
    let mut served: usize = 0;
    loop {
        let had_buffered = reader.buffered() > 0;
        let reads_before = reader.socket_reads();
        let request = match reader.read_request() {
            Ok(r) => r,
            Err(RequestError::Idle) => return, // clean end between requests
            Err(e) => {
                shared
                    .engine
                    .metrics
                    .bad_requests
                    .fetch_add(1, Ordering::Relaxed);
                Response::error(e.status(), &e.detail()).write_to(&mut &*stream);
                return;
            }
        };
        let metrics = &shared.engine.metrics;
        if served > 0 {
            metrics.keepalive_reused.fetch_add(1, Ordering::Relaxed);
            if had_buffered && reader.socket_reads() == reads_before {
                // The whole request was already buffered when the last
                // response went out: the client wrote ahead.
                metrics.pipelined.fetch_add(1, Ordering::Relaxed);
            }
        }
        match request.codec {
            Codec::Json => metrics.codec_json.fetch_add(1, Ordering::Relaxed),
            Codec::Binary => metrics.codec_bin.fetch_add(1, Ordering::Relaxed),
        };

        // Deadline check at dequeue: a request that waited out its
        // budget in the queue is shed before any simulation work
        // starts. Only the first request ever waited there.
        let req_enqueued = if served == 0 {
            enqueued
        } else {
            Instant::now()
        };
        let expired_in_queue = served == 0
            && shared
                .engine
                .deadline
                .is_some_and(|deadline| enqueued.elapsed() >= deadline);
        let started = Instant::now();
        let (endpoint, mut response) = if expired_in_queue {
            metrics.deadline_expired.fetch_add(1, Ordering::Relaxed);
            let deadline_ms = shared.engine.deadline.unwrap_or_default().as_millis();
            let outcome = Outcome::Error {
                status: 503,
                detail: format!("deadline ({deadline_ms} ms) expired in queue"),
                retry_after: Some(RETRY_AFTER_SECS),
                audit: None,
            };
            (Endpoint::Admin, render(&outcome, request.codec))
        } else {
            match catch_unwind(AssertUnwindSafe(|| route(shared, &request, req_enqueued))) {
                Ok(r) => r,
                Err(payload) => {
                    metrics.panics_contained.fetch_add(1, Ordering::Relaxed);
                    (
                        Endpoint::Admin,
                        Response::error(
                            500,
                            &format!("handler panicked: {}", panic_message(&payload)),
                        ),
                    )
                }
            }
        };
        served += 1;

        // Close policy: the client asked; or the request errored (4xx
        // responses often follow framing damage, so resynchronize); or
        // the per-connection cap or shutdown hit; or — the starvation
        // guard — this connection has nothing more buffered while other
        // work waits for a worker.
        let close = !request.keep_alive
            || response.status >= 400
            || served >= MAX_REQUESTS_PER_CONN
            || shared.shutdown.load(Ordering::SeqCst)
            || (reader.buffered() == 0 && shared.queue.len() > 0);
        response.close = close;
        let endpoint_metrics = match endpoint {
            Endpoint::Simulate => &metrics.simulate,
            Endpoint::Sweep => &metrics.sweep,
            Endpoint::Jobs => &metrics.jobs,
            Endpoint::Admin => &metrics.admin,
        };
        endpoint_metrics.record(response.status, started.elapsed());
        response.write_to(&mut &*stream);
        // /shutdown responds first, then stops the world.
        if endpoint == Endpoint::Admin && request.path == "/shutdown" && response.status == 200 {
            if let Ok(addr) = stream.local_addr() {
                trigger_shutdown(shared, addr);
            }
            return;
        }
        if close {
            return;
        }
        // Later requests on a healthy connection get the idle budget.
        let _ = stream.set_read_timeout(Some(KEEPALIVE_IDLE));
    }
}

/// Which metrics bucket a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Simulate,
    Sweep,
    Jobs,
    Admin,
}

/// Routes one request: decode in the negotiated codec, execute on the
/// engine, render the outcome back in the same codec. The GET admin
/// routes (`/jobs`, `/healthz`, `/metrics`) are JSON-only — the binary
/// codec rides on POST bodies (see `docs/PROTOCOL.md`).
fn route(shared: &Shared, req: &Request, enqueued: Instant) -> (Endpoint, Response) {
    // Admission control guards only the heavy POST routes; everything
    // below this match — health, metrics, job polls — is the fast path
    // overload must never starve.
    let admit = || {
        shared
            .engine
            .admit_heavy((shared.queue.len(), shared.queue.cap))
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/simulate") => {
            let outcome = match admit() {
                Err(shed) => shed,
                Ok(()) => match decode_request::<api::SimulateRequest>(req, wire::KIND_SIMULATE) {
                    Ok(r) => shared.engine.simulate(&r),
                    Err(bad) => bad,
                },
            };
            (Endpoint::Simulate, render(&outcome, req.codec))
        }
        ("POST", "/sweep") => {
            let outcome = match admit() {
                Err(shed) => shed,
                Ok(()) => match decode_request::<api::SweepRequest>(req, wire::KIND_SWEEP) {
                    Ok(r) => match check_epoch(shared, r.epoch) {
                        Err(fenced) => fenced,
                        Ok(()) => shared
                            .engine
                            .sweep(&r, enqueued, &|job| offer_shards(shared, job)),
                    },
                    Err(bad) => bad,
                },
            };
            (Endpoint::Sweep, render(&outcome, req.codec))
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            (Endpoint::Jobs, handle_job_poll(shared, path))
        }
        ("GET", "/healthz") => (
            Endpoint::Admin,
            // Besides liveness, the body carries the process-start
            // generation (so a prober can tell "restarted and cold"
            // from "same process, slow") and the highest dispatch
            // epoch seen (the fencing watermark).
            Response::json(format!(
                "{{\"status\": \"ok\", \"generation\": {}, \"epoch\": {}}}",
                shared.generation,
                shared.epoch_seen.load(Ordering::SeqCst),
            )),
        ),
        ("GET", "/metrics") => (Endpoint::Admin, handle_metrics(shared)),
        ("POST", "/shutdown") => (
            Endpoint::Admin,
            Response::json("{\"status\": \"shutting down\"}".into()),
        ),
        (_, "/simulate" | "/sweep" | "/healthz" | "/metrics" | "/shutdown") => (
            Endpoint::Admin,
            Response::error(405, &format!("method {} not allowed here", req.method)),
        ),
        _ => (
            Endpoint::Admin,
            Response::error(404, &format!("no route {} {}", req.method, req.path)),
        ),
    }
}

/// Zombie fencing at the worker boundary: a `/sweep` dispatch carrying
/// an `epoch` below the highest this worker has seen is from a deposed
/// coordinator — reject it with `409` and the current epoch in the
/// detail, *before* any simulation work runs. Equal or higher epochs
/// ratchet the watermark up (CAS-max; concurrent dispatches race
/// safely). Requests without an epoch (direct clients, pre-HA
/// coordinators) are never fenced.
fn check_epoch(shared: &Shared, epoch: Option<u64>) -> Result<(), Outcome> {
    let Some(e) = epoch else { return Ok(()) };
    let mut seen = shared.epoch_seen.load(Ordering::SeqCst);
    loop {
        if e < seen {
            shared.engine.metrics.fenced.fetch_add(1, Ordering::Relaxed);
            return Err(Outcome::Error {
                status: 409,
                detail: format!(
                    "dispatch epoch {e} is stale: this worker has seen epoch {seen}; \
                     the dispatching coordinator is fenced"
                ),
                retry_after: None,
                audit: None,
            });
        }
        match shared
            .epoch_seen
            .compare_exchange(seen, e, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => return Ok(()),
            Err(cur) => seen = cur,
        }
    }
}

/// Decodes a request body in its negotiated codec into the typed
/// request `T`. Binary bodies must be a well-formed `PTBW1` frame of
/// the endpoint's request `kind`; both codecs then build `T` from the
/// same `Value` tree, so validation downstream is codec-blind. Public
/// so the cluster coordinator decodes — and therefore rejects —
/// exactly as a worker would.
pub fn decode_request<T: serde::Deserialize>(req: &Request, kind: u8) -> Result<T, Outcome> {
    match req.codec {
        Codec::Json => {
            let text = std::str::from_utf8(&req.body)
                .map_err(|_| Outcome::bad_request("request body is not UTF-8"))?;
            serde_json::from_str(text)
                .map_err(|e| Outcome::bad_request(format!("bad request body: {e}")))
        }
        Codec::Binary => {
            let (got, value) = wire::unframe(&req.body)
                .map_err(|e| Outcome::bad_request(format!("bad PTBW1 frame: {e}")))?;
            if got != kind {
                return Err(Outcome::bad_request(format!(
                    "unexpected message kind {got:#04x} (this endpoint takes {kind:#04x})"
                )));
            }
            serde_json::from_value(&value)
                .map_err(|e| Outcome::bad_request(format!("bad request body: {e}")))
        }
    }
}

/// Renders an engine outcome in the connection's codec. One `Outcome`,
/// two byte layouts — this is the whole difference between the codecs.
/// Public so the cluster coordinator is a *third caller* of the same
/// renderer: a cluster response is byte-identical to a single-node one
/// because both are this function over the same `Outcome`.
pub fn render(outcome: &Outcome, codec: Codec) -> Response {
    match codec {
        Codec::Json => render_json(outcome),
        Codec::Binary => render_bin(outcome),
    }
}

fn render_json(outcome: &Outcome) -> Response {
    match outcome {
        Outcome::Report(memo) => {
            match memo.json_body(|report| serde_json::to_string(report).ok()) {
                Some(json) => Response::json(json.to_owned()),
                None => Response::error(500, "report serialization failed"),
            }
        }
        Outcome::Rows(rows) => match serde_json::to_string(rows) {
            Ok(json) => Response::json(json),
            Err(_) => Response::error(500, "sweep serialization failed"),
        },
        Outcome::Accepted { id, total } => {
            let mut resp = Response::json(format!("{{\"job\": {id}, \"total\": {total}}}"));
            resp.status = 202;
            resp
        }
        Outcome::Error {
            status,
            detail,
            retry_after,
            audit,
        } => {
            let mut resp = match audit {
                // A verified run diverged: serve the findings alongside
                // the error, never the untrustworthy numbers.
                Some(findings) => {
                    let detail_json = serde_json::to_string(detail).expect("string serialization");
                    let audit_json =
                        serde_json::to_string(findings).unwrap_or_else(|_| "null".into());
                    Response::json(format!(
                        "{{\"error\": {detail_json}, \"audit\": {audit_json}}}"
                    ))
                }
                None => Response::error(*status, detail),
            };
            resp.status = *status;
            resp.retry_after = *retry_after;
            resp
        }
    }
}

fn render_bin(outcome: &Outcome) -> Response {
    let (status, body, retry_after) = match outcome {
        Outcome::Report(memo) => (
            200,
            memo.ptbw_body(|report| wire::response_frame(wire::KIND_REPORT, report))
                .to_vec(),
            None,
        ),
        Outcome::Rows(rows) => (200, wire::response_frame(wire::KIND_ROWS, rows), None),
        Outcome::Accepted { id, total } => {
            let ack = Value::Object(vec![
                ("job".into(), Value::U64(*id)),
                ("total".into(), Value::U64(*total as u64)),
            ]);
            (202, wire::frame(wire::KIND_JOB_ACK, &ack), None)
        }
        Outcome::Error {
            status,
            detail,
            retry_after,
            audit,
        } => (
            *status,
            wire::error_frame(*status, detail, audit.as_ref()),
            *retry_after,
        ),
    };
    Response {
        status,
        content_type: wire::CONTENT_TYPE,
        body,
        retry_after,
        location: None,
        close: true,
    }
}

/// Offers a job's shards to idle workers: one queue item per extra
/// worker that could plausibly help. Items that don't fit (queue full)
/// are simply not offered — claiming keeps correctness independent of
/// who shows up. Returns how many items were enqueued.
fn offer_shards(shared: &Shared, job: &Arc<SweepJob>) -> usize {
    let helpers = shared.workers.saturating_sub(1).min(job.tws.len());
    let mut offered = 0;
    for _ in 0..helpers {
        if shared.queue.push(Work::Shard(Arc::clone(job))).is_err() {
            break;
        }
        offered += 1;
    }
    offered
}

fn handle_job_poll(shared: &Shared, path: &str) -> Response {
    let id_str = &path["/jobs/".len()..];
    let Ok(id) = id_str.parse::<u64>() else {
        return Response::error(400, &format!("malformed job id {id_str:?}"));
    };
    let Some(job) = shared.engine.jobs.get(id) else {
        // Distinguish "expired by retention" from "never existed":
        // clients that held a valid id learn their results are gone for
        // good (`gone: true`) rather than suspecting a routing bug.
        // See docs/PROTOCOL.md.
        if shared.engine.jobs.is_gone(id) {
            let mut resp = Response::json(format!(
                "{{\"error\": \"job {id} expired (retention)\", \"gone\": true}}"
            ));
            resp.status = 404;
            return resp;
        }
        return Response::error(404, &format!("no job {id}"));
    };
    job_poll_response(id, &job)
}

/// Renders the `GET /jobs/{id}` body for a job. Public for the same
/// reason as [`render`]: the coordinator's job polls go through this
/// exact formatter, so cluster poll responses are byte-identical to a
/// worker's.
pub fn job_poll_response(id: u64, job: &SweepJob) -> Response {
    let completed = job.completed();
    let total = job.tws.len();
    // Always present: all-zeros when the job ran unverified, findings
    // (typed, with first-divergence coordinates) when the audit fired.
    let audit = serde_json::to_string(&job.audit()).unwrap_or_else(|_| "null".into());
    match job.state() {
        JobState::Failed { reason } => Response::json(format!(
            "{{\"id\": {id}, \"done\": false, \"failed\": true, \"error\": {}, \
             \"completed\": {completed}, \"total\": {total}, \"audit\": {audit}}}",
            serde_json::to_string(&reason).expect("string serialization"),
        )),
        JobState::Done => match job.rows().map(|r| serde_json::to_string(&r)) {
            Some(Ok(json)) => Response::json(format!(
                "{{\"id\": {id}, \"done\": true, \"failed\": false, \
                 \"completed\": {completed}, \"total\": {total}, \
                 \"audit\": {audit}, \"rows\": {json}}}"
            )),
            _ => Response::error(500, "row serialization failed"),
        },
        JobState::Running => Response::json(format!(
            "{{\"id\": {id}, \"done\": false, \"failed\": false, \
             \"completed\": {completed}, \"total\": {total}, \"audit\": {audit}}}"
        )),
    }
}

fn handle_metrics(shared: &Shared) -> Response {
    let m = &shared.engine.metrics;
    let cache = shared.engine.cache.stats();
    let (journal, journal_dir_bytes) = match &shared.engine.journal {
        Some(j) => {
            let s = j.stats();
            (
                format!(
                    "{{\"appends\": {}, \"append_errors\": {}, \"journal_recovered\": {}, \
                     \"journal_discarded\": {}, \"reloaded_jobs\": {}, \"resumed_jobs\": {}, \
                     \"replayed_shards\": {}, \"gc_removed\": {}}}",
                    s.appends,
                    s.append_errors,
                    s.recovered,
                    s.discarded,
                    s.reloaded_jobs,
                    s.resumed_jobs,
                    s.replayed_shards,
                    s.gc_removed,
                ),
                s.dir_bytes,
            )
        }
        None => ("null".into(), 0),
    };
    Response::json(format!(
        "{{\"accepted\": {}, \"rejected_queue_full\": {}, \"bad_requests\": {}, \
         \"panics_contained\": {}, \"deadline_expired\": {}, \
         \"audit_mismatches\": {}, \"acc_saturated\": {}, \
         \"codec_json\": {}, \"codec_bin\": {}, \
         \"keepalive_reused\": {}, \"pipelined\": {}, \
         \"report_memo_hits\": {}, \"verify\": \"{}\", \
         \"queue_depth\": {}, \"workers\": {}, \
         \"admission_shed\": {}, \"jobs_expired\": {}, \
         \"fenced\": {}, \"epoch_seen\": {}, \"generation\": {}, \
         \"cache_mem_bytes\": {}, \"cache_evictions\": {}, \
         \"disk_cache_bytes\": {}, \"journal_dir_bytes\": {journal_dir_bytes}, \
         \"cache\": {{\"mem_hits\": {}, \"disk_hits\": {}, \"misses\": {}, \"coalesced\": {}}}, \
         \"journal\": {journal}, \
         \"endpoints\": {{\"simulate\": {}, \"sweep\": {}, \"jobs\": {}, \"admin\": {}}}}}",
        m.accepted.load(Ordering::Relaxed),
        m.rejected_queue_full.load(Ordering::Relaxed),
        m.bad_requests.load(Ordering::Relaxed),
        m.panics_contained.load(Ordering::Relaxed),
        m.deadline_expired.load(Ordering::Relaxed),
        m.audit_mismatches.load(Ordering::Relaxed),
        m.acc_saturated.load(Ordering::Relaxed),
        m.codec_json.load(Ordering::Relaxed),
        m.codec_bin.load(Ordering::Relaxed),
        m.keepalive_reused.load(Ordering::Relaxed),
        m.pipelined.load(Ordering::Relaxed),
        m.report_memo_hits.load(Ordering::Relaxed),
        shared.engine.verify.label(),
        shared.queue.len(),
        shared.workers,
        m.admission_shed.load(Ordering::Relaxed),
        m.jobs_expired.load(Ordering::Relaxed),
        m.fenced.load(Ordering::Relaxed),
        shared.epoch_seen.load(Ordering::SeqCst),
        shared.generation,
        cache.mem_bytes,
        cache.evictions + cache.disk_evictions,
        cache.disk_bytes,
        cache.mem_hits,
        cache.disk_hits,
        cache.misses,
        cache.coalesced,
        m.simulate.to_json(),
        m.sweep.to_json(),
        m.jobs.to_json(),
        m.admin.to_json(),
    ))
}
