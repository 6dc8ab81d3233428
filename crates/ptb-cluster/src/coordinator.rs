//! The coordinator daemon: the same HTTP API as a single `ptb-serve`
//! worker, executed by a fleet of them.
//!
//! ## Topology
//!
//! One coordinator fronts `N` worker `ptb-serve` daemons. Clients speak
//! the unchanged `/simulate`, `/sweep`, and `/jobs/{id}` API (either
//! codec) to the coordinator; the coordinator executes nothing itself —
//! it shards sweeps by TW point and dispatches each shard as a
//! one-point binary `PTBW1` `/sweep` to a worker over the keep-alive
//! [`Connection`] client. `GET /cluster` reports the topology and
//! `GET /metrics` the dispatch counters ([`crate::metrics`]).
//!
//! ## Placement and reclaim
//!
//! Shards are placed by consistent hashing ([`crate::placement`]) keyed
//! on [`ptb_bench::shard_key`] — a pure function of the activity a
//! shard generates — so repeats of a workload land on the worker whose
//! `ActivityCache` is already hot. Liveness ([`crate::fleet`]) is fed
//! by `/healthz` probes and by dispatch I/O errors; when a worker dies,
//! [`Ring::owner_among`] with the liveness filter *is* the ring without
//! that worker, so its shards — and only its shards — flow to the
//! next-clockwise live owner. There is no separate reclaim protocol:
//! every dispatcher claims from a shared board only the pending shards
//! the filtered ring currently assigns to it, so a death (or a revival)
//! re-partitions the remaining work automatically.
//!
//! ## Durability
//!
//! Background sweeps journal through the same `PTBJNL1`
//! [`JobJournal`] as a worker, in the coordinator's own directory:
//! `submit`, advisory `dispatch` records naming the worker each shard
//! went to, `shard` rows as workers return them, and `done`. A
//! `kill -9`ed coordinator therefore resumes mid-sweep on restart —
//! completed rows load from disk and only the remainder is
//! re-dispatched. Rows are *not* recomputed at replay (the coordinator
//! has no engine); they were produced, and optionally audited, by
//! workers.
//!
//! ## Byte identity
//!
//! A cluster response is byte-identical to a single node's by
//! construction, not by luck: requests decode through
//! [`ptb_serve::server::decode_request`], validation runs the same
//! checks in the same order as `Engine::sweep` (so every 422 matches),
//! rows merge by original shard index exactly as
//! `ptb_bench::merge_shards` orders them, and responses render through
//! [`ptb_serve::server::render`] / [`job_poll_response`] — the same
//! formatters a worker uses, over the same [`Outcome`].
//!
//! ## High availability
//!
//! A *standby* coordinator (`--standby --peer ACTIVE`) serves no client
//! traffic; it tails the active's journals over `GET /journal/tail`
//! (index form lists `{id, bytes}` per journal; cursor form streams raw
//! `PTBJNL1` bytes from an offset) into its own journal directory, so
//! its on-disk state is always a byte-prefix of the active's. When the
//! active goes silent for longer than the lease (`PTB_LEASE_MS` /
//! `--lease-ms`), the standby *promotes*: it persists a higher **epoch**
//! (a monotonic counter in the `epoch` file beside the journals,
//! incremented before any dispatch) and then replays the mirrored
//! journals through the exact boot path — adopted rows verbatim,
//! un-dispatched shards re-placed via the liveness-filtered ring.
//!
//! Every shard dispatch carries the coordinator's epoch; workers
//! remember the highest epoch seen and answer `409` to anything lower.
//! A deposed active that was merely paused (not dead) is therefore
//! *fenced at the worker boundary* — its first post-lease dispatch
//! bounces, it demotes itself, and from then on it answers client
//! routes with `307` + the new active's address (learned from the
//! standby's `?peer=` announcements while it was tailing). Split-brain
//! can waste duplicate shard computation, but it cannot corrupt a sweep
//! or double-count a shard: rows merge idempotently by index, and only
//! the highest-epoch dispatch record per shard survives replay. See
//! `docs/PROTOCOL.md` §7.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ptb_accel::audit::AuditLevel;
use ptb_bench::sync::{lock_recover, wait_timeout_recover};
use ptb_bench::{shard_key, SweepRow};
use ptb_serve::api;
use ptb_serve::client::{self, Connection, RetryPolicy};
use ptb_serve::engine::{run_options, Outcome};
use ptb_serve::http::{
    self, ConnReader, Request, RequestError, Response, KEEPALIVE_IDLE, MAX_REQUESTS_PER_CONN,
};
use ptb_serve::jobs::{panic_message, JobRegistry, JobState, SweepJob};
use ptb_serve::journal::{read_epoch, write_epoch, JobJournal, ReplayedJob};
use ptb_serve::metrics::Histogram;
use ptb_serve::server::{decode_request, job_poll_response, render};
use ptb_serve::wire;
use serde::{Serialize, Value};

use crate::fleet::Fleet;
use crate::metrics::ClusterMetrics;
use crate::placement::{Ring, VNODES};

/// Give up on a shard after this many dispatch attempts across the
/// whole fleet (each failed attempt re-queues the shard and backs off
/// with decorrelated jitter). Generous: hitting it means every retry
/// and every failover failed, which is a fleet outage, not a blip.
pub const MAX_SHARD_ATTEMPTS: u32 = 16;

/// Attempts (across failovers) to place one proxied `/simulate` before
/// answering 503.
const SIMULATE_ATTEMPTS: usize = 8;

/// Coordinator configuration; see [`ClusterConfig::from_env`] for the
/// environment knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bind address, e.g. `127.0.0.1:7979`; port 0 binds an ephemeral
    /// port (read it back from [`Coordinator::addr`]).
    pub addr: String,
    /// Worker daemon addresses (`HOST:PORT`). Fixed for the
    /// coordinator's lifetime; consistent hashing makes restarts with a
    /// different fleet cheap.
    pub workers: Vec<String>,
    /// Directory for the coordinator's own dispatch journal; `None`
    /// disables persistence. The daemon defaults to
    /// `results/.cluster-jobs` via [`ClusterConfig::from_env`] — a
    /// different directory than a co-located worker's `results/.jobs`,
    /// so the two never replay each other's files.
    pub job_dir: Option<PathBuf>,
    /// Default deadline for synchronous requests, in milliseconds;
    /// `None` means no deadline. Requests may override with their own
    /// `deadline_ms`.
    pub deadline_ms: Option<u64>,
    /// Default audit level forwarded to workers when a request doesn't
    /// carry its own `verify`.
    pub verify: AuditLevel,
    /// Pause between `/healthz` probe rounds, in milliseconds.
    pub probe_interval_ms: u64,
    /// Connect/read/write timeout for one probe attempt, in
    /// milliseconds.
    pub probe_timeout_ms: u64,
    /// Probe attempts per worker per round before the round counts as a
    /// failure (attempts are separated by jittered backoff).
    pub probe_retries: u32,
    /// End-to-end timeout for one shard dispatch (connect + worker
    /// compute + response), in milliseconds. A hung worker surfaces as
    /// a dispatch error — and a reclaim — after this long.
    pub dispatch_timeout_ms: u64,
    /// Consecutive transport failures before a worker is declared dead
    /// ([`Fleet`] hysteresis).
    pub fail_threshold: u32,
    /// Leadership lease, in milliseconds: a standby that cannot reach
    /// the active's `/journal/tail` for this long promotes itself.
    /// Symmetrically, it is how long a paused active can keep believing
    /// it leads — its first dispatch after a successor promoted gets
    /// fenced with a `409`.
    pub lease_ms: u64,
    /// Boot as a hot standby: tail `peer`'s journals, serve `307`
    /// redirects to clients, and promote when the lease lapses.
    /// Requires a journal directory (the mirror target) and `peer`.
    pub standby: bool,
    /// The active coordinator's `HOST:PORT`, required with `standby`.
    pub peer: Option<String>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            addr: "127.0.0.1:7979".into(),
            workers: Vec::new(),
            job_dir: None,
            deadline_ms: None,
            verify: AuditLevel::Off,
            probe_interval_ms: 500,
            probe_timeout_ms: 1000,
            probe_retries: 2,
            dispatch_timeout_ms: 600_000,
            fail_threshold: 2,
            lease_ms: 1500,
            standby: false,
            peer: None,
        }
    }
}

impl ClusterConfig {
    /// Reads `PTB_ADDR` (bind address, default `127.0.0.1:7979`),
    /// `PTB_CLUSTER_WORKERS` (comma-separated worker `HOST:PORT` list),
    /// `PTB_JOB_DIR` (dispatch journal directory, default
    /// `results/.cluster-jobs`; `off`/`none`/empty disables),
    /// `PTB_DEADLINE_MS` (default sync deadline; `0` or unset means
    /// none), `PTB_VERIFY` (default audit level), `PTB_PROBE_MS`
    /// (probe round interval, default 500), `PTB_PROBE_TIMEOUT_MS`
    /// (per-attempt timeout, default 1000), `PTB_PROBE_RETRIES`
    /// (attempts per round, default 2), `PTB_DISPATCH_TIMEOUT_MS`
    /// (per-shard timeout, default 600000), `PTB_FAIL_THRESHOLD`
    /// (consecutive failures before death, default 2), and
    /// `PTB_LEASE_MS` (leadership lease, default 1500). Standby mode is
    /// CLI-only (`--standby --peer`), not an environment knob.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(addr) = std::env::var("PTB_ADDR") {
            cfg.addr = addr;
        }
        if let Ok(list) = std::env::var("PTB_CLUSTER_WORKERS") {
            cfg.workers = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect();
        }
        cfg.job_dir = match std::env::var("PTB_JOB_DIR") {
            Ok(dir) => match dir.trim() {
                "" | "off" | "none" => None,
                other => Some(PathBuf::from(other)),
            },
            Err(_) => Some(PathBuf::from("results/.cluster-jobs")),
        };
        cfg.deadline_ms = std::env::var("PTB_DEADLINE_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0);
        cfg.verify = AuditLevel::from_env();
        let ms = |name: &str, default: u64| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(default)
        };
        cfg.probe_interval_ms = ms("PTB_PROBE_MS", cfg.probe_interval_ms).max(1);
        cfg.probe_timeout_ms = ms("PTB_PROBE_TIMEOUT_MS", cfg.probe_timeout_ms).max(1);
        cfg.probe_retries = ms("PTB_PROBE_RETRIES", u64::from(cfg.probe_retries)).max(1) as u32;
        cfg.dispatch_timeout_ms = ms("PTB_DISPATCH_TIMEOUT_MS", cfg.dispatch_timeout_ms).max(1);
        cfg.fail_threshold = ms("PTB_FAIL_THRESHOLD", u64::from(cfg.fail_threshold)).max(1) as u32;
        cfg.lease_ms = ms("PTB_LEASE_MS", cfg.lease_ms).max(1);
        cfg
    }
}

/// State shared by the acceptor, connection handlers, dispatchers, and
/// the prober.
struct Shared {
    fleet: Fleet,
    ring: Ring,
    jobs: JobRegistry,
    journal: Option<Arc<JobJournal>>,
    metrics: ClusterMetrics,
    verify: AuditLevel,
    deadline: Option<Duration>,
    dispatch_timeout: Duration,
    probe_timeout: Duration,
    probe_interval: Duration,
    probe_retries: u32,
    shutdown: AtomicBool,
    self_addr: SocketAddr,
    /// This coordinator's leadership epoch. An active stamps it on
    /// every dispatch; a standby holds 0 until promotion. Persisted in
    /// the `epoch` file beside the journals *before* any dispatch can
    /// carry it.
    epoch: AtomicU64,
    /// Whether this coordinator currently dispatches. `false` for a
    /// standby (until promotion) and for a fenced ex-active; client
    /// routes answer `307`/`503` while it is `false`.
    leader: AtomicBool,
    /// Where to `307` clients while not the leader: the configured
    /// `peer` on a standby, or the last standby that announced itself
    /// via `GET /journal/tail?peer=` on a (possibly later demoted)
    /// active.
    redirect_to: Mutex<Option<String>>,
    /// Leadership lease duration.
    lease: Duration,
    /// The journal directory (for epoch persistence at promotion).
    job_dir: Option<PathBuf>,
    /// The active's address, when booted as a standby.
    peer: Option<String>,
}

/// A running coordinator; dropping it does *not* stop the threads —
/// call [`Coordinator::shutdown`] then [`Coordinator::join`], or POST
/// `/shutdown`.
pub struct Coordinator {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Binds, replays the dispatch journal (when configured), and
    /// starts the acceptor and prober threads. Unfinished journaled
    /// sweeps resume immediately: their completed rows load from disk
    /// and dispatchers re-dispatch the remainder.
    ///
    /// An active coordinator claims a fresh epoch (persisted `+ 1`)
    /// before its first dispatch. A standby (`cfg.standby`) instead
    /// holds epoch 0, skips replay, and starts the tail/promotion loop;
    /// it requires both a journal directory and a `peer`.
    pub fn start(cfg: &ClusterConfig) -> std::io::Result<Coordinator> {
        if cfg.standby && cfg.job_dir.is_none() {
            return Err(std::io::Error::other(
                "standby mode needs a journal directory to mirror into (unset PTB_JOB_DIR=off)",
            ));
        }
        if cfg.standby && cfg.peer.is_none() {
            return Err(std::io::Error::other(
                "standby mode needs the active coordinator's address (--peer HOST:PORT)",
            ));
        }
        let fleet = Fleet::new(&cfg.workers, cfg.fail_threshold).map_err(std::io::Error::other)?;
        let ring = Ring::new(&cfg.workers);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let journal = cfg
            .job_dir
            .as_ref()
            .map(|dir| Arc::new(JobJournal::new(dir)));
        let metrics = ClusterMetrics::new(fleet.len());
        // Claim the epoch before anything can dispatch: a restarted
        // active must outrank every dispatch its predecessor persisted.
        let epoch = if cfg.standby {
            0
        } else {
            match &cfg.job_dir {
                Some(dir) => {
                    let next = read_epoch(dir) + 1;
                    write_epoch(dir, next)?;
                    next
                }
                None => 1,
            }
        };
        let shared = Arc::new(Shared {
            fleet,
            ring,
            jobs: JobRegistry::default(),
            journal,
            metrics,
            verify: cfg.verify,
            deadline: cfg
                .deadline_ms
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
            dispatch_timeout: Duration::from_millis(cfg.dispatch_timeout_ms.max(1)),
            probe_timeout: Duration::from_millis(cfg.probe_timeout_ms.max(1)),
            probe_interval: Duration::from_millis(cfg.probe_interval_ms.max(1)),
            probe_retries: cfg.probe_retries.max(1),
            shutdown: AtomicBool::new(false),
            self_addr: addr,
            epoch: AtomicU64::new(epoch),
            leader: AtomicBool::new(!cfg.standby),
            redirect_to: Mutex::new(cfg.peer.clone()),
            lease: Duration::from_millis(cfg.lease_ms.max(1)),
            job_dir: cfg.job_dir.clone(),
            peer: cfg.peer.clone(),
        });
        if !cfg.standby {
            replay_journal(&shared);
        }
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("ptb-cluster-accept".into())
                    .spawn(move || accept_loop(listener, shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("ptb-cluster-probe".into())
                    .spawn(move || prober_loop(&shared))?,
            );
        }
        if cfg.standby {
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("ptb-cluster-standby".into())
                    .spawn(move || standby_loop(&shared))?,
            );
        }
        Ok(Coordinator {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator's live metrics (tests assert on these without a
    /// `/metrics` round trip).
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.shared.metrics
    }

    /// This coordinator's current leadership epoch (0 on a standby that
    /// has not promoted).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Whether this coordinator currently dispatches (an active that
    /// has not been fenced, or a promoted standby).
    pub fn is_leader(&self) -> bool {
        self.shared.leader.load(Ordering::SeqCst)
    }

    /// Triggers shutdown: running dispatchers fail their jobs, the
    /// acceptor and prober exit.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Waits for the acceptor and prober to exit (after
    /// [`Coordinator::shutdown`] or a `/shutdown` POST). Detached
    /// per-connection and dispatcher threads wind down on their own.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Sets the shutdown flag and pokes the listener so `accept` returns.
fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = TcpStream::connect_timeout(&shared.self_addr, Duration::from_millis(250));
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        http::configure_accepted(&stream);
        let shared = Arc::clone(&shared);
        // Thread-per-connection, no bounded queue: unlike a worker, the
        // coordinator does no simulation — its handlers block on
        // network I/O to the fleet, so pinning a compute pool behind a
        // queue would only add a starvation problem to solve.
        let _ = thread::Builder::new()
            .name("ptb-cluster-conn".into())
            .spawn(move || handle_conn(&shared, &stream));
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

/// Serves one connection until it closes: the worker's keep-alive loop
/// minus the starvation guard (there is no worker pool to starve).
fn handle_conn(shared: &Arc<Shared>, stream: &TcpStream) {
    let mut reader = ConnReader::new(stream);
    let mut served: usize = 0;
    loop {
        let request = match reader.read_request() {
            Ok(r) => r,
            Err(RequestError::Idle) => return,
            Err(e) => {
                Response::error(e.status(), &e.detail()).write_to(&mut &*stream);
                return;
            }
        };
        let started = Instant::now();
        let (endpoint, mut response) =
            match catch_unwind(AssertUnwindSafe(|| route(shared, &request, started))) {
                Ok(r) => r,
                Err(payload) => (
                    Endpoint::Admin,
                    Response::error(
                        500,
                        &format!("handler panicked: {}", panic_message(&payload)),
                    ),
                ),
            };
        served += 1;
        let close = !request.keep_alive
            || response.status >= 400
            || served >= MAX_REQUESTS_PER_CONN
            || shared.shutdown.load(Ordering::SeqCst);
        response.close = close;
        let endpoint_metrics = match endpoint {
            Endpoint::Simulate => &shared.metrics.simulate,
            Endpoint::Sweep => &shared.metrics.sweep,
            Endpoint::Jobs => &shared.metrics.jobs,
            Endpoint::Admin => &shared.metrics.admin,
        };
        endpoint_metrics.record(response.status, started.elapsed());
        response.write_to(&mut &*stream);
        if endpoint == Endpoint::Admin && request.path == "/shutdown" && response.status == 200 {
            trigger_shutdown(shared);
            return;
        }
        if close {
            return;
        }
        let _ = stream.set_read_timeout(Some(KEEPALIVE_IDLE));
    }
}

/// Routes one request. Paths, error strings, and codecs all match the
/// worker's `route` exactly, plus the coordinator-only `GET /cluster`
/// and `GET /journal/tail`.
///
/// Client routes (`/sweep`, `/simulate`, `/jobs/*`) are gated on
/// leadership: a standby or a fenced ex-active answers `307` with the
/// active's address in `Location` (or `503` when it knows no active).
/// Introspection (`/healthz`, `/metrics`, `/cluster`), `/shutdown`, and
/// `/journal/tail` are always served locally — a standby must stay
/// observable, and the tail route is how standbys sync.
fn route(shared: &Arc<Shared>, req: &Request, enqueued: Instant) -> (Endpoint, Response) {
    if !shared.leader.load(Ordering::SeqCst) {
        let endpoint = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/sweep") => Some(Endpoint::Sweep),
            ("POST", "/simulate") => Some(Endpoint::Simulate),
            ("GET", path) if path.starts_with("/jobs/") => Some(Endpoint::Jobs),
            _ => None,
        };
        if let Some(endpoint) = endpoint {
            let response = match lock_recover(&shared.redirect_to).clone() {
                Some(target) => Response::redirect(&target),
                None => Response::error(503, "not the active coordinator; no active is known"),
            };
            return (endpoint, response);
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/sweep") => {
            let outcome = match decode_request::<api::SweepRequest>(req, wire::KIND_SWEEP) {
                Ok(r) => cluster_sweep(shared, &r, enqueued),
                Err(bad) => bad,
            };
            (Endpoint::Sweep, render(&outcome, req.codec))
        }
        ("POST", "/simulate") => {
            let response = match decode_request::<api::SimulateRequest>(req, wire::KIND_SIMULATE) {
                Ok(r) => proxy_simulate(shared, req, &r),
                Err(bad) => render(&bad, req.codec),
            };
            (Endpoint::Simulate, response)
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            (Endpoint::Jobs, handle_job_poll(shared, path))
        }
        ("GET", "/healthz") => (
            Endpoint::Admin,
            Response::json(format!(
                "{{\"status\": \"ok\", \"role\": \"{}\", \"epoch\": {}}}",
                if shared.leader.load(Ordering::SeqCst) {
                    "active"
                } else {
                    "standby"
                },
                shared.epoch.load(Ordering::SeqCst)
            )),
        ),
        ("GET", path) if path == "/journal/tail" || path.starts_with("/journal/tail?") => {
            (Endpoint::Admin, handle_journal_tail(shared, path))
        }
        ("GET", "/cluster") => (Endpoint::Admin, handle_cluster(shared)),
        ("GET", "/metrics") => (Endpoint::Admin, handle_metrics(shared)),
        ("POST", "/shutdown") => (
            Endpoint::Admin,
            Response::json("{\"status\": \"shutting down\"}".into()),
        ),
        (
            _,
            "/simulate" | "/sweep" | "/healthz" | "/metrics" | "/shutdown" | "/cluster"
            | "/journal/tail",
        ) => (
            Endpoint::Admin,
            Response::error(405, &format!("method {} not allowed here", req.method)),
        ),
        _ => (
            Endpoint::Admin,
            Response::error(404, &format!("no route {} {}", req.method, req.path)),
        ),
    }
}

/// `POST /sweep` on the cluster: validates exactly as `Engine::sweep`
/// (same checks, same order, so every 422 is byte-identical), then
/// fans shards across the fleet instead of a local pool. The terminal
/// outcomes — rows, deadline 503, failure 500 — use the worker's
/// strings verbatim.
fn cluster_sweep(shared: &Arc<Shared>, req: &api::SweepRequest, enqueued: Instant) -> Outcome {
    let spec = match api::resolve_network(&req.network) {
        Ok(s) => s,
        Err(e) => return Outcome::invalid(e),
    };
    if let Err(e) = api::validate_tws(&req.tws) {
        return Outcome::invalid(e);
    }
    let verify = match api::validate_verify(req.verify.as_deref(), shared.verify) {
        Ok(v) => v,
        Err(e) => return Outcome::invalid(e),
    };
    let quick = req.quick.unwrap_or(false);
    let opts = run_options(req.quick, req.seed, verify);
    let seed = opts.seed;
    let deadline = effective_deadline(shared, req.deadline_ms, enqueued);
    if shared.fleet.alive_count() == 0 {
        return Outcome::unavailable("no live workers");
    }

    if req.background.unwrap_or(false) {
        // Durable path, same record discipline as a worker: id first so
        // the journal file name is final, register, journal the
        // submission before any dispatch records can append.
        let id = shared.jobs.reserve_id();
        let mut job = SweepJob::new(spec, req.policy.0, req.tws.clone(), opts);
        if let Some(journal) = &shared.journal {
            job = job.with_journal(Arc::clone(journal), id);
        }
        let job = Arc::new(job);
        if !shared.jobs.insert(id, Arc::clone(&job)) {
            return Outcome::unavailable("job registry is full");
        }
        if let Some(journal) = &shared.journal {
            journal.log_submit(id, &job.spec, job.policy, &job.tws, quick, seed, verify);
        }
        let journal_id = shared.journal.is_some().then_some(id);
        spawn_dispatchers(shared, &job, journal_id, quick, &[]);
        return Outcome::Accepted {
            id,
            total: job.tws.len(),
        };
    }

    // Synchronous: dispatchers work the fleet while this handler waits.
    let job = Arc::new(SweepJob::new(spec, req.policy.0, req.tws.clone(), opts));
    spawn_dispatchers(shared, &job, None, quick, &[]);
    let terminal = match deadline {
        Some(d) => job.wait_until(d),
        None => {
            job.wait();
            true
        }
    };
    if !terminal {
        return Outcome::unavailable(format!(
            "deadline expired with {}/{} shards complete",
            job.completed(),
            job.tws.len()
        ));
    }
    if let Some(reason) = job.failed() {
        let audit = job.audit();
        return Outcome::Error {
            status: 500,
            detail: format!("sweep failed: {reason}"),
            retry_after: None,
            audit: (!audit.is_clean()).then(|| audit.to_value()),
        };
    }
    match job.rows() {
        Some(rows) => Outcome::Rows(rows),
        None => Outcome::Error {
            status: 500,
            detail: "sweep neither completed nor failed".into(),
            retry_after: None,
            audit: None,
        },
    }
}

/// A request's effective deadline: its own `deadline_ms` wins, else the
/// coordinator default; measured from when the request was read.
fn effective_deadline(
    shared: &Shared,
    request_ms: Option<u64>,
    enqueued: Instant,
) -> Option<Instant> {
    request_ms
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
        .or(shared.deadline)
        .map(|d| enqueued + d)
}

/// `POST /simulate`: validated locally (so 422s match a worker's
/// byte-for-byte without a network round trip), then proxied verbatim —
/// original body, original codec — to the ring owner of the request's
/// shard key, failing over around dead workers.
fn proxy_simulate(shared: &Shared, req: &Request, sim: &api::SimulateRequest) -> Response {
    let spec = match api::resolve_network(&sim.network) {
        Ok(s) => s,
        Err(e) => return render(&Outcome::invalid(e), req.codec),
    };
    if let Err(e) = api::validate_tw(sim.tw) {
        return render(&Outcome::invalid(e), req.codec);
    }
    if let Err(e) = api::validate_verify(sim.verify.as_deref(), shared.verify) {
        return render(&Outcome::invalid(e), req.codec);
    }
    let quick = sim.quick.unwrap_or(false);
    let opts = run_options(sim.quick, sim.seed, shared.verify);
    let key = shard_key(&spec, quick, opts.seed, sim.tw);
    for _ in 0..SIMULATE_ATTEMPTS {
        let Some(owner) = shared.ring.owner_among(key, |w| shared.fleet.is_alive(w)) else {
            break;
        };
        match client::request_typed_timeout(
            shared.fleet.sock(owner),
            "POST",
            "/simulate",
            Some(req.codec.content_type()),
            &req.body,
            shared.dispatch_timeout,
        ) {
            Ok(resp) => {
                shared
                    .metrics
                    .proxied_simulate
                    .fetch_add(1, Ordering::Relaxed);
                shared.fleet.mark_success(owner);
                return Response {
                    status: resp.status,
                    content_type: req.codec.content_type(),
                    body: resp.body,
                    retry_after: resp.retry_after,
                    location: None,
                    close: false,
                };
            }
            Err(_) => {
                shared
                    .metrics
                    .dispatch_failures
                    .fetch_add(1, Ordering::Relaxed);
                if shared.fleet.mark_failure(owner) {
                    shared.metrics.worker_deaths.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    render(&Outcome::unavailable("no live workers"), req.codec)
}

/// `GET /jobs/{id}`: the worker's error strings and poll formatter,
/// over the coordinator's registry.
fn handle_job_poll(shared: &Shared, path: &str) -> Response {
    let id_str = &path["/jobs/".len()..];
    let Ok(id) = id_str.parse::<u64>() else {
        return Response::error(400, &format!("malformed job id {id_str:?}"));
    };
    let Some(job) = shared.jobs.get(id) else {
        return Response::error(404, &format!("no job {id}"));
    };
    job_poll_response(id, &job)
}

/// `GET /cluster`: the topology — who the workers are, who is alive,
/// and the ring geometry.
fn handle_cluster(shared: &Shared) -> Response {
    let workers: Vec<String> = shared
        .fleet
        .statuses()
        .iter()
        .map(|w| {
            format!(
                "{{\"addr\": {}, \"alive\": {}}}",
                serde_json::to_string(w.addr.as_str()).expect("string serialization"),
                w.alive
            )
        })
        .collect();
    Response::json(format!(
        "{{\"coordinator\": {}, \"vnodes\": {}, \"alive\": {}, \"workers\": [{}]}}",
        serde_json::to_string(shared.self_addr.to_string().as_str()).expect("string serialization"),
        VNODES,
        shared.fleet.alive_count(),
        workers.join(", ")
    ))
}

/// One query parameter's (decoded-as-is) value from a request path.
fn query_param<'a>(path: &'a str, key: &str) -> Option<&'a str> {
    let (_, query) = path.split_once('?')?;
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key && !v.is_empty()).then_some(v)
    })
}

/// `GET /journal/tail`: the standby replication route. The index form
/// (no `job` parameter) answers `{"epoch", "leader", "journals":
/// [{"id", "bytes"}...]}`; the cursor form (`?job=ID&from=OFFSET`)
/// streams the raw `PTBJNL1` bytes of that journal from the offset.
/// Because journals are append-only, a mirror that pulls `from` its own
/// length is always a byte-prefix of the source — at worst the final
/// record is torn mid-pull, which replay's salvage already handles.
/// A standby announces itself with `?peer=HOST:PORT` on the index form;
/// the active remembers the last announcer as its redirect target for
/// after a demotion. Failpoint `coordinator_pause` freezes the index
/// form (503), simulating a partitioned/paused active without killing
/// the process — the fencing CI stage arms it with a fire-after count.
fn handle_journal_tail(shared: &Shared, path: &str) -> Response {
    let Some(journal) = &shared.journal else {
        return Response::error(404, "this coordinator has no journal directory");
    };
    if let Some(job) = query_param(path, "job") {
        let Ok(id) = job.parse::<u64>() else {
            return Response::error(400, &format!("malformed job id {job:?}"));
        };
        let from = query_param(path, "from")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        return match journal.read_from(id, from) {
            Ok(bytes) => Response {
                status: 200,
                content_type: "application/octet-stream",
                body: bytes,
                retry_after: None,
                location: None,
                close: false,
            },
            Err(e) => Response::error(404, &format!("no journal for job {id}: {e}")),
        };
    }
    if ptb_bench::failpoint!("coordinator_pause").is_err() {
        return Response::error(503, "coordinator paused (failpoint coordinator_pause)");
    }
    if let Some(peer) = query_param(path, "peer") {
        *lock_recover(&shared.redirect_to) = Some(peer.to_string());
    }
    let journals: Vec<String> = journal
        .tail_index()
        .iter()
        .map(|(id, bytes)| format!("{{\"id\": {id}, \"bytes\": {bytes}}}"))
        .collect();
    Response::json(format!(
        "{{\"epoch\": {}, \"leader\": {}, \"journals\": [{}]}}",
        shared.epoch.load(Ordering::SeqCst),
        shared.leader.load(Ordering::SeqCst),
        journals.join(", ")
    ))
}

/// `GET /metrics`: fleet counters, per-worker dispatch latency
/// quantiles, journal stats, and per-endpoint request counters.
fn handle_metrics(shared: &Shared) -> Response {
    let m = &shared.metrics;
    let quantile = |h: &Histogram, q: f64| {
        h.quantile_us(q)
            .map_or_else(|| "null".to_string(), |v| v.to_string())
    };
    let workers: Vec<String> = shared
        .fleet
        .statuses()
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let wm = &m.per_worker[i];
            format!(
                "{{\"addr\": {}, \"alive\": {}, \"dispatched\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}}}",
                serde_json::to_string(w.addr.as_str()).expect("string serialization"),
                w.alive,
                wm.dispatched.load(Ordering::Relaxed),
                quantile(&wm.latency, 0.5),
                quantile(&wm.latency, 0.99),
            )
        })
        .collect();
    let journal = match &shared.journal {
        Some(j) => {
            let s = j.stats();
            format!(
                "{{\"appends\": {}, \"append_errors\": {}, \"journal_recovered\": {}, \
                 \"journal_discarded\": {}, \"reloaded_jobs\": {}, \"resumed_jobs\": {}, \
                 \"replayed_shards\": {}}}",
                s.appends,
                s.append_errors,
                s.recovered,
                s.discarded,
                s.reloaded_jobs,
                s.resumed_jobs,
                s.replayed_shards
            )
        }
        None => "null".into(),
    };
    Response::json(format!(
        "{{\"shards_dispatched\": {}, \"shards_reclaimed\": {}, \"worker_deaths\": {}, \
         \"probe_failures\": {}, \"dispatch_failures\": {}, \"backpressure_redispatch\": {}, \
         \"proxied_simulate\": {}, \"worker_restarts\": {}, \"fenced_dispatches\": {}, \
         \"audit_mismatches\": {}, \"epoch\": {}, \"leader\": {}, \
         \"workers\": [{}], \"journal\": {}, \
         \"endpoints\": {{\"simulate\": {}, \"sweep\": {}, \"jobs\": {}, \"admin\": {}}}}}",
        m.shards_dispatched.load(Ordering::Relaxed),
        m.shards_reclaimed.load(Ordering::Relaxed),
        m.worker_deaths.load(Ordering::Relaxed),
        m.probe_failures.load(Ordering::Relaxed),
        m.dispatch_failures.load(Ordering::Relaxed),
        m.backpressure_redispatch.load(Ordering::Relaxed),
        m.proxied_simulate.load(Ordering::Relaxed),
        m.worker_restarts.load(Ordering::Relaxed),
        m.fenced_dispatches.load(Ordering::Relaxed),
        m.audit_mismatches.load(Ordering::Relaxed),
        shared.epoch.load(Ordering::SeqCst),
        shared.leader.load(Ordering::SeqCst),
        workers.join(", "),
        journal,
        m.simulate.to_json(),
        m.sweep.to_json(),
        m.jobs.to_json(),
        m.admin.to_json(),
    ))
}

// ---------------------------------------------------------------------
// Dispatch: the shard board and per-worker dispatcher threads.
// ---------------------------------------------------------------------

/// Everything a dispatcher thread needs about one sweep.
struct Dispatch {
    job: Arc<SweepJob>,
    /// Journal id for `dispatch` records; `None` for unjournaled
    /// (synchronous) sweeps.
    journal_id: Option<u64>,
    quick: bool,
    /// `shard_key` per TW point, indexed like `job.tws`.
    keys: Vec<u64>,
    /// The network spec pre-serialized once; every shard request clones
    /// this tree instead of re-serializing the spec.
    spec_value: Value,
    board: Board,
}

/// The shared claim board for one sweep: which shards still need a
/// worker, how often each has been attempted, and who tried last (so a
/// claim by a *different* worker counts as a reclaim).
struct Board {
    state: Mutex<BoardState>,
    cv: Condvar,
}

struct BoardState {
    unclaimed: VecDeque<usize>,
    attempts: Vec<u32>,
    last: Vec<Option<usize>>,
    /// Consecutive backpressure (503) bounces per shard. At
    /// [`ROAM_AFTER_BUSY`] the shard "roams": any live worker may claim
    /// it, not just its ring owner — otherwise a single saturated owner
    /// could bounce its shards forever and the sweep would never end.
    busy: Vec<u32>,
}

/// Backpressure bounces before a shard opens up to non-owner workers.
const ROAM_AFTER_BUSY: u32 = 3;

impl Board {
    /// `pending` seeds the queue (everything for a fresh job, the
    /// unjournaled remainder for a resumed one); `last` carries the
    /// journal's dispatch map so a post-restart re-dispatch to a
    /// different worker still counts as a reclaim.
    fn new(pending: Vec<usize>, total: usize, last: Vec<Option<usize>>) -> Board {
        Board {
            state: Mutex::new(BoardState {
                unclaimed: pending.into(),
                attempts: vec![0; total],
                last,
                busy: vec![0; total],
            }),
            cv: Condvar::new(),
        }
    }

    /// Claims the first unclaimed shard that `owns` says belongs to
    /// worker `me` — or any shard that has roamed free of its owner
    /// after repeated backpressure. Returns the shard index and whether
    /// this claim is a reclaim (a different worker tried it before).
    fn claim_for(&self, me: usize, owns: impl Fn(usize) -> bool) -> Option<(usize, bool)> {
        let mut s = lock_recover(&self.state);
        let busy = &s.busy;
        let pos = s
            .unclaimed
            .iter()
            .position(|&i| owns(i) || busy[i] >= ROAM_AFTER_BUSY)?;
        let index = s.unclaimed.remove(pos).expect("position came from iter");
        let reclaimed = s.last[index].is_some_and(|w| w != me);
        s.last[index] = Some(me);
        s.attempts[index] += 1;
        Some((index, reclaimed))
    }

    /// Returns a failed shard to the front of the queue (it has waited
    /// longest) and reports its attempt count so the caller can give up
    /// past [`MAX_SHARD_ATTEMPTS`].
    fn release(&self, index: usize) -> u32 {
        let mut s = lock_recover(&self.state);
        s.unclaimed.push_front(index);
        let attempts = s.attempts[index];
        drop(s);
        self.cv.notify_all();
        attempts
    }

    /// Returns a backpressured shard to the queue *without* counting
    /// the claim as an attempt: a 503 is the worker managing load, and
    /// a saturated-but-healthy worker must never push a shard toward
    /// [`MAX_SHARD_ATTEMPTS`] no matter how long saturation lasts.
    fn release_backpressured(&self, index: usize) {
        let mut s = lock_recover(&self.state);
        s.attempts[index] = s.attempts[index].saturating_sub(1);
        s.busy[index] = s.busy[index].saturating_add(1);
        s.unclaimed.push_front(index);
        drop(s);
        self.cv.notify_all();
    }

    /// Wakes every dispatcher blocked in [`Board::wait_brief`].
    fn notify(&self) {
        self.cv.notify_all();
    }

    /// Parks briefly until the board changes (a release) or a timeout —
    /// the timeout doubles as the poll for liveness flips, which the
    /// board can't observe.
    fn wait_brief(&self) {
        let guard = lock_recover(&self.state);
        let _ = wait_timeout_recover(&self.cv, guard, Duration::from_millis(25));
    }
}

/// Starts one detached dispatcher thread per configured worker for this
/// sweep. `prior` is the journal's replayed dispatch map (empty for
/// fresh sweeps).
fn spawn_dispatchers(
    shared: &Arc<Shared>,
    job: &Arc<SweepJob>,
    journal_id: Option<u64>,
    quick: bool,
    prior: &[(usize, String)],
) {
    let keys = job
        .tws
        .iter()
        .map(|&tw| shard_key(&job.spec, quick, job.opts.seed, tw))
        .collect();
    let mut last = vec![None; job.tws.len()];
    for (index, addr) in prior {
        if *index < last.len() {
            last[*index] = (0..shared.fleet.len()).find(|&w| shared.fleet.addr(w) == addr);
        }
    }
    let dispatch = Arc::new(Dispatch {
        job: Arc::clone(job),
        journal_id,
        quick,
        keys,
        spec_value: job.spec.to_value(),
        board: Board::new(job.pending(), job.tws.len(), last),
    });
    for me in 0..shared.fleet.len() {
        let shared = Arc::clone(shared);
        let dispatch = Arc::clone(&dispatch);
        let _ = thread::Builder::new()
            .name(format!("ptb-dispatch-{me}"))
            .spawn(move || dispatcher_loop(&shared, &dispatch, me));
    }
}

/// Why one shard dispatch failed.
enum DispatchError {
    /// Transport-level: connect, write, or read failed — the worker is
    /// silent, which counts against its liveness.
    Io(std::io::Error),
    /// The worker answered, but wrongly: bad status, garbage frame,
    /// wrong row. An answering worker is *alive*, so this carries no
    /// health penalty — only retry with backoff (possibly elsewhere).
    Bad(String),
    /// The worker answered 503: its admission control is shedding load.
    /// That is the protocol *working*, not a fault — the shard is
    /// re-queued without burning an attempt, the worker keeps its
    /// liveness, and the dispatcher backs off before retrying.
    Busy,
    /// The worker answered 409: this dispatch carried an epoch below
    /// the worker's high-water mark, so a newer coordinator has taken
    /// over. This coordinator is a zombie — it must demote itself and
    /// stop dispatching, not retry (`docs/PROTOCOL.md` §7).
    Fenced,
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Io(e) => write!(f, "transport error: {e}"),
            DispatchError::Bad(s) => f.write_str(s),
            DispatchError::Busy => f.write_str("worker busy (503 backpressure)"),
            DispatchError::Fenced => f.write_str("dispatch fenced (409: stale epoch)"),
        }
    }
}

/// One worker's dispatch loop for one sweep: claim the shards the
/// liveness-filtered ring assigns to this worker, send each as a
/// one-point binary `/sweep` over a kept-alive connection, merge rows
/// into the job. Exits when the job reaches a terminal state.
fn dispatcher_loop(shared: &Arc<Shared>, dispatch: &Dispatch, me: usize) {
    let my_addr = shared.fleet.addr(me).to_string();
    let sock = shared.fleet.sock(me);
    let policy = RetryPolicy::default();
    let mut rng = policy.seed ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut backoff = policy.base;
    let mut conn: Option<Connection> = None;
    loop {
        if dispatch.job.state() != JobState::Running {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            dispatch
                .job
                .fail_external("coordinator shutting down".into());
            dispatch.board.notify();
            return;
        }
        if !shared.leader.load(Ordering::SeqCst) {
            // Demoted mid-sweep (a peer dispatcher got fenced): stop
            // dispatching at once. A journaled job is left as-is — the
            // new active resumes it from its mirrored journal and
            // clients follow the 307 there; an unjournaled (sync) job
            // must fail here or its handler would wait forever.
            if dispatch.journal_id.is_none() {
                dispatch.job.fail_external(
                    "coordinator was fenced by a newer epoch; \
                     retry against the active coordinator"
                        .into(),
                );
            }
            dispatch.board.notify();
            return;
        }
        if !shared.fleet.is_alive(me) {
            if shared.fleet.alive_count() == 0 {
                dispatch.job.fail_external("no live workers remain".into());
                dispatch.board.notify();
                return;
            }
            // Dead but the fleet survives: idle until a probe revives
            // this worker. The filtered ring has already rerouted this
            // worker's pending shards to the survivors.
            thread::sleep(Duration::from_millis(50));
            continue;
        }
        let claim = dispatch.board.claim_for(me, |i| {
            shared
                .ring
                .owner_among(dispatch.keys[i], |w| shared.fleet.is_alive(w))
                == Some(me)
        });
        let Some((index, reclaimed)) = claim else {
            dispatch.board.wait_brief();
            continue;
        };
        if reclaimed {
            shared
                .metrics
                .shards_reclaimed
                .fetch_add(1, Ordering::Relaxed);
        }
        if let (Some(journal), Some(id)) = (&shared.journal, dispatch.journal_id) {
            journal.log_dispatch(id, index, &my_addr, shared.epoch.load(Ordering::SeqCst));
        }
        let started = Instant::now();
        match send_shard(shared, dispatch, index, sock, &mut conn) {
            Ok(row) => {
                shared.metrics.per_worker[me]
                    .latency
                    .record(started.elapsed());
                shared.metrics.per_worker[me]
                    .dispatched
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .shards_dispatched
                    .fetch_add(1, Ordering::Relaxed);
                shared.fleet.mark_success(me);
                dispatch.job.complete_shard(index, row);
                dispatch.board.notify();
                backoff = policy.base;
            }
            Err(DispatchError::Fenced) => {
                // A worker has seen a higher epoch: a successor
                // promoted while this coordinator believed it still
                // led. Demote — every dispatcher of every job exits on
                // its next iteration — and leave journaled jobs for the
                // new active (clients 307 there from now on).
                shared
                    .metrics
                    .fenced_dispatches
                    .fetch_add(1, Ordering::Relaxed);
                if shared.leader.swap(false, Ordering::SeqCst) {
                    eprintln!(
                        "ptb-clusterd: dispatch epoch {} fenced by worker {my_addr}; \
                         demoting to standby",
                        shared.epoch.load(Ordering::SeqCst)
                    );
                }
                if dispatch.journal_id.is_none() {
                    dispatch.job.fail_external(
                        "coordinator was fenced by a newer epoch; \
                         retry against the active coordinator"
                            .into(),
                    );
                }
                dispatch.board.release(index);
                dispatch.board.notify();
                return;
            }
            Err(DispatchError::Busy) => {
                // Backpressure, not failure: the worker answered, so it
                // is alive; its admission control shed the shard to
                // protect itself. Re-queue without burning an attempt,
                // keep the (still healthy) connection, and back off so
                // the retry lands after the worker has drained.
                shared
                    .metrics
                    .backpressure_redispatch
                    .fetch_add(1, Ordering::Relaxed);
                shared.fleet.mark_success(me);
                dispatch.board.release_backpressured(index);
                backoff = policy.next_sleep(backoff, &mut rng);
                thread::sleep(backoff);
            }
            Err(err) => {
                shared
                    .metrics
                    .dispatch_failures
                    .fetch_add(1, Ordering::Relaxed);
                conn = None;
                if matches!(err, DispatchError::Io(_)) && shared.fleet.mark_failure(me) {
                    shared.metrics.worker_deaths.fetch_add(1, Ordering::Relaxed);
                }
                let attempts = dispatch.board.release(index);
                if attempts >= MAX_SHARD_ATTEMPTS {
                    dispatch.job.fail_external(format!(
                        "shard {index} (tw={}) failed after {attempts} dispatch attempts; \
                         last error: {err}",
                        dispatch.job.tws[index]
                    ));
                    dispatch.board.notify();
                    return;
                }
                backoff = policy.next_sleep(backoff, &mut rng);
                thread::sleep(backoff);
            }
        }
    }
}

/// Sends shard `index` to the worker at `sock` over the cached
/// keep-alive connection (reconnecting when the server closed it, with
/// one retry — a kept-alive connection can die benignly between
/// requests) and parses the single returned row.
fn send_shard(
    shared: &Shared,
    dispatch: &Dispatch,
    index: usize,
    sock: SocketAddr,
    conn_slot: &mut Option<Connection>,
) -> Result<SweepRow, DispatchError> {
    let tw = dispatch.job.tws[index];
    let body = shard_request_body(dispatch, tw, shared.epoch.load(Ordering::SeqCst));
    let had_conn = matches!(conn_slot, Some(c) if !c.server_closed());
    if !had_conn {
        *conn_slot = Some(
            Connection::open_with_timeout(sock, shared.dispatch_timeout)
                .map_err(DispatchError::Io)?,
        );
    }
    let first = conn_slot
        .as_mut()
        .expect("connection was just ensured")
        .request("POST", "/sweep", Some(wire::CONTENT_TYPE), &body);
    let resp = match first {
        Ok(r) => r,
        Err(e) => {
            *conn_slot = None;
            if !had_conn {
                return Err(DispatchError::Io(e));
            }
            let mut fresh = Connection::open_with_timeout(sock, shared.dispatch_timeout)
                .map_err(DispatchError::Io)?;
            let r = fresh
                .request("POST", "/sweep", Some(wire::CONTENT_TYPE), &body)
                .map_err(DispatchError::Io)?;
            *conn_slot = Some(fresh);
            r
        }
    };
    parse_shard_response(&shared.metrics, &resp.body, resp.status, tw)
}

/// The one-point `PTBW1` sweep request for shard `tw`. The request is
/// fully explicit — seed, quick, and verify are always present — so a
/// worker's own defaults can never skew a shard. `epoch` is the
/// coordinator's leadership epoch; a worker that has seen a higher one
/// answers 409 and the dispatch comes back [`DispatchError::Fenced`].
fn shard_request_body(dispatch: &Dispatch, tw: u32, epoch: u64) -> Vec<u8> {
    let value = Value::Object(vec![
        ("network".into(), dispatch.spec_value.clone()),
        (
            "policy".into(),
            Value::Str(dispatch.job.policy.label().to_string()),
        ),
        ("tws".into(), Value::Array(vec![Value::U64(u64::from(tw))])),
        ("quick".into(), Value::Bool(dispatch.quick)),
        ("seed".into(), Value::U64(dispatch.job.opts.seed)),
        (
            "verify".into(),
            Value::Str(dispatch.job.opts.verify.label().to_string()),
        ),
        ("epoch".into(), Value::U64(epoch)),
    ]);
    wire::frame(wire::KIND_SWEEP, &value)
}

/// Validates one worker response down to the row: correct status,
/// well-formed `KIND_ROWS` frame, exactly one row, at the requested TW.
/// A 503 is [`DispatchError::Busy`] (admission backpressure — re-queue
/// with no attempt burned); a 409 is [`DispatchError::Fenced`] (a newer
/// epoch exists — demote, don't retry); anything else is
/// [`DispatchError::Bad`] — the shard is re-queued but the worker's
/// health is untouched, because garbage proves liveness. Error frames
/// that carry audit findings bump `audit_mismatches`. Failpoint
/// `cluster_dispatch` injects faults here.
fn parse_shard_response(
    metrics: &ClusterMetrics,
    body: &[u8],
    status: u16,
    tw: u32,
) -> Result<SweepRow, DispatchError> {
    if ptb_bench::failpoint!("cluster_dispatch").is_err() {
        return Err(DispatchError::Bad(
            "injected fault (cluster_dispatch)".into(),
        ));
    }
    if status == 503 {
        return Err(DispatchError::Busy);
    }
    if status == 409 {
        return Err(DispatchError::Fenced);
    }
    if status != 200 {
        // A worker that *audited* a shard and found a mismatch fails it
        // with an error frame carrying the findings; surface that in
        // the coordinator's own counter before the generic retry path.
        if let Ok((wire::KIND_ERROR, value)) = wire::unframe(body) {
            if value.get("audit").is_some() {
                metrics.audit_mismatches.fetch_add(1, Ordering::Relaxed);
            }
        }
        return Err(DispatchError::Bad(format!(
            "worker answered status {status}"
        )));
    }
    let (kind, value) = wire::unframe(body)
        .map_err(|e| DispatchError::Bad(format!("garbage response frame: {e}")))?;
    if kind != wire::KIND_ROWS {
        return Err(DispatchError::Bad(format!(
            "unexpected response kind {kind:#04x}"
        )));
    }
    let mut rows: Vec<SweepRow> = serde_json::from_value(&value)
        .map_err(|e| DispatchError::Bad(format!("malformed rows: {e}")))?;
    match rows.as_slice() {
        [row] if row.tw == tw => Ok(rows.remove(0)),
        [row] => Err(DispatchError::Bad(format!(
            "worker answered tw={} for a tw={tw} shard",
            row.tw
        ))),
        other => Err(DispatchError::Bad(format!(
            "worker answered {} rows for a one-point shard",
            other.len()
        ))),
    }
}

// ---------------------------------------------------------------------
// Health probing and journal resume.
// ---------------------------------------------------------------------

/// Probes every worker's `/healthz` each round: a success revives it, a
/// round of exhausted (jitter-spaced) attempts counts one transport
/// failure toward the fleet's death threshold.
fn prober_loop(shared: &Arc<Shared>) {
    let policy = RetryPolicy::default();
    let mut rng = policy.seed ^ 0x50B0_50B0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        for me in 0..shared.fleet.len() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let mut healthy = false;
            let mut backoff = policy.base;
            for attempt in 0..shared.probe_retries {
                let probe = client::request_typed_timeout(
                    shared.fleet.sock(me),
                    "GET",
                    "/healthz",
                    None,
                    b"",
                    shared.probe_timeout,
                );
                match probe {
                    Ok(resp) if resp.status == 200 => {
                        healthy = true;
                        // The worker's generation nonce distinguishes a
                        // restart (new process, caches and in-flight
                        // shards lost) from a merely slow probe — even
                        // when the restart fit inside one probe
                        // interval and liveness never flickered.
                        let generation = std::str::from_utf8(&resp.body)
                            .ok()
                            .and_then(|s| serde_json::from_str::<Value>(s).ok())
                            .and_then(|v| v.get("generation").and_then(Value::as_u64))
                            .unwrap_or(0);
                        if shared.fleet.note_generation(me, generation) {
                            shared
                                .metrics
                                .worker_restarts
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        break;
                    }
                    _ => {
                        shared
                            .metrics
                            .probe_failures
                            .fetch_add(1, Ordering::Relaxed);
                        if attempt + 1 < shared.probe_retries {
                            backoff = policy.next_sleep(backoff, &mut rng);
                            thread::sleep(backoff);
                        }
                    }
                }
            }
            if healthy {
                shared.fleet.mark_success(me);
            } else if shared.fleet.mark_failure(me) {
                shared.metrics.worker_deaths.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Sleep the round interval in small steps so shutdown isn't
        // delayed by a long interval.
        let mut remaining = shared.probe_interval;
        while !remaining.is_zero() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let step = remaining.min(Duration::from_millis(50));
            thread::sleep(step);
            remaining -= step;
        }
    }
}

/// Rebuilds the registry from the dispatch journal at boot. Completed
/// jobs reload for polling; unfinished ones get dispatchers for their
/// remaining shards immediately. Unlike a worker, replayed rows are
/// never recomputed here — the coordinator has no engine; the rows were
/// computed (and optionally audited) by workers before being journaled.
fn replay_journal(shared: &Arc<Shared>) {
    let Some(journal) = shared.journal.clone() else {
        return;
    };
    let mut max_id = 0u64;
    for replayed in journal.replay() {
        let ReplayedJob {
            id,
            spec,
            policy,
            tws,
            quick,
            seed,
            verify,
            shards,
            dispatches,
            done,
        } = replayed;
        max_id = max_id.max(id);
        let opts = run_options(Some(quick), Some(seed), verify);
        let job = Arc::new(
            SweepJob::resumed(spec, policy, tws, opts, shards)
                .with_journal(Arc::clone(&journal), id),
        );
        if !shared.jobs.insert(id, Arc::clone(&job)) {
            eprintln!("warning: job registry full; journaled job {id} not resumed");
            continue;
        }
        if !done {
            spawn_dispatchers(shared, &job, Some(id), quick, &dispatches);
        }
    }
    shared.jobs.bump_next_id(max_id + 1);
}

// ---------------------------------------------------------------------
// Hot standby: journal tailing, lease tracking, and promotion.
// ---------------------------------------------------------------------

/// The standby's life: poll the active's `GET /journal/tail` at a
/// fraction of the lease, mirror journal deltas into the local
/// directory, and promote when the active has been unreachable for a
/// full lease. Only a 200 index response refreshes the lease — a
/// connection refused, a timeout, or a `coordinator_pause` 503 all
/// count as silence, because a coordinator that cannot serve its tail
/// cannot be journaling dispatches safely either.
fn standby_loop(shared: &Arc<Shared>) {
    let Some(peer) = shared.peer.clone() else {
        return;
    };
    let poll = (shared.lease / 4).max(Duration::from_millis(50));
    let announce = format!("/journal/tail?peer={}", shared.self_addr);
    let mut last_contact = Instant::now();
    let mut peer_epoch = 0u64;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(sock) = resolve_addr(&peer) {
            let index = client::request_typed_timeout(
                sock,
                "GET",
                &announce,
                None,
                b"",
                shared.probe_timeout,
            );
            if let Ok(resp) = index {
                if resp.status == 200 {
                    if let Some((epoch, journals)) = parse_tail_index(&resp.body) {
                        last_contact = Instant::now();
                        peer_epoch = peer_epoch.max(epoch);
                        mirror_journals(shared, sock, &journals);
                    }
                }
            }
        }
        if last_contact.elapsed() > shared.lease {
            promote(shared, peer_epoch);
            return;
        }
        // Sleep the poll interval in small steps so shutdown stays
        // responsive.
        let mut remaining = poll;
        while !remaining.is_zero() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let step = remaining.min(Duration::from_millis(25));
            thread::sleep(step);
            remaining -= step;
        }
    }
}

/// Resolves `HOST:PORT` fresh each poll (the peer may come back on a
/// different interface after a restart; resolution is cheap).
fn resolve_addr(addr: &str) -> Option<SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs().ok()?.next()
}

/// Parses a `/journal/tail` index response: the peer's epoch and its
/// `(id, bytes)` journal list.
fn parse_tail_index(body: &[u8]) -> Option<(u64, Vec<(u64, u64)>)> {
    let value = serde_json::from_str::<Value>(std::str::from_utf8(body).ok()?).ok()?;
    let epoch = value.get("epoch")?.as_u64()?;
    let journals = match value.get("journals")? {
        Value::Array(entries) => entries
            .iter()
            .filter_map(|e| Some((e.get("id")?.as_u64()?, e.get("bytes")?.as_u64()?)))
            .collect(),
        _ => return None,
    };
    Some((epoch, journals))
}

/// Pulls every journal the active reports as longer than the local
/// mirror, appending raw bytes at the local length. Journals are
/// append-only, so the mirror is always a byte-prefix of the source; a
/// cursor mismatch (the local file changed underneath — e.g. a salvage
/// rewrite) is healed by refetching the file from offset 0.
fn mirror_journals(shared: &Shared, sock: SocketAddr, journals: &[(u64, u64)]) {
    let Some(local) = &shared.journal else {
        return;
    };
    for &(id, remote_len) in journals {
        let from = local.file_len(id);
        if from >= remote_len {
            continue;
        }
        let Some(delta) = fetch_journal_bytes(shared, sock, id, from) else {
            continue;
        };
        if local.append_raw(id, from, &delta).is_err() {
            if let Some(whole) = fetch_journal_bytes(shared, sock, id, 0) {
                let _ = local.append_raw(id, 0, &whole);
            }
        }
    }
}

/// One cursor-form tail request: journal `id`'s raw bytes from `from`.
fn fetch_journal_bytes(shared: &Shared, sock: SocketAddr, id: u64, from: u64) -> Option<Vec<u8>> {
    let path = format!("/journal/tail?job={id}&from={from}");
    let resp =
        client::request_typed_timeout(sock, "GET", &path, None, b"", shared.probe_timeout).ok()?;
    (resp.status == 200).then_some(resp.body)
}

/// Promotes this standby to active: claim an epoch above both the
/// peer's highest observed epoch and anything persisted locally,
/// *persist it before any dispatch can carry it*, then replay the
/// mirrored journals exactly like a boot — completed rows adopt
/// verbatim, the remainder re-places via the liveness-filtered ring.
fn promote(shared: &Arc<Shared>, peer_epoch: u64) {
    let mut epoch = peer_epoch.max(shared.epoch.load(Ordering::SeqCst));
    if let Some(dir) = &shared.job_dir {
        epoch = epoch.max(read_epoch(dir));
    }
    let epoch = epoch + 1;
    if let Some(dir) = &shared.job_dir {
        if let Err(e) = write_epoch(dir, epoch) {
            eprintln!("warning: cannot persist promotion epoch {epoch}: {e}");
        }
    }
    shared.epoch.store(epoch, Ordering::SeqCst);
    shared.leader.store(true, Ordering::SeqCst);
    eprintln!(
        "ptb-clusterd: lease expired; promoted to active at epoch {epoch} \
         (resuming journaled sweeps)"
    );
    replay_journal(shared);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_claims_respect_ownership_and_track_reclaims() {
        let board = Board::new(vec![0, 1, 2], 3, vec![None, Some(1), None]);
        // Worker 0 owns shards 0 and 1 only.
        let owns = |i: usize| i < 2;
        let (first, reclaimed) = board.claim_for(0, owns).unwrap();
        assert_eq!((first, reclaimed), (0, false), "never tried before");
        let (second, reclaimed) = board.claim_for(0, owns).unwrap();
        assert_eq!(
            (second, reclaimed),
            (1, true),
            "worker 1 tried shard 1 before (journal replay), so this is a reclaim"
        );
        assert!(
            board.claim_for(0, owns).is_none(),
            "shard 2 is not owned by worker 0"
        );
        let (third, reclaimed) = board.claim_for(2, |_| true).unwrap();
        assert_eq!((third, reclaimed), (2, false));
    }

    #[test]
    fn released_shards_come_back_first_with_attempts_counted() {
        let board = Board::new(vec![0, 1], 2, vec![None, None]);
        let (index, _) = board.claim_for(0, |_| true).unwrap();
        assert_eq!(index, 0);
        assert_eq!(board.release(index), 1, "one attempt so far");
        let (again, reclaimed) = board.claim_for(1, |_| true).unwrap();
        assert_eq!(
            (again, reclaimed),
            (0, true),
            "released shard re-claims first, by a new worker: a reclaim"
        );
        assert_eq!(board.release(again), 2);
    }

    #[test]
    fn backpressured_releases_never_burn_attempts() {
        let board = Board::new(vec![0], 1, vec![None]);
        // A worker can bounce off a saturated peer forever without the
        // shard ever approaching MAX_SHARD_ATTEMPTS.
        for _ in 0..(MAX_SHARD_ATTEMPTS * 4) {
            let (index, _) = board.claim_for(0, |_| true).unwrap();
            board.release_backpressured(index);
        }
        let (index, _) = board.claim_for(0, |_| true).unwrap();
        assert_eq!(
            board.release(index),
            1,
            "after any number of backpressure bounces, a real failure \
             still counts as the first attempt"
        );
    }

    #[test]
    fn persistently_backpressured_shards_roam_to_other_workers() {
        let board = Board::new(vec![0], 1, vec![None]);
        let stranger = |_: usize| false;
        for bounce in 0..ROAM_AFTER_BUSY {
            assert!(
                board.claim_for(1, stranger).is_none(),
                "shard still pinned to its owner after {bounce} bounces"
            );
            let (index, _) = board.claim_for(0, |_| true).unwrap();
            board.release_backpressured(index);
        }
        let (index, reclaimed) = board.claim_for(1, stranger).unwrap();
        assert_eq!(
            (index, reclaimed),
            (0, true),
            "roaming shard claimed elsewhere"
        );
    }

    #[test]
    fn a_503_parses_as_busy_not_bad() {
        let metrics = ClusterMetrics::new(1);
        let err = parse_shard_response(&metrics, b"", 503, 4).unwrap_err();
        assert!(matches!(err, DispatchError::Busy), "503 is backpressure");
        let err = parse_shard_response(&metrics, b"", 500, 4).unwrap_err();
        assert!(
            matches!(err, DispatchError::Bad(_)),
            "other bad statuses still classify as Bad"
        );
    }

    #[test]
    fn a_409_parses_as_fenced() {
        let metrics = ClusterMetrics::new(1);
        let err = parse_shard_response(&metrics, b"", 409, 4).unwrap_err();
        assert!(
            matches!(err, DispatchError::Fenced),
            "409 means a newer epoch exists: demote, don't retry"
        );
        assert_eq!(
            metrics.fenced_dispatches.load(Ordering::Relaxed),
            0,
            "the counter belongs to the dispatcher (once per demotion), \
             not the parser"
        );
    }

    #[test]
    fn audit_carrying_error_frames_count_mismatches() {
        let metrics = ClusterMetrics::new(1);
        let audited = wire::frame(
            wire::KIND_ERROR,
            &Value::Object(vec![
                ("error".into(), Value::Str("sweep failed: audit".into())),
                ("audit".into(), Value::Object(vec![])),
            ]),
        );
        let err = parse_shard_response(&metrics, &audited, 500, 4).unwrap_err();
        assert!(matches!(err, DispatchError::Bad(_)));
        assert_eq!(metrics.audit_mismatches.load(Ordering::Relaxed), 1);

        let plain = wire::frame(
            wire::KIND_ERROR,
            &Value::Object(vec![("error".into(), Value::Str("worker exploded".into()))]),
        );
        let _ = parse_shard_response(&metrics, &plain, 500, 4).unwrap_err();
        assert_eq!(
            metrics.audit_mismatches.load(Ordering::Relaxed),
            1,
            "plain failures are not audit findings"
        );
    }

    #[test]
    fn shard_requests_carry_the_dispatch_epoch() {
        let spec = spikegen::dvs_gesture();
        let job = Arc::new(SweepJob::new(
            spec,
            ptb_accel::config::Policy::ptb(),
            vec![4],
            run_options(Some(true), Some(7), AuditLevel::Off),
        ));
        let dispatch = Dispatch {
            job: Arc::clone(&job),
            journal_id: None,
            quick: true,
            keys: vec![0],
            spec_value: job.spec.to_value(),
            board: Board::new(vec![0], 1, vec![None]),
        };
        let body = shard_request_body(&dispatch, 4, 6);
        let (kind, value) = wire::unframe(&body).unwrap();
        assert_eq!(kind, wire::KIND_SWEEP);
        assert_eq!(
            value.get("epoch").and_then(Value::as_u64),
            Some(6),
            "every dispatch frame names its coordinator's epoch"
        );
    }

    #[test]
    fn tail_index_responses_parse_back() {
        let parsed = parse_tail_index(
            br#"{"epoch": 3, "leader": true, "journals": [{"id": 1, "bytes": 64}, {"id": 9, "bytes": 128}]}"#,
        );
        assert_eq!(parsed, Some((3, vec![(1, 64), (9, 128)])));
        assert_eq!(
            parse_tail_index(br#"{"epoch": 2, "leader": true, "journals": []}"#),
            Some((2, vec![])),
            "an idle active has no journals but still renews the lease"
        );
        assert_eq!(parse_tail_index(b"not json"), None);
        assert_eq!(parse_tail_index(br#"{"journals": []}"#), None);
    }

    #[test]
    fn query_params_parse_from_paths() {
        assert_eq!(query_param("/journal/tail?job=7&from=64", "job"), Some("7"));
        assert_eq!(
            query_param("/journal/tail?job=7&from=64", "from"),
            Some("64")
        );
        assert_eq!(query_param("/journal/tail?job=7", "from"), None);
        assert_eq!(query_param("/journal/tail", "job"), None);
        assert_eq!(query_param("/journal/tail?peer=", "peer"), None, "empty");
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ClusterConfig::default();
        assert_eq!(cfg.probe_retries, 2);
        assert_eq!(cfg.fail_threshold, 2);
        assert!(cfg.workers.is_empty());
        assert!(cfg.job_dir.is_none(), "embedded default is no journal");
    }
}
