//! Fleet drills: the fault and overload scenarios that need a whole
//! fleet, one test each.
//!
//! - **saturate**: a worker `503`-sheds every shard; the sweep must
//!   complete byte-identically by backpressure re-dispatch with zero
//!   `worker_deaths`.
//! - **soak**: a budget-starved daemon under 8-thread load must evict
//!   and shed without any other failure, keep its disk footprints in
//!   budget, expire a finished job, and still answer byte-identically.
//! - **coordinator kill / fence**: a hot standby must take over from a
//!   SIGKILLed active coordinator, or fence a zombie one, and finish the
//!   journaled job with a lone worker's rows.
//! - **crash recovery**: a worker SIGKILLed mid-job must resume the job
//!   from its journal on reboot.
//!
//! Saturate and soak run their daemons in process. The others spawn
//! `ptb-clusterd` processes (`tests/common`), because they need SIGKILL
//! and a per-process `PTB_FAILPOINTS`. The drills are timing-sensitive
//! (kill windows, leases), so they serialize on [`DRILL_LOCK`].

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use common::{metric_u64, metrics, poll_done, submit_background, tmp_path, Daemon};
use ptb_bench::{CacheBudget, CacheMode, SweepRow};
use ptb_cluster::{ClusterConfig, Coordinator};
use ptb_serve::{client, wire, Server, ServerConfig};
use serde::Value;

static DRILL_LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    DRILL_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A quick DVS-Gesture PTB+StSAP sweep request.
fn sweep_body(tws: &[u32], seed: u64) -> String {
    format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB+StSAP\", \"tws\": {tws:?}, \
         \"quick\": true, \"seed\": {seed}}}"
    )
}

fn simulate_body(seed: u64) -> String {
    format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB+StSAP\", \"tw\": 8, \
         \"quick\": true, \"seed\": {seed}}}"
    )
}

/// An in-process worker with a two-thread pool and no journal, as
/// `ptb-clusterd --spawn-worker --workers 2 --job-dir off` boots.
fn worker_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    }
}

fn post_sweep(addr: std::net::SocketAddr, body: &str) -> String {
    let (status, text) = client::request_json(addr, "POST", "/sweep", body).unwrap();
    assert_eq!(status, 200, "{text}");
    text
}

#[test]
fn saturated_worker_is_never_declared_dead() {
    let _guard = serialized();
    // Worker 0's admission watermark is one byte: after its first cached
    // tensor it sheds every heavy request with 503 while /healthz stays
    // green — saturated, but emphatically alive.
    let saturated = Server::start(&ServerConfig {
        mem_watermark: Some(1),
        ..worker_config()
    })
    .expect("bind saturated worker");
    let healthy = Server::start(&worker_config()).expect("bind worker");
    let coordinator = Coordinator::start(&ClusterConfig {
        addr: "127.0.0.1:0".into(),
        workers: vec![saturated.addr().to_string(), healthy.addr().to_string()],
        probe_interval_ms: 100,
        probe_timeout_ms: 500,
        fail_threshold: 1,
        ..ClusterConfig::default()
    })
    .expect("bind coordinator");

    // Prime worker 0's cache so the watermark is already exceeded when
    // the sweep's shards arrive.
    let (status, text) =
        client::request_json(saturated.addr(), "POST", "/simulate", &simulate_body(4242)).unwrap();
    assert_eq!(status, 200, "{text}");

    // Enough shards that worker 0 owns some with near certainty, so
    // backpressure re-dispatch demonstrably happens.
    let tws: Vec<u32> = (1..=16).collect();
    let sweep = sweep_body(&tws, 42);
    let via_cluster = post_sweep(coordinator.addr(), &sweep);
    // Worker 0 sheds direct sweeps too: the reference is the healthy one.
    let direct = post_sweep(healthy.addr(), &sweep);
    assert_eq!(
        via_cluster, direct,
        "cluster response is not byte-identical to a single node"
    );
    let _: Vec<SweepRow> = serde_json::from_str(&via_cluster).expect("cluster rows parse");

    // The shards worker 0 bounced are backpressure re-dispatches, not
    // failures, and it was never declared dead.
    let m = metrics(coordinator.addr());
    assert_eq!(
        m.get("worker_deaths").and_then(Value::as_u64),
        Some(0),
        "saturated worker was falsely declared dead: {m:?}"
    );
    assert!(
        metric_u64(&m, "backpressure_redispatch") >= 1,
        "saturation never produced a backpressure re-dispatch: {m:?}"
    );

    coordinator.shutdown();
    coordinator.join();
    for server in [saturated, healthy] {
        server.shutdown();
        server.join();
    }
}

#[test]
fn budget_starved_daemon_sheds_and_evicts_without_breaking() {
    const MEM_BUDGET: u64 = 64 * 1024;
    const DISK_BUDGET: u64 = 256 * 1024;
    const JOB_DIR_BUDGET: u64 = 64 * 1024;
    const SOAK_THREADS: usize = 8;
    const SOAK: Duration = Duration::from_secs(8);
    let _guard = serialized();
    let scratch = tmp_path("soak");
    let cache_dir = scratch.join("cache");
    let job_dir = scratch.join("jobs");
    let server = Server::start(&ServerConfig {
        queue_cap: 4,
        cache: CacheMode::Disk,
        cache_dir: cache_dir.clone(),
        cache_budget: CacheBudget {
            mem_bytes: Some(MEM_BUDGET),
            disk_bytes: Some(DISK_BUDGET),
        },
        job_dir: Some(job_dir.clone()),
        job_retain: Duration::from_secs(1),
        job_dir_bytes: Some(JOB_DIR_BUDGET),
        ..worker_config()
    })
    .expect("bind budgeted daemon");
    let addr = server.addr();

    // A background job up front: it must finish now and expire later.
    let job_id = submit_background(addr, &sweep_body(&[1, 2], 7));
    poll_done(&[addr], job_id, Duration::from_secs(60));

    // The soak itself: closed loops of unique-seed /simulate (every
    // 16th a sync /sweep), far outrunning a 4-deep queue with 2
    // workers, so admission control must engage. The one tolerated
    // failure is a 503 shed.
    let ok = AtomicU64::new(0);
    let hard_error: Mutex<Option<String>> = Mutex::new(None);
    let deadline = Instant::now() + SOAK;
    std::thread::scope(|s| {
        for worker in 0..SOAK_THREADS {
            let (ok, hard_error) = (&ok, &hard_error);
            s.spawn(move || {
                let mut i: u64 = 0;
                while Instant::now() < deadline {
                    i += 1;
                    let seed = 1_000_000 * (worker as u64 + 1) + i;
                    let (path, body) = if i.is_multiple_of(16) {
                        ("/sweep", sweep_body(&[1, 8], seed))
                    } else {
                        ("/simulate", simulate_body(seed))
                    };
                    let failure = match client::request_json(addr, "POST", path, &body) {
                        Ok((200, _)) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        Ok((503, _)) => {
                            std::thread::sleep(Duration::from_millis(20));
                            continue;
                        }
                        Ok((status, body)) => format!("{path} answered {status}: {body}"),
                        Err(e) => format!("{path} transport error: {e}"),
                    };
                    hard_error
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(failure);
                    return;
                }
            });
        }
    });
    let hard_error = hard_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    assert_eq!(hard_error, None, "non-503 failure under soak");
    assert!(
        ok.load(Ordering::Relaxed) > 0,
        "soak made no progress: every request was shed"
    );

    // Governance must have engaged, not just not crashed.
    let m = metrics(addr);
    assert_eq!(metric_u64(&m, "audit_mismatches"), 0, "{m:?}");
    assert!(
        metric_u64(&m, "cache_evictions") > 0,
        "budgets never forced a cache eviction"
    );
    if metric_u64(&m, "admission_shed") == 0 {
        // Bursts may have all landed in queue gaps; force the issue
        // with a few more concurrent waves before giving up.
        let shed = (0..30).any(|_| {
            std::thread::scope(|s| {
                for worker in 0..SOAK_THREADS as u64 {
                    s.spawn(move || {
                        let body = simulate_body(77_000_000 + worker);
                        let _ = client::request_json(addr, "POST", "/simulate", &body);
                    });
                }
            });
            metric_u64(&metrics(addr), "admission_shed") > 0
        });
        assert!(shed, "admission control never shed a request");
    }

    // Footprints stay bounded: the disk cache within its budget plus
    // one in-flight temp file of slack, the journal dir within its.
    let dir_total = |dir: &PathBuf| -> u64 {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    };
    let cache_total = dir_total(&cache_dir);
    assert!(
        cache_total <= DISK_BUDGET + 64 * 1024,
        "disk cache overran its budget: {cache_total} bytes on disk, budget {DISK_BUDGET}"
    );
    let job_total = dir_total(&job_dir);
    assert!(
        job_total <= JOB_DIR_BUDGET,
        "journal dir overran its budget: {job_total} bytes, budget {JOB_DIR_BUDGET}"
    );

    // Retention: the long-finished background job must expire, its
    // journal reaped and its poll answering the documented "gone" 404.
    let gone_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) =
            client::request_json(addr, "GET", &format!("/jobs/{job_id}"), "").unwrap();
        if status == 404 && body.contains("\"gone\": true") {
            break;
        }
        assert!(
            Instant::now() < gone_deadline,
            "job {job_id} never expired: still answering {status}: {body}"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
    let journal_file = job_dir.join(format!("job-{job_id:x}.ptbj"));
    assert!(
        !journal_file.exists(),
        "expired job's journal survived GC: {}",
        journal_file.display()
    );

    // Budgets may cost recomputation, never correctness: the same sweep
    // on an unbudgeted daemon must be byte-identical.
    let pristine_server = Server::start(&worker_config()).expect("bind unbudgeted daemon");
    let sweep = sweep_body(&[1, 8], 42);
    let soaked = loop {
        let (status, body) = client::request_json(addr, "POST", "/sweep", &sweep).unwrap();
        match status {
            200 => break body,
            503 => std::thread::sleep(Duration::from_millis(50)),
            _ => panic!("soaked /sweep answered {status}: {body}"),
        }
    };
    let pristine = post_sweep(pristine_server.addr(), &sweep);
    assert_eq!(
        soaked, pristine,
        "budgeted sweep diverged from the unbudgeted reference"
    );

    for server in [server, pristine_server] {
        server.shutdown();
        server.join();
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The coordinator-HA drills. Two workers (every shard dawdling 200 ms
/// at `shard_exec`, so the failure lands with work in flight), an
/// active coordinator journaling on a 600 ms lease, and one hot
/// standby tailing it. A journaled background sweep is submitted, then:
///
/// - `fence == false` SIGKILLs the active once a shard has landed;
/// - `fence == true` leaves it running but blinds its tail route after
///   the standby's initial sync (`coordinator_pause=err@2`), so the
///   standby promotes while the zombie still dispatches. The workers
///   must reject the zombie's stale epoch (`fenced_dispatches >= 1`, a
///   worker with `epoch_seen >= 2`) and it must demote itself.
///
/// Either way the promoted standby reports leadership at epoch >= 2
/// with zero `audit_mismatches`, the job's rows match a lone worker's,
/// and fresh sync sweeps through it are byte-identical to a single node
/// in both codecs.
fn coordinator_failover_drill(fence: bool) {
    let _guard = serialized();
    let scratch = tmp_path("failover");
    let workers: Vec<Daemon> = (0..2)
        .map(|_| Daemon::worker(None, &[("PTB_FAILPOINTS", "shard_exec=sleep:200")]))
        .collect();
    let worker_list = workers
        .iter()
        .map(|w| w.addr.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let coordinator = |job_dir: &str, extra: &[&str], envs: &[(&str, &str)]| {
        let mut args = vec![
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &worker_list,
            "--job-dir",
            job_dir,
            "--probe-ms",
            "100",
            "--probe-timeout-ms",
            "500",
            "--fail-threshold",
            "1",
            "--lease-ms",
            "600",
        ];
        args.extend_from_slice(extra);
        Daemon::spawn(&args, envs)
    };

    // Two free index polls let the standby finish its initial mirror
    // sync; every later poll errors, so the standby hears silence and
    // promotes while the active still dispatches.
    let pause: &[(&str, &str)] = if fence {
        &[("PTB_FAILPOINTS", "coordinator_pause=err@2")]
    } else {
        &[]
    };
    let mut active = coordinator(&scratch.join("active").display().to_string(), &[], pause);

    // Submit before the standby boots: its first tail sync then mirrors
    // the submit record, so the drill never races the mirror against
    // the failpoint or the kill. The fence drill's extra shards keep
    // the zombie dispatching well past the promotion.
    let tws: Vec<u32> = (1..=if fence { 32 } else { 24 }).collect();
    let sweep = sweep_body(&tws, 42);
    let id = submit_background(active.addr, &sweep);
    let peer = active.addr.to_string();
    let standby = coordinator(
        &scratch.join("standby").display().to_string(),
        &["--standby", "--peer", &peer],
        &[],
    );

    if !fence {
        // Kill once a shard has round-tripped, with the rest in flight.
        let deadline = Instant::now() + Duration::from_secs(60);
        while metric_u64(&metrics(active.addr), "shards_dispatched") == 0 {
            assert!(
                Instant::now() < deadline,
                "no shard ever completed before the coordinator kill"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        active.kill();
    }

    // Before promotion the standby 307s to the (dead or fenced) active.
    let poll = poll_done(&[active.addr, standby.addr], id, Duration::from_secs(120));
    let rows_text = serde_json::to_string(poll.get("rows").expect("rows present")).unwrap();

    // The zombie also said "active" until its demotion, so only the
    // standby is consulted.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !matches!(
        client::request_json(standby.addr, "GET", "/healthz", ""),
        Ok((200, body)) if body.contains("\"role\": \"active\"")
    ) {
        assert!(
            Instant::now() < deadline,
            "the standby never promoted itself"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    if fence {
        // Fenced at the worker boundary, demoted on the first 409.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let m = metrics(active.addr);
            let still_leader = m.get("leader").and_then(Value::as_bool) == Some(true);
            if metric_u64(&m, "fenced_dispatches") >= 1 && !still_leader {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the zombie coordinator was never fenced: {m:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(
            workers
                .iter()
                .any(|w| metric_u64(&metrics(w.addr), "epoch_seen") >= 2),
            "no worker ever saw the promoted epoch"
        );
    }

    let m = metrics(standby.addr);
    let epoch = metric_u64(&m, "epoch");
    assert!(epoch >= 2, "promoted coordinator claims epoch {epoch}");
    assert_eq!(
        m.get("leader").and_then(Value::as_bool),
        Some(true),
        "promoted coordinator does not report leadership: {m:?}"
    );
    assert_eq!(metric_u64(&m, "audit_mismatches"), 0, "{m:?}");

    // Failover may cost recomputation, never correctness.
    let direct = post_sweep(workers[0].addr, &sweep);
    let failover_rows: Vec<SweepRow> = serde_json::from_str(&rows_text).unwrap();
    let direct_rows: Vec<SweepRow> = serde_json::from_str(&direct).unwrap();
    assert_eq!(
        failover_rows, direct_rows,
        "failover rows diverge from a single node"
    );

    // The bit-identity contract survives promotion, in both codecs.
    let small = sweep_body(&[1, 2, 4, 8], 42);
    let via_cluster = post_sweep(standby.addr, &small);
    let via_worker = post_sweep(workers[1].addr, &small);
    assert_eq!(
        via_cluster, via_worker,
        "promoted coordinator's sweep is not byte-identical to a single node"
    );
    let request: Value = serde_json::from_str(&small).unwrap();
    let frame = wire::frame(wire::KIND_SWEEP, &request);
    let bin = client::request_typed(
        standby.addr,
        "POST",
        "/sweep",
        Some(wire::CONTENT_TYPE),
        &frame,
    )
    .unwrap();
    assert_eq!(bin.status, 200, "{}", String::from_utf8_lossy(&bin.body));
    let (kind, value) = wire::unframe(&bin.body).expect("response frame decodes");
    assert_eq!(kind, wire::KIND_ROWS);
    assert_eq!(
        serde_json::to_string(&value).unwrap(),
        via_cluster,
        "the binary sweep does not decode to the JSON bytes"
    );

    drop((active, standby, workers));
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn standby_finishes_the_job_of_a_killed_coordinator() {
    coordinator_failover_drill(false);
}

#[test]
fn zombie_coordinator_is_fenced_by_the_workers() {
    coordinator_failover_drill(true);
}

#[test]
fn killed_worker_resumes_its_journaled_job_on_reboot() {
    let _guard = serialized();
    let job_dir = tmp_path("crash");
    // Each of the 3 shards dawdles 400 ms, so a SIGKILL at ~1 s lands
    // mid-job with the submission (and usually a shard or two)
    // journaled.
    let mut doomed = Daemon::worker(
        Some(&job_dir),
        &[("PTB_FAILPOINTS", "shard_exec=sleep:400")],
    );
    let id = submit_background(
        doomed.addr,
        "{\"network\": \"DVS-Gesture\", \"policy\": \"PTB+StSAP\", \"tws\": [1, 4, 8], \
         \"quick\": true}",
    );
    std::thread::sleep(Duration::from_secs(1));
    doomed.kill();
    let journaled = std::fs::read_dir(&job_dir)
        .expect("job dir exists")
        .flatten()
        .any(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("job-") && name.ends_with(".ptbj")
        });
    assert!(journaled, "no journal file written before the kill");

    let rebooted = Daemon::worker(Some(&job_dir), &[]);
    poll_done(&[rebooted.addr], id, Duration::from_secs(60));
    let m = metrics(rebooted.addr);
    assert_eq!(
        m.get("journal")
            .and_then(|j| j.get("resumed_jobs"))
            .and_then(Value::as_u64),
        Some(1),
        "reboot did not resume the journaled job: {m:?}"
    );

    drop(rebooted);
    let _ = std::fs::remove_dir_all(&job_dir);
}
