//! Cluster chaos: the coordinator must keep its bit-identity promise
//! while the fleet misbehaves. One test `kill -9`s a worker *process*
//! mid-sweep (spawned through the `ptb-clusterd --spawn-worker` role,
//! so `CARGO_BIN_EXE_ptb-clusterd` is the only binary needed) and
//! asserts the dead worker's shards are reclaimed by the survivor with
//! rows bit-identical to a no-failure run; another injects garbage
//! worker responses through the `cluster_dispatch` failpoint and
//! asserts retries succeed without any liveness penalty.
//!
//! Failpoints are process-global, so the tests serialize on
//! [`TEST_LOCK`].

mod common;

use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use common::{tmp_path, Daemon};
use ptb_accel::config::Policy;
use ptb_bench::{failpoint, sweep_summary_cached, RunOptions, SweepRow};
use ptb_cluster::{ClusterConfig, Coordinator};
use ptb_serve::client;
use ptb_serve::{Server, ServerConfig};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A killable worker *process* (`ptb-clusterd --spawn-worker`) with
/// every sweep shard slowed by `shard_ms` at the `shard_exec`
/// failpoint, so a kill reliably lands mid-shard.
fn spawn_worker_process(shard_ms: u64) -> Daemon {
    Daemon::worker(
        None,
        &[("PTB_FAILPOINTS", &format!("shard_exec=sleep:{shard_ms}"))],
    )
}

#[test]
fn killed_worker_mid_sweep_is_reclaimed_and_rows_stay_bit_identical() {
    let _guard = serialized();
    let mut workers = [spawn_worker_process(200), spawn_worker_process(200)];
    let coordinator = Coordinator::start(&ClusterConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers.iter().map(|w| w.addr.to_string()).collect(),
        fail_threshold: 1,
        probe_interval_ms: 100,
        probe_timeout_ms: 500,
        dispatch_timeout_ms: 10_000,
        ..ClusterConfig::default()
    })
    .expect("bind coordinator");
    let addr = coordinator.addr();

    // Enough shards that both workers own several: kills land mid-shard
    // and leave pending shards behind to reclaim.
    let tws: Vec<u32> = (1..=24).collect();
    let body = format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tws\": {tws:?}, \
         \"quick\": true, \"background\": true}}"
    );
    let (status, text) = client::request_json(addr, "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 202, "{text}");
    let ack: serde_json::Value = serde_json::from_str(&text).unwrap();
    let id = ack.get("job").and_then(|v| v.as_u64()).expect("job id");

    // Kill whichever worker completes a shard first — at that point it
    // is already deep into its next one (each shard dawdles 200 ms).
    let deadline = Instant::now() + Duration::from_secs(60);
    let victim = loop {
        let dispatched: Vec<u64> = coordinator
            .metrics()
            .per_worker
            .iter()
            .map(|w| w.dispatched.load(Ordering::Relaxed))
            .collect();
        if let Some(v) = dispatched.iter().position(|&d| d >= 1) {
            break v;
        }
        assert!(Instant::now() < deadline, "no shard ever completed");
        std::thread::sleep(Duration::from_millis(10));
    };
    workers[victim].kill();

    // The sweep must still finish, and finish *right*.
    let rows: Vec<SweepRow> = loop {
        let (status, text) = client::request_json(addr, "GET", &format!("/jobs/{id}"), "").unwrap();
        assert_eq!(status, 200, "{text}");
        let poll: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_ne!(
            poll.get("failed").and_then(|v| v.as_bool()),
            Some(true),
            "sweep must survive the kill: {text}"
        );
        if poll.get("done").and_then(|v| v.as_bool()) == Some(true) {
            break serde_json::from_value(poll.get("rows").expect("rows present")).unwrap();
        }
        assert!(
            Instant::now() < deadline,
            "sweep never finished after the kill"
        );
        std::thread::sleep(Duration::from_millis(50));
    };

    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    let expected = sweep_summary_cached(&spec, Policy::ptb(), &tws, &opts, &opts.new_cache());
    assert_eq!(
        rows, expected,
        "rows after a mid-sweep kill must be bit-identical to a no-failure run"
    );

    let m = coordinator.metrics();
    assert!(
        m.worker_deaths.load(Ordering::Relaxed) >= 1,
        "the kill must register as a worker death"
    );
    assert!(
        m.shards_reclaimed.load(Ordering::Relaxed) >= 1,
        "the victim's in-flight shard must be reclaimed by the survivor"
    );

    drop(workers);
    coordinator.shutdown();
    coordinator.join();
}

#[test]
fn garbage_worker_responses_are_retried_without_liveness_penalty() {
    let _guard = serialized();
    let workers: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(&ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_cap: 32,
                cache: ptb_bench::CacheMode::Mem,
                ..ServerConfig::default()
            })
            .expect("bind worker")
        })
        .collect();
    let coordinator = Coordinator::start(&ClusterConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
        ..ClusterConfig::default()
    })
    .expect("bind coordinator");
    let addr = coordinator.addr();

    // Every dispatch fails the response check while armed: the workers
    // answer (so they are alive), but the coordinator must treat the
    // answers as garbage and re-queue the shards.
    failpoint::set("cluster_dispatch", "err").unwrap();
    let tws = [1u32, 2, 4, 8];
    let body = format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB+StSAP\", \"tws\": {tws:?}, \
         \"quick\": true, \"seed\": 42}}"
    );
    let sweep = std::thread::spawn(move || client::request_json(addr, "POST", "/sweep", &body));
    let deadline = Instant::now() + Duration::from_secs(30);
    while coordinator
        .metrics()
        .dispatch_failures
        .load(Ordering::Relaxed)
        == 0
    {
        assert!(Instant::now() < deadline, "no dispatch ever failed");
        std::thread::sleep(Duration::from_millis(5));
    }
    failpoint::clear("cluster_dispatch");

    let (status, text) = sweep.join().unwrap().unwrap();
    assert_eq!(status, 200, "{text}");
    let rows: Vec<SweepRow> = serde_json::from_str(&text).unwrap();
    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    let expected = sweep_summary_cached(
        &spec,
        Policy::ptb_with_stsap(),
        &tws,
        &opts,
        &opts.new_cache(),
    );
    assert_eq!(rows, expected, "garbage responses must not corrupt rows");

    let m = coordinator.metrics();
    assert!(m.dispatch_failures.load(Ordering::Relaxed) >= 1);
    assert_eq!(
        m.worker_deaths.load(Ordering::Relaxed),
        0,
        "garbage proves liveness: answering workers must not be declared dead"
    );
    let (status, text) = client::request_json(addr, "GET", "/cluster", "").unwrap();
    assert_eq!(status, 200);
    let topo: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(topo.get("alive").and_then(|v| v.as_u64()), Some(2));

    coordinator.shutdown();
    coordinator.join();
    for w in workers {
        w.shutdown();
        w.join();
    }
}

/// A `kill -9`ed *coordinator* is the journal test: replay must resume
/// a mid-sweep job under its original id and finish it with rows
/// bit-identical to an uninterrupted run. Exercised in-process here by
/// starting a second coordinator over the first one's journal directory
/// (the first is shut down mid-sweep rather than killed — the journal
/// path is identical, and `kill -9` of a real coordinator process is
/// covered by `fleet_drills.rs`).
#[test]
fn coordinator_restart_resumes_a_journaled_sweep_from_its_dispatch_journal() {
    let _guard = serialized();
    let workers = [spawn_worker_process(150), spawn_worker_process(150)];
    let job_dir = tmp_path("journal");
    let _ = std::fs::remove_dir_all(&job_dir);
    let cfg = ClusterConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers.iter().map(|w| w.addr.to_string()).collect(),
        job_dir: Some(job_dir.clone()),
        fail_threshold: 1,
        probe_interval_ms: 100,
        probe_timeout_ms: 500,
        dispatch_timeout_ms: 10_000,
        ..ClusterConfig::default()
    };
    let first = Coordinator::start(&cfg).expect("bind first coordinator");

    let tws: Vec<u32> = (1..=12).collect();
    let body = format!(
        "{{\"network\": \"DVS-Gesture\", \"policy\": \"PTB\", \"tws\": {tws:?}, \
         \"quick\": true, \"background\": true}}"
    );
    let (status, text) = client::request_json(first.addr(), "POST", "/sweep", &body).unwrap();
    assert_eq!(status, 202, "{text}");
    let ack: serde_json::Value = serde_json::from_str(&text).unwrap();
    let id = ack.get("job").and_then(|v| v.as_u64()).expect("job id");

    // Let some — not all — shards land, then stop the coordinator cold.
    let deadline = Instant::now() + Duration::from_secs(60);
    while first.metrics().shards_dispatched.load(Ordering::Relaxed) < 2 {
        assert!(Instant::now() < deadline, "no shards completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    first.shutdown();
    first.join();

    let second = Coordinator::start(&cfg).expect("bind second coordinator");
    let rows: Vec<SweepRow> = loop {
        let (status, text) =
            client::request_json(second.addr(), "GET", &format!("/jobs/{id}"), "").unwrap();
        assert_eq!(status, 200, "job must survive the restart: {text}");
        let poll: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_ne!(
            poll.get("failed").and_then(|v| v.as_bool()),
            Some(true),
            "{text}"
        );
        if poll.get("done").and_then(|v| v.as_bool()) == Some(true) {
            break serde_json::from_value(poll.get("rows").expect("rows present")).unwrap();
        }
        assert!(Instant::now() < deadline, "resumed sweep never finished");
        std::thread::sleep(Duration::from_millis(50));
    };

    let opts = RunOptions::quick();
    let spec = spikegen::network_by_name("DVS-Gesture").unwrap();
    let expected = sweep_summary_cached(&spec, Policy::ptb(), &tws, &opts, &opts.new_cache());
    assert_eq!(
        rows, expected,
        "a resumed sweep must be bit-identical to an uninterrupted one"
    );

    drop(workers);
    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&job_dir);
}
