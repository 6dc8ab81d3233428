//! The fleet harness shared by the process-spawning cluster tests:
//! `ptb-clusterd` daemons on ephemeral ports behind a kill-on-drop
//! guard, a request helper that follows the coordinator-HA `307`
//! redirect (`docs/PROTOCOL.md` §7.4), and a `/metrics` reader.

// Each test crate compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ptb_serve::client;
use serde::Value;

/// A scratch path unique to this process and call.
pub fn tmp_path(tag: &str) -> PathBuf {
    static UNIQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "ptb-cluster-test-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed),
    ))
}

/// One spawned `ptb-clusterd` process, SIGKILLed on drop so no failure
/// path leaks daemons.
pub struct Daemon {
    child: Child,
    /// The ephemeral address it bound.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `ptb-clusterd ARGS --port-file F` with extra environment
    /// and waits for the port file.
    pub fn spawn(args: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let port_file = tmp_path("port");
        let mut command = Command::new(env!("CARGO_BIN_EXE_ptb-clusterd"));
        command
            .args(args)
            .arg("--port-file")
            .arg(&port_file)
            .envs(envs.iter().copied())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let mut daemon = Daemon {
            child: command.spawn().expect("spawn ptb-clusterd"),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let port = loop {
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|text| text.trim().parse::<u16>().ok())
            {
                break port;
            }
            assert!(
                Instant::now() < deadline,
                "ptb-clusterd {args:?} never wrote its port file"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        let _ = std::fs::remove_file(&port_file);
        daemon.addr.set_port(port);
        daemon
    }

    /// A worker process (`--spawn-worker`, two pool threads) journaling
    /// into `job_dir` (`None` = off).
    pub fn worker(job_dir: Option<&Path>, envs: &[(&str, &str)]) -> Daemon {
        let job_dir = job_dir.map_or_else(|| "off".into(), |d| d.display().to_string());
        Daemon::spawn(
            &[
                "--spawn-worker",
                "--addr",
                "127.0.0.1:0",
                "--job-dir",
                &job_dir,
                "--workers",
                "2",
            ],
            envs,
        )
    }

    /// `kill -9`, then reap.
    pub fn kill(&mut self) {
        self.child.kill().expect("kill -9 the daemon");
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request tried against each candidate in turn, following a
/// single `307` `Location` hop. Refused connections, `503`s and
/// unfollowable redirects mean "try the next candidate"; `None` means
/// nobody gave a definitive answer this round.
pub fn follow(
    candidates: &[SocketAddr],
    method: &str,
    path: &str,
    body: &str,
) -> Option<(u16, String)> {
    for &addr in candidates {
        let Ok(mut resp) = client::request_typed(addr, method, path, None, body.as_bytes()) else {
            continue;
        };
        if resp.status == 307 {
            let Some(target) = resp
                .location
                .as_deref()
                .and_then(|loc| loc.to_socket_addrs().ok())
                .and_then(|mut it| it.next())
            else {
                continue;
            };
            match client::request_typed(target, method, path, None, body.as_bytes()) {
                Ok(followed) => resp = followed,
                Err(_) => continue,
            }
        }
        match resp.status {
            307 | 503 => continue,
            status => return Some((status, String::from_utf8_lossy(&resp.body).into())),
        }
    }
    None
}

/// Polls `GET /jobs/{id}` through [`follow`] until the job is done and
/// returns its poll body. A `404` retries: a promoted standby answers
/// it between taking leadership and finishing its journal replay.
pub fn poll_done(candidates: &[SocketAddr], id: u64, within: Duration) -> Value {
    let path = format!("/jobs/{id}");
    let deadline = Instant::now() + within;
    loop {
        if let Some((status, body)) = follow(candidates, "GET", &path, "") {
            match status {
                200 => {
                    let poll: Value = serde_json::from_str(&body).expect("poll body parses");
                    assert_ne!(
                        poll.get("failed").and_then(Value::as_bool),
                        Some(true),
                        "job {id} failed: {body}"
                    );
                    if poll.get("done").and_then(Value::as_bool) == Some(true) {
                        return poll;
                    }
                }
                404 => {}
                other => panic!("poll of job {id} answered {other}: {body}"),
            }
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Submits `body` (a JSON object) as a background `/sweep` and returns
/// the job id from the `202` ack.
pub fn submit_background(addr: SocketAddr, body: &str) -> u64 {
    let background = format!(
        "{}, \"background\": true}}",
        body.strip_suffix('}').expect("a JSON object")
    );
    let (status, ack) = client::request_json(addr, "POST", "/sweep", &background).unwrap();
    assert_eq!(status, 202, "{ack}");
    let ack: Value = serde_json::from_str(&ack).unwrap();
    ack.get("job").and_then(Value::as_u64).expect("job id")
}

/// One `/metrics` fetch, parsed.
pub fn metrics(addr: SocketAddr) -> Value {
    let (status, body) = client::request_json(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).expect("/metrics parses")
}

/// A numeric counter out of a parsed `/metrics` body (0 when absent).
pub fn metric_u64(metrics: &Value, key: &str) -> u64 {
    metrics.get(key).and_then(Value::as_u64).unwrap_or(0)
}
