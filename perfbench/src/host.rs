//! Host facts recorded with every run, so host-caused noise can be told
//! apart from program-caused noise. Diagnostics only: no run is ever
//! dropped because of them.

use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, or "unknown" outside a git work tree.
pub fn git_revision() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

/// First line of a command's stdout; the command is waited for.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// The three load averages of `/proc/loadavg`.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Time this process's main thread spent runnable but waiting for a
/// CPU (field 2 of `/proc/self/schedstat`), in milliseconds.
pub fn runqueue_wait_ms() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: f64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(ns / 1e6)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Time the hypervisor ran other guests on the CPUs of this VM (the
/// `steal` column of `/proc/stat`), in milliseconds since boot.
pub fn steal_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // USER_HZ is 100 on every Linux target this runs on.
    Some(ticks * 10.0)
}
