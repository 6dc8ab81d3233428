//! The repository's benchmark: one command, three workloads, every
//! end-to-end metric with its unit and sample count, and a traced run
//! that breaks the time down layer by layer. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig_sweep|serve_mix|cluster_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Run records (host facts, exact
//! counts, every metric) and traced spans land in `.bench_out/`.

mod cluster;
mod fig;
mod host;
mod ledger;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// Where run records and span files are written, relative to the
/// checkout root the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FigSweep,
    ServeMix,
    ClusterSweep,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fig_sweep" => Some(Workload::FigSweep),
            "serve_mix" => Some(Workload::ServeMix),
            "cluster_sweep" => Some(Workload::ClusterSweep),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FigSweep => "fig_sweep",
            Workload::ServeMix => "serve_mix",
            Workload::ClusterSweep => "cluster_sweep",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
    /// What the value is, when the name alone does not say (e.g. which
    /// percentile a tail latency is).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sweep points, requests or sweeps).
    pub attempted: u64,
    /// Attempted operations that failed: a non-2xx answer, a mismatch
    /// against the in-process reference, or a golden-digest mismatch.
    pub failed: u64,
    /// Broken run-level checks (exact-count disagreements and the like).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Deterministic counts, recorded so they can be compared across
    /// runs.
    pub counts: Vec<(String, u64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("check failed: {what}");
        self.problems.push(what);
    }

    /// Records `values` as an exact count that must agree across every
    /// pass of this run.
    pub fn exact(&mut self, name: &str, values: &[u64]) {
        if let Some(&first) = values.first() {
            if values.iter().any(|&v| v != first) {
                self.problem(format!(
                    "exact count {name} differs between passes: {values:?}"
                ));
            }
            self.counts.push((name.to_string(), first));
        }
    }
}

/// How far a workload's timed passes have got.
pub struct Progress {
    pub passes: usize,
    pub timed_s: f64,
    pub samples: usize,
}

impl Progress {
    /// Whether to run another pass: until the time budget, the minimum
    /// pass count and the minimum sample count are all met.
    pub fn keep_going(&self, seconds: f64, min_passes: usize, min_samples: usize) -> bool {
        self.passes < min_passes || self.timed_s < seconds || self.samples < min_samples
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so one seed always yields one input sequence.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle driven by [`splitmix`].
pub fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ptb-perfbench --workload fig_sweep|serve_mix|cluster_sweep \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let load_start = host::loadavg();
    let steal_start = host::steal_ms();
    let outcome = if args.trace {
        ledger::run(&args)
    } else {
        match args.workload {
            Workload::FigSweep => fig::run(&args),
            Workload::ServeMix => serve::run(&args),
            Workload::ClusterSweep => cluster::run(&args),
        }
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if outcome.attempted == 0 {
        outcome.problem("no operation was attempted");
    }
    let host = format!(
        "{{\"nproc\": {}, \"git_revision\": {}, \"rustc\": {}, \"loadavg_start\": {}, \
         \"loadavg_end\": {}, \"runqueue_wait_ms\": {}, \"steal_ms\": {}}}",
        host::nproc(),
        serde_json::to_string(host::git_revision().as_str()).expect("string"),
        serde_json::to_string(host::rustc_version().as_str()).expect("string"),
        serde_json::to_string(load_start.as_str()).expect("string"),
        serde_json::to_string(host::loadavg().as_str()).expect("string"),
        json_number(host::runqueue_wait_ms().unwrap_or(f64::NAN)),
        json_number(match (steal_start, host::steal_ms()) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        }),
    );
    eprintln!("host: {host}");

    println!(
        "{} seed={} trace={} attempted={} failed={} correct={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for m in &outcome.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "  {:<40} {:>14.6} {:<6} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for (name, v) in &outcome.counts {
        println!("  exact {name} = {v}");
    }

    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": \"{}\"}}",
                serde_json::to_string(m.name.as_str()).expect("string"),
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {host}, \
         \"counts\": {{{}}}, \"samples\": {{{}}}, \"problems\": {}, \"metrics\": {{{metrics}}}}}\n",
        args.workload.name(),
        args.seed,
        args.trace,
        outcome
            .counts
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect::<Vec<_>>()
            .join(", "),
        outcome
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.samples))
            .collect::<Vec<_>>()
            .join(", "),
        serde_json::to_string(&outcome.problems).expect("strings"),
    );
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("warning: could not write {path}: {e}");
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    ExitCode::SUCCESS
}
