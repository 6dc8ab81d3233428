//! Spans recorded by the benchmark around each call it makes into a
//! layer of the program. Off by default: a disabled [`span`] is one
//! relaxed load and a direct call. Spans stay in memory until
//! [`take`] hands them out at the end of a run.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans on this thread: (span id, request id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// One finished span. Times are nanoseconds since the first span of the
/// process; `parent` is 0 for a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// A fresh request id; every span opened under a span carrying it
/// inherits it.
pub fn new_request() -> u64 {
    NEXT_REQ.fetch_add(1, Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`. `req` of 0 inherits the
/// enclosing span's request id.
pub fn span<R>(name: impl Into<Cow<'static, str>>, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, req) = STACK.with(|s| {
        let s = s.borrow();
        let (parent, inherited) = s.last().copied().unwrap_or((0, 0));
        (parent, if req == 0 { inherited } else { req })
    });
    STACK.with(|s| s.borrow_mut().push((id, req)));
    let start = epoch.elapsed().as_nanos() as u64;
    let out = f();
    let end = epoch.elapsed().as_nanos() as u64;
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().expect("span store lock").push(Span {
        id,
        parent,
        req,
        name: name.into(),
        start_ns: start,
        end_ns: end,
    });
    out
}

/// Hands out (and clears) every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store lock"))
}

/// Per-name totals: calls, total time and self time (duration minus the
/// time its child spans cover; children run nested on the parent's
/// thread, so their durations never overlap).
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<String, Totals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name.to_string()).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// One JSON object per line, in id order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| s.id);
    let mut out = String::new();
    for s in sorted {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.id,
            s.parent,
            s.req,
            serde_json::to_string(s.name.as_ref()).expect("string serialization"),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}
