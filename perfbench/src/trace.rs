//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only in a traced run (`--trace 1`).  Each one covers a
//! call from the benchmark into a layer (parse, per-def check, one request
//! from send to reply, daemon boot, a stats query) or a phase timer the
//! program already returns (typecheck, exelim, solving, server time), which
//! is attached as a child of the call that returned it.  Nothing is written
//! until the run ends.  The recorder is the benchmark's own, not `rel-obs`,
//! so changes to the program's observability layer leave the benchmark as
//! it is.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Time spent inside `record`: the tracing overhead of a traced run.
static RECORD_NS: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the benchmark's clock origin.
pub fn ns(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a finished span and returns its id (0 when tracing is off, so
/// children of an unrecorded span are dropped too).
pub fn record(name: &'static str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    let t0 = Instant::now();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns: end_ns.max(start_ns),
    });
    RECORD_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    id
}

/// Seconds spent recording spans so far.
pub fn overhead_s() -> f64 {
    RECORD_NS.load(Ordering::Relaxed) as f64 / 1e9
}

/// Records `children` (name, duration) laid end to end from `start_ns`
/// under `parent`: how the per-def phase timers and the server-reported
/// time are attached to the call that returned them.
pub fn record_children(parent: u64, start_ns: u64, children: &[(&'static str, u64)]) {
    if parent == 0 {
        return;
    }
    let mut at = start_ns;
    for &(name, dur) in children {
        record(name, parent, at, at + dur);
        at += dur;
    }
}

pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Per span name: (count, total ms, self ms).  A span's self time is its
/// duration minus the part its children cover (children of one span do not
/// overlap: they are either sequential calls or phase timers laid end to
/// end), floored at zero.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let row = out.entry(s.name).or_default();
        row.0 += 1;
        row.1 += dur as f64 / 1e6;
        row.2 += own as f64 / 1e6;
    }
    out
}

/// The spans in Chrome's trace-event format (load in chrome://tracing or
/// Perfetto); `args.parent` keeps the tree explicit.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "a",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "b",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                name: "b",
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"].0, 1);
        assert!((t["a"].2 - 50e-6).abs() < 1e-12);
        assert_eq!(t["b"].0, 2);
        assert!((t["b"].2 - 50e-6).abs() < 1e-12);
    }
}
