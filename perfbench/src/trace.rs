//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer's public entry point. Spans are
//! kept in memory and written out once, when the benchmark ends. The
//! parent of a span is whichever span was open when it started: the
//! benchmark runs one call at a time (campaign workers are fixed at 1, and
//! the calling thread blocks while that worker runs), so one global stack
//! of open spans is exact even when a span starts on the campaign's
//! worker thread.
//!
//! Recording is off unless [`enable`] was called; a disabled [`span`] is a
//! relaxed load and a direct call.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::alloc;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dense id (index into the recorded list).
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `<layer>.<call>`, or a root name (`setup`, `pass`, `replay`).
    pub name: &'static str,
    /// Nanoseconds since recording was enabled.
    pub start_ns: u64,
    /// Nanoseconds since recording was enabled.
    pub end_ns: u64,
    /// Operation index within the pass (job id, campaign point, …).
    pub op: u64,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

static ON: AtomicBool = AtomicBool::new(false);
static REC: Mutex<Option<Recorder>> = Mutex::new(None);

/// Starts recording spans.
pub fn enable() {
    let mut rec = REC.lock().expect("span recorder poisoned");
    *rec = Some(Recorder {
        epoch: Instant::now(),
        spans: Vec::with_capacity(1 << 12),
        open: Vec::new(),
    });
    ON.store(true, Ordering::Relaxed);
}

/// Pauses (`false`) or resumes (`true`) recording; spans opened while
/// paused are not recorded.
pub fn set_recording(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name` for operation `op`.
pub fn span<T>(name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let id = {
        let mut guard = REC.lock().expect("span recorder poisoned");
        let rec = guard.as_mut().expect("span recorder enabled");
        let id = rec.spans.len();
        let (allocs, alloc_bytes) = alloc::snapshot();
        rec.spans.push(Span {
            id,
            parent: rec.open.last().copied(),
            name,
            start_ns: rec.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            op,
            allocs,
            alloc_bytes,
        });
        rec.open.push(id);
        id
    };
    let out = f();
    let mut guard = REC.lock().expect("span recorder poisoned");
    let rec = guard.as_mut().expect("span recorder enabled");
    let end_ns = rec.epoch.elapsed().as_nanos() as u64;
    let (allocs, alloc_bytes) = alloc::snapshot();
    let s = &mut rec.spans[id];
    s.end_ns = end_ns;
    s.allocs = allocs - s.allocs;
    s.alloc_bytes = alloc_bytes - s.alloc_bytes;
    let popped = rec.open.pop();
    debug_assert_eq!(popped, Some(id), "spans must nest");
    out
}

/// Every span recorded so far, in start order.
pub fn spans() -> Vec<Span> {
    REC.lock()
        .expect("span recorder poisoned")
        .as_ref()
        .map(|r| r.spans.clone())
        .unwrap_or_default()
}

/// Writes `spans` as JSON lines, one span per line, tagged with
/// `workload`.
pub fn write_jsonl(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
            s.id, s.name, s.op, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
        )?;
    }
    out.flush()
}
