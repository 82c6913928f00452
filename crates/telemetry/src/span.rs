//! Hierarchical spans: RAII guards over monotonic intervals, buffered per
//! thread and drained into one global trace.
//!
//! Each thread keeps a stack of the spans currently open on it, so a
//! completed interval records which span encloses it — Perfetto nests by
//! time containment per track, and the recorded parent makes the nesting
//! auditable without a viewer. Completed events accumulate in a small
//! per-thread buffer that flushes into the global trace when it fills.
//! Each buffer is also registered in a global list, and the export path
//! drains *every* registered buffer: `std::thread::scope` signals
//! completion when the worker's closure returns, **before** its TLS
//! destructors run, so an exit-time-only flush would race the exporter
//! and drop the tail of the trace.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span, in chrome-trace "complete event" terms.
#[derive(Clone, Debug)]
pub(crate) struct TraceEvent {
    pub name: &'static str,
    pub cat: &'static str,
    /// Microseconds since the trace epoch.
    pub ts_us: u64,
    pub dur_us: u64,
    pub tid: u32,
    /// Innermost span still open on this thread when this one closed.
    pub parent: Option<&'static str>,
}

/// Trace-size backstop: a runaway sweep stops growing the trace here and
/// counts what it dropped instead (`telemetry.trace_dropped`).
const MAX_TRACE_EVENTS: usize = 1 << 20;
/// Thread-local events buffered before taking the global lock.
const FLUSH_AT: usize = 128;

static TRACE: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
/// Every live thread's event buffer, so the exporter can drain buffers the
/// owning thread has not flushed (or will never flush: a thread parked in
/// a pool, or one whose TLS destructors have not run yet).
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<TraceEvent>>>>> = Mutex::new(Vec::new());

/// Moves `buf`'s contents into the global trace, honoring the size cap.
fn drain_into_trace(buf: &mut Vec<TraceEvent>) {
    if buf.is_empty() {
        return;
    }
    let mut trace = TRACE.lock().expect("trace poisoned");
    let room = MAX_TRACE_EVENTS.saturating_sub(trace.len());
    let take = room.min(buf.len());
    let dropped = buf.len() - take;
    trace.extend(buf.drain(..take));
    drop(trace);
    buf.clear();
    if dropped > 0 {
        crate::counter_add("telemetry.trace_dropped", dropped as u64);
    }
}

struct ThreadState {
    tid: u32,
    stack: Vec<&'static str>,
    buf: Arc<Mutex<Vec<TraceEvent>>>,
}

thread_local! {
    static THREAD: RefCell<ThreadState> = RefCell::new({
        let buf = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().expect("buffers poisoned").push(Arc::clone(&buf));
        ThreadState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            buf,
        }
    });
}

/// An open span. Closes (and records, when telemetry is enabled) on drop;
/// [`Span::finish_ms`] closes it early and returns the duration.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    name: &'static str,
    cat: &'static str,
    start: Option<Instant>,
    /// Whether this span was pushed on the thread-local stack (i.e. it was
    /// created with telemetry enabled and must record on close).
    tracked: bool,
}

/// Opens a span. Free while telemetry is disabled: no clock read, no
/// thread-local touch — just the gate check.
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !crate::enabled() {
        return Span { name, cat, start: None, tracked: false };
    }
    let start = Instant::now();
    push(name);
    Span { name, cat, start: Some(start), tracked: true }
}

/// Opens a span that **always** measures, recording only when telemetry is
/// enabled. For call sites whose duration feeds an existing output column
/// (`decision_ms`, `repair_ms`, …): the column keeps working with
/// telemetry off, at exactly the cost of the `Instant` pair it replaced.
pub fn timed_span(name: &'static str, cat: &'static str) -> Span {
    let tracked = crate::enabled();
    let start = Instant::now();
    if tracked {
        push(name);
    }
    Span { name, cat, start: Some(start), tracked }
}

fn push(name: &'static str) {
    let _ = THREAD.try_with(|t| t.borrow_mut().stack.push(name));
}

impl Span {
    /// Closes the span now and returns its duration in milliseconds — the
    /// single measurement both the trace and the caller's column read.
    pub fn finish_ms(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let Some(start) = self.start.take() else {
            return 0.0;
        };
        let dur = start.elapsed();
        let ms = dur.as_secs_f64() * 1e3;
        if !self.tracked {
            return ms;
        }
        self.tracked = false;
        let ts_us =
            start.saturating_duration_since(crate::epoch()).as_micros().min(u64::MAX as u128)
                as u64;
        let dur_us = dur.as_micros().min(u64::MAX as u128) as u64;
        let _ = THREAD.try_with(|t| {
            let mut t = t.borrow_mut();
            // Pop self; spans are strictly LIFO per thread, but a guard
            // leaked across threads should not corrupt the stack.
            if t.stack.last() == Some(&self.name) {
                t.stack.pop();
            }
            let parent = t.stack.last().copied();
            let tid = t.tid;
            let mut buf = t.buf.lock().expect("thread buffer poisoned");
            buf.push(TraceEvent { name: self.name, cat: self.cat, ts_us, dur_us, tid, parent });
            if buf.len() >= FLUSH_AT {
                drain_into_trace(&mut buf);
            }
        });
        if crate::enabled() {
            crate::counter_add("telemetry.spans", 1);
            crate::observe(&format!("span.{}_ms", self.name), ms);
        }
        ms
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Drains every registered thread buffer and copies the global trace out.
/// Buffers whose owning thread has exited (the list holds the only
/// reference left) are dropped from the list once drained.
pub(crate) fn trace_events() -> Vec<TraceEvent> {
    let mut buffers = BUFFERS.lock().expect("buffers poisoned");
    buffers.retain(|buf| {
        drain_into_trace(&mut buf.lock().expect("thread buffer poisoned"));
        Arc::strong_count(buf) > 1
    });
    drop(buffers);
    TRACE.lock().expect("trace poisoned").clone()
}

/// Drops everything recorded so far (used by [`crate::reset`]).
pub(crate) fn clear_trace() {
    let mut buffers = BUFFERS.lock().expect("buffers poisoned");
    buffers.retain(|buf| {
        buf.lock().expect("thread buffer poisoned").clear();
        Arc::strong_count(buf) > 1
    });
    drop(buffers);
    TRACE.lock().expect("trace poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let _g = crate::testutil::lock();
        crate::reset();
        crate::set_enabled(true);
        {
            let _root = span("test.root", "test");
            {
                let _child = span("test.child", "test");
            }
        }
        crate::set_enabled(false);
        let events = trace_events();
        let child = events.iter().find(|e| e.name == "test.child").expect("child recorded");
        let root = events.iter().find(|e| e.name == "test.root").expect("root recorded");
        assert_eq!(child.parent, Some("test.root"));
        assert_eq!(root.parent, None);
        assert_eq!(child.tid, root.tid);
        // The child interval sits inside the root interval.
        assert!(child.ts_us >= root.ts_us);
        assert!(child.ts_us + child.dur_us <= root.ts_us + root.dur_us + 1);
        crate::reset();
    }

    #[test]
    fn disabled_spans_record_nothing_but_timed_spans_still_measure() {
        let _g = crate::testutil::lock();
        crate::reset();
        assert!(!crate::enabled());
        {
            let _s = span("test.off", "test");
        }
        let t = timed_span("test.off.timed", "test");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ms = t.finish_ms();
        assert!(ms >= 1.0, "timed span measures while disabled (got {ms})");
        assert!(trace_events().is_empty(), "nothing recorded while disabled");
        let snap = crate::snapshot();
        assert_eq!(snap.counter("telemetry.spans"), 0);
    }

    #[test]
    fn worker_thread_buffers_drain_on_export() {
        // `thread::scope` signals completion before the worker's TLS
        // destructors run, so the exporter cannot rely on exit-time
        // flushing: it must drain the registered buffers itself. The
        // 3×FLUSH_AT/2 count leaves a partial tail buffer on each worker —
        // exactly the events an exit-time-only flush would race away.
        let _g = crate::testutil::lock();
        crate::reset();
        crate::set_enabled(true);
        let per_worker = 3 * FLUSH_AT / 2;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..per_worker {
                        let _w = span("test.worker", "test");
                    }
                });
            }
        });
        crate::set_enabled(false);
        let events = trace_events();
        let workers = events.iter().filter(|e| e.name == "test.worker").count();
        assert_eq!(workers, 4 * per_worker, "every scoped worker's buffer drained");
        crate::reset();
    }
}
