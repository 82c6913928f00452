//! Harness-side spans: the benchmark records a span around each call it
//! makes into a layer's public functions (name, start, end, the span that
//! caused it, and the operation it belongs to), keeps them in memory, and
//! writes them as a chrome trace when asked. A span's *self time* is its
//! duration minus the part its children cover — the number the layer table
//! is built from.
//!
//! The log is single-threaded by construction (the load is one client on
//! one thread), so nesting is a stack and children never overlap.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer/function`, e.g. `traffic.multiplex/check_link`.
    pub name: &'static str,
    /// Start, µs since the log's epoch.
    pub start_us: f64,
    /// End, µs since the log's epoch.
    pub end_us: f64,
    /// Index of the enclosing span, `None` for an operation's root.
    pub parent: Option<usize>,
    /// The operation (decision, recovery, placement) this span belongs to.
    pub op: u64,
}

impl Span {
    /// `end - start`, µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Aggregate of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: usize,
    /// Sum of durations, µs.
    pub total_us: f64,
    /// Sum of self times, µs.
    pub self_us: f64,
}

/// Self time of every span, aligned with `spans`: duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_us();
        }
    }
    own
}

/// Per-name totals (count, duration, self time) over `spans`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_us += s.duration_us();
        t.self_us += self_us;
    }
    out
}

/// Durations (µs) of every span named `name`, in start order.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::duration_us).collect()
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Starts the next operation: spans recorded from here on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` under a span named `name`, nested in whatever span is open.
    /// `f` receives the log so it can open children.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Everything recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Writes the log in the chrome://tracing / Perfetto JSON array format
    /// (complete `"ph":"X"` events; the operation id is the `tid`, so each
    /// operation renders as its own track).
    pub fn write_chrome_trace(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let (layer, _) = s.name.split_once('/').unwrap_or((s.name, ""));
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{}}}}}{comma}",
                s.name,
                s.start_us,
                s.duration_us(),
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            )?;
        }
        writeln!(w, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start_us: start, end_us: end, parent, op: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 with siblings a 10..30 and b 40..90; b nests c 50..60.
        let spans = vec![
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 30.0, Some(0)),
            span("b", 40.0, 90.0, Some(0)),
            span("c", 50.0, 60.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 20.0, 40.0, 10.0]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 100.0);
        let by = totals_by_name(&spans);
        assert_eq!(by["b"], NameTotal { count: 1, total_us: 50.0, self_us: 40.0 });
    }

    #[test]
    fn scopes_nest_and_carry_the_operation_id() {
        let mut log = SpanLog::new();
        let op = log.next_op();
        let v = log.scope("outer", |log| {
            log.scope("inner", |_| ());
            log.scope("inner", |_| 7)
        });
        assert_eq!(v, 7);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.op == op && x.end_us >= x.start_us));
        assert!(s[0].end_us >= s[2].end_us);
        assert_eq!(totals_by_name(s)["inner"].count, 2);
        let mut buf = Vec::new();
        log.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("[\n") && text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 3);
    }
}
