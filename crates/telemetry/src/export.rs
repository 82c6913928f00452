//! Export sinks: the metrics snapshot as JSON or TSV, and the span trace
//! in chrome `trace_event` format (loadable in `chrome://tracing` and
//! Perfetto). Hand-rolled serialization, matching the workspace's
//! no-serde idiom (`topo_ingest`).

use crate::registry::MetricsSnapshot;

/// Escapes a string for a JSON literal.
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (NaN/inf are not valid JSON; clamp to 0).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The current metrics snapshot as pretty-printed JSON:
/// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// min, max, p50, p90, p99}}}`.
pub fn metrics_json() -> String {
    let snap = crate::snapshot();
    metrics_json_of(&snap)
}

pub(crate) fn metrics_json_of(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"counters\": {");
    let counters: Vec<String> =
        snap.counters.iter().map(|(k, v)| format!("\n    {}: {v}", jstr(k))).collect();
    out.push_str(&counters.join(","));
    if !counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"gauges\": {");
    let gauges: Vec<String> =
        snap.gauges.iter().map(|(k, v)| format!("\n    {}: {}", jstr(k), jnum(*v))).collect();
    out.push_str(&gauges.join(","));
    if !gauges.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"histograms\": {");
    let hists: Vec<String> = snap
        .histograms
        .iter()
        .map(|(k, h)| {
            format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                jstr(k),
                h.count,
                jnum(h.sum),
                jnum(h.min),
                jnum(h.max),
                jnum(h.p50),
                jnum(h.p90),
                jnum(h.p99),
            )
        })
        .collect();
    out.push_str(&hists.join(","));
    if !hists.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

/// The current metrics snapshot as TSV: one row per metric,
/// `kind name value…` (histograms carry count/sum/min/max/p50/p90/p99).
pub fn metrics_tsv() -> String {
    let snap = crate::snapshot();
    let mut out = String::from("kind\tname\tcount\tsum\tmin\tmax\tp50\tp90\tp99\n");
    for (k, v) in &snap.counters {
        out.push_str(&format!("counter\t{k}\t{v}\t\t\t\t\t\t\n"));
    }
    for (k, v) in &snap.gauges {
        out.push_str(&format!("gauge\t{k}\t\t{v}\t\t\t\t\t\n"));
    }
    for (k, h) in &snap.histograms {
        out.push_str(&format!(
            "histogram\t{k}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
        ));
    }
    out
}

/// The recorded span trace as a chrome `trace_event` JSON document: one
/// `"ph": "X"` complete event per span, microsecond timestamps relative to
/// the trace epoch, one `tid` per OS thread. Load it at
/// <https://ui.perfetto.dev> or `chrome://tracing`.
pub fn trace_json() -> String {
    let events = crate::span::trace_events();
    let mut out = String::from("{\"traceEvents\": [\n");
    let rows: Vec<String> = events
        .iter()
        .map(|e| {
            let args = match e.parent {
                Some(p) => format!(", \"args\": {{\"parent\": {}}}", jstr(p)),
                None => String::new(),
            };
            format!(
                "  {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {}{args}}}",
                jstr(e.name),
                jstr(e.cat),
                e.ts_us,
                e.dur_us,
                e.tid,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Writes the metrics snapshot to `path`: TSV when the path ends in
/// `.tsv`, JSON otherwise.
pub fn write_metrics(path: &str) -> std::io::Result<()> {
    let body = if path.ends_with(".tsv") { metrics_tsv() } else { metrics_json() };
    std::fs::write(path, body)
}

/// Writes the chrome trace to `path`.
pub fn write_trace(path: &str) -> std::io::Result<()> {
    std::fs::write(path, trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal JSON well-formedness check: balanced braces/brackets outside
    /// strings, no trailing commas before a closer.
    fn assert_balanced_json(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut esc = false;
        let mut last_significant = ' ';
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    assert_ne!(last_significant, ',', "trailing comma before closer");
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced closers");
                }
                _ => {}
            }
            if !c.is_whitespace() {
                last_significant = c;
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON");
        assert!(!in_str, "unterminated string");
    }

    #[test]
    fn sinks_emit_wellformed_output() {
        let _g = crate::testutil::lock();
        crate::reset();
        crate::set_enabled(true);
        crate::counter_add("test.export.count", 3);
        crate::gauge_set("test.export.gauge", 0.25);
        crate::observe("test.export.hist_ms", 2.0);
        {
            let _s = crate::span("test.export.span", "test");
        }
        let json = metrics_json();
        let trace = trace_json();
        let tsv = metrics_tsv();
        crate::set_enabled(false);
        crate::reset();

        assert_balanced_json(&json);
        assert_balanced_json(&trace);
        assert!(json.contains("\"test.export.count\": 3"));
        assert!(json.contains("\"test.export.gauge\": 0.25"));
        assert!(json.contains("\"test.export.hist_ms\""));
        assert!(json.contains("\"span.test.export.span_ms\""));
        assert!(trace.contains("\"name\": \"test.export.span\""));
        assert!(trace.contains("\"ph\": \"X\""));
        let hist_row = tsv
            .lines()
            .find(|l| l.starts_with("histogram\ttest.export.hist_ms"))
            .expect("histogram row");
        assert_eq!(hist_row.split('\t').count(), 9, "tsv rows are column-aligned");
    }

    #[test]
    fn empty_snapshot_is_still_valid_json() {
        let _g = crate::testutil::lock();
        crate::reset();
        assert_balanced_json(&metrics_json());
        assert_balanced_json(&trace_json());
    }
}
