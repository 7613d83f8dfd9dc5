//! Trace exporters: JSON-lines event dumps and Chrome `trace_event`
//! JSON (loadable in `chrome://tracing` / Perfetto).
//!
//! Serialization is hand-rolled (no external JSON dependency) and fully
//! deterministic: identical event streams produce byte-identical
//! output, which the determinism regression tests rely on.

use std::io::{self, Write};
use std::path::Path;

use crate::trace::{TraceEvent, TraceEventKind, TraceSource};

/// Append `s` to `out` as a JSON string literal (with quotes).
fn push_json_str(out: &mut String, s: &str) {
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
}

/// Format a finite `f64` deterministically for JSON embedding.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        // JSON has no NaN/Inf; encode as null.
        out.push_str("null");
    }
}

fn source_tag(src: TraceSource) -> (&'static str, u64) {
    match src {
        TraceSource::Kernel => ("kernel", 0),
        TraceSource::Actor(a) => ("actor", a.index() as u64),
        TraceSource::Process(p) => ("process", p.0 as u64),
    }
}

fn kind_tag(kind: &TraceEventKind) -> &'static str {
    match kind {
        TraceEventKind::Instant => "instant",
        TraceEventKind::SpanBegin => "span_begin",
        TraceEventKind::SpanEnd => "span_end",
        TraceEventKind::Counter(_) => "counter",
    }
}

/// Serialize events as JSON-lines: one self-contained JSON object per
/// line, in stream order.
pub fn to_json_lines(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        let (src_kind, src_id) = source_tag(ev.source);
        out.push_str("{\"t_ns\":");
        out.push_str(&ev.time.as_nanos().to_string());
        out.push_str(",\"src\":");
        push_json_str(&mut out, src_kind);
        out.push_str(",\"src_id\":");
        out.push_str(&src_id.to_string());
        out.push_str(",\"src_name\":");
        push_json_str(&mut out, &ev.source_name);
        out.push_str(",\"kind\":");
        push_json_str(&mut out, kind_tag(&ev.kind));
        out.push_str(",\"name\":");
        push_json_str(&mut out, &ev.name);
        if let TraceEventKind::Counter(v) = ev.kind {
            out.push_str(",\"value\":");
            push_json_f64(&mut out, v);
        }
        if !ev.detail.is_empty() {
            out.push_str(",\"detail\":");
            push_json_str(&mut out, &ev.detail);
        }
        out.push_str("}\n");
    }
    out
}

/// Serialize events in Chrome `trace_event` format (the "JSON object
/// format" with a `traceEvents` array). Virtual nanoseconds map to the
/// format's microsecond timestamps with 3 decimal places. Each
/// [`TraceSource`] becomes a named thread lane; spans use `B`/`E`
/// pairs, instants `i`, counters `C`.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push_obj = |out: &mut String, body: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&body);
    };

    // Thread-name metadata: one entry per distinct source lane, in
    // order of first appearance (deterministic).
    let mut seen: Vec<(u64, &str)> = Vec::new();
    for ev in events {
        let lane = ev.source.lane();
        if !seen.iter().any(|&(l, _)| l == lane) {
            seen.push((lane, &*ev.source_name));
        }
    }
    for (lane, name) in seen {
        let mut body = String::new();
        body.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
        body.push_str(&lane.to_string());
        body.push_str(",\"args\":{\"name\":");
        push_json_str(&mut body, name);
        body.push_str("}}");
        push_obj(&mut out, body);
    }

    for ev in events {
        let lane = ev.source.lane();
        let us_whole = ev.time.as_nanos() / 1_000;
        let us_frac = ev.time.as_nanos() % 1_000;
        let mut body = String::new();
        body.push_str("{\"name\":");
        push_json_str(&mut body, &ev.name);
        body.push_str(",\"ph\":\"");
        body.push_str(match ev.kind {
            TraceEventKind::Instant => "i",
            TraceEventKind::SpanBegin => "B",
            TraceEventKind::SpanEnd => "E",
            TraceEventKind::Counter(_) => "C",
        });
        body.push_str("\",\"ts\":");
        body.push_str(&format!("{us_whole}.{us_frac:03}"));
        body.push_str(",\"pid\":0,\"tid\":");
        body.push_str(&lane.to_string());
        match &ev.kind {
            TraceEventKind::Instant => {
                body.push_str(",\"s\":\"t\"");
                if !ev.detail.is_empty() {
                    body.push_str(",\"args\":{\"detail\":");
                    push_json_str(&mut body, &ev.detail);
                    body.push('}');
                }
            }
            TraceEventKind::Counter(v) => {
                body.push_str(",\"args\":{\"value\":");
                push_json_f64(&mut body, *v);
                body.push('}');
            }
            TraceEventKind::SpanBegin => {
                if !ev.detail.is_empty() {
                    body.push_str(",\"args\":{\"detail\":");
                    push_json_str(&mut body, &ev.detail);
                    body.push('}');
                }
            }
            TraceEventKind::SpanEnd => {}
        }
        body.push('}');
        push_obj(&mut out, body);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Write a Chrome `trace_event` file to `path`.
pub fn write_chrome_trace(path: impl AsRef<Path>, events: &[TraceEvent]) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_chrome_trace(events).as_bytes())
}

/// Write a JSON-lines event dump to `path`.
pub fn write_json_lines(path: impl AsRef<Path>, events: &[TraceEvent]) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json_lines(events).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{ActorId, ProcessId};
    use crate::time::SimTime;
    use crate::trace::Tracer;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_events() -> Vec<TraceEvent> {
        let tr = Tracer::enabled_tracer();
        tr.instant(t(1_500), TraceSource::Kernel, "kernel", "boot", || "x=\"1\"".into());
        tr.span_begin(t(2_000), TraceSource::Actor(ActorId(0)), "pbs_server", "qsub");
        tr.counter(t(2_500), TraceSource::Actor(ActorId(0)), "pbs_server", "queue_depth", 3.0);
        tr.span_end(t(9_000), TraceSource::Actor(ActorId(0)), "pbs_server", "qsub");
        tr.instant(t(10_000), TraceSource::Process(ProcessId(2)), "job:a", "done", String::new);
        tr.take()
    }

    #[test]
    fn json_lines_one_object_per_event() {
        let evs = sample_events();
        let s = to_json_lines(&evs);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), evs.len());
        assert!(lines[0].contains("\"t_ns\":1500"));
        assert!(lines[0].contains("\\\"1\\\""), "escaped quotes: {}", lines[0]);
        assert!(lines[2].contains("\"value\":3"));
        assert!(lines[4].contains("\"src\":\"process\""));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn chrome_trace_has_metadata_and_phases() {
        let evs = sample_events();
        let s = to_chrome_trace(&evs);
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.contains("\"thread_name\""));
        assert!(s.contains("\"ph\":\"B\""));
        assert!(s.contains("\"ph\":\"E\""));
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"ts\":1.500"), "ns → µs with 3 decimals");
        // lane mapping: actor 0 → tid 1, process 2 → tid 1003
        assert!(s.contains("\"tid\":1,"));
        assert!(s.contains("\"tid\":1003"));
    }

    #[test]
    fn exporters_are_deterministic() {
        let a = sample_events();
        let b = sample_events();
        assert_eq!(to_json_lines(&a), to_json_lines(&b));
        assert_eq!(to_chrome_trace(&a), to_chrome_trace(&b));
    }
}
