//! Structured event tracing: a public, typed event stream replacing the
//! kernel-private string trace.
//!
//! Every event carries the virtual time, a typed [`TraceSource`]
//! (kernel, actor, or process), the source's registered name, an event
//! kind (instant, span begin/end, counter sample) and a free-form
//! detail payload. Events are collected by a cloneable [`Tracer`]
//! handle that is **zero-cost when disabled**: emission sites pass a
//! closure to [`Tracer::emit_with`], so a disabled tracer performs one
//! relaxed atomic load and never constructs the event.
//!
//! The stream serializes to JSON-lines and Chrome `trace_event` format
//! via [`crate::export`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::envelope::{ActorId, ProcessId};
use crate::time::SimTime;

/// Which component emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceSource {
    /// The simulation kernel / engine itself.
    Kernel,
    /// A reactive actor, by id.
    Actor(ActorId),
    /// A threaded process, by id.
    Process(ProcessId),
}

impl TraceSource {
    /// A stable small integer identifying the source's "thread lane" in
    /// exported traces: 0 for the kernel, actors from 1, processes from
    /// 1001 (clusters never approach 1000 actors).
    pub fn lane(&self) -> u64 {
        match self {
            TraceSource::Kernel => 0,
            TraceSource::Actor(a) => 1 + a.index() as u64,
            TraceSource::Process(p) => 1001 + p.0 as u64,
        }
    }
}

/// What kind of mark an event is.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEventKind {
    /// A point-in-time occurrence.
    Instant,
    /// The opening edge of a span; matched with the next
    /// [`TraceEventKind::SpanEnd`] of the same source and name.
    SpanBegin,
    /// The closing edge of a span.
    SpanEnd,
    /// A sampled numeric series (rendered as a counter track).
    Counter(f64),
}

/// One structured trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Typed source id.
    pub source: TraceSource,
    /// Registered name of the source at emission time. Interned: clones
    /// of one source's events share a single allocation.
    pub source_name: Arc<str>,
    /// Event name (the taxonomy key, e.g. `rms.qsub`, `sched.iteration`).
    pub name: String,
    /// Free-form payload.
    pub detail: String,
    /// Mark kind.
    pub kind: TraceEventKind,
}

#[derive(Default)]
struct TracerInner {
    enabled: AtomicBool,
    buf: Mutex<Vec<TraceEvent>>,
}

/// Cloneable collector handle for the structured event stream.
///
/// All clones share one buffer. When disabled, [`Tracer::emit_with`]
/// costs a single relaxed atomic load.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A new, disabled tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// A new tracer with collection turned on.
    pub fn enabled_tracer() -> Self {
        let t = Tracer::default();
        t.set_enabled(true);
        t
    }

    /// Whether events are currently collected.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Record an already-built event (use [`Tracer::emit_with`] on hot
    /// paths so the event is only built when tracing is on).
    pub fn emit(&self, ev: TraceEvent) {
        if !self.enabled() {
            return;
        }
        self.inner.buf.lock().push(ev);
    }

    /// Record the event built by `f`, constructing it only when enabled.
    pub fn emit_with(&self, f: impl FnOnce() -> TraceEvent) {
        if !self.enabled() {
            return;
        }
        self.emit(f());
    }

    /// Convenience: record an [`TraceEventKind::Instant`] event.
    pub fn instant(
        &self,
        time: SimTime,
        source: TraceSource,
        source_name: &str,
        name: &str,
        detail: impl FnOnce() -> String,
    ) {
        self.emit_with(|| TraceEvent {
            time,
            source,
            source_name: Arc::from(source_name),
            name: name.to_string(),
            detail: detail(),
            kind: TraceEventKind::Instant,
        });
    }

    /// Convenience: record a [`TraceEventKind::SpanBegin`] edge.
    pub fn span_begin(&self, time: SimTime, source: TraceSource, source_name: &str, name: &str) {
        self.emit_with(|| TraceEvent {
            time,
            source,
            source_name: Arc::from(source_name),
            name: name.to_string(),
            detail: String::new(),
            kind: TraceEventKind::SpanBegin,
        });
    }

    /// Convenience: record a [`TraceEventKind::SpanEnd`] edge.
    pub fn span_end(&self, time: SimTime, source: TraceSource, source_name: &str, name: &str) {
        self.emit_with(|| TraceEvent {
            time,
            source,
            source_name: Arc::from(source_name),
            name: name.to_string(),
            detail: String::new(),
            kind: TraceEventKind::SpanEnd,
        });
    }

    /// Convenience: record a [`TraceEventKind::Counter`] sample.
    pub fn counter(
        &self,
        time: SimTime,
        source: TraceSource,
        source_name: &str,
        name: &str,
        value: f64,
    ) {
        self.emit_with(|| TraceEvent {
            time,
            source,
            source_name: Arc::from(source_name),
            name: name.to_string(),
            detail: String::new(),
            kind: TraceEventKind::Counter(value),
        });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.buf.lock().len()
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the buffered events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.inner.buf.lock())
    }

    /// Copy the buffered events without draining.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.buf.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_collects_nothing_and_never_builds() {
        let tr = Tracer::new();
        let mut built = false;
        tr.emit_with(|| {
            built = true;
            TraceEvent {
                time: t(1),
                source: TraceSource::Kernel,
                source_name: "k".into(),
                name: "x".into(),
                detail: String::new(),
                kind: TraceEventKind::Instant,
            }
        });
        assert!(!built, "closure must not run while disabled");
        assert!(tr.is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let tr = Tracer::enabled_tracer();
        let tr2 = tr.clone();
        tr.instant(t(5), TraceSource::Kernel, "k", "a", String::new);
        tr2.instant(t(6), TraceSource::Process(ProcessId(3)), "p3", "b", || "d".into());
        assert_eq!(tr.len(), 2);
        let evs = tr2.take();
        assert_eq!(evs.len(), 2);
        assert!(tr.is_empty());
        assert_eq!(evs[1].source.lane(), 1004);
        assert_eq!(evs[1].detail, "d");
    }

    #[test]
    fn span_and_counter_kinds_round_trip() {
        let tr = Tracer::enabled_tracer();
        tr.span_begin(t(1), TraceSource::Actor(ActorId(0)), "srv", "work");
        tr.counter(t(2), TraceSource::Kernel, "k", "depth", 4.0);
        tr.span_end(t(3), TraceSource::Actor(ActorId(0)), "srv", "work");
        let evs = tr.take();
        assert_eq!(evs[0].kind, TraceEventKind::SpanBegin);
        assert_eq!(evs[1].kind, TraceEventKind::Counter(4.0));
        assert_eq!(evs[2].kind, TraceEventKind::SpanEnd);
    }
}
