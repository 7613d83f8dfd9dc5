//! Trace text is built only when someone traces: an event passed to
//! `Ctx::trace` or `Proc::trace` is formatted zero times while the
//! tracer is off and exactly once while it is on.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use darms_sim::{Actor, Ctx, Engine, Envelope, SimConfig};

/// A trace event that counts how often it is formatted.
#[derive(Clone)]
struct Counted(Arc<AtomicUsize>);

impl fmt::Display for Counted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fetch_add(1, Ordering::Relaxed);
        f.write_str("counted")
    }
}

struct Tracing(Counted);

impl Actor for Tracing {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.trace(self.0.clone());
    }

    fn name(&self) -> &str {
        "tracing"
    }
}

/// Formats seen through an actor and through a process, and the names
/// of the events recorded.
fn run(trace: bool) -> (usize, usize, Vec<String>) {
    let by_actor = Counted(Arc::new(AtomicUsize::new(0)));
    let by_proc = Counted(Arc::new(AtomicUsize::new(0)));
    let mut sim = Engine::new(SimConfig { seed: 1, trace, ..Default::default() });
    sim.add_actor(Box::new(Tracing(by_actor.clone())));
    let event = by_proc.clone();
    sim.spawn_process("p", move |p| async move { p.trace(event) });
    sim.run();
    let names = sim.take_events().into_iter().map(|ev| ev.name).collect();
    (by_actor.0.load(Ordering::Relaxed), by_proc.0.load(Ordering::Relaxed), names)
}

#[test]
fn tracer_off_formats_nothing() {
    let (by_actor, by_proc, names) = run(false);
    assert_eq!((by_actor, by_proc), (0, 0));
    assert!(names.is_empty(), "{names:?}");
}

#[test]
fn tracer_on_formats_each_event_once() {
    let (by_actor, by_proc, names) = run(true);
    assert_eq!((by_actor, by_proc), (1, 1));
    assert_eq!(names, ["counted", "counted"]);
}
