//! The event loop and process executor: pops `(time, seq)`-ordered
//! events, advances the virtual clock, dispatches to actors, and polls
//! stackless process bodies one at a time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::actor::{Actor, Ctx};
use crate::envelope::{ActorId, Endpoint, Envelope, ProcessId};
use crate::kernel::{EventKind, Kernel, ProcState, Scheduled, SimConfig, SimStats};
use crate::process::{spawn_process, ProcBody};
use crate::time::{SimDuration, SimTime};

/// A complete simulation: kernel + registered actors + event loop.
pub struct Engine {
    kernel: Rc<RefCell<Kernel>>,
    actors: Vec<Box<dyn Actor>>,
    started: bool,
    finished: bool,
}

impl Engine {
    /// Create an engine with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Engine {
            kernel: Rc::new(RefCell::new(Kernel::new(config))),
            actors: Vec::new(),
            started: false,
            finished: false,
        }
    }

    /// Create an engine with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Engine::new(SimConfig { seed, ..Default::default() })
    }

    /// Register a reactive actor; returns its id. Must be called before
    /// [`Engine::run`].
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        assert!(!self.started, "actors must be registered before run()");
        let id = ActorId(self.actors.len());
        self.kernel.borrow_mut().actor_names.push(Arc::from(actor.name()));
        self.actors.push(actor);
        id
    }

    /// Spawn a process whose `async` entry runs at the given virtual-time
    /// offset from now.
    pub fn spawn_process_after<F, Fut>(
        &mut self,
        name: impl Into<String>,
        delay: SimDuration,
        entry: F,
    ) -> ProcessId
    where
        F: FnOnce(crate::process::Proc) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let mut k = self.kernel.borrow_mut();
        spawn_process(&mut k, &self.kernel, name.into(), delay, entry)
    }

    /// Spawn a process starting at the current virtual time.
    pub fn spawn_process<F, Fut>(&mut self, name: impl Into<String>, entry: F) -> ProcessId
    where
        F: FnOnce(crate::process::Proc) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        self.spawn_process_after(name, SimDuration::ZERO, entry)
    }

    /// Run to completion: until the event queue drains, the horizon or
    /// event cap is reached. Afterwards all process threads are unwound
    /// and joined. Returns run statistics.
    pub fn run(&mut self) -> SimStats {
        self.run_until(SimTime::MAX);
        self.finish()
    }

    /// Process events up to and including virtual time `until` (bounded
    /// also by the configured horizon and event cap). The engine can be
    /// resumed with further `run_until` calls.
    ///
    /// Events are pulled off the queue in *batches*: every event sharing
    /// the earliest pending timestamp is popped under one kernel borrow
    /// and dispatched back-to-back. New events scheduled by batch
    /// handlers always carry a later `(time, seq)` key than the
    /// remaining batch members (time is clamped to `now`, seq is
    /// monotone), so dispatching the prefetched run before re-consulting
    /// the queue preserves the exact `(time, seq)` order. Staleness
    /// (wake epochs, timer generations) is re-checked per event at
    /// dispatch time because an earlier batch member may invalidate a
    /// later one.
    pub fn run_until(&mut self, until: SimTime) {
        assert!(!self.finished, "engine already finished");
        if !self.started {
            self.started = true;
            self.start_actors();
        }
        // darms-lint: allow(nondet, reason = "wall-clock profiling only; SimStats equality excludes wall_ns")
        let wall_start = std::time::Instant::now();
        // Debug-build queue-order check: the `(time, seq)` key of every
        // pop must strictly exceed the previous one. An equal key would
        // mean two events share a tie-break seq, leaving their relative
        // dispatch order unspecified.
        #[cfg(debug_assertions)]
        let mut last_key: Option<(SimTime, u64)> = None;
        // Prefetched remainder of the current same-timestamp run,
        // reused across iterations; untouched (and cost-free) when runs
        // are singletons, which is the common case.
        let mut batch: VecDeque<Scheduled> = VecDeque::new();
        // A body that suspended on the previous iteration, not yet put
        // back in its slot: the put-back is deferred to the next borrow
        // (here or the post-loop flush) to save a borrow cycle per
        // resume. Restoring before any dispatch keeps the invariant
        // that a dispatched-to process always has its body in place.
        let mut parked: Option<(ProcessId, crate::process::ProcFuture)> = None;
        loop {
            let mut k = self.kernel.borrow_mut();
            if let Some((pid, fut)) = parked.take() {
                k.procs[pid.0].body = ProcBody::Future(fut);
            }
            let ev = match batch.pop_front() {
                Some(ev) => ev,
                None => {
                    // Start a new run: peek, check the horizon, then pull
                    // every event sharing the earliest timestamp under
                    // this same borrow.
                    let horizon = k.config.horizon.min(until);
                    let t0 = match k.queue.peek_key() {
                        None => break,
                        Some((t, _)) if t > horizon => {
                            if t > k.config.horizon {
                                k.stats.hit_horizon = true;
                            }
                            break;
                        }
                        Some((t, _)) => t,
                    };
                    let ev = k.queue.pop().expect("peeked");
                    // Cap the prefetch at the event budget so a same-time
                    // storm is not popped past the cap just to be pushed
                    // back (the per-event check below still decides).
                    let budget =
                        k.config.max_events.saturating_sub(k.stats.events).saturating_add(1);
                    while (batch.len() as u64) < budget.saturating_sub(1) {
                        match k.queue.peek_key() {
                            Some((t, _)) if t == t0 => {
                                batch.push_back(k.queue.pop().expect("peeked"));
                            }
                            _ => break,
                        }
                    }
                    ev
                }
            };
            {
                if k.stats.events >= k.config.max_events {
                    k.stats.hit_event_cap = true;
                    // Undispatched prefetched events go back on the
                    // queue (seqs are preserved, so a resumed run pops
                    // them in the same order).
                    k.queue.push(ev);
                    while let Some(rest) = batch.pop_front() {
                        k.queue.push(rest);
                    }
                    break;
                }
                #[cfg(debug_assertions)]
                {
                    let key = (ev.time, ev.seq);
                    debug_assert!(
                        last_key.is_none_or(|prev| prev < key),
                        "event queue popped non-increasing key {key:?} after {last_key:?}"
                    );
                    last_key = Some(key);
                }
                // Stale wakes (e.g. the deadline of a timed recv that
                // was satisfied by a message) are discarded without
                // advancing the clock, so abandoned timeouts cannot
                // inflate the simulation's end time.
                if let EventKind::Wake { pid, epoch } = &ev.kind {
                    let stale = k.procs.get(pid.0).is_none_or(|slot| {
                        slot.epoch != *epoch
                            || !matches!(
                                slot.state,
                                ProcState::ParkedRecv
                                    | ProcState::ParkedSleep
                                    | ProcState::NotStarted
                            )
                    });
                    if stale {
                        continue;
                    }
                }
                if let EventKind::Timer { actor, token, gen } = &ev.kind {
                    if *gen != k.timer_gen(actor.index(), *token) {
                        continue; // cancelled before firing
                    }
                }
                k.now = ev.time;
                k.stats.events += 1;
                // Queue-depth profile, counting the event being
                // dispatched itself plus the prefetched remainder of
                // its batch (still logically queued).
                let depth = k.queue.len() as u64 + batch.len() as u64 + 1;
                k.stats.peak_queue_depth = k.stats.peak_queue_depth.max(depth);
                k.stats.queue_depth_sum += depth;
                match ev.kind {
                    EventKind::Deliver { dst: Endpoint::Actor(aid), env } => {
                        // Actors are dispatched inline under the borrow:
                        // `self.actors` and `self.kernel` are disjoint
                        // fields, and handlers only see the kernel via
                        // the `Ctx` re-borrow.
                        let actor = &mut self.actors[aid.0];
                        let mut ctx = Ctx { k: &mut k, arc: &self.kernel, me: aid };
                        actor.on_message(&mut ctx, env);
                    }
                    EventKind::Deliver { dst: Endpoint::Process(pid), env } => {
                        if let Some(p) = Self::deliver_to_process(&mut k, pid, env) {
                            k.stats.context_switches += 1;
                            parked = self.resume(k, p);
                        }
                    }
                    EventKind::Wake { pid, epoch } => {
                        let slot = &mut k.procs[pid.0];
                        let is_parked = matches!(
                            slot.state,
                            ProcState::ParkedRecv | ProcState::ParkedSleep | ProcState::NotStarted
                        );
                        if is_parked && slot.epoch == epoch {
                            slot.state = ProcState::Active;
                            slot.epoch += 1;
                            k.stats.context_switches += 1;
                            parked = self.resume(k, pid);
                        }
                        // else: stale wake, skip
                    }
                    EventKind::Timer { actor: aid, token, .. } => {
                        let actor = &mut self.actors[aid.0];
                        let mut ctx = Ctx { k: &mut k, arc: &self.kernel, me: aid };
                        actor.on_timer(&mut ctx, token);
                    }
                }
            }
        }
        let wall = wall_start.elapsed().as_nanos() as u64;
        let mut k = self.kernel.borrow_mut();
        // Flush a still-deferred body (unreachable today — every loop
        // exit passes the top-of-loop restore first — but cheap and
        // keeps the invariant local).
        if let Some((pid, fut)) = parked.take() {
            k.procs[pid.0].body = ProcBody::Future(fut);
        }
        k.stats.wall_nanos += wall;
    }

    /// Deliver to a process mailbox; returns `Some(pid)` if the process
    /// must be resumed (it was parked in `recv`).
    fn deliver_to_process(k: &mut Kernel, pid: ProcessId, env: Envelope) -> Option<ProcessId> {
        let slot = k.procs.get_mut(pid.0)?;
        if slot.state == ProcState::Finished {
            return None; // message to a dead process is dropped
        }
        slot.mailbox.push_back(env);
        if slot.state == ProcState::ParkedRecv {
            slot.state = ProcState::Active;
            slot.epoch += 1; // invalidate any pending recv-timeout wake
            Some(pid)
        } else {
            None
        }
    }

    fn start_actors(&mut self) {
        for i in 0..self.actors.len() {
            let mut k = self.kernel.borrow_mut();
            let actor = &mut self.actors[i];
            let mut ctx = Ctx { k: &mut k, arc: &self.kernel, me: ActorId(i) };
            actor.on_start(&mut ctx);
        }
    }

    /// Poll a process body once. The caller has already counted the
    /// context switch and hands over its kernel borrow: the body is
    /// taken out of the slot under it, the borrow is released, and the
    /// body is polled borrow-free (its await points re-borrow the
    /// kernel themselves). A suspended body is *returned* rather than
    /// stored — the caller puts it back under its next borrow.
    #[must_use]
    fn resume(
        &self,
        mut k: std::cell::RefMut<'_, Kernel>,
        pid: ProcessId,
    ) -> Option<(ProcessId, crate::process::ProcFuture)> {
        let body = std::mem::replace(&mut k.procs[pid.0].body, ProcBody::Done);
        drop(k);
        let mut fut = match body {
            ProcBody::Entry(make) => make(),
            ProcBody::Future(f) => f,
            ProcBody::Done => return None, // already finished; nothing to poll
        };
        // Readiness is tracked by kernel state (park states + Wake
        // events), so the executor needs no real waker.
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let polled = panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
        match polled {
            Ok(Poll::Pending) => return Some((pid, fut)),
            Ok(Poll::Ready(())) | Err(_) => {
                let mut k = self.kernel.borrow_mut();
                if polled.is_err() {
                    // A genuine panic inside a process body; the unwind
                    // already dropped the body's locals.
                    k.stats.process_panics += 1;
                }
                let slot = &mut k.procs[pid.0];
                if slot.state != ProcState::Finished {
                    slot.state = ProcState::Finished;
                    slot.epoch += 1;
                    k.stats.processes_finished += 1;
                }
                // Retire the slot: undelivered mail is dropped and the
                // mailbox buffer recycled for future spawns.
                k.retire_slot(pid);
                drop(k);
                // Completed futures hold no locals, but drop outside the
                // borrow anyway: a Drop impl is free to borrow the kernel.
                drop(fut);
            }
        }
        None
    }

    /// Drop every unfinished process body (their locals' destructors run,
    /// like the unwind of a cancelled thread) and seal the run. Returns
    /// final statistics, in which a process shut down here counts as
    /// spawned but not finished. Idempotent.
    pub fn finish(&mut self) -> SimStats {
        if !self.finished {
            self.finished = true;
            let bodies: Vec<ProcBody> = {
                let mut k = self.kernel.borrow_mut();
                k.shutdown = true;
                let mut unfinished = 0u64;
                let mut bodies = Vec::with_capacity(k.procs.len());
                for slot in k.procs.iter_mut() {
                    if slot.state != ProcState::Finished {
                        unfinished += 1;
                        slot.state = ProcState::Finished;
                        slot.epoch += 1;
                    }
                    bodies.push(std::mem::replace(&mut slot.body, ProcBody::Done));
                }
                k.stats.context_switches += unfinished;
                bodies
            };
            // Dropped outside the lock, in pid order (matching the old
            // runtime's unwind order): destructors may lock the kernel.
            drop(bodies);
        }
        let mut k = self.kernel.borrow_mut();
        k.stats.end_time = k.now;
        k.stats
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().now()
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        self.kernel.borrow().stats
    }

    /// Drain the structured event stream (empty unless tracing was
    /// enabled).
    pub fn take_events(&self) -> Vec<crate::trace::TraceEvent> {
        self.kernel.borrow().tracer.take()
    }

    /// Cloneable handle to the structured tracer. Collection can be
    /// toggled at any point, including mid-run.
    pub fn tracer(&self) -> crate::trace::Tracer {
        self.kernel.borrow().tracer()
    }

    /// Cloneable handle to the shared metrics registry.
    pub fn metrics(&self) -> crate::metrics::MetricsRegistry {
        self.kernel.borrow().metrics()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn empty_engine_runs_to_zero() {
        let mut e = Engine::with_seed(1);
        let stats = e.run();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.end_time, SimTime::ZERO);
    }

    #[test]
    fn process_sleep_advances_clock() {
        let mut e = Engine::with_seed(1);
        let out = Arc::new(Mutex::new(Vec::new()));
        let o = out.clone();
        e.spawn_process("sleeper", move |p| async move {
            p.sleep(ms(5)).await;
            o.lock().push(p.now());
            p.sleep(ms(7)).await;
            o.lock().push(p.now());
        });
        let stats = e.run();
        assert_eq!(stats.processes_finished, 1);
        let v = out.lock();
        assert_eq!(v[0], SimTime::ZERO + ms(5));
        assert_eq!(v[1], SimTime::ZERO + ms(12));
    }

    #[test]
    fn ping_pong_between_processes() {
        let mut e = Engine::with_seed(1);
        let out = Arc::new(Mutex::new(Vec::new()));
        let o = out.clone();
        let ponger = e.spawn_process("ponger", move |p| async move {
            let (n, src) = p.recv_as::<u32>().await;
            p.send(src.unwrap(), n + 1, ms(3));
        });
        let o2 = out.clone();
        e.spawn_process("pinger", move |p| async move {
            p.send(ponger.into(), 41u32, ms(2));
            let (n, _) = p.recv_as::<u32>().await;
            o2.lock().push((p.now(), n));
        });
        e.run();
        let v = out.lock();
        assert_eq!(v[0], (SimTime::ZERO + ms(5), 42));
        drop(v);
        let _ = o;
    }

    #[test]
    fn recv_timeout_expires() {
        let mut e = Engine::with_seed(1);
        let out = Arc::new(Mutex::new(None));
        let o = out.clone();
        e.spawn_process("waiter", move |p| async move {
            let r = p.recv_timeout(ms(10)).await;
            *o.lock() = Some((r.is_none(), p.now()));
        });
        e.run();
        let (timed_out, at) = out.lock().unwrap();
        assert!(timed_out);
        assert_eq!(at, SimTime::ZERO + ms(10));
    }

    #[test]
    fn recv_where_skips_non_matching() {
        let mut e = Engine::with_seed(1);
        let out = Arc::new(Mutex::new(Vec::new()));
        let o = out.clone();
        let rx = e.spawn_process("rx", move |p| async move {
            let env = p.recv_where(|e| e.peek::<u32>().is_some_and(|v| *v == 7)).await;
            o.lock().push(env.downcast::<u32>().unwrap());
            // earlier non-matching message still queued
            let env = p.recv().await;
            o.lock().push(env.downcast::<u32>().unwrap());
        });
        e.spawn_process("tx", move |p| async move {
            p.send(rx.into(), 3u32, ms(1));
            p.send(rx.into(), 7u32, ms(2));
        });
        e.run();
        assert_eq!(*out.lock(), vec![7, 3]);
    }

    #[test]
    fn actor_timer_and_message() {
        struct Echo {
            fired: Arc<AtomicU64>,
        }
        impl Actor for Echo {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(ms(4), 99);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
                if let Some(src) = env.src {
                    let n = env.downcast::<u32>().unwrap();
                    ctx.send(src, n * 2, ms(1));
                }
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.store(token, Ordering::SeqCst);
            }
            fn name(&self) -> &str {
                "echo"
            }
        }
        let fired = Arc::new(AtomicU64::new(0));
        let mut e = Engine::with_seed(1);
        let echo = e.add_actor(Box::new(Echo { fired: fired.clone() }));
        let out = Arc::new(Mutex::new(0u32));
        let o = out.clone();
        e.spawn_process("client", move |p| async move {
            p.send(echo.into(), 21u32, ms(1));
            let (n, _) = p.recv_as::<u32>().await;
            *o.lock() = n;
        });
        e.run();
        assert_eq!(*out.lock(), 42);
        assert_eq!(fired.load(Ordering::SeqCst), 99);
    }

    #[test]
    fn spawned_processes_run() {
        let mut e = Engine::with_seed(1);
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        e.spawn_process("parent", move |p| async move {
            for i in 0..4 {
                let c2 = c.clone();
                p.spawn_after(format!("child{i}"), ms(i), move |cp| async move {
                    cp.sleep(ms(1)).await;
                    c2.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        let stats = e.run();
        assert_eq!(count.load(Ordering::SeqCst), 4);
        assert_eq!(stats.processes_finished, 5);
    }

    #[test]
    fn horizon_stops_engine_and_parked_threads_unwind() {
        let mut e = Engine::new(SimConfig {
            horizon: SimTime::from_nanos(5_000_000),
            ..Default::default()
        });
        e.spawn_process("forever", move |p| async move {
            loop {
                p.sleep(ms(1)).await;
            }
        });
        let stats = e.run();
        assert!(stats.hit_horizon);
        assert!(stats.end_time <= SimTime::from_nanos(5_000_000));
        // Shut down, not run to completion.
        assert_eq!((stats.processes_spawned, stats.processes_finished), (1, 0));
    }

    #[test]
    fn event_cap_stops_livelock() {
        let mut e = Engine::new(SimConfig { max_events: 100, ..Default::default() });
        e.spawn_process("spin", move |p| async move {
            loop {
                p.sleep(SimDuration::ZERO).await;
            }
        });
        let stats = e.run();
        assert!(stats.hit_event_cap);
    }

    #[test]
    fn message_to_finished_process_is_dropped() {
        let mut e = Engine::with_seed(1);
        let dead = e.spawn_process("dead", |_p| async move {});
        e.spawn_process("tx", move |p| async move {
            p.sleep(ms(5)).await;
            p.send(dead.into(), 1u32, ms(1));
        });
        let stats = e.run(); // must not hang or panic
        assert_eq!(stats.processes_finished, 2);
    }

    #[test]
    fn deterministic_trace_across_runs() {
        fn run_once(seed: u64) -> Vec<(u64, String)> {
            let mut e = Engine::new(SimConfig { seed, trace: true, ..Default::default() });
            let a = e.spawn_process("a", move |p| async move {
                let jitter = p.with_rng(|r| rand::Rng::gen_range(r, 0..1000u64));
                p.sleep(SimDuration::from_micros(jitter)).await;
                p.trace(format_args!("slept {jitter}"));
                let (v, src) = p.recv_as::<u32>().await;
                p.send(src.unwrap(), v + 1, ms(1));
            });
            e.spawn_process("b", move |p| async move {
                p.send(a.into(), 10u32, ms(2));
                let (v, _) = p.recv_as::<u32>().await;
                p.trace(format_args!("got {v}"));
            });
            e.run();
            e.take_events().into_iter().map(|ev| (ev.time.as_nanos(), ev.name)).collect()
        }
        let t1 = run_once(77);
        let t2 = run_once(77);
        assert_eq!(t1, t2);
        assert!(!t1.is_empty());
    }

    #[test]
    fn process_panic_is_counted_and_run_continues() {
        let mut e = Engine::with_seed(1);
        e.spawn_process("bad", |_p| async { panic!("intentional test panic") });
        let ok = Arc::new(AtomicU64::new(0));
        let o = ok.clone();
        e.spawn_process("good", move |p| async move {
            p.sleep(ms(1)).await;
            o.fetch_add(1, Ordering::SeqCst);
        });
        let stats = e.run();
        assert_eq!(stats.process_panics, 1);
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }
}
