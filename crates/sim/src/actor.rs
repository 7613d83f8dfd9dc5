//! Reactive actors: daemon-style state machines dispatched inline by the
//! engine. The `pbs_server`, `pbs_mom`s and the Maui scheduler are
//! actors; sequential application logic uses stackless async
//! [processes](crate::process::Proc) instead.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::SmallRng;

use crate::envelope::{ActorId, Endpoint, Envelope, ProcessId};
use crate::kernel::{EventKind, Kernel, PollWaiter};
use crate::process::spawn_process;
use crate::time::{SimDuration, SimTime};

/// A reactive component. Handlers run to completion with exclusive access
/// to the kernel via [`Ctx`]; all outbound effects are scheduled events.
pub trait Actor: Send {
    /// Handle a delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope);

    /// Handle a timer set via [`Ctx::set_timer`].
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Called once at t = 0 before the event loop starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Name used in traces.
    fn name(&self) -> &str {
        "actor"
    }
}

/// Capability handle passed to actor callbacks.
pub struct Ctx<'a> {
    pub(crate) k: &'a mut Kernel,
    pub(crate) arc: &'a Rc<RefCell<Kernel>>,
    pub(crate) me: ActorId,
}

impl Ctx<'_> {
    /// This actor's id.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// This actor's endpoint.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::Actor(self.me)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.k.now()
    }

    /// Send a payload to `dst`, arriving after `delay`.
    pub fn send<T: std::any::Any + Send>(&mut self, dst: Endpoint, payload: T, delay: SimDuration) {
        let env = Envelope::from_src(self.endpoint(), payload);
        self.k.send(dst, env, delay);
    }

    /// Send a pre-built envelope.
    pub fn send_env(&mut self, dst: Endpoint, env: Envelope, delay: SimDuration) {
        self.k.send(dst, env, delay);
    }

    /// Wake processes parked in [`Proc::poll_until`](crate::Proc::poll_until)
    /// on what this actor just published.
    pub fn wake_pollers(&mut self, waiters: impl IntoIterator<Item = PollWaiter>) {
        self.k.wake_pollers(waiters);
    }

    /// Schedule `on_timer(token)` after `delay`. The event is stamped
    /// with the token's current generation; re-arming after a cancel
    /// picks up the bumped generation, which revives the token.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.k.now() + delay;
        let me = self.me;
        let gen = self.k.timer_gen(me.index(), token);
        self.k.schedule(at, EventKind::Timer { actor: me, token, gen });
    }

    /// Cancel a pending timer: when its event fires it is discarded
    /// without advancing the virtual clock (so abandoned deadlines, e.g.
    /// a walltime kill for a job that finished, cannot inflate the
    /// simulation's end time). Implemented as a generation bump — no
    /// per-event bookkeeping survives to the fire path.
    pub fn cancel_timer(&mut self, token: u64) {
        let me = self.me;
        self.k.bump_timer_gen(me.index(), token);
    }

    /// Spawn a process whose `async` entry runs after `delay`.
    pub fn spawn_process_after<F, Fut>(
        &mut self,
        name: impl Into<String>,
        delay: SimDuration,
        entry: F,
    ) -> ProcessId
    where
        F: FnOnce(crate::process::Proc) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        spawn_process(self.k, self.arc, name.into(), delay, entry)
    }

    /// Spawn a process starting now.
    pub fn spawn_process<F, Fut>(&mut self, name: impl Into<String>, entry: F) -> ProcessId
    where
        F: FnOnce(crate::process::Proc) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        self.spawn_process_after(name, SimDuration::ZERO, entry)
    }

    /// Record an instant trace event attributed to this actor. With the
    /// tracer off this returns before `event` is formatted; pass
    /// `format_args!(…)` rather than a `format!` string so that holds.
    pub fn trace(&mut self, event: impl fmt::Display) {
        let k = &*self.k;
        if !k.tracer.enabled() {
            return;
        }
        let source = crate::trace::TraceSource::Actor(self.me);
        match k.actor_names.get(self.me.0) {
            Some(name) => k.emit(source, name, event),
            None => k.emit(source, &format!("actor#{}", self.me.0).into(), event),
        }
    }

    /// Cloneable handle to the structured tracer.
    pub fn tracer(&self) -> crate::trace::Tracer {
        self.k.tracer()
    }

    /// Cloneable handle to the shared metrics registry.
    pub fn metrics(&self) -> crate::metrics::MetricsRegistry {
        self.k.metrics()
    }

    /// Draw from the deterministic RNG.
    pub fn with_rng<R>(&mut self, f: impl FnOnce(&mut SmallRng) -> R) -> R {
        self.k.with_rng(f)
    }

    /// Resolve an endpoint to its registered name (for diagnostics).
    pub fn endpoint_name(&self, ep: Endpoint) -> Arc<str> {
        self.k.endpoint_name(ep)
    }
}
