//! Stackless simulation processes: `async` bodies on a single-threaded
//! executor inside the kernel.
//!
//! Daemons with sequential logic (user applications, MPI ranks,
//! accelerator back-ends) are written as ordinary `async` closures
//! taking a [`Proc`] handle: `|p| async move { … }`. Each body is
//! compiled by rustc into a stackless state machine (a [`Future`]) that
//! the engine polls directly on its own thread — there are no OS
//! threads, no stacks to park, and no `Send` bound on bodies.
//!
//! ## Await points and the event kernel
//!
//! `sleep`, `recv`, `recv_timeout`, `poll_until` and friends are futures whose
//! `poll` registers with the event kernel instead of blocking: parking
//! the process is setting [`ProcState::ParkedSleep`]/[`ProcState::ParkedRecv`]
//! on its slot (plus scheduling a `Wake` event for deadlines) and
//! returning [`Poll::Pending`]. Readiness is decided by kernel state,
//! not by wakers — the engine resumes exactly the one process named by
//! the event it is dispatching — so the executor uses a no-op [`Waker`]
//! and a spurious `wake()` from user code is harmless.
//!
//! Every park bumps the slot's *epoch*; `Wake` events carry the epoch
//! they were scheduled under and are discarded as stale when it no
//! longer matches (e.g. the deadline of a timed `recv` that was
//! satisfied by a message arrives later). This is exactly the discipline
//! the previous one-OS-thread-per-process runtime used, and the poll
//! bodies replicate its `schedule()` call sequence verbatim, so event
//! `(time, seq)` ordering — and therefore traces and figure outputs —
//! are byte-identical to the threaded runtime (see the golden-trace
//! tests in `darms-experiments`).
//!
//! ## Why this is fast
//!
//! The threaded runtime paid two park/unpark hand-offs (a futex pair)
//! per delivered message; resuming a stackless body is a virtual call
//! into an inline state machine plus a few uncontended mutex
//! acquisitions. Ping-pong throughput measured by `perf_report` rose
//! from ~330k events/sec (threads) to well over 1M events/sec, and a
//! process now costs one heap allocation instead of an OS thread, so
//! scenarios with tens of thousands of short-lived processes (the
//! `spawn_churn` benchmark) are practical.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::Poll;

use rand::rngs::SmallRng;

use crate::envelope::{Endpoint, Envelope, ProcessId};
use crate::kernel::{EventKind, Kernel, PollWaiter, ProcSlot, ProcState};
use crate::time::{SimDuration, SimTime};

/// A boxed process body: the stackless state machine the engine polls.
/// No `Send` bound — bodies never leave the engine thread.
pub type ProcFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// Storage for a process body across its lifecycle.
pub(crate) enum ProcBody {
    /// Spawned but not yet started; the closure builds the future on
    /// the first wake (so the body's locals are not constructed until
    /// its virtual start time).
    Entry(Box<dyn FnOnce() -> ProcFuture + 'static>),
    /// Started and suspended at an await point.
    Future(ProcFuture),
    /// Ran to completion (or was dropped at shutdown).
    Done,
}

/// Handle given to a process body; all interaction with the simulated
/// world goes through it.
///
/// The handle is cloneable so that layered libraries (MPI runtime, job
/// context, resource-management library) can each hold one. All clones
/// refer to the same process and **must only be awaited from that
/// process's own body** — the engine resumes a process only when an
/// event names it, so awaiting another process's handle would park the
/// wrong slot. The single-active-process discipline makes this easy to
/// satisfy: simulation code only ever sees its own handle.
#[derive(Clone)]
pub struct Proc {
    pub(crate) pid: ProcessId,
    pub(crate) kernel: Rc<RefCell<Kernel>>,
    pub(crate) name: Arc<str>,
}

impl Proc {
    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.pid
    }

    /// This process's endpoint (give it to peers so they can reply).
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::Process(self.pid)
    }

    /// The name the process was spawned with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().now()
    }

    /// Record an instant trace event attributed to this process. With
    /// the tracer off this returns before `event` is formatted; pass
    /// `format_args!(…)` rather than a `format!` string so that holds.
    pub fn trace(&self, event: impl fmt::Display) {
        let k = self.kernel.borrow();
        k.emit(crate::trace::TraceSource::Process(self.pid), &self.name, event);
    }

    /// Cloneable handle to the structured tracer.
    pub fn tracer(&self) -> crate::trace::Tracer {
        self.kernel.borrow().tracer()
    }

    /// Cloneable handle to the shared metrics registry.
    pub fn metrics(&self) -> crate::metrics::MetricsRegistry {
        self.kernel.borrow().metrics()
    }

    /// Draw from the deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut SmallRng) -> R) -> R {
        self.kernel.borrow_mut().with_rng(f)
    }

    /// Advance virtual time by `d` (models compute or I/O work).
    /// Messages arriving meanwhile queue up in the mailbox.
    pub fn sleep(&self, d: SimDuration) -> impl Future<Output = ()> + '_ {
        let mut parked = false;
        std::future::poll_fn(move |_cx| {
            if parked {
                // The matching Wake fired; virtual time has advanced.
                return Poll::Ready(());
            }
            parked = true;
            let mut k = self.kernel.borrow_mut();
            let at = k.now() + d;
            let epoch = k.bump_epoch(self.pid);
            k.procs[self.pid.0].state = ProcState::ParkedSleep;
            k.schedule(at, EventKind::Wake { pid: self.pid, epoch });
            Poll::Pending
        })
    }

    /// Wait for something another party publishes, modelled as a poll
    /// of period `period` whose first check is now, at no cost while
    /// idle. Each check calls `probe` with this park's [`PollWaiter`]:
    /// `Some(v)` ends the wait; `None` parks the process, and `probe`
    /// must then have left the waiter with the publisher, which passes
    /// it to [`Proc::wake_pollers`] / [`Ctx::wake_pollers`](crate::Ctx::wake_pollers)
    /// when it publishes. The process then checks again at the first
    /// tick after the publication, the instant the polling loop would
    /// have seen it. A waiter nobody wakes stays parked and costs no
    /// events. Messages arriving meanwhile queue up, as during `sleep`.
    ///
    /// # Panics
    /// If `period` is zero (a zero-period poll never lets time pass).
    pub fn poll_until<'a, T>(
        &'a self,
        period: SimDuration,
        mut probe: impl FnMut(PollWaiter) -> Option<T> + 'a,
    ) -> impl Future<Output = T> + 'a {
        assert!(!period.is_zero(), "poll_until needs a non-zero period");
        std::future::poll_fn(move |_cx| {
            // The epoch and seq are taken before the check so `probe`
            // runs borrow-free; a check that succeeds leaves them
            // unused, which changes no event order.
            let waiter = {
                let mut k = self.kernel.borrow_mut();
                let epoch = k.bump_epoch(self.pid);
                let seq = k.reserve_seq();
                PollWaiter { pid: self.pid, epoch, since: k.now(), period, seq }
            };
            if let Some(v) = probe(waiter) {
                return Poll::Ready(v);
            }
            let mut k = self.kernel.borrow_mut();
            let slot = &mut k.procs[self.pid.0];
            debug_assert_eq!(slot.epoch, waiter.epoch, "probe re-parked the process");
            slot.state = ProcState::ParkedSleep;
            Poll::Pending
        })
    }

    /// Wake processes parked in [`Proc::poll_until`] on what this
    /// process just published.
    pub fn wake_pollers(&self, waiters: impl IntoIterator<Item = PollWaiter>) {
        self.kernel.borrow_mut().wake_pollers(waiters);
    }

    /// Send a payload to `dst`, arriving after `delay`.
    pub fn send<T: std::any::Any + Send>(&self, dst: Endpoint, payload: T, delay: SimDuration) {
        self.send_env(dst, Envelope::from_src(self.endpoint(), payload), delay);
    }

    /// Send a pre-built envelope.
    pub fn send_env(&self, dst: Endpoint, env: Envelope, delay: SimDuration) {
        let mut k = self.kernel.borrow_mut();
        k.send(dst, env, delay);
    }

    /// Pop the next mailbox message without blocking.
    pub fn try_recv(&self) -> Option<Envelope> {
        let mut k = self.kernel.borrow_mut();
        k.procs[self.pid.0].mailbox.pop_front()
    }

    /// Pop the first mailbox message satisfying `pred` without blocking;
    /// earlier non-matching messages stay queued in order.
    pub fn try_recv_where(&self, mut pred: impl FnMut(&Envelope) -> bool) -> Option<Envelope> {
        let mut k = self.kernel.borrow_mut();
        let slot = &mut k.procs[self.pid.0];
        let ix = slot.mailbox.iter().position(&mut pred)?;
        slot.mailbox.remove(ix)
    }

    /// Wait until a message arrives, then return it (FIFO).
    pub async fn recv(&self) -> Envelope {
        self.recv_where_deadline(|_| true, None)
            .await
            .expect("recv without deadline cannot time out")
    }

    /// Wait until a message satisfying `pred` arrives; earlier
    /// non-matching messages stay queued in order. This is the matching
    /// primitive the MPI layer builds tag/source matching on.
    pub async fn recv_where(&self, pred: impl FnMut(&Envelope) -> bool) -> Envelope {
        self.recv_where_deadline(pred, None)
            .await
            .expect("recv_where without deadline cannot time out")
    }

    /// Like [`Proc::recv`] but gives up after `d`, returning `None`.
    pub async fn recv_timeout(&self, d: SimDuration) -> Option<Envelope> {
        let deadline = self.now() + d;
        self.recv_where_deadline(|_| true, Some(deadline)).await
    }

    /// Like [`Proc::recv_where`] but gives up at `deadline`.
    pub async fn recv_where_timeout(
        &self,
        pred: impl FnMut(&Envelope) -> bool,
        d: SimDuration,
    ) -> Option<Envelope> {
        let deadline = self.now() + d;
        self.recv_where_deadline(pred, Some(deadline)).await
    }

    /// Wait until a message whose payload is a `T` arrives; returns the
    /// downcast payload and the source endpoint.
    pub async fn recv_as<T: std::any::Any + Send>(&self) -> (T, Option<Endpoint>) {
        let env = self.recv_where(|e| e.is::<T>()).await;
        let src = env.src;
        (env.downcast::<T>().expect("type matched by predicate"), src)
    }

    /// Every poll is one iteration of the old blocking loop: scan the
    /// mailbox, check the deadline, otherwise park (re-scheduling the
    /// deadline wake under the fresh epoch) and suspend. A delivery or
    /// the deadline wake makes the engine poll again.
    fn recv_where_deadline<'a>(
        &'a self,
        mut pred: impl FnMut(&Envelope) -> bool + 'a,
        deadline: Option<SimTime>,
    ) -> impl Future<Output = Option<Envelope>> + 'a {
        std::future::poll_fn(move |_cx| {
            let mut k = self.kernel.borrow_mut();
            let slot = &mut k.procs[self.pid.0];
            if let Some(ix) = slot.mailbox.iter().position(&mut pred) {
                return Poll::Ready(slot.mailbox.remove(ix));
            }
            if let Some(dl) = deadline {
                if k.now() >= dl {
                    return Poll::Ready(None);
                }
            }
            let epoch = k.bump_epoch(self.pid);
            k.procs[self.pid.0].state = ProcState::ParkedRecv;
            if let Some(dl) = deadline {
                k.schedule(dl, EventKind::Wake { pid: self.pid, epoch });
            }
            Poll::Pending
        })
    }

    /// Spawn a new process whose entry runs after `delay`.
    pub fn spawn_after<F, Fut>(
        &self,
        name: impl Into<String>,
        delay: SimDuration,
        entry: F,
    ) -> ProcessId
    where
        F: FnOnce(Proc) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let mut k = self.kernel.borrow_mut();
        spawn_process(&mut k, &self.kernel, name.into(), delay, entry)
    }

    /// Spawn a new process starting now.
    pub fn spawn<F, Fut>(&self, name: impl Into<String>, entry: F) -> ProcessId
    where
        F: FnOnce(Proc) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        self.spawn_after(name, SimDuration::ZERO, entry)
    }
}

/// Engine-internal: allocate a slot holding the deferred body and
/// schedule its first wake. Also used by actor contexts.
pub(crate) fn spawn_process<F, Fut>(
    k: &mut Kernel,
    arc: &Rc<RefCell<Kernel>>,
    name: String,
    delay: SimDuration,
    entry: F,
) -> ProcessId
where
    F: FnOnce(Proc) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let name: Arc<str> = name.into();
    let pid = ProcessId(k.procs.len());
    let proc = Proc { pid, kernel: arc.clone(), name: name.clone() };
    let mailbox = k.alloc_mailbox();
    k.procs.push(ProcSlot {
        name,
        mailbox,
        state: ProcState::NotStarted,
        epoch: 0,
        body: ProcBody::Entry(Box::new(move || Box::pin(entry(proc)))),
    });
    k.stats.processes_spawned += 1;
    let at = k.now() + delay;
    k.schedule(at, EventKind::Wake { pid, epoch: 0 });
    pid
}
