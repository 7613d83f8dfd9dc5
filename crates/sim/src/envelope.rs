//! Message envelopes and addressable endpoints.
//!
//! Every deliverable destination in the simulation is an [`Endpoint`]:
//! either a reactive [`Actor`](crate::actor::Actor) (daemon-style state
//! machine dispatched by the engine) or a threaded
//! [process](crate::process::Proc) with a mailbox and blocking `recv`.
//!
//! Payloads are type-erased (`Box<dyn Any + Send>`) so that each subsystem
//! (RMS, scheduler, MPI runtime, accelerator daemons) can define its own
//! protocol enums without a central message registry.
//!
//! ## No payload pool
//!
//! A send costs one heap allocation (the payload box) and a receive the
//! matching free. A thread-local pool of emptied boxes keyed by payload
//! type used to recycle them, but its one-slot hot cache only hit while
//! one payload type dominated the traffic. Under mixed control-plane
//! traffic most sends and receives paid a `BTreeMap` remove plus insert,
//! more than the allocator's per-thread cache charges for the
//! malloc/free pair it saved. Ping-pong, the case the pool was built
//! for, runs at the same speed without it (DESIGN.md §10).

use std::any::Any;
use std::fmt;

/// Identifier of a reactive actor registered with the engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub(crate) usize);

impl ActorId {
    /// Raw index (stable for the lifetime of the simulation).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a threaded simulation process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub(crate) usize);

impl ProcessId {
    /// Raw index (stable for the lifetime of the simulation).
    pub fn index(self) -> usize {
        self.0
    }

    /// Fabricate an id from a raw index. Only meaningful for ids that the
    /// engine actually handed out; intended for tests and serialisation.
    pub fn from_raw(index: usize) -> Self {
        ProcessId(index)
    }
}

/// A deliverable destination: reactive actor or threaded process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// Reactive actor dispatched inline by the engine.
    Actor(ActorId),
    /// Threaded process; delivery appends to its mailbox.
    Process(ProcessId),
}

impl From<ActorId> for Endpoint {
    fn from(a: ActorId) -> Self {
        Endpoint::Actor(a)
    }
}

impl From<ProcessId> for Endpoint {
    fn from(p: ProcessId) -> Self {
        Endpoint::Process(p)
    }
}

/// A message in flight: type-erased payload plus provenance.
pub struct Envelope {
    /// Originating endpoint, if known (used for request/reply patterns).
    pub src: Option<Endpoint>,
    /// The payload, erased. Downcast with [`Envelope::downcast`] /
    /// [`Envelope::is`].
    payload: Box<dyn Any + Send>,
}

impl Envelope {
    /// Wrap a payload with no recorded source.
    pub fn new<T: Any + Send>(payload: T) -> Self {
        Envelope { src: None, payload: Box::new(payload) }
    }

    /// Wrap a payload recording the sending endpoint.
    pub fn from_src<T: Any + Send>(src: Endpoint, payload: T) -> Self {
        Envelope { src: Some(src), payload: Box::new(payload) }
    }

    /// Whether the payload is of type `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.payload.is::<T>()
    }

    /// Consume the envelope, returning the payload if it is a `T`,
    /// otherwise giving the envelope back.
    pub fn downcast<T: Any>(self) -> Result<T, Envelope> {
        let Envelope { src, payload } = self;
        payload.downcast::<T>().map(|b| *b).map_err(|payload| Envelope { src, payload })
    }

    /// Borrow the payload as a `T` if it is one.
    pub fn peek<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Envelope")
            .field("src", &self.src)
            .field("payload_type", &(*self.payload).type_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);
    #[derive(Debug, PartialEq)]
    struct Pong(u32);

    #[test]
    fn downcast_success_and_failure() {
        let env = Envelope::new(Ping(7));
        assert!(env.is::<Ping>());
        assert!(!env.is::<Pong>());
        let env = env.downcast::<Pong>().unwrap_err();
        assert_eq!(env.downcast::<Ping>().unwrap(), Ping(7));
    }

    #[test]
    fn peek_borrows_payload() {
        let env = Envelope::new(Ping(3));
        assert_eq!(env.peek::<Ping>().map(|p| p.0), Some(3));
        assert!(env.peek::<Pong>().is_none());
    }

    #[test]
    fn src_is_preserved_through_failed_downcast() {
        let src = Endpoint::Actor(ActorId(4));
        let env = Envelope::from_src(src, Ping(1));
        let env = env.downcast::<Pong>().unwrap_err();
        assert_eq!(env.src, Some(src));
    }

    /// Counts its drops in a shared cell.
    struct DropCount(Arc<AtomicUsize>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A drop-counted payload and a reader of its drop count.
    fn drop_counted() -> (DropCount, impl Fn() -> usize) {
        let n = Arc::new(AtomicUsize::new(0));
        let seen = n.clone();
        (DropCount(n), move || seen.load(Ordering::Relaxed))
    }

    #[test]
    fn undelivered_payload_is_dropped_once() {
        let (payload, drops) = drop_counted();
        let env = Envelope::new(payload);
        assert_eq!(drops(), 0);
        drop(env);
        assert_eq!(drops(), 1);
    }

    #[test]
    fn payload_through_failed_then_successful_downcast_is_dropped_once() {
        let (payload, drops) = drop_counted();
        let env = Envelope::from_src(Endpoint::Actor(ActorId(0)), payload);
        let env = env.downcast::<Ping>().unwrap_err();
        assert_eq!(drops(), 0);
        let payload = env.downcast::<DropCount>().unwrap();
        assert_eq!(drops(), 0);
        drop(payload);
        assert_eq!(drops(), 1);
    }

    #[test]
    fn peeked_payload_is_dropped_once() {
        let (payload, drops) = drop_counted();
        let env = Envelope::new(payload);
        assert!(env.peek::<DropCount>().is_some());
        assert_eq!(drops(), 0);
        drop(env);
        assert_eq!(drops(), 1);
    }

    #[test]
    fn zero_sized_payload() {
        struct Tick;
        let env = Envelope::new(Tick);
        assert!(env.is::<Tick>());
        assert!(!env.is::<Ping>());
        assert!(env.peek::<Tick>().is_some());
        assert!(env.peek::<Ping>().is_none());
        assert!(env.downcast::<Tick>().is_ok());
    }

    #[test]
    fn endpoint_conversions() {
        let a: Endpoint = ActorId(1).into();
        let p: Endpoint = ProcessId(2).into();
        assert_eq!(a, Endpoint::Actor(ActorId(1)));
        assert_eq!(p, Endpoint::Process(ProcessId(2)));
        assert_eq!(ActorId(1).index(), 1);
        assert_eq!(ProcessId(2).index(), 2);
    }
}
