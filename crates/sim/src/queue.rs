//! The kernel's event queue: a binary heap yielding events in strict
//! `(time, seq)` order. `(time, seq)` keys are unique because `seq` is
//! a monotone scheduling counter, so pop order is fully deterministic.
//!
//! ## Indexed payloads
//!
//! The heap does not store events. A full
//! [`Scheduled`] is ~72 bytes (the `EventKind` carries an envelope),
//! and a binary-heap sift memmoves the element once per level — at
//! tens of millions of events per second that memory traffic dominates
//! the kernel's profile. Instead, payloads live in a free-list slab and
//! the heap orders 24-byte `(time, seq, slab index)` keys; each
//! `EventKind` is written once on push and read once on pop no matter
//! how far its key travels.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::kernel::{EventKind, Scheduled};
use crate::time::SimTime;

/// Compact ordering key: the `(time, seq)` sort key plus the payload's
/// slab slot. `(time, seq)` alone is unique, so `idx` never decides a
/// comparison; it rides along in the derived lexicographic `Ord`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
    idx: u32,
}

/// Free-list slab holding the `EventKind` of every pending event.
struct PayloadSlab {
    slots: Vec<Option<EventKind>>,
    free: Vec<u32>,
}

impl PayloadSlab {
    #[inline]
    fn insert(&mut self, kind: EventKind) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(kind);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("pending events fit in u32");
                self.slots.push(Some(kind));
                i
            }
        }
    }

    #[inline]
    fn take(&mut self, i: u32) -> EventKind {
        let kind = self.slots[i as usize].take().expect("live slab slot");
        self.free.push(i);
        kind
    }
}

/// The kernel's pending-event set.
pub(crate) struct EventQueue {
    slab: PayloadSlab,
    heap: BinaryHeap<Reverse<Key>>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        // Pre-sized: cluster scenarios keep hundreds of in-flight
        // events; growing the structures mid-run is avoidable churn.
        EventQueue {
            slab: PayloadSlab { slots: Vec::with_capacity(256), free: Vec::with_capacity(64) },
            heap: BinaryHeap::with_capacity(256),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, ev: Scheduled) {
        let key = Key { time: ev.time, seq: ev.seq, idx: self.slab.insert(ev.kind) };
        self.heap.push(Reverse(key));
    }

    /// Remove and return the event with the smallest `(time, seq)` key.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Scheduled> {
        let Reverse(key) = self.heap.pop()?;
        Some(Scheduled { time: key.time, seq: key.seq, kind: self.slab.take(key.idx) })
    }

    /// The `(time, seq)` key of the next event without removing it.
    #[inline]
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(k)| (k.time, k.seq))
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}
