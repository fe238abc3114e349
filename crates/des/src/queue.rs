//! The pending-event set: a binary heap with a deterministic total order.
//!
//! Events with equal timestamps pop in insertion order (FIFO), which makes
//! every simulation replayable bit-for-bit from its seed. This mirrors the
//! deterministic sequential execution mode of Parsec.
//!
//! The heap orders keys, not events. A key is `(time, seq, slot)`, 24
//! bytes; the event itself, which carries a protocol message and is
//! several times larger, waits in a slab at `slot` and is moved once in
//! and once out. A heap of whole events would move whole events at every
//! sift step, and a deep heap (thousands of pending messages in a
//! hundred-process run) takes a dozen such steps per push and pop. Slots
//! freed by `pop` are reused through a free list, so the slab stays as
//! large as the deepest the queue has been. The order is exactly
//! `(time, seq)`: `seq` is unique, so `slot` never decides a comparison.

use crate::event::Event;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event's place in the order, and where the event waits.
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest (time, seq).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of future events ordered by `(time, insertion sequence)`.
pub struct EventQueue<M, T> {
    heap: BinaryHeap<Key>,
    /// The events, at the slots their keys name; `None` is a free slot.
    slab: Vec<Option<Event<M, T>>>,
    /// Free slots of `slab`, reused before it grows.
    free: Vec<u32>,
    next_seq: u64,
}

impl<M, T> Default for EventQueue<M, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, T> EventQueue<M, T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule an event. Its position in the total order is fixed now.
    pub fn push(&mut self, event: Event<M, T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let time = event.time;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Key { time, seq, slot });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event<M, T>> {
        let key = self.heap.pop()?;
        self.free.push(key.slot);
        let event = self.slab[key.slot as usize].take();
        Some(event.expect("a queued key's slot holds its event"))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ProcId};

    fn ev(t: u64, tag: u32) -> Event<u32, ()> {
        Event {
            time: SimTime::from_nanos(t),
            target: ProcId(0),
            kind: EventKind::Message {
                from: ProcId(0),
                msg: tag,
            },
        }
    }

    fn tag(e: &Event<u32, ()>) -> u32 {
        match e.kind {
            EventKind::Message { msg, .. } => msg,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(ev(30, 0));
        q.push(ev(10, 1));
        q.push(ev(20, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.time.as_nanos())).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(ev(42, i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| tag(&e))).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_times_and_ties() {
        let mut q = EventQueue::new();
        q.push(ev(5, 0));
        q.push(ev(1, 1));
        q.push(ev(5, 2));
        q.push(ev(1, 3));
        let order: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_nanos(), tag(&e)))).collect();
        assert_eq!(order, vec![(1, 1), (1, 3), (5, 0), (5, 2)]);
    }

    #[test]
    fn peek_and_counters() {
        let mut q: EventQueue<u32, ()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(ev(7, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
