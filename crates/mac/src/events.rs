//! The discrete-event scheduler: a binary min-heap of MAC events with a
//! **total** deterministic order.
//!
//! Determinism contract: events are ordered by `(time, link, seq)` where
//! `seq` is a per-trial monotone push counter. Two distinct events can
//! never compare equal (`seq` is unique), so the pop sequence — and with
//! it every queue, backoff, and collision outcome — is a pure function of
//! the pushed events, independent of hash state, thread count, or
//! insertion micro-order within a tool call. Ties at the same `(time,
//! link)` resolve in *schedule order*, which is itself deterministic.
//!
//! The heap's backing storage is preallocated by
//! [`EventQueue::with_capacity`] and reused across trials
//! ([`EventQueue::clear`] keeps capacity), so the warm steady-state loop
//! never touches the allocator: the number of outstanding events is
//! bounded by a small constant per link (one pending arrival, one pending
//! attempt/tx/ack chain, and a handful of record releases).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A packet arrives at the link's transmit queue (and the next arrival
    /// is drawn).
    Arrival,
    /// The link carrier-senses and either starts transmitting or defers.
    Attempt,
    /// The data frame's airtime ends: the victim receiver decodes the
    /// superposed record (`arg` = record-pool slot).
    TxEnd,
    /// The ARQ outcome reaches the transmitter (`arg` = 1 for an ACK,
    /// 0 for a timeout).
    AckDone,
    /// A retained waveform record can no longer overlap any future decode
    /// and is recycled (`arg` = record-pool slot).
    Release,
}

/// One scheduled MAC event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Fire time in sense slots.
    pub time: u64,
    /// The link this event belongs to.
    pub link: u32,
    /// Per-trial push counter — the total-order tiebreak.
    pub seq: u32,
    /// Event type.
    pub kind: EventKind,
    /// Kind-specific argument (pool slot or ACK flag).
    pub arg: u32,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.link, self.seq).cmp(&(other.time, other.link, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The preallocated min-heap event queue.
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u32,
}

impl EventQueue {
    /// A queue whose heap storage holds `cap` events without reallocating.
    pub fn with_capacity(cap: usize) -> EventQueue {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Empties the queue and resets the sequence counter for a fresh
    /// trial; the heap's capacity is retained.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    /// Schedules an event; the assigned `seq` makes the total order
    /// deterministic.
    pub fn push(&mut self, time: u64, link: u32, kind: EventKind, arg: u32) {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.heap.push(Reverse(Event {
            time,
            link,
            seq,
            kind,
            arg,
        }));
    }

    /// Pops the earliest event in `(time, link, seq)` order.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Appends every pending event of `kind` scheduled at `time` to `out`,
    /// in the order they will pop. The events stay queued. A linear scan
    /// of the heap; `out` does not reallocate while it has room for them.
    pub fn pending_at(&self, time: u64, kind: EventKind, out: &mut Vec<Event>) {
        let from = out.len();
        out.extend(
            self.heap
                .iter()
                .map(|Reverse(e)| *e)
                .filter(|e| e.time == time && e.kind == kind),
        );
        out[from..].sort_unstable();
    }

    /// Outstanding events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Current heap capacity (the allocation high-water mark).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_link_seq_order() {
        let mut q = EventQueue::with_capacity(8);
        q.push(5, 1, EventKind::Arrival, 0); // seq 0
        q.push(3, 9, EventKind::Attempt, 0); // seq 1
        q.push(5, 0, EventKind::TxEnd, 7); // seq 2
        q.push(5, 1, EventKind::AckDone, 1); // seq 3
        let order: Vec<(u64, u32, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.link, e.seq))
            .collect();
        assert_eq!(order, vec![(3, 9, 1), (5, 0, 2), (5, 1, 0), (5, 1, 3)]);
    }

    #[test]
    fn pending_at_lists_one_kind_at_one_time_in_pop_order() {
        let mut q = EventQueue::with_capacity(8);
        q.push(5, 4, EventKind::TxEnd, 0); // seq 0
        q.push(5, 2, EventKind::Attempt, 0); // seq 1
        q.push(6, 1, EventKind::TxEnd, 0); // seq 2
        q.push(5, 1, EventKind::TxEnd, 0); // seq 3
        q.push(5, 3, EventKind::TxEnd, 0); // seq 4
        let mut out = Vec::with_capacity(8);
        q.pending_at(5, EventKind::TxEnd, &mut out);
        let got: Vec<(u32, u32)> = out.iter().map(|e| (e.link, e.seq)).collect();
        assert_eq!(got, vec![(1, 3), (3, 4), (4, 0)]);
        assert_eq!(q.len(), 5, "the query leaves the events queued");
    }

    #[test]
    fn clear_retains_capacity_and_resets_seq() {
        let mut q = EventQueue::with_capacity(16);
        let cap = q.capacity();
        for t in 0..10 {
            q.push(t, 0, EventKind::Arrival, 0);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), cap);
        q.push(1, 0, EventKind::Arrival, 0);
        assert_eq!(q.pop().unwrap().seq, 0, "seq restarts per trial");
    }
}
