//! # sched — the event-scheduling core
//!
//! [`HeapQueue`] is the future-event list: a `BinaryHeap` of small
//! `Copy` records min-ordered on `(at, seq)`, with the payloads held
//! inline in the generational [`EventArena`] (see [`crate::arena`]).
//!
//! Ordering contract: events pop in strictly ascending `(at, seq)`
//! order, where `seq` is the insertion sequence number, so same-instant
//! events pop FIFO. Cancelled events are tombstoned in the arena and
//! reaped lazily when their record reaches the front, so queue-depth
//! telemetry counts a tombstone until that point. See ARCHITECTURE.md
//! § The scheduler.

use std::collections::BinaryHeap;

pub use crate::arena::{EventArena, EventHandle};
use crate::time::SimTime;

/// A queue record: everything ordering needs, payload left in the
/// arena. `Copy`, 24 bytes — heap sifts move records, never payloads.
#[derive(Clone, Copy)]
struct Rec {
    at: SimTime,
    seq: u64,
    handle: EventHandle,
}

impl Rec {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Rec {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Rec {}
impl PartialOrd for Rec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Rec {
    /// Reversed, so the max-`BinaryHeap` pops the minimum `(at, seq)`.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// The future-event list: `BinaryHeap` min-ordered on `(at, seq)`,
/// payloads inline in an [`EventArena`].
pub struct HeapQueue<T> {
    heap: BinaryHeap<Rec>,
    arena: EventArena<T>,
    seq: u64,
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HeapQueue<T> {
    /// An empty queue.
    pub fn new() -> HeapQueue<T> {
        HeapQueue {
            heap: BinaryHeap::new(),
            arena: EventArena::new(),
            seq: 0,
        }
    }

    /// Schedule `payload` at `at`; later pushes at the same `at` pop
    /// later. Returns a handle usable with [`HeapQueue::cancel`].
    pub fn push(&mut self, at: SimTime, payload: T) -> EventHandle {
        let handle = self.arena.insert(payload);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Rec { at, seq, handle });
        handle
    }

    /// Remove and return the earliest live event, reaping any
    /// tombstones that precede it.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        while let Some(rec) = self.heap.pop() {
            if let Some(payload) = self.arena.take(rec.handle) {
                return Some((rec.at, payload));
            }
        }
        None
    }

    /// Timestamp of the earliest live event, reaping any tombstones
    /// that precede it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(rec) = self.heap.peek() {
            if self.arena.is_live(rec.handle) {
                return Some(rec.at);
            }
            let rec = self.heap.pop().expect("peeked entry exists");
            self.arena.take(rec.handle);
        }
        None
    }

    /// Tombstone a pending event. Returns `true` if it was live
    /// (stale handles and double-cancels return `false`).
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        self.arena.cancel(h)
    }

    /// Records in the heap, including tombstones not yet reaped (the
    /// `sim.queue_depth` gauges depend on this).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nanos(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn drain(q: &mut HeapQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, v)) = q.pop() {
            out.push((at.as_nanos(), v));
        }
        out
    }

    #[test]
    fn same_at_ties_break_by_insertion_order() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        for i in 0..32u64 {
            q.push(nanos(5_000), i);
        }
        let got = drain(&mut q);
        assert_eq!(
            got.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            (0..32).collect::<Vec<_>>(),
            "heap broke FIFO ties"
        );
    }

    #[test]
    fn cancel_reaps_lazily_and_len_matches_heap_semantics() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        let _a = q.push(nanos(1_000), 0);
        let b = q.push(nanos(2_000), 1);
        let _c = q.push(nanos(3_000), 2);
        assert!(q.cancel(b));
        assert!(!q.cancel(b));
        // Tombstone still counted until its record surfaces.
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().map(|(_, v)| v), Some(0));
        assert_eq!(q.len(), 2);
        // Popping past the tombstone reaps it.
        assert_eq!(q.pop().map(|(_, v)| v), Some(2));
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_reaps_leading_tombstones() {
        let mut q: HeapQueue<u64> = HeapQueue::new();
        let a = q.push(nanos(1_000), 0);
        q.push(nanos(2_000), 1);
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(nanos(2_000)));
        assert_eq!(q.len(), 1);
    }
}
