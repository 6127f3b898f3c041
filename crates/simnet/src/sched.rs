//! The discrete-event queue backing [`crate::sim::Sim`].
//!
//! This module owns only the data structure; the firing loop lives in
//! [`crate::sim`] because callbacks need a `&Sim` handle.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

/// Identifies a scheduled timer so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// The callback type fired by the scheduler.
pub(crate) type TimerFn = Box<dyn FnOnce(&crate::sim::Sim) + Send>;

pub(crate) struct Entry {
    pub at: SimTime,
    pub seq: u64,
    pub id: TimerId,
    pub f: TimerFn,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    // Reversed so the BinaryHeap (a max-heap) pops the *earliest* entry;
    // ties break FIFO by sequence number.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pending-timer queue.
///
/// Cancellation is tombstone-based: `cancel` moves the id from the
/// `live` set into the `cancelled` set, and the entry is discarded when
/// it bubbles to the top of the heap. Both sets shrink as entries are
/// popped, so long fleet runs do not accumulate state for timers that
/// already fired or were already reaped — cancelling a dead id is a
/// no-op rather than a permanent tombstone.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    /// Ids of entries still in the heap and not cancelled.
    live: HashSet<TimerId>,
    /// Ids of entries still in the heap but cancelled (awaiting reap).
    cancelled: HashSet<TimerId>,
    next_seq: u64,
    next_id: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a callback at `at`, returning its cancellation handle.
    pub fn push(&mut self, at: SimTime, f: TimerFn) -> TimerId {
        let id = TimerId(self.next_id);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, id, f });
        self.live.insert(id);
        id
    }

    /// Marks a timer as cancelled. Cancelled timers are skipped on pop.
    /// Cancelling a timer that already fired (or was already cancelled)
    /// is a no-op, so the tombstone set stays bounded by the heap size.
    pub fn cancel(&mut self, id: TimerId) {
        if self.live.remove(&id) {
            self.cancelled.insert(id);
        }
    }

    /// The firing time of the earliest live timer, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the earliest live timer with `at <= deadline`.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<Entry> {
        self.skip_cancelled();
        if self.heap.peek().is_some_and(|e| e.at <= deadline) {
            let e = self.heap.pop();
            if let Some(entry) = &e {
                self.live.remove(&entry.id);
            }
            e
        } else {
            None
        }
    }

    /// Pops the earliest live timer with `at` strictly before `bound`.
    /// The parallel executor uses this to fire a lookahead window
    /// half-open on the right, so cross-island deliveries landing *on*
    /// the window boundary are never executed early.
    pub fn pop_before(&mut self, bound: SimTime) -> Option<Entry> {
        self.skip_cancelled();
        if self.heap.peek().is_some_and(|e| e.at < bound) {
            let e = self.heap.pop();
            if let Some(entry) = &e {
                self.live.remove(&entry.id);
            }
            e
        } else {
            None
        }
    }

    /// Number of live pending timers (tombstones excluded), O(1).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Number of cancelled entries still awaiting reap (diagnostics).
    #[cfg(test)]
    pub fn tombstones(&self) -> usize {
        self.cancelled.len()
    }

    fn skip_cancelled(&mut self) {
        while let Some(e) = self.heap.peek() {
            if self.cancelled.remove(&e.id) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

impl fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("cancelled", &self.cancelled.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn noop() -> TimerFn {
        Box::new(|_| {})
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), noop());
        q.push(SimTime::from_micros(10), noop());
        q.push(SimTime::from_micros(20), noop());
        let t1 = q.pop_due(SimTime::MAX).unwrap().at;
        let t2 = q.pop_due(SimTime::MAX).unwrap().at;
        let t3 = q.pop_due(SimTime::MAX).unwrap().at;
        assert_eq!(
            (t1.as_micros(), t2.as_micros(), t3.as_micros()),
            (10, 20, 30)
        );
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(5), noop());
        let b = q.push(SimTime::from_micros(5), noop());
        assert_eq!(q.pop_due(SimTime::MAX).unwrap().id, a);
        assert_eq!(q.pop_due(SimTime::MAX).unwrap().id, b);
    }

    #[test]
    fn deadline_gates_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(100), noop());
        assert!(q.pop_due(SimTime::from_micros(99)).is_none());
        assert!(q.pop_due(SimTime::from_micros(100)).is_some());
    }

    #[test]
    fn cancelled_timers_are_skipped() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(1), noop());
        let b = q.push(SimTime::from_micros(2), noop());
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime::MAX).unwrap().id, b);
        assert!(q.pop_due(SimTime::MAX).is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(1), noop());
        q.push(SimTime::from_micros(9), noop());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
    }

    #[test]
    fn cancelling_a_fired_timer_leaves_no_tombstone() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(1), noop());
        assert_eq!(q.pop_due(SimTime::MAX).unwrap().id, a);
        q.cancel(a); // already fired: must not grow the tombstone set
        assert_eq!(q.tombstones(), 0);
        q.cancel(a); // idempotent
        assert_eq!(q.tombstones(), 0);
    }

    #[test]
    fn tombstones_are_reaped_on_pop() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(1), noop());
        q.push(SimTime::from_micros(2), noop());
        q.cancel(a);
        assert_eq!(q.tombstones(), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime::MAX).unwrap().at.as_micros(), 2);
        assert_eq!(q.tombstones(), 0);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn double_cancel_is_single_tombstone() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(5), noop());
        q.cancel(a);
        q.cancel(a);
        assert_eq!(q.tombstones(), 1);
        assert!(q.pop_due(SimTime::MAX).is_none());
        assert_eq!(q.tombstones(), 0);
    }

    #[test]
    fn pop_before_is_strict() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), noop());
        assert!(q.pop_before(SimTime::from_micros(10)).is_none());
        assert!(q.pop_before(SimTime::from_micros(11)).is_some());
    }
}
