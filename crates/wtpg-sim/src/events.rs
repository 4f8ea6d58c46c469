//! The event kernel: a time-ordered queue with deterministic tie-breaking.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wtpg_core::time::Tick;
use wtpg_core::txn::{TxnId, TxnSpec};

/// A scheduled simulation event.
#[derive(Clone, Debug)]
pub enum Event {
    /// A transaction (re-)arrives at the control node.
    Arrive(Box<TxnSpec>),
    /// The control node processes a lock request for a step.
    Request {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index.
        step: usize,
    },
    /// A granted transaction (plus its step's work) reaches its data node.
    DnEnqueue {
        /// The transaction.
        txn: TxnId,
        /// Step index being executed.
        step: usize,
    },
    /// A data node finishes one round-robin quantum.
    DnQuantum {
        /// The data node.
        node: u32,
    },
    /// The control node processes a commit.
    Commit {
        /// Committing transaction.
        txn: TxnId,
    },
}

/// Min-heap of events ordered by (time, insertion sequence): ties fire in
/// the order they were scheduled, keeping runs reproducible.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Tick, u64, EventSlot)>>,
    seq: u64,
}

/// Wrapper that opts the payload out of ordering.
#[derive(Debug)]
struct EventSlot(Event);

impl PartialEq for EventSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for EventSlot {}
impl PartialOrd for EventSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventSlot {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `event` at time `at`.
    pub fn push(&mut self, at: Tick, event: Event) {
        self.heap.push(Reverse((at, self.seq, EventSlot(event))));
        self.seq += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Tick, Event)> {
        self.heap.pop().map(|Reverse((t, _, e))| (t, e.0))
    }

    /// Earliest scheduled time without popping.
    pub fn peek_time(&self) -> Option<Tick> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Tick(30), Event::Commit { txn: TxnId(3) });
        q.push(Tick(10), Event::Commit { txn: TxnId(1) });
        q.push(Tick(20), Event::Commit { txn: TxnId(2) });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Commit { txn } => txn.0,
                _ => panic!("not a commit"),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for id in 0..10u64 {
            q.push(Tick(5), Event::Commit { txn: TxnId(id) });
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Commit { txn } => txn.0,
                _ => panic!("not a commit"),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Tick(7), Event::DnQuantum { node: 0 });
        assert_eq!(q.peek_time(), Some(Tick(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop().unwrap();
        assert!(q.is_empty());
    }
}
