//! A bounded MPMC queue with blocking backpressure and a non-blocking pop.
//!
//! Every in-process mailbox of `wtpg-net` is one of these: senders push,
//! the owning actor pops. A full queue blocks the sender, but the mailboxes
//! are built with no bound (an in-process send never blocks): only
//! `bench/`'s hand-off micro still builds a bounded one. Implemented on
//! `Mutex<VecDeque> + Condvar` pairs so the crate stays dependency-free.
//!
//! Each condvar keeps books under the queue lock — how many threads sleep
//! on it, and how many of those a wake-up is already on its way to — and a
//! hand-off signals only a sleeper that has none coming. std's futex
//! `notify_one` is a `FUTEX_WAKE` syscall whether or not it is needed, and
//! it rarely is: on a busy queue nobody is asleep, and a consumer that is
//! needs one wake-up for the burst pushed before it runs, not one per item.
//! No wake-up can be lost. A thread about to sleep holds the lock from its
//! emptiness (fullness) check until `wait` releases it, so whoever changes
//! the queue next sees it on the books; and every thread that leaves a
//! wait, for whatever reason, strikes one pending wake-up off the books
//! and re-checks the queue before anything else, so a wake-up that reached
//! a sleeper which had just woken spuriously is never counted against
//! another.
//!
//! The queue is generic and free of protocol types.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Outcome of a non-blocking pop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PopResult<T> {
    /// An item was dequeued.
    Item(T),
    /// Nothing was available, but the queue is still open.
    Empty,
    /// The queue is closed and fully drained; no item will ever arrive.
    Closed,
}

impl<T> PopResult<T> {
    /// The dequeued item, if any.
    pub fn item(self) -> Option<T> {
        match self {
            PopResult::Item(t) => Some(t),
            PopResult::Empty | PopResult::Closed => None,
        }
    }
}

/// One condvar's books (see the module docs).
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct Sleepers {
    /// Threads inside a wait.
    asleep: usize,
    /// Wake-ups issued that no leaving thread has struck off yet; never
    /// more than `asleep`.
    signalled: usize,
}

impl Sleepers {
    /// Whether a hand-off must notify: some sleeper has no wake-up coming.
    /// Books the wake-up if so.
    fn claim_wake(&mut self) -> bool {
        let wake = self.asleep > self.signalled;
        if wake {
            self.signalled += 1;
        }
        wake
    }

    fn enter(&mut self) {
        self.asleep += 1;
    }

    /// A thread is back from its wait — notified, timed out or spuriously
    /// woken, it cannot tell which, so it takes a pending wake-up with it:
    /// if that one was meant for a thread still asleep, the next hand-off
    /// finds `asleep > signalled` again and notifies once too often, which
    /// is harmless; keeping it could leave that thread asleep for good.
    fn leave(&mut self) {
        self.asleep -= 1;
        self.signalled = self.signalled.saturating_sub(1);
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Books for `not_empty` (a blocked `pop`).
    poppers: Sleepers,
    /// Books for `not_full` (a blocked `push`).
    pushers: Sleepers,
}

/// A bounded multi-producer / multi-consumer queue.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                poppers: Sleepers::default(),
                pushers: Sleepers::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "invariant: queue lock is never poisoned (no panics while held)"
    )]
    fn locked(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state
            .lock()
            .expect("invariant: queue lock is never poisoned (no panics while held)")
    }

    /// Appends `item` and releases the lock, waking one sleeping popper if
    /// one still needs it.
    fn put(&self, mut s: MutexGuard<'_, QueueState<T>>, item: T) {
        s.items.push_back(item);
        let wake = s.poppers.claim_wake();
        drop(s);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Takes the front item, if any, and releases the lock, waking one
    /// blocked pusher if one still needs it. An empty queue hands the guard back.
    fn take<'a>(
        &self,
        mut s: MutexGuard<'a, QueueState<T>>,
    ) -> Result<T, MutexGuard<'a, QueueState<T>>> {
        let Some(item) = s.items.pop_front() else {
            return Err(s);
        };
        let wake = s.pushers.claim_wake();
        drop(s);
        if wake {
            self.not_full.notify_one();
        }
        Ok(item)
    }

    /// Pushes `item`, blocking while the queue is full. Returns `false` (and
    /// drops the item) if the queue was closed.
    #[expect(
        clippy::expect_used,
        reason = "invariant: queue lock is never poisoned (no panics while held)"
    )]
    pub fn push(&self, item: T) -> bool {
        let mut s = self.locked();
        while s.items.len() >= self.capacity && !s.closed {
            s.pushers.enter();
            s = self
                .not_full
                .wait(s)
                .expect("invariant: queue lock is never poisoned (no panics while held)");
            s.pushers.leave();
        }
        if s.closed {
            return false;
        }
        self.put(s, item);
        true
    }

    /// Pops without blocking: [`PopResult::Empty`] when nothing is queued
    /// right now, [`PopResult::Closed`] once closed and drained.
    pub fn try_pop(&self) -> PopResult<T> {
        match self.take(self.locked()) {
            Ok(item) => PopResult::Item(item),
            Err(s) if s.closed => PopResult::Closed,
            Err(_) => PopResult::Empty,
        }
    }

    /// Pops the next item, blocking while the queue is empty and open.
    /// Returns `None` once the queue is closed *and* drained.
    #[expect(
        clippy::expect_used,
        reason = "invariant: queue lock is never poisoned (no panics while held)"
    )]
    pub fn pop(&self) -> Option<T> {
        let mut s = self.locked();
        loop {
            s = match self.take(s) {
                Ok(item) => return Some(item),
                Err(s) => s,
            };
            if s.closed {
                return None;
            }
            s.poppers.enter();
            s = self
                .not_empty
                .wait(s)
                .expect("invariant: queue lock is never poisoned (no panics while held)");
            s.poppers.leave();
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked poppers wake up with `None` once empty.
    pub fn close(&self) {
        let mut s = self.locked();
        s.closed = true;
        drop(s);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether a pop would return at once: an item is queued or the queue
    /// is closed (racy against other poppers; exact for the only one).
    pub fn can_pop(&self) -> bool {
        let s = self.locked();
        s.closed || !s.items.is_empty()
    }

    /// Items currently queued (racy; diagnostics only).
    pub fn len(&self) -> usize {
        self.locked().items.len()
    }

    /// True when nothing is queued right now (racy; diagnostics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Threads asleep on `(not_empty, not_full)` right now; once nobody is
    /// asleep no wake-up may still be on the books.
    #[cfg(test)]
    fn sleepers(&self) -> (usize, usize) {
        let s = self.locked();
        for books in [s.poppers, s.pushers] {
            assert!(books.signalled <= books.asleep, "{books:?}");
        }
        (s.poppers.asleep, s.pushers.asleep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

    /// Every wait path — satisfied, timed out, spuriously woken, closed —
    /// must have left the sleeper books at zero.
    fn assert_no_sleepers<T>(q: &BoundedQueue<T>) {
        assert_eq!(q.sleepers(), (0, 0), "a wait path leaked a sleeper count");
    }

    /// Spins until `q`'s sleeper books read `want`. A sleeper is counted
    /// under the lock that `wait` then releases, so once the count is
    /// visible the thread is parked as far as any later notifier can tell.
    fn await_sleepers<T>(q: &BoundedQueue<T>, want: (usize, usize)) {
        while q.sleepers() != want {
            std::thread::yield_now();
        }
    }

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_no_sleepers(&q);
    }

    #[test]
    fn close_drains_then_none() {
        let q = BoundedQueue::new(4);
        q.push(7);
        q.close();
        assert!(!q.push(8), "push after close must fail");
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
        assert_no_sleepers(&q);
    }

    #[test]
    fn full_queue_blocks_submitter_until_pop() {
        let q = BoundedQueue::new(1);
        assert!(q.push(1));
        std::thread::scope(|s| {
            let h = s.spawn(|| q.push(2)); // blocks: capacity 1
            await_sleepers(&q, (0, 1));
            assert_eq!(q.len(), 1, "second push must still be parked");
            assert_eq!(q.pop(), Some(1));
            assert!(h.join().unwrap(), "parked push completes after pop");
        });
        assert_eq!(q.pop(), Some(2));
        assert_no_sleepers(&q);
    }

    #[test]
    fn try_pop_distinguishes_empty_from_closed() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_pop(), PopResult::<u32>::Empty);
        assert!(!q.can_pop());
        q.push(5);
        assert!(q.can_pop());
        assert_eq!(q.try_pop(), PopResult::Item(5));
        q.close();
        assert!(q.can_pop(), "a closed queue pops at once");
        assert_eq!(q.try_pop(), PopResult::<u32>::Closed);
        assert_eq!(PopResult::Item(7).item(), Some(7));
        assert_eq!(PopResult::<u32>::Empty.item(), None);
        assert_no_sleepers(&q);
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let q = BoundedQueue::new(3);
        let total: usize = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut n = 0usize;
                        while q.pop().is_some() {
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            let producers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        for i in 0..50 {
                            assert!(q.push(i));
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            consumers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(total, 100);
        assert_no_sleepers(&q);
    }

    /// The hand-off signals only when a sleeper is on the books, so the
    /// books must never under-count: a capacity-1 queue keeps producers and
    /// consumers parking on both condvars constantly, and blocking and
    /// non-blocking pops are in the mix. A lost wake-up hangs the run; a
    /// double delivery or a drop fails the tally.
    #[test]
    fn no_wakeup_is_lost_at_capacity_one() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 50_000;
        let q: BoundedQueue<usize> = BoundedQueue::new(1);
        let seen: Vec<AtomicU8> = (0..PRODUCERS * PER_PRODUCER).map(|_| AtomicU8::new(0)).collect();
        let delivered = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for c in 0..CONSUMERS {
                let (q, seen, delivered) = (&q, &seen, &delivered);
                s.spawn(move || {
                    for turn in c.. {
                        let item = match turn % 2 {
                            0 => match q.pop() {
                                Some(item) => item,
                                None => break,
                            },
                            _ => match q.try_pop() {
                                PopResult::Item(item) => item,
                                PopResult::Empty => continue,
                                PopResult::Closed => break,
                            },
                        };
                        seen[item].fetch_add(1, Ordering::Relaxed);
                        delivered.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = &q;
                    s.spawn(move || {
                        for item in p * PER_PRODUCER..(p + 1) * PER_PRODUCER {
                            assert!(q.push(item));
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().expect("producer");
            }
            q.close();
        });
        assert_eq!(delivered.load(Ordering::Relaxed), PRODUCERS * PER_PRODUCER);
        assert!(
            seen.iter().all(|n| n.load(Ordering::Relaxed) == 1),
            "every item is delivered exactly once"
        );
        assert_no_sleepers(&q);
    }

    #[test]
    fn close_wakes_every_sleeper_on_both_condvars() {
        // Two pushers parked on a full queue …
        let full = BoundedQueue::new(1);
        assert!(full.push(0));
        // … and two poppers parked on an empty one.
        let empty: BoundedQueue<u32> = BoundedQueue::new(1);
        std::thread::scope(|s| {
            let pushers = [s.spawn(|| full.push(1)), s.spawn(|| full.push(2))];
            let poppers = [s.spawn(|| empty.pop()), s.spawn(|| empty.pop())];
            await_sleepers(&full, (0, 2));
            await_sleepers(&empty, (2, 0));
            full.close();
            empty.close();
            for p in pushers {
                assert!(!p.join().expect("pusher"), "a push woken by close fails");
            }
            for p in poppers {
                assert_eq!(p.join().expect("popper"), None);
            }
        });
        assert_eq!(full.pop(), Some(0), "a closed queue still drains");
        assert_no_sleepers(&full);
        assert_no_sleepers(&empty);
    }
}
