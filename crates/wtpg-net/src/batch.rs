//! Sender-side message coalescing into [`Msg::Batch`] frames.
//!
//! A [`Coalescer`] wraps one directed link and buffers outbound messages
//! until one of three triggers flushes them as a single vectored frame:
//! the buffer reaches `batch_max`, the owning actor goes idle (it must
//! flush before blocking on its inbox, or the run deadlocks on buffered
//! orders), or the oldest buffered message has waited past the flush
//! window. A flush of one message sends it plain — the wire never carries
//! a one-element `Batch` — so single-message traffic costs exactly what it
//! did before batching existed.
//!
//! Accounting follows the protocol's contract: a sent `Batch` counts as
//! *one* wire message (`tx.batch`), its payload size is recorded in the
//! batch-size histogram, and the number of messages travelling inside
//! batches accumulates in `batched_inner`; the owner publishes all three
//! into the run's registry when it is done. The fault layer operates on
//! whole messages, so a duplicated or delayed `Batch` is duplicated or
//! delayed as a unit and per-message idempotency downstream is untouched.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wtpg_obs::window::metric;
use wtpg_obs::{Histogram, MsgCounts, Registry};

use crate::msg::Msg;
use crate::transport::MsgTx;

/// A buffering wrapper around one directed link.
pub struct Coalescer {
    inner: Arc<dyn MsgTx>,
    buf: Vec<Msg>,
    batch_max: usize,
    /// When the oldest buffered message was pushed (None = buffer empty).
    first_buffered_at: Option<Instant>,
    /// Messages sent on the wire, by type (a flushed batch counts once).
    pub tx: MsgCounts,
    /// Messages that travelled inside sent batches.
    pub batched_inner: u64,
    /// Distribution of flush sizes (size-1 flushes included).
    pub sizes: Histogram,
}

impl Coalescer {
    /// Wraps `inner`, buffering at most `batch_max` messages (clamped ≥ 1).
    pub fn new(inner: Arc<dyn MsgTx>, batch_max: usize) -> Coalescer {
        Coalescer {
            inner,
            buf: Vec::new(),
            batch_max: batch_max.max(1),
            first_buffered_at: None,
            tx: MsgCounts::default(),
            batched_inner: 0,
            sizes: Histogram::new(),
        }
    }

    /// Buffers `m`, flushing if the buffer reaches `batch_max`. Returns
    /// `false` once the peer is gone (a failed flush).
    pub fn push(&mut self, m: Msg) -> bool {
        debug_assert!(
            !matches!(m, Msg::Batch(_)),
            "coalescers buffer plain messages; nesting batches is illegal"
        );
        if self.buf.is_empty() {
            self.first_buffered_at = Some(Instant::now());
        }
        self.buf.push(m);
        if self.buf.len() >= self.batch_max {
            return self.flush();
        }
        true
    }

    /// Sends everything buffered: one plain message, or one `Batch` frame
    /// for two or more. Returns `false` once the peer is gone; an empty
    /// buffer is a successful no-op.
    pub fn flush(&mut self) -> bool {
        if self.buf.is_empty() {
            return true;
        }
        self.first_buffered_at = None;
        let n = self.buf.len();
        self.sizes.record(n as u64);
        if n == 1 {
            let m = self.buf.pop().expect("invariant: n == 1 checked above");
            let ok = self.inner.send(&m);
            if ok {
                m.count(&mut self.tx);
            }
            return ok;
        }
        let batch = Msg::Batch(std::mem::take(&mut self.buf));
        let ok = self.inner.send(&batch);
        if ok {
            batch.count(&mut self.tx);
            self.batched_inner += n as u64;
        }
        ok
    }

    /// True when something is buffered and the oldest buffered message has
    /// waited at least `window`.
    pub fn overdue(&self, window: Duration) -> bool {
        self.first_buffered_at
            .is_some_and(|t| t.elapsed() >= window)
    }

    /// Messages currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Publishes this link's tallies into the run's registry — once, when
    /// the owning actor (or incarnation) is done with it.
    pub(crate) fn publish(&self, reg: &Registry) {
        crate::publish(reg, metric::msg_tx, self.tx.fields());
        reg.counter(metric::BATCHED_INNER).add(self.batched_inner);
        reg.hist(metric::BATCH_SIZE).merge(&self.sizes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtpg_core::txn::TxnId;
    use wtpg_rt::queue::{BoundedQueue, PopResult};

    struct SinkTx(Arc<BoundedQueue<Msg>>);
    impl MsgTx for SinkTx {
        fn send(&self, m: &Msg) -> bool {
            self.0.push(m.clone())
        }
    }

    fn wired(batch_max: usize) -> (Coalescer, Arc<BoundedQueue<Msg>>) {
        let q: Arc<BoundedQueue<Msg>> = Arc::new(BoundedQueue::new(64));
        (Coalescer::new(Arc::new(SinkTx(Arc::clone(&q))), batch_max), q)
    }

    #[test]
    fn single_message_flush_sends_plain() {
        let (mut c, q) = wired(8);
        assert!(c.push(Msg::Commit { client: 0, txn: TxnId(1) }));
        assert_eq!(q.len(), 0, "push buffers, nothing on the wire yet");
        assert!(c.flush());
        assert_eq!(q.try_pop(), PopResult::Item(Msg::Commit { client: 0, txn: TxnId(1) }));
        assert_eq!(c.tx.commit, 1);
        assert_eq!(c.tx.batch, 0, "one message never becomes a Batch");
        assert_eq!(c.batched_inner, 0);
        assert!(c.flush(), "empty flush is a no-op");
    }

    #[test]
    fn multiple_messages_coalesce_into_one_batch() {
        let (mut c, q) = wired(8);
        for i in 0..3 {
            assert!(c.push(Msg::Commit { client: 0, txn: TxnId(i) }));
        }
        assert_eq!(c.pending(), 3);
        assert!(c.flush());
        match q.try_pop() {
            PopResult::Item(Msg::Batch(inner)) => assert_eq!(inner.len(), 3),
            other => panic!("expected one Batch, got {other:?}"),
        }
        assert_eq!(q.try_pop(), PopResult::Empty, "exactly one frame sent");
        assert_eq!(c.tx.batch, 1);
        assert_eq!(c.tx.total(), 1, "a batch is one wire message");
        assert_eq!(c.batched_inner, 3);
        assert_eq!(c.sizes.count(), 1);
    }

    #[test]
    fn batch_max_triggers_auto_flush() {
        let (mut c, q) = wired(2);
        assert!(c.push(Msg::Shutdown));
        assert!(c.push(Msg::Shutdown));
        assert_eq!(c.pending(), 0, "hitting batch_max flushes");
        match q.try_pop() {
            PopResult::Item(Msg::Batch(inner)) => assert_eq!(inner.len(), 2),
            other => panic!("expected a Batch, got {other:?}"),
        }
    }

    #[test]
    fn overdue_tracks_oldest_buffered_message() {
        let (mut c, _q) = wired(8);
        assert!(!c.overdue(Duration::ZERO), "empty buffer is never overdue");
        c.push(Msg::Shutdown);
        assert!(c.overdue(Duration::ZERO));
        assert!(!c.overdue(Duration::from_secs(3600)));
        c.flush();
        assert!(!c.overdue(Duration::ZERO), "flush clears the window");
    }

    #[test]
    fn push_reports_peer_gone() {
        let (mut c, q) = wired(1);
        q.close();
        assert!(!c.push(Msg::Shutdown), "batch_max=1 flushes immediately");
    }
}
