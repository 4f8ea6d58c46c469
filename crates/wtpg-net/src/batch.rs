//! Sender-side message coalescing into [`Msg::Batch`] frames, and the link
//! faults a frame meets on its way.
//!
//! A [`Coalescer`] wraps one directed link and buffers outbound messages
//! until one of two triggers flushes them as a single vectored frame: the
//! buffer reaches `batch_max`, or the owning actor's turn ends (it must
//! flush before blocking on its inbox, or the run deadlocks on buffered
//! orders). The executor drains an actor's inbox before it moves another,
//! so a buffered message waits at most one turn of its owner. A flush of
//! one message sends it plain — the wire never carries a one-element
//! `Batch` — so single-message traffic costs exactly what it did before
//! batching existed.
//!
//! Accounting follows the protocol's contract: a sent `Batch` counts as
//! *one* wire message (`tx.batch`), its payload size is recorded in the
//! batch-size histogram, and the number of messages travelling inside
//! batches accumulates in `batched_inner`; the owner publishes all three
//! into the run's registry when it is done.
//!
//! **Link faults.** With active [`LinkFaults`], every flushed frame (a
//! `Batch` is one fault unit) goes through a seeded delay line that delivers
//! it now, holds it until `now + d`, or delivers it twice; a held frame holds
//! everything behind it, so the link stays FIFO. Nothing here reads a clock:
//! the due times run on the instants the owner hands in (`advance`, which
//! also releases what is due); the owner waits for `next_due` and `drain`s
//! the line when it is done.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wtpg_obs::window::metric;
use wtpg_obs::{Histogram, MsgCounts, Registry};
use wtpg_rt::backoff::XorShift;

use crate::fault::LinkFaults;
use crate::msg::Msg;
use crate::transport::MsgTx;

/// A buffering wrapper around one directed link.
pub struct Coalescer {
    inner: Arc<dyn MsgTx>,
    buf: Vec<Msg>,
    batch_max: usize,
    /// The longest flush so far: the room a fresh buffer starts with.
    widest: usize,
    /// The owner's latest step instant (`None` until it hands one in).
    now: Option<Instant>,
    /// The link's delay line (`None`: no fault can fire).
    line: Option<DelayLine>,
    /// Messages sent on the wire, by type (a flushed batch counts once).
    pub tx: MsgCounts,
    /// Messages that travelled inside sent batches.
    pub batched_inner: u64,
    /// Distribution of flush sizes (size-1 flushes included).
    pub sizes: Histogram,
    /// Frames this coalescer's flushes had the line delay, and duplicate.
    delayed: u64,
    duplicated: u64,
}

/// A link's seeded delivery schedule: held frames in send order, each with
/// its due instant (`None`: sent before the owner told the time, so due at
/// once) and whether it goes twice.
struct DelayLine {
    faults: LinkFaults,
    rng: XorShift,
    held: VecDeque<(Option<Instant>, Msg, bool)>,
}

impl Coalescer {
    /// Wraps `inner`, buffering at most `batch_max` messages (clamped ≥ 1).
    pub fn new(inner: Arc<dyn MsgTx>, batch_max: usize) -> Coalescer {
        Coalescer {
            inner,
            buf: Vec::new(),
            batch_max: batch_max.max(1),
            widest: 0,
            now: None,
            line: None,
            tx: MsgCounts::default(),
            batched_inner: 0,
            sizes: Histogram::new(),
            delayed: 0,
            duplicated: 0,
        }
    }

    /// Puts a delay line seeded with `seed` on the link, if `faults` can
    /// fire.
    pub(crate) fn with_faults(mut self, faults: LinkFaults, seed: u64) -> Coalescer {
        let (rng, held) = (XorShift::new(seed), VecDeque::new());
        self.line = faults.active().then_some(DelayLine { faults, rng, held });
        self
    }

    /// A fresh coalescer on the same link that takes over this one's clock
    /// and delay line, held frames and generator: a frame on the wire
    /// outlives the process that sent it. The buffer and the books stay.
    pub(crate) fn handover(&mut self) -> Coalescer {
        let fresh = Coalescer::new(Arc::clone(&self.inner), self.batch_max);
        Coalescer { now: self.now, line: self.line.take(), ..fresh }
    }

    /// The owning actor's step instant is `now`: the delay line runs on it.
    /// Releases the held frames now due; `false` once the peer is gone.
    pub(crate) fn advance(&mut self, now: Instant) -> bool {
        self.now = Some(now);
        self.release(false)
    }

    /// When the first held frame is due, if the line holds one.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.line.as_ref()?.held.front()?.0
    }

    /// Buffers `m`, flushing if the buffer reaches `batch_max`. Returns
    /// `false` once the peer is gone (a failed flush).
    pub fn push(&mut self, m: Msg) -> bool {
        debug_assert!(
            !matches!(m, Msg::Batch(_)),
            "coalescers buffer plain messages; nesting batches is illegal"
        );
        self.buf.push(m);
        if self.buf.len() >= self.batch_max {
            return self.flush();
        }
        true
    }

    /// Sends everything buffered: one plain message, or one `Batch` frame
    /// for two or more, through the delay line if the link has one. The
    /// frame is handed over, not copied ([`MsgTx::send_owned`]), and the
    /// next buffer starts with room for as many messages as the longest
    /// flush so far held (at most `batch_max`): a steady state allocates
    /// one buffer per `Batch` frame and never regrows one.
    /// Returns `false` once the peer is gone; an empty buffer is a
    /// successful no-op.
    pub fn flush(&mut self) -> bool {
        let n = self.buf.len();
        if n == 0 {
            return true;
        }
        self.sizes.record(n as u64);
        #[expect(clippy::expect_used, reason = "invariant: n == 1 checked above")]
        let frame = if n == 1 {
            self.buf.pop().expect("invariant: n == 1 checked above")
        } else {
            self.widest = self.widest.max(n);
            Msg::Batch(std::mem::replace(&mut self.buf, Vec::with_capacity(self.widest)))
        };
        // A frame the line takes is on the wire: booked now, delivered when
        // the line says. A frame sent at once is booked if the peer took it
        // (counted before it moves, so the count is taken back if not).
        let (booked, lined) = (self.tx, self.line.is_some());
        frame.count(&mut self.tx);
        let ok = self.hold(frame);
        if ok || lined {
            self.batched_inner += if n > 1 { n as u64 } else { 0 };
        } else {
            self.tx = booked;
        }
        ok
    }

    /// Sends `frame`, or, on a link with a delay line, queues it there with
    /// the fate the line draws for it and releases what is due.
    fn hold(&mut self, frame: Msg) -> bool {
        let Some(DelayLine { faults: f, rng, held }) = self.line.as_mut() else {
            return self.inner.send_owned(frame);
        };
        let delay = (f.delay_prob_pct > 0 && rng.next_below(100) < u64::from(f.delay_prob_pct))
            .then(|| Duration::from_micros(rng.next_below(f.max_delay_us + 1)));
        let twice = f.dup_prob_pct > 0 && rng.next_below(100) < u64::from(f.dup_prob_pct);
        held.push_back((self.now.map(|t| t + delay.unwrap_or_default()), frame, twice));
        self.delayed += u64::from(delay.is_some());
        self.duplicated += u64::from(twice);
        self.release(false)
    }

    /// Flushes, then delivers every held frame at once, due or not: the
    /// owner is done, and what it sent still arrives, in order. `false`
    /// once the peer is gone.
    pub(crate) fn drain(&mut self) -> bool {
        let flushed = self.flush();
        self.release(true) && flushed
    }

    /// Delivers held frames from the front: those due by the owner's
    /// latest instant, or (`all`) every one.
    fn release(&mut self, all: bool) -> bool {
        let (mut ok, now) = (true, self.now);
        let Some(line) = self.line.as_mut() else {
            return true;
        };
        while let Some((_, frame, twice)) = line.held.pop_front_if(|(due, ..)| all || *due <= now) {
            // Only a frame the line duplicates is copied.
            ok &= (!twice || self.inner.send(&frame)) && self.inner.send_owned(frame);
        }
        ok
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
        let faults = [(metric::FAULT_DUPS, self.duplicated), (metric::FAULT_DELAYS, self.delayed)];
        crate::publish(reg, str::to_string, faults);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests time real waits on the wall clock"
)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wtpg_core::txn::TxnId;
    use wtpg_rt::queue::{BoundedQueue, PopResult};

    struct SinkTx(Arc<BoundedQueue<Msg>>);
    impl MsgTx for SinkTx {
        fn send(&self, m: &Msg) -> bool {
            self.0.push(m.clone())
        }
    }

    fn wired(batch_max: usize) -> (Coalescer, Arc<BoundedQueue<Msg>>) {
        let q: Arc<BoundedQueue<Msg>> = Arc::new(BoundedQueue::new(usize::MAX));
        (Coalescer::new(Arc::new(SinkTx(Arc::clone(&q))), batch_max), q)
    }

    fn commit(txn: u64) -> Msg {
        Msg::Commit { client: 0, txn: TxnId(txn) }
    }

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    /// The ids of the commits delivered since the last call, in order.
    fn heard(q: &BoundedQueue<Msg>) -> Vec<u64> {
        let mut out = Vec::new();
        while let PopResult::Item(m) = q.try_pop() {
            match m {
                Msg::Commit { txn, .. } => out.push(txn.0),
                other => panic!("unexpected {other:?}"),
            }
        }
        out
    }

    #[test]
    fn single_message_flush_sends_plain() {
        let (mut c, q) = wired(8);
        assert!(c.push(commit(1)));
        assert_eq!(q.len(), 0, "push buffers, nothing on the wire yet");
        assert!(c.flush());
        assert_eq!(q.try_pop(), PopResult::Item(commit(1)));
        assert_eq!(c.tx.commit, 1);
        assert_eq!(c.tx.batch, 0, "one message never becomes a Batch");
        assert_eq!(c.batched_inner, 0);
        assert!(c.flush(), "empty flush is a no-op");
    }

    #[test]
    fn multiple_messages_coalesce_into_one_batch() {
        let (mut c, q) = wired(8);
        for i in 0..3 {
            assert!(c.push(commit(i)));
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
    fn push_reports_peer_gone() {
        let (mut c, q) = wired(1);
        q.close();
        assert!(!c.push(Msg::Shutdown), "batch_max=1 flushes immediately");
    }

    const FLAKY: LinkFaults = LinkFaults {
        delay_prob_pct: 30,
        max_delay_us: 200,
        dup_prob_pct: 40,
    };

    /// Every frame delayed, by up to a millisecond; none duplicated.
    const SLOW: LinkFaults = LinkFaults {
        delay_prob_pct: 100,
        max_delay_us: 1000,
        dup_prob_pct: 0,
    };

    /// Per flush, what was delivered and how long after the origin the line
    /// is next due; then what the drain delivered.
    type Trace = (Vec<(Vec<u64>, Option<Duration>)>, Vec<u64>);

    /// `n` commits through a line of `faults` seeded `seed`, one flushed
    /// every 50 µs.
    fn trace(faults: LinkFaults, seed: u64, n: u64) -> (Trace, Coalescer) {
        let (c, q) = wired(8);
        let mut c = c.with_faults(faults, seed);
        let t0 = Instant::now();
        let mut steps = Vec::new();
        for i in 0..n {
            assert!(c.advance(t0 + us(50 * i)));
            assert!(c.push(commit(i)) && c.flush(), "a held frame is a sent frame");
            steps.push((heard(&q), c.next_due().map(|t| t - t0)));
        }
        assert!(c.drain());
        ((steps, heard(&q)), c)
    }

    #[test]
    fn a_faulty_line_keeps_fifo_and_delivers_each_frame_once_plus_its_duplicate() {
        let ((steps, drained), c) = trace(FLAKY, 7, 200);
        let all: Vec<u64> = steps.iter().flat_map(|(d, _)| d.clone()).chain(drained).collect();
        assert!(all.windows(2).all(|w| w[0] <= w[1]), "FIFO violated: {all:?}");
        let mut times: BTreeMap<u64, u64> = BTreeMap::new();
        for txn in &all {
            *times.entry(*txn).or_default() += 1;
        }
        assert_eq!(times.len(), 200, "every frame is delivered");
        assert!(times.values().all(|&k| k <= 2));
        let twice = times.values().filter(|&&k| k == 2).count() as u64;
        assert_eq!(twice, c.duplicated, "once, plus once per counted duplicate");
        assert!(c.duplicated > 0, "40% dup rate must fire in 200 frames");
        assert!(c.delayed > 0, "30% delay rate must fire in 200 frames");
        assert!(steps.iter().any(|(_, due)| due.is_some()), "a delay held a frame back");
        assert_eq!(c.tx.commit, 200, "a frame is booked once, held or duplicated");
    }

    #[test]
    fn a_seed_repeats_its_deliveries_and_due_instants() {
        let (first, _) = trace(FLAKY, 11, 100);
        let (again, _) = trace(FLAKY, 11, 100);
        assert_eq!(first, again);
        let (other, _) = trace(FLAKY, 12, 100);
        assert_ne!(first, other, "different seeds draw different streams");
    }

    #[test]
    fn a_held_frame_holds_what_follows_until_its_due_instant() {
        let (c, q) = wired(8);
        let mut c = c.with_faults(SLOW, 3);
        let t0 = Instant::now();
        assert!(c.advance(t0));
        assert!(c.push(commit(1)) && c.flush());
        let due = c.next_due().expect("every frame is delayed");
        assert!(due > t0, "seed 3 draws a non-zero first delay");
        assert!(c.push(commit(2)) && c.flush());
        assert!(c.advance(due - us(1)));
        assert_eq!(heard(&q), Vec::<u64>::new(), "not due yet");
        assert!(c.advance(due));
        let mut out = heard(&q);
        assert_eq!(out.first(), Some(&1), "released at its due instant");
        assert!(c.drain());
        out.extend(heard(&q));
        assert_eq!(out, vec![1, 2]);
        assert_eq!(c.next_due(), None, "drained");
    }

    #[test]
    fn a_successor_takes_over_the_held_frames_but_not_the_buffer() {
        let (c, q) = wired(8);
        let mut old = c.with_faults(SLOW, 3);
        assert!(old.advance(Instant::now()));
        assert!(old.push(commit(1)) && old.flush());
        assert!(old.push(commit(2)), "buffered only");
        let due = old.next_due();
        let mut next = old.handover();
        assert_eq!((old.next_due(), next.next_due()), (None, due));
        assert!(due.is_some());
        assert!(old.drain());
        assert_eq!(heard(&q), vec![2], "the old buffer is the old coalescer's");
        assert!(next.drain());
        assert_eq!(heard(&q), vec![1], "the held frame outlives its sender");
        assert_eq!((old.delayed, next.delayed), (1, 0), "each books its own");
    }

    /// A link that tells frames it was handed from frames it had to copy.
    #[derive(Default)]
    struct MoveTx {
        moved: AtomicU64,
        copied: AtomicU64,
    }

    impl MsgTx for MoveTx {
        fn send(&self, _: &Msg) -> bool {
            self.copied.fetch_add(1, Ordering::Relaxed);
            true
        }

        fn send_owned(&self, _: Msg) -> bool {
            self.moved.fetch_add(1, Ordering::Relaxed);
            true
        }
    }

    impl MoveTx {
        fn seen(&self) -> (u64, u64) {
            (self.moved.load(Ordering::Relaxed), self.copied.load(Ordering::Relaxed))
        }
    }

    #[test]
    fn a_flush_hands_its_frame_over_and_a_line_copies_only_a_duplicate() {
        let tx = Arc::new(MoveTx::default());
        let mut c = Coalescer::new(Arc::clone(&tx) as Arc<dyn MsgTx>, 8);
        for i in 0..3 {
            assert!(c.push(commit(i)));
        }
        assert!(c.flush() && c.push(commit(3)) && c.flush());
        assert_eq!(tx.seen(), (2, 0), "a Batch and a plain frame, both moved");
        assert!(c.buf.capacity() >= 3, "the next buffer has room for the widest flush");

        let twice = LinkFaults {
            delay_prob_pct: 0,
            max_delay_us: 0,
            dup_prob_pct: 100,
        };
        let mut c = Coalescer::new(Arc::clone(&tx) as Arc<dyn MsgTx>, 8).with_faults(twice, 1);
        assert!(c.advance(Instant::now()) && c.push(commit(4)) && c.flush());
        assert_eq!(tx.seen(), (3, 1), "the duplicate is the one copy");
    }

    #[test]
    fn faults_that_cannot_fire_build_no_line() {
        let (c, q) = wired(8);
        let mut c = c.with_faults(LinkFaults::NONE, 5);
        assert!(c.line.is_none());
        assert!(c.push(commit(1)) && c.flush());
        assert_eq!(heard(&q), vec![1], "delivered at once, no time needed");
        assert_eq!(c.next_due(), None);
    }
}
