//! Pluggable transports: how actor mailboxes are wired together.
//!
//! A [`Transport`] builds the run's [`Fabric`]: one [`Mailbox`] per actor
//! plus the sender handles each actor is allowed to hold. The topology is a
//! star — clients and data nodes each hold exactly one link, to the
//! control node — matching the paper's single control site.
//!
//! A mailbox is one of two things, by what its links are made of.
//! [`Mailbox::Queue`] is an MPMC queue (`wtpg-rt`'s [`BoundedQueue`]): every
//! in-process link, the control fan-in included, and a sharded run's shard
//! inboxes. [`Mailbox::FanIn`] is a TCP actor's inbox: the read halves of
//! its links — one for a data node or a client, one per peer for the control
//! node — read in place. One executor steps every actor of a run
//! (`actor.rs`), the router of a sharded run among them: it pops without
//! blocking and asks `can_pop` of a sleeping actor's inbox, both answered
//! from what is already queued or read, and its clock is the one wait
//! (`tcp.rs`, "Receiving"). A blocking [`Mailbox::pop`] is for a reader
//! outside any executor (`bench/`'s transport round trips).
//!
//! [`InProc`] wires queues directly: a sender handle is the receiving
//! actor's queue, so messages are moved, never serialized — a sender that
//! owns its frame hands it over with [`MsgTx::send_owned`], which a queue
//! takes as is, without a copy.
//! [`Tcp`](crate::tcp::Tcp) runs every link over a loopback socket framed
//! by the [`codec`](crate::codec) — same protocol, real wire.
//!
//! **Sends never block, on either transport.** One thread steps every actor,
//! and it cannot drain a queue or a socket it is blocked pushing into, so
//! [`InProc`]'s queues (and a sharded run's shard inboxes) have no bound, and
//! a TCP writer holds what the kernel refuses (`tcp.rs`, "Sends never
//! block"). What bounds both is the protocol: a
//! client has at most `pipeline` submissions (open loop: `inflight`)
//! outstanding and is owed one ack for each; a control shard keeps at most
//! `admit_window` transactions admitted, so a data node holds at most that
//! many outstanding orders and answers each once (≤ 2× under duplicate
//! faults). Link faults hold frames
//! in the sender's coalescer (`crate::batch`), not in a queue of their own.

use std::io::{PipeWriter, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use wtpg_obs::ByteCounts;
use wtpg_rt::queue::{BoundedQueue, PopResult};

use crate::error::NetError;
use crate::msg::Msg;
use crate::tcp::FanInRx;

/// A sender handle for one directed link. `send` never blocks (see the
/// module docs) and returns `false` once the peer is gone — the caller
/// treats that as the run ending.
pub trait MsgTx: Send + Sync {
    /// Delivers `m` to the link's receiver. `false` = receiver gone.
    fn send(&self, m: &Msg) -> bool;

    /// [`send`](MsgTx::send) for a sender done with `m`: a link that moves
    /// messages takes it without a copy. By default it is sent by
    /// reference, as a link that encodes its frames needs nothing more.
    fn send_owned(&self, m: Msg) -> bool {
        self.send(&m)
    }
}

/// Where an actor's messages arrive (see the module docs for which actor
/// gets which).
pub enum Mailbox {
    /// A queue any number of senders push into.
    Queue(BoundedQueue<Msg>),
    /// The read halves of an actor's TCP links. Its takers are the executor
    /// (a pop, or a read its clock's `ppoll` found due) or a blocking
    /// [`pop`](Mailbox::pop), which holds the lock across its own `ppoll` and
    /// the `read`s; under it only the fabric's writers are locked, to push
    /// out what they hold.
    FanIn {
        /// The links and what has been read off them.
        rx: Mutex<FanInRx>,
        /// Write end of the pipe in `rx`'s poll set: how [`Mailbox::close`]
        /// reaches a taker blocked in `ppoll`, without the lock.
        waker: PipeWriter,
    },
}

/// An actor's mailbox.
pub type Inbox = Arc<Mailbox>;

#[expect(
    clippy::expect_used,
    reason = "invariant: mailbox lock is never poisoned (no panics while held)"
)]
fn locked<T>(rx: &Mutex<T>) -> MutexGuard<'_, T> {
    rx.lock()
        .expect("invariant: mailbox lock is never poisoned (no panics while held)")
}

impl Mailbox {
    /// A queue mailbox without a bound: a push into it never blocks.
    pub fn queue() -> Inbox {
        Arc::new(Mailbox::Queue(BoundedQueue::new(usize::MAX)))
    }

    /// Whether a pop would return at once: a message is queued or a whole
    /// frame has been read, or the mailbox closed. Bytes still in the
    /// kernel are the clock's to read.
    pub(crate) fn can_pop(&self) -> bool {
        match self {
            Mailbox::Queue(q) => q.can_pop(),
            Mailbox::FanIn { rx, .. } => locked(rx).can_pop(),
        }
    }

    /// Pops without blocking. On a fan-in that means *frames already read*:
    /// bytes still in the kernel are not looked at, so `Empty` does not say
    /// the links are idle. The executor pops this way only after a wait that
    /// read whatever had arrived, so what `Empty` misses is what landed
    /// since — for the open-loop client, which sheds on it, the same race a
    /// queue has with its pusher.
    pub fn try_pop(&self) -> PopResult<Msg> {
        match self {
            Mailbox::Queue(q) => q.try_pop(),
            Mailbox::FanIn { rx, .. } => locked(rx).try_pop(),
        }
    }

    /// Pops the next message, blocking until one arrives (a fan-in waits in
    /// one `ppoll` over its own links). `None` once the mailbox is closed
    /// and drained, or (fan-in) every link is down.
    pub fn pop(&self) -> Option<Msg> {
        match self {
            Mailbox::Queue(q) => q.pop(),
            Mailbox::FanIn { rx, .. } => locked(rx).pop(),
        }
    }

    /// `f` on a fan-in's links, under its lock; `None` on a queue.
    pub(crate) fn with_links<R>(&self, f: impl FnOnce(&mut FanInRx) -> R) -> Option<R> {
        match self {
            Mailbox::Queue(_) => None,
            Mailbox::FanIn { rx, .. } => Some(f(&mut locked(rx))),
        }
    }

    /// Delivers `m` to a queue mailbox; `false` once it is closed. A fan-in
    /// is fed by its links alone and refuses.
    pub fn push(&self, m: Msg) -> bool {
        match self {
            Mailbox::Queue(q) => q.push(m),
            Mailbox::FanIn { .. } => false,
        }
    }

    /// Closes the mailbox: pending messages (on a fan-in, frames already
    /// read) drain, pushes fail, blocked poppers wake.
    pub fn close(&self) {
        match self {
            Mailbox::Queue(q) => q.close(),
            // One byte, never read: the pipe stays readable, so the close is
            // seen by the `ppoll` in progress and by every later one. (A full
            // pipe — 65 536 closes — would block; a failed write means the
            // read end is gone.) The flag then answers `can_pop` at once; the
            // lock waits for a blocked taker, which that byte wakes.
            Mailbox::FanIn { rx, waker } => {
                let _ = (&*waker).write(&[1]);
                locked(rx).closed = true;
            }
        }
    }
}

/// The wired-up run: inboxes and sender handles for every actor.
pub struct Fabric {
    /// The control actor's inbox (fed by every client and data node).
    pub control_inbox: Inbox,
    /// One inbox per data node.
    pub data_inboxes: Vec<Inbox>,
    /// One inbox per client.
    pub client_inboxes: Vec<Inbox>,
    /// Control's sender to each data node.
    pub to_data: Vec<Arc<dyn MsgTx>>,
    /// Control's sender to each client.
    pub to_clients: Vec<Arc<dyn MsgTx>>,
    /// Each data node's sender to control.
    pub data_to_control: Vec<Arc<dyn MsgTx>>,
    /// Each client's sender to control.
    pub client_to_control: Vec<Arc<dyn MsgTx>>,
    /// Transport service threads. Neither [`InProc`] nor
    /// [`Tcp`](crate::tcp::Tcp) has any: every mailbox is read by the actor
    /// it belongs to, and a run refuses a fabric that brings one, as
    /// nothing would join it.
    pub service: Vec<JoinHandle<()>>,
    /// Wire-traffic snapshot hook (all-zero for in-process transports).
    pub bytes: Arc<dyn Fn() -> ByteCounts + Send + Sync>,
}

/// Builds the message fabric for a run's actor topology.
pub trait Transport {
    /// The transport's report label ("inproc", "tcp").
    fn name(&self) -> &'static str;

    /// Wires inboxes and sender handles for one control actor,
    /// `data_nodes` data-node actors, and `clients` client actors.
    ///
    /// # Errors
    /// [`NetError::Io`] if the transport cannot establish its links.
    fn build(&self, data_nodes: usize, clients: usize) -> Result<Fabric, NetError>;
}

/// A sender that pushes straight into the receiver's queue.
struct QueueTx {
    q: Inbox,
}

impl MsgTx for QueueTx {
    fn send(&self, m: &Msg) -> bool {
        self.q.push(m.clone())
    }

    fn send_owned(&self, m: Msg) -> bool {
        self.q.push(m)
    }
}

/// The in-process transport: every link is a queue without a bound.
pub struct InProc;

impl Transport for InProc {
    fn name(&self) -> &'static str {
        "inproc"
    }

    fn build(&self, data_nodes: usize, clients: usize) -> Result<Fabric, NetError> {
        let control_inbox = Mailbox::queue();
        let data_inboxes: Vec<Inbox> = (0..data_nodes).map(|_| Mailbox::queue()).collect();
        let client_inboxes: Vec<Inbox> = (0..clients).map(|_| Mailbox::queue()).collect();
        let tx_to = |q: &Inbox| -> Arc<dyn MsgTx> { Arc::new(QueueTx { q: Arc::clone(q) }) };
        Ok(Fabric {
            to_data: data_inboxes.iter().map(tx_to).collect(),
            to_clients: client_inboxes.iter().map(tx_to).collect(),
            data_to_control: (0..data_nodes).map(|_| tx_to(&control_inbox)).collect(),
            client_to_control: (0..clients).map(|_| tx_to(&control_inbox)).collect(),
            control_inbox,
            data_inboxes,
            client_inboxes,
            service: Vec::new(),
            bytes: Arc::new(ByteCounts::default),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtpg_core::txn::{StepSpec, TxnId, TxnSpec};

    #[test]
    fn inproc_links_deliver_to_the_right_inbox() {
        let f = InProc.build(2, 1).expect("inproc build is infallible");
        let m = Msg::Commit { client: 0, txn: TxnId(4) };
        assert!(f.client_to_control[0].send(&m));
        assert_eq!(f.control_inbox.try_pop(), PopResult::Item(m.clone()));
        assert!(f.to_data[1].send(&m));
        assert_eq!(f.data_inboxes[1].try_pop(), PopResult::Item(m.clone()));
        assert_eq!(f.data_inboxes[0].try_pop(), PopResult::Empty);
        assert!(f.to_clients[0].send(&m));
        assert_eq!(f.client_inboxes[0].try_pop(), PopResult::Item(m));
        assert_eq!((f.bytes)(), wtpg_obs::ByteCounts::default());
    }

    #[test]
    fn an_owned_send_moves_the_frame_into_the_inbox() {
        let f = InProc.build(1, 1).expect("inproc build is infallible");
        let spec = TxnSpec::new(TxnId(3), vec![StepSpec::write(0, 1.0)]);
        let submit = Msg::Submit { client: 0, txn: TxnId(3), step: None, spec: Some(spec) };
        let steps = match &submit {
            Msg::Submit { spec: Some(s), .. } => s.steps().as_ptr(),
            _ => panic!("built as a Submit"),
        };
        assert!(f.client_to_control[0].send_owned(Msg::Batch(vec![submit])));
        let PopResult::Item(Msg::Batch(mut inner)) = f.control_inbox.try_pop() else {
            panic!("the frame arrives whole");
        };
        match inner.pop() {
            Some(Msg::Submit { spec: Some(s), .. }) => {
                assert_eq!(s.steps().as_ptr(), steps, "the declaration was moved, not copied");
            }
            other => panic!("expected the Submit, got {other:?}"),
        }
        f.control_inbox.close();
        assert!(!f.client_to_control[0].send_owned(Msg::Shutdown));
    }

    #[test]
    fn send_fails_once_receiver_closed() {
        let f = InProc.build(1, 1).expect("inproc build is infallible");
        f.data_inboxes[0].close();
        assert!(!f.to_data[0].send(&Msg::Shutdown));
    }
}
