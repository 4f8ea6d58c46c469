//! Pluggable transports: how actor mailboxes are wired together.
//!
//! A [`Transport`] builds the run's [`Fabric`]: one [`Mailbox`] per actor
//! plus the sender handles each actor is allowed to hold. The topology is a
//! star — clients and data nodes each hold exactly one link, to the
//! control node — matching the paper's single control site.
//!
//! A mailbox is one of two things. [`Mailbox::Queue`] is a bounded MPMC
//! queue (`wtpg-rt`'s [`BoundedQueue`]; a full one blocks the sender): every
//! in-process link, and the control node's fan-in on any transport, because
//! many producers meet there. [`Mailbox::Socket`] is the read half of a TCP
//! connection behind a buffered frame reader: an actor with a single
//! inbound link — a data node, a closed-loop client — blocks in `read` on
//! its own socket, so a message costs it one wake-up and no hand-off.
//! Both answer to the same three calls (`try_pop`, `pop`, `pop_timeout`),
//! which is all an actor ever makes.
//!
//! [`InProc`] wires queues directly: a sender handle is the receiving
//! actor's queue, so messages are moved, never serialized.
//! [`Tcp`](crate::tcp::Tcp) runs every link over a loopback socket framed
//! by the [`codec`](crate::codec) — same protocol, real wire.
//!
//! Capacities are sized so the blocking-send fabric cannot deadlock. A
//! client pipelines at most `pipeline` (16) submissions and is owed one ack
//! for each; a control shard keeps at most `admit_window` transactions
//! admitted, so a data node holds at most that many outstanding orders and
//! answers each with a bounded burst of progress reports (≤ 2× under
//! duplicate faults). Every in-flight message therefore fits the control
//! inbox, and what control sends to one peer fits that peer's queue — or,
//! on a socket mailbox, the kernel's send and receive buffers, which play
//! the queue's part there.

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use wtpg_obs::ByteCounts;
use wtpg_rt::queue::{BoundedQueue, PopResult};

use crate::error::NetError;
use crate::msg::Msg;
use crate::tcp::SocketRx;

/// A sender handle for one directed link. `send` blocks on a full peer
/// inbox (the fabric's capacities make that transient) and returns `false`
/// once the peer is gone — the caller treats that as the run ending.
pub trait MsgTx: Send + Sync {
    /// Delivers `m` to the link's receiver. `false` = receiver gone.
    fn send(&self, m: &Msg) -> bool;
}

/// Where an actor's messages arrive (see the module docs for which actor
/// gets which).
pub enum Mailbox {
    /// A bounded queue any number of senders push into.
    Queue(BoundedQueue<Msg>),
    /// The read half of the actor's one TCP link. The lock is a leaf held
    /// across the blocking `read`; the owning actor is its only taker.
    Socket(Mutex<SocketRx>),
}

/// An actor's mailbox.
pub type Inbox = Arc<Mailbox>;

fn locked(rx: &Mutex<SocketRx>) -> MutexGuard<'_, SocketRx> {
    rx.lock()
        .expect("invariant: mailbox lock is never poisoned (no panics while held)")
}

impl Mailbox {
    /// A queue mailbox holding at most `capacity` messages.
    pub fn queue(capacity: usize) -> Inbox {
        Arc::new(Mailbox::Queue(BoundedQueue::new(capacity)))
    }

    /// Pops without blocking. On a socket that means *frames already read*:
    /// bytes still in the kernel are not looked at, so `Empty` does not say
    /// the link is idle. An actor that needs that answer (the open-loop
    /// client, which decides to shed on it) must sit behind a queue — the
    /// runtime pumps its socket into one.
    pub fn try_pop(&self) -> PopResult<Msg> {
        match self {
            Mailbox::Queue(q) => q.try_pop(),
            Mailbox::Socket(rx) => locked(rx).try_pop(),
        }
    }

    /// Pops the next message, blocking until one arrives. `None` once the
    /// mailbox is closed and drained (queue) or the link is down (socket).
    pub fn pop(&self) -> Option<Msg> {
        match self {
            Mailbox::Queue(q) => q.pop(),
            Mailbox::Socket(rx) => locked(rx).pop(),
        }
    }

    /// Pops the next message, waiting at most about `timeout` for one. A
    /// socket's wait is the kernel's receive timeout, which rounds up to a
    /// scheduler tick: good for watchdogs and fault windows, too coarse
    /// for sub-millisecond pacing. `Duration::MAX` is no timeout at all —
    /// [`Self::pop`], with neither a clock read nor a timer armed — so an
    /// actor whose wait is only sometimes bounded needs one blocking call.
    pub fn pop_timeout(&self, timeout: Duration) -> PopResult<Msg> {
        if timeout == Duration::MAX {
            return self.pop().map_or(PopResult::Closed, PopResult::Item);
        }
        match self {
            Mailbox::Queue(q) => q.pop_timeout(timeout),
            Mailbox::Socket(rx) => locked(rx).pop_timeout(timeout),
        }
    }

    /// Delivers `m` to a queue mailbox, blocking while it is full; `false`
    /// once it is closed. A socket mailbox is fed by its peer alone and
    /// refuses.
    pub fn push(&self, m: Msg) -> bool {
        match self {
            Mailbox::Queue(q) => q.push(m),
            Mailbox::Socket(_) => false,
        }
    }

    /// Closes a queue mailbox: pending messages drain, pushes fail, blocked
    /// poppers wake. A socket mailbox closes when its peer's writer does.
    pub fn close(&self) {
        if let Mailbox::Queue(q) = self {
            q.close();
        }
    }
}

/// Spawns a thread that moves messages from `from` into `into` until
/// either ends, then closes `into` if `from` was its only producer
/// (`close_when_done`). This is how a socket comes to feed a queue: the
/// control fan-in, and a client that needs queue semantics.
pub(crate) fn spawn_pump(from: Inbox, into: Inbox, close_when_done: bool) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Some(m) = from.pop() {
            if !into.push(m) {
                break;
            }
        }
        if close_when_done {
            into.close();
        }
    })
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
    /// Transport service threads (the TCP control fan-in's socket pumps);
    /// joined by the runtime after every actor has exited and every sender
    /// is dropped.
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

/// Capacity of the control inbox: large enough for every in-flight message
/// (each client has ≤ `pipeline` submissions outstanding; each data node ≤
/// one step's progress burst per outstanding order, ≤ 2× under duplicate
/// faults).
pub fn control_inbox_capacity(data_nodes: usize, clients: usize) -> usize {
    1024.max(64 * (data_nodes + clients))
}

/// Capacity of data-node and client queue mailboxes.
pub const ACTOR_INBOX_CAPACITY: usize = 1024;

/// A sender that pushes straight into the receiver's queue.
struct QueueTx {
    q: Inbox,
}

impl MsgTx for QueueTx {
    fn send(&self, m: &Msg) -> bool {
        self.q.push(m.clone())
    }
}

/// The in-process transport: every link is a bounded channel.
pub struct InProc;

impl Transport for InProc {
    fn name(&self) -> &'static str {
        "inproc"
    }

    fn build(&self, data_nodes: usize, clients: usize) -> Result<Fabric, NetError> {
        let control_inbox = Mailbox::queue(control_inbox_capacity(data_nodes, clients));
        let data_inboxes: Vec<Inbox> = (0..data_nodes)
            .map(|_| Mailbox::queue(ACTOR_INBOX_CAPACITY))
            .collect();
        let client_inboxes: Vec<Inbox> = (0..clients)
            .map(|_| Mailbox::queue(ACTOR_INBOX_CAPACITY))
            .collect();
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
    use wtpg_core::txn::TxnId;

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
    fn send_fails_once_receiver_closed() {
        let f = InProc.build(1, 1).expect("inproc build is infallible");
        f.data_inboxes[0].close();
        assert!(!f.to_data[0].send(&Msg::Shutdown));
    }

    #[test]
    fn a_pump_moves_everything_then_closes_its_sink() {
        let (from, into) = (Mailbox::queue(4), Mailbox::queue(4));
        let pump = spawn_pump(Arc::clone(&from), Arc::clone(&into), true);
        for i in 0..100 {
            assert!(from.push(Msg::Commit { client: 0, txn: TxnId(i) }));
            assert_eq!(into.pop(), Some(Msg::Commit { client: 0, txn: TxnId(i) }));
        }
        from.close();
        pump.join().expect("a pump exits when its source ends");
        assert_eq!(into.pop(), None, "the sole producer closed the sink");
    }
}
