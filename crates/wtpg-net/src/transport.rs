//! Pluggable transports: how actor mailboxes are wired together.
//!
//! A [`Transport`] builds the run's [`Fabric`]: one inbox per actor plus
//! the sender handles each actor is allowed to hold. The topology is a
//! star — clients and data nodes each hold exactly one link, to the
//! control node — matching the paper's single control site.
//!
//! [`InProc`] wires inboxes directly: a sender handle is the receiving
//! actor's bounded queue (the same MPMC queue the engine uses for
//! submission backpressure), so messages are moved, never serialized.
//! [`Tcp`](crate::tcp::Tcp) runs every link over a loopback socket framed
//! by the [`codec`](crate::codec) — same protocol, real wire.
//!
//! Inbox capacities are sized so the blocking-send fabric cannot deadlock:
//! each client has at most one request in flight, and each data node at
//! most a bounded burst of progress reports per outstanding access, so the
//! control inbox can always absorb every in-flight message.

use std::sync::Arc;
use std::thread::JoinHandle;

use wtpg_obs::ByteCounts;
use wtpg_rt::queue::BoundedQueue;

use crate::error::NetError;
use crate::msg::Msg;

/// A sender handle for one directed link. `send` blocks on a full peer
/// inbox (the fabric's capacities make that transient) and returns `false`
/// once the peer is gone — the caller treats that as the run ending.
pub trait MsgTx: Send + Sync {
    /// Delivers `m` to the link's receiver. `false` = receiver gone.
    fn send(&self, m: &Msg) -> bool;
}

/// An actor's mailbox.
pub type Inbox = Arc<BoundedQueue<Msg>>;

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
    /// Transport service threads (TCP frame readers); joined by the
    /// runtime after every actor has exited and every sender is dropped.
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
/// (each client has ≤ 1 request outstanding; each data node ≤ one step's
/// progress burst per outstanding access, ≤ 2× under duplicate faults).
pub fn control_inbox_capacity(data_nodes: usize, clients: usize) -> usize {
    1024.max(64 * (data_nodes + clients))
}

/// Capacity of data-node and client inboxes.
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
        let control_inbox: Inbox = Arc::new(BoundedQueue::new(control_inbox_capacity(
            data_nodes, clients,
        )));
        let data_inboxes: Vec<Inbox> = (0..data_nodes)
            .map(|_| Arc::new(BoundedQueue::new(ACTOR_INBOX_CAPACITY)))
            .collect();
        let client_inboxes: Vec<Inbox> = (0..clients)
            .map(|_| Arc::new(BoundedQueue::new(ACTOR_INBOX_CAPACITY)))
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
    use wtpg_rt::queue::PopResult;

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
}
