//! The typed message protocol of the shared-nothing runtime.
//!
//! Three actor roles exchange these messages and nothing else — there is no
//! shared mutable state to fall back on:
//!
//! ```text
//!   client ──Submit(spec)──► control ──Access | SnapshotRead [+ Forget(below)]──► data node
//!   client ◄─Commit ack────   control ◄─AccessDone | SnapshotReply─────────────────
//!                             control ◄─Recover (a killed node rejoins)────────────
//!                             control | runtime ──Shutdown──► data node
//! ```
//!
//! The client protocol is two messages: one `Submit` carrying the full
//! declaration, one `Commit` ack when the transaction has committed. A BAT
//! declares its whole access set up front and is too expensive to abort
//! once running, so everything in between — admission, per-step lock
//! requests, routing each bulk-access order to the owning partition,
//! parking a turned-away transaction and retrying it when a completion
//! frees capacity — is the control node's business and never crosses the
//! client link: there is no grant, reject, delay or abort message. Bursty
//! links coalesce messages into flat [`Msg::Batch`] frames. The recorded
//! history keeps the serial per-transaction call shape (arrive, then per
//! step request and step-complete, then commit) because only the control
//! node ever talks to the scheduler. A data node applies and logs a bulk
//! step whole and answers it once, with one `AccessDone`: control books the
//! step on that reply alone.
//!
//! **Forgetting by notice.** A data node learns what it may drop the way
//! it learns everything else: from control, on the wire. Once every order
//! control sent for a transaction is answered — a writer at its commit, a
//! reader at its last `SnapshotReply` — control queues the transaction's
//! id, with the GC floors its end raised, as a [`Msg::Forget`] for each node
//! that served it. Every notice also carries the shard's low-water mark:
//! ids ascend per client, so no transaction below it is live or can still
//! arrive, and the node forgets everything below the least mark of every
//! shard — what a lost notice named goes with the next one, and what a
//! replayed log brought back with the notice that answers the node's
//! `Recover`. A notice rides behind an order in the next `Batch` control
//! sends that node (only the answer to a `Recover` with nothing to re-send
//! makes a frame of its own), and every link is FIFO, so it always arrives
//! after every copy of the orders it retires.
//!
//! Wire tags 1, 2, 3 and 7 belonged to the retired per-step client protocol,
//! tag 12 to the retired recovery acknowledgement; they stay unassigned: the
//! codec rejects them as unknown tags. Tag 8, [`Msg::StatsDelta`], still
//! decodes, but no actor sends one and control refuses one.

use wtpg_core::partition::PartitionId;
use wtpg_core::txn::{AccessMode, TxnId, TxnSpec};
use wtpg_obs::MsgCounts;

/// A protocol message. Every variant is self-describing (carries the ids it
/// refers to), so handlers are idempotent under duplicate delivery.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Client → control: run this transaction to commit. Clients always
    /// send `step: None` with `spec: Some(..)`; the control node refuses any
    /// other shape (the two `Option`s are what is left of the per-step
    /// request the field layout once carried).
    Submit {
        /// The requesting client, so the control node can route the ack.
        client: u32,
        /// The transaction.
        txn: TxnId,
        /// Always `None`.
        step: Option<u32>,
        /// The full declaration.
        spec: Option<TxnSpec>,
    },
    /// Control → data node: run one bulk step against the owned partition.
    /// Redelivered verbatim at the control node's re-send deadlines until
    /// the matching [`Msg::AccessDone`] arrives; the data node's
    /// applied-marks make redelivery idempotent.
    Access {
        /// The transaction.
        txn: TxnId,
        /// The step index within the transaction.
        step: u32,
        /// The partition to scan or update.
        partition: PartitionId,
        /// Read or write.
        mode: AccessMode,
        /// Total milli-object cells to touch.
        units: u64,
        /// Retired: control stamps `units` here and the data node, which
        /// applies and logs a step whole, does not read it. It stays on the
        /// wire because the benchmark package builds the message.
        chunk_units: u64,
        /// For write steps: the control-assigned per-partition seal
        /// sequence, under which the data node files the step in its
        /// version chain (the MVCC layer's total order per partition —
        /// agreed by both ends even when the fault layer reorders
        /// deliveries). Zero for read steps, and for the first write of a
        /// partition: sequences start at 0.
        seal: u64,
    },
    /// Data node → control: the bulk step finished all its units.
    AccessDone {
        /// The transaction.
        txn: TxnId,
        /// The finished step.
        step: u32,
        /// Checksum folded over the touched cells (read steps feed the
        /// run's read checksum).
        checksum: u64,
        /// Units applied, echoing the order.
        units: u64,
    },
    /// Control → client: the transaction committed (an ack for a
    /// transaction the client no longer tracks is a duplicate delivery and
    /// is ignored).
    Commit {
        /// The committing client.
        client: u32,
        /// The transaction.
        txn: TxnId,
    },
    /// One progress chunk of a bulk step was applied — the paper's
    /// per-object weight-adjustment message. Retired from the protocol: a
    /// data node answers a step once, with its [`Msg::AccessDone`], and
    /// control refuses this as a protocol error. The variant and its codec
    /// arms stay because the benchmark package builds and decodes it.
    StatsDelta {
        /// The transaction.
        txn: TxnId,
        /// The step being executed.
        step: u32,
        /// Zero-based chunk index within the step.
        chunk: u64,
        /// Milli-object cells in this chunk.
        units: u64,
    },
    /// Orderly teardown. Control → data nodes after the last commit;
    /// control → clients only on a failed run (fast failure).
    Shutdown,
    /// A vectored frame: several messages bound for the same peer coalesced
    /// into one wire frame by a sender-side [`crate::batch::Coalescer`].
    /// Counts as *one* wire message in transmit accounting; receivers unpack
    /// and handle the inner messages in order. Nesting is illegal — the
    /// codec rejects a `Batch` inside a `Batch` — so fault-injected
    /// duplicate delivery duplicates the whole batch and per-message
    /// idempotency still holds.
    Batch(Vec<Msg>),
    /// Data node → control: a killed-and-restarted node finished replaying
    /// its write-ahead log and is rejoining the run. Control re-sends the
    /// node's outstanding `Access` orders immediately (instead of waiting
    /// out their redelivery deadlines), followed by a [`Msg::Forget`].
    Recover {
        /// The recovered data node.
        node: u32,
        /// The node's next log sequence number after replay (durable log
        /// length in records, checkpoint-adjusted).
        last_lsn: u64,
        /// Chunk records the node re-applied from its log.
        replayed_chunks: u64,
    },
    /// Control → data node: serve one step of a read-only BAT against the
    /// snapshot its exclusion set describes, without taking any lock. The
    /// node folds the snapshot's read checksum in closed form (current cells
    /// less writes sealed at or above `horizon` and applied `exclude` entries)
    /// and answers [`Msg::SnapshotReply`]. Redelivered verbatim at the
    /// control node's re-send deadlines; the node's snapshot-marks replay the
    /// original reply.
    SnapshotRead {
        /// The read-only transaction.
        txn: TxnId,
        /// The step index within the transaction.
        step: u32,
        /// The partition to scan.
        partition: PartitionId,
        /// Milli-object cells to scan.
        units: u64,
        /// The partition's seal horizon at the snapshot: writes sealed at
        /// or above this sequence are after the snapshot.
        horizon: u64,
        /// Sealed-but-uncommitted sequences below the horizon (dirty at
        /// the snapshot; subtracted if applied, skipped if not yet).
        exclude: Vec<u64>,
        /// Piggybacked GC floor: the node prunes chain entries below it.
        floor: u64,
    },
    /// Data node → control: the snapshot read finished its scan.
    SnapshotReply {
        /// The read-only transaction.
        txn: TxnId,
        /// The finished step.
        step: u32,
        /// Checksum folded over the reconstructed snapshot cells — the
        /// value the snapshot-consistency certifier checks.
        checksum: u64,
        /// Units scanned, echoing the order.
        units: u64,
    },
    /// Control → data node: what the node may forget. No transaction of
    /// `shard` below `below` is live or can still arrive, and every order
    /// control sent for `txns` is answered; none of those will be sent an
    /// order again, so their step marks and snapshot-read memos go once
    /// every shard's mark has passed them or a notice names them. Each
    /// partition's version chain is pruned below its floor in `floors`.
    /// Rides behind an order (see the module docs).
    Forget {
        /// The control shard sending the notice.
        shard: u32,
        /// The shard's low-water mark: the least of its smallest live id
        /// and, per client, the id after that client's last `Submit`.
        below: TxnId,
        /// Transactions retired since the last notice to this node.
        txns: Vec<TxnId>,
        /// Raised GC floors of partitions the node owns.
        floors: Vec<(PartitionId, u64)>,
    },
}

impl Msg {
    /// The codec wire tag of this message type. Tags are pinned by
    /// `wire-schema.lock` and have gaps where variants were retired.
    pub fn tag(&self) -> u8 {
        match self {
            Msg::Submit { .. } => 0,
            Msg::Access { .. } => 4,
            Msg::AccessDone { .. } => 5,
            Msg::Commit { .. } => 6,
            Msg::StatsDelta { .. } => 8,
            Msg::Shutdown => 9,
            Msg::Batch(_) => 10,
            Msg::Recover { .. } => 11,
            Msg::SnapshotRead { .. } => 13,
            Msg::SnapshotReply { .. } => 14,
            Msg::Forget { .. } => 15,
        }
    }

    /// The messages one delivered frame carries, in order: a `Batch`'s inner
    /// messages, counted as one `batch` in `rx`, or the frame itself. An
    /// actor hands each to its handler, which refuses a `Batch` (the codec
    /// rejects nesting, and dispatch does not recurse).
    #[inline]
    pub(crate) fn unpack(self, rx: &mut MsgCounts) -> impl Iterator<Item = Msg> {
        let (one, many) = match self {
            Msg::Batch(inner) => {
                rx.batch += 1;
                (None, inner)
            }
            m => (Some(m), Vec::new()),
        };
        one.into_iter().chain(many)
    }

    /// Bumps the counter of this message's type in `counts`.
    pub fn count(&self, counts: &mut MsgCounts) {
        match self {
            Msg::Submit { .. } => counts.submit += 1,
            Msg::Access { .. } => counts.access += 1,
            Msg::AccessDone { .. } => counts.access_done += 1,
            Msg::Commit { .. } => counts.commit += 1,
            Msg::StatsDelta { .. } => counts.stats_delta += 1,
            Msg::Shutdown => counts.shutdown += 1,
            Msg::Batch(_) => counts.batch += 1,
            Msg::Recover { .. } => counts.recover += 1,
            Msg::SnapshotRead { .. } => counts.snapshot_read += 1,
            Msg::SnapshotReply { .. } => counts.snapshot_reply += 1,
            Msg::Forget { .. } => counts.forget += 1,
        }
    }
}
