//! A data-node actor: exclusive owner of one [`NodeStore`] partition set.
//!
//! Shared-nothing means exactly this: the actor's store is a plain owned
//! value — no mutex, no sharing — and the only way anything touches it is
//! an `Access` order arriving in the actor's inbox. The actor applies the
//! bulk operation chunk by chunk, streaming one `StatsDelta` per chunk back
//! to the control node (the paper's per-object weight-adjustment message)
//! and finishing with an `AccessDone` carrying the step's checksum.
//!
//! **Batched replies.** All replies flow through a [`Coalescer`], so a bulk
//! step's `StatsDelta` stream and its `AccessDone` leave as one (or a few)
//! `Batch` frames instead of one frame per chunk, and replies for
//! back-to-back orders coalesce across steps. The coalescer is flushed
//! before the actor blocks on an empty inbox, so the control node is never
//! starved of a reply the actor is sitting on. Inbound `Batch` frames (the
//! control side coalesces orders the same way) are unpacked and the inner
//! orders applied in sequence.
//!
//! **Durability.** Under [`Durability::Buffered`]/[`Durability::Sync`] the
//! actor owns a [`WalWriter`]: every applied chunk is logged (with its
//! partition dependency edge) *before* its `StatsDelta` is pushed, and a
//! log barrier precedes every reply flush — so nothing control hears about
//! is absent from the durable log (group commit: one flush, and under
//! `Sync` one fsync, per reply batch rather than per chunk). A node
//! snapshot checkpoint is written every [`SNAPSHOT_EVERY`] records to bound
//! replay to a log suffix.
//!
//! **Idempotent redelivery.** Every applied step leaves a mark (its
//! checksum and unit count). A redelivered or duplicated `Access` for a
//! marked step replays the reply stream — the `StatsDelta`s and the
//! `AccessDone` — without touching the store; the control node's chunk
//! cursor and completed-set absorb whatever it already credited. The full
//! replay matters after a kill, which can destroy buffered replies the
//! control node never saw.
//!
//! **Crash simulation.** A [`CrashPlan`] makes the actor discard everything
//! it receives for a window — including the wire message that triggered it,
//! batches dropped whole — modelling a node that is down while its durable
//! state (store and applied-marks) survives. Recovery needs no protocol:
//! the control node's redelivery watchdog re-sends unanswered orders until
//! the node is back.
//!
//! **Kill and restart.** A [`KillPlan`] goes further: the actor itself is
//! torn down — store, marks, mid-step progress, buffered replies, and the
//! log writer's userspace buffer all destroyed — and rebuilt from disk by
//! [`wtpg_dur::recover`], which replays the log's partition dependency
//! chains in parallel. The restarted node announces [`Msg::Recover`] so the
//! control plane re-sends its outstanding orders immediately; applied-marks
//! and partial progress recovered from the log make those re-sends exactly
//! as idempotent as ordinary redelivery.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wtpg_core::partition::Catalog;
use wtpg_core::txn::{AccessMode, TxnId};
use wtpg_dur::checkpoint::{files, snapshot_from_state, write_node_snapshot};
use wtpg_dur::wal::{ChunkRecord, WalWriter};
use wtpg_dur::{recover, DurError, Durability, Partial};
use wtpg_mvcc::{read_checksum, GcWatermark, VersionChain};
use wtpg_obs::window::metric;
use wtpg_obs::{Counter, Gauge, HistHandle, MsgCounts, Registry};
use wtpg_rt::queue::PopResult;
use wtpg_rt::store::NodeStore;

use crate::batch::Coalescer;
use crate::error::NetError;
use crate::fault::{CrashPlan, KillPlan};
use crate::msg::Msg;
use crate::transport::{Inbox, MsgTx};

/// Log records between node snapshot checkpoints. Snapshots serialize the
/// node's whole store, so a tight interval dominates the durability cost
/// (at 256 a buffered run spent more time checkpointing than logging);
/// 4096 keeps replay bounded while the per-record cost stays the WAL's.
pub const SNAPSHOT_EVERY: u64 = 4096;

/// Replay worker-thread cap for kill-restart recoveries.
const REPLAY_WORKERS: usize = 8;

/// Group-commit age window: buffered records older than this are written
/// at the next pre-block flush (see [`DataActor::wal_flush_idle`]).
const WAL_AGE_WINDOW: Duration = Duration::from_millis(2);

/// What one data node's store holds after the run — the conservation
/// values the runtime checks against the workload's declarations. They are
/// fault-detection values, read off the store itself, and deliberately not
/// metrics; every count the node observed is in the run's registry.
pub struct DataOutcome {
    /// Sum over the node's cells after the run.
    pub cell_sum: u64,
    /// Milli-object write units tallied at write time.
    pub write_units: u64,
    /// Checksum folded over every bulk read this node served.
    pub read_checksum: u64,
}

/// Everything [`run_data_node`] needs to run one node, bundled so the call
/// site stays readable as knobs accumulate.
pub struct DataNodeParams<'a> {
    /// The partition layout (decides which partitions this node owns).
    pub catalog: &'a Catalog,
    /// This node's id.
    pub node: u32,
    /// Optional message-drop crash window.
    pub crash: Option<CrashPlan>,
    /// Optional kill-and-restart-from-log plan.
    pub kill: Option<KillPlan>,
    /// Reply-coalescer buffer bound.
    pub batch_max: usize,
    /// The node's write-ahead log: how hard applied chunks are made durable
    /// (a level that keeps a log) and the directory holding the log and
    /// snapshot. `None` keeps no log; a `kill` plan restarts from one, so
    /// without it the plan never fires ([`RunPlan`](crate::RunPlan) refuses
    /// that cell before any actor exists).
    pub log: Option<(Durability, &'a Path)>,
    /// The run's books: every count this node observes lands here, under
    /// its [`metric`] name, and nowhere else.
    pub reg: &'a Registry,
    /// Control-published GC floors. `Some` turns the MVCC layer on: write
    /// steps carry seal sequences into per-partition version chains, and
    /// `SnapshotRead` orders are served from them. Chains are in-memory
    /// only, so kill plans are incompatible with the snapshot plane (the
    /// runtime rejects that combination up front).
    pub mvcc: Option<Arc<GcWatermark>>,
}

/// Pre-resolved metric handles of one data node. They belong to the node,
/// not to an incarnation of its actor: a kill destroys the incarnation and
/// the series carry on.
struct DataTel {
    units: Counter,
    crash_drops: Counter,
    snapshot_reads: Counter,
    wal_records: Counter,
    wal_flushes: Counter,
    wal_fsyncs: Counter,
    wal_bytes: Counter,
    wal_lag: Gauge,
    checkpoints: Counter,
    recoveries: Counter,
    replayed_chunks: Counter,
    replayed_chains: Counter,
    torn_tails: Counter,
    replay_chain: HistHandle,
}

impl DataTel {
    fn new(reg: &Registry) -> DataTel {
        DataTel {
            units: reg.counter(metric::DATA_UNITS),
            crash_drops: reg.counter(metric::CRASH_DROPS),
            snapshot_reads: reg.counter(metric::SNAPSHOT_READS),
            wal_records: reg.counter(metric::WAL_RECORDS),
            wal_flushes: reg.counter(metric::WAL_FLUSHES),
            wal_fsyncs: reg.counter(metric::WAL_FSYNCS),
            wal_bytes: reg.counter(metric::WAL_BYTES),
            wal_lag: reg.gauge(metric::WAL_LAG),
            checkpoints: reg.counter(metric::WAL_CHECKPOINTS),
            recoveries: reg.counter(metric::WAL_RECOVERIES),
            replayed_chunks: reg.counter(metric::WAL_REPLAYED_CHUNKS),
            replayed_chains: reg.counter(metric::WAL_REPLAYED_CHAINS),
            torn_tails: reg.counter(metric::WAL_TORN_TAILS),
            replay_chain: reg.hist(metric::WAL_REPLAY_CHAIN),
        }
    }
}

/// What one handled message asks of the main loop.
enum Flow {
    Continue,
    /// `Shutdown` arrived or the control link is gone.
    Stop,
}

struct DataActor<'a> {
    node: u32,
    store: NodeStore,
    marks: BTreeMap<(TxnId, u32), (u64, u64)>,
    /// Mid-step progress recovered from the log: the next redelivered
    /// `Access` for the key resumes from `next_chunk` instead of chunk 0.
    partials: BTreeMap<(TxnId, u32), Partial>,
    wal: Option<WalWriter>,
    replies: Coalescer,
    batch_max: usize,
    rx: MsgCounts,
    read_checksum: u64,
    catalog: &'a Catalog,
    /// Write a node snapshot once the log reaches this LSN.
    snapshot_due: u64,
    wal_dir: Option<&'a Path>,
    tel: &'a DataTel,
    /// Per-partition version chains (empty while the snapshot plane is
    /// off: nothing inserts without a sealed write or a snapshot read).
    chains: BTreeMap<u32, VersionChain>,
    /// Served snapshot reads: `(txn, step) → (checksum, units)`. A
    /// redelivered `SnapshotRead` answers from here — the chain may have
    /// pruned past the original horizon by then, so recomputing could
    /// diverge; the memo keeps redelivery byte-identical.
    snap_marks: BTreeMap<(TxnId, u32), (u64, u64)>,
    /// Eviction index over `snap_marks`: per partition, `(hold, txn, step)`
    /// ordered by the read's hold (`min(horizon, smallest excluded seq)` —
    /// the same value capping the control-side GC floor). The floor rising
    /// *strictly above* a hold proves the reader is no longer active — the
    /// floor is capped at or below every active hold — so control absorbed
    /// all its replies and can never redeliver; `gc_poll` drops such memos,
    /// keeping a sustained read mix from growing this map without bound.
    snap_mark_holds: BTreeMap<u32, BTreeSet<(u64, TxnId, u32)>>,
    /// Control-published GC floors (`None` ⇒ snapshot plane off).
    mvcc: Option<Arc<GcWatermark>>,
}

impl<'a> DataActor<'a> {
    /// Reply barrier: nothing escaping the node may outrun the log. At
    /// every level this writes the buffered records to the file — a kill
    /// destroys only the process's userspace, so the `write` is what makes
    /// a record survive it; committed work missing from the log would be
    /// unhealable (control redelivers only unacked steps). `sync`
    /// additionally `fdatasync`s, extending the promise to machine
    /// crashes.
    fn wal_barrier(&mut self) -> Result<(), NetError> {
        self.with_wal(WalWriter::sync)
    }

    /// Runs one operation on the log writer (a no-op without one) and books
    /// what it did: every call on the writer goes through here, so the
    /// `wal/*` counters are the writers' own tallies summed over
    /// incarnations. The lag gauge is the writer's userspace buffer in
    /// bytes — what a kill would destroy right now.
    fn with_wal(
        &mut self,
        op: impl FnOnce(&mut WalWriter) -> Result<(), DurError>,
    ) -> Result<(), NetError> {
        let Some(w) = self.wal.as_mut() else {
            return Ok(());
        };
        let before = w.stats;
        op(w)?;
        let (t, after) = (self.tel, w.stats);
        for (counter, delta) in [
            (&t.wal_records, after.records - before.records),
            (&t.wal_flushes, after.flushes - before.flushes),
            (&t.wal_fsyncs, after.fsyncs - before.fsyncs),
            (&t.wal_bytes, after.bytes - before.bytes),
        ] {
            if delta != 0 {
                counter.add(delta);
            }
        }
        t.wal_lag.set(w.buffered_bytes() as u64);
        Ok(())
    }

    /// Pure-idle flush, for ticks where no replies are pending: nothing is
    /// about to escape, so only records past the group-commit age window
    /// are written — the age half of group commit, without paying a file
    /// write for every brief gap between bursts.
    fn wal_flush_aged(&mut self) -> Result<(), NetError> {
        self.with_wal(|w| w.flush_aged(WAL_AGE_WINDOW))
    }

    /// Pushes a reply, placing a log barrier first whenever this push will
    /// flush the reply batch — the invariant that nothing escaping the node
    /// outruns the log. Returns `Ok(false)` once the peer is gone.
    fn push_reply(&mut self, m: Msg) -> Result<bool, NetError> {
        if self.replies.pending() + 1 >= self.batch_max {
            self.wal_barrier()?;
        }
        Ok(self.replies.push(m))
    }

    /// Writes a snapshot checkpoint when the log has grown past the due
    /// mark, bounding any future replay to the records that follow.
    fn maybe_snapshot(&mut self) -> Result<(), NetError> {
        let due = self.wal.as_ref().is_some_and(|w| w.next_lsn() >= self.snapshot_due);
        let Some(dir) = self.wal_dir else {
            return Ok(());
        };
        if !due {
            return Ok(());
        }
        // The snapshot claims everything below next_lsn; barrier so the
        // claim never outruns the file.
        self.wal_barrier()?;
        let Some(next_lsn) = self.wal.as_ref().map(WalWriter::next_lsn) else {
            return Ok(());
        };
        let snap = snapshot_from_state(
            next_lsn,
            self.store.snapshot_parts(),
            self.store.write_units(),
            self.read_checksum,
            &self.marks,
            &self.partials,
        );
        write_node_snapshot(&files::node_snapshot(dir, self.node), &snap)?;
        self.tel.checkpoints.inc();
        self.snapshot_due = next_lsn + SNAPSHOT_EVERY;
        Ok(())
    }

    /// Replays the full reply stream of an already-applied step: every
    /// `StatsDelta` plus the `AccessDone`. Control's chunk cursor drops the
    /// ones it already credited and applies the ones a kill destroyed.
    fn replay_marked(
        &mut self,
        txn: TxnId,
        step: u32,
        checksum: u64,
        done_units: u64,
        chunk_size: u64,
    ) -> Result<Flow, NetError> {
        let mut offset = 0u64;
        let mut chunk_idx = 0u64;
        while offset < done_units {
            let chunk = chunk_size.min(done_units - offset);
            if !self.push_reply(Msg::StatsDelta {
                txn,
                step,
                chunk: chunk_idx,
                units: chunk,
            })? {
                return Ok(Flow::Stop);
            }
            offset += chunk;
            chunk_idx += 1;
        }
        let ok = self.push_reply(Msg::AccessDone {
            txn,
            step,
            checksum,
            units: done_units,
        })?;
        Ok(if ok { Flow::Continue } else { Flow::Stop })
    }

    /// Prunes every chain to the control-published GC floor, and drops
    /// snapshot-read memos whose readers that floor proves retired (see
    /// `snap_mark_holds`). Snapshot reads carry floors on the wire, but a
    /// partition only writers touch would keep its chain forever without
    /// this idle-time poll.
    fn gc_poll(&mut self) {
        let Some(w) = &self.mvcc else {
            return;
        };
        for (p, chain) in self.chains.iter_mut() {
            let floor = w.floor(*p);
            chain.prune_below(floor);
            if let Some(idx) = self.snap_mark_holds.get_mut(p) {
                // Strictly below the floor: `hold < floor` is what proves
                // retirement — an active reader caps the floor at its hold.
                let keep = idx.split_off(&(floor, TxnId(0), 0));
                for &(_, txn, step) in idx.iter() {
                    self.snap_marks.remove(&(txn, step));
                }
                *idx = keep;
            }
        }
    }

    // lint:allow(protocol: Submit, AccessDone, Commit, StatsDelta, Recover, SnapshotReply) a data node only receives Access/SnapshotRead/Batch/Shutdown/RecoverAck; the rest is control<->client traffic, and Recover/SnapshotReply are what it *sends*
    fn handle(&mut self, m: Msg) -> Result<Flow, NetError> {
        m.count(&mut self.rx);
        match m {
            Msg::Batch(inner) => {
                for sub in inner {
                    debug_assert!(!matches!(sub, Msg::Batch(_)), "codec rejects nesting");
                    if let Flow::Stop = self.handle(sub)? {
                        return Ok(Flow::Stop);
                    }
                }
                Ok(Flow::Continue)
            }
            Msg::Shutdown => Ok(Flow::Stop),
            Msg::RecoverAck { node, .. } => {
                debug_assert_eq!(node, self.node);
                // Informational: outstanding orders are already being
                // re-sent; the marks/partials make them idempotent.
                Ok(Flow::Continue)
            }
            Msg::Access {
                txn,
                step,
                partition,
                mode,
                units,
                chunk_units,
                seal,
            } => {
                debug_assert_eq!(self.catalog.node_of(partition), self.node);
                let chunk_size = chunk_units.max(1);
                if let Some(&(checksum, done_units)) = self.marks.get(&(txn, step)) {
                    // Redelivery of an applied step: answer, don't re-apply.
                    return self.replay_marked(txn, step, checksum, done_units, chunk_size);
                }
                if self.mvcc.is_some() && mode == AccessMode::Write {
                    // Record the write in the partition's version chain
                    // under its control-assigned seal sequence. The whole
                    // step applies within this handle() call, so between
                    // messages a chain entry ⟺ a fully applied write —
                    // exactly the invariant snapshot reconstruction needs.
                    self.chains
                        .entry(partition.0)
                        .or_default()
                        .record(seal, txn, units);
                }
                // Resume point: chunks below `next_chunk` were applied and
                // logged before a kill; their deltas re-send (control
                // de-duplicates or heals) and application continues from
                // the durable progress mark.
                let resumed = self.partials.remove(&(txn, step)).unwrap_or_default();
                for i in 0..resumed.next_chunk {
                    let prior = chunk_size.min(units.saturating_sub(i * chunk_size));
                    if prior == 0 {
                        break;
                    }
                    if !self.push_reply(Msg::StatsDelta {
                        txn,
                        step,
                        chunk: i,
                        units: prior,
                    })? {
                        return Ok(Flow::Stop);
                    }
                }
                let mut offset = resumed.units_done;
                let mut chunk_idx = resumed.next_chunk;
                let mut checksum = resumed.checksum;
                while offset < units {
                    let chunk = chunk_size.min(units - offset);
                    let sum = self.store.apply_chunk(partition, mode, offset, chunk)?;
                    checksum = checksum.wrapping_add(sum);
                    self.tel.units.add(chunk);
                    // Log before the delta can leave: the record is in the
                    // writer (and on any flush path, in the file) before
                    // control can ever learn of the chunk.
                    let record = ChunkRecord {
                        lsn: 0,
                        prev_lsn: 0,
                        txn,
                        step,
                        chunk: chunk_idx,
                        partition,
                        mode,
                        start_unit: offset,
                        units: chunk,
                        checksum: sum,
                        complete: offset + chunk >= units,
                    };
                    self.with_wal(|w| w.append(record).map(drop))?;
                    if !self.push_reply(Msg::StatsDelta {
                        txn,
                        step,
                        chunk: chunk_idx,
                        units: chunk,
                    })? {
                        return Ok(Flow::Stop);
                    }
                    offset += chunk;
                    chunk_idx += 1;
                }
                if mode == AccessMode::Read {
                    self.read_checksum = self.read_checksum.wrapping_add(checksum);
                }
                self.marks.insert((txn, step), (checksum, units));
                let ok = self.push_reply(Msg::AccessDone {
                    txn,
                    step,
                    checksum,
                    units,
                })?;
                Ok(if ok { Flow::Continue } else { Flow::Stop })
            }
            Msg::SnapshotRead {
                txn,
                step,
                partition,
                units,
                horizon,
                exclude,
                floor,
            } => {
                debug_assert_eq!(self.catalog.node_of(partition), self.node);
                if self.mvcc.is_none() {
                    return Err(NetError::Protocol(format!(
                        "data node {} received SnapshotRead with the snapshot plane off",
                        self.node
                    )));
                }
                if let Some(&(checksum, marked_units)) = self.snap_marks.get(&(txn, step)) {
                    // Redelivery: answer from the memo (see `snap_marks`).
                    let ok = self.push_reply(Msg::SnapshotReply {
                        txn,
                        step,
                        checksum,
                        units: marked_units,
                    })?;
                    return Ok(if ok { Flow::Continue } else { Flow::Stop });
                }
                let chain = self.chains.entry(partition.0).or_default();
                // The piggybacked floor lets the chain shed entries no
                // active snapshot can need, before reconstructing this one.
                chain.prune_below(floor);
                let current = self.store.cells(partition).ok_or_else(|| {
                    NetError::Protocol(format!(
                        "data node {} owns no cells for partition {}",
                        self.node, partition.0
                    ))
                })?;
                let cells = chain.snapshot_cells(current, horizon, &exclude);
                let checksum = read_checksum(&cells, units);
                self.snap_marks.insert((txn, step), (checksum, units));
                // Same hold the control side registered for this read (the
                // exclusion list arrives sorted ascending): the memo is
                // evictable once the floor passes it.
                let hold = exclude.first().copied().unwrap_or(horizon);
                self.snap_mark_holds
                    .entry(partition.0)
                    .or_default()
                    .insert((hold, txn, step));
                self.tel.snapshot_reads.inc();
                let ok = self.push_reply(Msg::SnapshotReply {
                    txn,
                    step,
                    checksum,
                    units,
                })?;
                Ok(if ok { Flow::Continue } else { Flow::Stop })
            }
            other => Err(NetError::Protocol(format!(
                "data node {} received {other:?}, which it never handles",
                self.node
            ))),
        }
    }

    /// Publishes the tallies this incarnation kept privately — message
    /// counts, the reply coalescer's, its version chains' — and drops it.
    /// On the kill path that drop IS the process death: store, marks,
    /// buffered replies, and the log writer's userspace buffer are
    /// destroyed together; the registry's handles are what outlives it.
    fn publish(self, reg: &Registry) {
        crate::publish(reg, metric::msg_rx, self.rx.fields());
        self.replies.publish(reg);
        let (mut appended, mut pruned, mut live_peak) = (0, 0, 0);
        for c in self.chains.values() {
            let (a, p, peak) = c.totals();
            appended += a;
            pruned += p;
            live_peak = peak.max(live_peak);
        }
        crate::publish(
            reg,
            str::to_string,
            [(metric::CHAIN_APPENDED, appended), (metric::CHAIN_PRUNED, pruned)],
        );
        if live_peak > 0 {
            reg.gauge(&metric::node_chain_live_peak(self.node as usize)).set(live_peak);
        }
    }
}

/// Whether a lost message (or any message inside a lost batch) was the
/// run's `Shutdown` — a killed node that swallowed it must exit instead of
/// rejoining, because control will never speak to it again.
fn contains_shutdown(m: &Msg) -> bool {
    match m {
        Msg::Shutdown => true,
        Msg::Batch(inner) => inner.iter().any(|im| matches!(im, Msg::Shutdown)),
        _ => false,
    }
}

/// Runs data node `params.node` until it receives `Shutdown` (or its inbox
/// closes under transport teardown), applying `Access` orders against an
/// owned [`NodeStore`] — freshly zeroed, or rebuilt from the write-ahead
/// log after each planned kill. Replies coalesce into `Batch` frames of at
/// most `batch_max` messages.
///
/// # Errors
/// [`NetError::Core`] if an order addresses a partition this node does not
/// own, [`NetError::Protocol`] on a message type only other actors may
/// receive, [`NetError::Dur`] on a log/checkpoint failure.
pub fn run_data_node(
    params: DataNodeParams<'_>,
    inbox: &Inbox,
    to_control: &Arc<dyn MsgTx>,
) -> Result<DataOutcome, NetError> {
    let DataNodeParams {
        catalog,
        node,
        crash,
        kill,
        batch_max,
        log,
        reg,
        mvcc,
    } = params;
    let tel = DataTel::new(reg);
    let mut crash = crash.filter(|c| c.node as u32 == node);
    // A kill restarts the node from its log, so the plan travels with it.
    let mut kill = kill
        .filter(|k| k.node.is_none() || k.node == Some(node as usize))
        .zip(log);
    let open_writer = |next_lsn: u64, tails: BTreeMap<u32, u64>| {
        log.map(|(durability, dir)| {
            WalWriter::open(&files::node_wal(dir, node), durability, next_lsn, tails)
        })
        .transpose()
    };
    let fresh_actor = |wal: Option<WalWriter>| DataActor {
        node,
        store: NodeStore::for_node(catalog, node),
        marks: BTreeMap::new(),
        partials: BTreeMap::new(),
        wal,
        replies: Coalescer::new(Arc::clone(to_control), batch_max),
        batch_max,
        rx: MsgCounts::default(),
        read_checksum: 0,
        catalog,
        snapshot_due: SNAPSHOT_EVERY,
        wal_dir: log.map(|(_, dir)| dir),
        tel: &tel,
        chains: BTreeMap::new(),
        snap_marks: BTreeMap::new(),
        snap_mark_holds: BTreeMap::new(),
        mvcc: mvcc.clone(),
    };

    let mut processed = 0u64;
    let mut actor = fresh_actor(open_writer(0, BTreeMap::new())?);

    'main: loop {
        // Drain bursts without blocking so consecutive orders' replies
        // coalesce; barrier the log and flush buffered replies before idle.
        let m = match inbox.try_pop() {
            PopResult::Item(m) => m,
            PopResult::Empty => {
                if actor.replies.pending() > 0 {
                    actor.wal_barrier()?;
                } else {
                    actor.wal_flush_aged()?;
                }
                actor.gc_poll();
                if !actor.replies.flush() {
                    break 'main;
                }
                match inbox.pop() {
                    Some(m) => m,
                    None => break 'main,
                }
            }
            PopResult::Closed => break 'main,
        };
        // Fault triggers count protocol messages, not wire frames: a Batch
        // weighs its payload, so a kill or crash scheduled "after N
        // messages" fires however the coalescers grouped them.
        let weight = match &m {
            Msg::Batch(inner) => inner.len().max(1) as u64,
            _ => 1,
        };
        if let Some((plan, (_, dir))) = kill {
            if processed >= plan.after_msgs {
                // Process death: the triggering message is lost, the whole
                // in-memory incarnation is destroyed (only what the log and
                // snapshot files hold survives), and the node is dark for
                // the down window.
                kill = None;
                tel.crash_drops.inc();
                actor.publish(reg);
                let mut saw_shutdown = contains_shutdown(&m);
                let mut closed = false;
                let deadline = Instant::now() + Duration::from_millis(plan.down_ms);
                loop {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    match inbox.pop_timeout(left) {
                        PopResult::Item(dropped) => {
                            tel.crash_drops.inc();
                            saw_shutdown |= contains_shutdown(&dropped);
                        }
                        PopResult::Empty => break,
                        PopResult::Closed => {
                            closed = true;
                            break;
                        }
                    }
                }
                // Restart: replay the log's dependency chains in parallel
                // and rejoin with a Recover announcement.
                let workers = std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
                    .min(REPLAY_WORKERS);
                let rec = recover(catalog, node, dir, workers)?;
                tel.recoveries.inc();
                tel.replayed_chunks.add(rec.replayed_chunks);
                tel.replayed_chains.add(rec.chains);
                tel.torn_tails.add(u64::from(rec.torn_tail));
                for &len in &rec.chain_sizes {
                    tel.replay_chain.record(len);
                }
                let wal = open_writer(rec.next_lsn, rec.tails)?;
                actor = fresh_actor(wal);
                actor.store = rec.store;
                actor.marks = rec.marks;
                actor.partials = rec.partials;
                actor.read_checksum = rec.read_checksum;
                actor.snapshot_due = rec.next_lsn + SNAPSHOT_EVERY;
                if closed || saw_shutdown {
                    // Transport teardown hit mid-window, or the run's
                    // Shutdown was among the lost messages — control has
                    // already moved past this node, so a Recover would
                    // never be answered and blocking for new orders would
                    // hang the join. The recovered state still feeds the
                    // outcome; exit orderly instead.
                    break 'main;
                }
                let announced = actor.replies.push(Msg::Recover {
                    node,
                    last_lsn: rec.next_lsn,
                    replayed_chunks: rec.replayed_chunks,
                }) && actor.replies.flush();
                if !announced {
                    break 'main;
                }
                continue 'main;
            }
        }
        if let Some(plan) = crash {
            if processed >= plan.after_msgs {
                // Down: this wire message and everything else in the window
                // is lost (a batch is lost whole). The durable store and
                // marks survive the restart; buffered replies do not.
                crash = None;
                tel.crash_drops.inc();
                let deadline = Instant::now() + Duration::from_millis(plan.down_ms);
                loop {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        continue 'main;
                    }
                    match inbox.pop_timeout(left) {
                        PopResult::Item(_) => tel.crash_drops.inc(),
                        PopResult::Empty => continue 'main,
                        PopResult::Closed => break 'main,
                    }
                }
            }
        }
        processed += weight;
        if let Flow::Stop = actor.handle(m)? {
            break;
        }
        actor.maybe_snapshot()?;
    }
    // Best-effort final flush: the teardown barrier drains the group-commit
    // buffer at every level, so an orderly exit leaves a complete log on
    // disk; on link loss the reply flush is a no-op anyway.
    actor.wal_barrier()?;
    actor.replies.flush();

    let out = DataOutcome {
        cell_sum: actor.store.cell_sum(),
        write_units: actor.store.write_units(),
        read_checksum: actor.read_checksum,
    };
    actor.publish(reg);
    Ok(out)
}
