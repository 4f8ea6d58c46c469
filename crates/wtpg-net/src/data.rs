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
//! orders applied in sequence. Under link faults the coalescer's delay line
//! releases what it holds as it comes due, down or up, and the rest at exit.
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
//! **One reply path per order.** An applied step leaves a mark (checksum
//! and unit count); a step a kill cut short leaves a [`Partial`] in the log.
//! Marks, partials and snapshot-read memos are [`StepBook`]s: one `Vec`
//! sorted by `(txn, step)`, which orders arrive in nearly ascending — so a
//! mark costs its 32 bytes, a lookup one binary search, an insert an append
//! or a short shift — and which the node snapshot copies as it stands.
//! An `Access` order looks up how far its step already got — a mark is all
//! of it, a `Partial` its `next_chunk`, otherwise nothing — and walks the
//! step's chunks once ([`wtpg_rt::store::chunks`]): chunks already applied
//! are re-announced, the rest applied, logged and announced, and one
//! `AccessDone` closes the stream. First delivery, redelivery and
//! resume-after-kill are that one loop; control's chunk cursor and
//! completed-set absorb what it already credited, and the re-announced
//! deltas heal what a kill destroyed in the reply buffer.
//!
//! **Forgetting by notice.** The books hold only what control may still ask
//! about. A [`Msg::Forget`] notice carries its control shard's low-water
//! mark — no transaction of the shard below it is live or can still arrive
//! — and names transactions whose every order is answered. The node keeps
//! the latest mark of each shard and drops the marks, partials and memos of
//! every transaction below the least of them, and of those named; it
//! prunes the version chains of the partitions whose GC floors the notice
//! raises (a `SnapshotRead` piggybacks its partition's floor too). Notices
//! ride behind orders on the FIFO link, so one never overtakes a copy of an
//! order it retires. Nothing else tells the node anything: it shares no
//! memory with control. One rule heals both faults: a notice lost inside a
//! crash window (a crash loses deliveries and keeps the books) leaves its
//! transactions behind only until the next notice's mark passes them, and
//! the marks a kill's log replay brings back of transactions retired long
//! before go once every shard has answered the node's `Recover` — each
//! shard's re-sent orders end with a notice (the marks the node kept went
//! with the process).
//!
//! **A state machine behind the one loop.** [`DataActor`]'s [`Actor`] steps
//! are its whole input: a message and the instant it arrived. Being down is a
//! state: a crash or kill plan that comes due puts the node in `Down` until
//! an instant, and until then every delivery — the triggering one included,
//! a batch whole — is lost and counted; a lost `Shutdown` stops the node.
//! The plans differ only in how the window ends. A crash models durable
//! state (store, marks) that outlives the process: nothing happens, and
//! control's redelivery watchdog heals what was lost. A kill
//! destroyed the incarnation — store, marks, mid-step progress, buffered
//! replies, the log writer's userspace buffer — so the node is rebuilt from
//! disk by [`wtpg_dur::recover`] — on the executor's own thread, one chain
//! after another — and announces [`Msg::Recover`], on which control
//! re-sends its outstanding orders at once. The executor
//! (`actor::step_all`) alone touches the inbox and reads the clock; every
//! instant the node acts on (windows, triggers, link faults) is an
//! argument, so a test can own it.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wtpg_core::partition::Catalog;
use wtpg_core::txn::{AccessMode, TxnId};
use wtpg_dur::checkpoint::{files, snapshot_from_state, write_node_snapshot};
use wtpg_dur::wal::{ChunkRecord, WalWriter};
use wtpg_dur::{recover, DurError, Durability, Partial};
use wtpg_mvcc::{read_checksum, VersionChain};
use wtpg_obs::window::metric;
use wtpg_obs::{Counter, Gauge, HistHandle, MsgCounts, Registry};
use wtpg_rt::store::{chunks, NodeStore};

use crate::actor::{Actor, Flow};
use crate::batch::Coalescer;
use crate::error::NetError;
use crate::fault::FaultPlan;
use crate::msg::Msg;
use crate::transport::MsgTx;

/// Log records between node snapshot checkpoints. Snapshots serialize the
/// node's whole store, so a tight interval dominates the durability cost
/// (at 256 a buffered run spent more time checkpointing than logging);
/// 4096 keeps replay bounded while the per-record cost stays the WAL's.
pub const SNAPSHOT_EVERY: u64 = 4096;

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

/// Everything one data node is started with, bundled so the call site stays
/// readable as knobs accumulate.
pub struct DataNodeParams<'a> {
    /// The partition layout (decides which partitions this node owns).
    pub catalog: &'a Catalog,
    /// This node's id.
    pub node: u32,
    /// The run's fault plan: its crash window and kill (each fires only on
    /// the node it names) and the link faults on this node's replies.
    pub fault: FaultPlan,
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
    /// The MVCC layer: write steps carry seal sequences into per-partition
    /// version chains, `SnapshotRead` orders are served from them, and
    /// control's notices prune them. Chains are in-memory only, so kill
    /// plans are incompatible with the snapshot plane (the runtime rejects
    /// that combination up front).
    pub mvcc: bool,
    /// Control shards in the run: the node keeps each one's latest mark and
    /// forgets below the least of them.
    pub shards: usize,
}

/// Pre-resolved metric handles of one data node. They belong to the node,
/// not to an incarnation of its actor: a kill destroys the incarnation and
/// the series carry on.
struct DataTel {
    units: Counter,
    crash_drops: Counter,
    books_left: Counter,
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
            books_left: reg.counter(metric::DATA_BOOKS_LEFT),
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

/// A per-step book: `(txn, step) → V`, one `Vec` sorted by key (see the
/// module docs).
#[derive(Default)]
struct StepBook<V>(Vec<((TxnId, u32), V)>);

impl<V: Copy> StepBook<V> {
    /// Where `key` is, or would go; keys at or past the last are one
    /// comparison.
    fn find(&self, key: (TxnId, u32)) -> Result<usize, usize> {
        match self.0.last() {
            None => Err(0),
            Some(&(last, _)) if last < key => Err(self.0.len()),
            Some(&(last, _)) if last == key => Ok(self.0.len() - 1),
            Some(_) => self.0.binary_search_by(|(k, _)| k.cmp(&key)),
        }
    }

    fn get(&self, key: (TxnId, u32)) -> Option<V> {
        let i = self.find(key).ok()?;
        self.0.get(i).map(|&(_, v)| v)
    }

    fn insert(&mut self, key: (TxnId, u32), value: V) {
        match self.find(key) {
            Ok(i) => {
                if let Some(entry) = self.0.get_mut(i) {
                    entry.1 = value;
                }
            }
            Err(i) => self.0.insert(i, (key, value)),
        }
    }

    fn remove(&mut self, key: (TxnId, u32)) -> Option<V> {
        let i = self.find(key).ok()?;
        Some(self.0.remove(i).1)
    }

    /// Keeps the entries whose key passes `keep`.
    fn retain(&mut self, mut keep: impl FnMut((TxnId, u32)) -> bool) {
        self.0.retain(|&(key, _)| keep(key));
    }
}

/// Being down: until `until`, whatever is delivered is lost.
struct Down {
    until: Instant,
    /// A kill destroyed the incarnation, so the window's end rebuilds the
    /// node from its log and announces `Recover`; a crash window just ends.
    restart_from_log: bool,
}

/// One data node as a state machine (see the module docs); public so that
/// `tests/data_node.rs` can drive it one delivery at a time.
#[doc(hidden)]
pub struct DataActor<'a> {
    /// What the node was started with. Its crash and kill plans are taken as
    /// they fire; what they count is `processed`, protocol messages handled.
    cfg: DataNodeParams<'a>,
    tel: DataTel,
    processed: u64,
    down: Option<Down>,
    // From here on, the incarnation: what a kill destroys.
    store: NodeStore,
    /// Applied steps: `(txn, step) → (checksum, units)`.
    marks: StepBook<(u64, u64)>,
    /// Mid-step progress recovered from the log: the next redelivered
    /// `Access` for the key resumes from `next_chunk` instead of chunk 0.
    partials: StepBook<Partial>,
    wal: Option<WalWriter>,
    replies: Coalescer,
    rx: MsgCounts,
    read_checksum: u64,
    /// Write a node snapshot once the log reaches this LSN.
    snapshot_due: u64,
    /// Per control shard, the latest mark its notices carried (0 until
    /// one is heard).
    below: Vec<TxnId>,
    /// Per-partition version chains (empty while the snapshot plane is
    /// off: nothing inserts without a sealed write or a snapshot read).
    chains: BTreeMap<u32, VersionChain>,
    /// Served snapshot reads: `(txn, step) → (checksum, units)`. A
    /// redelivered `SnapshotRead` answers from here — the chain may have
    /// pruned past the original horizon by then, so recomputing could
    /// diverge; the memo keeps redelivery byte-identical until the notice
    /// that retires the reader.
    snap_marks: StepBook<(u64, u64)>,
}

fn open_writer(
    cfg: &DataNodeParams<'_>,
    next_lsn: u64,
    tails: BTreeMap<u32, u64>,
) -> Result<Option<WalWriter>, DurError> {
    let open = |(level, dir)| WalWriter::open(&files::node_wal(dir, cfg.node), level, next_lsn, tails);
    cfg.log.map(open).transpose()
}

impl<'a> DataActor<'a> {
    /// Node `cfg.node`, up, with a zeroed store and a fresh log.
    pub fn start(
        mut cfg: DataNodeParams<'a>,
        to_control: &Arc<dyn MsgTx>,
    ) -> Result<DataActor<'a>, NetError> {
        let (node, logs, fault) = (cfg.node as usize, cfg.log.is_some(), &mut cfg.fault);
        fault.crash = fault.crash.filter(|c| c.node == node);
        // A kill restarts the node from its log: without one it never fires.
        fault.kill = fault.kill.filter(|k| logs && k.node.is_none_or(|n| n == node));
        let replies = Coalescer::new(Arc::clone(to_control), cfg.batch_max)
            .with_faults(fault.link, fault.line_seed(2, node, 0));
        Ok(DataActor {
            tel: DataTel::new(cfg.reg),
            processed: 0,
            down: None,
            store: NodeStore::for_node(cfg.catalog, cfg.node),
            marks: StepBook::default(),
            partials: StepBook::default(),
            wal: open_writer(&cfg, 0, BTreeMap::new())?,
            replies,
            rx: MsgCounts::default(),
            read_checksum: 0,
            snapshot_due: SNAPSHOT_EVERY,
            below: vec![TxnId(0); cfg.shards.max(1)],
            chains: BTreeMap::new(),
            snap_marks: StepBook::default(),
            cfg,
        })
    }
}

impl Actor for DataActor<'_> {
    type Outcome = DataOutcome;

    /// The actor's whole input: one message and the instant it arrived. A
    /// window `now` is past ends first; a fault plan that has come due opens
    /// one; a down node loses the message; an up node handles it.
    fn deliver(&mut self, m: Msg, now: Instant) -> Result<Flow, NetError> {
        if let Flow::Stop = self.idle(now)? {
            return Ok(Flow::Stop);
        }
        if self.down.is_none() {
            self.down = self.trip(now);
        }
        if self.down.is_some() {
            // Lost and counted, a batch whole. If the run's `Shutdown` was
            // (in) it, control will never speak again: stop now instead of
            // waiting out the window for orders that cannot come.
            self.tel.crash_drops.inc();
            let last = contains_shutdown(&m);
            return Ok(if last { Flow::Stop } else { Flow::Continue });
        }
        // Fault triggers count protocol messages, not wire frames: a Batch
        // weighs its payload, so a kill or crash scheduled "after N
        // messages" fires however the coalescers grouped them.
        self.processed += if let Msg::Batch(inner) = &m { inner.len().max(1) as u64 } else { 1 };
        let flow = self.handle(m)?;
        if flow == Flow::Continue {
            self.maybe_snapshot()?;
        }
        Ok(flow)
    }

    /// Releases the replies the link holds due by `now`, and ends the dark
    /// window if `now` is past it.
    fn idle(&mut self, now: Instant) -> Result<Flow, NetError> {
        if !self.replies.advance(now) {
            return Ok(Flow::Stop);
        }
        match self.down {
            Some(Down { until, .. }) if now >= until => self.wake(true),
            _ => Ok(Flow::Continue),
        }
    }

    /// What must happen before the loop may block on an empty inbox: the
    /// log barrier (when replies are about to escape) and the reply flush —
    /// control is never starved of a reply the actor is sitting on. A down node neither writes nor speaks; what a crashed
    /// one had buffered waits for the window's end, which is as long as it
    /// blocks. An up node blocks until a message comes. Either
    /// first releases the held replies now due, and wakes for the next.
    fn before_block(&mut self, now: Instant) -> Result<Option<Duration>, NetError> {
        if !self.replies.advance(now) {
            return Ok(None);
        }
        let until = |t: Instant| t.saturating_duration_since(now);
        if let Some(d) = &self.down {
            return Ok(Some(until(self.replies.next_due().map_or(d.until, |t| t.min(d.until)))));
        }
        if self.replies.pending() > 0 {
            self.wal_barrier()?;
        } else {
            // Every append is followed by a reply push, and every path by
            // which replies leave barriers first: with none pending, the
            // log has nothing buffered either.
            debug_assert_eq!(self.wal.as_ref().map_or(0, WalWriter::buffered_bytes), 0);
        }
        Ok(self.replies.flush().then(|| self.replies.next_due().map_or(Duration::MAX, until)))
    }

    /// Orderly exit. A node stopped while down still wakes — a killed one
    /// restarts from its log, because the recovered state feeds the outcome
    /// — but control has moved past it, so nothing is announced. The
    /// teardown barrier drains the group-commit buffer at every level, so
    /// the log on disk is complete; the last flush delivers whatever the
    /// link still holds, and on link loss is a no-op.
    fn finish(mut self) -> Result<DataOutcome, NetError> {
        self.wake(false)?;
        self.wal_barrier()?;
        self.replies.drain();
        let books = self.marks.0.len() + self.partials.0.len() + self.snap_marks.0.len();
        self.tel.books_left.add(books as u64);
        self.retire();
        Ok(DataOutcome {
            cell_sum: self.store.cell_sum(),
            write_units: self.store.write_units(),
            read_checksum: self.read_checksum,
        })
    }
}

impl DataActor<'_> {
    /// The fault plan that has come due, as the window it opens. A kill is
    /// process death on the spot: the incarnation's tallies are published
    /// and the log writer dropped with whatever its userspace buffer held —
    /// only what the log and snapshot files hold survives the window.
    fn trip(&mut self, now: Instant) -> Option<Down> {
        let (n, fault) = (self.processed, &mut self.cfg.fault);
        let (down_ms, restart_from_log) = match fault.kill.take_if(|k| n >= k.after_msgs) {
            Some(k) => (k.down_ms, true),
            None => (fault.crash.take_if(|c| n >= c.after_msgs)?.down_ms, false),
        };
        if restart_from_log {
            self.retire();
            self.wal = None;
        }
        let until = now + Duration::from_millis(down_ms);
        Some(Down { until, restart_from_log })
    }

    /// Leaves `Down` (a no-op when up). A crashed node's store, marks and
    /// buffered replies survived: it just carries on. A killed node is
    /// rebuilt from disk — the log's dependency chains replayed one after
    /// another on this thread, the executor's — and, if anyone is left to
    /// hear it, announces `Recover`. If nobody is, no order will come to ask
    /// what its marks answer, so it keeps none.
    fn wake(&mut self, announce: bool) -> Result<Flow, NetError> {
        let killed = self.down.take().filter(|d| d.restart_from_log);
        let Some((_, (_, dir))) = killed.zip(self.cfg.log) else {
            return Ok(Flow::Continue);
        };
        let rec = recover(self.cfg.catalog, self.cfg.node, dir, 1)?;
        self.tel.recoveries.inc();
        self.tel.replayed_chunks.add(rec.replayed_chunks);
        self.tel.replayed_chains.add(rec.chains);
        self.tel.torn_tails.add(u64::from(rec.torn_tail));
        for &len in &rec.chain_sizes {
            self.tel.replay_chain.record(len);
        }
        self.wal = open_writer(&self.cfg, rec.next_lsn, rec.tails)?;
        self.store = rec.store;
        self.marks = StepBook(rec.marks.into_iter().filter(|_| announce).collect());
        self.partials = StepBook(rec.partials.into_iter().filter(|_| announce).collect());
        self.read_checksum = rec.read_checksum;
        self.snapshot_due = rec.next_lsn + SNAPSHOT_EVERY;
        self.below.fill(TxnId(0));
        let announced = !announce
            || self.replies.push(Msg::Recover {
                node: self.cfg.node,
                last_lsn: rec.next_lsn,
                replayed_chunks: rec.replayed_chunks,
            }) && self.replies.flush();
        Ok(if announced { Flow::Continue } else { Flow::Stop })
    }

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
        let (t, after) = (&self.tel, w.stats);
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

    /// Pushes a reply, placing a log barrier first whenever this push will
    /// flush the reply batch — the invariant that nothing escaping the node
    /// outruns the log. `Stop` once the peer is gone.
    fn push_reply(&mut self, m: Msg) -> Result<Flow, NetError> {
        if self.replies.pending() + 1 >= self.cfg.batch_max {
            self.wal_barrier()?;
        }
        Ok(if self.replies.push(m) { Flow::Continue } else { Flow::Stop })
    }

    /// Writes a snapshot checkpoint when the log has grown past the due
    /// mark, bounding any future replay to the records that follow.
    fn maybe_snapshot(&mut self) -> Result<(), NetError> {
        let next_lsn = self.wal.as_ref().map(WalWriter::next_lsn);
        let (Some((_, dir)), Some(next_lsn)) = (self.cfg.log, next_lsn) else {
            return Ok(());
        };
        if next_lsn < self.snapshot_due {
            return Ok(());
        }
        // The snapshot claims everything below next_lsn; barrier so the
        // claim never outruns the file.
        self.wal_barrier()?;
        let snap = snapshot_from_state(
            next_lsn,
            self.store.snapshot_parts(),
            self.store.write_units(),
            self.read_checksum,
            &self.marks.0,
            &self.partials.0,
        );
        write_node_snapshot(&files::node_snapshot(dir, self.cfg.node), &snap)?;
        self.tel.checkpoints.inc();
        self.snapshot_due = next_lsn + SNAPSHOT_EVERY;
        Ok(())
    }

    // lint:allow(protocol: Submit, AccessDone, Commit, StatsDelta, Recover, SnapshotReply) a data node only receives Access/SnapshotRead/Forget/Batch/Shutdown; the rest is control<->client traffic, and Recover/SnapshotReply are what it *sends*
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
            Msg::Forget {
                shard,
                below,
                mut txns,
                floors,
            } => {
                let shards = self.below.len();
                let Some(mark) = self.below.get_mut(shard as usize) else {
                    return Err(NetError::Protocol(format!(
                        "data node {} received a notice from shard {shard} of {shards}",
                        self.cfg.node
                    )));
                };
                *mark = below.max(*mark);
                let below = self.below.iter().min().copied().unwrap_or(TxnId(0));
                txns.sort_unstable();
                let live = |(txn, _): (TxnId, u32)| txn >= below && txns.binary_search(&txn).is_err();
                self.marks.retain(live);
                self.partials.retain(live);
                self.snap_marks.retain(live);
                for (p, floor) in floors {
                    if let Some(chain) = self.chains.get_mut(&p.0) {
                        chain.prune_below(floor);
                    }
                }
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
                debug_assert_eq!(self.cfg.catalog.node_of(partition), self.cfg.node);
                // How far the step already got: a mark is all of it (answer,
                // don't re-apply), a recovered partial its durable prefix.
                let marked = self.marks.get((txn, step));
                let (applied_chunks, mut checksum) = match marked {
                    Some((checksum, _)) => (u64::MAX, checksum),
                    None => {
                        let p = self.partials.remove((txn, step)).unwrap_or_default();
                        (p.next_chunk, p.checksum)
                    }
                };
                if marked.is_none() && self.cfg.mvcc && mode == AccessMode::Write {
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
                for (chunk, offset, len) in chunks(units, chunk_units) {
                    if chunk >= applied_chunks {
                        let sum = self.store.apply_chunk(partition, mode, offset, len)?;
                        checksum = checksum.wrapping_add(sum);
                        self.tel.units.add(len);
                        // Log before the delta can leave: the record is in
                        // the writer (and on any flush path, in the file)
                        // before control can ever learn of the chunk.
                        let record = ChunkRecord {
                            lsn: 0,
                            prev_lsn: 0,
                            txn,
                            step,
                            chunk,
                            partition,
                            mode,
                            start_unit: offset,
                            units: len,
                            checksum: sum,
                            complete: offset + len >= units,
                        };
                        self.with_wal(|w| w.append(record).map(drop))?;
                    }
                    // Chunks already applied are only re-announced:
                    // control's cursor drops the deltas it already credited
                    // and applies the ones a kill destroyed.
                    let delta = Msg::StatsDelta {
                        txn,
                        step,
                        chunk,
                        units: len,
                    };
                    if let Flow::Stop = self.push_reply(delta)? {
                        return Ok(Flow::Stop);
                    }
                }
                if marked.is_none() {
                    if mode == AccessMode::Read {
                        self.read_checksum = self.read_checksum.wrapping_add(checksum);
                    }
                    self.marks.insert((txn, step), (checksum, units));
                }
                self.push_reply(Msg::AccessDone {
                    txn,
                    step,
                    checksum,
                    units,
                })
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
                debug_assert_eq!(self.cfg.catalog.node_of(partition), self.cfg.node);
                if !self.cfg.mvcc {
                    return Err(NetError::Protocol(format!(
                        "data node {} received SnapshotRead with the snapshot plane off",
                        self.cfg.node
                    )));
                }
                let (checksum, units) = if let Some(memo) = self.snap_marks.get((txn, step)) {
                    memo // Redelivery: answer from the memo (see `snap_marks`).
                } else {
                    let chain = self.chains.entry(partition.0).or_default();
                    // The piggybacked floor lets the chain shed entries no
                    // active snapshot can need, before reconstructing this one.
                    chain.prune_below(floor);
                    let current = self.store.cells(partition).ok_or_else(|| {
                        NetError::Protocol(format!(
                            "data node {} owns no cells for partition {}",
                            self.cfg.node, partition.0
                        ))
                    })?;
                    let checksum = chain.snapshot_checksum(current, horizon, &exclude, units);
                    debug_assert_eq!(
                        checksum,
                        read_checksum(&chain.snapshot_cells(current, horizon, &exclude), units),
                        "the closed form is the oracle's checksum"
                    );
                    let fresh = (checksum, units);
                    self.snap_marks.insert((txn, step), fresh);
                    self.tel.snapshot_reads.inc();
                    fresh
                };
                self.push_reply(Msg::SnapshotReply {
                    txn,
                    step,
                    checksum,
                    units,
                })
            }
            other => Err(NetError::Protocol(format!(
                "data node {} received {other:?}, which it never handles",
                self.cfg.node
            ))),
        }
    }

    /// Publishes the tallies this incarnation kept privately — message
    /// counts, the reply coalescer's, its version chains' — and leaves
    /// fresh ones behind, buffered replies and snapshot memos gone: on the
    /// kill path this is the in-memory half of process death, and the
    /// registry's handles are what outlives it — and the replies already on
    /// the wire, which the fresh coalescer takes over.
    fn retire(&mut self) {
        let reg = self.cfg.reg;
        crate::publish(reg, metric::msg_rx, std::mem::take(&mut self.rx).fields());
        let fresh = self.replies.handover();
        std::mem::replace(&mut self.replies, fresh).publish(reg);
        let (appended, pruned, live_peak) = std::mem::take(&mut self.chains)
            .values()
            .map(VersionChain::totals)
            .fold((0, 0, 0), |(a, p, peak), (da, dp, k)| (a + da, p + dp, k.max(peak)));
        self.snap_marks.0.clear();
        crate::publish(
            reg,
            str::to_string,
            [(metric::CHAIN_APPENDED, appended), (metric::CHAIN_PRUNED, pruned)],
        );
        if live_peak > 0 {
            reg.gauge(&metric::node_chain_live_peak(self.cfg.node as usize)).set(live_peak);
        }
    }
}

/// Whether a lost message (or any message inside a lost batch) was the
/// run's `Shutdown` — a down node that swallowed it must exit instead of
/// rejoining, because control will never speak to it again.
fn contains_shutdown(m: &Msg) -> bool {
    match m {
        Msg::Shutdown => true,
        Msg::Batch(inner) => inner.iter().any(|im| matches!(im, Msg::Shutdown)),
        _ => false,
    }
}
