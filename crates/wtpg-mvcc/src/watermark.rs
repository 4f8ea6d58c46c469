//! Control-side MVCC bookkeeping: the commit log and the active-snapshot
//! registry, which together drive the GC watermark.
//!
//! The control node *seals* a write step the moment it orders it at a data
//! node: the step gets the next seal sequence of its partition, appended to
//! the [`CommitLog`]. When the transaction later commits, the log records
//! its commit tick from the control node's [`LogicalClock`]
//! (wtpg_core::time::LogicalClock). A snapshot taken "now" is then fully
//! described per partition by two numbers and a set, all read off the log in
//! one control-actor step:
//!
//! * the **snapshot tick** `S` — the clock's current instant; the snapshot
//!   is the committed-prefix state at `S`;
//! * the **horizon** — the partition's next seal sequence; writes sealed
//!   later are not part of the snapshot (their commit ticks will be `> S`);
//! * the **exclusion set** — sealed-but-uncommitted sequences below the
//!   horizon; they may already be applied at the node but are not part of
//!   the committed prefix.
//!
//! GC: a chain entry is dead once it is committed *and* no active snapshot
//! can still need to subtract it. A snapshot subtracts entries at or above
//! its horizon **and** its excluded entries below the horizon — and an
//! excluded writer may commit (advancing the committed prefix past its
//! sequence) while the read is still in flight. So a reader's *hold* on a
//! partition is `min(horizon, smallest excluded sequence)`, and the
//! per-partition floor — `min(committed prefix, oldest active hold)` — is
//! what [`VersionChain::prune_below`](crate::chain::VersionChain::prune_below)
//! receives, piggybacked on snapshot reads and carried to the partition's
//! data node in control's `Forget` notices, for partitions no reader visits
//! too.

use std::collections::BTreeMap;

use wtpg_core::time::Tick;
use wtpg_core::txn::TxnId;

/// One sealed write step in a partition's seal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SealEntry {
    /// The writing transaction.
    pub txn: TxnId,
    /// Milli-object cells the step writes (declared-actual cost).
    pub units: u64,
}

/// The control node's seal order and commit-tick record, per partition.
#[derive(Clone, Debug, Default)]
pub struct CommitLog {
    /// Seal order of write steps, per partition; the index of an entry is
    /// its seal sequence.
    seal: BTreeMap<u32, Vec<SealEntry>>,
    /// Commit tick of every committed transaction.
    committed: BTreeMap<TxnId, Tick>,
    /// Per-partition count of leading seal entries known committed — the
    /// committed-prefix cursor, advanced lazily and monotonically.
    cursor: BTreeMap<u32, u64>,
}

impl CommitLog {
    /// An empty log.
    pub fn new() -> CommitLog {
        CommitLog::default()
    }

    /// Seals a write step of `txn` touching `units` cells of `partition`,
    /// returning its seal sequence. Called exactly once per write step, at
    /// the moment the control node first pushes the step's `Access` order.
    pub fn seal(&mut self, partition: u32, txn: TxnId, units: u64) -> u64 {
        let order = self.seal.entry(partition).or_default();
        order.push(SealEntry { txn, units });
        order.len() as u64 - 1
    }

    /// Records `txn`'s commit tick.
    pub fn note_commit(&mut self, txn: TxnId, tick: Tick) {
        self.committed.insert(txn, tick);
    }

    /// The commit tick of `txn`, if it committed.
    pub fn commit_tick(&self, txn: TxnId) -> Option<Tick> {
        self.committed.get(&txn).copied()
    }

    /// The partition's next seal sequence — the horizon of a snapshot taken
    /// right now.
    pub fn horizon(&self, partition: u32) -> u64 {
        self.seal.get(&partition).map_or(0, |o| o.len() as u64)
    }

    /// Seal sequences below the horizon whose transactions have not
    /// committed — the exclusion set of a snapshot taken right now. Scans
    /// only past the committed-prefix cursor, so steady-state cost tracks
    /// the live writer population, not run length.
    pub fn exclusions(&mut self, partition: u32) -> Vec<u64> {
        let from = self.committed_prefix(partition);
        let Some(order) = self.seal.get(&partition) else {
            return Vec::new();
        };
        order
            .get(from as usize..)
            .into_iter()
            .flatten()
            .enumerate()
            .filter(|(_, e)| !self.committed.contains_key(&e.txn))
            .map(|(i, _)| from + i as u64)
            .collect()
    }

    /// Count of leading seal entries whose transactions have committed,
    /// advancing the cursor past any newly committed prefix.
    pub fn committed_prefix(&mut self, partition: u32) -> u64 {
        let Some(order) = self.seal.get(&partition) else {
            return 0;
        };
        let cur = self.cursor.entry(partition).or_insert(0);
        while order
            .get(*cur as usize)
            .is_some_and(|e| self.committed.contains_key(&e.txn))
        {
            *cur += 1;
        }
        *cur
    }

    /// Partitions with at least one sealed write.
    pub fn partitions(&self) -> impl Iterator<Item = u32> + '_ {
        self.seal.keys().copied()
    }

    /// The full seal order of `partition` (certification input).
    pub fn seal_order(&self, partition: u32) -> &[SealEntry] {
        self.seal.get(&partition).map_or(&[], |o| o.as_slice())
    }

    /// Merges `other` into `self`. Partition seal orders must not overlap
    /// across the merged logs (each control shard seals disjoint
    /// partitions); commit ticks union.
    pub fn merge(&mut self, other: CommitLog) {
        for (p, order) in other.seal {
            debug_assert!(
                !self.seal.contains_key(&p),
                "two control shards sealed partition {p}"
            );
            self.seal.insert(p, order);
        }
        for (p, cur) in other.cursor {
            self.cursor.insert(p, cur);
        }
        self.committed.extend(other.committed);
    }
}

/// The registry of snapshots currently being read: snapshot tick and
/// per-partition holds of every admitted, unfinished read-only BAT.
///
/// Few readers are in flight at once, so the live ones sit in a `Vec`, each
/// with its holds in a small `Vec` that a retired reader hands on to the
/// next one: a steady state allocates nothing. Each partition keeps the
/// holds on it ascending, so its floor's cap is the first one, not a scan
/// over every reader.
#[derive(Clone, Debug, Default)]
pub struct ActiveSnapshots {
    /// Live readers, in admission order.
    readers: Vec<Reader>,
    /// Per partition: `(hold, reader)` of every live hold, ascending.
    holds: BTreeMap<u32, Vec<(u64, TxnId)>>,
    /// Hold lists of retired readers, emptied, for the next ones.
    spare: Vec<Vec<(u32, u64)>>,
}

#[derive(Clone, Debug)]
struct Reader {
    txn: TxnId,
    snapshot: Tick,
    /// `(partition, hold)` per observed step.
    holds: Vec<(u32, u64)>,
}

impl ActiveSnapshots {
    /// An empty registry.
    pub fn new() -> ActiveSnapshots {
        ActiveSnapshots::default()
    }

    /// Admits reader `txn` at snapshot tick `snapshot`.
    pub fn begin(&mut self, txn: TxnId, snapshot: Tick) {
        self.end(txn);
        let holds = self.spare.pop().unwrap_or_default();
        self.readers.push(Reader { txn, snapshot, holds });
    }

    /// Records `txn`'s hold on `partition`: the smallest seal sequence its
    /// snapshot may still need to subtract — `min(horizon, smallest
    /// excluded sequence)`. The horizon alone is not enough: an excluded
    /// (sealed-but-uncommitted) entry below the horizon is only protected
    /// from GC while its writer stays uncommitted, and the writer can
    /// commit while this read is still in flight.
    pub fn observe(&mut self, txn: TxnId, partition: u32, hold: u64) {
        let Some(reader) = self.readers.iter_mut().rev().find(|r| r.txn == txn) else {
            return;
        };
        if let Some(entry) = reader.holds.iter_mut().find(|(p, _)| *p == partition) {
            // A second step on the partition: the later hold replaces it.
            let old = std::mem::replace(&mut entry.1, hold);
            let on = self.holds.entry(partition).or_default();
            if let Ok(at) = on.binary_search(&(old, txn)) {
                on.remove(at);
            }
        } else {
            reader.holds.push((partition, hold));
        }
        let on = self.holds.entry(partition).or_default();
        let at = on.partition_point(|&e| e <= (hold, txn));
        on.insert(at, (hold, txn));
    }

    /// Retires reader `txn` (all replies received). Returns whether it was
    /// active.
    pub fn end(&mut self, txn: TxnId) -> bool {
        let Some(i) = self.readers.iter().position(|r| r.txn == txn) else {
            return false;
        };
        let mut reader = self.readers.remove(i);
        for &(p, hold) in &reader.holds {
            if let Some(on) = self.holds.get_mut(&p) {
                if let Ok(at) = on.binary_search(&(hold, txn)) {
                    on.remove(at);
                }
            }
        }
        reader.holds.clear();
        self.spare.push(reader.holds);
        true
    }

    /// The oldest active snapshot tick — the run's GC watermark. `None`
    /// when no reader is active (everything committed is prunable).
    pub fn watermark(&self) -> Option<Tick> {
        self.readers.iter().map(|r| r.snapshot).min()
    }

    /// The smallest hold any active reader has on `partition` — no chain
    /// entry at or above it may be pruned while that reader lives.
    pub fn min_hold(&self, partition: u32) -> Option<u64> {
        self.holds.get(&partition)?.first().map(|&(hold, _)| hold)
    }

    /// Active readers.
    pub fn len(&self) -> usize {
        self.readers.len()
    }

    /// True when no reader is active.
    pub fn is_empty(&self) -> bool {
        self.readers.is_empty()
    }
}

/// The GC floor of `partition`: the committed prefix, capped by the oldest
/// active reader hold on that partition. Every chain entry below the floor
/// is committed and no current or future snapshot can need to subtract it
/// — committed entries the prefix has passed are only prunable once no
/// live reader excludes them.
pub fn gc_floor(log: &mut CommitLog, active: &ActiveSnapshots, partition: u32) -> u64 {
    let prefix = log.committed_prefix(partition);
    match active.min_hold(partition) {
        Some(h) => prefix.min(h),
        None => prefix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_sequences_and_horizons_advance_per_partition() {
        let mut log = CommitLog::new();
        assert_eq!(log.horizon(0), 0);
        assert_eq!(log.seal(0, TxnId(1), 10), 0);
        assert_eq!(log.seal(0, TxnId(2), 20), 1);
        assert_eq!(log.seal(7, TxnId(1), 5), 0);
        assert_eq!(log.horizon(0), 2);
        assert_eq!(log.horizon(7), 1);
        assert_eq!(log.seal_order(0).len(), 2);
        assert_eq!(log.partitions().collect::<Vec<_>>(), vec![0, 7]);
    }

    #[test]
    fn exclusions_are_the_uncommitted_sealed_suffix() {
        let mut log = CommitLog::new();
        for id in 1..=4u64 {
            log.seal(0, TxnId(id), 10);
        }
        assert_eq!(log.exclusions(0), vec![0, 1, 2, 3]);
        log.note_commit(TxnId(1), Tick(5));
        log.note_commit(TxnId(3), Tick(6));
        // Seq 0 committed (prefix), 1 uncommitted, 2 committed, 3 not.
        assert_eq!(log.exclusions(0), vec![1, 3]);
        assert_eq!(log.committed_prefix(0), 1);
        log.note_commit(TxnId(2), Tick(7));
        assert_eq!(log.exclusions(0), vec![3]);
        assert_eq!(log.committed_prefix(0), 3, "cursor jumps the new prefix");
    }

    #[test]
    fn gc_floor_is_capped_by_the_oldest_reader_hold() {
        let mut log = CommitLog::new();
        let mut active = ActiveSnapshots::new();
        for id in 1..=3u64 {
            log.seal(0, TxnId(id), 10);
            log.note_commit(TxnId(id), Tick(id));
        }
        assert_eq!(gc_floor(&mut log, &active, 0), 3, "no readers: full prefix");
        active.begin(TxnId(9), Tick(2));
        active.observe(TxnId(9), 0, 1);
        assert_eq!(active.watermark(), Some(Tick(2)));
        assert_eq!(gc_floor(&mut log, &active, 0), 1, "reader holds the floor");
        assert_eq!(gc_floor(&mut log, &active, 5), 0, "unread partition");
        assert!(active.end(TxnId(9)));
        assert!(!active.end(TxnId(9)));
        assert!(active.is_empty());
        assert_eq!(gc_floor(&mut log, &active, 0), 3);
    }

    /// Holds out of admission order, a step observed twice and a reader
    /// retired from the middle: the floor's cap is always the smallest live
    /// hold, and a retired reader's list is handed on, not reallocated.
    #[test]
    fn the_smallest_live_hold_caps_the_floor_whatever_order_readers_retire() {
        let mut active = ActiveSnapshots::new();
        for (txn, hold) in [(1u64, 4u64), (2, 2), (3, 7)] {
            active.begin(TxnId(txn), Tick(txn));
            active.observe(TxnId(txn), 0, hold);
            active.observe(TxnId(txn), 1, hold + 10);
        }
        assert_eq!((active.min_hold(0), active.min_hold(1)), (Some(2), Some(12)));
        active.observe(TxnId(2), 0, 5);
        assert_eq!(active.min_hold(0), Some(4), "the later hold replaces the earlier");
        assert!(active.end(TxnId(1)));
        assert_eq!((active.min_hold(0), active.min_hold(1)), (Some(5), Some(12)));
        assert_eq!(active.watermark(), Some(Tick(2)));
        let spare = active.spare.last().map(Vec::capacity);
        active.begin(TxnId(4), Tick(4));
        assert!(active.spare.is_empty());
        assert_eq!(active.readers.last().map(|r| r.holds.capacity()), spare);
        assert!(active.end(TxnId(2)) && active.end(TxnId(3)) && active.end(TxnId(4)));
        assert_eq!((active.min_hold(0), active.min_hold(2)), (None, None));
        assert!(active.is_empty() && active.watermark().is_none());
    }

    /// The race the hold rule exists for: a reader excludes a
    /// sealed-but-uncommitted writer below its horizon, and that writer
    /// commits while the read is still in flight. The committed prefix
    /// passes the excluded sequence, but the reader's hold (the smallest
    /// excluded sequence, not the horizon) must keep the floor below it
    /// until the reader retires — otherwise the chain entry is pruned and
    /// the reconstructed snapshot silently includes a write that was
    /// uncommitted at the snapshot tick.
    #[test]
    fn an_excluded_writer_committing_in_flight_cannot_raise_the_floor() {
        let mut log = CommitLog::new();
        let mut active = ActiveSnapshots::new();
        log.seal(0, TxnId(1), 10); // seq 0: still uncommitted at snapshot
        log.seal(0, TxnId(2), 20); // seq 1: also uncommitted
        let horizon = log.horizon(0);
        let exclude = log.exclusions(0);
        assert_eq!(exclude, vec![0, 1]);
        active.begin(TxnId(9), Tick(5));
        let hold = exclude.first().copied().unwrap_or(horizon);
        active.observe(TxnId(9), 0, hold);
        // Both excluded writers commit while the read is undelivered.
        log.note_commit(TxnId(1), Tick(6));
        log.note_commit(TxnId(2), Tick(7));
        assert_eq!(log.committed_prefix(0), 2);
        assert_eq!(
            gc_floor(&mut log, &active, 0),
            0,
            "the hold pins the floor below the excluded entries"
        );
        assert!(active.end(TxnId(9)));
        assert_eq!(gc_floor(&mut log, &active, 0), 2, "retirement releases it");
    }

    #[test]
    fn merge_unions_shard_logs() {
        let mut a = CommitLog::new();
        a.seal(0, TxnId(1), 10);
        a.note_commit(TxnId(1), Tick(3));
        let mut b = CommitLog::new();
        b.seal(1, TxnId(2), 20);
        b.note_commit(TxnId(2), Tick(4));
        a.merge(b);
        assert_eq!(a.horizon(0), 1);
        assert_eq!(a.horizon(1), 1);
        assert_eq!(a.commit_tick(TxnId(2)), Some(Tick(4)));
    }
}
