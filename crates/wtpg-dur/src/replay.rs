//! Dependency-ordered replay: rebuilding a killed node from disk.
//!
//! The log's partition dependency edges induce one chain per partition —
//! each record's `prev_lsn` points at the previous record of the same
//! partition, and records of *different* partitions never conflict (a
//! chunk touches exactly one partition). Replay therefore runs each chain
//! in LSN order, one chain after another, on the caller's thread: a kill
//! replays on the run's executor, and a run starts no thread. Each chain
//! rebuilds its partition's cells through
//! [`NodeStore::chunk_into_cells`]. The chains are independent, so a
//! future executor with more than one thread could replay them apart (the
//! DGCC dependency-graph execution shape); on one thread that would only
//! add a lock.
//!
//! Alongside the cells, a serial pre-pass reconstructs the actor's control
//! state: applied-marks for completed steps and the node's read checksum —
//! everything the restarted actor needs to make control-side `Access`
//! redelivery idempotent again.
//!
//! A data node logs each step as one record, and the writer puts whole
//! records in the file, so its log holds a step whole or not at all. The
//! pre-pass still reads a step logged as several records in order (an
//! offline writer may cut one, as the benchmark package does), but such a
//! step must end in its completing record: one that never comes is damage,
//! not a step to resume.

use std::collections::BTreeMap;
use std::path::Path;

use wtpg_core::partition::Catalog;
use wtpg_core::txn::{AccessMode, TxnId};
use wtpg_rt::store::NodeStore;

use crate::checkpoint::{files, read_node_snapshot};
use crate::wal::{read_log, ChunkRecord};
use crate::DurError;

/// Everything recovery reconstructed for one data node.
pub struct Recovered {
    /// The rebuilt store, byte-identical to the pre-kill durable state.
    pub store: NodeStore,
    /// Applied-marks of completed steps: `(txn, step) -> (checksum, units)`.
    pub marks: BTreeMap<(TxnId, u32), (u64, u64)>,
    /// Checksum folded over completed bulk reads.
    pub read_checksum: u64,
    /// The LSN the reopened writer must continue from.
    pub next_lsn: u64,
    /// Per-partition dependency-edge tails to seed the reopened writer.
    pub tails: BTreeMap<u32, u64>,
    /// Chunk records replayed (log suffix past the snapshot).
    pub replayed_chunks: u64,
    /// Dependency chains replayed (= partitions with suffix records).
    pub chains: u64,
    /// Records per chain, for the replay-parallelism histogram.
    pub chain_sizes: Vec<u64>,
    /// Whether the log ended in a torn tail (clean prefix recovered).
    pub torn_tail: bool,
    /// Whether a snapshot checkpoint bounded the replay.
    pub from_snapshot: bool,
}

/// Rebuilds data node `node`'s durable state from its WAL (and snapshot
/// checkpoint, if one exists) under `dir`, replaying the post-snapshot log
/// suffix chain by chain on the caller's thread.
///
/// `workers` is ignored: replay is serial, because every caller steps on
/// one thread. The parameter stays so the benchmark package, which passes
/// its client count, builds unchanged.
///
/// # Errors
/// [`DurError::Io`] on file failures; [`DurError::Corrupt`] on mid-file
/// log damage, a damaged snapshot, or records that contradict the
/// snapshot/chain invariants (a chunk out of order within its step, a
/// record for a partition the catalog does not home on `node`, a chunk
/// logged after its step's completion mark, a step whose completing record
/// never comes).
pub fn recover(
    catalog: &Catalog,
    node: u32,
    dir: &Path,
    _workers: usize,
) -> Result<Recovered, DurError> {
    let snap = read_node_snapshot(&files::node_snapshot(dir, node))?;
    let log = read_log(&files::node_wal(dir, node))?;
    let from_snapshot = snap.is_some();
    let snap = snap.unwrap_or_default();

    // Base state: the snapshot, or zeroes. `parts` starts from the full
    // catalog layout so partitions the log never touched stay present.
    let mut parts: BTreeMap<u32, Vec<u64>> = NodeStore::for_node(catalog, node)
        .snapshot_parts()
        .into_iter()
        .collect();
    for (p, cells) in snap.parts {
        match parts.get_mut(&p) {
            Some(slot) if slot.len() == cells.len() => *slot = cells,
            _ => {
                return Err(DurError::Corrupt {
                    offset: 0,
                    what: format!("snapshot partition {p} does not match the catalog"),
                })
            }
        }
    }
    let mut write_units = snap.write_units;
    let mut read_checksum = snap.read_checksum;
    let mut marks: BTreeMap<(TxnId, u32), (u64, u64)> = snap.marks.into_iter().collect();
    let mut partials: BTreeMap<(TxnId, u32), Partial> = BTreeMap::new();

    // Writer seeds: the next LSN and the in-file dependency-edge tails,
    // taken over the *whole* log so the resumed writer chains correctly.
    let mut tails: BTreeMap<u32, u64> = BTreeMap::new();
    let mut next_lsn = snap.next_lsn;
    for rec in &log.records {
        tails.insert(rec.partition.0, rec.lsn);
        next_lsn = next_lsn.max(rec.lsn + 1);
    }

    // The replay suffix: records the snapshot does not already reflect.
    let suffix: Vec<ChunkRecord> = log
        .records
        .into_iter()
        .filter(|r| r.lsn >= snap.next_lsn)
        .collect();

    // Serial pre-pass: control-state reconstruction and chain grouping.
    let mut chains: BTreeMap<u32, Vec<ChunkRecord>> = BTreeMap::new();
    for rec in &suffix {
        if catalog.node_of(rec.partition) != node {
            return Err(DurError::Corrupt {
                offset: 0,
                what: format!(
                    "log for node {node} holds a record for foreign partition {}",
                    rec.partition.0
                ),
            });
        }
        let key = (rec.txn, rec.step);
        if marks.contains_key(&key) {
            return Err(DurError::Corrupt {
                offset: 0,
                what: format!(
                    "chunk logged after step completion for txn {} step {}",
                    rec.txn.0, rec.step
                ),
            });
        }
        let p = partials.entry(key).or_default();
        if rec.chunk != p.next_chunk {
            return Err(DurError::Corrupt {
                offset: 0,
                what: format!(
                    "txn {} step {} logged chunk {} where {} was due",
                    rec.txn.0, rec.step, rec.chunk, p.next_chunk
                ),
            });
        }
        p.next_chunk += 1;
        p.checksum = p.checksum.wrapping_add(rec.checksum);
        p.units_done += rec.units;
        if rec.complete {
            let done = partials.remove(&key).unwrap_or_default();
            if rec.mode == AccessMode::Read {
                read_checksum = read_checksum.wrapping_add(done.checksum);
            }
            marks.insert(key, (done.checksum, done.units_done));
        }
        if rec.mode == AccessMode::Write {
            write_units += rec.units;
            chains.entry(rec.partition.0).or_default().push(*rec);
        }
    }

    if let Some(((txn, step), p)) = partials.first_key_value() {
        return Err(DurError::Corrupt {
            offset: 0,
            what: format!(
                "txn {} step {} ends after {} chunks without its completing record",
                txn.0, step, p.next_chunk
            ),
        });
    }

    // Replay each partition's chain against its cells.
    let chain_sizes: Vec<u64> = chains.values().map(|c| c.len() as u64).collect();
    let n_chains = chains.len() as u64;
    let replayed_chunks = suffix.len() as u64;
    for (p, chain) in chains {
        replay_chain(parts.entry(p).or_default(), &chain)?;
    }

    let store = NodeStore::from_parts(catalog, node, parts.into_iter().collect(), write_units)
        .map_err(|e| DurError::Corrupt {
            offset: 0,
            what: format!("replayed parts do not reassemble: {e}"),
        })?;
    Ok(Recovered {
        store,
        marks,
        read_checksum,
        next_lsn,
        tails,
        replayed_chunks,
        chains: n_chains,
        chain_sizes,
        torn_tail: log.torn_tail.is_some(),
        from_snapshot,
    })
}

/// How far a step logged as several records has got in the pre-pass: the
/// chunks `0..next_chunk` are read. Whole once its completing record is.
#[derive(Clone, Copy, Default)]
struct Partial {
    /// The chunk index the step's next record must carry.
    next_chunk: u64,
    /// Checksum folded over the chunks read so far.
    checksum: u64,
    /// Units covered by the chunks read so far.
    units_done: u64,
}

/// Serial replay of one partition's dependency chain, in LSN order.
///
/// Per-partition checksums are deterministic — log order is apply order
/// within a partition — so every recomputed chunk checksum must equal the
/// logged one; a mismatch means the log and the cells it claims to rebuild
/// disagree, and replay fails closed.
fn replay_chain(cells: &mut [u64], chain: &[ChunkRecord]) -> Result<(), DurError> {
    for rec in chain {
        let sum = NodeStore::chunk_into_cells(cells, rec.mode, rec.start_unit, rec.units);
        if sum != rec.checksum {
            return Err(DurError::Corrupt {
                offset: 0,
                what: format!(
                    "replayed chunk checksum diverges at lsn {} (txn {} step {} chunk {})",
                    rec.lsn, rec.txn.0, rec.step, rec.chunk
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{files, snapshot_from_state, write_node_snapshot};
    use crate::wal::WalWriter;
    use crate::Durability;
    use wtpg_core::partition::PartitionId;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("wtpg-dur-replay-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `units` cut into `(index, offset, len)` pieces of `size`: how an
    /// offline writer may log one step as several records.
    fn chunks(units: u64, size: u64) -> impl Iterator<Item = (u64, u64, u64)> {
        (0..units.div_ceil(size)).map(move |i| (i, i * size, size.min(units - i * size)))
    }

    /// Applies one bulk step against `store` and logs it to `wal` as one
    /// record per `chunk_units` piece (the data actor's is one piece).
    #[allow(clippy::too_many_arguments)]
    fn apply_step(
        store: &mut NodeStore,
        wal: &mut WalWriter,
        txn: u64,
        step: u32,
        p: u32,
        mode: AccessMode,
        units: u64,
        chunk_units: u64,
    ) {
        for (chunk, start_unit, len) in chunks(units, chunk_units) {
            let sum = store
                .apply_chunk(PartitionId(p), mode, start_unit, len)
                .unwrap();
            wal.append(ChunkRecord {
                lsn: 0,
                prev_lsn: 0,
                txn: TxnId(txn),
                step,
                chunk,
                partition: PartitionId(p),
                mode,
                start_unit,
                units: len,
                checksum: sum,
                complete: start_unit + len >= units,
            })
            .unwrap();
        }
    }

    #[test]
    fn replay_rebuilds_the_store_byte_identically() {
        let catalog = Catalog::uniform(4, 2, 2);
        let dir = temp_dir("bytes");
        let mut store = NodeStore::for_node(&catalog, 0);
        let mut wal =
            WalWriter::open(&files::node_wal(&dir, 0), Durability::Buffered, 0, BTreeMap::new())
                .unwrap();
        apply_step(&mut store, &mut wal, 1, 0, 0, AccessMode::Write, 3500, 1000);
        apply_step(&mut store, &mut wal, 2, 0, 2, AccessMode::Write, 900, 250);
        apply_step(&mut store, &mut wal, 2, 1, 0, AccessMode::Read, 1200, 500);
        apply_step(&mut store, &mut wal, 3, 0, 2, AccessMode::Write, 4100, 1000);
        wal.flush().unwrap();
        drop(wal);
        let rec = recover(&catalog, 0, &dir, 1).unwrap();
        assert_eq!(rec.store.snapshot_parts(), store.snapshot_parts());
        assert_eq!(rec.store.write_units(), store.write_units());
        assert_eq!(rec.marks.len(), 4);
        assert_eq!(rec.chains, 2, "two partitions -> two dependency chains");
        assert_eq!(rec.chain_sizes.iter().sum::<u64>(), 4 + 4 + 5);
        assert!(!rec.torn_tail);
        assert!(!rec.from_snapshot);
        assert_eq!(rec.next_lsn, 4 + 3 + 4 + 5);
    }

    #[test]
    fn snapshot_bounds_replay_to_the_suffix() {
        let catalog = Catalog::uniform(2, 1, 1);
        let dir = temp_dir("snap");
        let mut store = NodeStore::for_node(&catalog, 0);
        let mut wal =
            WalWriter::open(&files::node_wal(&dir, 0), Durability::Buffered, 0, BTreeMap::new())
                .unwrap();
        apply_step(&mut store, &mut wal, 1, 0, 0, AccessMode::Write, 2000, 500);
        // Checkpoint here: replay must only redo what follows.
        let snap = snapshot_from_state(
            wal.next_lsn(),
            store.snapshot_parts(),
            store.write_units(),
            0,
            &[],
        );
        write_node_snapshot(&files::node_snapshot(&dir, 0), &snap).unwrap();
        apply_step(&mut store, &mut wal, 2, 0, 1, AccessMode::Write, 750, 250);
        wal.flush().unwrap();
        drop(wal);
        let rec = recover(&catalog, 0, &dir, 2).unwrap();
        assert!(rec.from_snapshot);
        assert_eq!(rec.replayed_chunks, 3, "only the post-snapshot suffix replays");
        assert_eq!(rec.store.snapshot_parts(), store.snapshot_parts());
        assert_eq!(rec.store.write_units(), store.write_units());
    }

    #[test]
    fn a_lost_buffer_loses_whole_steps() {
        let catalog = Catalog::uniform(2, 1, 1);
        let dir = temp_dir("lost-buffer");
        let mut store = NodeStore::for_node(&catalog, 0);
        let mut wal =
            WalWriter::open(&files::node_wal(&dir, 0), Durability::Buffered, 0, BTreeMap::new())
                .unwrap();
        apply_step(&mut store, &mut wal, 1, 0, 0, AccessMode::Write, 1000, 1000);
        wal.flush().unwrap();
        let flushed = store.snapshot_parts();
        // The kill eats the buffer, and with it the second step whole.
        apply_step(&mut store, &mut wal, 2, 0, 1, AccessMode::Write, 750, 750);
        drop(wal);
        let rec = recover(&catalog, 0, &dir, 2).unwrap();
        assert_eq!(rec.store.snapshot_parts(), flushed);
        assert_eq!(rec.marks.keys().copied().collect::<Vec<_>>(), vec![(TxnId(1), 0)]);
        assert_eq!(rec.next_lsn, 1, "the lost step's LSN is handed out again");
    }

    #[test]
    fn a_step_whose_completing_record_never_comes_reads_as_corrupt() {
        let catalog = Catalog::uniform(2, 1, 1);
        let dir = temp_dir("unfinished");
        let mut store = NodeStore::for_node(&catalog, 0);
        let mut wal =
            WalWriter::open(&files::node_wal(&dir, 0), Durability::Buffered, 0, BTreeMap::new())
                .unwrap();
        apply_step(&mut store, &mut wal, 1, 0, 0, AccessMode::Write, 1000, 1000);
        // Two of a step's three records, the completing one never written.
        for (chunk, start_unit, len) in chunks(750, 250).take(2) {
            let checksum =
                store.apply_chunk(PartitionId(1), AccessMode::Write, start_unit, len).unwrap();
            wal.append(ChunkRecord {
                lsn: 0,
                prev_lsn: 0,
                txn: TxnId(2),
                step: 0,
                chunk,
                partition: PartitionId(1),
                mode: AccessMode::Write,
                start_unit,
                units: len,
                checksum,
                complete: false,
            })
            .unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        match recover(&catalog, 0, &dir, 2) {
            Err(DurError::Corrupt { what, .. }) => assert!(what.contains("txn 2 step 0"), "{what}"),
            Err(e) => panic!("expected Corrupt, got {e}"),
            Ok(_) => panic!("an unfinished step must not recover"),
        }
    }

    #[test]
    fn empty_dir_recovers_a_zeroed_store() {
        let catalog = Catalog::uniform(4, 2, 2);
        let dir = temp_dir("empty");
        let rec = recover(&catalog, 1, &dir, 2).unwrap();
        assert_eq!(rec.store.cell_sum(), 0);
        assert_eq!(rec.store.write_units(), 0);
        assert!(rec.marks.is_empty());
        assert_eq!(rec.next_lsn, 0);
    }
}
