//! Checkpoints: the durable snapshots that bound replay to a log suffix.
//!
//! Two kinds, both single CRC-framed records in their own files, written
//! atomically (temp file + rename) so a reader only ever sees a complete
//! checkpoint or none:
//!
//! * [`NodeSnapshot`] — a data node's store cells, applied-marks, mid-step
//!   progress and read checksum as of a log position. Recovery loads the
//!   snapshot and replays only records with `lsn >= next_lsn`.
//! * [`ControlCheckpoint`] — the control actor's certified-history cursor
//!   (committed transactions and completed steps) plus per-node
//!   applied-chunk watermarks, refreshed every few commits.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use wtpg_core::txn::TxnId;

use crate::wal::{frame_into, put_u32, put_u64, read_frame, Cur, FrameStep};
use crate::{DurError, Partial};

/// Upper bound on a checkpoint payload (snapshots carry whole partitions).
pub const MAX_CHECKPOINT: usize = 1 << 28;

const TAG_NODE_SNAPSHOT: u8 = 2;
const TAG_CONTROL_CKPT: u8 = 3;

/// A data node's durable state as of one log position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Replay boundary: every record with `lsn < next_lsn` is reflected
    /// here; recovery replays the rest.
    pub next_lsn: u64,
    /// The store's write-unit tally at snapshot time.
    pub write_units: u64,
    /// Checksum folded over completed bulk reads at snapshot time.
    pub read_checksum: u64,
    /// Cells of every partition homed on the node.
    pub parts: Vec<(u32, Vec<u64>)>,
    /// Applied-marks of completed steps: `(txn, step) -> (checksum, units)`.
    pub marks: Vec<Mark>,
    /// Mid-step progress of incomplete steps.
    pub partials: Vec<((TxnId, u32), Partial)>,
}

fn encode_snapshot(s: &NodeSnapshot, out: &mut Vec<u8>) {
    out.push(TAG_NODE_SNAPSHOT);
    put_u64(out, s.next_lsn);
    put_u64(out, s.write_units);
    put_u64(out, s.read_checksum);
    put_u32(out, s.parts.len() as u32);
    for (p, cells) in &s.parts {
        put_u32(out, *p);
        put_u64(out, cells.len() as u64);
        for &c in cells {
            put_u64(out, c);
        }
    }
    put_u32(out, s.marks.len() as u32);
    for ((txn, step), (checksum, units)) in &s.marks {
        put_u64(out, txn.0);
        put_u32(out, *step);
        put_u64(out, *checksum);
        put_u64(out, *units);
    }
    put_u32(out, s.partials.len() as u32);
    for ((txn, step), p) in &s.partials {
        put_u64(out, txn.0);
        put_u32(out, *step);
        put_u64(out, p.next_chunk);
        put_u64(out, p.checksum);
        put_u64(out, p.units_done);
    }
}

fn decode_snapshot(payload: &[u8]) -> Result<NodeSnapshot, DurError> {
    let mut c = Cur { b: payload, i: 0, at: 0 };
    if c.u8()? != TAG_NODE_SNAPSHOT {
        return Err(c.corrupt("not a node snapshot"));
    }
    let next_lsn = c.u64()?;
    let write_units = c.u64()?;
    let read_checksum = c.u64()?;
    let nparts = c.u32()? as usize;
    let mut parts = Vec::with_capacity(nparts.min(1 << 16));
    for _ in 0..nparts {
        let p = c.u32()?;
        let n = c.u64()? as usize;
        if n > MAX_CHECKPOINT / 8 {
            return Err(c.corrupt("partition cell count exceeds the payload bound"));
        }
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            cells.push(c.u64()?);
        }
        parts.push((p, cells));
    }
    let nmarks = c.u32()? as usize;
    let mut marks = Vec::with_capacity(nmarks.min(1 << 16));
    for _ in 0..nmarks {
        let txn = TxnId(c.u64()?);
        let step = c.u32()?;
        let checksum = c.u64()?;
        let units = c.u64()?;
        marks.push(((txn, step), (checksum, units)));
    }
    let npartials = c.u32()? as usize;
    let mut partials = Vec::with_capacity(npartials.min(1 << 16));
    for _ in 0..npartials {
        let txn = TxnId(c.u64()?);
        let step = c.u32()?;
        let partial = Partial {
            next_chunk: c.u64()?,
            checksum: c.u64()?,
            units_done: c.u64()?,
        };
        partials.push(((txn, step), partial));
    }
    if c.i != payload.len() {
        return Err(c.corrupt("trailing garbage inside snapshot payload"));
    }
    Ok(NodeSnapshot {
        next_lsn,
        write_units,
        read_checksum,
        parts,
        marks,
        partials,
    })
}

/// The control actor's durable progress cursor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlCheckpoint {
    /// Committed transactions — the certified-history cursor (every event
    /// up to the `committed`-th commit is settled and will certify
    /// identically on replay).
    pub committed: u64,
    /// Bulk steps fully completed across all nodes.
    pub completed_steps: u64,
    /// Per-node applied-chunk watermarks, indexed by data-node id: chunks
    /// whose `StatsDelta` the control node has credited.
    pub node_chunks: Vec<u64>,
}

fn encode_control(s: &ControlCheckpoint, out: &mut Vec<u8>) {
    out.push(TAG_CONTROL_CKPT);
    put_u64(out, s.committed);
    put_u64(out, s.completed_steps);
    put_u32(out, s.node_chunks.len() as u32);
    for &w in &s.node_chunks {
        put_u64(out, w);
    }
}

fn decode_control(payload: &[u8]) -> Result<ControlCheckpoint, DurError> {
    let mut c = Cur { b: payload, i: 0, at: 0 };
    if c.u8()? != TAG_CONTROL_CKPT {
        return Err(c.corrupt("not a control checkpoint"));
    }
    let committed = c.u64()?;
    let completed_steps = c.u64()?;
    let n = c.u32()? as usize;
    let mut node_chunks = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        node_chunks.push(c.u64()?);
    }
    if c.i != payload.len() {
        return Err(c.corrupt("trailing garbage inside checkpoint payload"));
    }
    Ok(ControlCheckpoint {
        committed,
        completed_steps,
        node_chunks,
    })
}

/// Atomically replaces the file at `path` with one CRC-framed `payload`.
fn write_framed(path: &Path, payload: &[u8]) -> Result<(), DurError> {
    let mut framed = Vec::with_capacity(payload.len() + 8);
    frame_into(&mut framed, payload);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &framed)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads the single CRC-framed payload at `path`; `None` if the file does
/// not exist.
fn read_framed(path: &Path) -> Result<Option<Vec<u8>>, DurError> {
    let bytes = match File::open(path) {
        Ok(mut f) => {
            let mut v = Vec::new();
            f.read_to_end(&mut v)?;
            v
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    match read_frame(&bytes, 0, MAX_CHECKPOINT)? {
        // Checkpoints are written whole and renamed into place, so a torn
        // frame is damage, not an in-flight write: fail closed.
        FrameStep::Torn(offset) => Err(DurError::Corrupt {
            offset,
            what: "checkpoint frame is incomplete".to_string(),
        }),
        FrameStep::Frame { start, end, next } => {
            if next != bytes.len() {
                return Err(DurError::Corrupt {
                    offset: next as u64,
                    what: "bytes after the checkpoint frame".to_string(),
                });
            }
            // lint:allow(panic-safety) read_frame only returns in-bounds offsets
            Ok(Some(bytes[start..end].to_vec()))
        }
    }
}

/// Writes `snap` atomically to `path`.
///
/// # Errors
/// [`DurError::Io`] if the temp-file write or rename fails.
pub fn write_node_snapshot(path: &Path, snap: &NodeSnapshot) -> Result<(), DurError> {
    let mut payload = Vec::new();
    encode_snapshot(snap, &mut payload);
    write_framed(path, &payload)
}

/// Reads the node snapshot at `path`; `None` if no snapshot was ever
/// written.
///
/// # Errors
/// [`DurError::Io`] on read failure; [`DurError::Corrupt`] if the file
/// exists but is torn, CRC-damaged, or malformed (checkpoints are renamed
/// into place, so unlike a log tail this fails closed).
pub fn read_node_snapshot(path: &Path) -> Result<Option<NodeSnapshot>, DurError> {
    match read_framed(path)? {
        None => Ok(None),
        Some(payload) => Ok(Some(decode_snapshot(&payload)?)),
    }
}

/// Writes the control checkpoint atomically to `path`.
///
/// # Errors
/// [`DurError::Io`] if the temp-file write or rename fails.
pub fn write_control_checkpoint(path: &Path, ckpt: &ControlCheckpoint) -> Result<(), DurError> {
    let mut payload = Vec::new();
    encode_control(ckpt, &mut payload);
    write_framed(path, &payload)
}

/// Reads the control checkpoint at `path`; `None` if never written.
///
/// # Errors
/// [`DurError::Io`] on read failure; [`DurError::Corrupt`] on a torn,
/// CRC-damaged, or malformed file.
pub fn read_control_checkpoint(path: &Path) -> Result<Option<ControlCheckpoint>, DurError> {
    match read_framed(path)? {
        None => Ok(None),
        Some(payload) => Ok(Some(decode_control(&payload)?)),
    }
}

/// The file names the runtime uses under its `--wal-dir`.
pub mod files {
    use std::path::{Path, PathBuf};

    /// Data node `node`'s write-ahead log.
    pub fn node_wal(dir: &Path, node: u32) -> PathBuf {
        dir.join(format!("node{node}.wal"))
    }

    /// Data node `node`'s snapshot checkpoint.
    pub fn node_snapshot(dir: &Path, node: u32) -> PathBuf {
        dir.join(format!("node{node}.ckpt"))
    }

    /// The control actor's checkpoint.
    pub fn control_ckpt(dir: &Path) -> PathBuf {
        dir.join("control.ckpt")
    }
}

/// An applied-mark: `(txn, step) -> (checksum, units)`.
pub type Mark = ((TxnId, u32), (u64, u64));

/// Assembles a [`NodeSnapshot`] from live actor state — a convenience for
/// the data actor's periodic checkpointing. `marks` and `partials` are the
/// actor's books, ascending by key.
pub fn snapshot_from_state(
    next_lsn: u64,
    store_parts: Vec<(u32, Vec<u64>)>,
    write_units: u64,
    read_checksum: u64,
    marks: &[Mark],
    partials: &[((TxnId, u32), Partial)],
) -> NodeSnapshot {
    NodeSnapshot {
        next_lsn,
        write_units,
        read_checksum,
        parts: store_parts,
        marks: marks.to_vec(),
        partials: partials.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wtpg-dur-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn node_snapshot_round_trips() {
        let path = temp_path("node0.ckpt");
        let snap = NodeSnapshot {
            next_lsn: 42,
            write_units: 12345,
            read_checksum: 0xfeed,
            parts: vec![(0, vec![1, 2, 3]), (2, vec![9; 5])],
            marks: vec![((TxnId(7), 1), (0xabc, 100))],
            partials: vec![(
                (TxnId(9), 0),
                Partial { next_chunk: 3, checksum: 5, units_done: 3000 },
            )],
        };
        write_node_snapshot(&path, &snap).unwrap();
        assert_eq!(read_node_snapshot(&path).unwrap(), Some(snap.clone()));
        // Overwrite is atomic and total.
        let snap2 = NodeSnapshot { next_lsn: 50, ..snap };
        write_node_snapshot(&path, &snap2).unwrap();
        assert_eq!(read_node_snapshot(&path).unwrap().map(|s| s.next_lsn), Some(50));
    }

    #[test]
    fn missing_checkpoints_read_as_none() {
        assert_eq!(read_node_snapshot(&temp_path("nope.ckpt")).unwrap(), None);
        assert_eq!(read_control_checkpoint(&temp_path("nope2.ckpt")).unwrap(), None);
    }

    #[test]
    fn control_checkpoint_round_trips_and_damage_fails_closed() {
        let path = temp_path("control.ckpt");
        let ckpt = ControlCheckpoint {
            committed: 17,
            completed_steps: 51,
            node_chunks: vec![100, 90, 110],
        };
        write_control_checkpoint(&path, &ckpt).unwrap();
        assert_eq!(read_control_checkpoint(&path).unwrap(), Some(ckpt));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_control_checkpoint(&path),
            Err(DurError::Corrupt { .. })
        ));
    }
}
