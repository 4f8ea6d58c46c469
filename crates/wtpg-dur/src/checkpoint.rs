//! Checkpoints: the durable snapshots that bound replay to a log suffix.
//!
//! A [`NodeSnapshot`] holds a data node's store cells, applied-marks and
//! read checksum as of a log position. The node writes one between
//! deliveries, when every step it has logged is whole. It is one
//! CRC-framed record in its own file, written atomically (temp file +
//! rename) so a reader only ever sees a complete snapshot or none.
//! Recovery loads the snapshot and replays only records with
//! `lsn >= next_lsn`.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use wtpg_core::txn::TxnId;

use crate::wal::{frame_into, put_u32, put_u64, read_frame, Cur, FrameStep};
use crate::DurError;

/// Upper bound on a checkpoint payload (snapshots carry whole partitions).
pub const MAX_CHECKPOINT: usize = 1 << 28;

const TAG_NODE_SNAPSHOT: u8 = 2;

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
}

/// A count of `n` records of `size` bytes each, refused unless the payload
/// left holds that many: a count reserves memory only for bytes that are
/// there, so a damaged count fails before it allocates.
fn bounded(n: u64, c: &Cur<'_>, size: usize) -> Result<usize, DurError> {
    let room = c.b.len().saturating_sub(c.i) / size;
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= room)
        .ok_or_else(|| c.corrupt("record count exceeds the payload left"))
}

fn decode_snapshot(payload: &[u8]) -> Result<NodeSnapshot, DurError> {
    let mut c = Cur { b: payload, i: 0, at: 0 };
    if c.u8()? != TAG_NODE_SNAPSHOT {
        return Err(c.corrupt("not a node snapshot"));
    }
    let next_lsn = c.u64()?;
    let write_units = c.u64()?;
    let read_checksum = c.u64()?;
    let nparts = bounded(c.u32()?.into(), &c, 12)?;
    let mut parts = Vec::with_capacity(nparts);
    for _ in 0..nparts {
        let p = c.u32()?;
        let n = bounded(c.u64()?, &c, 8)?;
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            cells.push(c.u64()?);
        }
        parts.push((p, cells));
    }
    let nmarks = bounded(c.u32()?.into(), &c, 28)?;
    let mut marks = Vec::with_capacity(nmarks);
    for _ in 0..nmarks {
        let txn = TxnId(c.u64()?);
        let step = c.u32()?;
        let checksum = c.u64()?;
        let units = c.u64()?;
        marks.push(((txn, step), (checksum, units)));
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
#[expect(
    clippy::indexing_slicing,
    reason = "read_frame only returns in-bounds offsets"
)]
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
}

/// An applied-mark: `(txn, step) -> (checksum, units)`.
pub type Mark = ((TxnId, u32), (u64, u64));

/// Assembles a [`NodeSnapshot`] from live actor state — a convenience for
/// the data actor's periodic checkpointing. `marks` is the actor's book,
/// ascending by key.
pub fn snapshot_from_state(
    next_lsn: u64,
    store_parts: Vec<(u32, Vec<u64>)>,
    write_units: u64,
    read_checksum: u64,
    marks: &[Mark],
) -> NodeSnapshot {
    NodeSnapshot {
        next_lsn,
        write_units,
        read_checksum,
        parts: store_parts,
        marks: marks.to_vec(),
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
            marks: vec![((TxnId(7), 1), (0xabc, 100)), ((TxnId(9), 0), (5, 3000))],
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
    }

    #[test]
    fn node_snapshot_damage_fails_closed() {
        let path = temp_path("damaged.ckpt");
        let snap = NodeSnapshot {
            next_lsn: 17,
            parts: vec![(0, vec![100, 90, 110])],
            ..NodeSnapshot::default()
        };
        write_node_snapshot(&path, &snap).unwrap();
        let good = std::fs::read(&path).unwrap();
        let torn = good[..good.len() - 1].to_vec();
        let mut crc = good.clone();
        *crc.last_mut().unwrap() ^= 0xff;
        let mut trailing = good.clone();
        trailing.push(0);
        // A snapshot is renamed into place whole, so unlike a log tail a
        // torn frame is damage too.
        for (what, bytes) in [("torn", torn), ("crc", crc), ("trailing", trailing)] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(read_node_snapshot(&path), Err(DurError::Corrupt { .. })),
                "{what}"
            );
        }
    }
}
