//! The per-node write-ahead log: CRC-framed chunk records with partition
//! dependency edges, a group-commit writer, and a torn-tail-aware reader.
//! A data node logs each step as one record (`chunk` 0, `complete`); the
//! record keeps its chunk fields so an offline writer can still cut a step
//! into several.
//!
//! Byte discipline follows the wire codec: every record is a little-endian
//! length-prefixed frame
//!
//! ```text
//!   [payload_len: u32 LE] [crc32(payload): u32 LE] [payload bytes]
//! ```
//!
//! and the payload is `[tag u8][fields LE]` with fixed field order. The log
//! is append-only and never truncated; checkpoints bound replay instead.
//!
//! **Tail semantics.** The writer appends whole frames with ordered
//! `write_all` calls, so a kill (or a real crash) can only leave a *prefix*
//! of a frame at end-of-file. [`read_log`] therefore recovers the clean
//! prefix when the damage reaches end-of-file and fails closed
//! ([`DurError::Corrupt`]) when a complete frame is present but wrong —
//! bad CRC, impossible length, or a record that contradicts the LSN /
//! dependency-chain invariants.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use wtpg_core::partition::PartitionId;
use wtpg_core::txn::{AccessMode, TxnId};

use crate::{crc32, DurError, Durability};

/// Frame-header bytes: payload length + CRC.
pub const FRAME_HEADER: usize = 8;
/// Upper bound on a log-record payload; longer lengths fail closed.
pub const MAX_RECORD: usize = 1 << 16;
/// Group-commit buffer threshold: the writer flushes to the file once this
/// many buffered bytes accumulate (the caller's reply barriers flush the
/// rest).
pub const GROUP_COMMIT_BYTES: usize = 8 * 1024;

const TAG_CHUNK: u8 = 1;
/// Encoded chunk-record payload size (tag + 9 u64/u32 fields + 2 bytes).
const CHUNK_PAYLOAD: usize = 1 + 8 + 8 + 8 + 4 + 8 + 4 + 1 + 1 + 8 + 8 + 8;

/// One applied chunk, as logged: enough to re-apply it against a zeroed
/// store and to reconstruct the actor's applied-marks. A data node's chunk
/// is its whole step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Log sequence number — the node's logical tick, strictly increasing.
    pub lsn: u64,
    /// Dependency edge: the LSN of the previous record touching the same
    /// partition, or `u64::MAX` for the first. Records sharing a partition
    /// form a chain replayed in order; disjoint chains never conflict.
    pub prev_lsn: u64,
    /// The transaction the chunk belongs to.
    pub txn: TxnId,
    /// The step index within the transaction.
    pub step: u32,
    /// Zero-based chunk index within the step.
    pub chunk: u64,
    /// The partition the chunk touched.
    pub partition: PartitionId,
    /// Read or write (read chunks replay as checksum state, not cell work).
    pub mode: AccessMode,
    /// Logical offset of the chunk within the step's cyclic touch pattern.
    pub start_unit: u64,
    /// Milli-object cells the chunk covered.
    pub units: u64,
    /// The chunk checksum as computed at apply time.
    pub checksum: u64,
    /// Whether this chunk completed its step (the record doubles as the
    /// durable applied-mark).
    pub complete: bool,
}

pub(crate) fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn encode_chunk(rec: &ChunkRecord, out: &mut Vec<u8>) {
    out.push(TAG_CHUNK);
    put_u64(out, rec.lsn);
    put_u64(out, rec.prev_lsn);
    put_u64(out, rec.txn.0);
    put_u32(out, rec.step);
    put_u64(out, rec.chunk);
    put_u32(out, rec.partition.0);
    out.push(match rec.mode {
        AccessMode::Read => 0,
        AccessMode::Write => 1,
    });
    out.push(u8::from(rec.complete));
    put_u64(out, rec.start_unit);
    put_u64(out, rec.units);
    put_u64(out, rec.checksum);
}

/// A little-endian payload cursor mirroring the wire codec's reader.
pub(crate) struct Cur<'a> {
    pub(crate) b: &'a [u8],
    pub(crate) i: usize,
    /// File offset of the payload start, for error reporting.
    pub(crate) at: u64,
}

impl Cur<'_> {
    pub(crate) fn corrupt(&self, what: &str) -> DurError {
        DurError::Corrupt {
            offset: self.at,
            what: what.to_string(),
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DurError> {
        let v = *self.b.get(self.i).ok_or_else(|| self.corrupt("payload truncated"))?;
        self.i += 1;
        Ok(v)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DurError> {
        let s = self
            .b
            .get(self.i..self.i + 4)
            .ok_or_else(|| self.corrupt("payload truncated"))?;
        self.i += 4;
        let mut a = [0u8; 4];
        a.copy_from_slice(s);
        Ok(u32::from_le_bytes(a))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DurError> {
        let s = self
            .b
            .get(self.i..self.i + 8)
            .ok_or_else(|| self.corrupt("payload truncated"))?;
        self.i += 8;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }
}

fn decode_chunk(payload: &[u8], at: u64) -> Result<ChunkRecord, DurError> {
    let mut c = Cur { b: payload, i: 0, at };
    let tag = c.u8()?;
    if tag != TAG_CHUNK {
        return Err(c.corrupt("unknown record tag"));
    }
    let rec = ChunkRecord {
        lsn: c.u64()?,
        prev_lsn: c.u64()?,
        txn: TxnId(c.u64()?),
        step: c.u32()?,
        chunk: c.u64()?,
        partition: PartitionId(c.u32()?),
        mode: match c.u8()? {
            0 => AccessMode::Read,
            1 => AccessMode::Write,
            _ => return Err(c.corrupt("bad access-mode byte")),
        },
        complete: match c.u8()? {
            0 => false,
            1 => true,
            _ => return Err(c.corrupt("bad complete flag")),
        },
        start_unit: c.u64()?,
        units: c.u64()?,
        checksum: c.u64()?,
    };
    if c.i != payload.len() {
        return Err(c.corrupt("trailing garbage inside record payload"));
    }
    Ok(rec)
}

/// Appends a CRC-framed `payload` to `out`.
pub(crate) fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

/// One step of frame parsing over an in-memory byte image.
pub(crate) enum FrameStep {
    /// A verified payload at `bytes[start..end]`; parsing continues at `next`.
    Frame {
        /// Payload start offset.
        start: usize,
        /// Payload end offset.
        end: usize,
        /// Offset of the next frame header.
        next: usize,
    },
    /// The bytes from `offset` to end-of-file are a torn (incomplete) frame.
    Torn(u64),
}

/// Parses the frame at `offset`, verifying length bounds and CRC.
///
/// # Errors
/// [`DurError::Corrupt`] when a complete frame is present but its length
/// exceeds `max_len` or its CRC does not match — damage that truncation of
/// an append-only file cannot produce.
pub(crate) fn read_frame(bytes: &[u8], offset: usize, max_len: usize) -> Result<FrameStep, DurError> {
    let rest = bytes.len() - offset;
    if rest < FRAME_HEADER {
        return Ok(FrameStep::Torn(offset as u64));
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "rest >= FRAME_HEADER checked above"
    )]
    let hdr = &bytes[offset..offset + FRAME_HEADER];
    let mut a = [0u8; 4];
    #[expect(
        clippy::indexing_slicing,
        reason = "hdr is exactly FRAME_HEADER = 8 bytes"
    )]
    a.copy_from_slice(&hdr[..4]);
    let len = u32::from_le_bytes(a) as usize;
    #[expect(
        clippy::indexing_slicing,
        reason = "hdr is exactly FRAME_HEADER = 8 bytes"
    )]
    a.copy_from_slice(&hdr[4..]);
    let crc = u32::from_le_bytes(a);
    if len > max_len {
        // An oversize length with the whole frame "present" is corruption;
        // with the file ending first it is indistinguishable from a torn
        // header, and the tail rule applies.
        if rest - FRAME_HEADER < len {
            return Ok(FrameStep::Torn(offset as u64));
        }
        return Err(DurError::Corrupt {
            offset: offset as u64,
            what: format!("record length {len} exceeds the {max_len}-byte bound"),
        });
    }
    if rest - FRAME_HEADER < len {
        return Ok(FrameStep::Torn(offset as u64));
    }
    let start = offset + FRAME_HEADER;
    let end = start + len;
    #[expect(
        clippy::indexing_slicing,
        reason = "rest - FRAME_HEADER >= len checked above"
    )]
    let payload = &bytes[start..end];
    if crc32(payload) != crc {
        // A complete frame with a bad CRC is only a *tail* phenomenon if
        // nothing follows it (the payload bytes themselves were torn and
        // the file happens to end there); mid-file it is corruption.
        if end == bytes.len() {
            return Ok(FrameStep::Torn(offset as u64));
        }
        return Err(DurError::Corrupt {
            offset: offset as u64,
            what: "record CRC mismatch before end-of-file".to_string(),
        });
    }
    Ok(FrameStep::Frame { start, end, next: end })
}

/// Running totals of one writer's work, merged into the run's observability
/// counters by the data actor.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriterStats {
    /// Records appended (buffered; not necessarily yet on disk).
    pub records: u64,
    /// Group-commit buffer flushes that reached the file.
    pub flushes: u64,
    /// `fdatasync` barriers issued.
    pub fsyncs: u64,
    /// Bytes written to the file.
    pub bytes: u64,
}

/// The group-commit log writer owned by one data-node actor.
///
/// Records buffer in userspace and reach the file when the buffer passes
/// [`GROUP_COMMIT_BYTES`] or the caller barriers with [`WalWriter::sync`]
/// (which under [`Durability::Sync`] also `fdatasync`s). The caller
/// barriers before every reply-batch flush, so no record waits past the
/// reply that reports it. Dropping the writer loses the buffer *by
/// design*: that is exactly the kill semantics of [`Durability::Buffered`].
pub struct WalWriter {
    file: File,
    buf: Vec<u8>,
    /// The record being framed: encoded here, then copied into `buf`
    /// behind its header, so an append allocates nothing.
    payload: Vec<u8>,
    dur: Durability,
    next_lsn: u64,
    /// Last LSN per partition — the dependency-edge tails.
    tails: BTreeMap<u32, u64>,
    /// File bytes written since the last fsync.
    dirty: bool,
    /// Counters for the run report.
    pub stats: WriterStats,
}

impl WalWriter {
    /// Opens (appending) or creates the log at `path`. `next_lsn` and
    /// `tails` seed the LSN counter and dependency-edge tails — zero/empty
    /// for a fresh log, the recovered values when rejoining after a kill.
    ///
    /// # Errors
    /// [`DurError::Io`] if the file cannot be opened.
    pub fn open(
        path: &Path,
        dur: Durability,
        next_lsn: u64,
        tails: BTreeMap<u32, u64>,
    ) -> Result<WalWriter, DurError> {
        debug_assert!(dur.requires_log(), "Durability::None keeps no log");
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter {
            file,
            buf: Vec::with_capacity(GROUP_COMMIT_BYTES + CHUNK_PAYLOAD + FRAME_HEADER),
            payload: Vec::with_capacity(CHUNK_PAYLOAD),
            dur,
            next_lsn,
            tails,
            dirty: false,
            stats: WriterStats::default(),
        })
    }

    /// Appends one chunk record, assigning its LSN and partition dependency
    /// edge, and group-commits if the buffer is past the size threshold.
    /// Returns the assigned LSN.
    ///
    /// # Errors
    /// [`DurError::Io`] if the triggered group-commit flush fails.
    pub fn append(&mut self, mut rec: ChunkRecord) -> Result<u64, DurError> {
        rec.lsn = self.next_lsn;
        rec.prev_lsn = self
            .tails
            .insert(rec.partition.0, rec.lsn)
            .unwrap_or(u64::MAX);
        self.next_lsn += 1;
        self.payload.clear();
        encode_chunk(&rec, &mut self.payload);
        frame_into(&mut self.buf, &self.payload);
        self.stats.records += 1;
        if self.buf.len() >= GROUP_COMMIT_BYTES {
            self.flush()?;
        }
        Ok(rec.lsn)
    }

    /// Writes the buffered records to the file (no fsync) — the group
    /// commit itself.
    ///
    /// # Errors
    /// [`DurError::Io`] if the write fails.
    pub fn flush(&mut self) -> Result<(), DurError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        self.stats.flushes += 1;
        self.stats.bytes += self.buf.len() as u64;
        self.buf.clear();
        self.dirty = true;
        Ok(())
    }

    /// Durability barrier: flushes, then `fdatasync`s if this writer's
    /// level calls for it and anything unsynced was written. Under
    /// [`Durability::Buffered`] this is just a flush.
    ///
    /// # Errors
    /// [`DurError::Io`] if the flush or sync fails.
    pub fn sync(&mut self) -> Result<(), DurError> {
        self.flush()?;
        if self.dur.syncs() && self.dirty {
            self.file.sync_data()?;
            self.stats.fsyncs += 1;
            self.dirty = false;
        }
        Ok(())
    }

    /// Records appended but not yet written to the file.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// The durability level this writer was opened with.
    pub fn durability(&self) -> Durability {
        self.dur
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

/// Everything [`read_log`] recovered.
#[derive(Debug)]
pub struct LogRead {
    /// The verified records, in log (= LSN) order.
    pub records: Vec<ChunkRecord>,
    /// Byte offset of a torn tail, if the file ended mid-frame.
    pub torn_tail: Option<u64>,
    /// Verified bytes consumed.
    pub bytes: u64,
}

/// Reads and verifies the whole log at `path`. A missing file is an empty
/// log. A torn tail (incomplete final frame) recovers the clean prefix and
/// reports the tear offset; anything malformed *before* end-of-file fails
/// closed.
///
/// Beyond framing, this checks the log's structural invariants: strictly
/// increasing LSNs and partition dependency edges that chain correctly —
/// each record's `prev_lsn` must be the last in-file LSN of its partition
/// (or `u64::MAX` when the file holds no earlier record for it, which also
/// covers logs resumed after a recovery seeded the writer's tails).
///
/// # Errors
/// [`DurError::Io`] on read failure, [`DurError::Corrupt`] on mid-file
/// damage or invariant violations.
pub fn read_log(path: &Path) -> Result<LogRead, DurError> {
    let bytes = match File::open(path) {
        Ok(mut f) => {
            let mut v = Vec::new();
            f.read_to_end(&mut v)?;
            v
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut records = Vec::new();
    let mut tails: BTreeMap<u32, u64> = BTreeMap::new();
    let mut last_lsn: Option<u64> = None;
    let mut offset = 0usize;
    let mut torn_tail = None;
    while offset < bytes.len() {
        match read_frame(&bytes, offset, MAX_RECORD)? {
            FrameStep::Torn(at) => {
                torn_tail = Some(at);
                break;
            }
            FrameStep::Frame { start, end, next } => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "read_frame only returns in-bounds offsets"
                )]
                let rec = decode_chunk(&bytes[start..end], start as u64)?;
                if last_lsn.is_some_and(|l| rec.lsn <= l) {
                    return Err(DurError::Corrupt {
                        offset: start as u64,
                        what: format!("LSN {} does not increase", rec.lsn),
                    });
                }
                let expect = tails.get(&rec.partition.0).copied().unwrap_or(u64::MAX);
                // A fresh writer seeded from recovery may chain to a tail
                // older than this file's first record for the partition; a
                // *wrong* edge inside the file is corruption.
                if rec.prev_lsn != expect && tails.contains_key(&rec.partition.0) {
                    return Err(DurError::Corrupt {
                        offset: start as u64,
                        what: format!(
                            "partition {} dependency edge {} does not chain to {}",
                            rec.partition.0, rec.prev_lsn, expect
                        ),
                    });
                }
                tails.insert(rec.partition.0, rec.lsn);
                last_lsn = Some(rec.lsn);
                records.push(rec);
                offset = next;
            }
        }
    }
    Ok(LogRead {
        records,
        torn_tail,
        bytes: offset as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(txn: u64, step: u32, chunk: u64, p: u32, units: u64, complete: bool) -> ChunkRecord {
        ChunkRecord {
            lsn: 0,
            prev_lsn: 0,
            txn: TxnId(txn),
            step,
            chunk,
            partition: PartitionId(p),
            mode: AccessMode::Write,
            start_unit: chunk * units,
            units,
            checksum: 0xdead_beef ^ (txn << 8) ^ chunk,
            complete,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wtpg-dur-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_read_round_trip_with_dependency_edges() {
        let path = temp_path("round_trip.wal");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, Durability::Buffered, 0, BTreeMap::new()).unwrap();
        for (i, r) in [
            rec(1, 0, 0, 0, 100, false),
            rec(1, 0, 1, 0, 50, true),
            rec(2, 0, 0, 2, 100, true),
            rec(3, 1, 0, 0, 10, true),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(w.append(r).unwrap(), i as u64);
        }
        w.flush().unwrap();
        let log = read_log(&path).unwrap();
        assert_eq!(log.torn_tail, None);
        assert_eq!(log.records.len(), 4);
        // Partition 0's chain is 0 -> 1 -> 3; partition 2 stands alone.
        assert_eq!(log.records[0].prev_lsn, u64::MAX);
        assert_eq!(log.records[1].prev_lsn, 0);
        assert_eq!(log.records[2].prev_lsn, u64::MAX);
        assert_eq!(log.records[3].prev_lsn, 1);
        assert!(log.records[1].complete);
        assert_eq!(log.records[2].txn, TxnId(2));
    }

    #[test]
    fn unflushed_buffer_is_lost_and_flushed_prefix_survives() {
        let path = temp_path("buffer_loss.wal");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, Durability::Buffered, 0, BTreeMap::new()).unwrap();
        w.append(rec(1, 0, 0, 0, 100, true)).unwrap();
        w.flush().unwrap();
        w.append(rec(2, 0, 0, 0, 100, true)).unwrap();
        assert!(w.buffered_bytes() > 0);
        drop(w); // the kill: buffered suffix gone, flushed prefix durable
        let log = read_log(&path).unwrap();
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.records[0].txn, TxnId(1));
        assert_eq!(log.torn_tail, None);
    }

    #[test]
    fn missing_log_is_empty() {
        let log = read_log(&temp_path("never_written.wal")).unwrap();
        assert!(log.records.is_empty());
        assert_eq!(log.torn_tail, None);
    }

    #[test]
    fn truncation_recovers_prefix_and_midfile_corruption_fails_closed() {
        let path = temp_path("tails.wal");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, Durability::Sync, 0, BTreeMap::new()).unwrap();
        for i in 0..5 {
            w.append(rec(i, 0, 0, (i % 2) as u32 * 2, 10 + i, true)).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.stats.fsyncs, 1);
        let full = std::fs::read(&path).unwrap();
        // Truncate inside the last record: clean 4-record prefix.
        let cut = full.len() - 3;
        std::fs::write(&path, &full[..cut]).unwrap();
        let log = read_log(&path).unwrap();
        assert_eq!(log.records.len(), 4);
        assert!(log.torn_tail.is_some());
        // Flip one payload byte mid-file: fail closed.
        let mut evil = full.clone();
        evil[FRAME_HEADER + 20] ^= 0x40;
        std::fs::write(&path, &evil).unwrap();
        match read_log(&path) {
            Err(DurError::Corrupt { .. }) => {}
            other => panic!("mid-file corruption must fail closed, got {other:?}"),
        }
    }
}
