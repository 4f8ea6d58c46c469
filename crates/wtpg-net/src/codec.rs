//! Byte-stable, dependency-free binary codec for [`Msg`].
//!
//! Wire format: a frame is `[payload_len: u32 LE][payload]`; a payload is
//! `[tag: u8][fields…]` with every integer little-endian, `Option<u32>`
//! as a one-byte presence flag (`0`/`1`) followed by the value when
//! present, and a [`TxnSpec`] as its step count (`u32`) followed by each
//! step's `(partition: u32, mode: u8, cost: u64, actual_cost: u64)` —
//! `due` values are recomputed on decode, never shipped. The format has no
//! self-describing metadata and no versioning by design: it is pinned by
//! golden-byte tests, and any change to it is a protocol change.
//!
//! Decoding is total: every malformed input — truncated frame, trailing
//! garbage, unknown tag, bad mode/flag byte, empty transaction, oversized
//! frame — returns a [`CodecError`] rather than panicking, so a byte
//! stream from a faulty peer can never take down an actor.

use wtpg_core::partition::PartitionId;
use wtpg_core::txn::{AccessMode, StepSpec, TxnId, TxnSpec};
use wtpg_core::work::Work;

use crate::msg::Msg;

/// Hard ceiling on a frame's payload size. Generous: the largest legal
/// message is a `Submit` carrying a spec of [`MAX_STEPS`] steps (~84 KiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Ceiling on the declared step count of a shipped spec, so a malformed
/// length field cannot provoke a huge allocation.
pub const MAX_STEPS: u32 = 4096;

/// Ceiling on the number of messages coalesced into one [`Msg::Batch`],
/// so a malformed count field cannot provoke a huge allocation.
pub const MAX_BATCH: u32 = 4096;

/// Ceiling on a [`Msg::SnapshotRead`] exclusion set, so a malformed count
/// field cannot provoke a huge allocation. Generous: the exclusion set is
/// bounded by the live (uncommitted) writer population on one partition,
/// which admission flow control keeps far below this.
pub const MAX_EXCLUDE: u32 = 65536;

/// Ceiling on each list of a [`Msg::Forget`] notice (retired transactions,
/// raised floors), so a malformed count field cannot provoke a huge
/// allocation. The control actor never puts more in one notice: what is
/// left waits for the next order frame to the node.
pub const MAX_FORGET: u32 = 4096;

/// A malformed frame or payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the payload did.
    Truncated,
    /// Bytes remained after a complete message.
    TrailingGarbage {
        /// How many bytes were left over.
        extra: usize,
    },
    /// Unknown message tag.
    BadTag(u8),
    /// An access-mode byte that is neither read (0) nor write (1).
    BadMode(u8),
    /// An option-presence byte that is neither 0 nor 1.
    BadFlag(u8),
    /// A shipped transaction spec declared zero steps.
    EmptyTxn,
    /// The frame's declared length exceeds [`MAX_FRAME`] (or a spec's step
    /// count exceeds [`MAX_STEPS`], or a batch's count exceeds
    /// [`MAX_BATCH`]).
    Oversize(usize),
    /// A [`Msg::Batch`] coalesced zero messages — senders never emit one.
    EmptyBatch,
    /// A [`Msg::Batch`] nested inside another batch. Batches are flat by
    /// contract, so fault injection can duplicate or delay a batch as a
    /// unit without ambiguity.
    NestedBatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::TrailingGarbage { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadMode(m) => write!(f, "bad access-mode byte {m}"),
            CodecError::BadFlag(b) => write!(f, "bad option-flag byte {b}"),
            CodecError::EmptyTxn => write!(f, "shipped spec declares zero steps"),
            CodecError::Oversize(n) => write!(f, "declared size {n} exceeds limit"),
            CodecError::EmptyBatch => write!(f, "batch frame coalesces zero messages"),
            CodecError::NestedBatch => write!(f, "batch frame nested inside a batch"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes `msg` as a bare payload (no length prefix).
pub fn encode_payload(msg: &Msg) -> Vec<u8> {
    let mut b = Vec::with_capacity(64);
    put_msg(&mut b, msg);
    b
}

/// Appends `[len: u32 LE][body]` to `b`, where `body` is whatever `fill`
/// appends: the header is reserved first and patched once the length is
/// known, so the body is encoded in place.
fn put_len_prefixed(b: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let header = b.len();
    put_u32(b, 0);
    fill(b);
    let len = (b.len() - header - 4) as u32;
    #[expect(
        clippy::indexing_slicing,
        reason = "the four bytes at `header` were pushed just above"
    )]
    b[header..header + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends `msg`'s payload encoding to `b` — the crate's one encoder.
fn put_msg(b: &mut Vec<u8>, msg: &Msg) {
    b.push(msg.tag());
    match msg {
        Msg::Submit {
            client,
            txn,
            step,
            spec,
        } => {
            put_u32(b, *client);
            put_u64(b, txn.0);
            put_opt_u32(b, *step);
            match spec {
                None => b.push(0),
                Some(s) => {
                    b.push(1);
                    put_spec(b, s);
                }
            }
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
            put_u64(b, txn.0);
            put_u32(b, *step);
            put_u32(b, partition.0);
            b.push(mode_byte(*mode));
            put_u64(b, *units);
            put_u64(b, *chunk_units);
            put_u64(b, *seal);
        }
        Msg::AccessDone {
            txn,
            step,
            checksum,
            units,
        } => {
            put_u64(b, txn.0);
            put_u32(b, *step);
            put_u64(b, *checksum);
            put_u64(b, *units);
        }
        Msg::Commit { client, txn } => {
            put_u32(b, *client);
            put_u64(b, txn.0);
        }
        Msg::StatsDelta {
            txn,
            step,
            chunk,
            units,
        } => {
            put_u64(b, txn.0);
            put_u32(b, *step);
            put_u64(b, *chunk);
            put_u64(b, *units);
        }
        Msg::Shutdown => {}
        Msg::Batch(inner) => {
            debug_assert!(
                inner.iter().all(|m| !matches!(m, Msg::Batch(_))),
                "batches are flat: senders never nest them"
            );
            put_u32(b, inner.len() as u32);
            for m in inner {
                put_len_prefixed(b, |b| put_msg(b, m));
            }
        }
        Msg::Recover {
            node,
            last_lsn,
            replayed_chunks,
        } => {
            put_u32(b, *node);
            put_u64(b, *last_lsn);
            put_u64(b, *replayed_chunks);
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
            put_u64(b, txn.0);
            put_u32(b, *step);
            put_u32(b, partition.0);
            put_u64(b, *units);
            put_u64(b, *horizon);
            debug_assert!(
                exclude.len() <= MAX_EXCLUDE as usize,
                "exclusion set of {} violates the wire bound the decoder enforces \
                 (the control actor rejects oversize sets before encoding)",
                exclude.len()
            );
            put_u32(b, exclude.len() as u32);
            for &seq in exclude {
                put_u64(b, seq);
            }
            put_u64(b, *floor);
        }
        Msg::SnapshotReply {
            txn,
            step,
            checksum,
            units,
        } => {
            put_u64(b, txn.0);
            put_u32(b, *step);
            put_u64(b, *checksum);
            put_u64(b, *units);
        }
        Msg::Forget {
            shard,
            below,
            txns,
            floors,
        } => {
            debug_assert!(
                txns.len() <= MAX_FORGET as usize && floors.len() <= MAX_FORGET as usize,
                "a notice of {} transactions and {} floors violates the wire bound the \
                 decoder enforces (the control actor splits longer queues)",
                txns.len(),
                floors.len()
            );
            put_u32(b, *shard);
            put_u64(b, below.0);
            put_u32(b, txns.len() as u32);
            for t in txns {
                put_u64(b, t.0);
            }
            put_u32(b, floors.len() as u32);
            for &(p, floor) in floors {
                put_u32(b, p.0);
                put_u64(b, floor);
            }
        }
    }
}

/// Encodes `msg` as a full frame: `[payload_len: u32 LE][payload]`.
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let mut frame = Vec::with_capacity(64);
    encode_frame_into(&mut frame, msg);
    frame
}

/// [`encode_frame`] appended to a caller-owned buffer, behind whatever it
/// holds: a sender that keeps `frame` between sends allocates nothing per
/// message, and queues each frame behind bytes the kernel has not taken.
pub fn encode_frame_into(frame: &mut Vec<u8>, msg: &Msg) {
    put_len_prefixed(frame, |b| put_msg(b, msg));
}

/// Decodes a bare payload. The entire buffer must be consumed: leftover
/// bytes are [`CodecError::TrailingGarbage`].
pub fn decode_payload(buf: &[u8]) -> Result<Msg, CodecError> {
    let mut c = Cur { buf, pos: 0 };
    let msg = read_msg(&mut c, true)?;
    let extra = buf.len().saturating_sub(c.pos);
    if extra > 0 {
        return Err(CodecError::TrailingGarbage { extra });
    }
    Ok(msg)
}

/// Decodes one frame from the front of `buf`, returning the message and
/// the number of bytes consumed (header + payload). A buffer ending
/// mid-frame is [`CodecError::Truncated`]; bytes *beyond* the frame are
/// left for the next call (streams concatenate frames).
pub fn decode_frame(buf: &[u8]) -> Result<(Msg, usize), CodecError> {
    let mut c = Cur { buf, pos: 0 };
    let len = c.u32()? as usize;
    if len > MAX_FRAME {
        return Err(CodecError::Oversize(len));
    }
    let payload = buf
        .get(c.pos..c.pos + len)
        .ok_or(CodecError::Truncated)?;
    let msg = decode_payload(payload)?;
    Ok((msg, 4 + len))
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u32(b: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => b.push(0),
        Some(x) => {
            b.push(1);
            put_u32(b, x);
        }
    }
}

fn mode_byte(m: AccessMode) -> u8 {
    match m {
        AccessMode::Read => 0,
        AccessMode::Write => 1,
    }
}

fn put_spec(b: &mut Vec<u8>, spec: &TxnSpec) {
    put_u64(b, spec.id.0);
    put_u32(b, spec.steps().len() as u32);
    for s in spec.steps() {
        put_u32(b, s.partition.0);
        b.push(mode_byte(s.mode));
        put_u64(b, s.cost.units());
        put_u64(b, s.actual_cost.units());
    }
}

/// Result-returning reader over a byte slice — no indexing, so a malformed
/// buffer can only produce an error, never a panic.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cur<'_> {
    fn u8(&mut self) -> Result<u8, CodecError> {
        let v = self
            .buf
            .get(self.pos)
            .copied()
            .ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }

    fn bytes(&mut self, n: usize) -> Result<&'_ [u8], CodecError> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(CodecError::Truncated)?;
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let bytes: [u8; 4] = self
            .buf
            .get(self.pos..self.pos + 4)
            .and_then(|s| s.try_into().ok())
            .ok_or(CodecError::Truncated)?;
        self.pos += 4;
        Ok(u32::from_le_bytes(bytes))
    }

    /// A list length, refused past `max`.
    fn count(&mut self, max: u32) -> Result<usize, CodecError> {
        let n = self.u32()?;
        if n > max {
            return Err(CodecError::Oversize(n as usize));
        }
        Ok(n as usize)
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let bytes: [u8; 8] = self
            .buf
            .get(self.pos..self.pos + 8)
            .and_then(|s| s.try_into().ok())
            .ok_or(CodecError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(bytes))
    }

    fn flag(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::BadFlag(b)),
        }
    }

    fn mode(&mut self) -> Result<AccessMode, CodecError> {
        match self.u8()? {
            0 => Ok(AccessMode::Read),
            1 => Ok(AccessMode::Write),
            b => Err(CodecError::BadMode(b)),
        }
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, CodecError> {
        if self.flag()? {
            Ok(Some(self.u32()?))
        } else {
            Ok(None)
        }
    }

    fn spec(&mut self) -> Result<TxnSpec, CodecError> {
        let id = TxnId(self.u64()?);
        let count = self.u32()?;
        if count == 0 {
            return Err(CodecError::EmptyTxn);
        }
        if count > MAX_STEPS {
            return Err(CodecError::Oversize(count as usize));
        }
        let mut steps = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let partition = PartitionId(self.u32()?);
            let mode = self.mode()?;
            let cost = Work::from_units(self.u64()?);
            let actual = Work::from_units(self.u64()?);
            steps.push(StepSpec {
                partition,
                mode,
                cost,
                actual_cost: actual,
            });
        }
        Ok(TxnSpec::new(id, steps))
    }
}

fn read_msg(c: &mut Cur<'_>, allow_batch: bool) -> Result<Msg, CodecError> {
    match c.u8()? {
        0 => {
            let client = c.u32()?;
            let txn = TxnId(c.u64()?);
            let step = c.opt_u32()?;
            let spec = if c.flag()? { Some(c.spec()?) } else { None };
            Ok(Msg::Submit {
                client,
                txn,
                step,
                spec,
            })
        }
        4 => Ok(Msg::Access {
            txn: TxnId(c.u64()?),
            step: c.u32()?,
            partition: PartitionId(c.u32()?),
            mode: c.mode()?,
            units: c.u64()?,
            chunk_units: c.u64()?,
            seal: c.u64()?,
        }),
        5 => Ok(Msg::AccessDone {
            txn: TxnId(c.u64()?),
            step: c.u32()?,
            checksum: c.u64()?,
            units: c.u64()?,
        }),
        6 => Ok(Msg::Commit {
            client: c.u32()?,
            txn: TxnId(c.u64()?),
        }),
        8 => Ok(Msg::StatsDelta {
            txn: TxnId(c.u64()?),
            step: c.u32()?,
            chunk: c.u64()?,
            units: c.u64()?,
        }),
        9 => Ok(Msg::Shutdown),
        10 => {
            if !allow_batch {
                return Err(CodecError::NestedBatch);
            }
            let count = c.u32()?;
            if count == 0 {
                return Err(CodecError::EmptyBatch);
            }
            if count > MAX_BATCH {
                return Err(CodecError::Oversize(count as usize));
            }
            let mut inner = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let len = c.u32()? as usize;
                if len > MAX_FRAME {
                    return Err(CodecError::Oversize(len));
                }
                let sub = c.bytes(len)?;
                let mut sc = Cur { buf: sub, pos: 0 };
                let m = read_msg(&mut sc, false)?;
                let extra = sub.len().saturating_sub(sc.pos);
                if extra > 0 {
                    return Err(CodecError::TrailingGarbage { extra });
                }
                inner.push(m);
            }
            Ok(Msg::Batch(inner))
        }
        11 => Ok(Msg::Recover {
            node: c.u32()?,
            last_lsn: c.u64()?,
            replayed_chunks: c.u64()?,
        }),
        13 => {
            let txn = TxnId(c.u64()?);
            let step = c.u32()?;
            let partition = PartitionId(c.u32()?);
            let units = c.u64()?;
            let horizon = c.u64()?;
            let count = c.count(MAX_EXCLUDE)?;
            let mut exclude = Vec::with_capacity(count);
            for _ in 0..count {
                exclude.push(c.u64()?);
            }
            let floor = c.u64()?;
            Ok(Msg::SnapshotRead {
                txn,
                step,
                partition,
                units,
                horizon,
                exclude,
                floor,
            })
        }
        14 => Ok(Msg::SnapshotReply {
            txn: TxnId(c.u64()?),
            step: c.u32()?,
            checksum: c.u64()?,
            units: c.u64()?,
        }),
        15 => {
            let shard = c.u32()?;
            let below = TxnId(c.u64()?);
            let count = c.count(MAX_FORGET)?;
            let mut txns = Vec::with_capacity(count);
            for _ in 0..count {
                txns.push(TxnId(c.u64()?));
            }
            let count = c.count(MAX_FORGET)?;
            let mut floors = Vec::with_capacity(count);
            for _ in 0..count {
                floors.push((PartitionId(c.u32()?), c.u64()?));
            }
            Ok(Msg::Forget {
                shard,
                below,
                txns,
                floors,
            })
        }
        t => Err(CodecError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            vec![StepSpec::read(0, 1.0), StepSpec::write(3, 2.5)],
        )
    }

    fn corpus() -> Vec<Msg> {
        vec![
            Msg::Submit {
                client: 2,
                txn: TxnId(7),
                step: None,
                spec: Some(spec(7)),
            },
            Msg::Submit {
                client: 2,
                txn: TxnId(7),
                step: Some(1),
                spec: None,
            },
            Msg::Access {
                txn: TxnId(7),
                step: 1,
                partition: PartitionId(3),
                mode: AccessMode::Write,
                units: 2500,
                chunk_units: 1000,
                seal: 12,
            },
            Msg::AccessDone {
                txn: TxnId(7),
                step: 1,
                checksum: 0xdead_beef,
                units: 2500,
            },
            Msg::Commit {
                client: 2,
                txn: TxnId(7),
            },
            Msg::StatsDelta {
                txn: TxnId(7),
                step: 1,
                chunk: 2,
                units: 500,
            },
            Msg::Shutdown,
            Msg::Batch(vec![
                Msg::StatsDelta {
                    txn: TxnId(7),
                    step: 1,
                    chunk: 0,
                    units: 1000,
                },
                Msg::AccessDone {
                    txn: TxnId(7),
                    step: 1,
                    checksum: 0xfeed,
                    units: 1000,
                },
                Msg::Commit {
                    client: 2,
                    txn: TxnId(7),
                },
            ]),
            Msg::Recover {
                node: 1,
                last_lsn: 0x0102_0304_0506,
                replayed_chunks: 42,
            },
            Msg::SnapshotRead {
                txn: TxnId(8),
                step: 0,
                partition: PartitionId(5),
                units: 1200,
                horizon: 9,
                exclude: vec![3, 7],
                floor: 2,
            },
            Msg::SnapshotRead {
                txn: TxnId(9),
                step: 1,
                partition: PartitionId(0),
                units: 1,
                horizon: 0,
                exclude: vec![],
                floor: 0,
            },
            Msg::SnapshotReply {
                txn: TxnId(8),
                step: 0,
                checksum: 0xabad_cafe,
                units: 1200,
            },
            Msg::Forget {
                shard: 1,
                below: TxnId(2),
                txns: vec![TxnId(8), TxnId(3)],
                floors: vec![(PartitionId(5), 2)],
            },
            Msg::Forget {
                shard: 0,
                below: TxnId(0),
                txns: vec![],
                floors: vec![],
            },
        ]
    }

    #[test]
    fn round_trip_corpus() {
        for m in corpus() {
            let payload = encode_payload(&m);
            assert_eq!(decode_payload(&payload), Ok(m.clone()), "{m:?}");
            let frame = encode_frame(&m);
            assert_eq!(decode_frame(&frame), Ok((m.clone(), frame.len())), "{m:?}");
        }
    }

    #[test]
    fn golden_bytes_pin_the_wire_format() {
        // Byte-stability contract: these exact encodings are the protocol.
        // If this test fails, the format changed — that is a breaking
        // protocol change, not a test to update casually.
        let commit = Msg::Commit {
            client: 5,
            txn: TxnId(0x0102_0304),
        };
        assert_eq!(
            encode_frame(&commit),
            vec![
                13, 0, 0, 0, // payload length
                6, // tag: Commit
                5, 0, 0, 0, // client u32 LE
                4, 3, 2, 1, 0, 0, 0, 0, // txn u64 LE
            ]
        );
        let delta = Msg::StatsDelta {
            txn: TxnId(1),
            step: 2,
            chunk: 3,
            units: 1000,
        };
        assert_eq!(
            encode_payload(&delta),
            vec![
                8, // tag: StatsDelta
                1, 0, 0, 0, 0, 0, 0, 0, // txn
                2, 0, 0, 0, // step
                3, 0, 0, 0, 0, 0, 0, 0, // chunk
                232, 3, 0, 0, 0, 0, 0, 0, // units = 1000
            ]
        );
        assert_eq!(encode_payload(&Msg::Shutdown), vec![9]);
        let recover = Msg::Recover {
            node: 2,
            last_lsn: 0x0102,
            replayed_chunks: 7,
        };
        assert_eq!(
            encode_payload(&recover),
            vec![
                11, // tag: Recover
                2, 0, 0, 0, // node u32 LE
                2, 1, 0, 0, 0, 0, 0, 0, // last_lsn u64 LE
                7, 0, 0, 0, 0, 0, 0, 0, // replayed_chunks u64 LE
            ]
        );
        let forget = Msg::Forget {
            shard: 2,
            below: TxnId(5),
            txns: vec![TxnId(9)],
            floors: vec![(PartitionId(3), 4)],
        };
        assert_eq!(
            encode_payload(&forget),
            vec![
                15, // tag: Forget
                2, 0, 0, 0, // shard u32 LE
                5, 0, 0, 0, 0, 0, 0, 0, // below u64 LE
                1, 0, 0, 0, // one transaction
                9, 0, 0, 0, 0, 0, 0, 0, // txns[0] u64 LE
                1, 0, 0, 0, // one floor
                3, 0, 0, 0, // partition u32 LE
                4, 0, 0, 0, 0, 0, 0, 0, // floor u64 LE
            ]
        );
        let snap = Msg::SnapshotRead {
            txn: TxnId(3),
            step: 1,
            partition: PartitionId(4),
            units: 1000,
            horizon: 6,
            exclude: vec![5],
            floor: 2,
        };
        assert_eq!(
            encode_payload(&snap),
            vec![
                13, // tag: SnapshotRead
                3, 0, 0, 0, 0, 0, 0, 0, // txn u64 LE
                1, 0, 0, 0, // step u32 LE
                4, 0, 0, 0, // partition u32 LE
                232, 3, 0, 0, 0, 0, 0, 0, // units = 1000
                6, 0, 0, 0, 0, 0, 0, 0, // horizon u64 LE
                1, 0, 0, 0, // one excluded sequence
                5, 0, 0, 0, 0, 0, 0, 0, // exclude[0] u64 LE
                2, 0, 0, 0, 0, 0, 0, 0, // floor u64 LE
            ]
        );
        let reply = Msg::SnapshotReply {
            txn: TxnId(3),
            step: 1,
            checksum: 0xfeed,
            units: 1000,
        };
        assert_eq!(
            encode_payload(&reply),
            vec![
                14, // tag: SnapshotReply
                3, 0, 0, 0, 0, 0, 0, 0, // txn u64 LE
                1, 0, 0, 0, // step u32 LE
                237, 254, 0, 0, 0, 0, 0, 0, // checksum = 0xfeed
                232, 3, 0, 0, 0, 0, 0, 0, // units = 1000
            ]
        );
        // A batch is [tag=10][count u32][per-inner: len u32 + payload].
        let batch = Msg::Batch(vec![
            Msg::Shutdown,
            Msg::Commit {
                client: 2,
                txn: TxnId(1),
            },
        ]);
        assert_eq!(
            encode_payload(&batch),
            vec![
                10, // tag: Batch
                2, 0, 0, 0, // two inner messages
                1, 0, 0, 0, // inner 0: 1 byte
                9, // Shutdown
                13, 0, 0, 0, // inner 1: 13 bytes
                6, // tag: Commit
                2, 0, 0, 0, // client u32 LE
                1, 0, 0, 0, 0, 0, 0, 0, // txn u64 LE
            ]
        );
    }

    #[test]
    fn batches_are_flat_empty_and_nested_are_rejected() {
        // Zero inner messages.
        let mut b = vec![10u8];
        b.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_payload(&b), Err(CodecError::EmptyBatch));
        // Oversized count.
        let mut b = vec![10u8];
        b.extend_from_slice(&(MAX_BATCH + 1).to_le_bytes());
        assert_eq!(
            decode_payload(&b),
            Err(CodecError::Oversize(MAX_BATCH as usize + 1))
        );
        // A batch nested inside a batch.
        let inner = encode_payload(&Msg::Batch(vec![Msg::Shutdown]));
        let mut b = vec![10u8];
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        b.extend_from_slice(&inner);
        assert_eq!(decode_payload(&b), Err(CodecError::NestedBatch));
        // Trailing garbage inside an inner sub-payload.
        let mut b = vec![10u8];
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&2u32.to_le_bytes()); // inner len 2
        b.push(9); // Shutdown
        b.push(0xAA); // garbage inside the sub-payload
        assert_eq!(
            decode_payload(&b),
            Err(CodecError::TrailingGarbage { extra: 1 })
        );
    }

    #[test]
    fn truncation_at_every_prefix_is_rejected() {
        for m in corpus() {
            let payload = encode_payload(&m);
            for cut in 0..payload.len() {
                let err = decode_payload(payload.get(..cut).expect("prefix"))
                    .expect_err("truncated payload must fail");
                assert_eq!(err, CodecError::Truncated, "{m:?} cut at {cut}");
            }
            let frame = encode_frame(&m);
            for cut in 0..frame.len() {
                assert!(
                    decode_frame(frame.get(..cut).expect("prefix")).is_err(),
                    "{m:?} frame cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        for m in corpus() {
            let mut payload = encode_payload(&m);
            payload.push(0xAA);
            assert_eq!(
                decode_payload(&payload),
                Err(CodecError::TrailingGarbage { extra: 1 }),
                "{m:?}"
            );
        }
    }

    #[test]
    fn frames_concatenate_on_a_stream() {
        let mut stream = Vec::new();
        for m in corpus() {
            stream.extend_from_slice(&encode_frame(&m));
        }
        let mut decoded = Vec::new();
        let mut rest: &[u8] = &stream;
        while !rest.is_empty() {
            let (m, used) = decode_frame(rest).expect("well-formed stream");
            decoded.push(m);
            rest = rest.get(used..).expect("used <= len");
        }
        assert_eq!(decoded, corpus());
    }

    #[test]
    fn bad_bytes_are_rejected_not_panicked_on() {
        assert_eq!(decode_payload(&[42]), Err(CodecError::BadTag(42)));
        // Submit with a bad option flag.
        let mut b = vec![0u8];
        b.extend_from_slice(&0u32.to_le_bytes()); // client
        b.extend_from_slice(&7u64.to_le_bytes()); // txn
        b.push(9); // step flag: neither 0 nor 1
        assert_eq!(decode_payload(&b), Err(CodecError::BadFlag(9)));
        // Access with a bad mode byte.
        let mut b = vec![4u8];
        b.extend_from_slice(&7u64.to_le_bytes());
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&0u32.to_le_bytes());
        b.push(7); // neither read nor write
        assert_eq!(decode_payload(&b), Err(CodecError::BadMode(7)));
        // Submit with an empty spec.
        let mut b = vec![0u8];
        b.extend_from_slice(&0u32.to_le_bytes()); // client
        b.extend_from_slice(&7u64.to_le_bytes()); // txn
        b.push(0); // step: None
        b.push(1); // spec present
        b.extend_from_slice(&7u64.to_le_bytes()); // spec id
        b.extend_from_slice(&0u32.to_le_bytes()); // zero steps
        assert_eq!(decode_payload(&b), Err(CodecError::EmptyTxn));
        // Oversized frame length.
        let mut b = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        b.push(9);
        assert_eq!(decode_frame(&b), Err(CodecError::Oversize(MAX_FRAME + 1)));
        // Oversized step count.
        let mut b = vec![0u8];
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&7u64.to_le_bytes());
        b.push(0);
        b.push(1);
        b.extend_from_slice(&7u64.to_le_bytes());
        b.extend_from_slice(&(MAX_STEPS + 1).to_le_bytes());
        assert_eq!(
            decode_payload(&b),
            Err(CodecError::Oversize(MAX_STEPS as usize + 1))
        );
        // Oversized snapshot-read exclusion set.
        let mut b = vec![13u8];
        b.extend_from_slice(&7u64.to_le_bytes()); // txn
        b.extend_from_slice(&0u32.to_le_bytes()); // step
        b.extend_from_slice(&0u32.to_le_bytes()); // partition
        b.extend_from_slice(&1u64.to_le_bytes()); // units
        b.extend_from_slice(&1u64.to_le_bytes()); // horizon
        b.extend_from_slice(&(MAX_EXCLUDE + 1).to_le_bytes());
        assert_eq!(
            decode_payload(&b),
            Err(CodecError::Oversize(MAX_EXCLUDE as usize + 1))
        );
        // Oversized notice lists: the transactions, then the floors.
        let mut b = vec![15u8];
        b.extend_from_slice(&0u32.to_le_bytes()); // shard
        b.extend_from_slice(&1u64.to_le_bytes()); // below
        b.extend_from_slice(&(MAX_FORGET + 1).to_le_bytes());
        assert_eq!(
            decode_payload(&b),
            Err(CodecError::Oversize(MAX_FORGET as usize + 1))
        );
        let mut b = vec![15u8];
        b.extend_from_slice(&0u32.to_le_bytes()); // shard
        b.extend_from_slice(&1u64.to_le_bytes()); // below
        b.extend_from_slice(&0u32.to_le_bytes()); // no transactions
        b.extend_from_slice(&(MAX_FORGET + 1).to_le_bytes());
        assert_eq!(
            decode_payload(&b),
            Err(CodecError::Oversize(MAX_FORGET as usize + 1))
        );
    }

    #[test]
    fn decoded_spec_recomputes_dues() {
        let m = Msg::Submit {
            client: 0,
            txn: TxnId(9),
            step: None,
            spec: Some(spec(9)),
        };
        let decoded = decode_payload(&encode_payload(&m)).expect("round trip");
        if let Msg::Submit { spec: Some(s), .. } = decoded {
            assert_eq!(s.due(0), spec(9).due(0));
            assert_eq!(s.total_declared(), spec(9).total_declared());
        } else {
            panic!("decoded to a different variant");
        }
    }
}
