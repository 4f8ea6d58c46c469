//! Dependency-logged durability for the shared-nothing runtime.
//!
//! The paper's BAT protocol assumes data nodes that survive; this crate
//! makes process death honest. Each data-node actor appends every applied
//! step to a private write-ahead log as one record — CRC-framed,
//! length-prefixed, in the wire codec's byte discipline — together with the
//! step's transaction id, logical tick (the log sequence number) and its
//! declared *partition dependency edge*: the LSN of the previous record
//! touching the same partition, in the style of dependency logging (Yao et
//! al.). A
//! killed-and-restarted node rebuilds its [`wtpg_rt::store::NodeStore`] by
//! replaying the log in dependency order: records of the same partition
//! form a chain replayed in LSN order, and independent chains never
//! conflict — the DGCC dependency-graph execution shape. A run replays on
//! its executor, chain after chain, so the crate starts no thread and
//! locks nothing.
//!
//! Three durability levels ([`Durability`]):
//!
//! * **None** — no log; a killed node cannot recover.
//! * **Buffered** — group-commit batching: records accumulate in a
//!   userspace buffer flushed to the file on size and at the node's reply
//!   barriers; no fsync. A kill loses at most the unflushed *suffix* of the
//!   log — flushes are ordered and write whole records, so the log holds a
//!   step whole or not at all — and redelivery heals the difference.
//! * **Sync** — like Buffered, plus `fdatasync` barriers aligned with the
//!   reply coalescer's flushes: no `AccessDone` escapes the node before
//!   the records of the step it reports are durable (group commit: one
//!   fsync per reply batch, not per record).
//!
//! Torn tails **fail open at the tail only**: a final record cut mid-write
//! recovers the clean prefix; a CRC mismatch or malformed record *before*
//! end-of-file fails closed with [`DurError::Corrupt`]. Checkpoints
//! ([`checkpoint`]) bound replay to a log suffix.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod replay;
pub mod wal;

pub use replay::{recover, Recovered};
pub use wal::{ChunkRecord, LogRead, WalWriter};

/// How hard a data node tries to make applied steps survive a kill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    /// No write-ahead log at all. `--fault kill` cannot heal under this.
    None,
    /// Group-commit buffered writes, no fsync: a kill loses the unflushed
    /// buffer suffix (healed by control-side redelivery), an orderly
    /// shutdown loses nothing.
    Buffered,
    /// Buffered writes plus an `fdatasync` barrier before each reply-batch
    /// flush: nothing the control node heard is ever lost.
    Sync,
}

impl Durability {
    /// Whether this level keeps a log at all.
    pub fn requires_log(self) -> bool {
        self != Durability::None
    }

    /// Whether this level fsyncs at reply barriers.
    pub fn syncs(self) -> bool {
        self == Durability::Sync
    }

    /// The label used on the CLI and in `NetReport`.
    pub fn label(self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::Buffered => "buffered",
            Durability::Sync => "sync",
        }
    }

    /// Parses a CLI label; `None` if it names no level.
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "none" => Some(Durability::None),
            "buffered" => Some(Durability::Buffered),
            "sync" => Some(Durability::Sync),
            _ => None,
        }
    }
}

/// A durability-layer failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DurError {
    /// The underlying file operation failed.
    Io(String),
    /// The log or checkpoint is damaged somewhere other than a torn tail:
    /// a CRC mismatch, an impossible length, or a record that contradicts
    /// the dependency chain. Recovery fails closed rather than replaying a
    /// silently partial history.
    Corrupt {
        /// Byte offset of the damaged frame (0 for whole-file damage).
        offset: u64,
        /// What was wrong with it.
        what: String,
    },
}

impl std::fmt::Display for DurError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurError::Io(e) => write!(f, "durability i/o failure: {e}"),
            DurError::Corrupt { offset, what } => {
                write!(f, "corrupt durable state at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for DurError {}

impl From<std::io::Error> for DurError {
    fn from(e: std::io::Error) -> DurError {
        DurError::Io(e.to_string())
    }
}

/// Byte-at-a-time CRC-32 lookup table, built at compile time from the
/// reflected IEEE 802.3 polynomial.
#[expect(clippy::indexing_slicing, reason = "i < 256 is the loop condition")]
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the frame checksum of
/// every log and checkpoint record. Hand-rolled with a compile-time
/// lookup table: the registry is vendored stand-ins only, so no checksum
/// crate enters the trust base, and the table keeps the per-record cost
/// off the bulk-apply hot path.
#[expect(clippy::indexing_slicing, reason = "the index is masked to 0..=255")]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values ("123456789" is the canonical vector).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn durability_labels_round_trip() {
        for d in [Durability::None, Durability::Buffered, Durability::Sync] {
            assert_eq!(Durability::parse(d.label()), Some(d));
        }
        assert_eq!(Durability::parse("paranoid"), None);
        assert!(!Durability::None.requires_log());
        assert!(Durability::Buffered.requires_log());
        assert!(!Durability::Buffered.syncs());
        assert!(Durability::Sync.syncs());
    }
}
