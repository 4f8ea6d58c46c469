//! Satellite: torn-tail WAL recovery is total.
//!
//! Property: truncating a well-formed log at *every* byte offset either
//! recovers a clean record prefix (the common case — truncation models a
//! kill mid-append) or fails closed with a typed [`DurError`]. Never a
//! panic, never a silently partial chunk: every recovered record is exactly
//! one of the originally appended records, in order.

#![expect(
    clippy::unwrap_used,
    reason = "test code: a failed check is a failed test"
)]

use std::collections::BTreeMap;

use proptest::prelude::*;

use wtpg_core::partition::PartitionId;
use wtpg_core::txn::{AccessMode, TxnId};
use wtpg_dur::wal::{read_log, ChunkRecord, WalWriter};
use wtpg_dur::{DurError, Durability};

fn temp_wal(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wtpg-dur-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.wal"))
}

/// Builds a log of `n` records over `parts` partitions and returns its
/// bytes plus the records as written (with assigned LSNs/edges).
fn build_log(tag: &str, n: usize, parts: u32, seed: u64) -> (Vec<u8>, Vec<ChunkRecord>) {
    let path = temp_wal(tag);
    let _ = std::fs::remove_file(&path);
    let mut w = WalWriter::open(&path, Durability::Buffered, 0, BTreeMap::new()).unwrap();
    let mut state = seed | 1;
    let mut next_chunk: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for i in 0..n {
        // Cheap deterministic xorshift for field variety.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let txn = 1 + (state % 5);
        let step = (state >> 8) as u32 % 3;
        let chunk = next_chunk.entry((txn, step)).or_insert(0);
        w.append(ChunkRecord {
            lsn: 0,
            prev_lsn: 0,
            txn: TxnId(txn),
            step,
            chunk: *chunk,
            partition: PartitionId((state >> 16) as u32 % parts.max(1)),
            mode: if state & 4 == 0 { AccessMode::Write } else { AccessMode::Read },
            start_unit: *chunk * 100,
            units: 100,
            checksum: state.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            complete: i % 7 == 6,
        })
        .unwrap();
        *chunk += 1;
    }
    w.flush().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let full = read_log(&path).unwrap();
    assert_eq!(full.records.len(), n);
    assert!(full.torn_tail.is_none());
    (bytes, full.records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncation at any offset yields a clean prefix — no panic, no
    /// partial record, no typed error (pure truncation is always a tail
    /// tear, never mid-file corruption).
    #[test]
    fn truncation_at_any_offset_recovers_a_clean_prefix(
        n in 1usize..20,
        parts in 1u32..4,
        seed in 0u64..u64::MAX,
    ) {
        let (bytes, records) = build_log("prop", n, parts, seed);
        let path = temp_wal("prop-cut");
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let log = read_log(&path).unwrap();
            prop_assert!(log.records.len() <= records.len());
            prop_assert_eq!(&log.records[..], &records[..log.records.len()],
                "recovered records must be an exact prefix (cut at {})", cut);
            if cut == bytes.len() {
                prop_assert!(log.torn_tail.is_none());
            } else if let Some(tear) = log.torn_tail {
                // The tear is reported exactly where verified bytes end.
                prop_assert_eq!(tear, log.bytes);
            } else {
                // No tear reported only when the cut landed on a frame
                // boundary — the truncated file *is* a complete log.
                prop_assert_eq!(log.bytes as usize, cut);
            }
        }
    }

    /// Flipping any single byte either still recovers a prefix of the
    /// original records or fails closed with a typed error — reading a
    /// damaged log never panics and never fabricates a record.
    #[test]
    fn single_byte_damage_is_typed_or_a_true_prefix(
        n in 1usize..12,
        seed in 0u64..u64::MAX,
        victim in 0u64..10_000,
        mask in 1u8..=255,
    ) {
        let (bytes, records) = build_log("flip", n, 3, seed);
        let path = temp_wal("flip-cut");
        let mut evil = bytes.clone();
        let at = ((victim as usize * evil.len()) / 10_000).min(evil.len() - 1);
        evil[at] ^= mask;
        std::fs::write(&path, &evil).unwrap();
        match read_log(&path) {
            Ok(log) => {
                // Fail-open is only acceptable when what was recovered is a
                // true prefix of the original history.
                prop_assert!(log.records.len() <= records.len());
                prop_assert_eq!(&log.records[..], &records[..log.records.len()]);
            }
            Err(DurError::Corrupt { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error kind: {e}"))),
        }
    }
}
