//! A damaged node snapshot reads as [`DurError::Corrupt`], and reading it
//! never asks the allocator for more than the file could hold.
//!
//! A counting global allocator records the largest single request the
//! calling thread makes. A CRC-valid snapshot whose partition claims 2²⁵
//! cells is 49 bytes on disk; its decoder must refuse the count before it
//! reserves room for the cells. Beside it, every truncation and every
//! single-byte flip of a written snapshot must read as `Corrupt`: never a
//! panic, never `Ok`.

#![expect(
    clippy::unwrap_used,
    reason = "test code: a failed check is a failed test"
)]
#![expect(
    unsafe_code,
    reason = "a recording global allocator implements the unsafe GlobalAlloc trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use wtpg_core::txn::TxnId;
use wtpg_dur::checkpoint::{read_node_snapshot, write_node_snapshot, NodeSnapshot};
use wtpg_dur::{crc32, DurError};

/// The system allocator, remembering the calling thread's largest request.
struct Widest;

thread_local! {
    static WIDEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = WIDEST.try_with(|w| w.set(w.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the record is a const-initialised thread-local
// `Cell`, which neither allocates nor locks.
unsafe impl GlobalAlloc for Widest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Widest = Widest;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wtpg-dur-snapdmg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// `payload` behind a valid frame header: its length and CRC-32.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn assert_corrupt(what: &str, got: Result<Option<NodeSnapshot>, DurError>) {
    assert!(
        matches!(got, Err(DurError::Corrupt { .. })),
        "{what}: {got:?}"
    );
}

#[test]
fn a_hostile_cell_count_fails_before_it_allocates() {
    // Tag, next_lsn, write_units, read_checksum, one partition (id 0)
    // claiming 2^25 cells, and no cells.
    let mut payload = vec![2u8];
    payload.extend_from_slice(&[0; 24]);
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&(1u64 << 25).to_le_bytes());
    let file = framed(&payload);
    assert_eq!(file.len(), 49);
    let path = temp_path("hostile.ckpt");
    std::fs::write(&path, &file).unwrap();

    WIDEST.with(|w| w.set(0));
    let got = read_node_snapshot(&path);
    let widest = WIDEST.with(Cell::get);
    assert_corrupt("2^25 cells in 49 bytes", got);
    assert!(
        widest <= 8 * file.len(),
        "reading a {}-byte snapshot asked for {widest} bytes at once",
        file.len()
    );
}

#[test]
fn every_truncation_and_every_byte_flip_reads_as_corrupt() {
    let snap = NodeSnapshot {
        next_lsn: 42,
        write_units: 12_345,
        read_checksum: 0xfeed,
        parts: vec![(0, vec![1, 2, 3]), (2, vec![9; 5])],
        marks: vec![
            ((TxnId(7), 1), (0xabc, 100)),
            ((TxnId(8), 0), (0xdef, 7)),
            ((TxnId(9), 0), (5, 3000)),
        ],
    };
    let path = temp_path("damage.ckpt");
    write_node_snapshot(&path, &snap).unwrap();
    let good = std::fs::read(&path).unwrap();
    assert_eq!(read_node_snapshot(&path).unwrap(), Some(snap));

    for cut in 0..good.len() {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert_corrupt(
            &format!("cut at {cut} of {}", good.len()),
            read_node_snapshot(&path),
        );
    }
    for at in 0..good.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = good.clone();
            bad[at] ^= flip;
            std::fs::write(&path, &bad).unwrap();
            assert_corrupt(
                &format!("byte {at} ^ {flip:#04x}"),
                read_node_snapshot(&path),
            );
        }
    }
}
