//! Property tests for the id-keyed window: every operation and the
//! ascending walk agree with a `BTreeMap` oracle, ids near a moving base and
//! far from it alike, and the window's memory follows the live span.

use std::collections::BTreeMap;

use proptest::prelude::*;

use wtpg_core::txn::TxnId;
use wtpg_core::window::IdWindow;

/// One operation: `(kind, offset, far)`. The id is `base + offset − 32`
/// (clamped at 0), or, with `far` set, one of a few ids far from any base.
type Op = (u8, u64, u8);

fn id_of(base: u64, offset: u64, far: u8) -> u64 {
    match far {
        1 => (1 << 40) + offset,
        2 => u64::MAX - offset % 4,
        _ => (base + offset).saturating_sub(32),
    }
}

/// Drives `ops` through a window and a `BTreeMap`, the base moving up by
/// one every third operation, and checks every answer and the walk.
fn agree(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut w: IdWindow<u64> = IdWindow::new();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for (n, &(kind, offset, far)) in ops.iter().enumerate() {
        let base = n as u64 / 3;
        let id = id_of(base, offset, far);
        let t = TxnId(id);
        match kind % 6 {
            0 | 1 => prop_assert_eq!(w.insert(t, n as u64), oracle.insert(id, n as u64)),
            2 => prop_assert_eq!(w.remove(t), oracle.remove(&id)),
            3 => {
                if let Some(v) = w.get_mut(t) {
                    *v += 1;
                }
                if let Some(v) = oracle.get_mut(&id) {
                    *v += 1;
                }
            }
            4 => prop_assert_eq!(
                *w.get_or_insert_with(t, || 7),
                *oracle.entry(id).or_insert(7)
            ),
            _ => {
                w.remove_below(t);
                oracle = oracle.split_off(&id);
            }
        }
        prop_assert_eq!(w.get(t), oracle.get(&id));
        prop_assert_eq!(w.contains(t), oracle.contains_key(&id));
        prop_assert_eq!(w.len(), oracle.len());
        let walked: Vec<(u64, u64)> = w.iter().map(|(k, &v)| (k.0, v)).collect();
        let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(&walked, &want);
        let walked_mut: Vec<u64> = w.iter_mut().map(|(k, _)| k.0).collect();
        prop_assert_eq!(walked_mut, oracle.keys().copied().collect::<Vec<_>>());
    }
    let drained: Vec<(u64, u64)> = w.into_entries().map(|(k, v)| (k.0, v)).collect();
    prop_assert_eq!(drained, oracle.into_iter().collect::<Vec<_>>());
    Ok(())
}

fn arb_op() -> impl Strategy<Value = Op> {
    // One far id in sixteen, split between two far regions.
    (0u8..6, 0u64..96, 0u8..16).prop_map(|(k, o, f)| (k, o, if f < 14 { 0 } else { f - 13 }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Insert, remove, get, get-or-insert, remove-below and the ascending
    /// walk match a `BTreeMap`, near a moving base and far from it.
    #[test]
    fn the_window_agrees_with_a_btreemap(ops in proptest::collection::vec(arb_op(), 1..400)) {
        agree(&ops)?;
    }
}

/// 100 k ids churn through with at most 64 live, each leaving at a random
/// point of its life: the window's allocation stays within a small multiple
/// of the live span, and ends near nothing once it is empty.
#[test]
fn memory_follows_the_live_span_not_the_run() {
    let mut w: IdWindow<[u64; 4]> = IdWindow::new();
    let mut live: Vec<u64> = Vec::new();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % bound as u64) as usize
    };
    let mut worst = 0.0f64;
    for id in 1..=100_000u64 {
        w.insert(TxnId(id), [id; 4]);
        live.push(id);
        if live.len() > 64 || next(3) == 0 {
            let gone = live.swap_remove(next(live.len()));
            assert_eq!(w.remove(TxnId(gone)), Some([gone; 4]));
        }
        let span = live
            .iter()
            .max()
            .zip(live.iter().min())
            .map_or(0, |(hi, lo)| hi - lo + 1);
        let allocated = w.allocated() as u64;
        assert!(
            allocated <= 4 * span + 64,
            "id {id}: {allocated} slots for a live span of {span}"
        );
        worst = worst.max(allocated as f64 / span.max(1) as f64);
    }
    assert_eq!(w.len(), live.len());
    for id in live.drain(..) {
        w.remove(TxnId(id));
    }
    assert!(w.is_empty());
    assert!(
        w.allocated() <= 64,
        "{} slots left with nothing held (worst ratio {worst:.1})",
        w.allocated()
    );
}

/// A far id allocates no gap: the window holding a dense band, a peer's
/// stray id costs one overflow entry, not the ids between.
#[test]
fn a_far_id_allocates_no_gap() {
    let mut w: IdWindow<u64> = IdWindow::new();
    for id in 1..=32 {
        w.insert(TxnId(id), id);
    }
    let before = w.allocated();
    for far in [1 << 20, 1 << 40, u64::MAX] {
        w.insert(TxnId(far), far);
        assert_eq!(w.allocated(), before + w.len() - 32, "after {far}");
        assert_eq!(w.get(TxnId(far)), Some(&far));
    }
    assert_eq!(w.keys().last(), Some(TxnId(u64::MAX)));
    // Below the band too.
    let mut w: IdWindow<u64> = IdWindow::new();
    w.insert(TxnId(1 << 30), 0);
    w.insert(TxnId(3), 0);
    assert!(w.allocated() <= 8, "{} slots for two ids", w.allocated());
    assert_eq!(w.keys().collect::<Vec<_>>(), [TxnId(3), TxnId(1 << 30)]);
}
