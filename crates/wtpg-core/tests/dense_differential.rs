//! Differential tests for the slot-arena WTPG: drive the dense
//! implementation and a deliberately naive, map-based reference over the
//! same 200 randomly generated graphs and demand identical answers for
//! `critical_path`, `would_deadlock`, and `eq_estimate` (the overlay
//! estimator against the retained clone-based `eq_estimate_naive`).
//!
//! The references here are independent re-derivations from the paper's
//! definitions, written for obviousness rather than speed — they only ever
//! touch the public `Wtpg` API, so any divergence points at the arena.

#![expect(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    reason = "test code: a failed check is a failed test"
)]

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wtpg_core::estimate::{eq_estimate, eq_estimate_naive};
use wtpg_core::{TxnId, Work, Wtpg};

/// Longest `T0 → Tf` path from first principles: `dist(v)` starts at
/// `w(T0→v)` and precedence edges are relaxed `n` times (Bellman-style, no
/// topological order needed on a DAG); `None` on a precedence cycle.
fn ref_critical_path(g: &Wtpg) -> Option<Work> {
    let ids: Vec<TxnId> = g.txn_ids().collect();
    let edges = g.precedence_edges();
    for &(a, b, _) in &edges {
        if ref_reaches(g, b, a) {
            return None;
        }
    }
    let mut dist: BTreeMap<TxnId, Work> = ids
        .iter()
        .map(|&t| (t, g.t0_weight(t).unwrap()))
        .collect();
    for _ in 0..ids.len() {
        for &(a, b, w) in &edges {
            let cand = dist[&a] + w;
            if cand > dist[&b] {
                dist.insert(b, cand);
            }
        }
    }
    Some(dist.values().copied().max().unwrap_or(Work::ZERO))
}

/// Plain recursive reachability over `precedence_successors`.
fn ref_reaches(g: &Wtpg, from: TxnId, to: TxnId) -> bool {
    fn go(g: &Wtpg, at: TxnId, to: TxnId, seen: &mut BTreeSet<TxnId>) -> bool {
        if at == to {
            return true;
        }
        if !seen.insert(at) {
            return false;
        }
        g.precedence_successors(at)
            .into_iter()
            .any(|s| go(g, s, to, seen))
    }
    go(g, from, to, &mut BTreeSet::new())
}

/// `would_deadlock` re-derived: adding `from → to` closes a cycle iff `to`
/// already reaches `from`; self-edges always deadlock; edges touching an
/// unknown transaction never do.
fn ref_would_deadlock(g: &Wtpg, from: TxnId, to: TxnId) -> bool {
    if from == to {
        return true;
    }
    if !g.contains(from) || !g.contains(to) {
        return false;
    }
    ref_reaches(g, to, from)
}

/// A random WTPG: `n` transactions, random `T0` weights, and for each pair
/// either a conflicting edge, an (acyclicity-checked) precedence edge, or
/// nothing.
fn random_wtpg(rng: &mut StdRng, n: u64) -> Wtpg {
    let mut g = Wtpg::new();
    for i in 1..=n {
        g.add_txn(TxnId(i), Work::from_units(rng.gen_range(0u64..20_000)))
            .unwrap();
    }
    for a in 1..=n {
        for b in (a + 1)..=n {
            match rng.gen_range(0u32..10) {
                0..=2 => {
                    let w_ab = Work::from_units(rng.gen_range(1u64..10_000));
                    let w_ba = Work::from_units(rng.gen_range(1u64..10_000));
                    g.add_or_merge_conflict(TxnId(a), TxnId(b), w_ab, w_ba)
                        .unwrap();
                }
                3..=4 => {
                    let (f, t) = if rng.gen_bool(0.5) {
                        (TxnId(a), TxnId(b))
                    } else {
                        (TxnId(b), TxnId(a))
                    };
                    let w_ab = Work::from_units(rng.gen_range(1u64..10_000));
                    let w_ba = Work::from_units(rng.gen_range(1u64..10_000));
                    g.add_or_merge_conflict(TxnId(a), TxnId(b), w_ab, w_ba)
                        .unwrap();
                    if !g.would_deadlock(f, t) {
                        g.resolve(f, t).unwrap();
                    }
                }
                _ => {}
            }
        }
    }
    // Retire a few transactions so some runs exercise recycled slots.
    if rng.gen_bool(0.3) {
        for _ in 0..rng.gen_range(1u64..=2) {
            let victim = TxnId(rng.gen_range(1..=n));
            let _ = g.remove_txn(victim);
        }
    }
    g
}

#[test]
fn dense_wtpg_matches_naive_reference_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for case in 0..200u64 {
        let n = rng.gen_range(2u64..12);
        let g = random_wtpg(&mut rng, n);

        assert_eq!(
            g.critical_path(),
            ref_critical_path(&g),
            "critical_path diverged, case {case}:\n{}",
            g.to_dot()
        );

        // would_deadlock over every ordered pair, plus ids that were never
        // admitted (or were retired).
        for a in 0..=(n + 1) {
            for b in 0..=(n + 1) {
                let (from, to) = (TxnId(a), TxnId(b));
                assert_eq!(
                    g.would_deadlock(from, to),
                    ref_would_deadlock(&g, from, to),
                    "would_deadlock({from:?}, {to:?}) diverged, case {case}:\n{}",
                    g.to_dot()
                );
            }
        }

        // eq_estimate: the overlay vs the retained clone-based algorithm,
        // for several random requests with random implied-resolution sets
        // (sometimes including unknown or self ids — both must agree on the
        // degenerate contracts too).
        for _ in 0..8 {
            let txn = TxnId(rng.gen_range(1..=n + 1));
            let mut implied = Vec::new();
            for other in 1..=(n + 1) {
                if rng.gen_bool(0.4) {
                    implied.push(TxnId(other));
                }
            }
            assert_eq!(
                eq_estimate(&g, txn, &implied),
                eq_estimate_naive(&g, txn, &implied),
                "eq_estimate({txn:?}, {implied:?}) diverged, case {case}:\n{}",
                g.to_dot()
            );
        }
    }
}
