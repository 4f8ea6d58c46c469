//! Property tests for the WTPG and the `E(q)` estimator, checked against
//! straightforward reference implementations built on `wtpg-graph`.

#![expect(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    reason = "test code: a failed check is a failed test"
)]

use proptest::prelude::*;
use std::collections::BTreeSet;

use wtpg_core::estimate::{eq_estimate, EqValue};
use wtpg_core::txn::TxnId;
use wtpg_core::work::Work;
use wtpg_core::wtpg::Wtpg;
use wtpg_graph::{longest_path, DiGraph};

/// A randomly built WTPG scenario: node T0-weights, conflicting edges with
/// both weights, and a subset of them resolved (acyclically, in id order so
/// cycles are impossible).
#[derive(Clone, Debug)]
struct Scenario {
    t0: Vec<u64>,
    /// (a, b, w_ab, w_ba, resolve_down) with a < b.
    edges: Vec<(usize, usize, u64, u64, Option<bool>)>,
}

fn arb_scenario(max_n: usize) -> impl Strategy<Value = Scenario> {
    (2..=max_n)
        .prop_flat_map(move |n| {
            let t0 = proptest::collection::vec(0u64..50, n);
            let edges = proptest::collection::vec(
                (
                    0..n,
                    0..n,
                    0u64..50,
                    0u64..50,
                    prop_oneof![Just(None), Just(Some(true)), Just(Some(false))],
                ),
                0..n * 2,
            );
            (t0, edges)
        })
        .prop_map(|(t0, raw)| {
            let mut seen = BTreeSet::new();
            let mut edges = Vec::new();
            for (x, y, wab, wba, res) in raw {
                let (a, b) = if x < y { (x, y) } else { (y, x) };
                if a == b || !seen.insert((a, b)) {
                    continue;
                }
                edges.push((a, b, wab, wba, res));
            }
            Scenario { t0, edges }
        })
}

fn build(s: &Scenario) -> Wtpg {
    let mut g = Wtpg::new();
    for (i, &w) in s.t0.iter().enumerate() {
        g.add_txn(TxnId(i as u64 + 1), Work::from_units(w)).unwrap();
    }
    for &(a, b, wab, wba, res) in &s.edges {
        let (ta, tb) = (TxnId(a as u64 + 1), TxnId(b as u64 + 1));
        g.add_or_merge_conflict(ta, tb, Work::from_units(wab), Work::from_units(wba))
            .unwrap();
        match res {
            // Resolving low→high only can never create a cycle.
            Some(true) => g.resolve(ta, tb).unwrap(),
            Some(false) => g.resolve(tb, ta).unwrap(),
            None => {}
        }
    }
    g
}

/// Reference critical path: rebuild the precedence graph in `wtpg-graph`
/// with explicit T0/Tf nodes and run the generic longest-path.
fn reference_critical_path(g: &Wtpg) -> Option<u64> {
    let mut dg: DiGraph<&str, u64> = DiGraph::new();
    let t0 = dg.add_node("T0");
    let tf = dg.add_node("Tf");
    let mut nodes = std::collections::BTreeMap::new();
    for t in g.txn_ids() {
        let n = dg.add_node("T");
        nodes.insert(t, n);
        dg.add_edge(t0, n, g.t0_weight(t).unwrap().units());
        dg.add_edge(n, tf, 0);
    }
    for (a, b, w) in g.precedence_edges() {
        dg.add_edge(nodes[&a], nodes[&b], w.units());
    }
    longest_path(&dg, t0, |&w| w).ok()?.distance(tf)
}

proptest! {
    /// Some resolutions are "up" (high→low id), which can create cycles; the
    /// builder must therefore tolerate cyclic scenarios, and critical_path
    /// must agree with the reference on both cyclic and acyclic cases.
    #[test]
    fn critical_path_matches_reference(s in arb_scenario(10)) {
        let g = build(&s);
        let reference = reference_critical_path(&g);
        let ours = g.critical_path().map(|w| w.units());
        prop_assert_eq!(ours, reference);
    }

    /// before() and after() are adjoint and never contain the node itself
    /// (on acyclic precedence graphs).
    #[test]
    fn before_after_adjoint(s in arb_scenario(10)) {
        let g = build(&s);
        if g.has_cycle() {
            return Ok(());
        }
        for t in g.txn_ids() {
            let before = g.before(t);
            prop_assert!(!before.contains(&t));
            for &p in &before {
                prop_assert!(g.after(p).contains(&t));
            }
        }
    }

    /// Removing a transaction removes every trace of it and cannot create
    /// cycles or grow the critical path beyond... (removal only removes
    /// paths, so the critical path never increases).
    #[test]
    fn removal_shrinks_critical_path(s in arb_scenario(10), victim in 0usize..10) {
        let mut g = build(&s);
        if g.has_cycle() {
            return Ok(());
        }
        let before_cp = g.critical_path().unwrap().units();
        let ids: Vec<TxnId> = g.txn_ids().collect();
        let victim = ids[victim % ids.len()];
        g.remove_txn(victim).unwrap();
        prop_assert!(!g.contains(victim));
        for t in g.txn_ids() {
            prop_assert!(!g.conflict_partners(t).contains(&victim));
            prop_assert!(!g.precedence_successors(t).contains(&victim));
            prop_assert!(!g.precedence_predecessors(t).contains(&victim));
        }
        let after_cp = g.critical_path().expect("still acyclic").units();
        prop_assert!(after_cp <= before_cp);
    }

    /// A finite E(q) is always ≥ the current critical path: granting only
    /// *adds* constraints, and even the no-grant estimate may exceed the
    /// bare critical path because Step 2 resolves conflicts that are already
    /// implied transitively (before(T) → after(T)). With no implied
    /// resolutions the estimate is always finite on an acyclic WTPG.
    #[test]
    fn eq_dominates_current_critical_path(s in arb_scenario(8)) {
        let g = build(&s);
        if g.has_cycle() {
            return Ok(());
        }
        let cp = g.critical_path().unwrap();
        let ids: Vec<TxnId> = g.txn_ids().collect();
        for &t in ids.iter().take(4) {
            match eq_estimate(&g, t, &[]) {
                EqValue::Finite(v) => prop_assert!(v >= cp, "{v:?} < {cp:?}"),
                EqValue::Infinite => prop_assert!(false, "no-grant estimate must be finite"),
            }
            let partners = g.conflict_partners(t);
            if let Some(&other) = partners.first() {
                match eq_estimate(&g, t, &[other]) {
                    EqValue::Finite(v) => prop_assert!(v >= cp),
                    EqValue::Infinite => {}
                }
            }
        }
    }

    /// The estimator never mutates the WTPG.
    #[test]
    fn eq_is_pure(s in arb_scenario(8)) {
        let g = build(&s);
        let dot_before = g.to_dot();
        let ids: Vec<TxnId> = g.txn_ids().collect();
        for &t in &ids {
            let partners = g.conflict_partners(t);
            let _ = eq_estimate(&g, t, &partners);
        }
        prop_assert_eq!(g.to_dot(), dot_before);
    }

    /// Weight decrement with a floor is monotone and respects the floor.
    #[test]
    fn decrement_respects_floor(start in 0u64..100, amount in 0u64..100, floor in 0u64..100) {
        let mut g = Wtpg::new();
        g.add_txn(TxnId(1), Work::from_units(start)).unwrap();
        g.decrement_t0_weight(TxnId(1), Work::from_units(amount), Work::from_units(floor)).unwrap();
        let w = g.t0_weight(TxnId(1)).unwrap().units();
        prop_assert!(w <= start.max(floor));
        prop_assert!(w >= start.saturating_sub(amount).min(start));
        prop_assert!(w >= floor.min(start.max(floor)));
        if floor <= start.saturating_sub(amount) {
            prop_assert_eq!(w, start.saturating_sub(amount));
        }
    }
}
