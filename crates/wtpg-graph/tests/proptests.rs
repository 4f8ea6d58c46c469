//! Property-based tests for the graph oracles, checked against a reference
//! walk that shares no code with them.

#![expect(
    clippy::indexing_slicing,
    reason = "test code: a failed check is a failed test"
)]
#![expect(
    clippy::disallowed_types,
    reason = "hash maps as test oracles; their order is never observed"
)]

use proptest::prelude::*;
use std::collections::HashMap;

use wtpg_graph::{is_cyclic, longest_path, topo_sort, DiGraph, NodeId};

/// Strategy: a random digraph as (node count, list of (src, dst, weight)).
/// Self-loops and parallel edges are drawn like any other edge.
fn arb_graph(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>)> {
    (1..=max_nodes).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0u64..100), 0..=max_edges);
        (Just(n), edges)
    })
}

/// Strategy: a random DAG — edges go from smaller to larger rank, and the
/// ranks are a random permutation of the node indices, so insertion order
/// is usually not topological.
fn arb_dag(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>)> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edges = proptest::collection::vec(
            (0..n - 1).prop_flat_map(move |s| (Just(s), s + 1..n, 0u64..100)),
            0..=max_edges,
        );
        // Sorting the indices by random keys draws the permutation.
        let keys = proptest::collection::vec(0u64..1 << 32, n);
        (Just(n), edges, keys).prop_map(|(n, edges, keys)| {
            let mut node_of_rank: Vec<usize> = (0..n).collect();
            node_of_rank.sort_by_key(|&v| keys[v]);
            let edges = edges
                .into_iter()
                .map(|(s, t, w)| (node_of_rank[s], node_of_rank[t], w))
                .collect();
            (n, edges)
        })
    })
}

fn build(n: usize, edges: &[(usize, usize, u64)]) -> (DiGraph<usize, u64>, Vec<NodeId>) {
    let mut g = DiGraph::new();
    let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(i)).collect();
    for &(s, t, w) in edges {
        g.add_edge(ids[s], ids[t], w);
    }
    (g, ids)
}

/// Reference walk over the raw edge list: the nodes reachable from `start`
/// by one or more edges (so `start` itself only if it lies on a cycle).
fn walk(n: usize, edges: &[(usize, usize, u64)], start: usize) -> Vec<bool> {
    let mut seen = vec![false; n];
    let mut stack = vec![start];
    while let Some(u) = stack.pop() {
        for &(s, t, _) in edges {
            if s == u && !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        }
    }
    seen
}

proptest! {
    #[test]
    fn topo_sort_orders_every_edge((n, edges) in arb_dag(20, 60)) {
        let (g, ids) = build(n, &edges);
        let order = topo_sort(&g).expect("DAG must sort");
        prop_assert_eq!(order.len(), n);
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &x)| (x, i)).collect();
        for &(s, t, _) in &edges {
            prop_assert!(pos[&ids[s]] < pos[&ids[t]]);
        }
    }

    /// `is_cyclic` is true exactly when some node's walk reaches itself, and
    /// `longest_path` refuses exactly the cyclic graphs.
    #[test]
    fn is_cyclic_iff_some_walk_returns((n, edges) in arb_graph(15, 40)) {
        let (g, ids) = build(n, &edges);
        let returns = (0..n).any(|u| walk(n, &edges, u)[u]);
        prop_assert_eq!(is_cyclic(&g), returns);
        prop_assert_eq!(longest_path(&g, ids[0], |&w| w).is_err(), returns);
    }

    /// On a DAG, `longest_path` gives a distance to exactly the source and
    /// the nodes its walk reaches; every edge relaxation between reached
    /// nodes is dominated, and every reached node's distance is attained by
    /// one of its in-edges.
    #[test]
    fn longest_path_covers_the_walk_and_dominates_every_relaxation(
        (n, edges) in arb_dag(15, 40),
        source in 0usize..15,
    ) {
        let source = source % n;
        let (g, ids) = build(n, &edges);
        let lp = longest_path(&g, ids[source], |&w| w).unwrap();
        let reached = walk(n, &edges, source);
        prop_assert_eq!(lp.distance(ids[source]), Some(0));
        for v in (0..n).filter(|&v| v != source) {
            prop_assert_eq!(lp.distance(ids[v]).is_some(), reached[v]);
        }
        for &(s, t, w) in &edges {
            if let Some(ds) = lp.distance(ids[s]) {
                prop_assert!(lp.distance(ids[t]).is_some_and(|dt| dt >= ds + w));
            }
        }
        for v in (0..n).filter(|&v| reached[v]) {
            let attained = edges.iter().any(|&(s, t, w)| {
                t == v && lp.distance(ids[s]).map(|ds| ds + w) == lp.distance(ids[v])
            });
            prop_assert!(attained, "node {} has a distance no edge attains", v);
        }
    }
}
