//! Longest (critical) path over a weighted DAG.
//!
//! The central quantity of the paper: in a WTPG resolved by a full SR-order,
//! *"the length of its critical path from T0 to Tf is the earliest possible
//! completion time of a total schedule"* (§3.2). Weights are `u64` (the WTPG
//! layer encodes fractional object counts as fixed-point milli-objects).

use crate::digraph::{DiGraph, NodeId};
use crate::topo::{topo_sort, TopoError};

/// Result of a single-source longest-path computation.
#[derive(Debug, Clone)]
pub struct LongestPaths {
    /// `dist[i]` is the longest-path distance to the node with index `i`, or
    /// `None` when that node is unreachable from the source.
    dist: Vec<Option<u64>>,
}

impl LongestPaths {
    /// Longest-path distance from the source to `node`, `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<u64> {
        self.dist.get(node.0).copied().flatten()
    }
}

/// Computes longest paths from `source` over a DAG, using `edge_weight` to
/// read each edge's length.
///
/// Returns `Err` if the graph is cyclic (longest path is then undefined /
/// NP-hard in general).
pub fn longest_path<N, E>(
    graph: &DiGraph<N, E>,
    source: NodeId,
    mut edge_weight: impl FnMut(&E) -> u64,
) -> Result<LongestPaths, TopoError> {
    let order = topo_sort(graph)?;
    let mut dist: Vec<Option<u64>> = vec![None; graph.node_count()];
    dist[source.0] = Some(0);
    for n in order {
        let Some(dn) = dist[n.0] else { continue };
        for (t, w) in graph.out_edges(n) {
            let cand = dn + edge_weight(w);
            let slot = &mut dist[t.0];
            if slot.is_none_or(|d| cand > d) {
                *slot = Some(cand);
            }
        }
    }
    Ok(LongestPaths { dist })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Example 3.2: T0 →5 T1 →1 T2, T0 →2 T3, T0 →4 T2, and T3 →4 T2
    /// (Figure 2-(b)) or, with `chain_of_blocking`, T2 →4 T3 (Figure 2-(c)).
    fn figure2(chain_of_blocking: bool) -> (DiGraph<&'static str, u64>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let t: Vec<NodeId> = ["T0", "T1", "T2", "T3"]
            .into_iter()
            .map(|n| g.add_node(n))
            .collect();
        g.add_edge(t[0], t[1], 5);
        g.add_edge(t[0], t[2], 4);
        g.add_edge(t[0], t[3], 2);
        g.add_edge(t[1], t[2], 1);
        if chain_of_blocking {
            g.add_edge(t[2], t[3], 4);
        } else {
            g.add_edge(t[3], t[2], 4);
        }
        (g, t)
    }

    /// Figure 2-(b): critical path T0→T1→T2 of length 6.
    #[test]
    fn paper_example_3_2_short_order() {
        let (g, t) = figure2(false);
        let lp = longest_path(&g, t[0], |&w| w).unwrap();
        assert_eq!(lp.distance(t[2]), Some(6));
    }

    /// Figure 2-(c): the chain of blocking T1→T2→T3 gives length 10.
    #[test]
    fn paper_example_3_2_chain_of_blocking() {
        let (g, t) = figure2(true);
        let lp = longest_path(&g, t[0], |&w| w).unwrap();
        assert_eq!(lp.distance(t[3]), Some(10));
    }

    #[test]
    fn unreachable_nodes_have_no_distance_and_source_is_zero() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 7);
        let lp = longest_path(&g, a, |&w| w).unwrap();
        assert_eq!(lp.distance(a), Some(0));
        assert_eq!(lp.distance(b), Some(7));
        assert_eq!(lp.distance(c), None);
    }

    #[test]
    fn cyclic_graph_is_an_error() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(b, a, 1);
        assert!(longest_path(&g, a, |&w| w).is_err());
    }

    #[test]
    fn takes_longest_route_and_heavier_parallel_edge() {
        let mut g: DiGraph<(), u64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, c, 1); // short direct route
        g.add_edge(a, b, 9);
        g.add_edge(a, b, 5); // lighter parallel edge
        g.add_edge(b, c, 0);
        let lp = longest_path(&g, a, |&w| w).unwrap();
        assert_eq!(lp.distance(b), Some(9));
        assert_eq!(lp.distance(c), Some(9));
    }
}
