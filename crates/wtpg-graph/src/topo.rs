//! Topological sorting and cycle detection (Kahn's algorithm).
//!
//! A cycle in a committed history's serialization graph means the history
//! is not conflict-serializable; the critical-path computation in
//! [`crate::critical_path`] consumes the topological order.

use crate::digraph::{DiGraph, NodeId};

/// Error returned by [`topo_sort`] when the graph has a directed cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoError {
    /// A node that participates in (or is downstream of) a cycle.
    pub witness: NodeId,
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph contains a directed cycle (witness {:?})",
            self.witness
        )
    }
}

impl std::error::Error for TopoError {}

/// Kahn topological sort over all nodes.
///
/// Returns the nodes in an order where every edge points forward, or a
/// [`TopoError`] carrying one node stuck on a cycle. Deterministic: ties are
/// broken by insertion order.
pub fn topo_sort<N, E>(graph: &DiGraph<N, E>) -> Result<Vec<NodeId>, TopoError> {
    let mut indegree = vec![0usize; graph.node_count()];
    for n in graph.node_ids() {
        for (t, _) in graph.out_edges(n) {
            indegree[t.0] += 1;
        }
    }
    // A FIFO over ready nodes keeps the order stable and roughly level-wise.
    let mut queue: std::collections::VecDeque<NodeId> =
        graph.node_ids().filter(|n| indegree[n.0] == 0).collect();
    let mut order = Vec::with_capacity(graph.node_count());
    while let Some(n) = queue.pop_front() {
        order.push(n);
        for (s, _) in graph.out_edges(n) {
            let d = &mut indegree[s.0];
            *d -= 1;
            if *d == 0 {
                queue.push_back(s);
            }
        }
    }
    if order.len() == graph.node_count() {
        Ok(order)
    } else {
        let witness = graph
            .node_ids()
            .find(|n| indegree[n.0] > 0)
            .expect("some node must remain with positive in-degree");
        Err(TopoError { witness })
    }
}

/// Returns true if the graph contains a directed cycle.
pub fn is_cyclic<N, E>(graph: &DiGraph<N, E>) -> bool {
    topo_sort(graph).is_err()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topo_sort_linear_chain() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(b, c, ());
        g.add_edge(a, b, ());
        assert_eq!(topo_sort(&g).unwrap(), vec![a, b, c]);
    }

    /// Insertion order is not topological here, so an order that falls back
    /// to it fails.
    #[test]
    fn topo_sort_respects_all_edges() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let nodes: Vec<NodeId> = (0..6).map(|_| g.add_node(())).collect();
        let edges = [(5, 0), (3, 5), (3, 1), (1, 0)];
        for &(s, t) in &edges {
            g.add_edge(nodes[s], nodes[t], ());
        }
        let order = topo_sort(&g).unwrap();
        assert_eq!(order.len(), 6);
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        for &(s, t) in &edges {
            assert!(pos(nodes[s]) < pos(nodes[t]));
        }
    }

    #[test]
    fn cycle_detected_with_a_witness_on_it() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(c, b, ());
        assert!(is_cyclic(&g));
        let witness = topo_sort(&g).unwrap_err().witness;
        assert!(witness == b || witness == c);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert!(is_cyclic(&g));
    }

    #[test]
    fn empty_and_edgeless_graphs_are_acyclic() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        assert!(!is_cyclic(&g));
        g.add_node(());
        g.add_node(());
        assert!(!is_cyclic(&g));
        assert_eq!(topo_sort(&g).unwrap().len(), 2);
    }
}
