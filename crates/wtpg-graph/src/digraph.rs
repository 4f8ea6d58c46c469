//! An append-only directed multigraph.
//!
//! Nodes and edges are only ever added, so a [`NodeId`] is the node's
//! insertion index and stays valid for the graph's lifetime.

/// Handle to a node of a [`DiGraph`]: its insertion index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

#[derive(Debug)]
struct Node<N, E> {
    weight: N,
    out: Vec<(NodeId, E)>,
}

/// A directed multigraph that only grows.
///
/// Parallel edges and self-loops are permitted; callers that need at most one
/// edge per ordered pair deduplicate before adding.
#[derive(Debug)]
pub struct DiGraph<N, E> {
    nodes: Vec<Node<N, E>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph { nodes: Vec::new() }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Adds a node carrying `weight`; returns its handle.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        self.nodes.push(Node {
            weight,
            out: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a directed edge `source → target` carrying `weight`.
    ///
    /// # Panics
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId, weight: E) {
        let n = self.nodes.len();
        assert!(
            source.0 < n && target.0 < n,
            "add_edge: unknown endpoint in {source:?} → {target:?}"
        );
        self.nodes[source.0].out.push((target, weight));
    }

    /// Borrow a node's payload, `None` for a handle from another graph.
    #[inline]
    pub fn node_weight(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(id.0).map(|n| &n.weight)
    }

    /// Every node handle, in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Outgoing edges of `node` as `(target, weight)`, in insertion order.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (NodeId, &E)> + '_ {
        self.nodes[node.0].out.iter().map(|(t, w)| (*t, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_insertion_indices() {
        let mut g: DiGraph<&str, u32> = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.node_weight(b), Some(&"b"));
        assert_eq!(g.node_weight(NodeId(2)), None);
        assert_eq!(g.node_ids().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn parallel_edges_and_self_loops_keep_insertion_order() {
        let mut g: DiGraph<(), u32> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, a, 3);
        g.add_edge(a, b, 2);
        let out: Vec<_> = g.out_edges(a).map(|(t, &w)| (t, w)).collect();
        assert_eq!(out, vec![(b, 1), (a, 3), (b, 2)]);
        assert_eq!(g.out_edges(b).count(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown endpoint")]
    fn edge_to_a_foreign_node_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(5), ());
    }
}
