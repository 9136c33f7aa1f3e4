//! Undirected graph model of the communication topology `Gc` and operational topology `Go`.
//!
//! The graph is deliberately simple: dense node identifiers, sorted adjacency sets (so
//! every traversal is deterministic, which the paper's "first shortest path" definition
//! requires), and cheap cloning so a controller can snapshot its current view.

use crate::ids::{Link, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// An undirected graph over [`NodeId`]s with deterministic (sorted) adjacency.
///
/// Used both for the ground-truth connected topology `Gc` maintained by the simulator
/// and for the per-controller *discovered* topology `G(replyDB)` that Algorithm 2
/// accumulates from query replies.
///
/// # Example
///
/// ```
/// use sdn_topology::{Graph, NodeId};
/// let mut g = Graph::new();
/// g.add_link(NodeId::new(0), NodeId::new(1));
/// g.add_link(NodeId::new(1), NodeId::new(2));
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.link_count(), 2);
/// assert!(g.has_link(NodeId::new(0), NodeId::new(1)));
/// assert_eq!(g.neighbors(NodeId::new(1)).count(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    adjacency: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            adjacency: BTreeMap::new(),
        }
    }

    /// Creates a graph from an iterator of undirected edges, adding nodes as needed.
    pub fn from_links<I>(links: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = Graph::new();
        for (a, b) in links {
            g.add_link(a, b);
        }
        g
    }

    /// Adds an isolated node (no-op if it already exists).
    pub fn add_node(&mut self, node: NodeId) {
        self.adjacency.entry(node).or_default();
    }

    /// Removes a node and every link adjacent to it.
    ///
    /// Returns `true` if the node existed.
    pub fn remove_node(&mut self, node: NodeId) -> bool {
        if self.adjacency.remove(&node).is_none() {
            return false;
        }
        for neighbors in self.adjacency.values_mut() {
            neighbors.remove(&node);
        }
        true
    }

    /// Adds an undirected link between `a` and `b`, creating the nodes if necessary.
    ///
    /// Returns `true` if the link was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self loops are not part of the model).
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> bool {
        assert_ne!(a, b, "self-loop links are not allowed");
        let newly = self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
        newly
    }

    /// Removes the undirected link between `a` and `b` (nodes remain).
    ///
    /// Returns `true` if the link existed.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) -> bool {
        let mut removed = false;
        if let Some(n) = self.adjacency.get_mut(&a) {
            removed = n.remove(&b);
        }
        if let Some(n) = self.adjacency.get_mut(&b) {
            n.remove(&a);
        }
        removed
    }

    /// Returns `true` if the node exists in the graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.adjacency.contains_key(&node)
    }

    /// Returns `true` if the undirected link `(a, b)` exists.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency
            .get(&a)
            .map(|n| n.contains(&b))
            .unwrap_or(false)
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected links in the graph.
    pub fn link_count(&self) -> usize {
        self.adjacency.values().map(|n| n.len()).sum::<usize>() / 2
    }

    /// Iterates over all node identifiers in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency.keys().copied()
    }

    /// Iterates over the neighbors of `node` in ascending identifier order.
    ///
    /// Returns an empty iterator if the node does not exist. The ascending order is what
    /// makes "the first shortest path" (paper, Section 5.4) well defined.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency
            .get(&node)
            .into_iter()
            .flat_map(|n| n.iter().copied())
    }

    /// Returns the neighbor set of `node` as an owned, sorted `Vec`.
    pub fn neighbor_vec(&self, node: NodeId) -> Vec<NodeId> {
        self.neighbors(node).collect()
    }

    /// Returns the degree of `node` (0 if absent).
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency.get(&node).map(|n| n.len()).unwrap_or(0)
    }

    /// Returns the maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.values().map(|n| n.len()).max().unwrap_or(0)
    }

    /// Iterates over every undirected link exactly once, in canonical order.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        self.adjacency.iter().flat_map(|(&a, neighbors)| {
            neighbors
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| Link::new(a, b))
        })
    }

    /// Returns a copy of this graph with the given nodes removed.
    pub fn without_nodes<'a, I>(&self, removed: I) -> Graph
    where
        I: IntoIterator<Item = &'a NodeId>,
    {
        let mut g = self.clone();
        for &node in removed {
            g.remove_node(node);
        }
        g
    }

    /// Merges another graph into this one (union of nodes and links).
    pub fn merge(&mut self, other: &Graph) {
        for node in other.nodes() {
            self.add_node(node);
        }
        for link in other.links() {
            self.add_link(link.a, link.b);
        }
    }

    /// Takes a compact CSR snapshot of the current graph (see [`crate::flat`]).
    ///
    /// The snapshot preserves the ascending neighbor order, so traversals over it
    /// are bit-identical to traversals over the graph itself — just faster.
    pub fn snapshot(&self) -> crate::flat::FlatGraph {
        crate::flat::FlatGraph::from_graph(self)
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Removes all nodes and links.
    pub fn clear(&mut self) {
        self.adjacency.clear();
    }
}

impl FromIterator<(NodeId, NodeId)> for Graph {
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId)>>(iter: T) -> Self {
        Graph::from_links(iter)
    }
}

impl Extend<(NodeId, NodeId)> for Graph {
    fn extend<T: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: T) {
        for (a, b) in iter {
            self.add_link(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn triangle() -> Graph {
        Graph::from_links([(n(0), n(1)), (n(1), n(2)), (n(2), n(0))])
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.link_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.neighbors(n(0)).count(), 0);
    }

    #[test]
    fn add_and_remove_links() {
        let mut g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 3);
        assert!(g.has_link(n(0), n(2)));
        assert!(g.remove_link(n(0), n(2)));
        assert!(!g.has_link(n(0), n(2)));
        assert!(!g.remove_link(n(0), n(2)));
        assert_eq!(g.link_count(), 2);
        // nodes remain after link removal
        assert!(g.contains_node(n(0)));
    }

    #[test]
    fn duplicate_link_is_idempotent() {
        let mut g = Graph::new();
        assert!(g.add_link(n(0), n(1)));
        assert!(!g.add_link(n(1), n(0)));
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn remove_node_removes_incident_links() {
        let mut g = triangle();
        assert!(g.remove_node(n(1)));
        assert!(!g.remove_node(n(1)));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.link_count(), 1);
        assert!(g.has_link(n(0), n(2)));
        assert!(!g.has_link(n(0), n(1)));
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut g = Graph::new();
        g.add_link(n(5), n(3));
        g.add_link(n(5), n(9));
        g.add_link(n(5), n(1));
        let neighbors: Vec<_> = g.neighbors(n(5)).collect();
        assert_eq!(neighbors, vec![n(1), n(3), n(9)]);
        assert_eq!(g.degree(n(5)), 3);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn links_iterate_once_in_canonical_order() {
        let g = triangle();
        let links: Vec<_> = g.links().collect();
        assert_eq!(links.len(), 3);
        assert_eq!(links[0], Link::new(n(0), n(1)));
        assert_eq!(links[1], Link::new(n(0), n(2)));
        assert_eq!(links[2], Link::new(n(1), n(2)));
    }

    #[test]
    fn without_links_and_nodes() {
        let g = triangle();
        let pruned = g.without_nodes(&[n(2)]);
        assert_eq!(pruned.node_count(), 2);
        assert_eq!(pruned.link_count(), 1);
    }

    #[test]
    fn merge_unions_graphs() {
        let mut a = Graph::from_links([(n(0), n(1))]);
        let b = Graph::from_links([(n(1), n(2)), (n(3), n(4))]);
        a.merge(&b);
        assert_eq!(a.node_count(), 5);
        assert_eq!(a.link_count(), 3);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut g: Graph = [(n(0), n(1))].into_iter().collect();
        g.extend([(n(1), n(2))]);
        assert_eq!(g.link_count(), 2);
    }

    #[test]
    fn isolated_node_has_zero_degree() {
        let mut g = Graph::new();
        g.add_node(n(7));
        assert!(g.contains_node(n(7)));
        assert_eq!(g.degree(n(7)), 0);
        assert_eq!(g.link_count(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut g = triangle();
        g.clear();
        assert!(g.is_empty());
    }
}
