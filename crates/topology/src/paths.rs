//! Shortest-path machinery: BFS trees, "first shortest paths", distances and diameter.
//!
//! The paper (Section 5.4) defines the *first shortest path* between two nodes as the
//! shortest path that, among all shortest paths, uses the neighbors with minimum
//! identifiers. Because [`crate::Graph::neighbors`] iterates in ascending identifier
//! order — an order the [`FlatGraph`] snapshot preserves — a plain BFS that only keeps
//! the *first* discovered parent computes exactly this path, which keeps every
//! controller's routing decision deterministic and reproducible.
//!
//! All traversals run over a [`FlatGraph`] snapshot with a reusable [`BfsScratch`]
//! workspace: multi-source sweeps ([`diameter`], [`farthest_pair`]) snapshot once and
//! reuse the scratch across every search instead of allocating fresh maps per BFS.

use crate::flat::{BfsScratch, FlatGraph, NO_INDEX};
use crate::graph::Graph;
use crate::ids::NodeId;

/// The result of a breadth-first search from a single source.
///
/// Stores, for every reachable node, its hop distance from the source and its parent on
/// the first shortest path. Backed by the flat-indexed snapshot the search ran over.
///
/// # Example
///
/// ```
/// use sdn_topology::{Graph, NodeId, paths::BfsTree};
/// let g = Graph::from_links([
///     (NodeId::new(0), NodeId::new(1)),
///     (NodeId::new(1), NodeId::new(2)),
/// ]);
/// let tree = BfsTree::compute(&g, NodeId::new(0));
/// assert_eq!(tree.distance(NodeId::new(2)), Some(2));
/// assert_eq!(tree.parent(NodeId::new(2)), Some(NodeId::new(1)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsTree {
    flat: FlatGraph,
    source_idx: u32,
    /// Per dense index; [`NO_INDEX`] marks unreachable nodes.
    dist: Vec<u32>,
    /// Per dense index; [`NO_INDEX`] marks the source and unreachable nodes.
    parent: Vec<u32>,
}

impl BfsTree {
    /// Runs a breadth-first search over `graph` starting at `source`.
    ///
    /// If `source` is not in the graph, the tree contains only the source itself at
    /// distance 0 (mirroring a node that knows about itself but nothing else).
    pub fn compute(graph: &Graph, source: NodeId) -> Self {
        let flat = if graph.contains_node(source) {
            FlatGraph::from_graph(graph)
        } else {
            // Mirror the historical behavior: a missing source sees only itself.
            let mut only_source = Graph::new();
            only_source.add_node(source);
            FlatGraph::from_graph(&only_source)
        };
        let mut scratch = BfsScratch::new();
        Self::compute_flat(flat, source, &mut scratch)
    }

    /// Runs the search over an existing snapshot, reusing `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not part of the snapshot.
    pub fn compute_flat(flat: FlatGraph, source: NodeId, scratch: &mut BfsScratch) -> Self {
        let source_idx = flat
            .index_of(source)
            // stancheck: allow(unwrap-expect) — documented contract (see `# Panics`): callers pass sources drawn from the same snapshot they hand in
            .expect("BFS source must be part of the snapshot");
        flat.bfs(source_idx, scratch);
        BfsTree {
            source_idx,
            dist: scratch.distances().to_vec(),
            parent: scratch.parents().to_vec(),
            flat,
        }
    }

    /// Hop distance from the source to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<u32> {
        let idx = self.flat.index_of(node)?;
        match self.dist[idx as usize] {
            NO_INDEX => None,
            d => Some(d),
        }
    }

    /// Returns `true` when `node` is reachable from the source.
    pub fn reaches(&self, node: NodeId) -> bool {
        self.distance(node).is_some()
    }

    /// The parent of `node` on its first shortest path from the source.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let idx = self.flat.index_of(node)?;
        match self.parent[idx as usize] {
            NO_INDEX => None,
            p => Some(self.flat.node_at(p)),
        }
    }

    /// Iterates over all reachable nodes together with their distances, in ascending
    /// identifier order.
    pub fn reachable(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.flat
            .node_ids()
            .iter()
            .zip(&self.dist)
            .filter(|(_, &d)| d != NO_INDEX)
            .map(|(&n, &d)| (n, d))
    }

    /// The first hop from the source towards `target`, or `None` if the target is the
    /// source itself or unreachable.
    pub fn first_hop(&self, target: NodeId) -> Option<NodeId> {
        let mut idx = self.flat.index_of(target)?;
        if idx == self.source_idx || self.dist[idx as usize] == NO_INDEX {
            return None;
        }
        // Walk the parent chain until one step below the source.
        while self.parent[idx as usize] != self.source_idx {
            idx = self.parent[idx as usize];
            if idx == NO_INDEX {
                return None;
            }
        }
        Some(self.flat.node_at(idx))
    }
}

/// Computes the hop distance between `from` and `to`, or `None` when disconnected.
pub fn distance(graph: &Graph, from: NodeId, to: NodeId) -> Option<u32> {
    BfsTree::compute(graph, from).distance(to)
}

/// Computes the diameter of the graph: the largest finite pairwise distance.
///
/// Disconnected node pairs are ignored; an empty graph has diameter 0. One snapshot,
/// one scratch, `n` allocation-free searches.
pub fn diameter(graph: &Graph) -> u32 {
    let flat = FlatGraph::from_graph(graph);
    let mut scratch = BfsScratch::new();
    let mut best = 0u32;
    for idx in 0..flat.node_count() as u32 {
        flat.bfs(idx, &mut scratch);
        best = best.max(scratch.max_distance());
    }
    best
}

/// Returns a pair of nodes realizing the diameter, useful for placing the iperf hosts of
/// the throughput experiments "at maximal distance from each other" (paper, Section 6.3).
pub fn farthest_pair(graph: &Graph) -> Option<(NodeId, NodeId, u32)> {
    let flat = FlatGraph::from_graph(graph);
    let mut scratch = BfsScratch::new();
    let mut best: Option<(NodeId, NodeId, u32)> = None;
    for idx in 0..flat.node_count() as u32 {
        flat.bfs(idx, &mut scratch);
        for (j, &d) in scratch.distances().iter().enumerate() {
            if d != NO_INDEX && best.map(|(_, _, bd)| d > bd).unwrap_or(true) {
                best = Some((flat.node_at(idx), flat.node_at(j as u32), d));
            }
        }
    }
    best
}

/// Returns `true` if every node can reach every other node.
pub fn is_connected(graph: &Graph) -> bool {
    let flat = FlatGraph::from_graph(graph);
    if flat.is_empty() {
        return true;
    }
    let mut scratch = BfsScratch::new();
    flat.bfs(0, &mut scratch) == flat.node_count()
}

/// Returns the set of nodes reachable from `source` (including `source`), in order.
///
/// A source outside the graph reaches only itself — mirroring [`BfsTree::compute`]'s
/// missing-source behavior.
pub fn reachable_set(graph: &Graph, source: NodeId) -> Vec<NodeId> {
    let flat = FlatGraph::from_graph(graph);
    let Some(source_idx) = flat.index_of(source) else {
        return vec![source];
    };
    let mut scratch = BfsScratch::new();
    let reached = flat.bfs(source_idx, &mut scratch);
    let mut out = Vec::with_capacity(reached);
    for (j, &d) in scratch.distances().iter().enumerate() {
        if d != NO_INDEX {
            out.push(flat.node_at(j as u32));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 0-1-2-3 path plus a chord 0-3.
    fn ring4() -> Graph {
        Graph::from_links([(n(0), n(1)), (n(1), n(2)), (n(2), n(3)), (n(3), n(0))])
    }

    #[test]
    fn bfs_distances_on_ring() {
        let tree = BfsTree::compute(&ring4(), n(0));
        assert_eq!(tree.distance(n(0)), Some(0));
        assert_eq!(tree.distance(n(1)), Some(1));
        assert_eq!(tree.distance(n(3)), Some(1));
        assert_eq!(tree.distance(n(2)), Some(2));
        assert_eq!(tree.reachable().count(), 4);
        assert!(tree.reaches(n(2)));
    }

    #[test]
    fn first_shortest_path_uses_lowest_index_neighbors() {
        // Two shortest paths 0->3: 0-1-3 and 0-2-3. The "first" one goes through 1.
        let g = Graph::from_links([(n(0), n(1)), (n(0), n(2)), (n(1), n(3)), (n(2), n(3))]);
        let tree = BfsTree::compute(&g, n(0));
        assert_eq!(tree.parent(n(3)), Some(n(1)));
        assert_eq!(tree.first_hop(n(3)), Some(n(1)));
        assert_eq!(tree.first_hop(n(0)), None);
    }

    #[test]
    fn unreachable_nodes_have_no_path() {
        let mut g = ring4();
        g.add_node(n(9));
        let tree = BfsTree::compute(&g, n(0));
        assert_eq!(tree.distance(n(9)), None);
        assert!(tree.parent(n(9)).is_none());
        assert!(tree.first_hop(n(9)).is_none());
        assert!(!is_connected(&g));
        assert_eq!(reachable_set(&g, n(0)).len(), 4);
        // A missing source reaches only itself, like BfsTree::compute.
        assert_eq!(reachable_set(&g, n(77)), vec![n(77)]);
    }

    #[test]
    fn bfs_from_missing_source_contains_only_source() {
        let g = ring4();
        let tree = BfsTree::compute(&g, n(42));
        assert_eq!(tree.reachable().count(), 1);
        assert_eq!(tree.distance(n(42)), Some(0));
        assert_eq!(tree.distance(n(0)), None);
    }

    #[test]
    fn diameter_of_path_graph() {
        let g = Graph::from_links([(n(0), n(1)), (n(1), n(2)), (n(2), n(3)), (n(3), n(4))]);
        assert_eq!(diameter(&g), 4);
        let (a, b, d) = farthest_pair(&g).unwrap();
        assert_eq!(d, 4);
        assert_ne!(a, b);
    }

    #[test]
    fn diameter_of_ring_and_empty() {
        assert_eq!(diameter(&ring4()), 2);
        assert_eq!(diameter(&Graph::new()), 0);
        assert!(is_connected(&Graph::new()));
        assert!(farthest_pair(&Graph::new()).is_none());
    }

    #[test]
    fn distance_helper_matches_tree() {
        let g = ring4();
        assert_eq!(distance(&g, n(0), n(2)), Some(2));
        assert_eq!(distance(&g, n(0), n(99)), None);
    }

    #[test]
    fn reachable_iterates_in_ascending_order() {
        let g = Graph::from_links([(n(5), n(2)), (n(2), n(9))]);
        let tree = BfsTree::compute(&g, n(5));
        let order: Vec<NodeId> = tree.reachable().map(|(node, _)| node).collect();
        assert_eq!(order, vec![n(2), n(5), n(9)]);
        assert_eq!(tree.parent(n(9)), Some(n(2)));
        assert_eq!(tree.parent(n(5)), None);
    }
}
