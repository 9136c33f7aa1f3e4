//! Compact indexed (CSR) snapshot of a [`Graph`] and allocation-free traversals.
//!
//! [`Graph`] stays the mutable builder — deterministic sorted adjacency, cheap
//! edits — but its `BTreeMap<NodeId, BTreeSet<NodeId>>` layout makes every BFS pay
//! pointer-chasing and per-visit map lookups. The hot paths (legitimacy checking,
//! connectivity validation, diameter sweeps) instead take a [`FlatGraph`] snapshot:
//! a dense `NodeId -> u32` index map plus offset/neighbor arrays, giving O(1)
//! neighbor slices, and run their searches through a reusable [`BfsScratch`]
//! workspace so steady-state traversals allocate nothing. The index map is bounded
//! by the node count, not by the largest identifier: a controller's view is built
//! from what replies claim, and a claim may name any `u32`.
//!
//! Neighbor rows preserve the ascending identifier order of [`Graph::neighbors`],
//! so a BFS over a `FlatGraph` discovers exactly the same "first shortest paths"
//! (paper, Section 5.4) as a BFS over the originating `Graph` — the two
//! representations are interchangeable for every deterministic result in the
//! workspace.

use crate::graph::Graph;
use crate::ids::NodeId;

/// Sentinel for "no index": absent node in the lookup table, unreached node in a
/// BFS distance array, missing parent.
pub const NO_INDEX: u32 = u32::MAX;

/// An immutable CSR (compressed sparse row) snapshot of an undirected [`Graph`].
///
/// Nodes are mapped to dense indices `0..node_count()` in ascending [`NodeId`]
/// order; each node's neighbors occupy a contiguous slice of the `neighbors`
/// array, also ascending. Self-contained and cheap to traverse: no maps, no
/// per-node allocations.
///
/// # Example
///
/// ```
/// use sdn_topology::{FlatGraph, Graph, NodeId};
/// let g = Graph::from_links([
///     (NodeId::new(0), NodeId::new(1)),
///     (NodeId::new(1), NodeId::new(2)),
/// ]);
/// let flat = g.snapshot();
/// assert_eq!(flat.node_count(), 3);
/// assert_eq!(flat.link_count(), 2);
/// let idx = flat.index_of(NodeId::new(1)).unwrap();
/// assert_eq!(flat.neighbor_indices(idx).len(), 2);
/// assert_eq!(flat.neighbors(NodeId::new(1)).count(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatGraph {
    /// All nodes in ascending identifier order; dense index = position.
    nodes: Vec<NodeId>,
    /// Raw identifier -> dense index ([`NO_INDEX`] = absent) for the identifiers below
    /// `lookup.len()`, which is at most [`LOOKUP_PER_NODE`] times the node count;
    /// larger identifiers are found by binary search over `nodes`.
    lookup: Vec<u32>,
    /// CSR row offsets into `neighbors`; length `nodes.len() + 1`.
    offsets: Vec<u32>,
    /// Concatenated neighbor rows as dense indices, ascending within each row.
    neighbors: Vec<u32>,
}

/// How many `lookup` entries a snapshot spends per node at most. Identifiers handed
/// out by the topology builders are dense, so every real snapshot is indexed in full.
const LOOKUP_PER_NODE: usize = 4;

/// The dense index of `node` among the ascending `nodes` ([`NO_INDEX`] = absent),
/// through `lookup` where it reaches and by binary search beyond.
fn dense_index(lookup: &[u32], nodes: &[NodeId], node: NodeId) -> u32 {
    match lookup.get(node.index() as usize) {
        Some(&idx) => idx,
        None => nodes
            .binary_search(&node)
            .map_or(NO_INDEX, |idx| idx as u32),
    }
}

impl FlatGraph {
    /// Builds the snapshot from a mutable [`Graph`].
    pub fn from_graph(graph: &Graph) -> Self {
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let max_raw = nodes.last().map(|n| n.index() as usize + 1).unwrap_or(0);
        let mut lookup = vec![NO_INDEX; max_raw.min(LOOKUP_PER_NODE * nodes.len())];
        for (i, node) in nodes.iter().enumerate() {
            if let Some(slot) = lookup.get_mut(node.index() as usize) {
                *slot = i as u32;
            }
        }
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut neighbors = Vec::with_capacity(2 * graph.link_count());
        offsets.push(0);
        for &node in &nodes {
            for peer in graph.neighbors(node) {
                neighbors.push(dense_index(&lookup, &nodes, peer));
            }
            offsets.push(neighbors.len() as u32);
        }
        FlatGraph {
            nodes,
            lookup,
            offsets,
            neighbors,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the snapshot has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// All nodes in ascending identifier order (dense index = slice position).
    pub fn node_ids(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The dense index of `node`, or `None` when it is not part of the snapshot.
    pub fn index_of(&self, node: NodeId) -> Option<u32> {
        let idx = dense_index(&self.lookup, &self.nodes, node);
        (idx != NO_INDEX).then_some(idx)
    }

    /// The node at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn node_at(&self, idx: u32) -> NodeId {
        self.nodes[idx as usize]
    }

    /// Returns `true` when `node` is part of the snapshot.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.index_of(node).is_some()
    }

    /// The neighbor row of dense index `idx`, as dense indices in ascending
    /// identifier order.
    pub fn neighbor_indices(&self, idx: u32) -> &[u32] {
        let start = self.offsets[idx as usize] as usize;
        let end = self.offsets[idx as usize + 1] as usize;
        &self.neighbors[start..end]
    }

    /// CSR row offsets (length `node_count() + 1`): the neighbor row of dense
    /// index `i` spans `offsets()[i]..offsets()[i+1]` of [`Self::arc_targets`].
    /// Exposed for flow algorithms that attach per-arc state.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The concatenated directed-arc array: every undirected link appears once
    /// per direction, as the dense index of the arc's head.
    pub fn arc_targets(&self) -> &[u32] {
        &self.neighbors
    }

    /// Iterates over the neighbors of `node` in ascending identifier order
    /// (empty if the node is absent).
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.index_of(node)
            .map(|idx| self.neighbor_indices(idx))
            .unwrap_or(&[])
            .iter()
            .map(|&j| self.nodes[j as usize])
    }

    /// The degree of `node` (0 if absent).
    pub fn degree(&self, node: NodeId) -> usize {
        self.index_of(node)
            .map(|idx| self.neighbor_indices(idx).len())
            .unwrap_or(0)
    }

    /// Breadth-first search from dense index `source`, filling `scratch` with
    /// distances and first-discovered parents. Returns the number of reached
    /// nodes (including the source).
    ///
    /// Neighbor rows are ascending, so the parent array encodes exactly the
    /// paper's first shortest paths.
    pub fn bfs(&self, source: u32, scratch: &mut BfsScratch) -> usize {
        self.bfs_filtered(source, scratch, |_| true)
    }

    /// Breadth-first search that only *expands* nodes satisfying `expand`
    /// (the source always expands; nodes failing the predicate are still
    /// reached and assigned distances, but their neighbors are not explored
    /// through them).
    ///
    /// This is the reachability notion of the in-band control plane: packets
    /// can reach a controller, but never relay *through* one.
    pub fn bfs_filtered<F>(&self, source: u32, scratch: &mut BfsScratch, mut expand: F) -> usize
    where
        F: FnMut(u32) -> bool,
    {
        scratch.reset(self.node_count());
        scratch.dist[source as usize] = 0;
        scratch.queue.push(source);
        let mut head = 0usize;
        let mut reached = 1usize;
        while head < scratch.queue.len() {
            let u = scratch.queue[head];
            head += 1;
            if u != source && !expand(u) {
                continue;
            }
            let du = scratch.dist[u as usize];
            for &v in self.neighbor_indices(u) {
                if scratch.dist[v as usize] == NO_INDEX {
                    scratch.dist[v as usize] = du + 1;
                    scratch.parent[v as usize] = u;
                    scratch.queue.push(v);
                    reached += 1;
                }
            }
        }
        reached
    }
}

/// Reusable BFS workspace: distance, parent, and queue arrays that are cleared —
/// not reallocated — between searches, so repeated traversals over graphs of the
/// same size are allocation-free.
///
/// # Example
///
/// ```
/// use sdn_topology::{BfsScratch, Graph, NodeId};
/// let g = Graph::from_links([(NodeId::new(0), NodeId::new(1))]);
/// let flat = g.snapshot();
/// let mut scratch = BfsScratch::new();
/// let reached = flat.bfs(0, &mut scratch);
/// assert_eq!(reached, 2);
/// assert_eq!(scratch.distance(1), Some(1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    dist: Vec<u32>,
    parent: Vec<u32>,
    queue: Vec<u32>,
}

impl BfsScratch {
    /// Creates an empty workspace; arrays grow to the graph size on first use.
    pub fn new() -> Self {
        BfsScratch::default()
    }

    /// Clears the workspace for a graph with `n` nodes.
    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, NO_INDEX);
        self.parent.clear();
        self.parent.resize(n, NO_INDEX);
        self.queue.clear();
    }

    /// The distance of dense index `idx` from the last search's source, or
    /// `None` when unreached.
    pub fn distance(&self, idx: u32) -> Option<u32> {
        match self.dist.get(idx as usize) {
            Some(&d) if d != NO_INDEX => Some(d),
            _ => None,
        }
    }

    /// The parent (dense index) of `idx` on its first shortest path, or `None`
    /// for the source and unreached nodes.
    pub fn parent_of(&self, idx: u32) -> Option<u32> {
        match self.parent.get(idx as usize) {
            Some(&p) if p != NO_INDEX => Some(p),
            _ => None,
        }
    }

    /// The largest distance assigned by the last search (0 when only the
    /// source was reached).
    pub fn max_distance(&self) -> u32 {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != NO_INDEX)
            .max()
            .unwrap_or(0)
    }

    /// Raw distance array of the last search ([`NO_INDEX`] = unreached).
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    /// Raw parent array of the last search ([`NO_INDEX`] = none).
    pub fn parents(&self) -> &[u32] {
        &self.parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn ring4() -> Graph {
        Graph::from_links([(n(0), n(1)), (n(1), n(2)), (n(2), n(3)), (n(3), n(0))])
    }

    #[test]
    fn snapshot_mirrors_graph() {
        let g = ring4();
        let flat = g.snapshot();
        assert_eq!(flat.node_count(), g.node_count());
        assert_eq!(flat.link_count(), g.link_count());
        for node in g.nodes() {
            assert!(flat.contains_node(node));
            assert_eq!(flat.degree(node), g.degree(node));
            let from_flat: Vec<NodeId> = flat.neighbors(node).collect();
            let from_graph: Vec<NodeId> = g.neighbors(node).collect();
            assert_eq!(from_flat, from_graph, "neighbor order preserved");
        }
        assert!(!flat.contains_node(n(99)));
        assert_eq!(flat.neighbors(n(99)).count(), 0);
    }

    #[test]
    fn empty_and_sparse_identifiers() {
        let flat = Graph::new().snapshot();
        assert!(flat.is_empty());
        assert_eq!(flat.node_count(), 0);
        // Sparse, non-contiguous identifiers still get dense indices.
        let g = Graph::from_links([(n(10), n(500)), (n(500), n(3))]);
        let flat = g.snapshot();
        assert_eq!(flat.node_count(), 3);
        assert_eq!(flat.node_ids(), &[n(3), n(10), n(500)]);
        assert_eq!(flat.index_of(n(3)), Some(0));
        assert_eq!(flat.index_of(n(500)), Some(2));
        assert_eq!(flat.index_of(n(4)), None);
        assert_eq!(flat.index_of(n(10)), Some(1));
        assert_eq!(flat.index_of(n(499)), None);
    }

    /// An identifier near `u32::MAX` costs a binary search, not a table of that size.
    #[test]
    fn index_map_is_bounded_by_the_node_count() {
        let far = n(u32::MAX - 1);
        let mut g = ring4();
        g.add_link(n(2), far);
        g.add_link(far, n(u32::MAX));
        let flat = g.snapshot();
        assert!(flat.lookup.len() <= LOOKUP_PER_NODE * flat.node_count());
        assert_eq!(flat.index_of(far), Some(4));
        assert_eq!(flat.index_of(n(u32::MAX)), Some(5));
        assert_eq!(flat.index_of(n(u32::MAX - 2)), None);
        assert_eq!(flat.neighbors(far).collect::<Vec<_>>(), [n(2), n(u32::MAX)]);
        let mut scratch = BfsScratch::new();
        assert_eq!(flat.bfs(0, &mut scratch), 6);
        assert_eq!(scratch.distance(5), Some(4));
        // Dense identifiers, the builders' case, are still indexed in full.
        assert_eq!(ring4().snapshot().lookup.len(), 4);
    }

    #[test]
    fn bfs_distances_and_parents() {
        let flat = ring4().snapshot();
        let mut scratch = BfsScratch::new();
        let reached = flat.bfs(0, &mut scratch);
        assert_eq!(reached, 4);
        assert_eq!(scratch.distance(0), Some(0));
        assert_eq!(scratch.distance(1), Some(1));
        assert_eq!(scratch.distance(3), Some(1));
        assert_eq!(scratch.distance(2), Some(2));
        assert_eq!(scratch.max_distance(), 2);
        // Node 2 is discovered through node 1 (lowest-identifier parent first).
        assert_eq!(scratch.parent_of(2), Some(1));
        assert_eq!(scratch.parent_of(0), None);
    }

    #[test]
    fn scratch_is_reusable_across_graphs() {
        let mut scratch = BfsScratch::new();
        let big = ring4().snapshot();
        big.bfs(0, &mut scratch);
        let small = Graph::from_links([(n(0), n(1))]).snapshot();
        let reached = small.bfs(0, &mut scratch);
        assert_eq!(reached, 2);
        assert_eq!(scratch.distances().len(), 2, "scratch resized down");
    }

    #[test]
    fn filtered_bfs_reaches_but_does_not_expand() {
        // 0 - 1 - 2: forbidding expansion through 1 still reaches 1, not 2.
        let g = Graph::from_links([(n(0), n(1)), (n(1), n(2))]);
        let flat = g.snapshot();
        let mut scratch = BfsScratch::new();
        let reached = flat.bfs_filtered(0, &mut scratch, |idx| idx != 1);
        assert_eq!(reached, 2);
        assert!(scratch.distance(1).is_some());
        assert!(scratch.distance(2).is_none());
        // The source expands even when the predicate rejects it.
        let reached = flat.bfs_filtered(0, &mut scratch, |_| false);
        assert_eq!(reached, 2);
    }

    #[test]
    fn disconnected_components_stay_unreached() {
        let mut g = ring4();
        g.add_link(n(8), n(9));
        let flat = g.snapshot();
        let mut scratch = BfsScratch::new();
        let reached = flat.bfs(flat.index_of(n(0)).unwrap(), &mut scratch);
        assert_eq!(reached, 4);
        assert!(scratch.distance(flat.index_of(n(8)).unwrap()).is_none());
    }
}
