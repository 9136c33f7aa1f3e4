//! Edge connectivity `lambda(Gc)` and related checks.
//!
//! Renaissance's fault model assumes the connected topology `Gc` stays
//! `(kappa + 1)`-edge-connected throughout recovery (paper, Section 3.4.2). The bench
//! harness and the property tests use this module to (a) validate generated topologies
//! and (b) choose the largest `kappa` a topology can support.
//!
//! Edge connectivity is computed with unit-capacity max-flow (Edmonds–Karp) between a
//! fixed node and every other node, which is exact for undirected graphs. The flow
//! network lives directly on the [`FlatGraph`] CSR arcs: every undirected link is two
//! directed arcs of capacity 1, the reverse-arc table is computed once per graph, and
//! the residual/parent arrays are reused across the `n - 1` max-flow runs instead of
//! being reallocated as `BTreeMap`s per BFS.

use crate::flat::{FlatGraph, NO_INDEX};
use crate::graph::Graph;

/// The CSR flow network shared by every max-flow run over one graph: the snapshot,
/// the reverse-arc table, and the reusable residual-capacity / BFS workspaces.
struct FlowNetwork {
    flat: FlatGraph,
    /// For the arc at position `p` (an entry of the CSR neighbor array), the position
    /// of the opposite-direction arc.
    reverse_arc: Vec<u32>,
    /// Residual capacity per arc; refilled to 1 before each max-flow run.
    capacity: Vec<u8>,
    /// BFS workspace: the arc that discovered each node ([`NO_INDEX`] = undiscovered).
    parent_arc: Vec<u32>,
    queue: Vec<u32>,
}

impl FlowNetwork {
    fn new(graph: &Graph) -> Self {
        let flat = FlatGraph::from_graph(graph);
        let arc_count = flat.arc_targets().len();
        let mut reverse_arc = vec![NO_INDEX; arc_count];
        for u in 0..flat.node_count() as u32 {
            let start = flat.offsets()[u as usize] as usize;
            for (k, &v) in flat.neighbor_indices(u).iter().enumerate() {
                // The reverse arc is v's row entry pointing back at u; rows are
                // ascending, so a binary search finds it.
                let j = flat
                    .neighbor_indices(v)
                    .binary_search(&u)
                    // stancheck: allow(unwrap-expect) — infallible by construction: FlatGraph rows are built from an undirected Graph, so every arc u→v has its mirror v→u; a miss is a snapshot bug worth a loud stop
                    .expect("undirected link must appear in both rows");
                reverse_arc[start + k] = flat.offsets()[v as usize] + j as u32;
            }
        }
        let n = flat.node_count();
        FlowNetwork {
            flat,
            reverse_arc,
            capacity: vec![1; arc_count],
            parent_arc: vec![NO_INDEX; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Maximum flow between two dense indices, resetting the residual network first.
    fn max_flow(&mut self, source: u32, target: u32) -> usize {
        self.capacity.fill(1);
        let mut flow = 0usize;
        loop {
            // BFS over arcs with residual capacity, recording the discovering arc.
            self.parent_arc.fill(NO_INDEX);
            self.queue.clear();
            self.queue.push(source);
            let mut head = 0usize;
            let mut found = false;
            'search: while head < self.queue.len() {
                let u = self.queue[head];
                head += 1;
                let start = self.flat.offsets()[u as usize] as usize;
                for (k, &v) in self.flat.neighbor_indices(u).iter().enumerate() {
                    let p = start + k;
                    if v != source
                        && self.parent_arc[v as usize] == NO_INDEX
                        && self.capacity[p] > 0
                    {
                        self.parent_arc[v as usize] = p as u32;
                        if v == target {
                            found = true;
                            break 'search;
                        }
                        self.queue.push(v);
                    }
                }
            }
            if !found {
                break;
            }
            // Augment along the path by one unit.
            let mut v = target;
            while v != source {
                let p = self.parent_arc[v as usize] as usize;
                self.capacity[p] -= 1;
                self.capacity[self.reverse_arc[p] as usize] += 1;
                v = self.arc_tail(p);
            }
            flow += 1;
        }
        flow
    }

    /// The tail (origin) node of the arc at global position `p`: the node whose
    /// CSR row spans `p`, found by binary search over the row offsets.
    fn arc_tail(&self, p: usize) -> u32 {
        let offsets = self.flat.offsets();
        match offsets.binary_search(&(p as u32)) {
            // `p` is the first arc of one or more (possibly empty) rows: the tail is
            // the last row starting there.
            Ok(mut i) => {
                while i + 1 < offsets.len() && offsets[i + 1] as usize == p {
                    i += 1;
                }
                i as u32
            }
            Err(i) => (i - 1) as u32,
        }
    }
}

/// Computes the edge connectivity `lambda(G)`: the minimum number of link removals that
/// can disconnect the graph. Returns 0 for graphs with fewer than 2 nodes or graphs that
/// are already disconnected.
///
/// Uses the classic reduction: `lambda(G) = min over v != v0 of maxflow(v0, v)`, with
/// one shared flow network reused across every target.
pub fn edge_connectivity(graph: &Graph) -> usize {
    if graph.node_count() < 2 {
        return 0;
    }
    if !crate::paths::is_connected(graph) {
        return 0;
    }
    let mut net = FlowNetwork::new(graph);
    let mut lambda = usize::MAX;
    for v in 1..net.flat.node_count() as u32 {
        lambda = lambda.min(net.max_flow(0, v));
        if lambda == 0 {
            break;
        }
    }
    if lambda == usize::MAX {
        0
    } else {
        lambda
    }
}

/// Returns `true` when the graph can tolerate `kappa` link failures without
/// disconnecting, i.e. when it is `(kappa + 1)`-edge-connected.
pub fn supports_kappa(graph: &Graph, kappa: usize) -> bool {
    edge_connectivity(graph) > kappa
}

/// Largest `kappa` such that the graph is `(kappa + 1)`-edge-connected
/// (0 for trees and disconnected graphs).
pub fn max_supported_kappa(graph: &Graph) -> usize {
    edge_connectivity(graph).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn cycle(k: u32) -> Graph {
        Graph::from_links((0..k).map(|i| (n(i), n((i + 1) % k))))
    }

    fn complete(k: u32) -> Graph {
        let mut g = Graph::new();
        for i in 0..k {
            for j in (i + 1)..k {
                g.add_link(n(i), n(j));
            }
        }
        g
    }

    #[test]
    fn path_graph_has_connectivity_one() {
        let g = Graph::from_links([(n(0), n(1)), (n(1), n(2))]);
        assert_eq!(edge_connectivity(&g), 1);
        assert!(supports_kappa(&g, 0));
        assert!(!supports_kappa(&g, 1));
        assert_eq!(max_supported_kappa(&g), 0);
    }

    #[test]
    fn cycle_has_connectivity_two() {
        let g = cycle(6);
        assert_eq!(edge_connectivity(&g), 2);
        assert!(supports_kappa(&g, 1));
        assert!(!supports_kappa(&g, 2));
    }

    #[test]
    fn complete_graph_connectivity() {
        let g = complete(5);
        assert_eq!(edge_connectivity(&g), 4);
        assert_eq!(max_supported_kappa(&g), 3);
    }

    #[test]
    fn disconnected_graph_has_zero_connectivity() {
        let mut g = cycle(3);
        g.add_node(n(10));
        assert_eq!(edge_connectivity(&g), 0);
        assert!(!supports_kappa(&g, 0));
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(edge_connectivity(&Graph::new()), 0);
        let mut g = Graph::new();
        g.add_node(n(0));
        assert_eq!(edge_connectivity(&g), 0);
    }

    #[test]
    fn two_parallel_routes_tolerate_one_failure() {
        // 0-1-3 and 0-2-3: two edge-disjoint routes between every pair.
        let g = Graph::from_links([(n(0), n(1)), (n(1), n(3)), (n(0), n(2)), (n(2), n(3))]);
        assert_eq!(edge_connectivity(&g), 2);
        assert!(supports_kappa(&g, 1));
        // Removing one middle edge drops it to 1.
        let g2 = g.without_links(&[crate::ids::Link::new(n(1), n(3))]);
        assert_eq!(edge_connectivity(&g2), 1);
        assert!(!supports_kappa(&g2, 1));
    }

    #[test]
    fn connectivity_matches_min_degree_bound() {
        // lambda(G) <= min degree always.
        let g = complete(4);
        assert!(edge_connectivity(&g) <= g.min_degree());
        let h = cycle(5);
        assert!(edge_connectivity(&h) <= h.min_degree());
    }

    #[test]
    fn sparse_identifiers_flow_correctly() {
        // Same two parallel routes, but with holes in the identifier space.
        let g = Graph::from_links([
            (n(10), n(100)),
            (n(100), n(30)),
            (n(10), n(200)),
            (n(200), n(30)),
        ]);
        assert_eq!(edge_connectivity(&g), 2);
    }
}
