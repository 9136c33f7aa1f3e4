//! `topology.flat`: the CSR snapshot of the operational graph and one BFS over it —
//! the primitives under legitimacy checking and planning.

use super::secs_per_call;
use sdn_topology::{BfsScratch, Graph};

/// Microseconds per `Graph::snapshot`.
pub fn snapshot_us(graph: &Graph) -> f64 {
    secs_per_call(|| graph.snapshot()) * 1e6
}

/// Microseconds per full BFS from the first node, on a reused scratch.
pub fn bfs_us(graph: &Graph) -> f64 {
    let flat = graph.snapshot();
    if flat.is_empty() {
        return 0.0;
    }
    let mut scratch = BfsScratch::new();
    secs_per_call(|| flat.bfs(0, &mut scratch)) * 1e6
}
