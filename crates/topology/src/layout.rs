//! Physical layout coordinates for structured datacenter topologies.
//!
//! The fault model wants *correlated* failure domains — "degrade every uplink of
//! one rack" — which requires mapping node ids back to their position in the
//! fabric. [`FatTreeLayout`] recovers the deterministic index layout used by
//! [`crate::builders::fat_tree`] from a built [`NamedTopology`], so selectors can
//! enumerate a rack's links without re-deriving the builder's arithmetic.

use crate::builders::NamedTopology;
use crate::NodeId;

/// The coordinate system of a `fat_tree(k, n_controllers)` topology.
///
/// Index layout (switch indices are offset by `n_controllers`):
/// `(k/2)^2` core switches first, then `k` pods of `k/2` aggregation followed by
/// `k/2` edge switches. A *rack* is one edge switch together with its in-pod
/// uplinks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FatTreeLayout {
    /// The fat-tree arity `k` (even, >= 4).
    pub k: usize,
    /// Number of controller nodes occupying ids `0..n_controllers`.
    pub n_controllers: usize,
}

impl FatTreeLayout {
    /// Recovers the layout from a topology built by [`crate::builders::fat_tree`],
    /// identified by its `"FatTree-{k}"` name. Returns `None` for any other
    /// topology or when the switch count does not match the canonical layout.
    pub fn detect(topology: &NamedTopology) -> Option<Self> {
        let k: usize = topology.name.strip_prefix("FatTree-")?.parse().ok()?;
        if k < 4 || k % 2 != 0 {
            return None;
        }
        let layout = FatTreeLayout {
            k,
            n_controllers: topology.controllers.len(),
        };
        (topology.switches.len() == layout.switch_count()).then_some(layout)
    }

    /// Total switch count: `(k/2)^2` core plus `k` pods of `k` switches.
    pub fn switch_count(&self) -> usize {
        let half = self.k / 2;
        half * half + self.k * self.k
    }

    /// Number of pods (= `k`).
    pub fn pod_count(&self) -> usize {
        self.k
    }

    /// Number of edge switches (racks) per pod (= `k/2`).
    pub fn racks_per_pod(&self) -> usize {
        self.k / 2
    }

    fn sw(&self, i: usize) -> NodeId {
        NodeId::new((self.n_controllers + i) as u32)
    }

    fn pod_base(&self, pod: usize) -> usize {
        let half = self.k / 2;
        half * half + pod * self.k
    }

    /// The `j`-th aggregation switch of `pod`.
    pub fn agg(&self, pod: usize, j: usize) -> NodeId {
        self.sw(self.pod_base(pod) + j)
    }

    /// The `j`-th edge switch of `pod`.
    pub fn edge(&self, pod: usize, j: usize) -> NodeId {
        self.sw(self.pod_base(pod) + self.k / 2 + j)
    }

    /// The in-pod uplinks of one rack: `edge(pod, rack)` to every aggregation
    /// switch of the pod. Degrading these grays out everything behind the rack.
    pub fn rack_links(&self, pod: usize, rack: usize) -> Vec<(NodeId, NodeId)> {
        let e = self.edge(pod, rack);
        (0..self.k / 2).map(|a| (self.agg(pod, a), e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn detect_recovers_fat_tree_coordinates() {
        let net = builders::fat_tree(4, 3);
        let layout = FatTreeLayout::detect(&net).expect("fat tree layout");
        assert_eq!(layout.k, 4);
        assert_eq!(layout.n_controllers, 3);
        assert_eq!(layout.switch_count(), net.switches.len());
        assert_eq!(layout.pod_count(), 4);
        assert_eq!(layout.racks_per_pod(), 2);
        // Every rack uplink must exist in the graph.
        for pod in 0..layout.pod_count() {
            for rack in 0..layout.racks_per_pod() {
                let links = layout.rack_links(pod, rack);
                assert_eq!(links.len(), 2);
                for (a, b) in links {
                    assert!(net.graph.has_link(a, b), "missing rack link {a}-{b}");
                }
            }
        }
    }

    #[test]
    fn detect_rejects_other_topologies() {
        assert!(FatTreeLayout::detect(&builders::grid(3, 4, 2)).is_none());
        assert!(FatTreeLayout::detect(&builders::jellyfish(20, 3, 1, 2)).is_none());
    }
}
