//! Node identifiers shared by every crate of the reproduction.
//!
//! The paper partitions the node set `P` into controllers `PC = {p_1, ..., p_nC}` and
//! switches `PS = {p_{nC+1}, ..., p_{nC+nS}}`. We mirror that with a single dense
//! `u32` identifier space where the node kind is determined by comparing against the
//! number of controllers, which every component knows as a configuration constant.

use std::fmt;

/// Identifier of a node (controller or switch) in the network.
///
/// `NodeId` is a thin newtype over `u32` so it can be freely copied, ordered,
/// hashed and embedded in compact packet-forwarding rules.
///
/// # Example
///
/// ```
/// use sdn_topology::NodeId;
/// let a = NodeId::new(3);
/// assert_eq!(a.index(), 3);
/// assert!(a < NodeId::new(4));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of the node.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the dense index as a `usize`, convenient for vector indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns the kind of this node given the number of controllers in the system.
    ///
    /// Controllers occupy identifiers `0..n_controllers`; everything else is a switch.
    pub fn kind(self, n_controllers: usize) -> NodeKind {
        if (self.0 as usize) < n_controllers {
            NodeKind::Controller
        } else {
            NodeKind::Switch
        }
    }

    /// Returns `true` when this node is a controller under the given split.
    pub fn is_controller(self, n_controllers: usize) -> bool {
        self.kind(n_controllers) == NodeKind::Controller
    }

    /// Returns `true` when this node is a switch under the given split.
    pub fn is_switch(self, n_controllers: usize) -> bool {
        self.kind(n_controllers) == NodeKind::Switch
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

impl From<NodeId> for u32 {
    fn from(value: NodeId) -> Self {
        value.0
    }
}

/// The role a node plays in the SDN: a remote controller or a packet-forwarding switch.
///
/// # Example
///
/// ```
/// use sdn_topology::{NodeId, NodeKind};
/// // With 2 controllers, node 1 is a controller and node 2 is a switch.
/// assert_eq!(NodeId::new(1).kind(2), NodeKind::Controller);
/// assert_eq!(NodeId::new(2).kind(2), NodeKind::Switch);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeKind {
    /// A member of `PC`: runs the Renaissance control algorithm.
    Controller,
    /// A member of `PS`: forwards packets according to installed rules.
    Switch,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Controller => write!(f, "controller"),
            NodeKind::Switch => write!(f, "switch"),
        }
    }
}

/// An undirected link between two nodes, stored in canonical (smaller, larger) order.
///
/// # Example
///
/// ```
/// use sdn_topology::ids::Link;
/// use sdn_topology::NodeId;
/// let l1 = Link::new(NodeId::new(4), NodeId::new(2));
/// let l2 = Link::new(NodeId::new(2), NodeId::new(4));
/// assert_eq!(l1, l2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Link {
    /// The lower-indexed endpoint.
    pub a: NodeId,
    /// The higher-indexed endpoint.
    pub b: NodeId,
}

impl Link {
    /// Creates a canonical link between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; self-loops are not part of the model.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "self-loop links are not allowed");
        if a < b {
            Link { a, b }
        } else {
            Link { a: b, b: a }
        }
    }

    /// Returns the endpoint of the link that is not `from`, or `None` if `from` is not
    /// an endpoint.
    pub fn other(&self, from: NodeId) -> Option<NodeId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.as_usize(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(NodeId::from(42u32), id);
    }

    #[test]
    fn node_kind_split() {
        assert_eq!(NodeId::new(0).kind(1), NodeKind::Controller);
        assert_eq!(NodeId::new(0).kind(0), NodeKind::Switch);
        assert_eq!(NodeId::new(7).kind(3), NodeKind::Switch);
        assert!(NodeId::new(2).is_controller(3));
        assert!(NodeId::new(3).is_switch(3));
    }

    #[test]
    fn link_canonical_order() {
        let l = Link::new(NodeId::new(9), NodeId::new(1));
        assert_eq!(l.a, NodeId::new(1));
        assert_eq!(l.b, NodeId::new(9));
        assert_eq!(l.other(NodeId::new(1)), Some(NodeId::new(9)));
        assert_eq!(l.other(NodeId::new(9)), Some(NodeId::new(1)));
        assert_eq!(l.other(NodeId::new(5)), None);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn link_rejects_self_loop() {
        let _ = Link::new(NodeId::new(1), NodeId::new(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(5).to_string(), "n5");
        assert_eq!(NodeKind::Controller.to_string(), "controller");
        assert_eq!(NodeKind::Switch.to_string(), "switch");
        assert_eq!(
            Link::new(NodeId::new(1), NodeId::new(2)).to_string(),
            "n1-n2"
        );
    }
}
