//! Graph substrate for the Renaissance self-stabilizing SDN control plane.
//!
//! This crate provides everything Renaissance's controllers need to reason about the
//! network *as a graph*:
//!
//! * [`NodeId`] / [`NodeKind`] — the shared identifier space of controllers (`PC`) and
//!   switches (`PS`) used throughout the workspace,
//! * [`Graph`] — an undirected multigraph-free adjacency structure modelling the
//!   connected communication topology `Gc` and the operational topology `Go`,
//! * topology [`builders`] — the networks from the paper's Table 8 (B4, Clos, Telstra,
//!   AT&T, EBONE) plus generic generators used by tests and benches,
//! * [`paths`] — BFS "first shortest path" computation (lowest-index tie-break, exactly
//!   as the paper defines it in Section 5.4), distances, eccentricity, and diameter,
//! * [`connectivity`] — edge connectivity `lambda(Gc)` via unit-capacity max-flow,
//!   needed to validate the `kappa + 1`-edge-connectivity assumption,
//! * [`flows`] — computation of kappa-fault-resilient flows: the per-switch,
//!   per-destination priority-ordered next-hop sets that `myRules()` installs
//!   (Section 2.2.2 and 3.3 of the paper).
//!
//! # Example
//!
//! ```
//! use sdn_topology::{builders, flows::FlowPlanner, paths};
//!
//! // Google's B4 WAN with 3 controllers attached (paper, Table 8 / Figure 5).
//! let net = builders::b4(3);
//! assert_eq!(net.graph.node_count(), 12 + 3);
//! let d = paths::diameter(&net.switch_graph);
//! assert_eq!(d, 5);
//!
//! // Compute 1-fault-resilient next hops between every pair of nodes.
//! let planner = FlowPlanner::new(1);
//! let plan = planner.plan(&net.graph);
//! let hops: Vec<_> = plan.next_hops(net.switches[0], net.controllers[0]).collect();
//! assert!(!hops.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod connectivity;
pub mod flat;
pub mod flows;
pub mod graph;
pub mod ids;
pub mod layout;
pub mod paths;

pub use builders::NamedTopology;
pub use flat::{BfsScratch, FlatGraph};
pub use flows::{FlowPlan, FlowPlanner};
pub use graph::Graph;
pub use ids::{NodeId, NodeKind};
pub use layout::FatTreeLayout;
