//! `topology.flows`: one restricted all-pairs plan (`FlowPlanner::plan_restricted`)
//! over a controller's discovered graph, configured as `Controller::iterate`
//! configures it — the cost paid whenever a controller's view changes.

use super::secs_per_call;
use renaissance::SdnNetwork;
use sdn_topology::{FlowPlanner, NodeId};
use std::collections::BTreeSet;

/// Milliseconds per plan for the first live controller; 0 with none live.
pub fn plan_ms(net: &SdnNetwork) -> f64 {
    let Some(id) = net.live_controller_ids().first().copied() else {
        return 0.0;
    };
    let Some(controller) = net.controller(id) else {
        return 0.0;
    };
    let config = controller.config();
    let graph = controller.discovered_graph(net.sim().observed(id));
    let non_transit: BTreeSet<NodeId> = graph
        .nodes()
        .filter(|n| n.is_controller(config.n_controllers))
        .collect();
    let mut planner = FlowPlanner::new(config.kappa);
    if let Some(limit) = config.max_priorities {
        planner = planner.with_max_candidates(limit);
    }
    secs_per_call(|| planner.plan_restricted(&graph, &non_transit)) * 1e3
}
