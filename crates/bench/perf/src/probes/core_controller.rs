//! `core.controller`: one do-forever iteration (`Controller::iterate`) at the state
//! the run ended in. Each repetition runs on a fresh clone, cloned outside the timed
//! region; at a converged state the routing plan is reused, so planning cost is
//! not in this number (see `topology_flows`).

use super::secs_per_prepared_call;
use renaissance::SdnNetwork;
use sdn_topology::NodeId;

/// Milliseconds per iteration, cycling over the live controllers; 0 with none live.
pub fn iterate_ms(net: &SdnNetwork) -> f64 {
    let live: Vec<NodeId> = net.live_controller_ids();
    if live.is_empty() {
        return 0.0;
    }
    let mut turn = 0usize;
    secs_per_prepared_call(
        || {
            let id = live[turn % live.len()];
            turn += 1;
            (net.controller(id).cloned(), net.sim().observed(id))
        },
        |(controller, neighbors)| controller.map(|mut c| c.iterate(neighbors).len()),
    ) * 1e3
}
