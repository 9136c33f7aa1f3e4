//! `core.reply_db`: building the fusion view (`ReplyDb::fusion_graph`, reached
//! through `Controller::discovered_graph`) from the replies held at the end of the run.

use super::secs_per_call;
use renaissance::SdnNetwork;

/// Microseconds per fusion graph of the first live controller; 0 with none live.
pub fn fusion_graph_us(net: &SdnNetwork) -> f64 {
    let Some(id) = net.live_controller_ids().first().copied() else {
        return 0.0;
    };
    let Some(controller) = net.controller(id) else {
        return 0.0;
    };
    let neighbors = net.sim().observed(id);
    secs_per_call(|| controller.discovered_graph(neighbors)) * 1e6
}
