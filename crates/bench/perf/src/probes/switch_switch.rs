//! `switch.switch`: applying one command batch a controller's iteration produced
//! (on a clone of the switch it is addressed to), and one data-plane forwarding
//! decision.

use super::{secs_per_op, secs_per_prepared_call};
use renaissance::SdnNetwork;
use sdn_switch::CommandBatch;
use sdn_topology::NodeId;
use std::hint::black_box;

/// Microseconds per `AbstractSwitch::apply_batch`, cycling over the batches the first
/// live controller would send next; 0 when it would send none.
pub fn apply_batch_us(net: &SdnNetwork) -> f64 {
    let Some(id) = net.live_controller_ids().first().copied() else {
        return 0.0;
    };
    let Some(mut controller) = net.controller(id).cloned() else {
        return 0.0;
    };
    let batches: Vec<(NodeId, CommandBatch)> = controller
        .iterate(net.sim().observed(id))
        .into_iter()
        .filter(|(dst, _)| net.switch(*dst).is_some())
        .collect();
    if batches.is_empty() {
        return 0.0;
    }
    let mut turn = 0usize;
    secs_per_prepared_call(
        || {
            let (dst, batch) = &batches[turn % batches.len()];
            turn += 1;
            (net.switch(*dst).cloned(), batch, net.sim().observed(*dst))
        },
        |(switch, batch, neighbors)| switch.map(|mut sw| sw.apply_batch(batch, neighbors)),
    ) * 1e6
}

/// Nanoseconds per `AbstractSwitch::next_hop` on the first live switch, from the
/// first controller towards every node in turn, all out-links up.
pub fn next_hop_ns(net: &SdnNetwork) -> f64 {
    let Some(id) = net.live_switch_ids().first().copied() else {
        return 0.0;
    };
    let Some(mut switch) = net.switch(id).cloned() else {
        return 0.0;
    };
    let Some(src) = net.controller_ids().first().copied() else {
        return 0.0;
    };
    let neighbors = net.sim().observed(id);
    let targets: Vec<NodeId> = net.topology().graph.nodes().filter(|&n| n != id).collect();
    secs_per_op(targets.len(), || {
        for &dst in &targets {
            black_box(switch.next_hop(src, dst, &[], neighbors, |_| true));
        }
    }) * 1e9
}
