//! `traffic.engine`: rebuilding the engine's route tables (`FlowEngine::retarget`)
//! after a topology change, for the workload's own flow population on the
//! operational graph the run ended with.

use super::secs_per_call;
use crate::workloads::Flows;
use renaissance::SdnNetwork;
use sdn_traffic::engine::{generate, EngineConfig, FlowEngine, FlowSetConfig};

/// Milliseconds per retarget.
pub fn retarget_ms(net: &SdnNetwork, flows: Flows) -> f64 {
    let batch = generate(
        &net.topology().switches,
        &FlowSetConfig::stress(flows.pairs),
        net.harness_config().seed,
    );
    let mut engine = FlowEngine::new(batch, EngineConfig::default());
    let graph = net.sim().operational_graph();
    let n_controllers = net.controller_config().n_controllers;
    secs_per_call(|| engine.retarget(graph, |node| node.is_switch(n_controllers))) * 1e3
}
