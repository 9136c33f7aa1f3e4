//! Transient-fault injection: arbitrary state corruption, the "rare" faults of the
//! paper's fault model (Section 3.4.2) that the Mininet prototype could not exercise but
//! a simulation can.
//!
//! Every fault reaches the network as a list of [`Action`]s, concrete operations with
//! every victim named, which [`SdnNetwork::apply`] executes one at a time. A state
//! corruption is one [`Action::Scramble`] per node ([`FaultInjector::draw`]): each
//! state type's `scramble`, which opens with an exhaustive destructure, rewrites its
//! fields with values from their whole domains. Theorem 2 of the paper promises
//! recovery from *any* such state within a bounded number of frames; the integration
//! tests and `renaissance-fig ablation` use this module to check that empirically.

use crate::harness::SdnNetwork;
use sdn_netsim::LinkConfig;
use sdn_rng::Rng;
use sdn_topology::NodeId;

/// One concrete change a fault makes to the network, every victim named — what
/// [`SdnNetwork::apply`] executes. The first ten are the benign failures of Section
/// 3.4.2 and their repairs; the last is the transient corruption of one node.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Fail-stops a controller.
    FailController(NodeId),
    /// Fail-stops a switch.
    FailSwitch(NodeId),
    /// Revives a controller with fresh (empty) state, as the paper assumes for node
    /// additions (Lemma 8: new nodes start with empty memory).
    ReviveController(NodeId),
    /// Revives a switch with empty configuration and the Lemma 1 capacity of the
    /// deployment, recomputed rather than copied from whatever node state survived.
    ReviveSwitch(NodeId),
    /// Permanently removes a link from `Gc`.
    RemoveLink(NodeId, NodeId),
    /// Adds a link to `Gc`.
    AddLink(NodeId, NodeId),
    /// Fails a link temporarily; it stays part of `Gc`.
    FailLink(NodeId, NodeId),
    /// Restores a temporarily failed link.
    RestoreLink(NodeId, NodeId),
    /// Overrides a link's quality (gray failure: the link stays part of `Gc`), in
    /// the `a -> b` direction only when `directed`.
    DegradeLink {
        /// One endpoint; the degraded direction starts here when `directed`.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The link behaviour from now on.
        config: LinkConfig,
        /// Whether only `a -> b` degrades.
        directed: bool,
    },
    /// Removes every quality override from a link, restoring default behaviour.
    ClearLinkQuality(NodeId, NodeId),
    /// Rewrites the state of a node (a switch or a controller) with values drawn from
    /// an [`Rng`] of this seed.
    Scramble(NodeId, u64),
}

/// Deterministic transient-fault injector.
#[derive(Debug)]
pub struct FaultInjector {
    rng: Rng,
}

impl FaultInjector {
    /// Creates an injector with a fixed seed (experiments stay reproducible).
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// A corruption of the whole network: one [`Action::Scramble`] per switch, then
    /// one per controller, each with a seed of its own.
    pub fn draw(&mut self, net: &SdnNetwork) -> Vec<Action> {
        let nodes = net.switch_ids().into_iter().chain(net.controller_ids());
        nodes
            .map(|id| Action::Scramble(id, self.rng.next_u64()))
            .collect()
    }

    /// Picks `count` distinct random links of the current topology whose removal keeps
    /// the network *in-band connected* (mirrors the paper's random link-failure
    /// experiments, which always leave the network connected so recovery is possible).
    ///
    /// Because controllers never forward packets, "connected" here means: the
    /// switch-only subgraph stays connected and every controller keeps at least one
    /// link to it.
    pub fn random_safe_links(&mut self, net: &SdnNetwork, count: usize) -> Vec<(NodeId, NodeId)> {
        let controllers = net.controller_ids();
        let safe = |graph: &sdn_topology::Graph| {
            let switch_only = graph.without_nodes(controllers.iter());
            if !sdn_topology::paths::is_connected(&switch_only) {
                return false;
            }
            controllers
                .iter()
                .all(|&c| !graph.contains_node(c) || graph.degree(c) >= 1)
        };
        let mut chosen = Vec::new();
        let mut graph = net.sim().topology().clone();
        let mut attempts = 0;
        while chosen.len() < count && attempts < count * 50 + 100 {
            attempts += 1;
            let links: Vec<_> = graph.links().collect();
            if links.is_empty() {
                break;
            }
            let link = links[self.rng.gen_range(0..links.len())];
            let mut candidate = graph.clone();
            candidate.remove_link(link.a, link.b);
            if safe(&candidate) {
                graph = candidate;
                chosen.push((link.a, link.b));
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ControllerConfig, HarnessConfig};
    use sdn_netsim::SimDuration;
    use sdn_topology::builders;

    fn bootstrapped() -> SdnNetwork {
        let topology = builders::ring(5, 2);
        let mut sdn = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(2, 5),
            HarnessConfig::default().with_task_delay(SimDuration::from_millis(100)),
        );
        sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        sdn
    }

    #[test]
    fn corruption_mutates_state_and_breaks_legitimacy() {
        let mut sdn = bootstrapped();
        let writes = FaultInjector::new(11).draw(&sdn);
        assert_eq!(writes.len(), 7, "one scramble per node");
        let mutations = writes.iter().filter(|write| sdn.apply(write)).count();
        assert_eq!(mutations, writes.len(), "every write lands on a node");
        assert!(!sdn.is_legitimate());
    }

    /// Theorem 2 on three topologies: from a scramble of every node, each network
    /// reaches legitimacy again within the timeout.
    #[test]
    fn system_self_stabilizes_after_heavy_corruption() {
        let networks = [
            builders::ring(5, 2),
            builders::clos(3),
            builders::grid(3, 4, 3),
        ];
        for topology in networks {
            for seed in [23, 24] {
                let name = format!("{} seed {seed}", topology.name);
                let config = ControllerConfig::for_network(
                    topology.controller_count(),
                    topology.switch_count(),
                );
                let harness = HarnessConfig::default()
                    .with_task_delay(SimDuration::from_millis(100))
                    .with_seed(seed);
                let mut sdn = SdnNetwork::new(topology.clone(), config, harness);
                let (check, timeout) = (SimDuration::from_millis(200), SimDuration::from_secs(300));
                sdn.run_until_legitimate(check, timeout)
                    .unwrap_or_else(|| panic!("{name}: bootstrap"));
                for write in FaultInjector::new(seed).draw(&sdn) {
                    assert!(sdn.apply(&write), "{name}: {write:?} landed nowhere");
                }
                assert!(!sdn.is_legitimate(), "{name}: the scramble changed nothing");
                sdn.run_until_legitimate(check, timeout)
                    .unwrap_or_else(|| panic!("{name}: Theorem 2, recovery from any state"));
            }
        }
    }

    #[test]
    fn random_choices_are_valid_and_reproducible() {
        let sdn = bootstrapped();
        let mut a = FaultInjector::new(5);
        let mut b = FaultInjector::new(5);
        let links_a = a.random_safe_links(&sdn, 2);
        let links_b = b.random_safe_links(&sdn, 2);
        assert_eq!(links_a, links_b);
        assert_eq!(links_a.len(), 2);
        // Removing the chosen links must keep the graph connected.
        let mut graph = sdn.sim().topology().clone();
        for (x, y) in &links_a {
            graph.remove_link(*x, *y);
        }
        assert!(sdn_topology::paths::is_connected(&graph));
    }
}
