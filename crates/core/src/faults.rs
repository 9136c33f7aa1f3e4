//! Transient-fault injection: arbitrary state corruption, the "rare" faults of the
//! paper's fault model (Section 3.4.2) that the Mininet prototype could not exercise but
//! a simulation can.
//!
//! The injector scribbles over switch rule tables, manager sets, controller reply
//! databases, and round tags. Theorem 2 of the paper promises recovery from *any* such
//! state within a bounded number of frames; the integration tests and
//! `renaissance-fig ablation` use this module to check that empirically.

use crate::harness::SdnNetwork;
use sdn_rng::Rng;
use sdn_switch::{QueryReply, Rule, RuleSummary};
use sdn_tags::Tag;
use sdn_topology::NodeId;

/// How aggressively to corrupt the network state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorruptionPlan {
    /// Number of garbage rules injected per switch.
    pub garbage_rules_per_switch: usize,
    /// Number of bogus managers injected per switch.
    pub bogus_managers_per_switch: usize,
    /// Whether to wipe a random subset of switches completely.
    pub clear_some_switches: bool,
    /// Number of bogus replies injected into each controller's replyDB.
    pub bogus_replies_per_controller: usize,
    /// Whether to corrupt every controller's round tags.
    pub corrupt_controller_tags: bool,
}

impl Default for CorruptionPlan {
    fn default() -> Self {
        CorruptionPlan {
            garbage_rules_per_switch: 8,
            bogus_managers_per_switch: 2,
            clear_some_switches: true,
            bogus_replies_per_controller: 4,
            corrupt_controller_tags: true,
        }
    }
}

impl CorruptionPlan {
    /// A light corruption: a few garbage rules only.
    pub fn light() -> Self {
        CorruptionPlan {
            garbage_rules_per_switch: 2,
            bogus_managers_per_switch: 0,
            clear_some_switches: false,
            bogus_replies_per_controller: 0,
            corrupt_controller_tags: false,
        }
    }

    /// A heavy corruption touching every kind of state the model allows.
    pub fn heavy() -> Self {
        CorruptionPlan {
            garbage_rules_per_switch: 32,
            bogus_managers_per_switch: 8,
            clear_some_switches: true,
            bogus_replies_per_controller: 16,
            corrupt_controller_tags: true,
        }
    }
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

    /// Applies `plan` to the whole network: every switch and every controller is
    /// corrupted according to the plan. Returns the number of state mutations performed.
    pub fn corrupt(&mut self, net: &mut SdnNetwork, plan: CorruptionPlan) -> usize {
        let mut mutations = 0;
        let node_count = net.topology().node_count() as u32;
        let switches = net.switch_ids();
        let controllers = net.controller_ids();

        for &s in &switches {
            if plan.clear_some_switches && self.rng.gen_bool(0.25) {
                if let Some(switch) = net.switch_mut(s) {
                    switch.corrupt_clear();
                    mutations += 1;
                }
            }
            for _ in 0..plan.garbage_rules_per_switch {
                let rule = self.random_rule(node_count);
                if let Some(switch) = net.switch_mut(s) {
                    switch.corrupt_install_rule(rule);
                    mutations += 1;
                }
            }
            for _ in 0..plan.bogus_managers_per_switch {
                let bogus = NodeId::new(self.rng.gen_range(0..node_count + 16));
                if let Some(switch) = net.switch_mut(s) {
                    switch.corrupt_add_manager(bogus);
                    mutations += 1;
                }
            }
        }

        for &c in &controllers {
            if plan.corrupt_controller_tags {
                let curr = Tag::new(
                    self.rng.gen_range(0..node_count),
                    self.rng.gen_range(1..1_000u64),
                );
                let prev = Tag::new(
                    self.rng.gen_range(0..node_count),
                    self.rng.gen_range(1..1_000u64),
                );
                if let Some(controller) = net.controller_mut(c) {
                    controller.corrupt_tags(curr, prev);
                    mutations += 1;
                }
            }
            for _ in 0..plan.bogus_replies_per_controller {
                let reply = self.random_reply(node_count);
                if let Some(controller) = net.controller_mut(c) {
                    controller.corrupt_inject_reply(reply);
                    mutations += 1;
                }
            }
        }
        mutations
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

    fn random_rule(&mut self, node_count: u32) -> Rule {
        Rule {
            cid: NodeId::new(self.rng.gen_range(0..node_count + 8)),
            src: if self.rng.gen_bool(0.5) {
                None
            } else {
                Some(NodeId::new(self.rng.gen_range(0..node_count)))
            },
            dst: NodeId::new(self.rng.gen_range(0..node_count)),
            prt: self.rng.gen_range(0..=u8::MAX),
            fwd: NodeId::new(self.rng.gen_range(0..node_count)),
            tag: Tag::new(
                self.rng.gen_range(0..node_count),
                self.rng.gen_range(1..500u64),
            ),
        }
    }

    fn random_reply(&mut self, node_count: u32) -> QueryReply {
        let responder = NodeId::new(self.rng.gen_range(0..node_count + 8));
        let neighbors = (0..self.rng.gen_range(0..4u32))
            .map(|_| NodeId::new(self.rng.gen_range(0..node_count)))
            .filter(|&n| n != responder)
            .collect();
        QueryReply {
            responder,
            neighbors,
            managers: vec![],
            rules: RuleSummary::default(),
            echo_tag: Tag::new(
                self.rng.gen_range(0..node_count),
                self.rng.gen_range(1..500u64),
            ),
        }
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
        let mut injector = FaultInjector::new(11);
        let mutations = injector.corrupt(&mut sdn, CorruptionPlan::heavy());
        assert!(mutations > 0);
        assert!(!sdn.is_legitimate());
    }

    #[test]
    fn system_self_stabilizes_after_heavy_corruption() {
        let mut sdn = bootstrapped();
        let mut injector = FaultInjector::new(23);
        injector.corrupt(&mut sdn, CorruptionPlan::heavy());
        let elapsed = sdn
            .run_until_legitimate(SimDuration::from_millis(200), SimDuration::from_secs(300))
            .expect("Theorem 2: recovery from arbitrary corruption");
        assert!(elapsed > SimDuration::ZERO);
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

    #[test]
    fn corruption_plans_differ_in_aggressiveness() {
        assert!(
            CorruptionPlan::heavy().garbage_rules_per_switch
                > CorruptionPlan::light().garbage_rules_per_switch
        );
        assert!(!CorruptionPlan::light().corrupt_controller_tags);
        assert!(CorruptionPlan::default().clear_some_switches);
    }
}
