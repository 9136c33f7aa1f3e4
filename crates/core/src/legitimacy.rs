//! The legitimate-state predicate (paper, Definition 1) evaluated over a running
//! [`SdnNetwork`].
//!
//! A state is legitimate when, for every live controller `i` and node `k`:
//!
//! 1. `i`'s discovered topology equals the part of the connected topology it can reach,
//! 2. every switch is managed by exactly the live controllers (and nothing else),
//! 3. the installed rules let `i` and `k` exchange packets in-band over the operational
//!    network (both directions),
//! 4. no switch stores rules of controllers that are no longer part of the system.
//!
//! Every bootstrap-time and recovery-time measurement in the bench harness is "time
//! until [`check`] returns an empty issue list".
//!
//! Condition 3 checks that the rules carry packets, not that every switch holds each
//! live controller's exact `myRules()`; README, "Deviations from the paper", says why.
//!
//! Condition 1 compares ascending node and link lists and builds no graph. Condition
//! 3, an in-band walk per (controller, node) pair and direction, is the costly part;
//! it reads only `Go`, the controllers' plans and the switches' live rules, so
//! [`SdnNetwork`] skips it while none of those moved since it last came out clean.

use crate::harness::SdnNetwork;
use sdn_switch::forwarding;
use sdn_topology::flat::NO_INDEX;
use sdn_topology::ids::Link;
use sdn_topology::{BfsScratch, FlatGraph, Graph, NodeId};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// The outcome of a legitimacy check: an empty issue list means the state is legitimate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LegitimacyReport {
    /// Human-readable descriptions of the violated conditions: the first 64 in walk
    /// order (a completely un-converged network violates thousands).
    pub issues: Vec<String>,
}

impl LegitimacyReport {
    /// Returns `true` when no condition is violated.
    pub fn is_legitimate(&self) -> bool {
        self.issues.is_empty()
    }
}

/// How many issues a report lists before the walk stops.
pub(crate) const MAX_ISSUES: usize = 64;

/// Evaluates the legitimacy predicate over the current state of `net`.
pub fn check(net: &SdnNetwork) -> LegitimacyReport {
    first_issues(net, MAX_ISSUES, false).0
}

/// The walk behind [`check`], stopped at `limit` issues and skipping condition 3 when
/// the caller knows it holds; also says whether condition 3 was walked and found nothing.
pub(crate) fn first_issues(
    net: &SdnNetwork,
    limit: usize,
    condition3_holds: bool,
) -> (LegitimacyReport, bool) {
    let mut issues = Issues {
        found: Vec::new(),
        limit,
    };
    // A break only says the walk stopped at the limit; what it found is in `issues`.
    let clean = walk(net, &mut issues, condition3_holds) == ControlFlow::Continue(true);
    let report = LegitimacyReport {
        issues: issues.found,
    };
    (report, clean)
}

/// The issues found so far and the number at which to stop looking.
struct Issues {
    found: Vec<String>,
    limit: usize,
}

impl Issues {
    fn push(&mut self, issue: String) -> ControlFlow<()> {
        self.found.push(issue);
        if self.found.len() < self.limit {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }
}

/// Walks the four conditions of Definition 1 in order, recording each violation,
/// until `issues` is full; continues with whether condition 3 was walked and clean.
///
/// The operational graph is snapshot once into a [`FlatGraph`] and every
/// reachability question runs over that snapshot.
fn walk(net: &SdnNetwork, issues: &mut Issues, condition3_holds: bool) -> ControlFlow<(), bool> {
    let operational = net.sim().operational_graph();
    let live_controllers = net.live_controller_ids();
    let live_switches = net.live_switch_ids();

    if live_controllers.is_empty() {
        issues.push("no live controller exists".to_string())?;
        return ControlFlow::Continue(false);
    }

    // All reachability below is "through switches only": controllers never forward
    // packets, so a node that can only be reached by relaying through another controller
    // is outside the task definition (it cannot be discovered or managed in-band).
    let controller_set: BTreeSet<NodeId> = net.controller_ids().into_iter().collect();
    let flat = operational.snapshot();
    let mut scratch = BfsScratch::new();
    let is_controller: Vec<bool> = flat
        .node_ids()
        .iter()
        .map(|n| controller_set.contains(n))
        .collect();

    // One switch-transit BFS per live controller, shared by conditions 1–3
    // (the old code re-ran it per (switch, controller) pair).
    let transit: Vec<(NodeId, TransitReach)> = live_controllers
        .iter()
        .map(|&c| {
            (
                c,
                TransitReach::compute(&flat, c, &is_controller, &mut scratch),
            )
        })
        .collect();

    // Condition 1: every live controller knows the topology it can reach.
    for (c, reach) in &transit {
        let c = *c;
        let Some(controller) = net.controller(c) else {
            issues.push(format!("controller {c} has no state machine"))?;
            continue;
        };
        let (curr, prev) = (controller.curr_tag(), controller.prev_tag());
        let fusion = controller
            .reply_db()
            .fusion(curr, prev, c, net.sim().observed(c));
        let (nodes, links) = fusion.key().lists();
        if nodes != reach.nodes || !links.iter().copied().eq(reach.links(&flat)) {
            issues.push(format!(
                "controller {c} topology view diverges: knows {} nodes / {} links, expected {} nodes / {} links",
                nodes.len(),
                links.len(),
                reach.nodes.len(),
                reach.links(&flat).count(),
            ))?;
        }
    }

    // Condition 2 and 4: manager sets and rule ownership match the live controller set.
    for &s in &live_switches {
        let Some(switch) = net.switch(s) else {
            issues.push(format!("switch {s} has no state machine"))?;
            continue;
        };
        // Both sides as sorted lists — the live controllers that reach `s`, and what
        // the switch stores — compared in place; sets are built only to word an issue.
        let mut expected_managers: Vec<NodeId> = transit
            .iter()
            .filter(|(_, reach)| reach.contains(&flat, s))
            .map(|&(c, _)| c)
            .collect();
        expected_managers.sort_unstable();
        expected_managers.dedup();
        let actual_managers = switch.managers().to_sorted_vec();
        if actual_managers != expected_managers {
            let actual_managers: BTreeSet<NodeId> = actual_managers.into_iter().collect();
            let expected_managers: BTreeSet<&NodeId> = expected_managers.iter().collect();
            issues.push(format!(
                "switch {s} managers {actual_managers:?} differ from live controllers {expected_managers:?}"
            ))?;
        }
        for owner in switch.rules().controllers_with_rules() {
            if expected_managers.binary_search(&owner).is_err() {
                issues.push(format!(
                    "switch {s} still stores rules of stale controller {owner}"
                ))?;
            }
        }
    }

    // Condition 3: in-band connectivity between every controller and every node it can
    // possibly reach without relaying through another controller.
    if condition3_holds {
        return ControlFlow::Continue(false);
    }
    let before = issues.found.len();
    let mut in_band = InBandWalk::default();
    for (c, reach) in &transit {
        let c = *c;
        for &node in &reach.nodes {
            if node == c {
                continue;
            }
            if !in_band.run(net, &flat, c, node) {
                issues.push(format!("no in-band path from controller {c} to {node}"))?;
            }
            if !in_band.run(net, &flat, node, c) {
                issues.push(format!(
                    "no in-band path from {node} back to controller {c}"
                ))?;
            }
        }
    }
    ControlFlow::Continue(issues.found.len() == before)
}

/// The switch-transit reachability of one controller: nodes reachable along paths
/// whose *intermediate* hops are all switches — the reachability notion that matters
/// in-band, because controllers never forward.
struct TransitReach {
    /// Reached nodes in ascending identifier order.
    nodes: Vec<NodeId>,
    /// Membership mask per dense index of the snapshot the BFS ran over.
    mask: Vec<bool>,
}

impl TransitReach {
    fn compute(
        flat: &FlatGraph,
        from: NodeId,
        is_controller: &[bool],
        scratch: &mut BfsScratch,
    ) -> Self {
        let mut mask = vec![false; flat.node_count()];
        let Some(source) = flat.index_of(from) else {
            // A node outside the operational graph reaches only itself.
            return TransitReach {
                nodes: vec![from],
                mask,
            };
        };
        flat.bfs_filtered(source, scratch, |idx| !is_controller[idx as usize]);
        let mut nodes = Vec::new();
        for (idx, &d) in scratch.distances().iter().enumerate() {
            if d != NO_INDEX {
                mask[idx] = true;
                nodes.push(flat.node_at(idx as u32));
            }
        }
        TransitReach { nodes, mask }
    }

    fn contains(&self, flat: &FlatGraph, node: NodeId) -> bool {
        flat.index_of(node)
            .map(|idx| self.mask[idx as usize])
            .unwrap_or(false)
    }

    /// The links of the snapshot between reached nodes, ascending (dense indices
    /// ascend with identifiers).
    fn links<'a>(&'a self, flat: &'a FlatGraph) -> impl Iterator<Item = Link> + 'a {
        let reached = (0..flat.node_count() as u32).filter(|&idx| self.mask[idx as usize]);
        reached.flat_map(move |idx| {
            (flat.neighbor_indices(idx).iter())
                .filter(move |&&peer| peer > idx && self.mask[peer as usize])
                .map(move |&peer| Link::new(flat.node_at(idx), flat.node_at(peer)))
        })
    }
}

/// Simulates the in-band forwarding of one packet from `from` to `to` over the current
/// switch configurations and the operational graph, without mutating any state.
///
/// Returns the traversed path, or `None` when the packet would be dropped. The walk
/// reproduces exactly what [`crate::nodes::SwitchNode`] does: rule-based next hop with
/// fast-failover priorities, direct-neighbor fallback, and DFS bounce-back.
pub fn route_in_band(
    net: &SdnNetwork,
    operational: &Graph,
    from: NodeId,
    to: NodeId,
) -> Option<Vec<NodeId>> {
    let mut in_band = InBandWalk::default();
    let arrived = in_band.run(net, &operational.snapshot(), from, to);
    arrived.then_some(in_band.path)
}

/// The buffers of the in-band walk, kept across the walks of one check.
#[derive(Default)]
struct InBandWalk {
    neighbors: Vec<NodeId>,
    visited: Vec<NodeId>,
    trail: Vec<NodeId>,
    /// What the last walk traversed, bounce-backs included: one node per hop.
    path: Vec<NodeId>,
}

impl InBandWalk {
    /// Walks one packet from `from` towards `to` (see [`route_in_band`]) and returns
    /// whether it arrives.
    fn run(&mut self, net: &SdnNetwork, flat: &FlatGraph, from: NodeId, to: NodeId) -> bool {
        let ttl = 4 * flat.node_count().max(4);
        for buffer in [&mut self.visited, &mut self.trail, &mut self.path] {
            buffer.clear();
            buffer.push(from);
        }
        while let Some(&cur) = self.trail.last() {
            if cur == to {
                return true;
            }
            if self.path.len() > ttl {
                return false;
            }
            self.neighbors.clear();
            self.neighbors.extend(flat.neighbors(cur));
            let (neighbors, visited) = (&self.neighbors[..], &self.visited[..]);
            let usable = |hop: &NodeId| neighbors.contains(hop) && !visited.contains(hop);
            let next = match net.controller(cur) {
                // Controllers only originate packets; mid-path controllers never forward.
                Some(_) if cur != from => None,
                Some(controller) => controller.first_hop_candidates(to).chain([to]).find(usable),
                None => net.switch(cur).and_then(|switch| {
                    forwarding::decide(switch.rules(), from, to, visited, neighbors, &mut |_| true)
                }),
            };
            match next {
                Some(hop) => {
                    self.visited.push(hop);
                    self.trail.push(hop);
                    self.path.push(hop);
                }
                None => {
                    self.trail.pop();
                    self.path.extend(self.trail.last());
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ControllerConfig, HarnessConfig};
    use sdn_netsim::SimDuration;
    use sdn_topology::builders;

    fn bootstrapped_ring() -> SdnNetwork {
        let topology = builders::ring(5, 1);
        let mut sdn = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(1, 5),
            HarnessConfig::default().with_task_delay(SimDuration::from_millis(100)),
        );
        sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        sdn
    }

    #[test]
    fn fresh_network_is_not_legitimate_and_report_explains_why() {
        let topology = builders::ring(4, 1);
        let sdn = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(1, 4),
            HarnessConfig::default(),
        );
        let report = sdn.legitimacy_report();
        assert!(!report.is_legitimate());
        assert!(!report.issues.is_empty());
    }

    #[test]
    fn bootstrapped_network_is_legitimate_and_routes_in_band() {
        let sdn = bootstrapped_ring();
        let report = sdn.legitimacy_report();
        assert!(report.is_legitimate(), "issues: {:?}", report.issues);
        let operational = sdn.sim().operational_graph();
        let c = sdn.controller_ids()[0];
        for s in sdn.switch_ids() {
            let path = route_in_band(&sdn, operational, c, s).expect("path to switch");
            assert_eq!(*path.first().unwrap(), c);
            assert_eq!(*path.last().unwrap(), s);
            let back = route_in_band(&sdn, operational, s, c).expect("path back");
            assert_eq!(*back.last().unwrap(), c);
        }
    }

    #[test]
    fn corrupting_a_switch_breaks_legitimacy_until_recovery() {
        let mut sdn = bootstrapped_ring();
        let victim = sdn.switch_ids()[2];
        sdn.switch_mut(victim).unwrap().corrupt_clear();
        let report = sdn.legitimacy_report();
        assert!(
            !report.is_legitimate(),
            "cleared switch must break legitimacy"
        );
        // The controller re-installs everything within a bounded time.
        let elapsed = sdn
            .run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("self-stabilization after switch corruption");
        assert!(elapsed > SimDuration::ZERO);
    }

    #[test]
    fn stale_rule_owner_is_reported_and_cleaned() {
        let mut sdn = bootstrapped_ring();
        let victim = sdn.switch_ids()[0];
        let bogus = sdn_switch::Rule {
            cid: NodeId::new(99),
            src: None,
            dst: NodeId::new(1),
            prt: 200,
            fwd: NodeId::new(1),
            tag: sdn_tags::Tag::new(99, 1),
        };
        sdn.switch_mut(victim).unwrap().corrupt_install_rule(bogus);
        sdn.switch_mut(victim)
            .unwrap()
            .corrupt_add_manager(NodeId::new(99));
        let report = sdn.legitimacy_report();
        assert!(report
            .issues
            .iter()
            .any(|i| i.contains("stale controller") || i.contains("managers")));
        sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(180))
            .expect("stale state must eventually be purged");
        let switch = sdn.switch(victim).unwrap();
        assert!(switch.rules().rules_of(NodeId::new(99)).is_empty());
        assert!(!switch.managers().contains(NodeId::new(99)));
    }
}
