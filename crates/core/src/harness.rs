//! The simulation harness: an entire SDN (controllers + switches + network) in one
//! object, with fault injection and convergence measurement — the Rust stand-in for the
//! paper's Mininet testbed.

use crate::config::{ControllerConfig, HarnessConfig};
use crate::controller::Controller;
use crate::legitimacy::{self, LegitimacyReport};
use crate::nodes::{ControllerNode, SdnNode, SwitchNode};
use crate::packet::ControlPacket;
use sdn_netsim::{LinkConfig, NetworkMetrics, SimConfig, SimDuration, SimTime, Simulator};
use sdn_switch::{AbstractSwitch, SwitchConfig};
use sdn_topology::{NamedTopology, NodeId};
use std::cell::{Ref, RefCell};

/// A fully wired simulated SDN deployment.
///
/// # Example
///
/// ```
/// use renaissance::{ControllerConfig, HarnessConfig, SdnNetwork};
/// use sdn_netsim::SimDuration;
/// use sdn_topology::builders;
///
/// // A small ring with two controllers bootstraps to a legitimate state.
/// let net = builders::ring(6, 2);
/// let mut sdn = SdnNetwork::new(
///     net,
///     ControllerConfig::for_network(2, 6),
///     HarnessConfig::default().with_task_delay(SimDuration::from_millis(100)),
/// );
/// let elapsed = sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(60));
/// assert!(elapsed.is_some());
/// ```
pub struct SdnNetwork {
    topology: NamedTopology,
    controller_config: ControllerConfig,
    harness_config: HarnessConfig,
    sim: Simulator<ControlPacket, SdnNode>,
    /// The last verdict, and the [`SdnNetwork::forwarding_key`] condition 3 last came
    /// out clean under (never folded: a revived controller's plan version, back at 0,
    /// can cancel a generation step). Caching never changes observable results: a
    /// property test holds both to a from-scratch recompute under random faults.
    legitimacy_cache: RefCell<Option<LegitimacyCache>>,
    condition3_clean: RefCell<Option<ForwardingKey>>,
}

type ForwardingKey = (u64, Vec<(NodeId, u64)>);

/// One memoized legitimacy evaluation (see [`SdnNetwork::legitimacy_report`]).
struct LegitimacyCache {
    /// `(topology_generation, state_stamp)` at the time of the evaluation.
    key: (u64, u64),
    /// `None`: [`SdnNetwork::is_legitimate`] found the state illegitimate and nobody
    /// has asked why yet. A legitimate verdict is the complete (empty) report.
    report: Option<LegitimacyReport>,
}

impl SdnNetwork {
    /// Builds and starts a simulated SDN over `topology`.
    pub fn new(
        topology: NamedTopology,
        controller_config: ControllerConfig,
        harness_config: HarnessConfig,
    ) -> Self {
        let sim_config = SimConfig {
            detection_delay: harness_config.detection_delay,
            seed: harness_config.seed,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topology.graph, sim_config);
        let switch_config = network_switch_config(&topology, &controller_config);
        for &controller_id in &topology.controllers {
            let controller = Controller::new(controller_id, controller_config);
            sim.add_node(
                controller_id,
                SdnNode::Controller(ControllerNode::new(controller, &harness_config)),
            );
        }
        for &switch_id in &topology.switches {
            let switch = AbstractSwitch::new(switch_id, switch_config);
            sim.add_node(
                switch_id,
                SdnNode::Switch(SwitchNode::new(switch, &harness_config)),
            );
        }
        sim.start();
        SdnNetwork {
            topology,
            controller_config,
            harness_config,
            sim,
            legitimacy_cache: RefCell::new(None),
            condition3_clean: RefCell::new(None),
        }
    }

    /// The topology the deployment was built from.
    pub fn topology(&self) -> &NamedTopology {
        &self.topology
    }

    /// The controller configuration in use.
    pub fn controller_config(&self) -> ControllerConfig {
        self.controller_config
    }

    /// The harness configuration in use.
    pub fn harness_config(&self) -> HarnessConfig {
        self.harness_config
    }

    /// The underlying simulator (read-only).
    pub fn sim(&self) -> &Simulator<ControlPacket, SdnNode> {
        &self.sim
    }

    /// The underlying simulator (mutable) — escape hatch for advanced fault scenarios.
    pub fn sim_mut(&mut self) -> &mut Simulator<ControlPacket, SdnNode> {
        &mut self.sim
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Network-wide message metrics.
    pub fn metrics(&self) -> &NetworkMetrics {
        self.sim.metrics()
    }

    /// Resets the message metrics (e.g. at the start of a measured phase).
    pub fn reset_metrics(&mut self) {
        self.sim.reset_metrics();
    }

    /// Runs the simulation for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.sim.run_for(duration);
    }

    /// Runs the simulation until the given absolute simulated time.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Runs until the legitimacy predicate (Definition 1) holds, checking every
    /// `check_every`, and returns the elapsed simulated time — or `None` if `timeout`
    /// expired first. This is the measurement primitive behind every bootstrap /
    /// recovery figure of the paper.
    pub fn run_until_legitimate(
        &mut self,
        check_every: SimDuration,
        timeout: SimDuration,
    ) -> Option<SimDuration> {
        let started = self.now();
        let deadline = started + timeout;
        loop {
            if self.is_legitimate() {
                return Some(self.now() - started);
            }
            if self.now() >= deadline {
                return None;
            }
            self.run_for(check_every);
        }
    }

    /// Evaluates the legitimacy predicate (paper, Definition 1).
    ///
    /// Memoized under the same key as [`SdnNetwork::legitimacy_report`], but a miss
    /// costs less than a report: the walk stops at the first violated condition.
    pub fn is_legitimate(&self) -> bool {
        let key = self.legitimacy_key();
        if let Some(memo) = self.memo(key) {
            return memo.report.as_ref().is_some_and(|r| r.is_legitimate());
        }
        let legitimate = self.evaluate(1).is_legitimate();
        self.remember(key, legitimate.then(LegitimacyReport::default));
        legitimate
    }

    /// Detailed legitimacy report, listing the violated conditions.
    ///
    /// Dirty-tracked: the report is recomputed only when the operational topology,
    /// the observed neighborhoods, or any controller/switch state changed since the
    /// last evaluation; otherwise the memoized report is returned. The cache key
    /// covers every input [`legitimacy::check`] reads, so the cached and recomputed
    /// reports are always identical — [`SdnNetwork::legitimacy_report_fresh`] is the
    /// explicit escape hatch that bypasses the cache.
    pub fn legitimacy_report(&self) -> LegitimacyReport {
        let key = self.legitimacy_key();
        if let Some(report) = self.memo(key).and_then(|memo| memo.report.clone()) {
            return report;
        }
        let report = self.evaluate(legitimacy::MAX_ISSUES);
        self.remember(key, Some(report.clone()));
        report
    }

    /// Recomputes the legitimacy report from scratch, ignoring (and refreshing) the
    /// memoized result — the escape hatch for callers that want to pay for certainty,
    /// and the oracle the cache property test compares against.
    pub fn legitimacy_report_fresh(&self) -> LegitimacyReport {
        let report = legitimacy::check(self);
        self.remember(self.legitimacy_key(), Some(report.clone()));
        report
    }

    /// The memo if it was taken under `key`.
    fn memo(&self, key: (u64, u64)) -> Option<Ref<'_, LegitimacyCache>> {
        let cache = self.legitimacy_cache.borrow();
        Ref::filter_map(cache, |c| c.as_ref().filter(|c| c.key == key)).ok()
    }

    fn remember(&self, key: (u64, u64), report: Option<LegitimacyReport>) {
        *self.legitimacy_cache.borrow_mut() = Some(LegitimacyCache { key, report });
    }

    fn legitimacy_key(&self) -> (u64, u64) {
        (self.sim.topology_generation(), self.state_stamp())
    }

    /// The first `limit` issues, skipping condition 3 while nothing it reads has moved.
    fn evaluate(&self, limit: usize) -> LegitimacyReport {
        let key = self.forwarding_key();
        let holds = self.condition3_clean.borrow().as_ref() == Some(&key);
        let (report, clean) = legitimacy::first_issues(self, limit, holds);
        if clean {
            *self.condition3_clean.borrow_mut() = Some(key);
        }
        report
    }

    /// The topology generation and, per node, the version of what its in-band
    /// forwarding reads: a controller's routing plan, a switch's live rules.
    fn forwarding_key(&self) -> ForwardingKey {
        let versions = self.sim.nodes().map(|(id, node)| match node {
            SdnNode::Controller(c) => (id, c.controller.plan_version()),
            SdnNode::Switch(s) => (id, s.switch.rules().forwarding_version()),
        });
        (self.sim.topology_generation(), versions.collect())
    }

    /// Folds every node's state version into one stamp. Any single state mutation
    /// changes the fold (each node contributes its identifier and version through a
    /// position-sensitive mix), which is what makes `(generation, stamp)` a sound
    /// cache key for the legitimacy predicate.
    fn state_stamp(&self) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for (id, node) in self.sim.nodes() {
            acc ^= (u64::from(id.index()) << 32) ^ node.state_version();
            acc = acc.rotate_left(13).wrapping_mul(0x0000_0100_0000_01B3);
        }
        acc
    }

    // ------------------------------------------------------------------
    // Accessors over controllers and switches
    // ------------------------------------------------------------------

    /// Identifiers of all controllers (including failed ones).
    pub fn controller_ids(&self) -> Vec<NodeId> {
        self.topology.controllers.clone()
    }

    /// Identifiers of all switches (including failed ones).
    pub fn switch_ids(&self) -> Vec<NodeId> {
        self.topology.switches.clone()
    }

    /// Identifiers of controllers that have not fail-stopped and are still part of the
    /// topology.
    pub fn live_controller_ids(&self) -> Vec<NodeId> {
        self.topology
            .controllers
            .iter()
            .copied()
            .filter(|&c| self.sim.topology().contains_node(c) && !self.sim.is_node_failed(c))
            .collect()
    }

    /// Identifiers of switches that have not fail-stopped and are still in the topology.
    pub fn live_switch_ids(&self) -> Vec<NodeId> {
        self.topology
            .switches
            .iter()
            .copied()
            .filter(|&s| self.sim.topology().contains_node(s) && !self.sim.is_node_failed(s))
            .collect()
    }

    /// The controller state machine of `id`, if it exists.
    pub fn controller(&self, id: NodeId) -> Option<&Controller> {
        self.sim.node(id).and_then(SdnNode::as_controller)
    }

    /// Mutable access to a controller — used by transient-fault injection.
    pub fn controller_mut(&mut self, id: NodeId) -> Option<&mut Controller> {
        self.sim.node_mut(id).and_then(SdnNode::as_controller_mut)
    }

    /// The switch state machine of `id`, if it exists.
    pub fn switch(&self, id: NodeId) -> Option<&AbstractSwitch> {
        self.sim.node(id).and_then(SdnNode::as_switch)
    }

    /// Mutable access to a switch — used by transient-fault injection.
    pub fn switch_mut(&mut self, id: NodeId) -> Option<&mut AbstractSwitch> {
        self.sim.node_mut(id).and_then(SdnNode::as_switch_mut)
    }

    /// Total number of rules installed across all live switches (the memory-footprint
    /// observable of Lemma 1 and of the variant ablation).
    pub fn total_rules(&self) -> usize {
        self.live_switch_ids()
            .into_iter()
            .filter_map(|s| self.switch(s))
            .map(|sw| sw.rules().len())
            .sum()
    }

    /// The largest rule count of any single live switch.
    pub fn max_rules_per_switch(&self) -> usize {
        self.live_switch_ids()
            .into_iter()
            .filter_map(|s| self.switch(s))
            .map(|sw| sw.rules().len())
            .max()
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Fault injection (the benign failures of Section 3.4.2)
    // ------------------------------------------------------------------

    /// Fail-stops a controller.
    pub fn fail_controller(&mut self, id: NodeId) {
        self.sim.fail_node(id);
    }

    /// Fail-stops a switch.
    pub fn fail_switch(&mut self, id: NodeId) {
        self.sim.fail_node(id);
    }

    /// Permanently removes a link from the topology.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) -> bool {
        self.sim.remove_link(a, b)
    }

    /// Adds a link to the topology.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) {
        self.sim.add_link(a, b);
    }

    /// Temporarily fails a link (it stays part of `Gc`).
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        self.sim.fail_link(a, b);
    }

    /// Restores a temporarily failed link.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        self.sim.restore_link(a, b);
    }

    /// Overrides the behaviour of one link symmetrically (gray failure: the link
    /// stays part of `Gc` but degrades). Returns `false` when the link does not
    /// exist — the call is still counted in [`SdnNetwork::link_config_warnings`].
    pub fn set_link_config(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> bool {
        self.sim.set_link_config(a, b, config)
    }

    /// Overrides the behaviour of one link *direction* only (asymmetric gray
    /// failure). Returns `false` when the link does not exist.
    pub fn set_link_config_directed(
        &mut self,
        from: NodeId,
        to: NodeId,
        config: LinkConfig,
    ) -> bool {
        self.sim.set_link_config_directed(from, to, config)
    }

    /// Removes every quality override from a link, restoring default behaviour.
    /// Returns `true` when an override was actually removed.
    pub fn clear_link_config(&mut self, a: NodeId, b: NodeId) -> bool {
        self.sim.clear_link_config(a, b)
    }

    /// The default link behaviour degraded links return to.
    pub fn default_link_config(&self) -> LinkConfig {
        self.sim.default_link_config()
    }

    /// How many link-config calls named a link absent from `Gc` so far.
    pub fn link_config_warnings(&self) -> u64 {
        self.sim.link_config_warnings()
    }

    /// Revives a previously failed controller with a *fresh* (empty) state, as the paper
    /// assumes for node additions (Lemma 8: new nodes start with empty memory).
    pub fn revive_controller(&mut self, id: NodeId) {
        let controller = Controller::new(id, self.controller_config);
        let node = SdnNode::Controller(ControllerNode::new(controller, &self.harness_config));
        self.sim.replace_node(id, node);
        self.sim.revive_node(id);
        self.sim.start();
    }

    /// Revives a previously failed switch with empty configuration.
    ///
    /// The switch capacity is recomputed from the deployment
    /// ([`SwitchConfig::for_network`], the Lemma 1 sizing) rather than copied from
    /// whatever node state happens to survive — a revived switch starts fresh
    /// (Lemma 8), and falling back to `SwitchConfig::default()` when the old node was
    /// gone used to silently mis-size its rule capacity.
    pub fn revive_switch(&mut self, id: NodeId) {
        let switch_config = network_switch_config(&self.topology, &self.controller_config);
        let node = SdnNode::Switch(SwitchNode::new(
            AbstractSwitch::new(id, switch_config),
            &self.harness_config,
        ));
        self.sim.replace_node(id, node);
        self.sim.revive_node(id);
        self.sim.start();
    }
}

/// The per-switch capacity prescribed by Lemma 1 for this deployment — used both when
/// wiring the network and when reviving a switch with fresh state.
fn network_switch_config(
    topology: &NamedTopology,
    controller_config: &ControllerConfig,
) -> SwitchConfig {
    SwitchConfig::for_network(
        topology.controller_count(),
        topology.node_count(),
        controller_config
            .max_priorities
            .unwrap_or(topology.graph.max_degree() + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_topology::builders;

    fn small_net() -> SdnNetwork {
        let topology = builders::ring(5, 2);
        SdnNetwork::new(
            topology,
            ControllerConfig::for_network(2, 5),
            HarnessConfig::default()
                .with_task_delay(SimDuration::from_millis(100))
                .with_seed(3),
        )
    }

    #[test]
    fn bootstrap_reaches_legitimacy_on_a_small_ring() {
        let mut sdn = small_net();
        assert!(!sdn.is_legitimate(), "empty switches cannot be legitimate");
        let elapsed = sdn
            .run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap must converge");
        assert!(elapsed > SimDuration::ZERO);
        // Every switch is managed by both controllers.
        for s in sdn.switch_ids() {
            let switch = sdn.switch(s).unwrap();
            assert_eq!(switch.managers().len(), 2, "switch {s} managers");
            assert!(!switch.rules().is_empty());
        }
        assert!(sdn.total_rules() > 0);
        assert!(
            sdn.max_rules_per_switch()
                <= sdn.switch(sdn.switch_ids()[0]).unwrap().config().max_rules
        );
    }

    #[test]
    fn controller_failure_is_cleaned_up() {
        let mut sdn = small_net();
        sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        let victim = sdn.controller_ids()[1];
        sdn.fail_controller(victim);
        assert_eq!(sdn.live_controller_ids().len(), 1);
        let elapsed = sdn
            .run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("recovery after controller failure");
        assert!(elapsed > SimDuration::ZERO);
        for s in sdn.switch_ids() {
            let switch = sdn.switch(s).unwrap();
            assert!(
                !switch.managers().contains(victim),
                "stale manager must be removed from switch {s}"
            );
            assert!(switch.rules().rules_of(victim).is_empty());
        }
    }

    #[test]
    fn link_failure_recovers() {
        let mut sdn = small_net();
        sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        // Remove one ring link (the ring stays connected).
        let switches = sdn.switch_ids();
        let removed = sdn.remove_link(switches[0], switches[1]);
        assert!(removed);
        let elapsed = sdn
            .run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("recovery after link failure");
        assert!(elapsed > SimDuration::ZERO);
    }

    #[test]
    fn revived_switch_gets_network_sized_config() {
        let mut sdn = small_net();
        sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        let victim = sdn.switch_ids()[2];
        let expected = sdn.switch(victim).unwrap().config();
        sdn.fail_switch(victim);
        // Simulate the old node's state being gone (or corrupted): replace it with a
        // switch carrying the wrong, default capacity before reviving.
        let bogus = SdnNode::Switch(SwitchNode::new(
            AbstractSwitch::new(victim, SwitchConfig::default()),
            &sdn.harness_config(),
        ));
        sdn.sim_mut().replace_node(victim, bogus);
        sdn.revive_switch(victim);
        let revived = sdn.switch(victim).unwrap();
        assert_eq!(
            revived.config(),
            expected,
            "revival must recompute the Lemma 1 capacity, not inherit stale state"
        );
        assert_eq!(revived.rules().len(), 0, "revived switch starts empty");
        // The revived switch rejoins the deployment and ends up managed again.
        sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("recovery after switch revival");
        assert!(!sdn.switch(victim).unwrap().managers().is_empty());
    }

    /// The dirty-tracking contract: across arbitrary interleavings of faults,
    /// revivals, corruption, and simulation time, the memoized legitimacy report
    /// must be indistinguishable from a from-scratch recompute.
    #[test]
    fn cached_legitimacy_equals_fresh_recompute_under_random_faults() {
        use sdn_rng::Rng;
        let (mut legitimate_states, mut skips) = (0, 0);
        for seed in 0..5u64 {
            let mut seen = std::collections::BTreeMap::new();
            let topology = builders::ring(8, 2);
            let mut sdn = SdnNetwork::new(
                topology,
                ControllerConfig::for_network(2, 8),
                HarnessConfig::default()
                    .with_task_delay(SimDuration::from_millis(100))
                    .with_seed(seed),
            );
            let mut rng = Rng::seed_from_u64(seed ^ 0xF00D);
            // Odd seeds start from a converged network, so the walk also crosses
            // legitimate states (and the memo a `true` verdict leaves behind).
            if seed % 2 == 1 {
                sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(60))
                    .expect("bootstrap");
            }
            for step in 0..40 {
                let switches = sdn.switch_ids();
                let controllers = sdn.controller_ids();
                let s = switches[rng.gen_range(0..switches.len() as u64) as usize];
                let c = controllers[rng.gen_range(0..controllers.len() as u64) as usize];
                match rng.gen_range(0..10u32) {
                    0 => sdn.run_for(SimDuration::from_millis(rng.gen_range(10..3000u64))),
                    1 => sdn.fail_switch(s),
                    2 => sdn.revive_switch(s),
                    3 => sdn.fail_controller(c),
                    4 => sdn.revive_controller(c),
                    5 => {
                        let i = rng.gen_range(0..switches.len() as u64) as usize;
                        let j = (i + 1) % switches.len();
                        sdn.fail_link(switches[i], switches[j]);
                    }
                    6 => {
                        let i = rng.gen_range(0..switches.len() as u64) as usize;
                        let j = (i + 1) % switches.len();
                        sdn.restore_link(switches[i], switches[j]);
                    }
                    7 => {
                        if let Some(sw) = sdn.switch_mut(s) {
                            sw.corrupt_clear();
                        }
                    }
                    8 => {
                        // Forwarding only, and after the network had time to settle:
                        // `c`'s top-priority rule towards the other controller now
                        // points at a random neighbor of `s`. A following run that
                        // only repairs it must move the forwarding key again.
                        sdn.run_for(SimDuration::from_secs(3));
                        let neighbors = sdn.sim().topology().neighbor_vec(s);
                        let fwd = neighbors[rng.gen_range(0..neighbors.len() as u64) as usize];
                        let dst = controllers[usize::from(c == controllers[0])];
                        let tag = sdn_tags::Tag::new(c.index(), 1);
                        let rule = sdn_switch::Rule {
                            cid: c,
                            src: None,
                            dst,
                            prt: u8::MAX,
                            fwd,
                            tag,
                        };
                        if let Some(sw) = sdn.switch_mut(s) {
                            sw.corrupt_install_rule(rule);
                        }
                    }
                    _ => {
                        // A restart: the generation moves by two while `c`'s plan
                        // version drops to zero.
                        sdn.fail_controller(c);
                        sdn.revive_controller(c);
                    }
                }
                let at = format!("seed {seed} step {step}");
                // One forwarding key, one forwarding state — asked of every state, not
                // only of those where the walk below consults the condition-3 memo.
                let key = sdn.forwarding_key();
                skips += usize::from(sdn.condition3_clean.borrow().as_ref() == Some(&key));
                let state = forwarding_state(&sdn);
                let first_seen = seen.entry(key).or_insert_with(|| state.clone());
                assert_eq!(*first_seen, state, "forwarding moved under one key, {at}");
                // The first query of the new state is a memo miss — the yes/no walk
                // on even steps, the full report on odd ones — and everything after
                // it may be served from the memo: any stale key, or a verdict that is
                // not the report's verdict, makes them diverge from the recompute.
                let fresh = if step % 2 == 0 {
                    let verdict = sdn.is_legitimate();
                    let explained = sdn.legitimacy_report();
                    let fresh = sdn.legitimacy_report_fresh();
                    assert_eq!(verdict, fresh.is_legitimate(), "verdict first, {at}");
                    assert_eq!(explained, fresh, "report after a verdict, {at}");
                    fresh
                } else {
                    let cached = sdn.legitimacy_report();
                    let verdict = sdn.is_legitimate();
                    let fresh = sdn.legitimacy_report_fresh();
                    assert_eq!(cached, fresh, "report first, {at}");
                    assert_eq!(verdict, fresh.is_legitimate(), "verdict after, {at}");
                    fresh
                };
                // A repeat query with no intervening event serves the cache; it must
                // still match.
                assert_eq!(sdn.legitimacy_report(), fresh, "{at}");
                assert_eq!(sdn.is_legitimate(), fresh.is_legitimate(), "{at}");
                legitimate_states += usize::from(fresh.is_legitimate());
            }
        }
        assert!(
            (1..200).contains(&legitimate_states),
            "the walk must cross both kinds of state, saw {legitimate_states} legitimate of 200"
        );
        assert!(skips > 0, "some walk must skip condition 3");
    }

    /// What condition 3 reads of every node, by value: a controller's first hops
    /// towards each node, a switch's live rules without their tags.
    fn forwarding_state(sdn: &SdnNetwork) -> Vec<String> {
        let ids: Vec<NodeId> = sdn.sim.nodes().map(|(id, _)| id).collect();
        let state = |node: &SdnNode| match node {
            SdnNode::Controller(c) => {
                let hops = |&dst| c.controller.first_hop_candidates(dst).collect::<Vec<_>>();
                format!("{:?}", ids.iter().map(hops).collect::<Vec<_>>())
            }
            SdnNode::Switch(s) => {
                let rules = s.switch.rules().iter().map(|r| (r.cid, r.body()));
                format!("{:?}", rules.collect::<Vec<_>>())
            }
        };
        sdn.sim.nodes().map(|(_, node)| state(node)).collect()
    }

    /// What the condition-3 memo rests on: once a network has settled, every
    /// iteration and reply still moves the report memo's key, but nothing condition 3
    /// reads changes, so its key stands still and the memo holds it.
    #[test]
    fn a_settled_network_keeps_its_forwarding_key() {
        let mut sdn = SdnNetwork::new(
            builders::by_name("B4", 3),
            ControllerConfig::for_network(3, 12),
            HarnessConfig::default()
                .with_task_delay(SimDuration::from_millis(200))
                .with_seed(1),
        );
        sdn.run_until_legitimate(SimDuration::from_millis(200), SimDuration::from_secs(600))
            .expect("B4 bootstraps");
        sdn.run_for(SimDuration::from_secs(5));
        let settled = Some(sdn.forwarding_key());
        for tick in 0..20 {
            let stamp = sdn.state_stamp();
            sdn.run_for(SimDuration::from_millis(250));
            assert_ne!(sdn.state_stamp(), stamp, "tick {tick}");
            assert_eq!(Some(sdn.forwarding_key()), settled, "tick {tick}");
            assert!(sdn.is_legitimate(), "tick {tick}");
            assert_eq!(*sdn.condition3_clean.borrow(), settled, "tick {tick}");
        }
    }

    #[test]
    fn accessors_are_consistent() {
        let sdn = small_net();
        assert_eq!(sdn.controller_ids().len(), 2);
        assert_eq!(sdn.switch_ids().len(), 5);
        assert_eq!(sdn.live_controller_ids().len(), 2);
        assert_eq!(sdn.live_switch_ids().len(), 5);
        assert!(sdn.controller(sdn.controller_ids()[0]).is_some());
        assert!(sdn.switch(sdn.switch_ids()[0]).is_some());
        assert!(sdn.controller(sdn.switch_ids()[0]).is_none());
        assert_eq!(sdn.topology().switch_count(), 5);
        assert_eq!(sdn.controller_config().n_controllers, 2);
        assert_eq!(sdn.harness_config().seed, 3);
    }
}
