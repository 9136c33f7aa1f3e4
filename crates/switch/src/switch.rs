//! The abstract SDN switch control module (paper, Section 2.1.1).
//!
//! The abstract switch is deliberately simpler than an OpenFlow switch: it stores
//! match-action rules and a manager set, supports the equal-roles multi-controller
//! model, processes command batches atomically (one batch per step, Section 3.2), and
//! answers configuration queries. It performs no computation of its own — everything it
//! knows was installed by some controller, which is exactly the constraint that makes
//! the self-stabilization proof of the paper non-trivial.

use crate::commands::{CommandBatch, QueryReply, SwitchCommand};
use crate::managers::ManagerSet;
use crate::rules::{Rule, RuleTable};
use sdn_rng::Rng;
use sdn_tags::{IdRange, Tag};
use sdn_topology::NodeId;
use std::collections::BTreeMap;

/// Capacity configuration of an abstract switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Maximum number of packet-forwarding rules (`maxRules`).
    pub max_rules: usize,
    /// Maximum number of managers (`maxManagers`).
    pub max_managers: usize,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            max_rules: 100_000,
            max_managers: 64,
        }
    }
}

impl SwitchConfig {
    /// The capacity the paper's Lemma 1 prescribes for a deployment with `n_controllers`
    /// controllers, `n_nodes` total nodes, and `nprt` priority levels:
    /// `maxRules >= NC * (NC + NS - 1) * nprt` and `maxManagers >= NC`.
    pub fn for_network(n_controllers: usize, n_nodes: usize, nprt: usize) -> Self {
        SwitchConfig {
            max_rules: n_controllers
                .max(1)
                .saturating_mul(n_nodes.saturating_sub(1).max(1))
                .saturating_mul(nprt.max(1))
                // Bidirectional flows double the per-destination rule count.
                .saturating_mul(2),
            max_managers: n_controllers.max(1),
        }
    }
}

/// Counters describing what a switch has done; used by tests and the overhead benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Command batches applied.
    pub batches_applied: u64,
    /// Queries answered.
    pub queries_answered: u64,
    /// Rules removed by `delAllRules` or replaced by `updateRule`.
    pub rules_deleted: u64,
    /// Managers removed by `delMngr`.
    pub managers_deleted: u64,
    /// Packets forwarded through the data plane of this switch.
    pub packets_forwarded: u64,
    /// Packets dropped because no applicable rule existed.
    pub packets_dropped: u64,
}

/// The state of one abstract SDN switch.
///
/// # Example
///
/// ```
/// use sdn_switch::{AbstractSwitch, CommandBatch, SwitchCommand, SwitchConfig};
/// use sdn_tags::Tag;
/// use sdn_topology::NodeId;
///
/// let mut sw = AbstractSwitch::new(NodeId::new(5), SwitchConfig::default());
/// let tag = Tag::new(0, 1);
/// let batch = CommandBatch::new(NodeId::new(0), vec![
///     SwitchCommand::NewRound { tag },
///     SwitchCommand::AddManager { controller: NodeId::new(0) },
///     SwitchCommand::Query { tag },
/// ]);
/// let reply = sw.apply_batch(&batch, &[NodeId::new(4), NodeId::new(6)]).unwrap();
/// assert_eq!(reply.responder, NodeId::new(5));
/// assert_eq!(reply.managers, vec![NodeId::new(0)]);
/// assert_eq!(reply.echo_tag, tag);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbstractSwitch {
    id: NodeId,
    config: SwitchConfig,
    rules: RuleTable,
    managers: ManagerSet,
    /// Per-controller meta-rule tag (`t_metaRule`), updated by `newRound`.
    meta_tags: BTreeMap<NodeId, Tag>,
    stats: SwitchStats,
}

impl AbstractSwitch {
    /// Creates a switch with empty configuration.
    pub fn new(id: NodeId, config: SwitchConfig) -> Self {
        AbstractSwitch {
            id,
            config,
            rules: RuleTable::new(config.max_rules),
            managers: ManagerSet::new(config.max_managers),
            meta_tags: BTreeMap::new(),
            stats: SwitchStats::default(),
        }
    }

    /// This switch's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The capacity configuration.
    pub fn config(&self) -> SwitchConfig {
        self.config
    }

    /// The rule table (read-only).
    pub fn rules(&self) -> &RuleTable {
        &self.rules
    }

    /// The manager set (read-only).
    pub fn managers(&self) -> &ManagerSet {
        &self.managers
    }

    /// Activity counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Applies one command batch atomically and returns the query reply if the batch
    /// contained a query (it normally does — Algorithm 2 always ends batches with one).
    ///
    /// `neighbors` is the switch's currently observed neighborhood `Nc(j)`, supplied by
    /// the local topology-discovery mechanism (in the simulation: the netsim context).
    pub fn apply_batch(
        &mut self,
        batch: &CommandBatch,
        neighbors: &[NodeId],
    ) -> Option<QueryReply> {
        self.stats.batches_applied += 1;
        let from = batch.from;
        let mut reply_tag = None;
        for command in &batch.commands {
            match command {
                SwitchCommand::NewRound { tag } => {
                    self.meta_tags.insert(from, *tag);
                }
                SwitchCommand::AddManager { controller } => {
                    self.managers.add(*controller);
                }
                SwitchCommand::DelManager { controller } => {
                    if self.managers.remove(*controller) {
                        self.stats.managers_deleted += 1;
                    }
                }
                SwitchCommand::DelAllRules { controller } => {
                    let removed = self.rules.delete_controller(*controller);
                    self.stats.rules_deleted += removed as u64;
                    self.meta_tags.remove(controller);
                }
                SwitchCommand::UpdateRules {
                    tag,
                    rules,
                    keep_tags,
                } => {
                    let removed = self.rules.install(from, *tag, rules, keep_tags);
                    self.stats.rules_deleted += removed as u64;
                }
                SwitchCommand::Query { tag } => {
                    reply_tag = Some(*tag);
                }
            }
        }
        reply_tag.map(|tag| {
            self.stats.queries_answered += 1;
            QueryReply {
                responder: self.id,
                neighbors: neighbors.to_vec(),
                managers: self.managers.to_sorted_vec(),
                rules: self.rules.summary(),
                echo_tag: tag,
            }
        })
    }

    /// Data-plane forwarding decision for a packet with header `(src, dst)`.
    ///
    /// Returns the next hop chosen by the highest-priority applicable rule whose
    /// out-link is operational (`is_up`) and whose next hop has not been visited yet
    /// (the visited set is the bounce-back state of the data-plane DFS, cf. the
    /// `sdn-topology` flow planner). Falls back to forwarding directly to `dst` when it
    /// is an operational neighbor — the paper's query-by-neighbor functionality.
    pub fn next_hop<F>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        visited: &[NodeId],
        neighbors: &[NodeId],
        mut is_up: F,
    ) -> Option<NodeId>
    where
        F: FnMut(NodeId) -> bool,
    {
        let decision =
            crate::forwarding::decide(&self.rules, src, dst, visited, neighbors, &mut is_up);
        match decision {
            Some(hop) => {
                self.stats.packets_forwarded += 1;
                Some(hop)
            }
            None => {
                self.stats.packets_dropped += 1;
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Transient faults: a scramble, and the exact writes it is made of.
    // ------------------------------------------------------------------

    /// Rewrites the switch's memory as a transient fault may: maybe a wipe, then rules,
    /// managers and meta tags over `ids`.
    pub fn scramble(&mut self, rng: &mut Rng, ids: IdRange) {
        let AbstractSwitch {
            id: _,        // identity, not memory a fault reaches
            config: _,    // the hardware's capacities
            rules: _,     // below, by `clear` and `insert`: invariants and version kept
            managers: _,  // below, by `clear` and `add`: the bound kept
            meta_tags: _, // below, by `clear` and any owner's entry set to any tag
            stats: _,     // counters the experiments read, not switch state
        } = self;
        let id = |rng: &mut Rng| NodeId::new(ids.draw(rng));
        if rng.gen_bool(0.25) {
            self.corrupt_clear();
        }
        for _ in 0..rng.gen_range(0..=32u32) {
            self.corrupt_install_rule(Rule::scrambled(rng, ids));
        }
        for _ in 0..rng.gen_range(0..=8u32) {
            self.corrupt_add_manager(id(rng));
        }
        for _ in 0..rng.gen_range(0..=4u32) {
            self.meta_tags.insert(id(rng), Tag::scrambled(rng, ids));
        }
    }

    /// Installs an arbitrary rule directly, bypassing the command interface — models a
    /// transient fault corrupting the switch configuration.
    pub fn corrupt_install_rule(&mut self, rule: Rule) {
        self.rules.insert(rule);
    }

    /// Adds an arbitrary manager directly — models a transient fault.
    pub fn corrupt_add_manager(&mut self, controller: NodeId) {
        self.managers.add(controller);
    }

    /// Clears the whole configuration — models a factory reset / power cycle.
    pub fn corrupt_clear(&mut self) {
        self.rules.clear();
        self.managers.clear();
        self.meta_tags.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn rule(cid: u32, src: u32, dst: u32, prt: u8, fwd: u32, tag: u64) -> Rule {
        Rule {
            cid: n(cid),
            src: Some(n(src)),
            dst: n(dst),
            prt,
            fwd: n(fwd),
            tag: Tag::new(cid, tag),
        }
    }

    /// An `updateRule` carrying `rules` — their bodies, under their common tag.
    fn update(rules: &[Rule]) -> SwitchCommand {
        SwitchCommand::UpdateRules {
            tag: rules[0].tag,
            rules: rules.iter().map(Rule::body).collect(),
            keep_tags: vec![],
        }
    }

    fn query_batch(from: u32, tag: Tag, extra: Vec<SwitchCommand>) -> CommandBatch {
        let mut commands = vec![SwitchCommand::NewRound { tag }];
        commands.extend(extra);
        commands.push(SwitchCommand::Query { tag });
        CommandBatch::new(n(from), commands)
    }

    #[test]
    fn full_batch_updates_everything_and_replies() {
        let mut sw = AbstractSwitch::new(n(9), SwitchConfig::default());
        let tag = Tag::new(0, 7);
        let batch = query_batch(
            0,
            tag,
            vec![
                SwitchCommand::AddManager { controller: n(0) },
                update(&[rule(0, 0, 5, 2, 4, 7), rule(0, 5, 0, 2, 3, 7)]),
            ],
        );
        let reply = sw.apply_batch(&batch, &[n(3), n(4)]).unwrap();
        assert_eq!(reply.responder, n(9));
        assert_eq!(reply.neighbors, vec![n(3), n(4)]);
        assert_eq!(reply.managers, vec![n(0)]);
        assert_eq!(reply.rules.rule_count(), 2);
        assert_eq!(reply.echo_tag, tag);
        assert_eq!(sw.meta_tags.get(&n(0)), Some(&tag));
        assert_eq!(sw.stats().batches_applied, 1);
        assert_eq!(sw.stats().queries_answered, 1);
    }

    /// Message-size invariance: the reply is charged for every rule of the table it
    /// summarizes, as when the rules themselves travelled.
    #[test]
    fn reply_wire_size_counts_every_rule() {
        let mut sw = AbstractSwitch::new(n(9), SwitchConfig::default());
        for dst in 0..5 {
            sw.corrupt_install_rule(rule(0, 0, dst, 2, 4, 7));
        }
        for dst in 0..3 {
            sw.corrupt_install_rule(rule(1, 1, dst, 2, 4, 3));
        }
        sw.corrupt_add_manager(n(0));
        sw.corrupt_add_manager(n(1));
        let tag = Tag::new(0, 7);
        let reply = sw
            .apply_batch(&query_batch(0, tag, vec![]), &[n(3), n(4), n(5)])
            .unwrap();
        assert_eq!(reply.rules.owners().collect::<Vec<_>>(), vec![n(0), n(1)]);
        assert_eq!(reply.wire_size(), 16 + 4 * 3 + 4 * 2 + 24 * 8);
    }

    #[test]
    fn batch_without_query_returns_none() {
        let mut sw = AbstractSwitch::new(n(9), SwitchConfig::default());
        let batch = CommandBatch::new(n(0), vec![SwitchCommand::AddManager { controller: n(0) }]);
        assert!(sw.apply_batch(&batch, &[]).is_none());
        assert!(sw.managers().contains(n(0)));
    }

    #[test]
    fn del_commands_remove_state_of_other_controllers() {
        let mut sw = AbstractSwitch::new(n(9), SwitchConfig::default());
        // Controller 1 installs state.
        let t1 = Tag::new(1, 1);
        sw.apply_batch(
            &query_batch(
                1,
                t1,
                vec![
                    SwitchCommand::AddManager { controller: n(1) },
                    update(&[rule(1, 1, 5, 2, 4, 1)]),
                ],
            ),
            &[n(4)],
        );
        // Controller 0 removes controller 1 (it became unreachable).
        let t0 = Tag::new(0, 2);
        let reply = sw
            .apply_batch(
                &query_batch(
                    0,
                    t0,
                    vec![
                        SwitchCommand::DelManager { controller: n(1) },
                        SwitchCommand::DelAllRules { controller: n(1) },
                        SwitchCommand::AddManager { controller: n(0) },
                    ],
                ),
                &[n(4)],
            )
            .unwrap();
        assert_eq!(reply.managers, vec![n(0)]);
        assert_eq!(reply.rules.rule_count(), 0);
        assert_eq!(
            sw.meta_tags.get(&n(1)),
            None,
            "delAllRules drops the meta tag too"
        );
        assert_eq!(sw.stats().managers_deleted, 1);
        assert_eq!(sw.stats().rules_deleted, 1);
    }

    #[test]
    fn update_rules_only_touches_the_sender() {
        let mut sw = AbstractSwitch::new(n(9), SwitchConfig::default());
        sw.apply_batch(
            &query_batch(1, Tag::new(1, 1), vec![update(&[rule(1, 1, 5, 2, 4, 1)])]),
            &[],
        );
        sw.apply_batch(
            &query_batch(0, Tag::new(0, 1), vec![update(&[rule(0, 0, 5, 2, 4, 1)])]),
            &[],
        );
        assert_eq!(sw.rules().rules_of(n(1)).len(), 1);
        assert_eq!(sw.rules().rules_of(n(0)).len(), 1);
    }

    #[test]
    fn forwarding_uses_rules_and_counts_drops() {
        let mut sw = AbstractSwitch::new(n(9), SwitchConfig::default());
        sw.corrupt_install_rule(rule(0, 0, 5, 2, 4, 1));
        sw.corrupt_install_rule(rule(0, 0, 5, 1, 3, 1));
        let hop = sw.next_hop(n(0), n(5), &[], &[n(3), n(4)], |_| true);
        assert_eq!(hop, Some(n(4)), "highest priority rule wins");
        // Out-link to 4 down: fall back to the lower-priority rule.
        let hop = sw.next_hop(n(0), n(5), &[], &[n(3), n(4)], |h| h != n(4));
        assert_eq!(hop, Some(n(3)));
        // No rule matches and the destination is not a neighbor: drop.
        let hop = sw.next_hop(n(1), n(7), &[], &[n(3), n(4)], |_| true);
        assert_eq!(hop, None);
        assert_eq!(sw.stats().packets_forwarded, 2);
        assert_eq!(sw.stats().packets_dropped, 1);
    }

    #[test]
    fn forwarding_falls_back_to_direct_neighbor() {
        let mut sw = AbstractSwitch::new(n(9), SwitchConfig::default());
        // No rules at all, but the destination is an operational neighbor.
        let hop = sw.next_hop(n(0), n(4), &[], &[n(3), n(4)], |_| true);
        assert_eq!(hop, Some(n(4)));
    }

    #[test]
    fn corruption_helpers_modify_state() {
        let mut sw = AbstractSwitch::new(n(9), SwitchConfig::default());
        sw.corrupt_add_manager(n(7));
        sw.corrupt_install_rule(rule(7, 7, 1, 1, 3, 99));
        assert!(sw.managers().contains(n(7)));
        assert_eq!(sw.rules().len(), 1);
        sw.corrupt_clear();
        assert!(sw.managers().is_empty());
        assert!(sw.rules().is_empty());
        assert_eq!(sw.meta_tags.get(&n(7)), None);
    }

    #[test]
    fn config_for_network_matches_lemma1_bound() {
        let cfg = SwitchConfig::for_network(3, 20, 4);
        assert!(cfg.max_rules >= 3 * 19 * 4);
        assert_eq!(cfg.max_managers, 3);
        // Degenerate inputs do not underflow.
        let tiny = SwitchConfig::for_network(0, 0, 0);
        assert!(tiny.max_rules >= 1);
        assert_eq!(tiny.max_managers, 1);
    }
}
