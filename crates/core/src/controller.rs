//! The Renaissance controller: the self-stabilizing SDN control-plane algorithm
//! (paper, Algorithm 2).
//!
//! A [`Controller`] is a pure state machine: [`Controller::iterate`] runs one iteration
//! of the do-forever loop and returns the command batches to send, and
//! [`Controller::on_reply`] / [`Controller::on_query`] handle incoming messages. All
//! networking (packet envelopes, in-band forwarding, timers) lives in
//! [`crate::nodes`], which keeps this module testable in isolation.

pub(crate) mod derived;

use crate::config::{ControllerConfig, Variant};
use crate::reply_db::{InsertOutcome, ReplyDb, View};
use derived::{Derived, PlanTable};
use sdn_rng::Rng;
use sdn_switch::{CommandBatch, QueryReply, SwitchCommand};
use sdn_tags::{IdRange, RoundTracker, Tag, TagGenerator};
use sdn_topology::{Graph, NodeId};
use std::sync::Arc;

/// Counters describing a controller's activity; several experiments (Figure 9, the
/// Theorem 1 illegitimate-deletion bound) are read straight off these numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Iterations of the do-forever loop executed.
    pub iterations: u64,
    /// Synchronization rounds completed (new tags generated).
    pub rounds_completed: u64,
    /// Query commands sent.
    pub queries_sent: u64,
    /// `updateRule` commands sent.
    pub rule_updates_sent: u64,
    /// `delMngr` commands sent (removal of other controllers from switches).
    pub manager_deletions_requested: u64,
    /// `delAllRules` commands sent (removal of other controllers' rules).
    pub rule_deletions_requested: u64,
    /// Query replies accepted into `replyDB`.
    pub replies_accepted: u64,
    /// Query replies ignored because they carried a stale tag.
    pub replies_ignored: u64,
    /// Queries from other controllers answered.
    pub queries_answered: u64,
    /// Derived views (`G(res(tag))`, `G(fusion)`) an iteration had to build.
    pub views_built: u64,
    /// Derived views an iteration found already built from the same inputs.
    pub views_reused: u64,
    /// Routing plans this controller computed itself.
    pub plans_built: u64,
    /// Routing plans this controller took from the network's plan table, computed
    /// by another controller, or by itself, that still held them.
    pub plans_shared: u64,
    /// `myRules()` sets this controller ranked itself: its plan's shared sets lacked them.
    pub rule_sets_built: u64,
    /// `myRules()` sets this controller took from its plan's shared sets, already ranked.
    pub rule_sets_shared: u64,
}

/// Whether two views hold the same topology: shared, or equal by value.
fn same_graph(a: &Arc<View>, b: &Arc<View>) -> bool {
    Arc::ptr_eq(a, b) || a.graph() == b.graph()
}

/// One Renaissance controller (a member of `PC`).
#[derive(Clone, Debug)]
pub struct Controller {
    id: NodeId,
    config: ControllerConfig,
    reply_db: ReplyDb,
    rounds: RoundTracker,
    tag_gen: TagGenerator,
    /// The views and the plan with its rule sets, re-derivable from the fields above.
    derived: Derived,
    stats: ControllerStats,
}

impl Controller {
    /// Creates a controller with empty knowledge of the network, sharing its plans
    /// with no other controller.
    pub fn new(id: NodeId, config: ControllerConfig) -> Self {
        Controller::with_plans(id, config, PlanTable::new(config))
    }

    /// Creates a controller with empty knowledge of the network that shares `plans`, a
    /// table made for `config`, with every other controller of it.
    pub(crate) fn with_plans(id: NodeId, config: ControllerConfig, plans: PlanTable) -> Self {
        let mut tag_gen = TagGenerator::new(id.index());
        let rounds = RoundTracker::new(tag_gen.next_tag());
        Controller {
            id,
            config,
            reply_db: ReplyDb::new(config.max_replies),
            rounds,
            tag_gen,
            derived: Derived::new(plans),
            stats: ControllerStats::default(),
        }
    }

    /// This controller's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The configuration this controller runs with.
    pub fn config(&self) -> ControllerConfig {
        self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// A counter that bumps whenever the plan behind [`Controller::first_hop_candidates`]
    /// is replaced, so it stands still while a network is settled; condition 3's memo
    /// keys on it.
    pub fn plan_version(&self) -> u64 {
        self.derived.plan_version()
    }

    /// The current synchronization-round tag (`currTag`).
    pub fn curr_tag(&self) -> Tag {
        self.rounds.curr()
    }

    /// The previous synchronization-round tag (`prevTag`).
    pub fn prev_tag(&self) -> Tag {
        self.rounds.prev()
    }

    /// Read-only access to the reply database.
    pub fn reply_db(&self) -> &ReplyDb {
        &self.reply_db
    }

    /// Number of C-resets this controller has performed.
    pub fn c_resets(&self) -> u64 {
        self.reply_db.c_resets()
    }

    /// The topology this controller currently believes in (the fusion view of
    /// Algorithm 2 line 5, including its own neighborhood).
    pub fn discovered_graph(&self, neighbors: &[NodeId]) -> Graph {
        let (curr, prev) = (self.rounds.curr(), self.rounds.prev());
        (self.derived).graph(self.reply_db.fusion(curr, prev, self.id, neighbors))
    }

    /// The first-hop candidates (in priority order) this controller would use to reach
    /// `dst`, according to its latest routing plan, ranked when asked for.
    pub fn first_hop_candidates(&self, dst: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.derived.plan().next_hops(self.id, dst)
    }

    /// The first plan candidate towards `dst` that is currently an observed neighbor.
    pub fn first_hop(&self, dst: NodeId, neighbors: &[NodeId]) -> Option<NodeId> {
        self.first_hop_candidates(dst)
            .find(|h| neighbors.contains(h))
    }

    /// One iteration of the do-forever loop (Algorithm 2 lines 7–19).
    ///
    /// `neighbors` is the controller's currently observed neighborhood `Nc(i)`.
    /// Returns the per-destination command batches to send; the caller is responsible
    /// for wrapping them into in-band packets and routing them hop by hop.
    pub fn iterate(&mut self, neighbors: &[NodeId]) -> Vec<(NodeId, CommandBatch)> {
        self.stats.iterations += 1;

        // Line 8: keep only live, reachable replies; re-learn every tag seen so far so
        // that nextTag() stays ahead of anything in the system (past `u64::MAX` it
        // wraps to 0, which the `sdn_tags` crate docs show costs a few rounds at most).
        let id = self.id;
        let (curr, prev) = (self.rounds.curr(), self.rounds.prev());
        self.reply_db.prune(id, [curr, prev], |db, tag| {
            (self.derived).view(db.res(tag, id, neighbors), &mut self.stats)
        });
        // The generator only keeps the running max, so one representative tag is
        // equivalent to observing every tag in the database (`observed_tags`).
        if let Some(tag) = self.reply_db.max_observed_tag() {
            self.tag_gen.observe(tag);
        }

        // Lines 10–12: finish the round when every reachable node has answered it.
        let res_curr = (self.derived).view(self.reply_db.res(curr, id, neighbors), &mut self.stats);
        let new_round = self.reply_db.round_complete(curr, id, &res_curr);
        if new_round {
            let next = self.tag_gen.next_tag();
            self.rounds.start_round(next);
            self.reply_db.drop_tag(self.rounds.curr());
            self.stats.rounds_completed += 1;
        }
        let (curr, prev) = (self.rounds.curr(), self.rounds.prev());

        // Line 13: pick the reference view for rule generation. Reachability in the
        // *previous* round's view also decides which controllers are considered alive
        // when a new round cleans up stale state (line 15).
        let fusion = self.reply_db.fusion(curr, prev, id, neighbors);
        let fusion = self.derived.view(fusion, &mut self.stats);
        let res_prev = (self.derived).view(self.reply_db.res(prev, id, neighbors), &mut self.stats);
        let (refer_tag, refer) = if same_graph(&fusion, &res_prev) {
            (prev, &res_prev)
        } else {
            (curr, &fusion)
        };

        // The reference graph always equals the fusion view (taking `prev` means the two
        // coincide), so the rule plan doubles as the controller's own routing plan.
        // Controllers never relay packets, so flows must not be planned through them.
        let relays = |n: NodeId| !n.is_controller(self.config.n_controllers);
        self.derived.plan_for(refer, relays, &mut self.stats);

        // Lines 14–19: build one batch per reachable node.
        let mut messages = Vec::new();
        for &dst in fusion.reachable() {
            if dst == self.id {
                continue;
            }
            let mut commands = vec![SwitchCommand::NewRound { tag: curr }];
            if dst.is_switch(self.config.n_controllers) {
                if let Some(reply) = self.reply_db.get(dst, refer_tag) {
                    let (manager_deletions, rule_deletions) = switch_update_commands(
                        self.config,
                        self.id,
                        reply,
                        new_round,
                        &res_prev,
                        &mut commands,
                    );
                    self.stats.manager_deletions_requested += manager_deletions;
                    self.stats.rule_deletions_requested += rule_deletions;
                } else {
                    // Query-and-modify-by-neighbor (paper, Section 2.1.1): a switch we
                    // discovered through a neighbor's reply but have not heard from yet
                    // still gets a flow towards us installed — otherwise its own reply
                    // could never travel back and discovery would stall at distance two.
                    commands.push(SwitchCommand::AddManager {
                        controller: self.id,
                    });
                }
                commands.push(SwitchCommand::UpdateRules {
                    tag: curr,
                    rules: self.derived.my_rules(dst, &mut self.stats),
                    keep_tags: vec![prev],
                });
                self.stats.rule_updates_sent += 1;
            }
            commands.push(SwitchCommand::Query { tag: curr });
            self.stats.queries_sent += 1;
            messages.push((dst, CommandBatch::new(self.id, commands)));
        }
        messages
    }

    /// Handles a query reply travelling back to this controller
    /// (Algorithm 2 lines 20–22).
    pub fn on_reply(&mut self, reply: QueryReply) {
        self.tag_gen.observe(reply.echo_tag);
        match self.reply_db.insert(reply, self.rounds.curr()) {
            InsertOutcome::Stored | InsertOutcome::StoredAfterReset => {
                self.stats.replies_accepted += 1;
            }
            InsertOutcome::IgnoredStaleTag => {
                self.stats.replies_ignored += 1;
            }
        }
    }

    /// Handles a query from another controller (Algorithm 2 line 23): the response
    /// carries only this controller's identity and neighborhood.
    pub fn on_query(&mut self, _from: NodeId, tag: Tag, neighbors: &[NodeId]) -> QueryReply {
        self.stats.queries_answered += 1;
        self.tag_gen.observe(tag);
        QueryReply::from_controller(self.id, neighbors.to_vec(), tag)
    }

    // ------------------------------------------------------------------
    // Transient faults (Theorem 2 experiments).
    // ------------------------------------------------------------------

    /// Rewrites every part of the controller's memory as a transient fault may, and
    /// stores up to 16 scrambled replies past the tag check.
    pub(crate) fn scramble(&mut self, rng: &mut Rng, ids: IdRange) {
        let Controller {
            id: _,     // identity, not memory a fault reaches
            config: _, // the deployment's configuration
            reply_db,
            rounds,
            tag_gen,
            derived,
            stats: _, // counters the experiments read, not algorithm state
        } = self;
        reply_db.scramble(rng, ids);
        rounds.scramble(rng, ids);
        tag_gen.scramble(rng);
        derived.scramble(rng, ids);
        for _ in 0..rng.gen_range(0..=16u32) {
            self.corrupt_inject_reply(QueryReply::scrambled(rng, ids));
        }
    }

    /// Corrupts the round tags — models a transient fault hitting the controller.
    // stancheck: allow(test-only-api) — transient-fault hook for Theorem 2 experiments: the exact write the pinned tag tests make; `scramble` draws the tags through `RoundTracker::scramble`
    pub fn corrupt_tags(&mut self, curr: Tag, prev: Tag) {
        self.rounds.corrupt(curr, prev);
    }

    /// Injects an arbitrary (possibly bogus) reply into `replyDB`, bypassing the tag
    /// check — models a transient fault corrupting the controller's memory.
    pub fn corrupt_inject_reply(&mut self, reply: QueryReply) {
        let tag = reply.echo_tag;
        let _ = self.reply_db.insert(reply, tag);
    }
}

/// Appends the manager / stale-rule cleanup commands for one switch to `commands`,
/// returning the `(delMngr, delAllRules)` counts for the stats.
///
/// The cleanup criterion follows the paper's Algorithm 1 (line 10): at the start of
/// a new synchronization round, remove any manager or rule belonging to a controller
/// that was *not discovered to be reachable* during the previous round. (Algorithm 2
/// line 15 additionally keys the decision on whether the manager currently has rules
/// in the queried snapshot; because every query is answered after the same batch's
/// deletions are applied, that extra condition lets two live controllers alternately
/// delete each other's state forever under an unlucky deterministic schedule, so we
/// implement the reachability-only criterion that Algorithm 1 describes. See
/// README.md, "Deviations from the paper".)
///
/// The non-memory-adaptive variant (Section 8.1) issues no deletions at all and
/// leaves cleanup to the switches' own eviction.
fn switch_update_commands(
    config: ControllerConfig,
    self_id: NodeId,
    reply: &QueryReply,
    new_round: bool,
    res_prev: &View,
    commands: &mut Vec<SwitchCommand>,
) -> (u64, u64) {
    let mut manager_deletions = 0u64;
    let mut rule_deletions = 0u64;
    if config.variant == Variant::MemoryAdaptive && new_round {
        let is_stale = |k: &NodeId| {
            *k != self_id && (!k.is_controller(config.n_controllers) || !res_prev.reaches(*k))
        };
        for &manager in &reply.managers {
            if is_stale(&manager) {
                commands.push(SwitchCommand::DelManager {
                    controller: manager,
                });
                manager_deletions += 1;
            }
        }
        for cid in reply.rules.owners() {
            if is_stale(&cid) {
                commands.push(SwitchCommand::DelAllRules { controller: cid });
                rule_deletions += 1;
            }
        }
    }
    commands.push(SwitchCommand::AddManager {
        controller: self_id,
    });
    (manager_deletions, rule_deletions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HarnessConfig;
    use crate::faults::Action;
    use crate::harness::SdnNetwork;
    use derived::SharedPlan;
    use sdn_netsim::SimDuration;
    use sdn_switch::{Rule, RuleSet, RuleSummary};
    use std::collections::{BTreeMap, BTreeSet};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn config() -> ControllerConfig {
        ControllerConfig::for_network(1, 4)
    }

    fn reply_from_switch(
        responder: u32,
        neighbors: &[u32],
        managers: &[u32],
        rules: Vec<Rule>,
        tag: Tag,
    ) -> QueryReply {
        QueryReply {
            responder: n(responder),
            neighbors: neighbors.iter().map(|&i| n(i)).collect(),
            managers: managers.iter().map(|&i| n(i)).collect(),
            rules: RuleSummary::from_rules(&rules),
            echo_tag: tag,
        }
    }

    fn stale_rule(cid: u32) -> Rule {
        Rule {
            cid: n(cid),
            src: None,
            dst: n(0),
            prt: 1,
            fwd: n(0),
            tag: Tag::new(cid, 1),
        }
    }

    /// The tag and the rule set of the batch's `updateRule` command, if it has one.
    fn update_rules(batch: &CommandBatch) -> Option<(Tag, RuleSet)> {
        batch.commands.iter().find_map(|c| match c {
            SwitchCommand::UpdateRules { tag, rules, .. } => Some((*tag, rules.clone())),
            _ => None,
        })
    }

    /// The rule set `out` carries for `switch`.
    fn rules_for(out: &[(NodeId, CommandBatch)], switch: u32) -> RuleSet {
        let batch = &out.iter().find(|(d, _)| *d == n(switch)).unwrap().1;
        update_rules(batch)
            .unwrap_or_else(|| panic!("switch {switch} must receive rules"))
            .1
    }

    /// Line topology: controller 0 — switch 1 — switch 2 — switch 3.
    fn run_discovery_round_trip(controller: &mut Controller, hops: &[(u32, Vec<u32>)]) {
        // Simulate one query/reply exchange: every switch in `hops` answers with its
        // neighborhood, tagged with the controller's current round.
        let tag = controller.curr_tag();
        for (switch, neighbors) in hops {
            controller.on_reply(reply_from_switch(*switch, neighbors, &[0], vec![], tag));
        }
    }

    #[test]
    fn first_iteration_queries_direct_neighbors_only() {
        let mut c = Controller::new(n(0), config());
        let out = c.iterate(&[n(1)]);
        assert_eq!(out.len(), 1);
        let (dst, batch) = &out[0];
        assert_eq!(*dst, n(1));
        assert_eq!(batch.from, n(0));
        assert_eq!(batch.query_tag(), Some(c.curr_tag()));
        // Even before switch 1 has ever replied, the controller installs a flow towards
        // itself (query-and-modify-by-neighbor) so the reply can travel back in-band.
        let (_, rules) = update_rules(batch).expect("bootstrap batch must install a flow");
        assert!(rules.iter().any(|r| r.dst == n(0)));
        assert_eq!(c.stats().iterations, 1);
        assert_eq!(c.stats().queries_sent, 1);
    }

    #[test]
    fn discovery_expands_hop_by_hop() {
        let mut c = Controller::new(n(0), config());
        let _ = c.iterate(&[n(1)]);
        // Switch 1 answers: it also sees switch 2.
        run_discovery_round_trip(&mut c, &[(1, vec![0, 2])]);
        let out = c.iterate(&[n(1)]);
        let destinations: Vec<NodeId> = out.iter().map(|(d, _)| *d).collect();
        assert!(destinations.contains(&n(1)));
        assert!(
            destinations.contains(&n(2)),
            "second hop discovered via switch 1's reply"
        );
        // Switch 1 (which has answered) and the freshly discovered switch 2 both receive
        // rule updates; switch 2's rules give it a path back to the controller via 1.
        for switch in [n(1), n(2)] {
            let rules = rules_for(&out, switch.index());
            assert!(
                rules.iter().any(|r| r.dst == n(0)),
                "switch {switch} needs a flow to the controller"
            );
        }
    }

    #[test]
    fn rules_cover_every_discovered_destination_bidirectionally() {
        let mut c = Controller::new(n(0), config());
        let _ = c.iterate(&[n(1)]);
        run_discovery_round_trip(&mut c, &[(1, vec![0, 2]), (2, vec![1, 3]), (3, vec![2])]);
        let out = c.iterate(&[n(1)]);
        let batch_for_2 = &out.iter().find(|(d, _)| *d == n(2)).unwrap().1;
        let (tag, rules) = update_rules(batch_for_2).expect("switch 2 must receive rules");
        // Switch 2 must know how to reach the controller (0), switch 1 and switch 3.
        for dst in [0u32, 1, 3] {
            assert!(
                rules.iter().any(|r| r.dst == n(dst)),
                "missing rule towards {dst}"
            );
        }
        // All rules carry the current tag and our controller id.
        assert_eq!(batch_for_2.from, n(0));
        assert_eq!(tag, c.curr_tag());
    }

    #[test]
    fn round_completes_once_all_reachable_nodes_answer() {
        let mut c = Controller::new(n(0), config());
        let _ = c.iterate(&[n(1)]);
        run_discovery_round_trip(&mut c, &[(1, vec![0, 2])]);
        let before = c.stats().rounds_completed;
        let _ = c.iterate(&[n(1)]);
        assert_eq!(
            c.stats().rounds_completed,
            before,
            "switch 2 has not answered yet, the round must not complete"
        );
        run_discovery_round_trip(&mut c, &[(1, vec![0, 2]), (2, vec![1])]);
        let tag_before = c.curr_tag();
        let _ = c.iterate(&[n(1)]);
        assert_eq!(c.stats().rounds_completed, before + 1);
        assert!(
            c.curr_tag() > tag_before,
            "a fresh, larger tag starts the new round"
        );
        assert_eq!(c.prev_tag(), tag_before);
    }

    #[test]
    fn stale_controller_state_is_cleaned_up_on_new_rounds() {
        let mut c = Controller::new(n(0), config());
        let _ = c.iterate(&[n(1)]);
        // Switch 1 reports a manager (controller 7) that does not exist any more, with
        // leftover rules, and switch 2 completes the discovery.
        let tag = c.curr_tag();
        c.on_reply(reply_from_switch(
            1,
            &[0, 2],
            &[0, 7],
            vec![stale_rule(7)],
            tag,
        ));
        c.on_reply(reply_from_switch(2, &[1], &[0], vec![], tag));
        // This iteration completes the round; the next one must emit the cleanup.
        let _ = c.iterate(&[n(1)]);
        let tag = c.curr_tag();
        c.on_reply(reply_from_switch(
            1,
            &[0, 2],
            &[0, 7],
            vec![stale_rule(7)],
            tag,
        ));
        c.on_reply(reply_from_switch(2, &[1], &[0], vec![], tag));
        let out = c.iterate(&[n(1)]);
        let batch_for_1 = &out.iter().find(|(d, _)| *d == n(1)).unwrap().1;
        assert!(
            batch_for_1.commands.iter().any(
                |cmd| matches!(cmd, SwitchCommand::DelManager { controller } if *controller == n(7))
            ),
            "unreachable controller 7 must be removed from the manager set"
        );
        assert!(
            batch_for_1
                .commands
                .iter()
                .any(|cmd| matches!(cmd, SwitchCommand::DelAllRules { controller } if *controller == n(7))),
            "controller 7's rules must be purged"
        );
        assert!(c.stats().manager_deletions_requested >= 1);
        assert!(c.stats().rule_deletions_requested >= 1);
    }

    #[test]
    fn stale_owner_hidden_inside_a_live_owners_block_is_still_purged() {
        let mut c = Controller::new(n(0), config());
        let _ = c.iterate(&[n(1)]);
        // Switch 1's rules as a corrupted memory might list them: controller 7's one
        // leftover, under a tag of long ago, sits between the live controller's rules.
        let live = |dst: u32, tag: Tag| Rule {
            dst: n(dst),
            tag,
            ..stale_rule(0)
        };
        let rules = |tag: Tag| vec![live(2, tag), stale_rule(7), live(3, tag)];
        let tag = c.curr_tag();
        c.on_reply(reply_from_switch(1, &[0], &[0], rules(tag), tag));
        // This iteration completes the round; the next one must emit the cleanup.
        let _ = c.iterate(&[n(1)]);
        let tag = c.curr_tag();
        c.on_reply(reply_from_switch(1, &[0], &[0], rules(tag), tag));
        let out = c.iterate(&[n(1)]);
        let purged: Vec<NodeId> = out[0]
            .1
            .commands
            .iter()
            .filter_map(|cmd| match cmd {
                SwitchCommand::DelAllRules { controller } => Some(*controller),
                _ => None,
            })
            .collect();
        assert_eq!(
            purged,
            vec![n(7)],
            "the stale owner, and only it, is purged"
        );
    }

    #[test]
    fn non_adaptive_variant_never_requests_deletions() {
        let mut c = Controller::new(n(0), config().non_adaptive());
        let _ = c.iterate(&[n(1)]);
        let tag = c.curr_tag();
        c.on_reply(reply_from_switch(
            1,
            &[0],
            &[0, 7],
            vec![stale_rule(7)],
            tag,
        ));
        let _ = c.iterate(&[n(1)]);
        let tag = c.curr_tag();
        c.on_reply(reply_from_switch(
            1,
            &[0],
            &[0, 7],
            vec![stale_rule(7)],
            tag,
        ));
        let out = c.iterate(&[n(1)]);
        let batch_for_1 = &out.iter().find(|(d, _)| *d == n(1)).unwrap().1;
        assert!(!batch_for_1.commands.iter().any(|cmd| matches!(
            cmd,
            SwitchCommand::DelManager { .. } | SwitchCommand::DelAllRules { .. }
        )));
        assert_eq!(c.stats().manager_deletions_requested, 0);
        assert_eq!(c.stats().rule_deletions_requested, 0);
    }

    #[test]
    fn three_tag_variant_keeps_previous_round_rules() {
        let mut c = Controller::new(n(0), config());
        let _ = c.iterate(&[n(1)]);
        run_discovery_round_trip(&mut c, &[(1, vec![0])]);
        let prev = c.curr_tag();
        let _ = c.iterate(&[n(1)]); // completes the round
        run_discovery_round_trip(&mut c, &[(1, vec![0])]);
        let out = c.iterate(&[n(1)]);
        let batch_for_1 = &out.iter().find(|(d, _)| *d == n(1)).unwrap().1;
        let keep_tags = batch_for_1
            .commands
            .iter()
            .find_map(|cmd| match cmd {
                SwitchCommand::UpdateRules { keep_tags, .. } => Some(keep_tags.clone()),
                _ => None,
            })
            .unwrap();
        assert!(keep_tags.contains(&prev) || keep_tags.contains(&c.prev_tag()));
    }

    #[test]
    fn replies_with_stale_tags_are_ignored() {
        let mut c = Controller::new(n(0), config());
        let _ = c.iterate(&[n(1)]);
        c.on_reply(reply_from_switch(1, &[0], &[0], vec![], Tag::new(9, 999)));
        assert_eq!(c.stats().replies_ignored, 1);
        assert_eq!(c.stats().replies_accepted, 0);
        // The bogus tag was observed, so the next generated tag jumps past it.
        run_discovery_round_trip(&mut c, &[(1, vec![0])]);
        let _ = c.iterate(&[n(1)]);
        assert!(c.curr_tag().value() > 999);
    }

    #[test]
    fn controller_answers_queries_with_its_neighborhood_only() {
        let mut c = Controller::new(n(0), config());
        let reply = c.on_query(n(1), Tag::new(1, 5), &[n(2), n(3)]);
        assert_eq!(reply.responder, n(0));
        assert_eq!(reply.neighbors, vec![n(2), n(3)]);
        assert!(reply.managers.is_empty());
        assert_eq!(reply.rules.rule_count(), 0);
        assert_eq!(reply.echo_tag, Tag::new(1, 5));
        assert_eq!(c.stats().queries_answered, 1);
    }

    #[test]
    fn first_hop_candidates_follow_the_plan() {
        let mut c = Controller::new(n(0), config());
        let _ = c.iterate(&[n(1)]);
        run_discovery_round_trip(&mut c, &[(1, vec![0, 2]), (2, vec![1])]);
        let _ = c.iterate(&[n(1)]);
        assert_eq!(c.first_hop_candidates(n(2)).collect::<Vec<_>>(), vec![n(1)]);
        assert_eq!(c.first_hop_candidates(n(99)).count(), 0);
    }

    /// `myRules()` is built once per (plan, switch): iterations over an unchanged view
    /// hand out the same allocation, a completed round (new tag) still does, and a
    /// changed reference graph hands out new sets — and only it moves `plan_version`.
    #[test]
    fn rule_sets_are_shared_until_the_plan_changes() {
        let mut c = Controller::new(n(0), config());
        let _ = c.iterate(&[n(1)]);
        let answer = |c: &mut Controller| {
            run_discovery_round_trip(c, &[(1, vec![0, 2]), (2, vec![1])]);
        };
        answer(&mut c);
        let first = c.iterate(&[n(1)]);
        let planned = c.plan_version();
        let second = c.iterate(&[n(1)]);
        assert_eq!(c.plan_version(), planned);
        for switch in [1, 2] {
            let (a, b) = (rules_for(&first, switch), rules_for(&second, switch));
            assert!(!a.is_empty());
            assert!(RuleSet::ptr_eq(&a, &b), "switch {switch}: unchanged view");
        }

        // Both switches answer the current round: the next iteration starts a new one.
        answer(&mut c);
        let rounds = c.stats().rounds_completed;
        let third = c.iterate(&[n(1)]);
        assert_eq!(c.stats().rounds_completed, rounds + 1);
        assert_eq!(c.plan_version(), planned);
        assert_ne!(
            update_rules(&third[0].1).unwrap().0,
            update_rules(&second[0].1).unwrap().0,
            "the new round sends a new tag"
        );
        for switch in [1, 2] {
            let (a, b) = (rules_for(&second, switch), rules_for(&third, switch));
            assert!(
                RuleSet::ptr_eq(&a, &b),
                "switch {switch}: new round, same plan"
            );
        }

        // Switch 2 reports a new neighbor: the reference graph, and so the plan, change.
        let tag = c.curr_tag();
        c.on_reply(reply_from_switch(2, &[1, 3], &[0], vec![], tag));
        let fourth = c.iterate(&[n(1)]);
        assert_eq!(c.plan_version(), planned + 1);
        for switch in [1, 2] {
            let (a, b) = (rules_for(&third, switch), rules_for(&fourth, switch));
            assert!(!RuleSet::ptr_eq(&a, &b), "switch {switch}: new plan");
            assert!(b.iter().any(|r| r.dst == n(3)));
        }
    }

    /// `G(res(tag))` (`fusion` false, `curr == prev == tag`) or `G(fusion)` written out
    /// as Algorithm 2 states them, with the set of nodes `self_id` reaches: the oracle
    /// the streamed claims, the keys and the memo are held to.
    fn literal_view(
        db: &ReplyDb,
        (curr, prev, fusion): (Tag, Tag, bool),
        self_id: NodeId,
        self_neighbors: &[NodeId],
    ) -> (Graph, Vec<NodeId>) {
        let mut chosen: BTreeMap<NodeId, &QueryReply> = BTreeMap::new();
        for tag in [prev, curr] {
            for ((node, t), reply) in db.iter() {
                if *t == tag {
                    chosen.insert(*node, reply);
                }
            }
        }
        let mut g = Graph::new();
        g.add_node(self_id);
        for &nb in self_neighbors {
            g.add_link(self_id, nb);
        }
        for (&node, reply) in &chosen {
            g.add_node(node);
            for &nb in reply.neighbors.iter().filter(|&&nb| nb != node) {
                let contradicted = if nb == self_id {
                    !self_neighbors.contains(&node)
                } else {
                    chosen.get(&nb).is_some_and(|other| {
                        other.echo_tag > reply.echo_tag && !other.neighbors.contains(&node)
                    })
                };
                if !(fusion && contradicted) {
                    g.add_link(node, nb);
                }
            }
        }
        let mut reached = BTreeSet::from([self_id]);
        let mut frontier = vec![self_id];
        while let Some(at) = frontier.pop() {
            frontier.extend(g.neighbors(at).filter(|&nb| reached.insert(nb)));
        }
        (g, reached.into_iter().collect())
    }

    #[test]
    fn memoized_views_equal_the_literal_derivation() {
        use sdn_rng::Rng;
        // Asymmetric claims: what a node lists is independent of who lists it, and may
        // name the node itself, the controller, or nobody at all.
        fn claim(rng: &mut Rng, tag: Tag) -> QueryReply {
            let listed = (0..rng.gen_range(0..4u32)).map(|_| rng.gen_range(0..11u32));
            let listed: Vec<u32> = listed.collect();
            reply_from_switch(rng.gen_range(0..11u32), &listed, &[0], vec![], tag)
        }
        let tags = [1u64, 2, 2, 3, 7].map(|value| Tag::new(0, value));
        let (mut hits, mut lookups) = (0u32, 0u32);
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from_u64(seed);
            // A capacity of 12 makes overflowing C-resets part of the sequence.
            let tight = ControllerConfig {
                max_replies: 12,
                ..ControllerConfig::for_network(2, 8)
            };
            let mut c = Controller::new(n(0), tight);
            let mut neighbors = vec![n(2)];
            for step in 0..150 {
                match rng.gen_range(0..12u32) {
                    0..=4 => c.on_reply(claim(&mut rng, c.curr_tag())),
                    5 => {
                        let tag = tags[rng.gen_range(0..5usize)];
                        c.corrupt_inject_reply(claim(&mut rng, tag));
                    }
                    6 => {
                        // Any order of the two tags, `curr < prev` and `curr == prev` included.
                        let (curr, prev) = (rng.gen_range(0..5usize), rng.gen_range(0..5usize));
                        c.corrupt_tags(tags[curr], tags[prev]);
                    }
                    7 => {
                        neighbors = (2..6).filter(|_| rng.gen_bool(0.5)).map(n).collect();
                    }
                    8 => c.reply_db.drop_tag(c.prev_tag()),
                    9 if rng.gen_bool(0.2) => c.reply_db.c_reset(),
                    _ => {
                        let _ = c.iterate(&neighbors);
                    }
                }
                let (curr, prev) = (c.curr_tag(), c.prev_tag());
                for select in [(curr, curr, false), (prev, prev, false), (curr, prev, true)] {
                    let expected = literal_view(&c.reply_db, select, n(0), &neighbors);
                    let input = match select {
                        (tag, _, false) => c.reply_db.res(tag, n(0), &neighbors),
                        _ => c.reply_db.fusion(curr, prev, n(0), &neighbors),
                    };
                    let mut stats = ControllerStats::default();
                    let view = c.derived.clone().view(input, &mut stats);
                    lookups += 1;
                    hits += u32::from(stats.views_reused > 0);
                    assert_eq!(
                        (view.graph(), view.reachable()),
                        (&expected.0, &expected.1[..]),
                        "seed {seed} step {step} {select:?}"
                    );
                    let lists = (expected.0.nodes().collect(), expected.0.links().collect());
                    assert_eq!(input.key().lists(), lists, "seed {seed} step {step}");
                }
                let expected = literal_view(&c.reply_db, (curr, prev, true), n(0), &neighbors);
                assert_eq!(c.discovered_graph(&neighbors), expected.0);
            }
        }
        assert!(
            hits > lookups / 10 && hits < lookups,
            "both the reuse and the build path are exercised: {hits} of {lookups}"
        );
    }

    /// Three controllers fed one reply stream emit the same batches and end in the
    /// same state: one keeps its memos, one forgets its views before every iteration,
    /// and one starts every iteration from fresh memos over a fresh plan table, so it
    /// re-derives every view, plan and rule set it reads.
    #[test]
    fn forgetting_the_views_changes_nothing_a_controller_emits() {
        use sdn_rng::Rng;
        for seed in 0..20u64 {
            let mut rng = Rng::seed_from_u64(seed);
            // Controller 0 on a ring of switches 1..=6 with one chord; links come and go.
            let mut truth = Graph::from_links((1..=6).map(|i| (n(i), n(i % 6 + 1))));
            truth.add_link(n(0), n(1));
            truth.add_link(n(0), n(4));
            truth.add_link(n(2), n(5));
            let mut twins = [(); 3].map(|()| Controller::new(n(0), config()));
            for step in 0..150 {
                let (a, b) = (n(rng.gen_range(0..7u32)), n(rng.gen_range(1..7u32)));
                if a != b && rng.gen_bool(0.15) && !truth.remove_link(a, b) {
                    truth.add_link(a, b);
                }
                if rng.gen_bool(0.03) {
                    let ahead = Tag::new(0, twins[0].curr_tag().value() + rng.gen_range(0..3u64));
                    let bogus = reply_from_switch(9, &[3, u32::MAX - 1], &[9], vec![], ahead);
                    for twin in &mut twins {
                        twin.corrupt_tags(twin.prev_tag(), ahead);
                        twin.corrupt_inject_reply(bogus.clone());
                    }
                }
                let neighbors = truth.neighbor_vec(n(0));
                twins[1].derived.forget_views();
                twins[2].derived = Derived::new(PlanTable::new(config()));
                let [out, forgot, fresh] = twins.each_mut().map(|twin| twin.iterate(&neighbors));
                assert_eq!(out, forgot, "seed {seed} step {step}");
                assert_eq!(out, fresh, "seed {seed} step {step}: fresh memos");
                // Most switches answer, with what they see now; some replies are lost.
                for (dst, batch) in out {
                    if truth.degree(dst) > 0 && rng.gen_bool(0.85) {
                        let listed: Vec<u32> = truth.neighbors(dst).map(NodeId::index).collect();
                        let tag = batch.query_tag().expect("every batch queries");
                        let reply = reply_from_switch(dst.index(), &listed, &[0], vec![], tag);
                        for twin in &mut twins {
                            twin.on_reply(reply.clone());
                        }
                    }
                }
                let [kept, forgot, fresh] = twins.each_ref().map(|twin| {
                    let stats = ControllerStats {
                        views_built: 0,
                        views_reused: 0,
                        plans_built: 0,
                        plans_shared: 0,
                        rule_sets_built: 0,
                        rule_sets_shared: 0,
                        ..twin.stats()
                    };
                    ((twin.curr_tag(), twin.prev_tag()), stats)
                });
                assert_eq!(kept, forgot, "seed {seed} step {step}");
                assert_eq!(kept, fresh, "seed {seed} step {step}: fresh memos");
                assert_eq!(twins[0].reply_db, twins[1].reply_db);
                assert_eq!(twins[0].reply_db, twins[2].reply_db);
            }
            let [kept, forgot, fresh] = twins.each_ref().map(|twin| twin.stats());
            assert!(
                kept.rounds_completed > 10,
                "seed {seed}: rounds do complete"
            );
            assert_eq!(
                forgot.views_reused + forgot.views_built,
                5 * forgot.iterations
            );
            assert!(kept.views_built < forgot.views_built, "seed {seed}");
            assert_eq!(fresh.plans_built, fresh.iterations, "seed {seed}");
        }
    }

    /// Two databases whose fusion differs only in which claimant holds the fresher
    /// tag: the contradiction rule drops a link in one and keeps it in the other, so
    /// the view of the first must not be served for the second.
    #[test]
    fn the_fusion_key_tells_tag_orders_apart() {
        let (old, new) = (Tag::new(0, 4), Tag::new(0, 5));
        let db_with = |tag_of_4: Tag, tag_of_5: Tag| {
            let mut db = ReplyDb::new(8);
            db.insert(
                reply_from_switch(4, &[0, 3], &[0], vec![], tag_of_4),
                tag_of_4,
            );
            db.insert(
                reply_from_switch(5, &[4, 6], &[0], vec![], tag_of_5),
                tag_of_5,
            );
            db
        };
        let mut memo = Derived::new(PlanTable::new(config()));
        let mut stats = ControllerStats::default();
        let four_is_fresher = db_with(new, old);
        let view = memo.view(four_is_fresher.fusion(new, old, n(0), &[n(4)]), &mut stats);
        assert!(!view.graph().has_link(n(4), n(5)), "4 no longer lists 5");
        let five_is_fresher = db_with(old, new);
        let view = memo.view(five_is_fresher.fusion(new, old, n(0), &[n(4)]), &mut stats);
        assert!(view.graph().has_link(n(4), n(5)), "5's claim is the news");
        assert_eq!((stats.views_built, stats.views_reused), (2, 0));

        // The same order under other tags is the same view.
        let (older, newer) = (Tag::new(1, 8), Tag::new(1, 9));
        let renamed = db_with(older, newer);
        let again = memo.view(renamed.fusion(newer, older, n(0), &[n(4)]), &mut stats);
        assert!(Arc::ptr_eq(&view, &again));
        assert_eq!((stats.views_built, stats.views_reused), (2, 1));
    }

    /// ROADMAP item 1's setup: `ring(5, 2)` with two controllers at a 100 ms task
    /// delay, bootstrapped and then settled for 60 s, so that no plan changes any more.
    fn settled_ring() -> SdnNetwork {
        let mut sdn = SdnNetwork::new(
            sdn_topology::builders::ring(5, 2),
            ControllerConfig::for_network(2, 5),
            HarnessConfig::default().with_task_delay(SimDuration::from_millis(100)),
        );
        let (second, timeout) = (SimDuration::from_secs(1), SimDuration::from_secs(120));
        assert!(sdn.run_until_legitimate(second, timeout).is_some());
        sdn.run_for(SimDuration::from_secs(60));
        sdn
    }

    /// The memos of `controller`, for a test to corrupt.
    fn memos(sdn: &mut SdnNetwork, controller: NodeId) -> &mut Derived {
        &mut sdn.controller_mut(controller).unwrap().derived
    }

    #[test]
    fn emptied_rule_memos_on_both_controllers_are_repaired() {
        let mut sdn = settled_ring();
        for controller in sdn.controller_ids() {
            memos(&mut sdn, controller).corrupt_plan(Arc::default());
        }
        // The switches still hold the rules of before; the next iteration finds the
        // empty plan wrong and plans again before it sends a set.
        let (second, timeout) = (SimDuration::from_secs(1), SimDuration::from_secs(120));
        sdn.run_for(second);
        assert!(sdn.run_until_legitimate(second, timeout).is_some());
    }

    #[test]
    fn emptied_rule_memo_on_one_controller_is_repaired() {
        let mut sdn = settled_ring();
        let controllers = sdn.controller_ids();
        let faulted = sdn.controller(controllers[0]).unwrap().curr_tag();
        memos(&mut sdn, controllers[0]).corrupt_plan(Arc::default());
        // Every switch holds rules of both controllers, the faulty one's sent since.
        let owned_everywhere = |sdn: &SdnNetwork| {
            (sdn.switch_ids().into_iter()).all(|s| {
                let rules = sdn.switch(s).unwrap().rules();
                let sent_since = (rules.rules_of(controllers[0]).iter()).all(|r| r.tag > faulted);
                rules.controllers_with_rules() == controllers && sent_since
            })
        };
        let repaired = (0..120).any(|_| {
            sdn.run_for(SimDuration::from_secs(1));
            owned_everywhere(&sdn)
        });
        assert!(
            repaired,
            "a switch holds no rule {} sent after the fault",
            controllers[0]
        );
    }

    /// A scramble draws `turn` over all of `u64`, so it advances by `wrapping_add`: at
    /// `u64::MAX` the next iteration wraps to 0 instead of overflowing (a panic in a
    /// debug build), and the network is legitimate again.
    #[test]
    fn a_turn_at_u64_max_wraps_and_the_network_recovers() {
        let mut sdn = settled_ring();
        for controller in sdn.controller_ids() {
            memos(&mut sdn, controller).corrupt_turn(u64::MAX);
        }
        let (second, timeout) = (SimDuration::from_secs(1), SimDuration::from_secs(120));
        sdn.run_for(second);
        assert!(sdn.run_until_legitimate(second, timeout).is_some());
    }

    /// Transient faults in a settled controller's plan and views. A replaced plan is
    /// rebuilt within `⌈n/64⌉` iterations, equal to the plan of before; every view is
    /// re-derived from its key within `n` audit steps, and the network, which the wrong
    /// views made the controller forget, is legitimate again.
    #[test]
    fn corrupted_plan_and_views_are_repaired_within_their_bounds() {
        let mut sdn = settled_ring();
        let id = sdn.controller_ids()[0];
        let neighbors = sdn.sim().observed(id).to_vec();
        let c = sdn.controller_mut(id).unwrap();
        let (plan, version) = (c.derived.plan().clone(), c.plan_version());
        c.derived.corrupt_plan(Arc::default());
        // `ring(5, 2)` has seven nodes: one block, checked on every turn.
        let _ = c.iterate(&neighbors);
        assert_eq!(
            (c.derived.plan() == &plan, c.plan_version()),
            (true, version + 1)
        );

        let nobody = ReplyDb::new(1).res(c.curr_tag(), id, &[]).key().view();
        assert_eq!(c.derived.views().len(), 3, "one iteration's working set");
        let wrong = |c: &Controller| {
            let views = c.derived.views().iter();
            views.filter(|(key, view)| **view != key.view()).count()
        };
        // Faults at eight successive phases of the turn: any cadence slower than `n`
        // leaves one of them unrepaired.
        for fault in 0..8 {
            c.derived.corrupt_views(&nobody);
            assert_eq!(wrong(c), 3);
            c.derived.audit_steps(7);
            assert_eq!(
                wrong(c),
                0,
                "fault {fault}: views re-derived within n steps"
            );
        }
        memos(&mut sdn, id).corrupt_views(&nobody);
        let (second, timeout) = (SimDuration::from_secs(1), SimDuration::from_secs(120));
        assert!(sdn.run_until_legitimate(second, timeout).is_some());
    }

    /// A controller handed its own plan of before a link removal, well formed over the
    /// same `n = 65` nodes but stale, replans within `⌈n/64⌉ = 2` iterations, and from
    /// then on sends every switch the set a fresh plan of its reference graph ranks.
    #[test]
    fn a_stale_plan_is_replaced_within_its_block_bound() {
        let mut sdn = SdnNetwork::new(
            sdn_topology::builders::grid(8, 8, 1),
            ControllerConfig::for_network(1, 64),
            HarnessConfig::default(),
        );
        let (second, timeout) = (SimDuration::from_secs(1), SimDuration::from_secs(120));
        assert!(sdn.run_until_legitimate(second, timeout).is_some());
        let id = sdn.controller_ids()[0];
        let stale = memos(&mut sdn, id).shared_plan().clone();
        let switches = sdn.switch_ids();
        assert!(sdn.apply(&Action::RemoveLink(switches[0], switches[1])));
        assert!(sdn.run_until_legitimate(second, timeout).is_some());
        sdn.run_for(SimDuration::from_secs(10));

        let neighbors = sdn.sim().observed(id).to_vec();
        let c = sdn.controller_mut(id).unwrap();
        let relays = |node: NodeId| !node.is_controller(1);
        let fresh = c.derived.fresh_rules(relays);
        let stale_sets = stale.sets();
        assert_eq!(stale_sets.len(), switches.len());
        assert!(
            stale_sets
                .iter()
                .any(|(&switch, set)| *set != fresh(switch)),
            "the removal moved some rules"
        );
        let version = c.plan_version();
        c.derived.corrupt_plan(stale);
        let blocks = (switches.len() + 1).div_ceil(64);
        for step in 1..=2 * blocks {
            let out = c.iterate(&neighbors);
            if step < blocks {
                continue;
            }
            assert_eq!(c.plan_version(), version + 1, "step {step}");
            let sets: Vec<(NodeId, RuleSet)> = (out.iter())
                .filter_map(|(dst, batch)| Some((*dst, update_rules(batch)?.1)))
                .collect();
            assert_eq!(sets.len(), switches.len());
            for (switch, set) in sets {
                assert_eq!(set, fresh(switch), "step {step}: switch {switch}");
            }
        }
    }

    /// The rule set each live controller would send every switch next, keyed by
    /// switch, one entry per controller: what the switch installs under that owner.
    fn next_sets(sdn: &SdnNetwork) -> BTreeMap<NodeId, Vec<RuleSet>> {
        let mut sets: BTreeMap<NodeId, Vec<RuleSet>> = BTreeMap::new();
        for id in sdn.live_controller_ids() {
            let mut c = sdn.controller(id).unwrap().clone();
            for (dst, batch) in c.iterate(sdn.sim().observed(id)) {
                if let Some((_, set)) = update_rules(&batch) {
                    sets.entry(dst).or_default().push(set);
                }
            }
        }
        sets
    }

    /// The plans the table holds, each once.
    fn held_plans(sdn: &SdnNetwork) -> Vec<Arc<SharedPlan>> {
        let c = sdn.controller(sdn.controller_ids()[0]).unwrap();
        c.derived.table().held()
    }

    /// Once the controllers of a settled network hold one view, they hold one plan and
    /// send every switch one allocation, and the counters show the plans and sets
    /// they took from each other.
    #[test]
    fn settled_controllers_share_their_plan_and_every_rule_set() {
        let sdn = settled_ring();
        let controllers = sdn.controller_ids();
        let plan = |id| sdn.controller(id).unwrap().derived.shared_plan();
        assert!(controllers
            .iter()
            .all(|&id| Arc::ptr_eq(plan(id), plan(controllers[0]))));
        assert_eq!(held_plans(&sdn).len(), 1);
        let sets = next_sets(&sdn);
        assert_eq!(sets.len(), sdn.switch_ids().len());
        for (switch, sets) in &sets {
            assert_eq!(sets.len(), controllers.len(), "switch {switch}");
            assert!(!sets[0].is_empty());
            assert!(
                sets.iter().all(|set| RuleSet::ptr_eq(set, &sets[0])),
                "switch {switch}: one allocation for every owner"
            );
        }
        let stats: Vec<ControllerStats> = (controllers.iter())
            .map(|&id| sdn.controller(id).unwrap().stats())
            .collect();
        let shared = |count: fn(&ControllerStats) -> u64| stats.iter().map(count).sum::<u64>();
        assert!(shared(|s| s.plans_shared) > 0 && shared(|s| s.rule_sets_shared) > 0);
    }

    /// A fault in one controller's plan handle is that controller's alone: the other's
    /// plan and its sets keep their allocations and their contents, and the faulty
    /// controller comes back to the plan the other holds.
    #[test]
    fn a_corrupted_controller_leaves_the_shared_plan_and_sets_alone() {
        let mut sdn = settled_ring();
        let [victim, other] = sdn.controller_ids()[..] else {
            panic!("two controllers");
        };
        let c = &sdn.controller(other).unwrap().derived;
        let (plan, kept) = (c.shared_plan().clone(), c.plan().clone());
        let sets = c.shared_plan().sets();
        let by_value = |sets: &BTreeMap<NodeId, RuleSet>| {
            let bodies = sets.iter().map(|(&switch, set)| (switch, set.to_vec()));
            bodies.collect::<Vec<_>>()
        };
        let kept_sets = by_value(&sets);
        let version = sdn.controller(victim).unwrap().plan_version();
        memos(&mut sdn, victim).corrupt_plan(Arc::default());
        sdn.run_for(SimDuration::from_secs(30));
        let (second, timeout) = (SimDuration::from_secs(1), SimDuration::from_secs(120));
        assert!(sdn.run_until_legitimate(second, timeout).is_some());

        let c = &sdn.controller(other).unwrap().derived;
        assert!(Arc::ptr_eq(c.shared_plan(), &plan) && c.plan() == &kept);
        let now = c.shared_plan().sets();
        assert_eq!(now.len(), sets.len());
        for (switch, set) in &now {
            assert!(RuleSet::ptr_eq(set, &sets[switch]), "switch {switch}");
        }
        assert_eq!(by_value(&now), kept_sets);
        let repaired = sdn.controller(victim).unwrap();
        assert!(Arc::ptr_eq(repaired.derived.shared_plan(), &plan));
        assert_eq!(repaired.plan_version(), version + 1);
    }

    /// Once every controller has replanned after a link removal, the table holds
    /// only plans some controller holds: the plan of before is gone, sets and all.
    #[test]
    fn a_replaced_plan_leaves_the_table() {
        let mut sdn = settled_ring();
        let controllers = sdn.controller_ids();
        let versions: Vec<u64> = (controllers.iter())
            .map(|&id| sdn.controller(id).unwrap().plan_version())
            .collect();
        let first = sdn.controller(controllers[0]).unwrap();
        let before = Arc::downgrade(first.derived.shared_plan());
        let switches = sdn.switch_ids();
        assert!(sdn.apply(&Action::RemoveLink(switches[0], switches[1])));
        let (second, timeout) = (SimDuration::from_secs(1), SimDuration::from_secs(120));
        assert!(sdn.run_until_legitimate(second, timeout).is_some());
        sdn.run_for(SimDuration::from_secs(10));
        for (&id, version) in controllers.iter().zip(versions) {
            assert!(sdn.controller(id).unwrap().plan_version() > version, "{id}");
        }
        assert!(before.upgrade().is_none(), "the plan of before is dropped");
        let held = held_plans(&sdn);
        assert!(!held.is_empty());
        for plan in &held {
            assert!(
                (controllers.iter()).any(|&id| Arc::ptr_eq(
                    sdn.controller(id).unwrap().derived.shared_plan(),
                    plan
                )),
                "the table holds a plan no controller holds"
            );
        }
    }

    /// A revived controller starts from nothing but the network's table, and ends up
    /// holding the plan the other controller holds.
    #[test]
    fn a_revived_controller_joins_the_network_table() {
        let mut sdn = settled_ring();
        let [survivor, victim] = sdn.controller_ids()[..] else {
            panic!("two controllers");
        };
        sdn.apply(&Action::FailController(victim));
        sdn.run_for(SimDuration::from_secs(5));
        sdn.apply(&Action::ReviveController(victim));
        let table = |id| sdn.controller(id).unwrap().derived.table();
        assert!(PlanTable::same_table(table(victim), table(survivor)));
        let (second, timeout) = (SimDuration::from_secs(1), SimDuration::from_secs(120));
        assert!(sdn.run_until_legitimate(second, timeout).is_some());
        sdn.run_for(SimDuration::from_secs(10));
        let [revived, kept] = [victim, survivor].map(|id| sdn.controller(id).unwrap());
        let [revived_plan, kept_plan] = [revived, kept].map(|c| c.derived.shared_plan());
        assert!(Arc::ptr_eq(revived_plan, kept_plan));
        assert!(revived.stats().plans_shared > 0);
    }

    /// A transient fault lands between two polls with no simulated event in between;
    /// the verdict and the report that follow must see it, not a verdict remembered
    /// from before. The oracle goes last, so it cannot refresh anything the others read.
    #[test]
    fn a_verdict_follows_a_fault_with_no_event_in_between() {
        let mut sdn = settled_ring();
        let (ms, timeout) = (SimDuration::from_millis(1), SimDuration::from_secs(120));
        assert!(sdn.run_until_legitimate(ms, timeout).is_some());
        let c0 = sdn.controller_ids()[0];
        sdn.controller_mut(c0).unwrap().reply_db.c_reset();
        assert!(!sdn.is_legitimate(), "verdict");
        assert!(!sdn.legitimacy_report().is_legitimate(), "report");
        assert!(!sdn.legitimacy_report_fresh().is_legitimate(), "oracle");
    }

    #[test]
    fn corruption_helpers_change_state() {
        let mut c = Controller::new(n(0), config());
        c.corrupt_tags(Tag::new(5, 50), Tag::new(5, 49));
        assert_eq!(c.curr_tag(), Tag::new(5, 50));
        c.corrupt_inject_reply(reply_from_switch(9, &[10], &[9], vec![], Tag::new(5, 50)));
        assert_eq!(c.reply_db().len(), 1);
        // The algorithm recovers: pruning removes the unreachable bogus responder.
        let _ = c.iterate(&[n(1)]);
        assert_eq!(c.reply_db().len(), 0);
        assert!(c.curr_tag().value() >= 50);
    }
}
