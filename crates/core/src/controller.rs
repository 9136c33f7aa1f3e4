//! The Renaissance controller: the self-stabilizing SDN control-plane algorithm
//! (paper, Algorithm 2).
//!
//! A [`Controller`] is a pure state machine: [`Controller::iterate`] runs one iteration
//! of the do-forever loop and returns the command batches to send, and
//! [`Controller::on_reply`] / [`Controller::on_query`] handle incoming messages. All
//! networking (packet envelopes, in-band forwarding, timers) lives in
//! [`crate::nodes`], which keeps this module testable in isolation.

use crate::config::{ControllerConfig, Variant};
use crate::reply_db::{InsertOutcome, ReplyDb, View, ViewInput, ViewKey};
use sdn_switch::{CommandBatch, QueryReply, RuleBody, RuleSet, SwitchCommand};
use sdn_tags::{RoundTracker, Tag, TagGenerator};
use sdn_topology::{FlowPlan, FlowPlanner, Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};
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
}

/// The derived views the latest iterations read, each beside the key it was built
/// from, most recently used first. One iteration reads `G(res(currTag))`,
/// `G(res(prevTag))` and `G(fusion)`, so three entries are one iteration's working set.
#[derive(Clone, Debug, Default)]
struct ViewMemo(Vec<(ViewKey, Arc<View>)>);

impl ViewMemo {
    const ENTRIES: usize = 3;

    fn position(&self, input: ViewInput<'_>) -> Option<usize> {
        self.0.iter().position(|(key, _)| key.matches(input))
    }

    /// The memoized view of exactly these inputs, if there is one.
    fn peek(&self, input: ViewInput<'_>) -> Option<&Arc<View>> {
        self.position(input).map(|hit| &self.0[hit].1)
    }

    /// The view of `input`, built only if no entry's key matches it.
    fn get(&mut self, input: ViewInput<'_>, stats: &mut ControllerStats) -> Arc<View> {
        if let Some(hit) = self.position(input) {
            stats.views_reused += 1;
            self.0[..=hit].rotate_right(1);
        } else {
            stats.views_built += 1;
            let key = input.key();
            let view = Arc::new(key.view());
            self.0.truncate(Self::ENTRIES - 1);
            self.0.insert(0, (key, view));
        }
        self.0[0].1.clone()
    }
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
    /// The routing plan derived from the latest fusion view; used to pick first hops for
    /// the controller's own outgoing packets. Shared (`Arc`) because the plan of each
    /// round is identical to the rule plan — one computation, no clone.
    plan: Arc<FlowPlan>,
    /// The reference view `plan` was computed over. Once the view converges its
    /// graph stops changing, and every subsequent iteration reuses the plan instead
    /// of re-running the all-pairs planner — the steady state costs one view
    /// comparison instead of an all-pairs distance matrix. `None` until the first plan.
    planned: Option<Arc<View>>,
    /// `myRules()` per switch under `plan`, built the first time a switch is sent
    /// rules and handed out by reference from then on. A set names neither tag nor
    /// owner, so it outlives rounds; only a new plan empties the memo.
    rule_sets: BTreeMap<NodeId, RuleSet>,
    views: ViewMemo,
    stats: ControllerStats,
    plan_version: u64,
}

impl Controller {
    /// Creates a controller with empty knowledge of the network.
    pub fn new(id: NodeId, config: ControllerConfig) -> Self {
        let mut tag_gen = TagGenerator::new(id.index());
        let rounds = RoundTracker::new(tag_gen.next_tag());
        Controller {
            id,
            config,
            reply_db: ReplyDb::new(config.max_replies),
            rounds,
            tag_gen,
            plan: Arc::new(FlowPlan::default()),
            planned: None,
            rule_sets: BTreeMap::new(),
            views: ViewMemo::default(),
            stats: ControllerStats::default(),
            plan_version: 0,
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
        self.plan_version
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
        let input = self.reply_db.fusion(curr, prev, self.id, neighbors);
        match self.views.peek(input) {
            Some(view) => view.graph().clone(),
            None => input.key().graph(),
        }
    }

    /// The first-hop candidates (in priority order) this controller would use to reach
    /// `dst`, according to its latest routing plan, ranked as they are read.
    pub fn first_hop_candidates(&self, dst: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.plan.next_hops(self.id, dst)
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
        // that nextTag() stays ahead of anything in the system.
        let id = self.id;
        let (views, stats) = (&mut self.views, &mut self.stats);
        let (curr, prev) = (self.rounds.curr(), self.rounds.prev());
        self.reply_db.prune(id, [curr, prev], |db, tag| {
            views.get(db.res(tag, id, neighbors), stats)
        });
        // The generator only keeps the running max, so one representative tag is
        // equivalent to observing every tag in the database (`observed_tags`).
        if let Some(tag) = self.reply_db.max_observed_tag() {
            self.tag_gen.observe(tag);
        }

        // Lines 10–12: finish the round when every reachable node has answered it.
        let res_curr = views.get(self.reply_db.res(curr, id, neighbors), stats);
        let new_round = self.reply_db.round_complete(curr, id, &res_curr);
        if new_round {
            let next = self.tag_gen.next_tag();
            self.rounds.start_round(next);
            self.reply_db.drop_tag(self.rounds.curr());
            stats.rounds_completed += 1;
        }
        let (curr, prev) = (self.rounds.curr(), self.rounds.prev());

        // Line 13: pick the reference view for rule generation. Reachability in the
        // *previous* round's view also decides which controllers are considered alive
        // when a new round cleans up stale state (line 15).
        let fusion = views.get(self.reply_db.fusion(curr, prev, id, neighbors), stats);
        let res_prev = views.get(self.reply_db.res(prev, id, neighbors), stats);
        let (refer_tag, refer) = if same_graph(&fusion, &res_prev) {
            (prev, &res_prev)
        } else {
            (curr, &fusion)
        };

        // The reference graph always equals the fusion view (taking `prev` means the two
        // coincide), so the rule plan doubles as the controller's own routing plan:
        // one computation, shared through the `Arc`. The plan is a pure function of
        // the reference graph (the planner config is fixed and `non_transit` is
        // derived from the graph), so an unchanged graph reuses the previous plan.
        if !(self.planned.as_ref()).is_some_and(|planned| same_graph(planned, refer)) {
            // Controllers never relay packets, so flows must not be planned through them.
            let non_transit: BTreeSet<NodeId> = (refer.graph().nodes())
                .filter(|n| n.is_controller(self.config.n_controllers))
                .collect();
            let mut planner = FlowPlanner::new(self.config.kappa);
            if let Some(limit) = self.config.max_priorities {
                planner = planner.with_max_candidates(limit);
            }
            self.plan = Arc::new(planner.plan_restricted(refer.graph(), &non_transit));
            self.plan_version += 1;
            self.rule_sets.clear();
        }
        self.planned = Some(refer.clone());

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
                    rules: self.my_rules(dst),
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

    /// `myRules(G, j, tag)`: the rules this controller installs at switch `j` given its
    /// current view `G` (paper, Sections 2.2.2 and 3.3). One wildcard-source rule per
    /// destination and priority level, encoding the kappa-fault-resilient flow towards
    /// that destination. The tag and the owner are the `updateRule` command's; the
    /// set is a function of the plan and `j` alone, so it is built once per plan.
    fn my_rules(&mut self, switch: NodeId) -> RuleSet {
        let Controller {
            plan, rule_sets, ..
        } = self;
        let build = || {
            // The plan ranks the switch's candidates towards each reachable destination,
            // destinations ascending: the set's own order, written in one pass. Internal
            // iteration lets the ranking inline into this loop; `for` loops over the
            // same rows took about 40 % longer.
            let mut bodies = Vec::new();
            plan.next_hops_from(switch).for_each(|(dst, hops)| {
                hops.enumerate().for_each(|(level, fwd)| {
                    bodies.push(RuleBody {
                        src: None,
                        dst,
                        prt: u8::MAX - level.min(u8::MAX as usize - 1) as u8,
                        fwd,
                    })
                })
            });
            bodies.into_iter().collect()
        };
        rule_sets.entry(switch).or_insert_with(build).clone()
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
    // Transient-fault injection helpers (Theorem 2 experiments).
    // ------------------------------------------------------------------

    /// Corrupts the round tags — models a transient fault hitting the controller.
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
    use crate::harness::SdnNetwork;
    use sdn_netsim::SimDuration;
    use sdn_switch::{Rule, RuleSummary};

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
                    lookups += 1;
                    hits += u32::from(c.views.peek(input).is_some());
                    let view = c.views.clone().get(input, &mut ControllerStats::default());
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

    /// Two controllers fed one reply stream, one of them forgetting its views before
    /// every iteration, emit the same batches and end in the same state.
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
            let mut twins = [(); 2].map(|()| Controller::new(n(0), config()));
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
                twins[1].views = ViewMemo::default();
                let [out, twin_out] = twins.each_mut().map(|twin| twin.iterate(&neighbors));
                assert_eq!(out, twin_out, "seed {seed} step {step}");
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
                let [(tags, stats), twin] = twins.each_ref().map(|twin| {
                    let stats = ControllerStats {
                        views_built: 0,
                        views_reused: 0,
                        ..twin.stats()
                    };
                    ((twin.curr_tag(), twin.prev_tag()), stats)
                });
                assert_eq!((tags, stats), twin, "seed {seed} step {step}");
                assert_eq!(twins[0].reply_db, twins[1].reply_db);
            }
            let [kept, forgot] = twins.each_ref().map(|twin| twin.stats());
            assert!(
                kept.rounds_completed > 10,
                "seed {seed}: rounds do complete"
            );
            assert_eq!(
                forgot.views_reused + forgot.views_built,
                5 * forgot.iterations
            );
            assert!(kept.views_built < forgot.views_built, "seed {seed}");
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
        let (mut memo, mut stats) = (ViewMemo::default(), ControllerStats::default());
        let four_is_fresher = db_with(new, old);
        let view = memo.get(four_is_fresher.fusion(new, old, n(0), &[n(4)]), &mut stats);
        assert!(!view.graph().has_link(n(4), n(5)), "4 no longer lists 5");
        let five_is_fresher = db_with(old, new);
        let view = memo.get(five_is_fresher.fusion(new, old, n(0), &[n(4)]), &mut stats);
        assert!(view.graph().has_link(n(4), n(5)), "5's claim is the news");
        assert_eq!((stats.views_built, stats.views_reused), (2, 0));

        // The same order under other tags is the same view.
        let (older, newer) = (Tag::new(1, 8), Tag::new(1, 9));
        let renamed = db_with(older, newer);
        let again = memo.get(renamed.fusion(newer, older, n(0), &[n(4)]), &mut stats);
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

    /// A transient fault that empties a controller's memoized rule sets.
    fn forget_rules(sdn: &mut SdnNetwork, controller: NodeId) {
        let c = sdn.controller_mut(controller).unwrap();
        for set in c.rule_sets.values_mut() {
            *set = RuleSet::from_iter([]);
        }
    }

    #[test]
    #[ignore = "ROADMAP item 1: the rule-set memo is not repaired once the plan stands"]
    fn emptied_rule_memos_on_both_controllers_are_repaired() {
        let mut sdn = settled_ring();
        for controller in sdn.controller_ids() {
            forget_rules(&mut sdn, controller);
        }
        // The switches still hold the rules of before; a second sends them the emptied sets.
        let (second, timeout) = (SimDuration::from_secs(1), SimDuration::from_secs(120));
        sdn.run_for(second);
        assert!(sdn.run_until_legitimate(second, timeout).is_some());
    }

    #[test]
    #[ignore = "ROADMAP item 1: the rule-set memo is not repaired once the plan stands"]
    fn emptied_rule_memo_on_one_controller_is_repaired() {
        let mut sdn = settled_ring();
        let controllers = sdn.controller_ids();
        forget_rules(&mut sdn, controllers[0]);
        let owned_everywhere = |sdn: &SdnNetwork| {
            (sdn.switch_ids().into_iter())
                .all(|s| sdn.switch(s).unwrap().rules().controllers_with_rules() == controllers)
        };
        let repaired = (0..120).any(|_| {
            sdn.run_for(SimDuration::from_secs(1));
            owned_everywhere(&sdn)
        });
        assert!(
            repaired,
            "a switch still holds no rule of {}",
            controllers[0]
        );
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
