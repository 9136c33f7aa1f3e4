//! The controller's `replyDB`: the most recently received query replies, from which the
//! controller derives its view of the network topology (paper, Algorithm 2 line 1).
//!
//! The database is bounded by `maxReplies`; trying to exceed the bound triggers a
//! *C-reset* (line 21) that keeps only the controller's own neighborhood record. Both
//! the bound and the reset are essential to the self-stabilization argument (Lemma 2:
//! at most one C-reset per controller per execution once the system is past its
//! arbitrary initial state).

use sdn_switch::QueryReply;
use sdn_tags::Tag;
use sdn_topology::{paths, Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of inserting a reply into the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The reply was stored (possibly replacing an older reply from the same node).
    Stored,
    /// The reply was stored, but only after a C-reset made room for it.
    StoredAfterReset,
    /// The reply was ignored because its tag is not the current round's tag.
    IgnoredStaleTag,
}

/// Bounded store of query replies keyed by `(responder, round tag)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplyDb {
    max_replies: usize,
    records: BTreeMap<(NodeId, Tag), QueryReply>,
    c_resets: u64,
}

impl ReplyDb {
    /// Creates an empty database with capacity `max_replies`.
    ///
    /// # Panics
    ///
    /// Panics if `max_replies == 0`.
    pub fn new(max_replies: usize) -> Self {
        assert!(max_replies > 0, "replyDB needs room for at least one reply");
        ReplyDb {
            max_replies,
            records: BTreeMap::new(),
            c_resets: 0,
        }
    }

    /// The configured capacity (`maxReplies`).
    pub fn capacity(&self) -> usize {
        self.max_replies
    }

    /// Number of stored replies.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no reply is stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of C-resets performed since creation.
    pub fn c_resets(&self) -> u64 {
        self.c_resets
    }

    /// Inserts a reply received with the given expected round tag (Algorithm 2,
    /// lines 20–22): stale tags are ignored, and a full database triggers a C-reset.
    pub fn insert(&mut self, reply: QueryReply, curr_tag: Tag) -> InsertOutcome {
        if reply.echo_tag != curr_tag {
            return InsertOutcome::IgnoredStaleTag;
        }
        let key = (reply.responder, reply.echo_tag);
        let replaces_existing = self.records.contains_key(&key);
        let mut outcome = InsertOutcome::Stored;
        if !replaces_existing && self.records.len() + 1 > self.max_replies {
            self.records.clear();
            self.c_resets += 1;
            outcome = InsertOutcome::StoredAfterReset;
        }
        // Line 22 replaces "the previous response from pj": same key, so the map
        // insert overwrites it.
        self.records.insert(key, reply);
        outcome
    }

    /// Removes every reply whose tag is not in `live_tags` or whose responder is not
    /// reachable from the controller according to the topology derivable from replies of
    /// the *same* tag (Algorithm 2 line 8).
    pub fn prune(&mut self, self_id: NodeId, self_neighbors: &[NodeId], live_tags: &[Tag]) {
        // Replies claiming to come from the controller itself are always synthesized
        // fresh, never stored (line 5 of Algorithm 1): drop any stored one.
        self.records.retain(|(node, _), _| *node != self_id);
        let reachable_per_tag: BTreeMap<Tag, BTreeSet<NodeId>> = live_tags
            .iter()
            .map(|&tag| {
                let graph = self.res_graph(tag, self_id, self_neighbors);
                let reachable: BTreeSet<NodeId> =
                    paths::reachable_set(&graph, self_id).into_iter().collect();
                (tag, reachable)
            })
            .collect();
        self.records.retain(|(node, tag), _| {
            reachable_per_tag
                .get(tag)
                .map(|reachable| reachable.contains(node))
                .unwrap_or(false)
        });
    }

    /// Removes every reply carrying `tag` (Algorithm 2 line 12).
    pub fn drop_tag(&mut self, tag: Tag) {
        self.records.retain(|(_, t), _| *t != tag);
    }

    /// Performs an explicit C-reset, forgetting everything.
    pub fn c_reset(&mut self) {
        self.records.clear();
        self.c_resets += 1;
    }

    /// The reply from `node` for round `tag`, if stored.
    pub fn get(&self, node: NodeId, tag: Tag) -> Option<&QueryReply> {
        self.records.get(&(node, tag))
    }

    /// All stored replies.
    pub fn iter(&self) -> impl Iterator<Item = (&(NodeId, Tag), &QueryReply)> + '_ {
        self.records.iter()
    }

    /// The set of nodes that have replied with round tag `tag`.
    pub fn responders(&self, tag: Tag) -> BTreeSet<NodeId> {
        self.records
            .keys()
            .filter(|(_, t)| *t == tag)
            .map(|(n, _)| *n)
            .collect()
    }

    /// Every tag present anywhere in the stored replies (including the tags of the
    /// rules they summarize) — what the practically-self-stabilizing tag generator
    /// must stay ahead of.
    pub fn observed_tags(&self) -> Vec<Tag> {
        let mut tags = Vec::new();
        for ((_, tag), reply) in &self.records {
            tags.push(*tag);
            tags.extend(reply.rules.tags());
        }
        tags
    }

    /// The largest tag of [`ReplyDb::observed_tags`] (tags order by value first). The
    /// tag generator folds observations with `max`, so this is all it needs.
    pub fn max_observed_tag(&self) -> Option<Tag> {
        self.records
            .iter()
            .flat_map(|((_, tag), reply)| [Some(*tag), reply.rules.max_tag()])
            .flatten()
            .max()
    }

    /// `G(res(tag))`: the topology derivable from the replies of round `tag` plus the
    /// controller's own neighborhood record.
    pub fn res_graph(&self, tag: Tag, self_id: NodeId, self_neighbors: &[NodeId]) -> Graph {
        let mut g = Graph::new();
        g.add_node(self_id);
        for &nb in self_neighbors {
            g.add_link(self_id, nb);
        }
        for ((node, t), reply) in &self.records {
            if *t != tag {
                continue;
            }
            g.add_node(*node);
            for &nb in &reply.neighbors {
                if nb != *node {
                    g.add_link(*node, nb);
                }
            }
        }
        g
    }

    /// The *fusion* view (Algorithm 2 line 5): the current round's replies plus, for
    /// nodes that have not answered the current round yet, the previous round's replies.
    pub fn fusion(&self, curr: Tag, prev: Tag) -> BTreeMap<NodeId, &QueryReply> {
        let mut out: BTreeMap<NodeId, &QueryReply> = BTreeMap::new();
        for ((node, tag), reply) in &self.records {
            if *tag == prev {
                out.entry(*node).or_insert(reply);
            }
        }
        for ((node, tag), reply) in &self.records {
            if *tag == curr {
                out.insert(*node, reply);
            }
        }
        out
    }

    /// `G(fusion)`: the topology derivable from the fusion view plus the controller's
    /// own neighborhood.
    ///
    /// A link claimed by one endpoint's reply is *dropped* when the other endpoint
    /// has strictly fresher information contradicting it — a newer-tagged reply (or
    /// the controller's own live neighborhood) that does not list the claimant.
    /// Without this tie-break a failed link can wedge the whole control plane: the
    /// stale endpoint's previous-round reply keeps the dead link in the fusion view,
    /// the plan keeps routing that endpoint's queries over the dead link, so its
    /// current-round reply never arrives, the round never completes, and the stale
    /// reply is never evicted.
    pub fn fusion_graph(
        &self,
        curr: Tag,
        prev: Tag,
        self_id: NodeId,
        self_neighbors: &[NodeId],
    ) -> Graph {
        let fusion = self.fusion(curr, prev);
        let mut g = Graph::new();
        g.add_node(self_id);
        for &nb in self_neighbors {
            g.add_link(self_id, nb);
        }
        for (&node, reply) in &fusion {
            g.add_node(node);
            for &nb in &reply.neighbors {
                if nb == node {
                    continue;
                }
                let contradicted = if nb == self_id {
                    // The controller's own observation is always current.
                    !self_neighbors.contains(&node)
                } else {
                    fusion.get(&nb).is_some_and(|other| {
                        other.echo_tag > reply.echo_tag && !other.neighbors.contains(&node)
                    })
                };
                if !contradicted {
                    g.add_link(node, nb);
                }
            }
        }
        g
    }

    /// The round-completion test of Algorithm 2 line 10: every node reachable from the
    /// controller in `G(res(curr))` has sent a reply tagged `curr`.
    pub fn round_complete(&self, curr: Tag, self_id: NodeId, self_neighbors: &[NodeId]) -> bool {
        let graph = self.res_graph(curr, self_id, self_neighbors);
        let responders = self.responders(curr);
        paths::reachable_set(&graph, self_id)
            .into_iter()
            .filter(|&n| n != self_id)
            .all(|n| responders.contains(&n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sdn_switch::RuleSummary;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn reply(responder: u32, neighbors: &[u32], tag: Tag) -> QueryReply {
        QueryReply {
            responder: n(responder),
            neighbors: neighbors.iter().map(|&i| n(i)).collect(),
            managers: vec![],
            rules: RuleSummary::default(),
            echo_tag: tag,
        }
    }

    const T1: Tag = Tag::new(0, 1);
    const T2: Tag = Tag::new(0, 2);

    #[test]
    fn insert_stores_current_tag_and_ignores_stale() {
        let mut db = ReplyDb::new(8);
        assert_eq!(db.insert(reply(3, &[0, 4], T1), T1), InsertOutcome::Stored);
        assert_eq!(
            db.insert(reply(4, &[3], T2), T1),
            InsertOutcome::IgnoredStaleTag
        );
        assert_eq!(db.len(), 1);
        assert!(db.get(n(3), T1).is_some());
        assert!(db.get(n(4), T2).is_none());
    }

    #[test]
    fn reinsert_replaces_previous_reply_from_same_node() {
        let mut db = ReplyDb::new(8);
        db.insert(reply(3, &[0], T1), T1);
        db.insert(reply(3, &[0, 4], T1), T1);
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(n(3), T1).unwrap().neighbors.len(), 2);
    }

    #[test]
    fn overflowing_capacity_triggers_c_reset() {
        let mut db = ReplyDb::new(2);
        db.insert(reply(3, &[0], T1), T1);
        db.insert(reply(4, &[0], T1), T1);
        assert_eq!(
            db.insert(reply(5, &[0], T1), T1),
            InsertOutcome::StoredAfterReset
        );
        assert_eq!(db.len(), 1, "reset keeps only the new reply");
        assert_eq!(db.c_resets(), 1);
    }

    #[test]
    fn res_graph_includes_self_neighborhood() {
        let mut db = ReplyDb::new(8);
        db.insert(reply(3, &[4], T1), T1);
        let g = db.res_graph(T1, n(0), &[n(3)]);
        assert!(g.has_link(n(0), n(3)));
        assert!(g.has_link(n(3), n(4)));
        assert_eq!(g.node_count(), 3);
        // A different tag sees only the self record.
        let g2 = db.res_graph(T2, n(0), &[n(3)]);
        assert_eq!(g2.node_count(), 2);
    }

    #[test]
    fn prune_removes_stale_tags_and_unreachable_responders() {
        let mut db = ReplyDb::new(8);
        db.insert(reply(3, &[0, 4], T1), T1);
        db.insert(reply(9, &[10], T1), T1); // not connected to controller 0
                                            // An old-tag reply sneaks in (e.g. left over from a corrupted state).
        db.records.insert((n(7), T2), reply(7, &[0], T2));
        db.prune(n(0), &[n(3)], &[T1]);
        assert!(db.get(n(3), T1).is_some());
        assert!(db.get(n(9), T1).is_none(), "unreachable responder pruned");
        assert!(db.get(n(7), T2).is_none(), "stale tag pruned");
    }

    #[test]
    fn prune_drops_replies_claiming_to_be_self() {
        let mut db = ReplyDb::new(8);
        db.records.insert((n(0), T1), reply(0, &[42], T1));
        db.prune(n(0), &[n(3)], &[T1]);
        assert!(db.get(n(0), T1).is_none());
    }

    #[test]
    fn fusion_prefers_current_round() {
        let mut db = ReplyDb::new(8);
        db.records.insert((n(3), T1), reply(3, &[0], T1));
        db.records.insert((n(3), T2), reply(3, &[0, 4], T2));
        db.records.insert((n(5), T1), reply(5, &[0], T1));
        let fusion = db.fusion(T2, T1);
        assert_eq!(fusion[&n(3)].neighbors.len(), 2, "current-round reply wins");
        assert_eq!(
            fusion[&n(5)].neighbors.len(),
            1,
            "previous round fills gaps"
        );
        let g = db.fusion_graph(T2, T1, n(0), &[n(3), n(5)]);
        assert!(g.has_link(n(3), n(4)));
        assert!(g.has_link(n(0), n(5)));
    }

    #[test]
    fn fusion_graph_drops_links_contradicted_by_fresher_replies() {
        let mut db = ReplyDb::new(8);
        // Node 4's current-round reply no longer lists 5 (their link failed), but
        // node 5's previous-round reply still claims it.
        db.records.insert((n(4), T2), reply(4, &[0, 3], T2));
        db.records.insert((n(5), T1), reply(5, &[4, 6], T1));
        let g = db.fusion_graph(T2, T1, n(0), &[n(4)]);
        assert!(
            !g.has_link(n(4), n(5)),
            "stale claim loses to the fresher contradicting reply"
        );
        assert!(g.has_link(n(5), n(6)), "uncontradicted claims survive");
        assert!(g.has_link(n(4), n(3)), "fresh claims survive");

        // Same-tag replies keep union semantics: a mid-round disagreement is not
        // a contradiction.
        let mut db = ReplyDb::new(8);
        db.records.insert((n(4), T2), reply(4, &[0], T2));
        db.records.insert((n(5), T2), reply(5, &[4], T2));
        let g = db.fusion_graph(T2, T1, n(0), &[n(4)]);
        assert!(
            g.has_link(n(4), n(5)),
            "equal freshness falls back to union"
        );
    }

    #[test]
    fn fusion_graph_trusts_own_neighborhood_over_stale_claims() {
        let mut db = ReplyDb::new(8);
        // Node 3's stale reply claims adjacency to the controller, but the
        // controller no longer observes node 3.
        db.records.insert((n(3), T1), reply(3, &[0, 4], T1));
        let g = db.fusion_graph(T2, T1, n(0), &[n(5)]);
        assert!(!g.has_link(n(0), n(3)), "own observation is always current");
        assert!(g.has_link(n(3), n(4)), "claims about third parties survive");
    }

    #[test]
    fn round_completion_requires_all_reachable_nodes() {
        let mut db = ReplyDb::new(8);
        // Controller 0 has neighbor 3; 3 knows 4.
        db.insert(reply(3, &[0, 4], T1), T1);
        assert!(
            !db.round_complete(T1, n(0), &[n(3)]),
            "node 4 is reachable but has not replied"
        );
        db.insert(reply(4, &[3], T1), T1);
        assert!(db.round_complete(T1, n(0), &[n(3)]));
    }

    #[test]
    fn drop_tag_and_observed_tags() {
        let mut db = ReplyDb::new(8);
        db.insert(reply(3, &[0], T1), T1);
        db.records.insert((n(4), T2), reply(4, &[0], T2));
        assert_eq!(db.observed_tags().len(), 2);
        db.drop_tag(T1);
        assert!(db.get(n(3), T1).is_none());
        assert!(db.get(n(4), T2).is_some());
        db.c_reset();
        assert!(db.is_empty());
        assert_eq!(db.c_resets(), 1);
        assert_eq!(db.capacity(), 8);
    }

    /// The equivalence `Controller::iterate` relies on when it observes one tag
    /// instead of all of them: the generator keeps a running max by value.
    #[test]
    fn max_observed_tag_is_the_max_by_value_of_observed_tags() {
        use sdn_rng::Rng;
        use sdn_switch::Rule;
        assert_eq!(ReplyDb::new(4).max_observed_tag(), None);
        for seed in 0..50u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut db = ReplyDb::new(64);
            for _ in 0..rng.gen_range(1..12u32) {
                // Echo tags sit mid-range; rule tags fall on both sides of them.
                let echo = Tag::new(rng.gen_range(0..3u32), rng.gen_range(400..600u64));
                let responder = rng.gen_range(3..20u32);
                let rules: Vec<Rule> = (0..rng.gen_range(0..6u32))
                    .map(|_| Rule {
                        cid: n(rng.gen_range(0..5u32)),
                        src: None,
                        dst: n(rng.gen_range(0..20u32)),
                        prt: 1,
                        fwd: n(0),
                        tag: Tag::new(rng.gen_range(0..5u32), rng.gen_range(1..1000u64)),
                    })
                    .collect();
                let mut r = reply(responder, &[0], echo);
                r.rules = RuleSummary::from_rules(&rules);
                db.insert(r, echo);
            }
            let by_value = db.observed_tags().into_iter().map(Tag::value).max();
            assert_eq!(
                db.max_observed_tag().map(Tag::value),
                by_value,
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one reply")]
    fn zero_capacity_rejected() {
        let _ = ReplyDb::new(0);
    }
}
