//! The controller's `replyDB`: the most recently received query replies, from which the
//! controller derives its view of the network topology (paper, Algorithm 2 line 1).
//!
//! The database is bounded by `maxReplies`; trying to exceed the bound triggers a
//! *C-reset* (line 21) that keeps only the controller's own neighborhood record. Both
//! the bound and the reset are essential to the self-stabilization argument (Lemma 2:
//! at most one C-reset per controller per execution once the system is past its
//! arbitrary initial state).
//!
//! The topologies Algorithm 2 reads off the database — `G(res(tag))` and `G(fusion)` —
//! are [`View`]s. A view is a pure function of a [`ViewKey`], the by-value copy of
//! everything it reads, and a [`ViewInput`] is the same data still borrowed from the
//! database, which a key is compared against without allocating; that pair is what
//! lets the controller keep a view for as long as its inputs stay what they were.

use sdn_switch::QueryReply;
use sdn_tags::Tag;
use sdn_topology::ids::Link;
use sdn_topology::{paths, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// One neighborhood claim a view is built from: the claimant, how its reply's tag
/// orders against `prevTag`, and the neighbors it lists.
pub type Claim<'a> = (NodeId, Ordering, &'a [NodeId]);

/// A topology derived from the database, with the nodes the controller reaches in it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    graph: Graph,
    reachable: Vec<NodeId>,
}

impl View {
    /// The derived topology, the controller's own neighborhood included.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The nodes reachable from the controller (itself included), ascending.
    pub fn reachable(&self) -> &[NodeId] {
        &self.reachable
    }

    /// Whether the controller reaches `node` in this view.
    pub fn reaches(&self, node: NodeId) -> bool {
        self.reachable.binary_search(&node).is_ok()
    }
}

/// The inputs of one view, borrowed from where they live: the controller's identity
/// and observed neighborhood, and the claims of the replies tagged `curr` plus, from
/// nodes without one, those tagged `prev` (the fusion of Algorithm 2 line 5;
/// `res(tag)` is the case `curr == prev == tag`).
#[derive(Clone, Copy, Debug)]
pub struct ViewInput<'a> {
    records: &'a BTreeMap<(NodeId, Tag), QueryReply>,
    curr: Tag,
    prev: Tag,
    fusion: bool,
    self_id: NodeId,
    self_neighbors: &'a [NodeId],
}

impl<'a> ViewInput<'a> {
    /// The claims in ascending claimant order, one per claimant. Every selected tag is
    /// `curr` or `prev`, so a claim's order relative to `prev` decides which of two
    /// claims is fresher — all the contradiction rule of [`ViewKey::graph`] asks of a tag.
    pub fn claims(self) -> impl Iterator<Item = Claim<'a>> {
        let ViewInput {
            records,
            curr,
            prev,
            ..
        } = self;
        records
            .iter()
            .filter(move |((node, tag), _)| {
                *tag == curr || (*tag == prev && !records.contains_key(&(*node, curr)))
            })
            .map(move |((node, tag), reply)| (*node, tag.cmp(&prev), &reply.neighbors[..]))
    }

    /// Copies the inputs out of the database.
    pub fn key(self) -> ViewKey {
        let mut key = ViewKey {
            self_id: self.self_id,
            self_neighbors: self.self_neighbors.to_vec(),
            fusion: self.fusion,
            claims: Vec::new(),
            listed: Vec::new(),
        };
        for (node, fresh, neighbors) in self.claims() {
            key.listed.extend_from_slice(neighbors);
            key.claims.push((node, fresh, key.listed.len()));
        }
        key
    }
}

/// Everything a [`View`] is a function of, by value. Two equal keys yield equal views
/// whatever tags the replies carried, which is what makes a view outlive the round it
/// was built in: a new round re-inserts every reply under a new tag, and the key of
/// the new `res(prevTag)` is the key of the old `res(currTag)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewKey {
    self_id: NodeId,
    self_neighbors: Vec<NodeId>,
    /// Whether contradicted links are dropped (`G(fusion)`) or not (`G(res(tag))`).
    fusion: bool,
    /// Per claimant, ascending: its id, its freshness, the end of its list in `listed`.
    claims: Vec<(NodeId, Ordering, usize)>,
    listed: Vec<NodeId>,
}

impl ViewKey {
    fn claim(&self, i: usize) -> Claim<'_> {
        let (node, fresh, end) = self.claims[i];
        let start = i.checked_sub(1).map_or(0, |before| self.claims[before].2);
        (node, fresh, &self.listed[start..end])
    }

    fn claims(&self) -> impl Iterator<Item = Claim<'_>> {
        (0..self.claims.len()).map(|i| self.claim(i))
    }

    /// Whether `input` holds exactly what this key was copied from.
    pub fn matches(&self, input: ViewInput<'_>) -> bool {
        self.fusion == input.fusion
            && self.self_id == input.self_id
            && self.self_neighbors == input.self_neighbors
            && self.claims().eq(input.claims())
    }

    /// The links the claims and the controller's own neighborhood add up to, unordered.
    ///
    /// In a fusion view a link claimed by one endpoint's reply is *dropped* when the
    /// other endpoint has strictly fresher information contradicting it — a
    /// newer-tagged reply (or the controller's own live neighborhood) that does not
    /// list the claimant. Without this tie-break a failed link can wedge the whole
    /// control plane: the stale endpoint's previous-round reply keeps the dead link in
    /// the fusion view, the plan keeps routing that endpoint's queries over the dead
    /// link, so its current-round reply never arrives, the round never completes, and
    /// the stale reply is never evicted. Replies of one tag keep union semantics.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        let own = (self.self_neighbors.iter()).map(|&nb| Link::new(self.self_id, nb));
        let claimed = self.claims().flat_map(move |(node, fresh, neighbors)| {
            let contradicted = move |nb: NodeId| {
                self.fusion
                    && if nb == self.self_id {
                        // The controller's own observation is always current.
                        !self.self_neighbors.contains(&node)
                    } else {
                        let other = self.claims.binary_search_by_key(&nb, |claim| claim.0);
                        other.is_ok_and(|i| {
                            let (_, fresher, listed) = self.claim(i);
                            fresher > fresh && !listed.contains(&node)
                        })
                    }
            };
            (neighbors.iter().copied())
                .filter(move |&nb| nb != node && !contradicted(nb))
                .map(move |nb| Link::new(node, nb))
        });
        own.chain(claimed)
    }

    /// The topology of the view: the controller, every claimant and [`ViewKey::links`].
    pub fn graph(&self) -> Graph {
        let mut g: Graph = self.links().map(|link| (link.a, link.b)).collect();
        g.add_node(self.self_id);
        self.claims.iter().for_each(|claim| g.add_node(claim.0));
        g
    }

    /// [`ViewKey::graph`]'s nodes and links, ascending and distinct, without the graph.
    pub fn lists(&self) -> (Vec<NodeId>, Vec<Link>) {
        let mut links: Vec<Link> = self.links().collect();
        links.sort_unstable();
        links.dedup();
        let ends = links.iter().flat_map(|link| [link.a, link.b]);
        let claimants = self.claims.iter().map(|claim| claim.0);
        let mut nodes: Vec<NodeId> = ends.chain(claimants).chain([self.self_id]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        (nodes, links)
    }

    /// The view of this key: [`ViewKey::graph`] and what the controller reaches in it.
    pub fn view(&self) -> View {
        let graph = self.graph();
        let reachable = paths::reachable_set(&graph, self.self_id);
        View { graph, reachable }
    }
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
    /// the *same* tag (Algorithm 2 line 8). `view_of` supplies `G(res(tag))` for the
    /// database as it stands once replies claiming to be the controller are gone.
    pub fn prune(
        &mut self,
        self_id: NodeId,
        live_tags: [Tag; 2],
        mut view_of: impl FnMut(&ReplyDb, Tag) -> Arc<View>,
    ) {
        // Replies claiming to come from the controller itself are always synthesized
        // fresh, never stored (line 5 of Algorithm 1): drop any stored one.
        self.records.retain(|(node, _), _| *node != self_id);
        let live = live_tags.map(|tag| (tag, view_of(self, tag)));
        self.records.retain(|(node, tag), _| {
            live.iter()
                .any(|(live_tag, view)| live_tag == tag && view.reaches(*node))
        });
    }

    /// Removes every reply carrying `tag` (Algorithm 2 line 12).
    pub fn drop_tag(&mut self, tag: Tag) {
        self.records.retain(|(_, t), _| *t != tag);
    }

    /// Performs an explicit C-reset, forgetting everything.
    // stancheck: allow(test-only-api) — transient-fault hook for Theorem 2 experiments
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

    /// Every tag present anywhere in the stored replies (including the tags of the
    /// rules they summarize) — what the practically-self-stabilizing tag generator
    /// must stay ahead of.
    // stancheck: allow(test-only-api) — reference implementation a test compares against
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

    /// The inputs of `G(res(tag))`: the topology derivable from the replies of round
    /// `tag` plus the controller's own neighborhood record.
    pub fn res<'a>(
        &'a self,
        tag: Tag,
        self_id: NodeId,
        self_neighbors: &'a [NodeId],
    ) -> ViewInput<'a> {
        ViewInput {
            fusion: false,
            ..self.fusion(tag, tag, self_id, self_neighbors)
        }
    }

    /// The inputs of `G(fusion)` (Algorithm 2 line 5): the current round's replies
    /// plus, for nodes that have not answered the current round yet, the previous
    /// round's, plus the controller's own neighborhood.
    pub fn fusion<'a>(
        &'a self,
        curr: Tag,
        prev: Tag,
        self_id: NodeId,
        self_neighbors: &'a [NodeId],
    ) -> ViewInput<'a> {
        ViewInput {
            records: &self.records,
            curr,
            prev,
            fusion: true,
            self_id,
            self_neighbors,
        }
    }

    /// The round-completion test of Algorithm 2 line 10: every node the controller
    /// reaches in `res_curr`, the view of `G(res(curr))`, has sent a reply tagged `curr`.
    pub fn round_complete(&self, curr: Tag, self_id: NodeId, res_curr: &View) -> bool {
        res_curr
            .reachable()
            .iter()
            .all(|&n| n == self_id || self.records.contains_key(&(n, curr)))
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

    /// Line 8 with `tag` as the only live tag and its view derived afresh.
    fn prune(db: &mut ReplyDb, self_id: NodeId, self_neighbors: &[NodeId], tag: Tag) {
        db.prune(self_id, [tag, tag], |db, tag| {
            Arc::new(db.res(tag, self_id, self_neighbors).key().view())
        });
    }

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
        let g = db.res(T1, n(0), &[n(3)]).key().graph();
        assert!(g.has_link(n(0), n(3)));
        assert!(g.has_link(n(3), n(4)));
        assert_eq!(g.node_count(), 3);
        // A different tag sees only the self record.
        let g2 = db.res(T2, n(0), &[n(3)]).key().graph();
        assert_eq!(g2.node_count(), 2);
    }

    #[test]
    fn prune_removes_stale_tags_and_unreachable_responders() {
        let mut db = ReplyDb::new(8);
        db.insert(reply(3, &[0, 4], T1), T1);
        db.insert(reply(9, &[10], T1), T1); // not connected to controller 0
                                            // An old-tag reply sneaks in (e.g. left over from a corrupted state).
        db.records.insert((n(7), T2), reply(7, &[0], T2));
        prune(&mut db, n(0), &[n(3)], T1);
        assert!(db.get(n(3), T1).is_some());
        assert!(db.get(n(9), T1).is_none(), "unreachable responder pruned");
        assert!(db.get(n(7), T2).is_none(), "stale tag pruned");
    }

    #[test]
    fn prune_drops_replies_claiming_to_be_self() {
        let mut db = ReplyDb::new(8);
        db.records.insert((n(0), T1), reply(0, &[42], T1));
        prune(&mut db, n(0), &[n(3)], T1);
        assert!(db.get(n(0), T1).is_none());
    }

    #[test]
    fn fusion_prefers_current_round() {
        let mut db = ReplyDb::new(8);
        db.records.insert((n(3), T1), reply(3, &[0], T1));
        db.records.insert((n(3), T2), reply(3, &[0, 4], T2));
        db.records.insert((n(5), T1), reply(5, &[0], T1));
        let observed = [n(3), n(5)];
        let fusion = db.fusion(T2, T1, n(0), &observed);
        let claims: Vec<Claim<'_>> = fusion.claims().collect();
        let (three, five) = (&[n(0), n(4)][..], &[n(0)][..]);
        assert_eq!(
            claims,
            [
                (n(3), Ordering::Greater, three),
                (n(5), Ordering::Equal, five)
            ],
            "current-round reply wins, previous round fills gaps"
        );
        let g = fusion.key().graph();
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
        let g = db.fusion(T2, T1, n(0), &[n(4)]).key().graph();
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
        let g = db.fusion(T2, T1, n(0), &[n(4)]).key().graph();
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
        let g = db.fusion(T2, T1, n(0), &[n(5)]).key().graph();
        assert!(!g.has_link(n(0), n(3)), "own observation is always current");
        assert!(g.has_link(n(3), n(4)), "claims about third parties survive");
    }

    #[test]
    fn round_completion_requires_all_reachable_nodes() {
        let mut db = ReplyDb::new(8);
        // Controller 0 has neighbor 3; 3 knows 4.
        db.insert(reply(3, &[0, 4], T1), T1);
        let complete = |db: &ReplyDb| {
            let view = db.res(T1, n(0), &[n(3)]).key().view();
            db.round_complete(T1, n(0), &view)
        };
        assert!(!complete(&db), "node 4 is reachable but has not replied");
        db.insert(reply(4, &[3], T1), T1);
        assert!(complete(&db));
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
