//! Packet-forwarding rules and the bounded rule table of the abstract switch.
//!
//! A rule is the tuple `<cID, sID, src, dest, prt, fwd, tag>` of the paper (Figure 4):
//! controller that installed it, switch that stores it, matched source and destination,
//! priority, forwarding next hop, and the synchronization-round tag. The table is
//! bounded by `maxRules` and evicts the least-recently-updated rules first, which is the
//! memory-management behaviour the paper requires in Section 2.1.1.

use sdn_tags::Tag;
use sdn_topology::NodeId;
use std::cmp::Reverse;

/// A single match-action packet-forwarding rule.
///
/// The source match is optional: `None` is a wildcard (the paper explicitly allows
/// wildcard matches, Section 2.1), which is what Renaissance's `myRules()` uses — a
/// flow's forwarding decision only depends on the destination, so one wildcard rule per
/// destination and priority level replaces a rule per (source, destination) pair and
/// keeps the table within the paper's Lemma 1 bound.
///
/// # Example
///
/// ```
/// use sdn_switch::rules::Rule;
/// use sdn_tags::Tag;
/// use sdn_topology::NodeId;
/// let r = Rule {
///     cid: NodeId::new(0),
///     sid: NodeId::new(5),
///     src: Some(NodeId::new(0)),
///     dst: NodeId::new(9),
///     prt: 3,
///     fwd: NodeId::new(6),
///     tag: Tag::new(0, 1),
/// };
/// assert!(r.matches(NodeId::new(0), NodeId::new(9)));
/// assert!(!r.matches(NodeId::new(9), NodeId::new(0)));
/// let wildcard = Rule { src: None, ..r };
/// assert!(wildcard.matches(NodeId::new(7), NodeId::new(9)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rule {
    /// The controller that installed the rule (`cID`).
    pub cid: NodeId,
    /// The switch that stores the rule (`sID`).
    pub sid: NodeId,
    /// Matched packet source field; `None` is a wildcard.
    pub src: Option<NodeId>,
    /// Matched packet destination field.
    pub dst: NodeId,
    /// Rule priority; larger values are matched first.
    pub prt: u8,
    /// The neighbor the packet is forwarded to when this rule applies.
    pub fwd: NodeId,
    /// The synchronization-round tag the rule was installed with.
    pub tag: Tag,
}

impl Rule {
    /// Approximate encoded size of one rule in bytes (used for message-size accounting,
    /// cf. the paper's Lemma 3).
    pub const WIRE_SIZE: usize = 24;

    /// Returns `true` when the rule matches a packet with the given source and
    /// destination header fields.
    pub fn matches(&self, src: NodeId, dst: NodeId) -> bool {
        self.src.is_none_or(|s| s == src) && self.dst == dst
    }
}

/// One group of a [`RuleSummary`]: `count` rules installed by `cid` under `tag`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SummaryEntry {
    cid: NodeId,
    tag: Tag,
    count: usize,
}

/// What a controller reads out of a switch's rule set `rules(j)`: who owns rules
/// there, under which tags, and how many — one entry per distinct `(cid, tag)` pair,
/// in `(cid, tag)` order. This, not a copy of the table, is what a query reply
/// carries (see [`crate::QueryReply`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleSummary {
    entries: Vec<SummaryEntry>,
}

impl RuleSummary {
    /// Summarizes arbitrary rules, in any order — including rule sets no switch would
    /// produce (foreign owners, tags far ahead of any generator), which is what a
    /// corrupted `replyDB` holds. The reference [`RuleTable::summary`] is tested against.
    pub fn from_rules<'a>(rules: impl IntoIterator<Item = &'a Rule>) -> Self {
        let mut pairs: Vec<(NodeId, Tag)> = rules.into_iter().map(|r| (r.cid, r.tag)).collect();
        pairs.sort_unstable();
        let entries = pairs
            .chunk_by(|a, b| a == b)
            .map(|run| SummaryEntry {
                cid: run[0].0,
                tag: run[0].1,
                count: run.len(),
            })
            .collect();
        RuleSummary { entries }
    }

    /// The controllers that own at least one rule, ascending and distinct.
    pub fn owners(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .chunk_by(|a, b| a.cid == b.cid)
            .map(|run| run[0].cid)
    }

    /// Every tag some rule carries (once per owner that uses it).
    pub fn tags(&self) -> impl Iterator<Item = Tag> + '_ {
        self.entries.iter().map(|e| e.tag)
    }

    /// The largest tag some rule carries (tags order by value first).
    pub fn max_tag(&self) -> Option<Tag> {
        self.tags().max()
    }

    /// How many rules the summarized table holds.
    pub fn rule_count(&self) -> usize {
        self.entries.iter().map(|e| e.count).sum()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StoredRule {
    rule: Rule,
    /// Monotonic freshness stamp; smaller means less recently updated.
    stamp: u64,
}

/// Key identifying a rule slot: one slot per (installer, destination, source, priority).
///
/// The installer comes first so that one controller's rules form a single contiguous
/// block (the per-round `updateRule` replacement is a splice of that block), and the
/// priority is reversed so that `myRules()` — which emits destinations ascending with
/// priorities descending — produces rule lists already in key order.
type RuleKey = (NodeId, NodeId, Option<NodeId>, Reverse<u8>);

fn key_of(rule: &Rule) -> RuleKey {
    (rule.cid, rule.dst, rule.src, Reverse(rule.prt))
}

/// The bounded rule table of an abstract switch.
///
/// Capacity is `max_rules`; inserting into a full table evicts the least-recently
/// updated rule (the paper's clogged-memory policy). Re-installing an existing rule
/// refreshes its stamp, so the rules of live controllers — which refresh every round —
/// are never evicted in favour of stale ones.
///
/// Rules are stored as a flat vector sorted by [`RuleKey`], which keeps the
/// per-round `updateRule` command (a wholesale replacement of one controller's
/// rules) a splice of one contiguous block instead of per-rule tree operations —
/// the dominant cost of the simulation's recovery phases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleTable {
    max_rules: usize,
    /// Sorted by `key_of`, one entry per key.
    rules: Vec<StoredRule>,
    next_stamp: u64,
    evictions: u64,
}

impl RuleTable {
    /// Creates an empty table with capacity `max_rules`.
    ///
    /// # Panics
    ///
    /// Panics if `max_rules == 0`.
    pub fn new(max_rules: usize) -> Self {
        assert!(max_rules > 0, "a switch needs room for at least one rule");
        RuleTable {
            max_rules,
            rules: Vec::new(),
            next_stamp: 0,
            evictions: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.max_rules
    }

    /// Number of rules currently stored.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` when no rules are stored.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of rules evicted due to a full table since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Index of `key` in the sorted rule vector, or the insertion point.
    fn position(&self, key: &RuleKey) -> Result<usize, usize> {
        self.rules.binary_search_by(|s| key_of(&s.rule).cmp(key))
    }

    /// Inserts (or refreshes) a rule, evicting the least-recently-updated rule if the
    /// table is full. Returns `true` if an eviction happened.
    pub fn insert(&mut self, rule: Rule) -> bool {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        match self.position(&key_of(&rule)) {
            Ok(at) => {
                self.rules[at] = StoredRule { rule, stamp };
                false
            }
            Err(mut at) => {
                let mut evicted = false;
                if self.rules.len() >= self.max_rules {
                    // Evict the least recently updated rule (stamps are unique,
                    // so the victim is unambiguous).
                    if let Some(victim) = (0..self.rules.len()).min_by_key(|&i| self.rules[i].stamp)
                    {
                        self.rules.remove(victim);
                        self.evictions += 1;
                        evicted = true;
                        if victim < at {
                            at -= 1;
                        }
                    }
                }
                self.rules.insert(at, StoredRule { rule, stamp });
                evicted
            }
        }
    }

    /// The contiguous index range holding `controller`'s rules.
    fn controller_range(&self, controller: NodeId) -> (usize, usize) {
        let lo = self.rules.partition_point(|s| s.rule.cid < controller);
        let hi = lo + self.rules[lo..].partition_point(|s| s.rule.cid <= controller);
        (lo, hi)
    }

    /// Removes every rule installed by `controller`. Returns how many were removed.
    pub fn delete_controller(&mut self, controller: NodeId) -> usize {
        let (lo, hi) = self.controller_range(controller);
        self.rules.drain(lo..hi);
        hi - lo
    }

    /// Replaces the rules of `controller`: existing rules of that controller whose tag
    /// is *not* in `keep_tags` are removed, then `new_rules` are inserted.
    ///
    /// This implements the `updateRule` command; plain Algorithm 2 passes an empty
    /// `keep_tags` (replace everything), while the Section 6.2 evaluation variant keeps
    /// the previous round's tag alive for one extra round.
    ///
    /// Returns the number of rules removed.
    pub fn replace_controller_rules(
        &mut self,
        controller: NodeId,
        new_rules: impl IntoIterator<Item = Rule>,
        keep_tags: &[Tag],
    ) -> usize {
        // Stamp the incoming rules in arrival order — one stamp per rule, exactly as
        // repeated `insert` calls would consume them (including overwritten duplicates).
        let mut all_same_cid = true;
        let mut staged: Vec<StoredRule> = new_rules
            .into_iter()
            .map(|rule| {
                let stamp = self.next_stamp;
                self.next_stamp += 1;
                all_same_cid &= rule.cid == controller;
                StoredRule { rule, stamp }
            })
            .collect();

        let (lo, hi) = self.controller_range(controller);
        let keep = |s: &StoredRule| keep_tags.contains(&s.rule.tag);
        let removed = self.rules[lo..hi].iter().filter(|s| !keep(s)).count();

        if !all_same_cid || self.rules.len() - removed + staged.len() > self.max_rules {
            // Rules for foreign controllers land outside the block, and near capacity
            // evictions may interleave with the insertions — fall back to the
            // one-at-a-time path to keep the sequence exact. The stamps were already
            // consumed above, so bypass `insert`'s stamp counter.
            self.rules
                .retain(|s| s.rule.cid != controller || keep_tags.contains(&s.rule.tag));
            for s in staged {
                self.insert_stamped(s);
            }
            return removed;
        }

        // Fast path: every incoming rule lands inside the controller's block and the
        // table cannot reach capacity mid-way, so no eviction can happen and sequential
        // insertion reduces to a sorted merge of the block. `myRules()` already emits
        // in key order; arbitrary callers pay a stable sort plus a keep-last dedup
        // (matching the overwrite-on-reinsert semantics of `insert`).
        if !staged.is_sorted_by(|a, b| key_of(&a.rule) <= key_of(&b.rule)) {
            staged.sort_by_key(|s| key_of(&s.rule));
        }
        staged.dedup_by(|later, kept| {
            if key_of(&later.rule) == key_of(&kept.rule) {
                *kept = *later;
                true
            } else {
                false
            }
        });
        let mut block: Vec<StoredRule> = Vec::with_capacity(staged.len());
        let mut old = lo;
        for s in staged {
            let key = key_of(&s.rule);
            while old < hi && key_of(&self.rules[old].rule) < key {
                if keep(&self.rules[old]) {
                    block.push(self.rules[old]);
                }
                old += 1;
            }
            if old < hi && key_of(&self.rules[old].rule) == key {
                old += 1; // overwritten by the incoming rule
            }
            block.push(s);
        }
        while old < hi {
            if keep(&self.rules[old]) {
                block.push(self.rules[old]);
            }
            old += 1;
        }
        if block.len() == hi - lo {
            self.rules[lo..hi].copy_from_slice(&block);
        } else {
            self.rules.splice(lo..hi, block);
        }
        removed
    }

    /// Inserts a rule whose stamp was already drawn from the counter; shares the
    /// eviction logic with [`RuleTable::insert`].
    fn insert_stamped(&mut self, stored: StoredRule) {
        match self.position(&key_of(&stored.rule)) {
            Ok(at) => self.rules[at] = stored,
            Err(mut at) => {
                if self.rules.len() >= self.max_rules {
                    if let Some(victim) = (0..self.rules.len()).min_by_key(|&i| self.rules[i].stamp)
                    {
                        self.rules.remove(victim);
                        self.evictions += 1;
                        if victim < at {
                            at -= 1;
                        }
                    }
                }
                self.rules.insert(at, stored);
            }
        }
    }

    /// The per-owner, per-tag summary a query reply carries, built in one pass: the
    /// table is sorted by owner first, so each owner's entries form one run, kept in
    /// tag order by inserting a tag the first time the run meets it. Neighbouring
    /// rules mostly share their tag (one `updateRule` wrote them), so they are
    /// counted a stretch at a time.
    pub fn summary(&self) -> RuleSummary {
        let mut entries: Vec<SummaryEntry> = Vec::new();
        for block in self.rules.chunk_by(|a, b| a.rule.cid == b.rule.cid) {
            let run = entries.len();
            for stretch in block.chunk_by(|a, b| a.rule.tag == b.rule.tag) {
                let (cid, tag) = (stretch[0].rule.cid, stretch[0].rule.tag);
                let at = run
                    + match entries[run..].binary_search_by_key(&tag, |e| e.tag) {
                        Ok(found) => found,
                        Err(slot) => {
                            entries.insert(run + slot, SummaryEntry { cid, tag, count: 0 });
                            slot
                        }
                    };
                entries[at].count += stretch.len();
            }
        }
        RuleSummary { entries }
    }

    /// All stored rules, in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules.iter().map(|s| &s.rule)
    }

    /// All rules installed by `controller`.
    pub fn rules_of(&self, controller: NodeId) -> Vec<Rule> {
        let (lo, hi) = self.controller_range(controller);
        self.rules[lo..hi].iter().map(|s| s.rule).collect()
    }

    /// Each owner's contiguous block of the table, owners ascending: the table is
    /// sorted by owner first, so a block ends at a `partition_point` and no rule in
    /// between is visited.
    fn owner_blocks(&self) -> impl Iterator<Item = &[StoredRule]> + '_ {
        let mut rest = &self.rules[..];
        std::iter::from_fn(move || {
            let cid = rest.first()?.rule.cid;
            let (block, tail) = rest.split_at(rest.partition_point(|s| s.rule.cid <= cid));
            rest = tail;
            Some(block)
        })
    }

    /// The set of controllers that currently have at least one rule in the table.
    pub fn controllers_with_rules(&self) -> Vec<NodeId> {
        self.owner_blocks().map(|block| block[0].rule.cid).collect()
    }

    /// The next hops of the rules matching a packet `(src, dst)`, by decreasing
    /// priority (ties: ascending next hop, then table order), without collecting them:
    /// each step scans every owner's `dst` range for the successor of the rule it
    /// yielded last. A packet matches a handful of rules and mostly takes the first.
    pub fn matching_hops(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut last = None;
        std::iter::from_fn(move || {
            let mut next = None;
            for block in self.owner_blocks() {
                let lo = block.partition_point(|s| s.rule.dst < dst);
                let same_dst = block[lo..].iter().map(|s| &s.rule);
                for r in same_dst.take_while(|r| r.dst == dst) {
                    // Among equal `(prt, fwd)`, `(cid, src)` is the table's own order.
                    let key = (Reverse(r.prt), r.fwd, r.cid, r.src);
                    if r.matches(src, dst) && Some(key) > last && next.is_none_or(|n| key < n) {
                        next = Some(key);
                    }
                }
            }
            last = Some(next?);
            next.map(|(_, fwd, _, _)| fwd)
        })
    }

    /// The rules matching a packet `(src, dst)`, sorted by decreasing priority: the
    /// collect-and-sort reference [`RuleTable::matching_hops`] is tested against.
    #[cfg(test)]
    pub(crate) fn matching(&self, src: NodeId, dst: NodeId) -> Vec<Rule> {
        let mut out: Vec<Rule> = self
            .iter()
            .copied()
            .filter(|r| r.matches(src, dst))
            .collect();
        out.sort_by(|a, b| b.prt.cmp(&a.prt).then(a.fwd.cmp(&b.fwd)));
        out
    }

    /// Removes every rule (used by tests that model a factory-reset switch).
    pub fn clear(&mut self) {
        self.rules.clear();
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
            sid: n(99),
            src: Some(n(src)),
            dst: n(dst),
            prt,
            fwd: n(fwd),
            tag: Tag::new(cid, tag),
        }
    }

    #[test]
    fn insert_and_match_by_priority() {
        let mut t = RuleTable::new(100);
        t.insert(rule(0, 0, 9, 1, 5, 1));
        t.insert(rule(0, 0, 9, 3, 6, 1));
        t.insert(rule(0, 0, 9, 2, 7, 1));
        t.insert(rule(0, 1, 9, 7, 8, 1)); // different source, must not match
        let m = t.matching(n(0), n(9));
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].prt, 3);
        assert_eq!(m[1].prt, 2);
        assert_eq!(m[2].prt, 1);
        assert!(t.matching(n(2), n(9)).is_empty());
    }

    #[test]
    fn reinserting_same_slot_does_not_grow_table() {
        let mut t = RuleTable::new(10);
        t.insert(rule(0, 0, 9, 1, 5, 1));
        t.insert(rule(0, 0, 9, 1, 6, 2)); // same key, new fwd/tag
        assert_eq!(t.len(), 1);
        assert_eq!(t.matching(n(0), n(9))[0].fwd, n(6));
    }

    #[test]
    fn full_table_evicts_least_recently_updated() {
        let mut t = RuleTable::new(2);
        t.insert(rule(0, 0, 1, 1, 5, 1));
        t.insert(rule(0, 0, 2, 1, 5, 1));
        // Refresh the first rule so the second becomes the LRU victim.
        t.insert(rule(0, 0, 1, 1, 5, 2));
        let evicted = t.insert(rule(0, 0, 3, 1, 5, 1));
        assert!(evicted);
        assert_eq!(t.len(), 2);
        assert_eq!(t.evictions(), 1);
        assert!(t.matching(n(0), n(2)).is_empty(), "LRU rule evicted");
        assert!(!t.matching(n(0), n(1)).is_empty(), "refreshed rule kept");
    }

    #[test]
    fn delete_controller_removes_only_its_rules() {
        let mut t = RuleTable::new(10);
        t.insert(rule(0, 0, 1, 1, 5, 1));
        t.insert(rule(1, 1, 2, 1, 5, 1));
        t.insert(rule(0, 0, 2, 1, 5, 1));
        assert_eq!(t.delete_controller(n(0)), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.controllers_with_rules(), vec![n(1)]);
        assert_eq!(t.delete_controller(n(0)), 0);
    }

    #[test]
    fn replace_controller_rules_respects_keep_tags() {
        let mut t = RuleTable::new(10);
        t.insert(rule(0, 0, 1, 1, 5, 1)); // tag 1
        t.insert(rule(0, 0, 2, 1, 5, 2)); // tag 2
        t.insert(rule(1, 1, 2, 1, 5, 7)); // other controller
        let removed = t.replace_controller_rules(n(0), [rule(0, 0, 3, 1, 5, 3)], &[Tag::new(0, 2)]);
        assert_eq!(removed, 1, "only the tag-1 rule is dropped");
        let of0 = t.rules_of(n(0));
        assert_eq!(of0.len(), 2);
        assert!(of0.iter().any(|r| r.tag == Tag::new(0, 2)));
        assert!(of0.iter().any(|r| r.tag == Tag::new(0, 3)));
        assert_eq!(t.rules_of(n(1)).len(), 1);
    }

    #[test]
    fn rules_of_and_clear() {
        let mut t = RuleTable::new(10);
        t.insert(rule(2, 0, 1, 1, 5, 1));
        assert_eq!(t.rules_of(n(2)).len(), 1);
        assert_eq!(t.capacity(), 10);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn rule_matching_predicate() {
        let r = rule(0, 3, 4, 1, 5, 1);
        assert!(r.matches(n(3), n(4)));
        assert!(!r.matches(n(4), n(3)));
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(Rule::WIRE_SIZE > 0);
        }
    }

    #[test]
    fn summary_groups_by_owner_and_tag() {
        // Owner 0 holds an old-tag rule between two new-tag ones (the three-tag
        // variant's kept rules interleave like this); owner 2 holds one rule.
        let mut t = RuleTable::new(10);
        t.insert(rule(0, 0, 1, 1, 5, 8));
        t.insert(rule(0, 0, 2, 1, 5, 7));
        t.insert(rule(0, 0, 3, 1, 5, 8));
        t.insert(rule(2, 0, 1, 1, 5, 3));
        let summary = t.summary();
        assert_eq!(summary.owners().collect::<Vec<_>>(), vec![n(0), n(2)]);
        assert_eq!(
            summary.tags().collect::<Vec<_>>(),
            vec![Tag::new(0, 7), Tag::new(0, 8), Tag::new(2, 3)]
        );
        assert_eq!(summary.max_tag(), Some(Tag::new(0, 8)));
        assert_eq!(summary.rule_count(), 4);
        assert_eq!(RuleTable::new(1).summary(), RuleSummary::default());
        assert_eq!(RuleSummary::default().max_tag(), None);
    }

    /// The one-pass summary of the sorted table equals the sort-and-count reference
    /// after every step of a random `insert` / `replace_controller_rules` /
    /// `delete_controller` history, including foreign owners and evictions.
    #[test]
    fn summary_matches_reference_under_random_histories() {
        use sdn_rng::Rng;
        let mut evictions = 0;
        for seed in 0..20u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut t = RuleTable::new(rng.gen_range(4..40usize));
            let random_rule = |rng: &mut Rng, cid: u32| {
                rule(
                    cid,
                    rng.gen_range(0..3u32),
                    rng.gen_range(0..12u32),
                    rng.gen_range(0..3u32) as u8,
                    rng.gen_range(0..6u32),
                    rng.gen_range(1..6u64),
                )
            };
            for step in 0..200 {
                let owner = rng.gen_range(0..4u32);
                match rng.gen_range(0..6u32) {
                    0 => {
                        t.insert(random_rule(&mut rng, owner));
                    }
                    1 => {
                        t.delete_controller(n(owner));
                    }
                    kind => {
                        // Mostly the owner's own rules under one round tag, as
                        // `myRules()` sends them; sometimes a foreign one mixed in.
                        let tag = rng.gen_range(1..6u64);
                        let rules: Vec<Rule> = (0..rng.gen_range(0..30u32))
                            .map(|_| {
                                let cid = if rng.gen_bool(0.05) {
                                    rng.gen_range(0..6u32)
                                } else {
                                    owner
                                };
                                Rule {
                                    tag: Tag::new(owner, tag),
                                    ..random_rule(&mut rng, cid)
                                }
                            })
                            .collect();
                        let keep: Vec<Tag> = (kind >= 4)
                            .then(|| Tag::new(owner, rng.gen_range(1..6u64)))
                            .into_iter()
                            .collect();
                        t.replace_controller_rules(n(owner), rules, &keep);
                    }
                }
                let summary = t.summary();
                assert_eq!(
                    summary,
                    RuleSummary::from_rules(t.iter()),
                    "seed {seed} step {step}"
                );
                assert_eq!(summary.rule_count(), t.len());
                assert!(t.len() <= t.capacity());
            }
            evictions += t.evictions();
        }
        assert!(evictions > 0, "the near-capacity path must have run");
    }

    #[test]
    #[should_panic(expected = "at least one rule")]
    fn zero_capacity_rejected() {
        let _ = RuleTable::new(0);
    }
}
