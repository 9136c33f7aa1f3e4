//! Packet-forwarding rules and the bounded rule table of the abstract switch.
//!
//! A rule is the tuple `<cID, sID, src, dest, prt, fwd, tag>` of the paper (Figure 4):
//! controller that installed it, switch that stores it, matched source and destination,
//! priority, forwarding next hop, and the synchronization-round tag. `sID` is the
//! switch whose table holds the rule, so no rule spells it out. `cID` and `tag` are
//! the same for every rule of one `updateRule` command, and what does vary —
//! `<src, dest, prt, fwd>`, a [`RuleBody`] — is a pure function of the sender's routing
//! plan and the addressed switch. So that part is built once, as an immutable
//! [`RuleSet`], and shared by reference between the controller that built it, the
//! packets that carry it and every table it is installed in; a [`RuleTable`] is the
//! short list of the sets installed in it. [`Rule`] is the by-value view of one rule.
//!
//! The table is bounded by `maxRules` and evicts the least-recently-updated rules first,
//! which is the memory-management behaviour the paper requires in Section 2.1.1.

use sdn_tags::Tag;
use sdn_topology::NodeId;
use std::cmp::Reverse;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A single match-action packet-forwarding rule.
///
/// The source match is optional: `None` is a wildcard (the paper explicitly allows
/// wildcard matches, Section 2.1), which is what Renaissance's `myRules()` uses — a
/// flow's forwarding decision only depends on the destination, so one wildcard rule per
/// destination and priority level replaces a rule per (source, destination) pair and
/// keeps the table within the paper's Lemma 1 bound.
///
/// The paper's `sID` is not a field: it is the switch whose table holds the rule.
///
/// # Example
///
/// ```
/// use sdn_switch::rules::Rule;
/// use sdn_tags::Tag;
/// use sdn_topology::NodeId;
/// let r = Rule {
///     cid: NodeId::new(0),
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
        self.body().matches(src, dst)
    }

    /// The part of the rule that varies within one `updateRule` command.
    pub fn body(&self) -> RuleBody {
        RuleBody {
            dst: self.dst,
            src: self.src,
            prt: self.prt,
            fwd: self.fwd,
        }
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
    // stancheck: allow(test-only-api) — reference implementation a test compares against
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

/// What varies from rule to rule within one `updateRule` command: the match, the
/// priority and the action. The owner (`cID`) and the `tag` are the command's, so a
/// body names neither — which is what lets one [`RuleSet`] outlive rounds and be
/// shared between tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RuleBody {
    /// Matched packet destination field.
    pub dst: NodeId,
    /// Matched packet source field; `None` is a wildcard.
    pub src: Option<NodeId>,
    /// Rule priority; larger values are matched first.
    pub prt: u8,
    /// The neighbor the packet is forwarded to when this rule applies.
    pub fwd: NodeId,
}

/// An owner holds one rule per (destination, source, priority) slot. The priority is
/// reversed so that `myRules()` — which emits destinations ascending with priorities
/// descending — produces its bodies already in slot order.
type Slot = (NodeId, Option<NodeId>, Reverse<u8>);

impl RuleBody {
    fn slot(&self) -> Slot {
        (self.dst, self.src, Reverse(self.prt))
    }

    /// Returns `true` when the body matches a packet with the given source and
    /// destination header fields.
    pub fn matches(&self, src: NodeId, dst: NodeId) -> bool {
        self.src.is_none_or(|s| s == src) && self.dst == dst
    }

    /// The rule this body is when `cid` installs it under `tag`.
    pub fn owned_by(self, cid: NodeId, tag: Tag) -> Rule {
        Rule {
            cid,
            src: self.src,
            dst: self.dst,
            prt: self.prt,
            fwd: self.fwd,
            tag,
        }
    }
}

/// The rules of one `updateRule` command: immutable, shared by reference
/// (`clone` bumps a count), and canonical by construction — strictly ascending by
/// `(dst, src, Reverse(prt))`, one body per slot. Collecting bodies in any order
/// yields the canonical set; of bodies naming the same slot the last one wins, as it
/// would if they were inserted one after the other.
///
/// # Example
///
/// ```
/// use sdn_switch::rules::{RuleBody, RuleSet};
/// use sdn_topology::NodeId;
/// let body = |dst, prt, fwd| RuleBody {
///     dst: NodeId::new(dst),
///     src: None,
///     prt,
///     fwd: NodeId::new(fwd),
/// };
/// let set: RuleSet = [body(7, 1, 2), body(3, 9, 4), body(7, 1, 5)].into_iter().collect();
/// assert_eq!(set[..], [body(3, 9, 4), body(7, 1, 5)]);
/// assert!(RuleSet::ptr_eq(&set, &set.clone()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleSet(Arc<[RuleBody]>);

impl RuleSet {
    /// Returns `true` when both handles point at one allocation. Equal contents do not
    /// imply it; it is only ever a shortcut for a comparison that would say "equal".
    pub fn ptr_eq(a: &RuleSet, b: &RuleSet) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for RuleSet {
    type Target = [RuleBody];

    fn deref(&self) -> &[RuleBody] {
        &self.0
    }
}

impl FromIterator<RuleBody> for RuleSet {
    fn from_iter<I: IntoIterator<Item = RuleBody>>(bodies: I) -> Self {
        let mut bodies: Vec<RuleBody> = bodies.into_iter().collect();
        if !bodies.is_sorted_by(|a, b| a.slot() < b.slot()) {
            bodies.sort_by_key(RuleBody::slot);
            bodies.dedup_by(|later, kept| {
                let same_slot = later.slot() == kept.slot();
                if same_slot {
                    *kept = *later;
                }
                same_slot
            });
        }
        // A table addresses the rules of a set by `u32` index.
        assert!(u32::try_from(bodies.len()).is_ok(), "rule set too large");
        RuleSet(bodies.into())
    }
}

/// One `updateRule`'s worth of rules as a table holds it: the shared set, what the
/// command said about all of it, and which of its rules are still in force.
#[derive(Clone, Debug)]
struct InstalledSet {
    cid: NodeId,
    tag: Tag,
    /// Rule `i` of `rules` carries freshness stamp `first_stamp + i`; smaller means
    /// less recently updated.
    first_stamp: u64,
    rules: RuleSet,
    /// Ascending indices of the rules no later installation overwrote and no eviction
    /// took; `None` is all of them. Never `Some` of nothing: a set without live rules
    /// leaves the table.
    live: Option<Vec<u32>>,
}

impl InstalledSet {
    fn live_len(&self) -> usize {
        self.live.as_ref().map_or(self.rules.len(), Vec::len)
    }

    fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let (all, some) = match &self.live {
            None => (0..self.rules.len(), [].iter()),
            Some(indices) => (0..0, indices.iter()),
        };
        all.chain(some.map(|&i| i as usize))
    }

    /// The live rules, each with its freshness stamp.
    fn stamped(&self) -> impl Iterator<Item = (u64, Rule)> + '_ {
        self.live_indices().map(|i| {
            let rule = self.rules[i].owned_by(self.cid, self.tag);
            (self.first_stamp + i as u64, rule)
        })
    }

    /// Index of the least recently updated live rule (a set in a table has one).
    fn oldest(&self) -> usize {
        self.live.as_ref().map_or(0, |live| live[0] as usize)
    }

    /// Index of the live rule in `slot`, if there is one.
    fn find(&self, slot: &Slot) -> Option<usize> {
        let i = self.rules.binary_search_by_key(slot, RuleBody::slot).ok()?;
        match &self.live {
            None => Some(i),
            Some(indices) => indices.binary_search(&(i as u32)).ok().map(|_| i),
        }
    }

    /// The live rules towards `dst`, in slot order.
    fn towards(&self, dst: NodeId) -> impl Iterator<Item = &RuleBody> + '_ {
        let rules = &self.rules[..];
        let (all, some): (&[RuleBody], &[u32]) = match &self.live {
            None => (&rules[rules.partition_point(|r| r.dst < dst)..], &[]),
            Some(live) => {
                let from = live.partition_point(|&i| rules[i as usize].dst < dst);
                (&[], &live[from..])
            }
        };
        all.iter()
            .chain(some.iter().map(move |&i| &rules[i as usize]))
            .take_while(move |r| r.dst == dst)
    }

    /// Takes the live rule at `index` out of force.
    fn strike(&mut self, index: usize) {
        let all = 0..self.rules.len() as u32;
        let live = self.live.get_or_insert_with(|| all.collect());
        live.retain(|&i| i as usize != index);
    }

    /// Takes out of force every live rule whose slot `newer` also fills, and returns
    /// how many that were. The same allocation fills exactly the same slots; any other
    /// set costs one walk over both, writing only the survivors.
    fn strike_slots_of(&mut self, newer: &RuleSet) -> usize {
        let before = self.live_len();
        if RuleSet::ptr_eq(&self.rules, newer) {
            self.live = Some(Vec::new());
            return before;
        }
        let mut theirs = newer.iter().map(RuleBody::slot).peekable();
        let survivors: Vec<u32> = self
            .live_indices()
            .filter(|&i| {
                let mine = self.rules[i].slot();
                while theirs.next_if(|slot| *slot < mine).is_some() {}
                theirs.peek() != Some(&mine)
            })
            .map(|i| i as u32)
            .collect();
        let struck = before - survivors.len();
        if struck > 0 {
            self.live = Some(survivors);
        }
        struck
    }
}

/// The bounded rule table of an abstract switch.
///
/// Capacity is `max_rules`; inserting into a full table evicts the least-recently
/// updated rule (the paper's clogged-memory policy). Re-installing an existing rule
/// refreshes its stamp, so the rules of live controllers — which refresh every round —
/// are never evicted in favour of stale ones.
///
/// The table does not store rules; it stores the [`RuleSet`]s installed in it. An
/// `updateRule` ([`RuleTable::install`]) drops the owner's sets whose tag is not kept,
/// takes out of force the kept rules the new set overwrites, and appends a reference
/// to the new set: no rule is copied, and a controller that re-sends the set it sent
/// before costs a pointer comparison. A live controller owns one or two sets (the
/// current round's and, in the three-tag variant, what is left of the previous
/// round's), so every whole-table question — the query reply's summary, a forwarding
/// lookup, the eviction victim — is asked of a handful of sets.
///
/// Two tables are equal when they hold the same rules with the same freshness stamps
/// (and agree on capacity and counters), however those rules are split into sets.
#[derive(Clone, Debug)]
pub struct RuleTable {
    max_rules: usize,
    /// Sorted by owner; an owner's sets in installation order. Every set has a live
    /// rule, and no two live rules of one owner fill the same slot.
    sets: Vec<InstalledSet>,
    /// Live rules over all sets.
    len: usize,
    next_stamp: u64,
    evictions: u64,
    forwarding_version: u64,
}

impl PartialEq for RuleTable {
    fn eq(&self, other: &Self) -> bool {
        let state = |t: &RuleTable| {
            let mut rules = t.stamped(0..t.sets.len());
            rules.sort_unstable_by_key(|&(stamp, _)| stamp);
            (t.max_rules, t.evictions, t.next_stamp, rules)
        };
        state(self) == state(other)
    }
}

impl Eq for RuleTable {}

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
            sets: Vec::new(),
            len: 0,
            next_stamp: 0,
            evictions: 0,
            forwarding_version: 0,
        }
    }

    /// A counter that moves whenever the live rules' owners or bodies, all forwarding
    /// reads, may have changed; an owner re-sending the one set it holds in full leaves it.
    pub fn forwarding_version(&self) -> u64 {
        self.forwarding_version
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.max_rules
    }

    /// Number of rules currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no rules are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of rules evicted due to a full table since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The index range of `controller`'s sets.
    fn sets_of(&self, controller: NodeId) -> Range<usize> {
        let lo = self.sets.partition_point(|s| s.cid < controller);
        lo..lo + self.sets[lo..].partition_point(|s| s.cid == controller)
    }

    /// Takes rule `index` of set `at` out of force, and the set out of the table if
    /// that was its last.
    fn strike(&mut self, at: usize, index: usize) {
        self.sets[at].strike(index);
        self.len -= 1;
        if self.sets[at].live_len() == 0 {
            self.sets.remove(at);
        }
    }

    /// Inserts (or refreshes) a rule, evicting the least-recently-updated rule if the
    /// table is full. Returns `true` if an eviction happened.
    ///
    /// The rule becomes a set of its own; this is the path of corruption helpers,
    /// tests and a table at capacity, not of a controller's round.
    pub fn insert(&mut self, rule: Rule) -> bool {
        self.forwarding_version += 1;
        let slot = rule.body().slot();
        let holder = self
            .sets_of(rule.cid)
            .find_map(|at| self.sets[at].find(&slot).map(|index| (at, index)));
        let mut evicted = false;
        if let Some((at, index)) = holder {
            self.strike(at, index);
        } else if self.len >= self.max_rules {
            // Stamps are unique, so the victim is unambiguous.
            let oldest_stamp = |s: &InstalledSet| s.first_stamp + s.oldest() as u64;
            let victim = (0..self.sets.len()).min_by_key(|&at| oldest_stamp(&self.sets[at]));
            if let Some(at) = victim {
                self.strike(at, self.sets[at].oldest());
                self.evictions += 1;
                evicted = true;
            }
        }
        self.push(rule.cid, rule.tag, [rule.body()].into_iter().collect());
        evicted
    }

    /// Appends `rules` to `cid`'s sets, stamping them in order.
    fn push(&mut self, cid: NodeId, tag: Tag, rules: RuleSet) {
        let at = self.sets_of(cid).end;
        self.len += rules.len();
        let first_stamp = self.next_stamp;
        self.next_stamp += rules.len() as u64;
        if !rules.is_empty() {
            let set = InstalledSet {
                cid,
                tag,
                first_stamp,
                rules,
                live: None,
            };
            self.sets.insert(at, set);
        }
    }

    /// Removes every rule installed by `controller`. Returns how many were removed.
    pub fn delete_controller(&mut self, controller: NodeId) -> usize {
        self.forwarding_version += 1;
        self.drop_sets(controller, |_| false)
    }

    /// Removes `controller`'s sets whose tag `keep` rejects. Returns how many rules
    /// that removed.
    fn drop_sets(&mut self, controller: NodeId, keep: impl Fn(Tag) -> bool) -> usize {
        let before = self.len;
        let mut len = before;
        self.sets.retain(|s| {
            let stays = s.cid != controller || keep(s.tag);
            if !stays {
                len -= s.live_len();
            }
            stays
        });
        self.len = len;
        before - len
    }

    /// The `updateRule` command: `owner`'s rules whose tag is *not* in `keep_tags` are
    /// removed, then `rules` are installed under `tag` — with the outcome (contents,
    /// freshness stamps, evictions) of inserting them one by one in set order, at the
    /// cost of looking at none of them unless a kept set has to be compared against.
    ///
    /// Plain Algorithm 2 passes an empty `keep_tags` (replace everything), while the
    /// Section 6.2 evaluation variant keeps the previous round's tag alive for one
    /// extra round.
    ///
    /// Returns the number of rules removed.
    pub fn install(
        &mut self,
        owner: NodeId,
        tag: Tag,
        rules: &RuleSet,
        keep_tags: &[Tag],
    ) -> usize {
        // Re-sending the one set the owner holds in full changes no live rule.
        let resent = matches!(&self.sets[self.sets_of(owner)],
            [held] if held.live.is_none() && RuleSet::ptr_eq(&held.rules, rules));
        let removed = self.drop_sets(owner, |kept| keep_tags.contains(&kept));
        if self.len + rules.len() > self.max_rules {
            // Near capacity evictions may interleave with the insertions: take the
            // one-at-a-time path to keep the sequence exact.
            for body in rules.iter() {
                self.insert(body.owned_by(owner, tag));
            }
            return removed;
        }
        let mut struck = 0;
        for at in self.sets_of(owner) {
            struck += self.sets[at].strike_slots_of(rules);
        }
        if struck > 0 {
            self.len -= struck;
            self.sets.retain(|s| s.live_len() > 0);
        }
        self.push(owner, tag, rules.clone());
        self.forwarding_version += u64::from(!resent);
        removed
    }

    /// [`RuleTable::install`] for rules held by value: a batch that is what `owner`
    /// would send (its own rules, one tag, strictly ascending slots) is installed as
    /// one set; any other — unsorted, repeated slots, mixed tags, rules under other
    /// owners' ids — is the unkept rules removed and one [`RuleTable::insert`] each.
    ///
    /// Returns the number of rules removed.
    pub fn replace_controller_rules(
        &mut self,
        controller: NodeId,
        new_rules: impl IntoIterator<Item = Rule>,
        keep_tags: &[Tag],
    ) -> usize {
        let new_rules: Vec<Rule> = new_rules.into_iter().collect();
        let one_set = new_rules.first().filter(|first| {
            new_rules
                .iter()
                .all(|r| (r.cid, r.tag) == (controller, first.tag))
                && new_rules.is_sorted_by(|a, b| a.body().slot() < b.body().slot())
        });
        if let Some(first) = one_set {
            let set = new_rules.iter().map(Rule::body).collect();
            return self.install(controller, first.tag, &set, keep_tags);
        }
        let removed = self.drop_sets(controller, |kept| keep_tags.contains(&kept));
        self.forwarding_version += 1;
        for rule in new_rules {
            self.insert(rule);
        }
        removed
    }

    /// The per-owner, per-tag summary a query reply carries: one entry per installed
    /// set, coalesced where an owner holds several under one tag.
    pub fn summary(&self) -> RuleSummary {
        let mut entries: Vec<SummaryEntry> = self
            .sets
            .iter()
            .map(|s| SummaryEntry {
                cid: s.cid,
                tag: s.tag,
                count: s.live_len(),
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.cid, e.tag));
        entries.dedup_by(|later, kept| {
            let same_group = (later.cid, later.tag) == (kept.cid, kept.tag);
            if same_group {
                kept.count += later.count;
            }
            same_group
        });
        RuleSummary { entries }
    }

    /// The live rules of the sets in `sets` with their freshness stamps, in no
    /// particular order.
    fn stamped(&self, sets: Range<usize>) -> Vec<(u64, Rule)> {
        self.sets[sets]
            .iter()
            .flat_map(InstalledSet::stamped)
            .collect()
    }

    /// The rules of the sets in `sets`, by owner and then slot.
    fn rules_in(&self, sets: Range<usize>) -> Vec<Rule> {
        let mut rules: Vec<Rule> = self.stamped(sets).into_iter().map(|(_, r)| r).collect();
        rules.sort_unstable_by_key(|r| (r.cid, r.body().slot()));
        rules
    }

    /// All stored rules, by owner and then `(dst, src, Reverse(prt))`.
    pub fn iter(&self) -> impl Iterator<Item = Rule> {
        self.rules_in(0..self.sets.len()).into_iter()
    }

    /// All rules installed by `controller`, in the order of [`RuleTable::iter`].
    pub fn rules_of(&self, controller: NodeId) -> Vec<Rule> {
        self.rules_in(self.sets_of(controller))
    }

    /// The set of controllers that currently have at least one rule in the table.
    pub fn controllers_with_rules(&self) -> Vec<NodeId> {
        self.sets
            .chunk_by(|a, b| a.cid == b.cid)
            .map(|run| run[0].cid)
            .collect()
    }

    /// The next hops of the rules matching a packet `(src, dst)`, by decreasing
    /// priority (ties: ascending next hop, then owner, then source match), without
    /// collecting them: each step scans every set's `dst` range for the successor of
    /// the rule it yielded last. A packet matches a handful of rules and mostly takes
    /// the first.
    pub fn matching_hops(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut last = None;
        std::iter::from_fn(move || {
            let mut next = None;
            for set in &self.sets {
                for r in set.towards(dst) {
                    // Live rules differ in slot or owner, so no two share this key.
                    let key = (Reverse(r.prt), r.fwd, set.cid, r.src);
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
        let mut out: Vec<Rule> = self.iter().filter(|r| r.matches(src, dst)).collect();
        out.sort_by(|a, b| b.prt.cmp(&a.prt).then(a.fwd.cmp(&b.fwd)));
        out
    }

    /// Removes every rule (used by tests that model a factory-reset switch).
    pub fn clear(&mut self) {
        self.sets.clear();
        self.len = 0;
        self.forwarding_version += 1;
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
                    RuleSummary::from_rules(&t.iter().collect::<Vec<_>>()),
                    "seed {seed} step {step}"
                );
                assert_eq!(summary.rule_count(), t.len());
                assert!(t.len() <= t.capacity());
            }
            evictions += t.evictions();
        }
        assert!(evictions > 0, "the near-capacity path must have run");
    }

    /// The table as the paper words it — rules with freshness stamps and three laws:
    /// a rule overwrites the one in its `(cid, dst, src, prt)` slot, a full table evicts
    /// the smallest stamp, and `updateRule` is "drop the unkept, then insert each".
    struct Model {
        max_rules: usize,
        rules: Vec<(Rule, u64)>,
        next_stamp: u64,
        evictions: u64,
    }

    impl Model {
        fn insert(&mut self, rule: Rule) {
            let stamped = (rule, self.next_stamp);
            self.next_stamp += 1;
            let slot = |r: &Rule| (r.cid, r.dst, r.src, r.prt);
            if let Some(held) = self.rules.iter_mut().find(|(r, _)| slot(r) == slot(&rule)) {
                *held = stamped;
                return;
            }
            if self.rules.len() >= self.max_rules {
                let oldest = (0..self.rules.len()).min_by_key(|&i| self.rules[i].1);
                self.rules.remove(oldest.unwrap());
                self.evictions += 1;
            }
            self.rules.push(stamped);
        }

        fn delete_where(&mut self, doomed: impl Fn(&Rule) -> bool) -> usize {
            let before = self.rules.len();
            self.rules.retain(|(r, _)| !doomed(r));
            before - self.rules.len()
        }

        fn update(&mut self, owner: NodeId, rules: &[Rule], keep: &[Tag]) -> usize {
            let removed = self.delete_where(|r| r.cid == owner && !keep.contains(&r.tag));
            rules.iter().for_each(|r| self.insert(*r));
            removed
        }

        fn in_table_order(&self) -> Vec<Rule> {
            let mut rules: Vec<Rule> = self.rules.iter().map(|(r, _)| *r).collect();
            rules.sort_by_key(|r| (r.cid, r.dst, r.src, Reverse(r.prt)));
            rules
        }

        /// Everything a [`RuleTable`] lets a caller observe, asserted equal.
        fn assert_matches(&self, t: &RuleTable, at: &str) {
            let rules = self.in_table_order();
            assert_eq!(t.iter().collect::<Vec<_>>(), rules, "{at}");
            assert_eq!(
                (t.len(), t.evictions()),
                (rules.len(), self.evictions),
                "{at}"
            );
            assert_eq!(t.is_empty(), rules.is_empty(), "{at}");
            assert_eq!(t.summary(), RuleSummary::from_rules(&rules), "{at}");
            let mut owners: Vec<NodeId> = rules.iter().map(|r| r.cid).collect();
            owners.dedup();
            assert_eq!(t.controllers_with_rules(), owners, "{at}");
            for &owner in &owners {
                let theirs: Vec<Rule> = rules.iter().copied().filter(|r| r.cid == owner).collect();
                assert_eq!(t.rules_of(owner), theirs, "{at}");
            }
        }
    }

    /// `install` ≡ that many `insert`s, `replace_controller_rules` ≡ drop-unkept plus
    /// one `insert` each, and pointer equality is only a shortcut: a table fed shared
    /// sets, a table fed deep copies of them and the naive model are driven side by
    /// side through random histories, at capacities where evictions fire, and agree on
    /// everything observable after every step — stamps included, which show in which
    /// of the held rules survive when the table is then flooded to a random depth.
    #[test]
    fn table_matches_the_insert_by_insert_model_under_random_histories() {
        use sdn_rng::Rng;
        let (mut evictions, mut shortcuts, mut partial, mut as_one_set) = (0, 0, 0, 0);
        for seed in 0..24u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let capacity = if seed % 2 == 0 {
                rng.gen_range(4..40usize)
            } else {
                rng.gen_range(60..140usize)
            };
            let (mut shared, mut copied) = (RuleTable::new(capacity), RuleTable::new(capacity));
            let mut model = Model {
                max_rules: capacity,
                rules: Vec::new(),
                next_stamp: 0,
                evictions: 0,
            };
            let random_rule = |rng: &mut Rng, cid: u32| Rule {
                src: rng.gen_bool(0.5).then(|| n(rng.gen_range(0..3u32))),
                ..rule(
                    cid,
                    0,
                    rng.gen_range(0..10u32),
                    rng.gen_range(0..3u32) as u8,
                    rng.gen_range(0..6u32),
                    rng.gen_range(1..4u64),
                )
            };
            // What the controllers' memos hold: three sets per owner, sent again and again.
            let pool: Vec<RuleSet> = (0..12)
                .map(|_| {
                    let len = rng.gen_range(0..14u32);
                    (0..len).map(|_| random_rule(&mut rng, 0).body()).collect()
                })
                .collect();
            for step in 0..200 {
                let at = format!("seed {seed} step {step}");
                let owner = rng.gen_range(0..4u32);
                let tag = Tag::new(owner, rng.gen_range(1..4u64));
                let keep: Vec<Tag> = (0..rng.gen_range(0..3u32))
                    .map(|_| Tag::new(owner, rng.gen_range(1..4u64)))
                    .collect();
                match rng.gen_range(0..16u32) {
                    0 | 1 => {
                        let rule = random_rule(&mut rng, owner);
                        let evicted = shared.insert(rule);
                        assert_eq!(copied.insert(rule), evicted, "{at}");
                        model.insert(rule);
                    }
                    2 => {
                        let removed = shared.delete_controller(n(owner));
                        assert_eq!(copied.delete_controller(n(owner)), removed, "{at}");
                        let gone = model.delete_where(|r| r.cid == n(owner));
                        assert_eq!(gone, removed, "{at}");
                    }
                    3..=10 => {
                        let set = &pool[owner as usize * 3 + rng.gen_range(0..3usize)];
                        // Which of `install`'s branches this step takes.
                        let sets = &shared.sets[shared.sets_of(n(owner))];
                        let unkept = sets.iter().filter(|s| !keep.contains(&s.tag));
                        let unkept: usize = unkept.map(InstalledSet::live_len).sum();
                        if shared.len() - unkept + set.len() <= capacity {
                            for s in sets.iter().filter(|s| keep.contains(&s.tag)) {
                                let held = |&i: &usize| s.rules[i].slot();
                                let overwritten =
                                    |i: &usize| set.iter().any(|b| b.slot() == held(i));
                                let overlap = s.live_indices().filter(overwritten).count();
                                shortcuts += usize::from(RuleSet::ptr_eq(&s.rules, set));
                                partial += usize::from(0 < overlap && overlap < s.live_len());
                            }
                        }
                        let removed = shared.install(n(owner), tag, set, &keep);
                        let deep_copy: RuleSet = set.iter().copied().collect();
                        assert!(!RuleSet::ptr_eq(&deep_copy, set));
                        let removed_copy = copied.install(n(owner), tag, &deep_copy, &keep);
                        assert_eq!(removed_copy, removed, "{at}");
                        let rules: Vec<Rule> =
                            set.iter().map(|b| b.owned_by(n(owner), tag)).collect();
                        assert_eq!(model.update(n(owner), &rules, &keep), removed, "{at}");
                    }
                    kind => {
                        // By value: unsorted, repeated slots, mixed tags, foreign owners —
                        // or, most of the time, exactly what the owner would send.
                        let noisy = kind >= 14;
                        let mut rules: Vec<Rule> = (0..rng.gen_range(0..14u32))
                            .map(|_| {
                                let foreign = noisy && rng.gen_bool(0.1);
                                let other_tag = noisy && rng.gen_bool(0.1);
                                let cid = if foreign {
                                    rng.gen_range(0..6u32)
                                } else {
                                    owner
                                };
                                Rule {
                                    tag: keep.first().copied().filter(|_| other_tag).unwrap_or(tag),
                                    ..random_rule(&mut rng, cid)
                                }
                            })
                            .collect();
                        if !noisy {
                            rules.sort_by_key(|r| r.body().slot());
                            rules.dedup_by_key(|r| r.body().slot());
                            as_one_set += usize::from(!rules.is_empty());
                        }
                        let by_value = |t: &mut RuleTable| {
                            t.replace_controller_rules(n(owner), rules.iter().copied(), &keep)
                        };
                        let removed = by_value(&mut shared);
                        assert_eq!(by_value(&mut copied), removed, "{at}");
                        assert_eq!(model.update(n(owner), &rules, &keep), removed, "{at}");
                    }
                }
                model.assert_matches(&shared, &at);
                assert_eq!(shared, copied, "{at}");

                // Flood copies of both: the rules held leave in stamp order.
                let mut flooded = shared.clone();
                let mut flooded_model = Model {
                    rules: model.rules.clone(),
                    ..model
                };
                let depth = rng.gen_range(0..=shared.len());
                for filler in 0..(capacity - shared.len() + depth) as u32 {
                    let rule = rule(9, 0, 100 + filler, 0, 0, 1);
                    flooded.insert(rule);
                    flooded_model.insert(rule);
                }
                assert_eq!(flooded.evictions(), shared.evictions() + depth as u64);
                flooded_model.assert_matches(&flooded, &format!("{at} flooded by {depth}"));
            }
            evictions += shared.evictions();
        }
        assert!(
            evictions > 100 && shortcuts > 50 && partial > 50 && as_one_set > 100,
            "{evictions} evictions, {shortcuts} pointer-equal kept sets, {partial} partly \
             overwritten kept sets, {as_one_set} by-value batches installed as one set"
        );
    }

    /// How the rules are split into sets is not part of a table's value.
    #[test]
    fn equality_ignores_how_rules_are_layered_into_sets() {
        let bodies: Vec<RuleBody> = (1..=5).map(|dst| rule(0, 0, dst, 1, 5, 1).body()).collect();
        let set: RuleSet = bodies.iter().copied().collect();
        let (mut installed, mut inserted) = (RuleTable::new(10), RuleTable::new(10));
        installed.install(n(0), Tag::new(0, 1), &set, &[]);
        for body in &bodies {
            inserted.insert(body.owned_by(n(0), Tag::new(0, 1)));
        }
        assert_eq!((installed.sets.len(), inserted.sets.len()), (1, 5));
        assert_eq!(installed, inserted);
        // ... but the stamps are: refreshing one rule makes the tables differ.
        inserted.insert(bodies[0].owned_by(n(0), Tag::new(0, 1)));
        assert_eq!(
            installed.iter().collect::<Vec<_>>(),
            inserted.iter().collect::<Vec<_>>()
        );
        assert_ne!(installed, inserted);
    }

    /// Re-sending the one set an owner holds in full is the only change that leaves
    /// `forwarding_version` where it was.
    #[test]
    fn forwarding_version_stands_still_only_for_a_full_resend() {
        let (t1, t2) = (Tag::new(0, 1), Tag::new(0, 2));
        let set: RuleSet = (1..=4).map(|dst| rule(0, 0, dst, 1, 5, 1).body()).collect();
        let copy: RuleSet = set.iter().copied().collect();
        let mut t = RuleTable::new(8);
        let mut last = t.forwarding_version();
        let mut moved = |t: &RuleTable| {
            let was = std::mem::replace(&mut last, t.forwarding_version());
            was != last
        };
        t.install(n(0), t1, &set, &[]);
        assert!(moved(&t), "first install");
        t.install(n(0), t1, &set, &[]);
        assert!(!moved(&t), "re-send under the same tag");
        t.install(n(0), t2, &set, &[]);
        assert!(!moved(&t), "re-send under a new round's tag");
        t.install(n(0), t1, &set, &[t2]);
        assert!(!moved(&t), "re-send keeping the previous round's set");
        t.insert(rule(1, 1, 9, 1, 5, 1));
        assert!(moved(&t), "insert");
        t.install(n(0), t2, &set, &[t1]);
        assert!(moved(&t), "re-send over a kept set, down the capacity path");
        t.install(n(0), t1, &copy, &[]);
        assert!(moved(&t), "a different set, however equal its contents");
        t.install(n(0), t1, &copy, &[]);
        assert!(!moved(&t), "re-send of that set");
        t.delete_controller(n(1));
        assert!(moved(&t), "delete_controller");
        for dst in 10..15 {
            t.insert(rule(1, 1, dst, 1, 5, 1));
        }
        assert_eq!(t.evictions(), 1, "owner 0's set lost a rule");
        t.delete_controller(n(1));
        assert!(moved(&t));
        t.install(n(0), t1, &copy, &[]);
        assert!(moved(&t), "re-send of a set held only in part");
        t.clear();
        assert!(moved(&t), "clear");
    }

    #[test]
    #[should_panic(expected = "at least one rule")]
    fn zero_capacity_rejected() {
        let _ = RuleTable::new(0);
    }
}
