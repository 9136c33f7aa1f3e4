//! The data-plane forwarding decision: highest-priority applicable rule wins.
//!
//! A rule is *applicable* (paper, Section 2.1) for a packet when it matches the packet's
//! source and destination fields and its out-link is currently operational. Among the
//! applicable rules the one with the highest priority is used — this is how the
//! kappa-fault-resilient failover of Section 2.2.2 happens entirely in the data plane,
//! without waiting for any controller.
//!
//! On top of the paper's rule semantics the decision honours the packet's *visited set*:
//! next hops that the packet has already traversed are skipped, and when nothing remains
//! the caller bounces the packet back to where it came from. This reproduces the
//! data-plane DFS of Borokhovich–Schiff–Schmid (the paper's building block \[6\]), which
//! the prototype realised with OpenFlow fast-failover groups.

use crate::rules::RuleTable;
use sdn_topology::NodeId;

/// Chooses the next hop for a packet `(src, dst)` at a switch with rule table `rules`.
///
/// Selection order:
/// 1. the highest-priority matching rule whose out-link is operational and whose next
///    hop is not in `visited`,
/// 2. otherwise, `dst` itself when it is an operational direct neighbor (the paper's
///    query-by-neighbor functionality, which is what lets a controller bootstrap a
///    switch that has no rules yet),
/// 3. otherwise `None` — the caller decides whether to bounce the packet back or drop it.
pub fn decide<F>(
    rules: &RuleTable,
    src: NodeId,
    dst: NodeId,
    visited: &[NodeId],
    neighbors: &[NodeId],
    is_up: &mut F,
) -> Option<NodeId>
where
    F: FnMut(NodeId) -> bool,
{
    let candidate = rules
        .matching_hops(src, dst)
        .find(|&hop| !visited.contains(&hop) && neighbors.contains(&hop) && is_up(hop));
    if candidate.is_some() {
        return candidate;
    }
    if neighbors.contains(&dst) && !visited.contains(&dst) && is_up(dst) {
        return Some(dst);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;
    use sdn_tags::Tag;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn rule(src: u32, dst: u32, prt: u8, fwd: u32) -> Rule {
        Rule {
            cid: n(0),
            src: Some(n(src)),
            dst: n(dst),
            prt,
            fwd: n(fwd),
            tag: Tag::new(0, 1),
        }
    }

    fn table(rules: &[Rule]) -> RuleTable {
        let mut t = RuleTable::new(64);
        for r in rules {
            t.insert(*r);
        }
        t
    }

    #[test]
    fn highest_priority_applicable_rule_wins() {
        let t = table(&[rule(0, 5, 1, 3), rule(0, 5, 3, 4), rule(0, 5, 2, 2)]);
        let hop = decide(&t, n(0), n(5), &[], &[n(2), n(3), n(4)], &mut |_| true);
        assert_eq!(hop, Some(n(4)));
    }

    #[test]
    fn failed_out_links_are_skipped() {
        let t = table(&[rule(0, 5, 3, 4), rule(0, 5, 2, 2)]);
        let hop = decide(&t, n(0), n(5), &[], &[n(2), n(4)], &mut |h| h != n(4));
        assert_eq!(hop, Some(n(2)));
    }

    #[test]
    fn visited_hops_are_skipped_for_dfs_backtracking() {
        let t = table(&[rule(0, 5, 3, 4), rule(0, 5, 2, 2)]);
        let hop = decide(&t, n(0), n(5), &[n(4)], &[n(2), n(4)], &mut |_| true);
        assert_eq!(hop, Some(n(2)));
        let stuck = decide(&t, n(0), n(5), &[n(2), n(4)], &[n(2), n(4)], &mut |_| true);
        assert_eq!(stuck, None);
    }

    #[test]
    fn rules_pointing_to_non_neighbors_are_ignored() {
        // A stale rule pointing to a node that is no longer adjacent must not be used.
        let t = table(&[rule(0, 5, 3, 7)]);
        let hop = decide(&t, n(0), n(5), &[], &[n(2)], &mut |_| true);
        assert_eq!(hop, None);
    }

    #[test]
    fn direct_neighbor_fallback_only_when_no_rule_applies() {
        let t = table(&[]);
        // dst 5 is a direct operational neighbor: forward straight to it.
        assert_eq!(
            decide(&t, n(0), n(5), &[], &[n(5), n(6)], &mut |_| true),
            Some(n(5))
        );
        // ... but not when its link is down or it was already visited.
        assert_eq!(
            decide(&t, n(0), n(5), &[], &[n(5)], &mut |h| h != n(5)),
            None
        );
        assert_eq!(
            decide(&t, n(0), n(5), &[n(5)], &[n(5)], &mut |_| true),
            None
        );
    }

    #[test]
    fn non_matching_rules_never_fire() {
        let t = table(&[rule(1, 5, 3, 4)]);
        // Packet source differs from the rule's match.
        assert_eq!(decide(&t, n(0), n(5), &[], &[n(4)], &mut |_| true), None);
    }

    /// `decide` as it was before the rule walk stopped allocating: collect the matching
    /// rules, sort them, take the first usable one.
    fn decide_by_collecting(
        rules: &RuleTable,
        (src, dst): (NodeId, NodeId),
        visited: &[NodeId],
        neighbors: &[NodeId],
        is_up: &mut impl FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        let mut hops = rules.matching(src, dst).into_iter().map(|r| r.fwd);
        let by_rule =
            hops.find(|&hop| !visited.contains(&hop) && neighbors.contains(&hop) && is_up(hop));
        by_rule.or_else(|| {
            (neighbors.contains(&dst) && !visited.contains(&dst) && is_up(dst)).then_some(dst)
        })
    }

    /// Random tables (several owners, wildcard and exact sources, equal priorities and
    /// next hops across owners — including the `(prt, fwd, cid, src)` tie order), built
    /// the way tables come about: whole sets installed over kept ones, which leaves
    /// owners with partly overwritten sets, plus single inserts and one-rule sets,
    /// towards destinations that are dense, sparse or near `u32::MAX`, so that sets
    /// find their rows through an index and by search. Random visited / neighbor sets
    /// and link masks: the in-place walk picks the same hop and asks `is_up` the same
    /// questions in the same order as the collect-and-sort formulation.
    #[test]
    fn decide_matches_the_collecting_reference() {
        use crate::rules::{RuleBody, RuleSet};
        use sdn_rng::Rng;
        let (mut decided, mut probes, mut layered) = (0, 0, 0);
        let (mut indexed, mut searched) = (0, 0);
        for seed in 0..90u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut t = RuleTable::new(rng.gen_range(8..120usize));
            // Six destinations: dense, spread out, or at the top of the id space.
            let dsts = match seed % 3 {
                0 => [0, 1, 2, 3, 4, 5],
                1 => [0, 7, 1_000, 1_003, 77_777, 1 << 30],
                _ => [2, 3, u32::MAX - 5, u32::MAX - 3, u32::MAX - 2, u32::MAX - 1],
            }
            .map(n);
            let random_body = |rng: &mut Rng| RuleBody {
                src: rng.gen_bool(0.3).then(|| n(rng.gen_range(0..3u32))),
                dst: dsts[rng.gen_range(0..6usize)],
                prt: rng.gen_range(0..4u32) as u8,
                fwd: n(rng.gen_range(0..8u32)),
            };
            for _ in 0..rng.gen_range(0..20u32) {
                let cid = n(rng.gen_range(0..4u32));
                let tag = Tag::new(cid.index(), rng.gen_range(1..3u64));
                if rng.gen_bool(0.4) {
                    t.insert(random_body(&mut rng).owned_by(cid, tag));
                    continue;
                }
                let len = match rng.gen_range(0..8u32) {
                    0 => 1,
                    1 => 40,
                    _ => rng.gen_range(0..25u32),
                };
                let set: RuleSet = (0..len).map(|_| random_body(&mut rng)).collect();
                indexed += usize::from(set.index_len() > 0);
                searched += usize::from(set.index_len() == 0);
                let keep = Tag::new(cid.index(), rng.gen_range(1..3u64));
                let kept = |t: &RuleTable| t.rules_of(cid).iter().filter(|r| r.tag == keep).count();
                let before = kept(&t);
                t.install(cid, tag, &set, &[keep]);
                layered += usize::from(tag != keep && (1..before).contains(&kept(&t)));
            }
            for _ in 0..60 {
                let mut subset =
                    |p: f64| -> Vec<NodeId> { (0..8).filter(|_| rng.gen_bool(p)).map(n).collect() };
                let (visited, neighbors, up) = (subset(0.2), subset(0.7), subset(0.6));
                let packet = (n(rng.gen_range(0..3u32)), dsts[rng.gen_range(0..6usize)]);
                let (mut asked, mut expected_asked) = (Vec::new(), Vec::new());
                let hop = decide(&t, packet.0, packet.1, &visited, &neighbors, &mut |h| {
                    asked.push(h);
                    up.contains(&h)
                });
                let expected = decide_by_collecting(&t, packet, &visited, &neighbors, &mut |h| {
                    expected_asked.push(h);
                    up.contains(&h)
                });
                assert_eq!(hop, expected, "seed {seed}: packet {packet:?}");
                assert_eq!(asked, expected_asked, "seed {seed}: packet {packet:?}");
                decided += usize::from(hop.is_some());
                probes += usize::from(asked.len() > 1);
            }
        }
        assert!(
            decided > 500 && probes > 500 && layered > 20 && indexed > 20 && searched > 20,
            "{decided} decisions, {probes} multi-probe, {layered} partly overwritten sets, \
             {indexed} indexed and {searched} searched sets"
        );
    }
}
