//! kappa-fault-resilient flow computation — the routing brain behind `myRules()`.
//!
//! The paper (Section 2.2.2) requires that the rules a controller installs encode, for
//! every destination, a *primary* path (the first shortest path, highest priority) plus
//! failover alternatives so that communication survives up to `kappa` link failures.
//! The prototype realised this with BFS paths and OpenFlow *fast-failover groups*; we
//! reproduce the same semantics with per-switch, per-destination **priority-ordered
//! next-hop sets**: priority 0 (highest) is the first-shortest-path next hop, priority
//! `k` is the best next hop once the `k` better ones are unavailable.
//!
//! The forwarding engine in `sdn-switch` picks the highest-priority rule whose out-link
//! is currently operational, which is exactly the fast-failover group behaviour.

use crate::flat::FlatGraph;
use crate::graph::Graph;
use crate::ids::NodeId;

/// All-pairs kappa-fault-resilient next-hop plan over a topology snapshot.
///
/// For every ordered pair `(at, towards)` of distinct, connected nodes the plan ranks
/// `at`'s neighbors as next hops towards `towards`: index 0 is the primary
/// (first-shortest-path) next hop, index `k` the `k`-th failover alternative, with no
/// duplicates and at most the planner's candidate limit. Controllers derive their
/// switch rules and their own first hops from it.
///
/// The plan holds only what that ranking reads: the planned graph's snapshot, which
/// of its nodes may relay packets, and the restricted distance matrix. A pair is
/// ranked when it is read, so a plan stores nothing per pair.
///
/// # Example
///
/// ```
/// use sdn_topology::{Graph, NodeId, FlowPlanner};
/// let g = Graph::from_links([
///     (NodeId::new(0), NodeId::new(1)),
///     (NodeId::new(1), NodeId::new(2)),
///     (NodeId::new(2), NodeId::new(0)),
/// ]);
/// let plan = FlowPlanner::new(1).plan(&g);
/// let hops: Vec<NodeId> = plan.next_hops(NodeId::new(0), NodeId::new(2)).collect();
/// // The direct link first, then the detour via 1.
/// assert_eq!(hops, [NodeId::new(2), NodeId::new(1)]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowPlan {
    /// The planned graph; dense index = position in ascending identifier order.
    graph: FlatGraph,
    /// `transit[i]`: node `i` may relay packets, i.e. is not an endpoint-only node.
    transit: Vec<bool>,
    /// `dist[a * n + b]`: the shortest `a`–`b` path that relays only through transit
    /// nodes. Symmetric, so row `h` is `h`'s distance towards every target;
    /// `u32::MAX` marks a disconnected pair.
    dist: Vec<u32>,
    /// Candidates kept per pair.
    limit: usize,
}

impl FlowPlan {
    /// How far `towards` is from neighbor `hop` when packets are handed to it:
    /// endpoint-only nodes relay nothing, so they are candidates only as the target.
    #[inline]
    fn via(&self, hop: u32, towards: u32) -> u32 {
        let (hop, towards) = (hop as usize, towards as usize);
        let d = self.dist[hop * self.transit.len() + towards];
        if self.transit[hop] || hop == towards {
            d
        } else {
            u32::MAX
        }
    }

    /// The candidates for packets at `at` going towards `towards`, in priority order
    /// (empty when the pair is absent or disconnected).
    #[inline]
    pub fn next_hops(&self, at: NodeId, towards: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let pair = self.graph.index_of(at).zip(self.graph.index_of(towards));
        pair.map(|(at, towards)| NextHops::new(self, at, towards))
            .into_iter()
            .flatten()
    }

    /// The destinations reachable from `at`, ascending, each with its candidates in
    /// priority order: what `myRules()` installs at `at`.
    #[inline]
    pub fn next_hops_from(
        &self,
        at: NodeId,
    ) -> impl Iterator<Item = (NodeId, impl ExactSizeIterator<Item = NodeId> + '_)> + '_ {
        let (at, targets) = match self.graph.index_of(at) {
            Some(at) => (at, 0..self.transit.len() as u32),
            None => (0, 0..0),
        };
        targets.filter_map(move |towards| {
            let hops = NextHops::new(self, at, towards);
            (hops.len() > 0).then(|| (self.graph.node_at(towards), hops))
        })
    }

    /// Simulates forwarding a packet from `from` to `to` under the given set of failed
    /// links, returning the traversed path (inclusive) or `None` if the packet is
    /// dropped (no operational candidate or TTL exhausted).
    ///
    /// The forwarding semantics is the data-plane depth-first traversal of
    /// Borokhovich–Schiff–Schmid (the paper's building block \[6\]): at every node the
    /// packet tries the candidate next hops in priority order, skipping non-operational
    /// links and already-visited nodes, and *bounces back* to the previous hop when it
    /// is stuck. As long as the operational graph is connected and every candidate set
    /// covers all neighbors, the packet is guaranteed to reach its destination, which is
    /// how the paper obtains kappa-fault-resilient flows.
    ///
    /// This is the reference semantics the property tests use to check kappa-fault
    /// resilience.
    pub fn route<F>(
        &self,
        from: NodeId,
        to: NodeId,
        mut link_up: F,
        ttl: usize,
    ) -> Option<Vec<NodeId>>
    where
        F: FnMut(NodeId, NodeId) -> bool,
    {
        if from == to {
            return Some(vec![from]);
        }
        // Depth-first traversal with backtracking; `stack` holds the current trail.
        let mut path = vec![from];
        let mut stack = vec![from];
        let mut visited = std::collections::BTreeSet::new();
        visited.insert(from);
        let mut hops = 0usize;
        while let Some(&cur) = stack.last() {
            if cur == to {
                return Some(path);
            }
            if hops >= ttl {
                return None;
            }
            let next = self
                .next_hops(cur, to)
                .find(|&h| !visited.contains(&h) && link_up(cur, h));
            match next {
                Some(h) => {
                    visited.insert(h);
                    stack.push(h);
                    path.push(h);
                    hops += 1;
                }
                None => {
                    // Bounce back towards the previous hop (consumes one hop of TTL).
                    stack.pop();
                    if let Some(&prev) = stack.last() {
                        path.push(prev);
                        hops += 1;
                    }
                }
            }
        }
        None
    }
}

/// One pair's candidates, ranked as they are read. They order by `(distance, id)` and
/// a neighbor row ascends by id, so one pass marks the three nearest distances'
/// candidates in bit masks that yield them in order: no sort, no allocation. On a
/// transit node that is every candidate; the rest (farther ones, rows over 64
/// neighbors) come from scanning for the next `(distance, position)` key. `#[inline]`
/// lets `myRules()`, in another crate, rank without a call per row.
#[derive(Clone, Debug)]
struct NextHops<'a> {
    plan: &'a FlowPlan,
    neighbors: &'a [u32],
    towards: u32,
    /// Bit `i` of `masks[k]` marks neighbor `i` at distance `dist(at, towards) - 1 + k`.
    masks: [u64; 3],
    /// The smallest `(distance << 32) | position` key the scan may still emit.
    floor: u64,
    /// Candidates still to emit.
    left: usize,
}

impl<'a> NextHops<'a> {
    #[inline]
    fn new(plan: &'a FlowPlan, at: u32, towards: u32) -> Self {
        // No candidate is nearer than `distance(at, towards) - 1`, and the second hop of
        // a shortest path is that near: the first level is known up front.
        let d = plan.dist[at as usize * plan.transit.len() + towards as usize];
        let neighbors = match d {
            // `at` is the target itself, or the target is out of reach.
            0 | u32::MAX => &[][..],
            _ => plan.graph.neighbor_indices(at),
        };
        let (level, wide) = (d.wrapping_sub(1), neighbors.len() > 64);
        let (mut masks, mut count) = ([0u64; 3], 0);
        for (i, &h) in neighbors.iter().enumerate() {
            let d = plan.via(h, towards);
            let k = d.wrapping_sub(level);
            if k < 3 && !wide {
                masks[k as usize] |= 1 << i;
            }
            count += usize::from(d != u32::MAX);
        }
        let marked = if wide { 0 } else { 3 };
        NextHops {
            plan,
            neighbors,
            towards,
            masks,
            floor: u64::from(level.saturating_add(marked)) << 32,
            left: plan.limit.min(count),
        }
    }

    /// The position of the candidate with the smallest key at or above `floor`.
    #[cold]
    fn scan(&mut self) -> Option<usize> {
        let (plan, towards) = (self.plan, self.towards);
        let key = (self.neighbors.iter().enumerate())
            .map(|(i, &h)| u64::from(plan.via(h, towards)) << 32 | i as u64)
            .filter(|&key| key >= self.floor)
            .min()?;
        self.floor = key + 1;
        Some(key as u32 as usize)
    }
}

impl Iterator for NextHops<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let position = if self.masks == [0; 3] {
            self.scan()?
        } else {
            // The first non-empty mask, picked without a data-dependent branch.
            let [near, mid, _] = self.masks;
            let k = usize::from(near == 0) + usize::from(near | mid == 0);
            let mask = self.masks[k];
            self.masks[k] = mask & (mask - 1);
            mask.trailing_zeros() as usize
        };
        Some(self.plan.graph.node_at(self.neighbors[position]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for NextHops<'_> {}

/// Computes [`FlowPlan`]s for a fixed resilience level `kappa`.
///
/// The planner is stateless apart from its configuration; call [`FlowPlanner::plan`]
/// with a fresh topology snapshot whenever the discovered topology changes (each
/// controller does this once per changed reference graph).
///
/// By default every neighbor of a node is a failover candidate (the paper's Lemma 3
/// observes that `nprt >= Delta + 1` priorities suffice to express all rules), which
/// combined with the bounce-back forwarding of [`FlowPlan::route`] guarantees delivery
/// whenever the operational graph stays connected — in particular under any `kappa`
/// failures on a `(kappa + 1)`-edge-connected topology. [`FlowPlanner::with_max_candidates`]
/// trades that guarantee for smaller rule tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowPlanner {
    kappa: usize,
    max_candidates: Option<usize>,
}

impl FlowPlanner {
    /// Creates a planner that targets resilience against `kappa` link failures.
    pub fn new(kappa: usize) -> Self {
        FlowPlanner {
            kappa,
            max_candidates: None,
        }
    }

    /// Limits the number of failover candidates (priority levels) per destination.
    ///
    /// A limit of 1 keeps only the primary next hop (`kappa = 0` behaviour); `None`
    /// (the default) keeps every neighbor.
    pub fn with_max_candidates(mut self, max_candidates: usize) -> Self {
        self.max_candidates = Some(max_candidates.max(1));
        self
    }

    /// The configured resilience level.
    pub fn kappa(&self) -> usize {
        self.kappa
    }

    /// Computes the all-pairs next-hop plan over `graph`: node `j` ranks its neighbors
    /// towards `t` by `(distance(neighbor, t), neighbor id)` and keeps the best (all
    /// by default), so the first is the first-shortest-path next hop and the others
    /// are the local fast-failover alternatives, in decreasing priority.
    pub fn plan(&self, graph: &Graph) -> FlowPlan {
        self.plan_restricted(graph, &std::collections::BTreeSet::new())
    }

    /// Like [`FlowPlanner::plan`], but the nodes in `non_transit` are never used as
    /// intermediate hops — only as flow endpoints.
    ///
    /// Renaissance uses this to keep controllers out of the forwarding paths: SDN
    /// controllers do not forward packets (only switches store rules), so a flow from
    /// controller `i` to node `d` must only relay through switches, even when a path
    /// through another controller would be shorter (paper, Section 1: "not all nodes can
    /// compute and communicate").
    pub fn plan_restricted(
        &self,
        graph: &Graph,
        non_transit: &std::collections::BTreeSet<NodeId>,
    ) -> FlowPlan {
        let graph = graph.snapshot();
        let n = graph.node_count();
        let transit: Vec<bool> = (graph.node_ids().iter())
            .map(|id| !non_transit.contains(id))
            .collect();
        // Paths may start or end at a non-transit node but never pass through one. The
        // matrix is filled by breadth-first searches from 64 sources at once: bit `j` of
        // a node's word says source `base + j` has reached it, so one level of all 64
        // searches is one pass over the arcs. Every source relays its own bit; from
        // the second level on, only transit nodes relay.
        let mut dist = vec![u32::MAX; n * n];
        let (mut seen, mut frontier, mut next) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
        for base in (0..n).step_by(64) {
            seen.fill(0);
            frontier.fill(0);
            for source in base..n.min(base + 64) {
                seen[source] = 1 << (source - base);
                frontier[source] = seen[source];
                dist[source * n + source] = 0;
            }
            for level in 1.. {
                let mut reached = 0;
                for v in 0..n {
                    let mut bits = 0;
                    for &u in graph.neighbor_indices(v as u32) {
                        if level == 1 || transit[u as usize] {
                            bits |= frontier[u as usize];
                        }
                    }
                    bits &= !seen[v];
                    seen[v] |= bits;
                    next[v] = bits;
                    reached |= bits;
                    while bits != 0 {
                        dist[(base + bits.trailing_zeros() as usize) * n + v] = level;
                        bits &= bits - 1;
                    }
                }
                if reached == 0 {
                    break;
                }
                std::mem::swap(&mut frontier, &mut next);
            }
        }
        FlowPlan {
            graph,
            transit,
            dist,
            limit: self.max_candidates.unwrap_or(usize::MAX),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::BfsScratch;
    use crate::ids::Link;
    use std::collections::{BTreeMap, BTreeSet};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The planned distance between the pair, read off the matrix.
    fn distance(plan: &FlowPlan, from: NodeId, to: NodeId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        let (from, to) = (plan.graph.index_of(from)?, plan.graph.index_of(to)?);
        let d = plan.dist[from as usize * plan.transit.len() + to as usize];
        (d != u32::MAX).then_some(d)
    }

    /// A 2-edge-connected graph: a 5-cycle with one chord.
    fn cycle_with_chord() -> Graph {
        Graph::from_links([
            (n(0), n(1)),
            (n(1), n(2)),
            (n(2), n(3)),
            (n(3), n(4)),
            (n(4), n(0)),
            (n(1), n(3)),
        ])
    }

    #[test]
    fn primary_hop_follows_shortest_path() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        // From 0 to 3: shortest is 0-1-3 (distance 2) or 0-4-3; lowest-index neighbor at
        // equal distance wins, so primary hop is 1.
        assert_eq!(plan.next_hops(n(0), n(3)).next(), Some(n(1)));
        assert_eq!(distance(&plan, n(0), n(3)), Some(2));
        assert_eq!(distance(&plan, n(3), n(3)), Some(0));
    }

    #[test]
    fn backup_hop_differs_from_primary() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        let hops: Vec<NodeId> = plan.next_hops(n(0), n(3)).collect();
        assert_eq!(hops, [n(1), n(4)]);
    }

    #[test]
    fn candidate_limit_keeps_only_primary() {
        let g = cycle_with_chord();
        let planner = FlowPlanner::new(0).with_max_candidates(1);
        assert_eq!(planner.kappa(), 0);
        assert_eq!(planner.max_candidates, Some(1));
        let plan = planner.plan(&g);
        for at in g.nodes() {
            for (_, hops) in plan.next_hops_from(at) {
                assert_eq!(hops.len(), 1);
            }
        }
    }

    #[test]
    fn default_keeps_all_neighbors_as_candidates() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        // Node 1 has three neighbors; all must appear as candidates towards node 4.
        let hops: Vec<NodeId> = plan.next_hops(n(1), n(4)).collect();
        assert_eq!(hops, [n(0), n(3), n(2)]);
    }

    #[test]
    fn routing_without_failures_follows_shortest_path() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        let path = plan.route(n(0), n(3), |_, _| true, 16).unwrap();
        assert_eq!(path, vec![n(0), n(1), n(3)]);
    }

    #[test]
    fn routing_survives_single_link_failure() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        let failed = Link::new(n(1), n(3));
        let path = plan
            .route(n(0), n(3), |a, b| Link::new(a, b) != failed, 16)
            .unwrap();
        assert_eq!(*path.last().unwrap(), n(3));
        assert!(!path.windows(2).any(|w| Link::new(w[0], w[1]) == failed));
    }

    #[test]
    fn routing_every_single_failure_on_two_connected_graph() {
        // kappa = 1 on a 2-edge-connected graph: any single link failure must be survivable
        // between every pair.
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        for failed in g.links() {
            for a in g.nodes() {
                for b in g.nodes() {
                    if a == b {
                        continue;
                    }
                    let ok = plan.route(a, b, |x, y| Link::new(x, y) != failed, 32);
                    assert!(
                        ok.is_some(),
                        "pair {a}->{b} not routable with {failed} down"
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_pairs_have_no_entry() {
        let mut g = cycle_with_chord();
        g.add_node(n(9));
        let plan = FlowPlanner::new(1).plan(&g);
        assert_eq!(plan.next_hops(n(0), n(9)).next(), None);
        assert!(plan.route(n(0), n(9), |_, _| true, 16).is_none());
        assert_eq!(distance(&plan, n(0), n(9)), None);
    }

    #[test]
    fn ttl_prevents_infinite_loops() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        // All links down: routing fails rather than looping forever.
        assert!(plan.route(n(0), n(3), |_, _| false, 16).is_none());
        // TTL of zero means any non-trivial route fails.
        assert!(plan.route(n(0), n(3), |_, _| true, 0).is_none());
    }

    #[test]
    fn empty_graph_plan_is_empty() {
        let plan = FlowPlanner::new(1).plan(&Graph::new());
        assert_eq!(plan.next_hops_from(n(0)).count(), 0);
        assert_eq!(plan.next_hops(n(0), n(1)).count(), 0);
    }

    #[test]
    fn restricted_plan_never_relays_through_non_transit_nodes() {
        // Star-ish graph where node 9 (a "controller") would be the shortest relay
        // between 0 and 4: 0-9-4 (2 hops) vs 0-1-2-3-4 (4 hops).
        let g = Graph::from_links([
            (n(0), n(1)),
            (n(1), n(2)),
            (n(2), n(3)),
            (n(3), n(4)),
            (n(0), n(9)),
            (n(9), n(4)),
        ]);
        let non_transit: std::collections::BTreeSet<NodeId> = [n(9)].into_iter().collect();
        let plan = FlowPlanner::new(1).plan_restricted(&g, &non_transit);
        // The flow from 0 to 4 must avoid node 9.
        let path = plan.route(n(0), n(4), |_, _| true, 32).unwrap();
        assert!(
            !path.contains(&n(9)),
            "path {path:?} relays through a controller"
        );
        assert_eq!(distance(&plan, n(0), n(4)), Some(4));
        // Node 9 can still be an endpoint: flows towards it exist.
        assert_eq!(plan.next_hops(n(0), n(9)).next(), Some(n(9)));
        // And node 9 (as a source endpoint) has next hops towards 4 that avoid itself.
        assert_eq!(plan.next_hops(n(9), n(4)).next(), Some(n(4)));
        assert_eq!(distance(&plan, n(9), n(4)), Some(1));
    }

    type HopMap = BTreeMap<(NodeId, NodeId), Vec<NodeId>>;
    type DistanceMap = BTreeMap<(NodeId, NodeId), u32>;

    /// The map-built plan the dense table replaced, kept as the reference: distances
    /// towards a target come from a BFS over a copy of the graph *without* the other
    /// non-transit nodes, and every pair is inserted into a tree on its own.
    fn reference_plan(
        planner: FlowPlanner,
        graph: &Graph,
        non_transit: &BTreeSet<NodeId>,
    ) -> (HopMap, DistanceMap) {
        let limit = planner.max_candidates.unwrap_or(usize::MAX);
        let mut scratch = BfsScratch::new();
        let (mut next_hops, mut distances) = (HopMap::new(), DistanceMap::new());
        for target in graph.nodes() {
            let others: Vec<NodeId> = non_transit
                .iter()
                .copied()
                .filter(|&x| x != target)
                .collect();
            let pruned = graph.without_nodes(others.iter()).snapshot();
            pruned.bfs(pruned.index_of(target).unwrap(), &mut scratch);
            let dist = |node: NodeId| pruned.index_of(node).and_then(|i| scratch.distance(i));
            for at in graph.nodes().filter(|&at| at != target) {
                let mut candidates: Vec<(u32, NodeId)> = graph
                    .neighbors(at)
                    .filter(|&h| h == target || !non_transit.contains(&h))
                    .filter_map(|h| dist(h).map(|d| (d, h)))
                    .collect();
                candidates.sort();
                // Endpoint-only nodes sit one hop above their best transit neighbor.
                let d_at = if non_transit.contains(&at) {
                    candidates.first().map(|&(d, _)| d + 1)
                } else {
                    dist(at)
                };
                let Some(d_at) = d_at else {
                    continue;
                };
                distances.insert((at, target), d_at);
                if !candidates.is_empty() {
                    let hops = candidates.iter().take(limit).map(|&(_, h)| h).collect();
                    next_hops.insert((at, target), hops);
                }
            }
        }
        (next_hops, distances)
    }

    /// Over random connected and disconnected graphs with sparse identifiers, random
    /// non-transit sets (none, some, all) and candidate limits, the plan equals the
    /// map-built reference pair for pair. Sizes around and past 64 nodes put sources
    /// in more than one block of the 64-wide searches, and the last block partly full;
    /// a hub among them has rows of 64 neighbors and more, past what the masks hold.
    #[test]
    fn dense_plan_matches_the_map_built_reference() {
        use sdn_rng::Rng;
        let (mut disconnected, mut absent_pairs) = (0, 0);
        let blocks = [63, 64, 65, 129].map(|size| size..=size);
        let cases = (0..60u64)
            .map(|seed| (seed, 1..=13u32))
            .chain((60..).zip(blocks))
            .chain((64..68).map(|seed| (seed, 70..=200)));
        for (seed, sizes) in cases {
            let mut rng = Rng::seed_from_u64(seed);
            let ids: Vec<NodeId> = (0..rng.gen_range(sizes))
                .map(|i| n(3 * i + rng.gen_range(0..3u32)))
                .collect();
            let mut g = Graph::new();
            for &id in &ids {
                g.add_node(id);
            }
            // A random tree (or, for every third seed, a forest) plus random chords.
            for (i, &id) in ids.iter().enumerate().skip(1) {
                if seed % 3 != 0 || rng.gen_bool(0.7) {
                    g.add_link(id, ids[rng.gen_range(0..i)]);
                }
            }
            for _ in 0..rng.gen_range(0..ids.len()) {
                let (a, b) = (
                    ids[rng.gen_range(0..ids.len())],
                    ids[rng.gen_range(0..ids.len())],
                );
                if a != b {
                    g.add_link(a, b);
                }
            }
            // A hub next to every node gives rows of 64 neighbors and more.
            if seed >= 60 && seed % 2 == 0 {
                for &id in &ids[1..] {
                    g.add_link(ids[0], id);
                }
            }
            let non_transit: BTreeSet<NodeId> = match seed % 4 {
                0 => BTreeSet::new(),
                1 => ids.iter().copied().collect(),
                _ => ids.iter().copied().filter(|_| rng.gen_bool(0.3)).collect(),
            };
            let mut planner = FlowPlanner::new(1);
            if seed % 2 == 1 {
                planner = planner.with_max_candidates(rng.gen_range(1..4usize));
            }
            let plan = planner.plan_restricted(&g, &non_transit);
            let (next_hops, distances) = reference_plan(planner, &g, &non_transit);

            // One identifier outside the graph: every pair naming it is absent.
            let stranger = n(1000);
            for &at in ids.iter().chain([&stranger]) {
                let from_at: Vec<(NodeId, Vec<NodeId>)> = plan
                    .next_hops_from(at)
                    .map(|(t, hops)| {
                        let len = hops.len();
                        let hops: Vec<NodeId> = hops.collect();
                        assert_eq!(len, hops.len(), "seed {seed}: ({at}, {t}) len()");
                        (t, hops)
                    })
                    .collect();
                let expected: Vec<(NodeId, Vec<NodeId>)> = next_hops
                    .range((at, n(0))..=(at, n(u32::MAX)))
                    .map(|(&(_, t), hops)| (t, hops.clone()))
                    .collect();
                assert_eq!(from_at, expected, "seed {seed}: next_hops_from({at})");
                for &towards in ids.iter().chain([&stranger]) {
                    let hops: Vec<NodeId> = plan.next_hops(at, towards).collect();
                    assert_eq!(
                        Some(&hops).filter(|hops| !hops.is_empty()),
                        next_hops.get(&(at, towards)),
                        "seed {seed}: next_hops({at}, {towards})"
                    );
                    let expected = (at == towards)
                        .then_some(0)
                        .or_else(|| distances.get(&(at, towards)).copied());
                    assert_eq!(distance(&plan, at, towards), expected, "seed {seed}");
                    absent_pairs += usize::from(hops.is_empty() && at != towards);
                }
            }
            disconnected += usize::from(!crate::paths::is_connected(&g));
        }
        assert!(
            disconnected > 5 && absent_pairs > 100,
            "both kinds of graph ran"
        );
    }
}
