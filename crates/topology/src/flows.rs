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

use crate::flat::BfsScratch;
use crate::graph::Graph;
use crate::ids::NodeId;

/// A priority-ordered list of candidate next hops from one node towards a destination:
/// a borrowed view of one row of a [`FlowPlan`].
///
/// Index 0 is the primary (first-shortest-path) next hop; index `k` is the `k`-th
/// failover alternative. The list never contains duplicates and never exceeds
/// `kappa + 1` entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NextHopSet<'a> {
    hops: &'a [NodeId],
}

impl<'a> NextHopSet<'a> {
    /// Creates a next-hop set from an ordered list of candidates.
    pub fn new(hops: &'a [NodeId]) -> Self {
        NextHopSet { hops }
    }

    /// The primary next hop, if any.
    pub fn primary(self) -> Option<NodeId> {
        self.hops.first().copied()
    }

    /// The candidate at the given priority level (0 = primary).
    pub fn at_priority(self, level: usize) -> Option<NodeId> {
        self.hops.get(level).copied()
    }

    /// Iterates over the candidates in priority order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> + 'a {
        self.hops.iter().copied()
    }

    /// Number of candidates.
    pub fn len(self) -> usize {
        self.hops.len()
    }

    /// Returns `true` when there is no candidate at all (destination unreachable).
    pub fn is_empty(self) -> bool {
        self.hops.is_empty()
    }

    /// The first candidate whose out-link is reported operational by `is_up`,
    /// mimicking a fast-failover group evaluation.
    pub fn first_operational<F>(self, mut is_up: F) -> Option<NodeId>
    where
        F: FnMut(NodeId) -> bool,
    {
        self.iter().find(|&h| is_up(h))
    }
}

/// All-pairs kappa-fault-resilient next-hop plan over a topology snapshot.
///
/// For every ordered pair `(at, towards)` of distinct nodes the plan stores a
/// [`NextHopSet`]. Controllers derive their switch rules from this plan; the data-plane
/// traffic model uses it directly to route host packets.
///
/// The plan is one dense table over the planned graph's `n` nodes in ascending
/// identifier order: row `at * n + towards` of `offsets` delimits that pair's slice of
/// `hops` (empty = no entry), so reading a node's rules is a walk over `n` adjacent
/// rows and replacing a plan frees four vectors.
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
/// let hops = plan.next_hops(NodeId::new(0), NodeId::new(2)).unwrap();
/// assert_eq!(hops.primary(), Some(NodeId::new(2)));   // direct link
/// assert_eq!(hops.at_priority(1), Some(NodeId::new(1))); // detour via 1
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowPlan {
    kappa: usize,
    /// The planned graph's nodes, ascending; dense index = position.
    nodes: Vec<NodeId>,
    /// `n * n + 1` row bounds into `hops` (none for the default, node-less plan).
    offsets: Vec<u32>,
    /// Every pair's candidates in priority order, rows concatenated.
    hops: Vec<NodeId>,
    /// `dist[towards * n + from]`; `u32::MAX` marks a disconnected pair.
    dist: Vec<u32>,
}

impl FlowPlan {
    /// The `kappa` this plan was computed for.
    pub fn kappa(&self) -> usize {
        self.kappa
    }

    /// The dense index of `node`, if the plan covers it.
    fn index_of(&self, node: NodeId) -> Option<usize> {
        self.nodes.binary_search(&node).ok()
    }

    /// The candidates stored for row `row`.
    fn row(&self, row: usize) -> &[NodeId] {
        &self.hops[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// The next-hop set stored for packets at `at` going towards `towards`.
    pub fn next_hops(&self, at: NodeId, towards: NodeId) -> Option<NextHopSet<'_>> {
        let row = self.index_of(at)? * self.nodes.len() + self.index_of(towards)?;
        Some(NextHopSet::new(self.row(row))).filter(|set| !set.is_empty())
    }

    /// The shortest-path distance between the pair, if connected.
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        let d = self.dist[self.index_of(to)? * self.nodes.len() + self.index_of(from)?];
        (d != u32::MAX).then_some(d)
    }

    /// Iterates over every `(at, towards)` pair with its next-hop set.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, NextHopSet<'_>)> + '_ {
        self.nodes
            .iter()
            .flat_map(move |&at| self.next_hops_from(at).map(move |(t, set)| (at, t, set)))
    }

    /// Iterates over the next-hop sets stored for packets at `at`, in ascending
    /// destination order — a walk over that node's `n` adjacent rows, which is what
    /// makes `myRules()` linear in the rule count.
    pub fn next_hops_from(
        &self,
        at: NodeId,
    ) -> impl Iterator<Item = (NodeId, NextHopSet<'_>)> + '_ {
        let n = self.nodes.len();
        let rows = self.index_of(at).map_or(0..0, |a| a * n..(a + 1) * n);
        rows.zip(&self.nodes)
            .map(move |(row, &towards)| (towards, NextHopSet::new(self.row(row))))
            .filter(|(_, set)| !set.is_empty())
    }

    /// Number of `(at, towards)` entries in the plan.
    pub fn len(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Returns `true` when the plan holds no entries (e.g. planned over an empty graph).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
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
    /// This is the reference semantics used by the property tests to check
    /// kappa-fault resilience, and by the traffic model to route host packets.
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
            let next = self.next_hops(cur, to).and_then(|set| {
                set.iter()
                    .find(|&h| !visited.contains(&h) && link_up(cur, h))
            });
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

/// Computes [`FlowPlan`]s for a fixed resilience level `kappa`.
///
/// The planner is stateless apart from its configuration; call [`FlowPlanner::plan`]
/// with a fresh topology snapshot whenever the discovered topology changes (each
/// controller does this once per synchronization round).
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

impl Default for FlowPlanner {
    fn default() -> Self {
        FlowPlanner {
            kappa: 1,
            max_candidates: None,
        }
    }
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

    /// The configured candidate limit, if any.
    pub fn max_candidates(&self) -> Option<usize> {
        self.max_candidates
    }

    /// Computes the all-pairs next-hop plan over `graph`.
    ///
    /// For every destination `t` we run one BFS (from `t`), then every other node `j`
    /// ranks its neighbors by `(distance(neighbor, t), neighbor id)` and keeps the best
    /// candidates (all of them by default). The first candidate is therefore the
    /// first-shortest-path next hop; the others are the local fast-failover
    /// alternatives, in decreasing priority.
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
        let limit = self.max_candidates.unwrap_or(usize::MAX);
        let full = graph.snapshot();
        let n = full.node_count();
        let endpoint_only: Vec<bool> = full
            .node_ids()
            .iter()
            .map(|id| non_transit.contains(id))
            .collect();
        // One search per target over the one snapshot: paths may start or end at a
        // non-transit node but never pass through one, which is a BFS that reaches
        // such nodes without expanding them (its source always expands). Everything
        // works on dense indices; the distance matrix becomes the plan's own.
        let mut scratch = BfsScratch::new();
        let mut dist: Vec<u32> = Vec::with_capacity(n * n);
        for ti in 0..n {
            full.bfs_filtered(ti as u32, &mut scratch, |i| !endpoint_only[i as usize]);
            dist.extend_from_slice(scratch.distances());
        }
        // `at`-major rows, written straight into the plan's table. A node has at most
        // its degree in candidates towards each target, which bounds every offset.
        assert!(
            n * full.arc_targets().len() <= u32::MAX as usize,
            "a plan over {n} nodes would exceed 2^32 next hops"
        );
        let mut offsets: Vec<u32> = Vec::with_capacity(n * n + 1);
        let mut hops: Vec<NodeId> = Vec::new();
        // Candidates rank by `(distance, identifier)` — dense indices ascend with the
        // identifiers — packed into one integer each so the sort compares words.
        let mut candidates: Vec<u64> = Vec::new();
        offsets.push(0);
        for ai in 0..n {
            for ti in 0..n {
                candidates.clear();
                if ti != ai {
                    for &hi in full.neighbor_indices(ai as u32) {
                        if endpoint_only[hi as usize] && hi as usize != ti {
                            continue;
                        }
                        let d = dist[ti * n + hi as usize];
                        if d != u32::MAX {
                            candidates.push(u64::from(d) << 32 | u64::from(hi));
                        }
                    }
                    candidates.sort_unstable();
                }
                hops.extend(
                    candidates
                        .iter()
                        .take(limit)
                        .map(|&c| full.node_at(c as u32)),
                );
                offsets.push(hops.len() as u32);
            }
        }
        FlowPlan {
            kappa: self.kappa,
            nodes: full.node_ids().to_vec(),
            offsets,
            hops,
            dist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Link;
    use std::collections::{BTreeMap, BTreeSet};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
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
        let hops = plan.next_hops(n(0), n(3)).unwrap();
        assert_eq!(hops.primary(), Some(n(1)));
        assert_eq!(plan.distance(n(0), n(3)), Some(2));
        assert_eq!(plan.distance(n(3), n(3)), Some(0));
    }

    #[test]
    fn backup_hop_differs_from_primary() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        let hops = plan.next_hops(n(0), n(3)).unwrap();
        assert_eq!(hops.len(), 2);
        assert_ne!(hops.at_priority(0), hops.at_priority(1));
        assert_eq!(hops.at_priority(1), Some(n(4)));
        assert_eq!(hops.at_priority(2), None);
    }

    #[test]
    fn candidate_limit_keeps_only_primary() {
        let g = cycle_with_chord();
        let planner = FlowPlanner::new(0).with_max_candidates(1);
        assert_eq!(planner.kappa(), 0);
        assert_eq!(planner.max_candidates(), Some(1));
        let plan = planner.plan(&g);
        for (_, _, set) in plan.iter() {
            assert_eq!(set.len(), 1);
        }
    }

    #[test]
    fn default_keeps_all_neighbors_as_candidates() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::default().plan(&g);
        // Node 1 has three neighbors; all must appear as candidates towards node 4.
        let set = plan.next_hops(n(1), n(4)).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.primary(), Some(n(0)));
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
        assert!(plan.next_hops(n(0), n(9)).is_none());
        assert!(plan.route(n(0), n(9), |_, _| true, 16).is_none());
        assert_eq!(plan.distance(n(0), n(9)), None);
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
        let plan = FlowPlanner::default().plan(&Graph::new());
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
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
        assert_eq!(plan.distance(n(0), n(4)), Some(4));
        // Node 9 can still be an endpoint: flows towards it exist.
        let to_nine = plan.next_hops(n(0), n(9)).unwrap();
        assert_eq!(to_nine.primary(), Some(n(9)));
        // And node 9 (as a source endpoint) has next hops towards 4 that avoid itself.
        let from_nine = plan.next_hops(n(9), n(4)).unwrap();
        assert!(from_nine.primary().is_some());
        assert_eq!(plan.distance(n(9), n(4)), Some(1));
    }

    #[test]
    fn next_hop_set_first_operational() {
        let hops = [n(1), n(2), n(3)];
        let set = NextHopSet::new(&hops);
        assert_eq!(set.first_operational(|h| h == n(2)), Some(n(2)));
        assert_eq!(set.first_operational(|_| false), None);
        assert_eq!(set.iter().count(), 3);
        assert!(!set.is_empty());
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
        let limit = planner.max_candidates().unwrap_or(usize::MAX);
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
    /// non-transit sets (none, some, all) and candidate limits, the dense plan equals
    /// the map-built reference pair for pair.
    #[test]
    fn dense_plan_matches_the_map_built_reference() {
        use sdn_rng::Rng;
        let (mut disconnected, mut absent_pairs) = (0, 0);
        for seed in 0..60u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let ids: Vec<NodeId> = (0..rng.gen_range(1..14u32))
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

            let listed: Vec<(NodeId, NodeId, Vec<NodeId>)> = plan
                .iter()
                .map(|(a, t, set)| (a, t, set.iter().collect()))
                .collect();
            let expected: Vec<(NodeId, NodeId, Vec<NodeId>)> = next_hops
                .iter()
                .map(|(&(a, t), hops)| (a, t, hops.clone()))
                .collect();
            assert_eq!(listed, expected, "seed {seed}: iter()");
            assert_eq!(plan.len(), next_hops.len(), "seed {seed}: len()");
            assert_eq!(plan.is_empty(), next_hops.is_empty(), "seed {seed}");
            // One identifier outside the graph: every pair naming it is absent.
            let stranger = n(1000);
            for &at in ids.iter().chain([&stranger]) {
                let from_at: Vec<(NodeId, Vec<NodeId>)> = plan
                    .next_hops_from(at)
                    .map(|(t, set)| (t, set.iter().collect()))
                    .collect();
                let expected: Vec<(NodeId, Vec<NodeId>)> = next_hops
                    .range((at, n(0))..=(at, n(u32::MAX)))
                    .map(|(&(_, t), hops)| (t, hops.clone()))
                    .collect();
                assert_eq!(from_at, expected, "seed {seed}: next_hops_from({at})");
                for &towards in ids.iter().chain([&stranger]) {
                    let hops = plan.next_hops(at, towards);
                    assert_eq!(
                        hops.map(|set| set.iter().collect::<Vec<_>>()),
                        next_hops.get(&(at, towards)).cloned(),
                        "seed {seed}: next_hops({at}, {towards})"
                    );
                    let expected = (at == towards)
                        .then_some(0)
                        .or_else(|| distances.get(&(at, towards)).copied());
                    assert_eq!(plan.distance(at, towards), expected, "seed {seed}");
                    absent_pairs += usize::from(hops.is_none() && at != towards);
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
