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
/// of its nodes may relay packets, and the restricted distance matrix. Nothing is
/// stored per pair: [`FlowPlan::for_each_rule`] ranks one node's candidates towards
/// every destination in one pass over the matrix, and [`FlowPlan::next_hops`] ranks
/// one pair.
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

/// How many sources one breadth-first sweep searches at once (one bit of a `u64`
/// each), and how many neighbors a node may have before ranking its candidates needs
/// the heap.
const BLOCK: usize = 64;

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

    /// Ranks `at`'s neighbors as next hops towards `towards` into `keys` (one slot per
    /// neighbor) and returns how many of them the plan keeps, best first. A candidate's
    /// key is `(distance << 32) | id`, so ascending keys are the `(distance, id)` order.
    #[inline]
    fn rank(&self, at: u32, towards: u32, keys: &mut [u64]) -> usize {
        let d = self.dist[at as usize * self.transit.len() + towards as usize];
        if d == 0 || d == u32::MAX {
            // `at` is the target itself, or the target is out of reach.
            return 0;
        }
        let mut count = 0;
        for &hop in self.graph.neighbor_indices(at) {
            let d = self.via(hop, towards);
            keys[count] = u64::from(d) << 32 | u64::from(self.graph.node_at(hop).index());
            count += usize::from(d != u32::MAX);
        }
        keys[..count].sort_unstable();
        count.min(self.limit)
    }

    /// The candidates for packets at `at` going towards `towards`, in priority order
    /// (empty when the pair is absent or disconnected).
    pub fn next_hops(&self, at: NodeId, towards: NodeId) -> impl Iterator<Item = NodeId> {
        let mut keys = Vec::new();
        if let Some((at, towards)) = self.graph.index_of(at).zip(self.graph.index_of(towards)) {
            keys.resize(self.graph.neighbor_indices(at).len(), 0);
            let kept = self.rank(at, towards, &mut keys);
            keys.truncate(kept);
        }
        keys.into_iter().map(|key| hop(&key))
    }

    /// Calls `f` with every destination reachable from `at`, ascending, and its
    /// candidates in priority order: what `myRules()` installs at `at`. One pass goes
    /// column by column over `at`'s distance row and its neighbors' rows, with one
    /// small sort per destination; nothing is allocated unless `at` has more than 64
    /// neighbors.
    pub fn for_each_rule(&self, at: NodeId, mut f: impl FnMut(NodeId, Ranked<'_>)) {
        let Some(at) = self.graph.index_of(at) else {
            return;
        };
        let degree = self.graph.neighbor_indices(at).len();
        let (mut inline, mut wide) = ([0u64; BLOCK], Vec::new());
        let keys = match inline.get_mut(..degree) {
            Some(keys) => keys,
            None => {
                wide.resize(degree, 0);
                &mut wide[..]
            }
        };
        for towards in 0..self.transit.len() as u32 {
            let kept = self.rank(at, towards, keys);
            if kept > 0 {
                f(self.graph.node_at(towards), keys[..kept].iter().map(hop));
            }
        }
    }

    /// An upper bound on how many candidates [`FlowPlan::for_each_rule`] hands out for
    /// `at` in all: as many as it keeps per pair, towards every node.
    pub fn rule_bound(&self, at: NodeId) -> usize {
        let degree = |at| self.graph.neighbor_indices(at).len();
        (self.graph.index_of(at)).map_or(0, |at| degree(at).min(self.limit) * self.transit.len())
    }

    /// Whether the plan was made over `snapshot` with the nodes `relays` accepts as
    /// relays: the inputs block 0's turn of [`FlowPlan::agrees`] compares, and what
    /// tells two planners' requests for one plan apart.
    pub fn is_plan_of(&self, snapshot: &FlatGraph, relays: impl Fn(NodeId) -> bool) -> bool {
        let transit = snapshot.node_ids().iter().map(|&id| relays(id));
        self.graph == *snapshot && transit.eq(self.transit.iter().copied())
    }

    /// Whether the plan still is the plan of `graph` in which the nodes `relays` accepts
    /// relay, as far as the `turn`-th of its blocks of 64 sources shows (turns wrap
    /// around the blocks): the distances from that block's sources must equal a fresh
    /// sweep, the planner's unit of work, and block 0's turn also compares the snapshot
    /// and the relay flags. A corruption of any of the three shows within ⌈n/64⌉ turns.
    pub fn agrees(&self, graph: &Graph, relays: impl Fn(NodeId) -> bool, turn: u64) -> bool {
        let n = self.transit.len();
        if self.graph.node_count() != n || self.dist.len() != n * n {
            return false;
        }
        let base = (turn % n.div_ceil(BLOCK).max(1) as u64) as usize * BLOCK;
        if base == 0 && !self.is_plan_of(&graph.snapshot(), relays) {
            return false;
        }
        // The block's columns, row by row: the matrix is symmetric.
        let columns = base..(base + BLOCK).min(n);
        let (mut agree, mut reached) = (true, 0);
        sweep(&self.graph, &self.transit, base, |source, v, level| {
            agree &= self.dist[v * n + source] == level;
            reached += 1;
        });
        let finite = (self.dist.chunks_exact(n.max(1))).map(|row| {
            row[columns.clone()]
                .iter()
                .filter(|&&d| d != u32::MAX)
                .count()
        });
        agree && reached == finite.sum::<usize>()
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

/// One pair's candidates in priority order, as [`FlowPlan::for_each_rule`] hands them
/// out: its ranked keys, read as node ids.
pub type Ranked<'a> = std::iter::Map<std::slice::Iter<'a, u64>, fn(&u64) -> NodeId>;

/// The candidate a ranked key names.
fn hop(key: &u64) -> NodeId {
    NodeId::new(*key as u32)
}

/// Breadth-first searches from the sources `base..base + 64` at once over `graph`,
/// reporting each `(source, node, distance)` as it is reached, every source itself at
/// distance 0 first. Paths may start or end at a non-transit node but never pass
/// through one. Bit `j` of a node's word says source `base + j` has reached it, so one
/// level of all 64 searches is one pass over the arcs. Every source relays its own
/// bit; from the second level on, only transit nodes relay.
fn sweep(
    graph: &FlatGraph,
    transit: &[bool],
    base: usize,
    mut reach: impl FnMut(usize, usize, u32),
) {
    let n = graph.node_count();
    let (mut seen, mut frontier, mut next) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let mut all = 0;
    for source in base..n.min(base + BLOCK) {
        seen[source] = 1 << (source - base);
        frontier[source] = seen[source];
        all |= seen[source];
        reach(source, source, 0);
    }
    for level in 1.. {
        let mut reached = 0;
        for v in 0..n {
            if seen[v] == all {
                // Every search has been here: nothing new can arrive.
                next[v] = 0;
                continue;
            }
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
                reach(base + bits.trailing_zeros() as usize, v, level);
                bits &= bits - 1;
            }
        }
        if reached == 0 {
            break;
        }
        std::mem::swap(&mut frontier, &mut next);
    }
}

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
        let mut dist = vec![u32::MAX; n * n];
        for base in (0..n).step_by(BLOCK) {
            // The matrix is symmetric, so a block of sources fills a block of columns.
            sweep(&graph, &transit, base, |source, v, level| {
                dist[v * n + source] = level;
            });
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
        assert_eq!(planner.kappa, 0);
        assert_eq!(planner.max_candidates, Some(1));
        let plan = planner.plan(&g);
        for at in g.nodes() {
            plan.for_each_rule(at, |_, hops| assert_eq!(hops.len(), 1));
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
        plan.for_each_rule(n(0), |towards, _| panic!("a rule towards {towards}"));
        assert!(plan.agrees(&Graph::new(), |_| true, 0));
        assert!(!plan.agrees(&cycle_with_chord(), |_| true, 0));
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
    /// a hub among them has rows of 64 neighbors and more, past what the stack holds.
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
                let mut from_at: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
                plan.for_each_rule(at, |t, hops| {
                    let len = hops.len();
                    let hops: Vec<NodeId> = hops.collect();
                    assert_eq!(len, hops.len(), "seed {seed}: ({at}, {t}) len()");
                    from_at.push((t, hops));
                });
                let expected: Vec<(NodeId, Vec<NodeId>)> = next_hops
                    .range((at, n(0))..=(at, n(u32::MAX)))
                    .map(|(&(_, t), hops)| (t, hops.clone()))
                    .collect();
                assert_eq!(from_at, expected, "seed {seed}: for_each_rule({at})");
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
            // The plan agrees with its inputs on every turn; one wrong distance shows
            // on its block's turn and no other, a wrong graph or relay flag on block 0's.
            let relays = |id: NodeId| !non_transit.contains(&id);
            let blocks = ids.len().div_ceil(64) as u64;
            assert!(
                (0..2 * blocks).all(|turn| plan.agrees(&g, relays, turn)),
                "seed {seed}"
            );
            let mut corrupted = plan.clone();
            let at = rng.gen_range(0..corrupted.dist.len());
            corrupted.dist[at] = corrupted.dist[at].wrapping_add(1 + rng.gen_range(0..2u32));
            let block = (at % ids.len() / 64) as u64;
            for turn in 0..blocks {
                let agrees = corrupted.agrees(&g, relays, turn);
                assert_eq!(agrees, turn != block, "seed {seed}: {turn}");
            }
            let flipped = |id: NodeId| id != ids[0] && relays(id);
            assert_eq!(plan.agrees(&g, flipped, 0), non_transit.contains(&ids[0]));
            let mut other = g.clone();
            other.add_node(stranger);
            assert!(
                !plan.agrees(&other, relays, 0) && plan.agrees(&other, relays, 1) == (blocks > 1)
            );
            disconnected += usize::from(!crate::paths::is_connected(&g));
        }
        assert!(
            disconnected > 5 && absent_pairs > 100,
            "both kinds of graph ran"
        );
    }
}
