//! Topology generators for the paper's evaluation networks and for tests.
//!
//! The paper evaluates Renaissance on five networks (Table 8):
//!
//! | network | switches | diameter |
//! |---------|----------|----------|
//! | B4      | 12       | 5        |
//! | Clos    | 20       | 4        |
//! | Telstra | 57       | 8        |
//! | AT&T    | 172      | 10       |
//! | EBONE   | 208      | 11       |
//!
//! B4 is Google's inter-datacenter WAN, Clos is a 3-stage datacenter fabric, and the
//! last three are Rocketfuel-measured ISP topologies. We do not have the Rocketfuel
//! data sets, so [`isp_like`] generates synthetic ISP-style networks that match the
//! published node count and diameter *exactly* and are 2-edge-connected (so `kappa = 1`
//! flows always exist), which is all the evaluation relies on. The Clos network is a
//! real k=4 fat-tree; B4 uses the same ISP-style generator at B4's published scale.
//!
//! Controllers are always attached *in-band*: each controller gets links to two
//! switches that are at distance two of each other, which preserves the switch-graph
//! diameter reported in Table 8 and keeps the whole graph 2-edge-connected.

use crate::graph::Graph;
use crate::ids::{NodeId, NodeKind};
use sdn_rng::Rng;

/// A generated network together with its controller/switch split and metadata.
///
/// # Example
///
/// ```
/// use sdn_topology::builders;
/// let net = builders::clos(3);
/// assert_eq!(net.controllers.len(), 3);
/// assert_eq!(net.switches.len(), 20);
/// assert_eq!(net.expected_diameter, 4);
/// assert!(net.graph.node_count() == 23);
/// ```
#[derive(Clone, Debug)]
pub struct NamedTopology {
    /// Human-readable network name ("B4", "Clos", "Telstra", ...).
    pub name: String,
    /// The full communication graph `Gc` including controllers.
    pub graph: Graph,
    /// The switch-only graph (what Table 8 describes).
    pub switch_graph: Graph,
    /// Controller identifiers (`0..n_controllers`).
    pub controllers: Vec<NodeId>,
    /// Switch identifiers (`n_controllers..n_controllers + n_switches`).
    pub switches: Vec<NodeId>,
    /// The switch-graph diameter the paper reports for this network.
    pub expected_diameter: u32,
}

impl NamedTopology {
    /// Number of controllers `nC`.
    pub fn controller_count(&self) -> usize {
        self.controllers.len()
    }

    /// Number of switches `nS`.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Total number of nodes `N = nC + nS`.
    pub fn node_count(&self) -> usize {
        self.controllers.len() + self.switches.len()
    }

    /// The kind of a node in this topology.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        node.kind(self.controllers.len())
    }
}

/// The five networks of the paper's Table 8, in the paper's order.
pub const PAPER_NETWORK_NAMES: [&str; 5] = ["B4", "Clos", "Telstra", "AT&T", "EBONE"];

/// The parameterized datacenter-scale generator families [`by_name`] understands, as
/// `family(arg, ...)` templates (dashes are accepted in place of parentheses/commas).
pub const GENERATOR_FAMILY_NAMES: [&str; 3] = [
    "fat_tree(k)",
    "jellyfish(switches, degree, seed)",
    "grid(rows, cols)",
];

/// Builds a topology by name with the given number of controllers.
///
/// Accepts the paper's five networks (case-insensitive, see [`PAPER_NETWORK_NAMES`])
/// plus parameterized generator names so every fig binary and the scenario API can
/// target the datacenter-scale families:
///
/// * `fat_tree(8)` — a k=8 [`fat_tree`] (80 switches),
/// * `jellyfish(100, 4, 7)` — a [`jellyfish`] with 100 switches of degree 4, wired
///   from seed 7 (the seed may be omitted and defaults to 1),
/// * `grid(10, 12)` — a 10x12 [`grid`].
///
/// Dashes may replace the parentheses/commas (`fat-tree-8`, `jellyfish-100-4-7`,
/// `grid-10-12`), which keeps the names safe for file paths and CLI lists.
///
/// # Panics
///
/// Panics if `name` is neither a paper network nor a well-formed generator name.
pub fn by_name(name: &str, n_controllers: usize) -> NamedTopology {
    try_by_name(name, n_controllers).unwrap_or_else(|| {
        panic!(
            "unknown network '{name}': expected one of {PAPER_NETWORK_NAMES:?} \
             or a generator name like {GENERATOR_FAMILY_NAMES:?}"
        )
    })
}

/// [`by_name`] for names that come from outside the program (a command-log header,
/// a request): `None` when `name` is neither a paper network nor a well-formed
/// generator name with parameters inside the generator's range (`fat_tree`: even
/// `k >= 4`; `jellyfish`: `degree >= 3`, more switches than `degree`, an even port
/// count; `grid`: both dimensions `>= 2`).
pub fn try_by_name(name: &str, n_controllers: usize) -> Option<NamedTopology> {
    Some(match name.to_ascii_lowercase().as_str() {
        "b4" => b4(n_controllers),
        "clos" => clos(n_controllers),
        "telstra" => telstra(n_controllers),
        "at&t" | "att" => att(n_controllers),
        "ebone" => ebone(n_controllers),
        other => parse_generator(other)?(n_controllers),
    })
}

/// Parses a lowercase parameterized generator name (`family(a, b)` or `family-a-b`)
/// into a builder closure, or `None` when the name is not a known generator.
fn parse_generator(lower: &str) -> Option<Box<dyn Fn(usize) -> NamedTopology>> {
    // Split "family(1, 2)" / "family-1-2" into the family word and its integer args:
    // everything before the first digit names the family, the rest is the arg list.
    let split = lower
        .find(|c: char| c.is_ascii_digit())
        .unwrap_or(lower.len());
    let (family, rest) = lower.split_at(split);
    let family: String = family.chars().filter(|c| c.is_ascii_alphabetic()).collect();
    let args: Vec<u64> = rest
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().ok())
        .collect::<Option<_>>()?;
    // A name can come from outside the program (a flag, a command-log header), so the
    // ranges the generators assert are checked here first: out of range is "unknown".
    let jellyfish_in_range = |n: u64, d: u64| d >= 3 && n > d && (n % 2 == 0 || d % 2 == 0);
    match (family.as_str(), args.as_slice()) {
        ("fattree", &[k]) if k >= 4 && k % 2 == 0 => {
            Some(Box::new(move |c| fat_tree(k as usize, c)))
        }
        ("jellyfish", &[n, d]) if jellyfish_in_range(n, d) => {
            Some(Box::new(move |c| jellyfish(n as usize, d as usize, 1, c)))
        }
        ("jellyfish", &[n, d, seed]) if jellyfish_in_range(n, d) => Some(Box::new(move |c| {
            jellyfish(n as usize, d as usize, seed, c)
        })),
        ("grid", &[rows, cols]) if rows >= 2 && cols >= 2 => {
            Some(Box::new(move |c| grid(rows as usize, cols as usize, c)))
        }
        _ => None,
    }
}

/// Google's B4 inter-datacenter WAN: 12 switches, diameter 5 (Table 8).
pub fn b4(n_controllers: usize) -> NamedTopology {
    isp_named("B4", 12, 5, n_controllers)
}

/// A k=4 fat-tree Clos fabric: 20 switches (4 core, 8 aggregation, 8 edge), diameter 4.
pub fn clos(n_controllers: usize) -> NamedTopology {
    let n_core = 4usize;
    let n_pods = 4usize;
    let agg_per_pod = 2usize;
    let edge_per_pod = 2usize;
    let n_switches = n_core + n_pods * (agg_per_pod + edge_per_pod);
    debug_assert_eq!(n_switches, 20);

    let sw = |i: usize| NodeId::new((n_controllers + i) as u32);
    let mut g = Graph::new();
    // Switch index layout: [0..4) core, then per pod: 2 agg, 2 edge.
    let core: Vec<usize> = (0..n_core).collect();
    let mut pods = Vec::new();
    let mut next = n_core;
    for _ in 0..n_pods {
        let aggs: Vec<usize> = (next..next + agg_per_pod).collect();
        next += agg_per_pod;
        let edges: Vec<usize> = (next..next + edge_per_pod).collect();
        next += edge_per_pod;
        pods.push((aggs, edges));
    }
    for (aggs, edges) in &pods {
        // Full bipartite agg <-> edge inside the pod.
        for &a in aggs {
            for &e in edges {
                g.add_link(sw(a), sw(e));
            }
        }
        // Each aggregation switch connects to half of the core switches.
        for (ai, &a) in aggs.iter().enumerate() {
            for (ci, &c) in core.iter().enumerate() {
                if ci % agg_per_pod == ai {
                    g.add_link(sw(a), sw(c));
                }
            }
        }
    }
    // Attach controllers: controller i connects to an edge switch and one of its
    // aggregation switches (adjacent pair), pods chosen round-robin.
    let switch_graph = g.clone();
    let mut full = g;
    let controllers: Vec<NodeId> = (0..n_controllers).map(|i| NodeId::new(i as u32)).collect();
    for (i, &c) in controllers.iter().enumerate() {
        let (aggs, edges) = &pods[i % n_pods];
        full.add_link(c, sw(edges[0]));
        full.add_link(c, sw(aggs[0]));
    }
    let switches: Vec<NodeId> = (0..n_switches).map(sw).collect();
    NamedTopology {
        name: "Clos".to_string(),
        graph: full,
        switch_graph,
        controllers,
        switches,
        expected_diameter: 4,
    }
}

/// Rocketfuel Telstra (AS1221) stand-in: 57 switches, diameter 8.
pub fn telstra(n_controllers: usize) -> NamedTopology {
    isp_named("Telstra", 57, 8, n_controllers)
}

/// Rocketfuel AT&T (AS7018) stand-in: 172 switches, diameter 10.
pub fn att(n_controllers: usize) -> NamedTopology {
    isp_named("AT&T", 172, 10, n_controllers)
}

/// Rocketfuel EBONE (AS1755) stand-in: 208 switches, diameter 11.
pub fn ebone(n_controllers: usize) -> NamedTopology {
    isp_named("EBONE", 208, 11, n_controllers)
}

fn isp_named(name: &str, n_switches: usize, diameter: u32, n_controllers: usize) -> NamedTopology {
    let mut net = isp_like(n_switches, diameter, n_controllers);
    net.name = name.to_string();
    net
}

/// Synthetic ISP-style topology with an exact diameter and 2-edge-connectivity.
///
/// The construction is a backbone ring of `2 * diameter` switches (which has diameter
/// exactly `diameter`) plus access switches, each attached to a pair of backbone
/// switches at ring-distance two. This keeps all pairwise distances at most `diameter`
/// while never shrinking the backbone distances, so the diameter is exact. Every node
/// has degree at least two, hence the graph is 2-edge-connected.
///
/// # Panics
///
/// Panics if `n_switches < 2 * diameter` or `diameter < 2`.
pub fn isp_like(n_switches: usize, diameter: u32, n_controllers: usize) -> NamedTopology {
    assert!(diameter >= 2, "isp_like needs diameter >= 2");
    let ring_len = 2 * diameter as usize;
    assert!(
        n_switches >= ring_len,
        "isp_like needs at least 2*diameter switches ({} < {})",
        n_switches,
        ring_len
    );
    let sw = |i: usize| NodeId::new((n_controllers + i) as u32);
    let mut g = Graph::new();
    // Backbone ring: switches 0..ring_len.
    for i in 0..ring_len {
        g.add_link(sw(i), sw((i + 1) % ring_len));
    }
    // Access switches: each attaches to backbone nodes (a, a+2) — distance two apart —
    // spread round-robin around the ring.
    for (j, i) in (ring_len..n_switches).enumerate() {
        let a = (j * 2) % ring_len;
        g.add_link(sw(i), sw(a));
        g.add_link(sw(i), sw((a + 2) % ring_len));
    }
    let switch_graph = g.clone();
    // Controllers: attach to backbone nodes (a, a+2), spread evenly around the ring.
    let mut full = g;
    let controllers: Vec<NodeId> = (0..n_controllers).map(|i| NodeId::new(i as u32)).collect();
    for (i, &c) in controllers.iter().enumerate() {
        let a = (i * ring_len / n_controllers.max(1)) % ring_len;
        full.add_link(c, sw(a));
        full.add_link(c, sw((a + 2) % ring_len));
    }
    let switches: Vec<NodeId> = (0..n_switches).map(sw).collect();
    NamedTopology {
        name: format!("ISP-{n_switches}-{diameter}"),
        graph: full,
        switch_graph,
        controllers,
        switches,
        expected_diameter: diameter,
    }
}

/// Finishes a datacenter-scale topology: snapshots the switch graph, attaches each
/// controller to an adjacent switch pair, and measures the exact switch-graph diameter.
fn finish_datacenter(
    name: String,
    mut graph: Graph,
    n_switches: usize,
    n_controllers: usize,
    mut attach: impl FnMut(usize) -> (NodeId, NodeId),
) -> NamedTopology {
    let switch_graph = graph.clone();
    let controllers: Vec<NodeId> = (0..n_controllers).map(|i| NodeId::new(i as u32)).collect();
    for (i, &c) in controllers.iter().enumerate() {
        let (a, b) = attach(i);
        graph.add_link(c, a);
        graph.add_link(c, b);
    }
    let switches: Vec<NodeId> = (0..n_switches)
        .map(|i| NodeId::new((n_controllers + i) as u32))
        .collect();
    let expected_diameter = crate::paths::diameter(&switch_graph);
    NamedTopology {
        name,
        graph,
        switch_graph,
        controllers,
        switches,
        expected_diameter,
    }
}

/// A k-ary fat-tree datacenter fabric (Al-Fares et al., SIGCOMM 2008): `(k/2)^2` core
/// switches and `k` pods of `k/2` aggregation plus `k/2` edge switches each —
/// `5k^2/4` switches in total (k=4: 20, k=8: 80, k=12: 180, k=16: 320), switch-graph
/// diameter 4, and edge connectivity `k/2` (so `max_supported_kappa = k/2 - 1`).
///
/// Inside a pod, aggregation and edge switches form a complete bipartite graph;
/// aggregation switch `j` of every pod uplinks to core switches
/// `j*k/2 .. (j+1)*k/2`. Controllers attach in-band to an adjacent (edge,
/// aggregation) pair, pods chosen round-robin, which adds no diameter.
///
/// # Panics
///
/// Panics if `k` is odd or smaller than 4 (a k=2 fat-tree has degree-1 edge switches
/// and could not survive a single link failure).
// `u64::is_multiple_of` is newer than the workspace MSRV (1.82).
#[allow(clippy::manual_is_multiple_of)]
pub fn fat_tree(k: usize, n_controllers: usize) -> NamedTopology {
    assert!(
        k >= 4 && k % 2 == 0,
        "fat_tree needs an even k >= 4, got {k}"
    );
    let half = k / 2;
    let n_core = half * half;
    let n_switches = n_core + k * k;
    let sw = |i: usize| NodeId::new((n_controllers + i) as u32);
    // Switch index layout: [0..n_core) core, then per pod: k/2 agg, k/2 edge.
    let pod_base = |p: usize| n_core + p * k;
    let agg = |p: usize, j: usize| sw(pod_base(p) + j);
    let edge = |p: usize, j: usize| sw(pod_base(p) + half + j);
    let mut g = Graph::new();
    for p in 0..k {
        for a in 0..half {
            for e in 0..half {
                g.add_link(agg(p, a), edge(p, e));
            }
            for c in 0..half {
                g.add_link(agg(p, a), sw(a * half + c));
            }
        }
    }
    finish_datacenter(format!("FatTree-{k}"), g, n_switches, n_controllers, |i| {
        (edge(i % k, 0), agg(i % k, 0))
    })
}

/// A Jellyfish datacenter topology (Singla et al., NSDI 2012): a random
/// `degree`-regular graph over `n_switches` switches, reproducible from `seed`.
///
/// Built with the Jellyfish paper's incremental construction: repeatedly join two
/// random switches with free ports that are not yet neighbors; when no such pair is
/// left but a switch still has two free ports, break a random existing link and splice
/// the switch into it. The construction is retried (deterministically — the RNG stream
/// continues) until the result is 2-edge-connected, so `kappa = 1` flows always exist;
/// with `degree >= 3` virtually every draw already is.
///
/// Controllers attach in-band to a random adjacent switch pair each.
///
/// # Panics
///
/// Panics if `degree < 3`, `n_switches <= degree`, `n_switches * degree` is odd, or
/// no 2-edge-connected draw is found after 64 attempts (not observed in practice).
// `u64::is_multiple_of` is newer than the workspace MSRV (1.82).
#[allow(clippy::manual_is_multiple_of)]
pub fn jellyfish(
    n_switches: usize,
    degree: usize,
    seed: u64,
    n_controllers: usize,
) -> NamedTopology {
    assert!(degree >= 3, "jellyfish needs degree >= 3, got {degree}");
    assert!(
        n_switches > degree,
        "jellyfish needs more than {degree} switches, got {n_switches}"
    );
    assert!(
        n_switches * degree % 2 == 0,
        "jellyfish needs an even number of ports (n_switches * degree), got {n_switches} * {degree}"
    );
    let sw = |i: usize| NodeId::new((n_controllers + i) as u32);
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = jellyfish_attempt(n_switches, degree, n_controllers, &mut rng);
    let mut attempts = 1;
    while !crate::connectivity::supports_kappa(&g, 1) {
        attempts += 1;
        assert!(
            attempts <= 64,
            "jellyfish({n_switches}, {degree}, seed {seed}): no 2-edge-connected draw in 64 attempts"
        );
        g = jellyfish_attempt(n_switches, degree, n_controllers, &mut rng);
    }
    let switch_graph = g.clone();
    let attach = |_i: usize| {
        // A random switch and a random neighbor of it: an adjacent pair.
        let a = rng.gen_range(0..n_switches);
        let neighbors = switch_graph.neighbor_vec(sw(a));
        let b = neighbors[rng.gen_range(0..neighbors.len())];
        (sw(a), b)
    };
    let name = format!("Jellyfish-{n_switches}-{degree}-s{seed}");
    finish_datacenter(name, g, n_switches, n_controllers, attach)
}

/// One draw of the Jellyfish incremental construction.
fn jellyfish_attempt(
    n_switches: usize,
    degree: usize,
    n_controllers: usize,
    rng: &mut Rng,
) -> Graph {
    let sw = |i: usize| NodeId::new((n_controllers + i) as u32);
    let mut g = Graph::new();
    for i in 0..n_switches {
        g.add_node(sw(i));
    }
    let mut free: Vec<usize> = vec![degree; n_switches];
    loop {
        let open: Vec<usize> = (0..n_switches).filter(|&i| free[i] > 0).collect();
        if open.is_empty() {
            break;
        }
        // Try random joins first; the quadratic budget makes exhaustion overwhelmingly
        // unlikely before the open set genuinely has no joinable pair left.
        let mut joined = false;
        if open.len() >= 2 {
            for _ in 0..open.len() * open.len() + 16 {
                let a = open[rng.gen_range(0..open.len())];
                let b = open[rng.gen_range(0..open.len())];
                if a != b && !g.has_link(sw(a), sw(b)) {
                    g.add_link(sw(a), sw(b));
                    free[a] -= 1;
                    free[b] -= 1;
                    joined = true;
                    break;
                }
            }
        }
        if joined {
            continue;
        }
        // Stuck: splice a switch with >= 2 free ports into a random existing link.
        let Some(&x) = open.iter().find(|&&i| free[i] >= 2) else {
            // A single leftover port (or a clique among the open set): accept the
            // near-regular graph, exactly as the Jellyfish paper does.
            break;
        };
        let links: Vec<_> = g
            .links()
            .filter(|l| {
                l.a != sw(x) && l.b != sw(x) && !g.has_link(sw(x), l.a) && !g.has_link(sw(x), l.b)
            })
            .collect();
        if links.is_empty() {
            break;
        }
        let link = links[rng.gen_range(0..links.len())];
        g.remove_link(link.a, link.b);
        g.add_link(sw(x), link.a);
        g.add_link(sw(x), link.b);
        free[x] -= 2;
    }
    g
}

/// A `rows x cols` grid (mesh) of switches — the worst-case high-diameter fabric for
/// the scale campaign. Switch-graph diameter is exactly `rows + cols - 2`; the grid is
/// 2-edge-connected (every face lies on a cycle) so `kappa = 1` flows exist, and
/// `max_supported_kappa = 1` (corner switches have degree 2).
///
/// Controllers attach in-band to horizontally adjacent switch pairs spread evenly over
/// the rows.
///
/// # Panics
///
/// Panics if either dimension is smaller than 2 (a 1xN grid is a line, which a single
/// link failure disconnects).
pub fn grid(rows: usize, cols: usize, n_controllers: usize) -> NamedTopology {
    assert!(
        rows >= 2 && cols >= 2,
        "grid needs both dimensions >= 2, got {rows}x{cols}"
    );
    let n_switches = rows * cols;
    let sw = |r: usize, c: usize| NodeId::new((n_controllers + r * cols + c) as u32);
    let mut g = Graph::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_link(sw(r, c), sw(r, c + 1));
            }
            if r + 1 < rows {
                g.add_link(sw(r, c), sw(r + 1, c));
            }
        }
    }
    finish_datacenter(
        format!("Grid-{rows}x{cols}"),
        g,
        n_switches,
        n_controllers,
        |i| (sw(i % rows, 0), sw(i % rows, 1)),
    )
}

/// A ring of `n_switches` switches with controllers attached — the smallest useful
/// 2-edge-connected test topology.
///
/// # Panics
///
/// Panics if `n_switches < 3`.
pub fn ring(n_switches: usize, n_controllers: usize) -> NamedTopology {
    assert!(n_switches >= 3, "ring needs at least 3 switches");
    let sw = |i: usize| NodeId::new((n_controllers + i) as u32);
    let mut g = Graph::new();
    for i in 0..n_switches {
        g.add_link(sw(i), sw((i + 1) % n_switches));
    }
    let switch_graph = g.clone();
    let mut full = g;
    let controllers: Vec<NodeId> = (0..n_controllers).map(|i| NodeId::new(i as u32)).collect();
    for (i, &c) in controllers.iter().enumerate() {
        let a = (i * n_switches / n_controllers.max(1)) % n_switches;
        full.add_link(c, sw(a));
        full.add_link(c, sw((a + 1) % n_switches));
    }
    let switches: Vec<NodeId> = (0..n_switches).map(sw).collect();
    NamedTopology {
        name: format!("Ring-{n_switches}"),
        graph: full,
        switch_graph,
        controllers,
        switches,
        expected_diameter: (n_switches / 2) as u32,
    }
}

/// A single line of switches (1-edge-connected) — useful for testing `kappa = 0`
/// behaviour and disconnection scenarios.
///
/// # Panics
///
/// Panics if `n_switches == 0`.
pub fn line(n_switches: usize, n_controllers: usize) -> NamedTopology {
    assert!(n_switches >= 1, "line needs at least one switch");
    let sw = |i: usize| NodeId::new((n_controllers + i) as u32);
    let mut g = Graph::new();
    g.add_node(sw(0));
    for i in 1..n_switches {
        g.add_link(sw(i - 1), sw(i));
    }
    let switch_graph = g.clone();
    let mut full = g;
    let controllers: Vec<NodeId> = (0..n_controllers).map(|i| NodeId::new(i as u32)).collect();
    for (i, &c) in controllers.iter().enumerate() {
        let a = (i * n_switches / n_controllers.max(1)) % n_switches;
        full.add_link(c, sw(a));
    }
    let switches: Vec<NodeId> = (0..n_switches).map(sw).collect();
    NamedTopology {
        name: format!("Line-{n_switches}"),
        graph: full,
        switch_graph,
        controllers,
        switches,
        expected_diameter: n_switches.saturating_sub(1) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity;
    use crate::paths;

    #[test]
    fn table8_node_counts_and_diameters() {
        // Regenerates the paper's Table 8 and checks it exactly.
        let expected = [
            ("B4", 12, 5),
            ("Clos", 20, 4),
            ("Telstra", 57, 8),
            ("AT&T", 172, 10),
            ("EBONE", 208, 11),
        ];
        for (name, nodes, diameter) in expected {
            let net = by_name(name, 3);
            assert_eq!(net.switch_count(), nodes, "{name} switch count");
            assert_eq!(
                paths::diameter(&net.switch_graph),
                diameter,
                "{name} diameter"
            );
            assert_eq!(net.expected_diameter, diameter);
        }
    }

    #[test]
    fn paper_networks_are_two_edge_connected() {
        for net in PAPER_NETWORK_NAMES.map(|name| by_name(name, 3)) {
            assert!(
                connectivity::supports_kappa(&net.graph, 1),
                "{} must be 2-edge-connected including controllers",
                net.name
            );
        }
    }

    #[test]
    fn controllers_and_switches_partition_ids() {
        let net = telstra(4);
        assert_eq!(net.controller_count(), 4);
        assert_eq!(net.switch_count(), 57);
        assert_eq!(net.node_count(), 61);
        assert_eq!(net.graph.node_count(), 61);
        for (i, c) in net.controllers.iter().enumerate() {
            assert_eq!(c.index() as usize, i);
            assert_eq!(net.kind(*c), NodeKind::Controller);
        }
        for s in &net.switches {
            assert_eq!(net.kind(*s), NodeKind::Switch);
        }
    }

    #[test]
    fn clos_is_a_fat_tree() {
        let net = clos(1);
        assert_eq!(net.switch_count(), 20);
        // Edge and aggregation switches have degree >= 2; cores have degree 4.
        for s in &net.switches {
            assert!(net.switch_graph.degree(*s) >= 2);
        }
        assert_eq!(paths::diameter(&net.switch_graph), 4);
    }

    #[test]
    fn by_name_accepts_all_paper_names() {
        for name in PAPER_NETWORK_NAMES {
            let net = by_name(name, 2);
            assert_eq!(net.controller_count(), 2);
        }
        // case-insensitive and the AT&T alias
        assert_eq!(by_name("att", 1).switch_count(), 172);
        assert_eq!(by_name("ebone", 1).switch_count(), 208);
    }

    #[test]
    #[should_panic(expected = "unknown network")]
    fn by_name_rejects_unknown() {
        let _ = by_name("arpanet", 1);
    }

    #[test]
    fn isp_like_diameter_is_exact() {
        for (n, d) in [(20, 5), (40, 7), (100, 9)] {
            let net = isp_like(n, d, 2);
            assert_eq!(paths::diameter(&net.switch_graph), d, "n={n} d={d}");
            assert!(connectivity::supports_kappa(&net.switch_graph, 1));
        }
    }

    #[test]
    fn controllers_stay_close_to_backbone() {
        // Attaching controllers must not blow up the full-graph diameter by more than 2.
        for net in PAPER_NETWORK_NAMES.map(|name| by_name(name, 7)) {
            let full_d = paths::diameter(&net.graph);
            assert!(
                full_d <= net.expected_diameter + 2,
                "{}: full diameter {} vs switch diameter {}",
                net.name,
                full_d,
                net.expected_diameter
            );
        }
    }

    #[test]
    fn ring_and_line_shapes() {
        let r = ring(6, 2);
        assert_eq!(r.switch_count(), 6);
        assert_eq!(paths::diameter(&r.switch_graph), 3);
        assert!(connectivity::supports_kappa(&r.switch_graph, 1));

        let l = line(5, 1);
        assert_eq!(l.switch_count(), 5);
        assert_eq!(paths::diameter(&l.switch_graph), 4);
        assert_eq!(connectivity::edge_connectivity(&l.switch_graph), 1);
    }

    #[test]
    fn fat_tree_shape_and_kappa() {
        for k in [4usize, 6, 8] {
            let net = fat_tree(k, 3);
            let half = k / 2;
            assert_eq!(net.switch_count(), half * half + k * k, "k={k} size");
            assert_eq!(net.expected_diameter, 4, "k={k} diameter");
            assert_eq!(paths::diameter(&net.switch_graph), 4);
            // Edge connectivity is exactly k/2 (limited by the edge switches), so the
            // fabric supports kappa up to k/2 - 1.
            assert_eq!(
                connectivity::max_supported_kappa(&net.switch_graph),
                half - 1,
                "k={k} kappa"
            );
            assert!(connectivity::supports_kappa(&net.graph, 1));
            // Core switches have degree k, pod switches degree k (k/2 down + k/2 up).
            assert_eq!(net.switch_graph.max_degree(), k);
        }
        // fat_tree(4) is the paper's Clos network at the same scale.
        assert_eq!(fat_tree(4, 1).switch_count(), clos(1).switch_count());
    }

    #[test]
    fn jellyfish_is_regular_reproducible_and_robust() {
        let a = jellyfish(40, 4, 7, 3);
        let b = jellyfish(40, 4, 7, 3);
        assert_eq!(a.graph, b.graph, "same seed, same wiring");
        let c = jellyfish(40, 4, 8, 3);
        assert_ne!(a.graph, c.graph, "different seeds should differ");
        for (n, d, seed) in [(20, 3, 1), (40, 4, 2), (90, 5, 3)] {
            let net = jellyfish(n, d, seed, 2);
            assert_eq!(net.switch_count(), n);
            // Near-regular: every switch within one port of the target degree, and
            // never above it.
            for s in &net.switches {
                let deg = net.switch_graph.degree(*s);
                assert!(
                    deg == d || deg == d - 1,
                    "{}: switch {s:?} has degree {deg}, want ~{d}",
                    net.name
                );
            }
            assert!(
                connectivity::max_supported_kappa(&net.switch_graph) >= 1,
                "{} must be 2-edge-connected",
                net.name
            );
            assert!(paths::is_connected(&net.graph));
        }
    }

    #[test]
    fn grid_shape_and_kappa() {
        for (rows, cols) in [(2, 2), (4, 7), (10, 10)] {
            let net = grid(rows, cols, 3);
            assert_eq!(net.switch_count(), rows * cols);
            assert_eq!(
                net.expected_diameter,
                (rows + cols - 2) as u32,
                "{rows}x{cols} diameter"
            );
            // Corners have degree 2, so the grid supports exactly kappa = 1.
            assert_eq!(connectivity::max_supported_kappa(&net.switch_graph), 1);
            assert!(connectivity::supports_kappa(&net.graph, 1));
        }
    }

    #[test]
    fn by_name_builds_generator_families() {
        // Parenthesized and dashed spellings are equivalent.
        let paren = by_name("fat_tree(4)", 2);
        let dashed = by_name("fat-tree-4", 2);
        assert_eq!(paren.graph, dashed.graph);
        assert_eq!(paren.switch_count(), 20);

        let jf = by_name("jellyfish(20, 3, 5)", 1);
        assert_eq!(jf.graph, jellyfish(20, 3, 5, 1).graph);
        // The seed argument defaults to 1.
        assert_eq!(
            by_name("jellyfish(20, 3)", 1).graph,
            jellyfish(20, 3, 1, 1).graph
        );

        let g = by_name("Grid(3, 4)", 2);
        assert_eq!(g.switch_count(), 12);
        assert_eq!(g.graph, by_name("grid-3-4", 2).graph);
    }

    #[test]
    fn try_by_name_returns_none_where_by_name_panics() {
        assert!(try_by_name("arpanet", 1).is_none());
        assert!(try_by_name("fat_tree(4, 9)", 1).is_none());
        // Out-of-range generator parameters are unknown names, not generator panics.
        for name in [
            "fat_tree(3)",
            "fat_tree(2)",
            "jellyfish(20, 2)",
            "jellyfish(4, 4, 1)",
            "jellyfish(5, 3, 1)",
            "grid(1, 9)",
            "grid(4, 0)",
        ] {
            assert!(try_by_name(name, 1).is_none(), "{name}");
        }
        assert!(try_by_name("jellyfish(6, 3)", 1).is_some());
        assert_eq!(
            try_by_name("grid(2,3)", 2).map(|net| net.graph),
            Some(by_name("grid(2,3)", 2).graph)
        );
    }

    #[test]
    #[should_panic(expected = "unknown network")]
    fn by_name_rejects_malformed_generator_args() {
        let _ = by_name("fat_tree(4, 9)", 1);
    }

    #[test]
    fn zero_controllers_is_allowed_by_builders() {
        // The degenerate case is useful for pure data-plane tests.
        let net = isp_like(24, 4, 0);
        assert_eq!(net.controller_count(), 0);
        assert_eq!(net.graph.node_count(), 24);
    }
}
