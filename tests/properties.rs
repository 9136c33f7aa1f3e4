//! Property-style tests of the core invariants, driven by a deterministic seeded
//! generator (`sdn-rng`) instead of an external property-testing framework:
//!
//! * kappa-fault-resilient flows really survive any single link failure on
//!   2-edge-connected topologies (the Section 2.2.2 guarantee),
//! * the first-shortest-path plan routes along shortest paths when nothing fails,
//! * the bounded switch structures never exceed their configured capacities.
//!
//! Each test draws `CASES` random configurations from a fixed seed, so failures are
//! reproducible by construction: re-running the test replays the identical cases.

use sdn_rng::Rng;
use sdn_switch::{ManagerSet, Rule, RuleTable};
use sdn_tags::Tag;
use sdn_topology::{builders, ids::Link, FlowPlanner, Graph, NodeId};

/// Number of random cases per property (the proptest setup used 24).
const CASES: u64 = 24;

/// A random 2-edge-connected topology, reproducible from `seed`: a ring over the
/// switches in shuffled order, up to `extra_links` random chords, and each controller
/// (ids `0..n_controllers`) linked to two distinct random switches.
fn random_2connected(
    n_switches: usize,
    extra_links: usize,
    n_controllers: usize,
    seed: u64,
) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let sw = |i: usize| NodeId::new((n_controllers + i) as u32);
    let mut order: Vec<usize> = (0..n_switches).collect();
    rng.shuffle(&mut order);
    let mut g = Graph::new();
    for i in 0..n_switches {
        g.add_link(sw(order[i]), sw(order[(i + 1) % n_switches]));
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < extra_links && attempts < extra_links * 20 + 100 {
        attempts += 1;
        let a = rng.gen_range(0..n_switches);
        let b = rng.gen_range(0..n_switches);
        if a != b && !g.has_link(sw(a), sw(b)) {
            g.add_link(sw(a), sw(b));
            added += 1;
        }
    }
    for c in 0..n_controllers {
        let a = rng.gen_range(0..n_switches);
        let mut b = rng.gen_range(0..n_switches);
        while b == a {
            b = rng.gen_range(0..n_switches);
        }
        g.add_link(NodeId::new(c as u32), sw(a));
        g.add_link(NodeId::new(c as u32), sw(b));
    }
    g
}

#[test]
fn random_topology_is_reproducible_and_robust() {
    let a = random_2connected(30, 10, 3, 42);
    assert_eq!(a, random_2connected(30, 10, 3, 42));
    assert!(sdn_topology::connectivity::supports_kappa(&a, 1));
    let c = random_2connected(30, 10, 3, 43);
    assert_ne!(a, c, "different seeds should differ");
}

/// Any single link failure on a random 2-edge-connected topology leaves every pair of
/// nodes routable through the planned fast-failover candidates.
#[test]
fn flows_survive_any_single_link_failure() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xF100D + case);
        let n_switches = rng.gen_range(4..16usize);
        let extra_links = rng.gen_range(0..8usize);
        let seed = rng.gen_range(0..1000u64);
        let graph = random_2connected(n_switches, extra_links, 2, seed);
        let plan = FlowPlanner::new(1).plan(&graph);
        let links: Vec<Link> = graph.links().collect();
        let failed = links[rng.gen_range(0..links.len())];
        let ttl = 4 * graph.node_count();
        for a in graph.nodes() {
            for b in graph.nodes() {
                if a == b {
                    continue;
                }
                let path = plan.route(a, b, |x, y| Link::new(x, y) != failed, ttl);
                assert!(
                    path.is_some(),
                    "case {case}: {a}->{b} unroutable with {failed} down"
                );
                let path = path.unwrap();
                assert_eq!(*path.last().unwrap(), b, "case {case}");
            }
        }
    }
}

/// Without failures, the planned route between any two nodes has exactly the
/// shortest-path length.
#[test]
fn primary_routes_are_shortest_paths() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5B077E5 + case);
        let n_switches = rng.gen_range(4..14usize);
        let extra_links = rng.gen_range(0..6usize);
        let seed = rng.gen_range(0..1000u64);
        let graph = random_2connected(n_switches, extra_links, 0, seed);
        let plan = FlowPlanner::new(1).plan(&graph);
        let ttl = 4 * graph.node_count();
        for a in graph.nodes() {
            for b in graph.nodes() {
                if a == b {
                    continue;
                }
                let path = plan.route(a, b, |_, _| true, ttl).expect("connected");
                let expected = sdn_topology::paths::distance(&graph, a, b).unwrap() as usize;
                assert_eq!(path.len() - 1, expected, "case {case}: {a}->{b}");
            }
        }
    }
}

/// The bounded rule table and manager set never exceed their capacities, whatever
/// sequence of insertions is applied.
#[test]
fn switch_memory_bounds_hold() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xB005D + case);
        let capacity = rng.gen_range(1..32usize);
        let n_inserts = rng.gen_range(1..200usize);
        let mut table = RuleTable::new(capacity);
        let mut managers = ManagerSet::new(capacity);
        for _ in 0..n_inserts {
            let cid = rng.gen_range(0..8u32);
            let dst = rng.gen_range(0..16u32);
            let prt = rng.gen_range(0..4u32);
            let fwd = rng.gen_range(0..8u32);
            table.insert(Rule {
                cid: NodeId::new(cid),
                src: None,
                dst: NodeId::new(dst),
                prt: prt as u8,
                fwd: NodeId::new(fwd),
                tag: Tag::new(cid, 1),
            });
            managers.add(NodeId::new(cid));
            assert!(table.len() <= capacity, "case {case}");
            assert!(managers.len() <= capacity, "case {case}");
        }
    }
}

/// Generated ISP-style topologies always match the requested size and diameter and stay
/// 2-edge-connected — the invariants Table 8 depends on.
#[test]
fn isp_generator_invariants() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x15B + case);
        let diameter = rng.gen_range(2..7u32);
        let extra = rng.gen_range(0..20usize);
        let n_switches = 2 * diameter as usize + extra;
        let net = builders::isp_like(n_switches, diameter, 2);
        assert_eq!(net.switch_count(), n_switches, "case {case}");
        assert_eq!(
            sdn_topology::paths::diameter(&net.switch_graph),
            diameter,
            "case {case}"
        );
        assert!(
            sdn_topology::connectivity::supports_kappa(&net.graph, 1),
            "case {case}"
        );
    }
}
