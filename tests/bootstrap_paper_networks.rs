//! Integration: in-band bootstrap on the paper's evaluation networks (Figure 5 scenario)
//! and the invariants a legitimate state must satisfy (Definition 1).

use renaissance::{ControllerConfig, HarnessConfig, SdnNetwork};
use sdn_netsim::SimDuration;
use sdn_topology::{builders, paths};

fn bootstrap(name: &str, controllers: usize) -> (SdnNetwork, SimDuration) {
    let topology = builders::by_name(name, controllers);
    let switches = topology.switch_count();
    let mut sdn = SdnNetwork::new(
        topology,
        ControllerConfig::for_network(controllers, switches),
        HarnessConfig::default()
            .with_task_delay(SimDuration::from_millis(200))
            .with_seed(1),
    );
    let elapsed = sdn
        .run_until_legitimate(SimDuration::from_millis(200), SimDuration::from_secs(600))
        .unwrap_or_else(|| panic!("{name} must bootstrap"));
    (sdn, elapsed)
}

#[test]
fn b4_bootstraps_and_every_switch_is_fully_managed() {
    let (sdn, elapsed) = bootstrap("B4", 3);
    assert!(elapsed > SimDuration::ZERO);
    for switch_id in sdn.switch_ids() {
        let switch = sdn.switch(switch_id).expect("switch");
        assert_eq!(
            switch.managers().to_sorted_vec(),
            sdn.controller_ids(),
            "switch {switch_id} must be managed by every controller"
        );
        assert!(
            !switch.rules().is_empty(),
            "switch {switch_id} must hold rules"
        );
    }
}

#[test]
fn clos_bootstrap_installs_bidirectional_inband_paths() {
    let (sdn, _) = bootstrap("Clos", 3);
    let operational = sdn.sim().operational_graph();
    for controller in sdn.controller_ids() {
        for node in operational.nodes() {
            if node == controller {
                continue;
            }
            let forward =
                renaissance::legitimacy::route_in_band(&sdn, operational, controller, node);
            let back = renaissance::legitimacy::route_in_band(&sdn, operational, node, controller);
            assert!(forward.is_some(), "no path {controller} -> {node}");
            assert!(back.is_some(), "no path {node} -> {controller}");
        }
    }
}

#[test]
fn bootstrap_time_grows_with_network_diameter() {
    // The O(D) shape of Lemma 5 / Figure 5: larger-diameter networks take longer.
    let (_, b4) = bootstrap("B4", 3);
    let (_, telstra) = bootstrap("Telstra", 3);
    assert!(
        telstra >= b4,
        "Telstra (diameter 8) should take at least as long as B4 (diameter 5): {telstra} vs {b4}"
    );
}

#[test]
fn controller_knowledge_matches_reality_after_bootstrap() {
    let (sdn, _) = bootstrap("Clos", 2);
    let operational = sdn.sim().operational_graph();
    for controller in sdn.controller_ids() {
        let observed = sdn.sim().observed_neighbors(controller);
        let discovered = sdn
            .controller(controller)
            .expect("controller")
            .discovered_graph(&observed);
        assert_eq!(discovered.node_count(), operational.node_count());
        assert_eq!(discovered.link_count(), operational.link_count());
    }
}

/// Once the network has settled, every derived view an iteration reads was built by
/// an earlier one from the same inputs: rounds keep completing under new tags, and no
/// graph is constructed.
#[test]
fn a_settled_network_builds_no_views() {
    let (mut sdn, _) = bootstrap("B4", 3);
    sdn.run_for(SimDuration::from_secs(5));
    let stats = |sdn: &SdnNetwork| {
        let ids = sdn.controller_ids();
        let of = |id| sdn.controller(id).expect("controller").stats();
        ids.into_iter().map(of).collect::<Vec<_>>()
    };
    let settled = stats(&sdn);
    sdn.run_for(SimDuration::from_secs(30));
    for (before, after) in settled.iter().zip(stats(&sdn)) {
        assert!(after.iterations >= before.iterations + 100);
        assert!(after.rounds_completed > before.rounds_completed);
        assert_eq!(after.views_built, before.views_built);
        assert_eq!(
            after.views_reused - before.views_reused,
            5 * (after.iterations - before.iterations),
            "an iteration reads five views"
        );
    }
}

#[test]
fn switch_memory_stays_within_lemma1_bound() {
    let (sdn, _) = bootstrap("B4", 3);
    for switch_id in sdn.switch_ids() {
        let switch = sdn.switch(switch_id).expect("switch");
        assert!(
            switch.rules().len() <= switch.config().max_rules,
            "switch {switch_id} exceeded maxRules"
        );
        assert!(switch.managers().len() <= switch.config().max_managers);
        assert_eq!(
            switch.rules().evictions(),
            0,
            "no evictions during a legal execution"
        );
    }
}

#[test]
fn table8_diameters_match_the_paper() {
    for (name, switches, diameter) in [
        ("B4", 12, 5u32),
        ("Clos", 20, 4),
        ("Telstra", 57, 8),
        ("AT&T", 172, 10),
        ("EBONE", 208, 11),
    ] {
        let topology = builders::by_name(name, 3);
        assert_eq!(topology.switch_count(), switches, "{name}");
        assert_eq!(paths::diameter(&topology.switch_graph), diameter, "{name}");
    }
}
