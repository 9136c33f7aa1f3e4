//! Integration: recovery from the benign failures of the paper's Figures 10–14 —
//! controller fail-stop, switch fail-stop, single and multiple link failures — plus the
//! node-addition cases of Lemma 8.

use renaissance::scenario::{FaultContext, FaultEvent, SwitchSelector};
use renaissance::{ControllerConfig, FaultInjector, HarnessConfig, SdnNetwork};
use sdn_netsim::SimDuration;
use sdn_topology::builders;

const CHECK: SimDuration = SimDuration::from_millis(200);
const TIMEOUT: SimDuration = SimDuration::from_secs(600);

fn bootstrapped_b4(seed: u64) -> SdnNetwork {
    let topology = builders::b4(3);
    let mut sdn = SdnNetwork::new(
        topology,
        ControllerConfig::for_network(3, 12),
        HarnessConfig::default()
            .with_task_delay(SimDuration::from_millis(200))
            .with_seed(seed),
    );
    sdn.run_until_legitimate(CHECK, TIMEOUT).expect("bootstrap");
    sdn
}

#[test]
fn controller_fail_stop_is_cleaned_up_everywhere() {
    let mut sdn = bootstrapped_b4(11);
    let victim = sdn.controller_ids()[1];
    sdn.fail_controller(victim);
    let recovery = sdn.run_until_legitimate(CHECK, TIMEOUT).expect("recovery");
    assert!(recovery > SimDuration::ZERO);
    for switch_id in sdn.switch_ids() {
        let switch = sdn.switch(switch_id).expect("switch");
        assert!(
            !switch.managers().contains(victim),
            "stale manager at {switch_id}"
        );
        assert!(
            switch.rules().rules_of(victim).is_empty(),
            "stale rules at {switch_id}"
        );
    }
}

#[test]
fn all_but_one_controller_can_fail() {
    let mut sdn = bootstrapped_b4(13);
    let controllers = sdn.controller_ids();
    for &victim in &controllers[1..] {
        sdn.fail_controller(victim);
    }
    let recovery = sdn.run_until_legitimate(CHECK, TIMEOUT).expect("recovery");
    assert!(recovery > SimDuration::ZERO);
    // Every switch is now managed by exactly the surviving controller.
    for switch_id in sdn.switch_ids() {
        let switch = sdn.switch(switch_id).expect("switch");
        assert_eq!(switch.managers().to_sorted_vec(), vec![controllers[0]]);
    }
}

#[test]
fn switch_fail_stop_recovers() {
    let mut sdn = bootstrapped_b4(17);
    let fail = FaultEvent::FailSwitch(SwitchSelector::Random);
    let done = FaultContext::new(17).apply(&mut sdn, &fail);
    assert_eq!(done.len(), 1, "one switch fail-stops: {done:?}");
    let recovery = sdn.run_until_legitimate(CHECK, TIMEOUT);
    assert!(recovery.is_some(), "switch failure must be recoverable");
}

#[test]
fn single_and_multiple_link_failures_recover() {
    for count in [1usize, 2, 3] {
        let mut sdn = bootstrapped_b4(19 + count as u64);
        let mut injector = FaultInjector::new(19 + count as u64);
        let links = injector.random_safe_links(&sdn, count);
        assert_eq!(links.len(), count);
        for (a, b) in links {
            sdn.remove_link(a, b);
        }
        let recovery = sdn.run_until_legitimate(CHECK, TIMEOUT);
        assert!(
            recovery.is_some(),
            "{count} link failures must be recoverable"
        );
    }
}

#[test]
fn temporary_link_failure_and_restoration() {
    let mut sdn = bootstrapped_b4(23);
    let mut injector = FaultInjector::new(23);
    let (a, b) = injector.random_safe_links(&sdn, 1)[0];
    sdn.fail_link(a, b);
    sdn.run_until_legitimate(CHECK, TIMEOUT)
        .expect("recovery while the link is down");
    sdn.restore_link(a, b);
    sdn.run_until_legitimate(CHECK, TIMEOUT)
        .expect("recovery after the link comes back");
    assert!(sdn.is_legitimate());
}

#[test]
fn link_addition_is_incorporated() {
    let mut sdn = bootstrapped_b4(29);
    // Add a brand new link between two switches that are not yet adjacent.
    let switches = sdn.switch_ids();
    let (mut a, mut b) = (switches[0], switches[1]);
    'search: for &x in &switches {
        for &y in &switches {
            if x != y && !sdn.sim().topology().has_link(x, y) {
                a = x;
                b = y;
                break 'search;
            }
        }
    }
    sdn.add_link(a, b);
    let recovery = sdn
        .run_until_legitimate(CHECK, TIMEOUT)
        .expect("recovery after link addition");
    assert!(recovery > SimDuration::ZERO);
    // Every controller's view now includes the new link.
    for controller in sdn.controller_ids() {
        let observed = sdn.sim().observed(controller);
        let discovered = sdn
            .controller(controller)
            .expect("controller")
            .discovered_graph(observed);
        assert!(
            discovered.has_link(a, b),
            "controller {controller} missed the new link"
        );
    }
}

#[test]
fn failed_controller_can_rejoin_with_fresh_state() {
    let mut sdn = bootstrapped_b4(31);
    let victim = sdn.controller_ids()[2];
    sdn.fail_controller(victim);
    sdn.run_until_legitimate(CHECK, TIMEOUT)
        .expect("recovery after failure");
    // The controller comes back empty (Lemma 8: new nodes start with empty memory).
    sdn.revive_controller(victim);
    let recovery = sdn
        .run_until_legitimate(CHECK, TIMEOUT)
        .expect("recovery after rejoin");
    assert!(recovery > SimDuration::ZERO);
    for switch_id in sdn.switch_ids() {
        assert!(
            sdn.switch(switch_id)
                .expect("switch")
                .managers()
                .contains(victim),
            "rejoined controller must manage switch {switch_id} again"
        );
    }
}
