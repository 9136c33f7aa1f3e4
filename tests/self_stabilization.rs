//! Integration: self-stabilization from arbitrary corrupted states (Theorem 2) and the
//! behaviour of the algorithm variants (memory-adaptive vs Section 8.1 non-adaptive).

use renaissance::{
    ControllerConfig, CorruptionPlan, FaultInjector, HarnessConfig, SdnNetwork, Variant,
};
use sdn_netsim::SimDuration;
use sdn_switch::{QueryReply, Rule, RuleSummary};
use sdn_tags::Tag;
use sdn_topology::{builders, NodeId};

const CHECK: SimDuration = SimDuration::from_millis(200);
const TIMEOUT: SimDuration = SimDuration::from_secs(900);

fn build(adaptive: bool, seed: u64) -> SdnNetwork {
    let topology = builders::clos(3);
    let mut config = ControllerConfig::for_network(3, 20);
    if !adaptive {
        config = config.non_adaptive();
    }
    SdnNetwork::new(
        topology,
        config,
        HarnessConfig::default()
            .with_task_delay(SimDuration::from_millis(200))
            .with_seed(seed),
    )
}

#[test]
fn recovers_from_heavy_corruption_with_the_memory_adaptive_algorithm() {
    let mut sdn = build(true, 41);
    sdn.run_until_legitimate(CHECK, TIMEOUT).expect("bootstrap");
    let mut injector = FaultInjector::new(41);
    let mutations = injector.corrupt(&mut sdn, CorruptionPlan::heavy());
    assert!(mutations > 0);
    assert!(!sdn.is_legitimate());
    let recovery = sdn
        .run_until_legitimate(CHECK, TIMEOUT)
        .expect("Theorem 2 recovery");
    assert!(recovery > SimDuration::ZERO);
    // Memory adaptiveness: after recovery no switch stores state of bogus controllers.
    for switch_id in sdn.switch_ids() {
        let switch = sdn.switch(switch_id).expect("switch");
        for owner in switch.rules().controllers_with_rules() {
            assert!(
                sdn.controller_ids().contains(&owner),
                "bogus rule owner {owner}"
            );
        }
    }
}

#[test]
fn recovers_from_light_corruption_repeatedly() {
    let mut sdn = build(true, 43);
    sdn.run_until_legitimate(CHECK, TIMEOUT).expect("bootstrap");
    let mut injector = FaultInjector::new(43);
    let light = CorruptionPlan {
        garbage_rules_per_switch: 2,
        bogus_managers_per_switch: 0,
        clear_some_switches: false,
        bogus_replies_per_controller: 0,
        corrupt_controller_tags: false,
    };
    for round in 0..3 {
        injector.corrupt(&mut sdn, light);
        sdn.run_until_legitimate(CHECK, TIMEOUT)
            .unwrap_or_else(|| panic!("recovery round {round}"));
    }
    assert!(sdn.is_legitimate());
}

#[test]
fn non_adaptive_variant_also_bootstraps_and_survives_controller_failure() {
    let mut sdn = build(false, 47);
    assert_eq!(sdn.controller_config().variant, Variant::NonAdaptive);
    sdn.run_until_legitimate(CHECK, TIMEOUT).expect("bootstrap");
    // The non-adaptive variant never issues deletions...
    for controller in sdn.controller_ids() {
        let stats = sdn.controller(controller).expect("controller").stats();
        assert_eq!(stats.manager_deletions_requested, 0);
        assert_eq!(stats.rule_deletions_requested, 0);
    }
    // ... so after a controller fail-stop its rules linger in the switches (the cost the
    // paper describes in Section 8.1: memory is not adaptive), while the network keeps
    // every live controller connected to every switch.
    let victim = sdn.controller_ids()[2];
    sdn.fail_controller(victim);
    sdn.run_for(SimDuration::from_secs(30));
    let lingering: usize = sdn
        .switch_ids()
        .iter()
        .filter_map(|&s| sdn.switch(s))
        .map(|sw| sw.rules().rules_of(victim).len())
        .sum();
    assert!(
        lingering > 0,
        "non-adaptive variant must not clean up stale rules"
    );
    // Live controllers still reach every switch in-band.
    let operational = sdn.sim().operational_graph();
    for controller in sdn.live_controller_ids() {
        for switch in sdn.live_switch_ids() {
            assert!(
                renaissance::legitimacy::route_in_band(&sdn, operational, controller, switch)
                    .is_some(),
                "no path {controller} -> {switch} under the non-adaptive variant"
            );
        }
    }
}

#[test]
fn memory_adaptive_variant_uses_less_memory_after_controller_failures() {
    // The Section 8.1 trade-off: after a controller failure the adaptive variant purges
    // its rules while the non-adaptive variant keeps paying for them.
    let mut adaptive = build(true, 53);
    let mut non_adaptive = build(false, 53);
    adaptive
        .run_until_legitimate(CHECK, TIMEOUT)
        .expect("bootstrap adaptive");
    non_adaptive
        .run_until_legitimate(CHECK, TIMEOUT)
        .expect("bootstrap non-adaptive");
    let victim_a = adaptive.controller_ids()[2];
    let victim_n = non_adaptive.controller_ids()[2];
    adaptive.fail_controller(victim_a);
    non_adaptive.fail_controller(victim_n);
    adaptive
        .run_until_legitimate(CHECK, TIMEOUT)
        .expect("adaptive recovery");
    non_adaptive.run_for(SimDuration::from_secs(30));
    assert!(
        adaptive.total_rules() < non_adaptive.total_rules(),
        "adaptive {} rules vs non-adaptive {} rules",
        adaptive.total_rules(),
        non_adaptive.total_rules()
    );
}

#[test]
fn corrupted_controller_tags_do_not_prevent_progress() {
    let mut sdn = build(true, 59);
    sdn.run_until_legitimate(CHECK, TIMEOUT).expect("bootstrap");
    // Corrupt only the controllers (tags + replyDB), leaving switches intact.
    let plan = CorruptionPlan {
        garbage_rules_per_switch: 0,
        bogus_managers_per_switch: 0,
        clear_some_switches: false,
        bogus_replies_per_controller: 8,
        corrupt_controller_tags: true,
    };
    let mut injector = FaultInjector::new(59);
    injector.corrupt(&mut sdn, plan);
    let recovery = sdn.run_until_legitimate(CHECK, TIMEOUT).expect("recovery");
    assert!(recovery > SimDuration::ZERO);
}

/// A corrupted reply may name any `u32` as a neighbor. The identifier enters the
/// controller's views like every other claim, and nothing that reads a view — the
/// planner, the batch loop, a snapshot, the legitimacy predicate — may size a table
/// by it (at four bytes an identifier, `u32::MAX` is a 16 GiB table).
#[test]
fn a_reply_naming_a_huge_neighbor_id_is_just_another_bogus_claim() {
    let mut sdn = build(true, 53);
    sdn.run_until_legitimate(CHECK, TIMEOUT).expect("bootstrap");
    let far = NodeId::new(u32::MAX - 1);
    let id = sdn.controller_ids()[0];
    let switch = sdn.switch_ids()[0];
    let neighbors = sdn.sim().observed(id).to_vec();
    let controller = sdn.controller_mut(id).expect("controller");
    controller.corrupt_inject_reply(QueryReply {
        responder: switch,
        neighbors: vec![far],
        managers: vec![id],
        rules: RuleSummary::default(),
        echo_tag: controller.curr_tag(),
    });
    let batches = controller.iterate(&neighbors);
    assert!(
        batches.iter().any(|(dst, _)| *dst == far),
        "the claimed node is reachable in the view, so it is queried"
    );
    let flat = controller.discovered_graph(&neighbors).snapshot();
    assert_eq!(flat.neighbors(far).collect::<Vec<_>>(), [switch]);
    assert!(!sdn.legitimacy_report_fresh().is_legitimate());
    sdn.run_until_legitimate(CHECK, TIMEOUT)
        .expect("the next honest reply from the switch replaces the claim");
}

/// Tags are a saturating 64-bit counter. A single rule tagged `u64::MAX` is observed
/// by every controller, so every `TagGenerator` saturates and `nextTag()` returns the
/// same value forever: `curr == prev`, rounds can no longer be told apart, and the
/// network is legitimate only in scattered instants (about 10 of 900 samples). The
/// same rule at `u64::MAX - 10^9` leaves every sample legitimate. Theorem 2 promises
/// recovery from this state too; ROADMAP item 3 is the fix.
#[test]
#[ignore = "known wedge: saturating TagGenerator, ROADMAP item 3"]
fn a_rule_tagged_u64_max_does_not_wedge_the_tag_generators() {
    for seed in [59, 60] {
        let mut sdn = build(true, seed);
        sdn.run_until_legitimate(CHECK, TIMEOUT).expect("bootstrap");
        let (switch, controller) = (sdn.switch_ids()[0], sdn.controller_ids()[0]);
        let bogus = NodeId::new(9999);
        sdn.switch_mut(switch)
            .expect("switch")
            .corrupt_install_rule(Rule {
                cid: bogus,
                src: None,
                dst: controller,
                prt: 0,
                fwd: controller,
                tag: Tag::new(bogus.index(), u64::MAX),
            });
        let legitimate = (0..900)
            .filter(|_| {
                sdn.run_for(SimDuration::from_secs(1));
                sdn.is_legitimate()
            })
            .count();
        let c = sdn.controller(controller).expect("controller");
        assert!(
            legitimate >= 890,
            "seed {seed}: legitimate in {legitimate} of 900 one-second samples \
             (curr {}, prev {}, {} rounds completed)",
            c.curr_tag(),
            c.prev_tag(),
            c.stats().rounds_completed
        );
    }
}
