//! Integration: every `FaultEvent` variant, applied through `FaultContext::apply` on
//! `grid(3, 3)` and `fat_tree(4)` at a fixed seed, against a committed record.
//!
//! Each event of [`agenda`] is applied to one bootstrapped network in turn, and the
//! network then runs for one simulated second. The record holds, per event, the lines
//! `apply` returned and a summary of the state that second left: installed rules,
//! messages sent, operational links, link-config warnings and the legitimacy verdict,
//! beside the rules and links the event itself left.
//! The agenda covers all seventeen variants, the unexpanded compounds and the no-op
//! cases (an absent link to remove, degrade or restore), so any change to how a fault
//! is resolved, applied or described moves a line of
//! `tests/fixtures/every_fault_event.txt`. Every repair names its victim: the victims
//! of a random or path-based selector are read off a second context of the record's
//! seed, which draws them as the record's own context does.

use renaissance::faults::Action;
use renaissance::scenario::{
    ControllerSelector, DegradeSpec, Endpoints, FaultContext, FaultEvent, LinkSelector,
    PartitionSpec, SwitchSelector,
};
use renaissance::{ControllerConfig, HarnessConfig, SdnNetwork};
use sdn_netsim::SimDuration;
use sdn_topology::{builders, NamedTopology, NodeId};
use std::fmt::Write;

/// The seed of the network and of the fault context.
const SEED: u64 = 5;

/// One event per line of the record, in order; every `FaultEvent` variant appears.
fn agenda(net: &SdnNetwork) -> Vec<FaultEvent> {
    let (c, s) = (net.controller_ids(), net.switch_ids());
    let graph = net.sim().topology();
    let is_switch = |n: NodeId| s.contains(&n);
    let link = graph
        .links()
        .find(|l| is_switch(l.a) && is_switch(l.b))
        .expect("a switch-switch link");
    let (a, b) = (link.a, link.b);
    let mut absent = s.iter().skip(1).filter(|&&x| !graph.has_link(s[0], x));
    let (x, y) = (
        *absent.next().expect("absent"),
        *absent.next().expect("absent"),
    );
    let secs = SimDuration::from_secs;
    let rest: Vec<NodeId> = graph.nodes().filter(|&n| n != s[0]).collect();
    // The random selectors draw from one stream in the order they are applied below,
    // and the mid-path link is the bootstrapped network's: the network is back in its
    // legitimate state each time the record's context resolves one of them.
    let mut preview = FaultContext::new(SEED);
    let fail_controller = FaultEvent::FailController(ControllerSelector::Random { count: 1 });
    let fail_switch = FaultEvent::FailSwitch(SwitchSelector::Random);
    let fail_mid_path = FaultEvent::FailLink(LinkSelector::MidPath(Endpoints::FarthestSwitches));
    let degrade_rack = FaultEvent::DegradeLink(LinkSelector::SameRack, DegradeSpec::gray());
    let [Action::FailController(controller)] = preview.resolve(net, &fail_controller)[..] else {
        panic!("one controller victim")
    };
    let [Action::FailSwitch(switch)] = preview.resolve(net, &fail_switch)[..] else {
        panic!("one switch victim")
    };
    let [Action::FailLink(m1, m2)] = preview.resolve(net, &fail_mid_path)[..] else {
        panic!("one mid-path link")
    };
    let rack_repairs = preview
        .resolve(net, &degrade_rack)
        .into_iter()
        .map(|action| {
            let Action::DegradeLink { a, b, .. } = action else {
                panic!("a degrade resolves to degrades")
            };
            FaultEvent::RestoreLinkQuality(LinkSelector::Between(a, b))
        });
    let mut agenda = vec![
        fail_controller,
        FaultEvent::ReviveController(controller),
        fail_switch,
        FaultEvent::ReviveSwitch(switch),
        FaultEvent::FailController(ControllerSelector::Id(c[1])),
        FaultEvent::ReviveController(c[1]),
        FaultEvent::FailSwitch(SwitchSelector::Id(s[1])),
        FaultEvent::ReviveSwitch(s[1]),
        fail_mid_path,
        FaultEvent::RestoreLink(m1, m2),
        FaultEvent::FailLink(LinkSelector::Between(a, b)),
        FaultEvent::RestoreLink(a, b),
        FaultEvent::RemoveLink(LinkSelector::RandomSafe { count: 2 }),
        FaultEvent::RemoveLink(LinkSelector::Between(s[0], x)),
        FaultEvent::AddLink(s[0], x),
        degrade_rack,
    ];
    agenda.extend(rack_repairs);
    agenda.extend([
        FaultEvent::DegradeLink(LinkSelector::Between(s[0], y), DegradeSpec::flat(0.5)),
        FaultEvent::RestoreLinkQuality(LinkSelector::Between(a, b)),
        FaultEvent::DegradeLink(LinkSelector::Between(a, b), DegradeSpec::flat(0.2)),
        FaultEvent::RestoreLinkQuality(LinkSelector::Between(a, b)),
        FaultEvent::Partition {
            groups: PartitionSpec::Halves,
            heal_after: Some(secs(5)),
        },
        FaultEvent::HealPartition,
        FaultEvent::Partition {
            groups: PartitionSpec::Groups(vec![vec![s[0]], rest]),
            heal_after: None,
        },
        FaultEvent::HealPartition,
        FaultEvent::FlapLink {
            selector: LinkSelector::Between(a, b),
            period: secs(2),
            count: 3,
        },
        FaultEvent::RestoreLink(a, b),
        FaultEvent::FlapPhase {
            flap: 0,
            selector: LinkSelector::RandomSafe { count: 1 },
            down: true,
        },
        FaultEvent::FlapPhase {
            flap: 0,
            selector: LinkSelector::RandomSafe { count: 1 },
            down: false,
        },
        FaultEvent::RollingControllerRestart {
            interval: secs(10),
            down_for: secs(3),
            count: 2,
        },
        FaultEvent::ReviveControllerIndex(0),
        FaultEvent::CorruptState,
    ]);
    agenda
}

/// The record of one topology: a header, then one line per event of [`agenda`] with
/// the rules and links right after the event and a summary one second later.
fn record(name: &str, topology: NamedTopology) -> String {
    let (controllers, switches) = (topology.controller_count(), topology.switch_count());
    let mut net = SdnNetwork::new(
        topology,
        ControllerConfig::for_network(controllers, switches),
        HarnessConfig::default()
            .with_task_delay(SimDuration::from_millis(100))
            .with_seed(SEED),
    );
    net.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
        .expect("bootstrap");
    let mut ctx = FaultContext::new(SEED);
    let mut out = format!("# {name}\n");
    for (i, event) in agenda(&net).iter().enumerate() {
        let done = ctx.apply(&mut net, event);
        let now = (
            net.total_rules(),
            net.sim().operational_graph().link_count(),
        );
        net.run_for(SimDuration::from_secs(1));
        writeln!(
            out,
            "{i:2} {done:?} | now rules {} links {} | 1 s later rules {} sent {} links {} warnings {} legitimate {}",
            now.0,
            now.1,
            net.total_rules(),
            net.metrics().total_sent(),
            net.sim().operational_graph().link_count(),
            net.link_config_warnings(),
            net.is_legitimate(),
        )
        .expect("write to a String");
    }
    out
}

#[test]
fn every_fault_event_matches_its_committed_record() {
    let got = record("grid(3,3)", builders::grid(3, 3, 2))
        + &record("fat_tree(4)", builders::fat_tree(4, 2));
    let want = include_str!("fixtures/every_fault_event.txt");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of the record moved", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "record length");
}
