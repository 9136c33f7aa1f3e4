//! Cross-commit golden test for the fault path: one scripted session on `grid(2,3)`
//! drives every wire fault kind — an odd-period flap overlapping a rolling restart,
//! a partition and its heal, one rejected fault of each conflict class, one `/flows`
//! attachment — and must end on the exact final report recorded in
//! `fixtures/all_faults.report.json`. The fixture was recorded before `POST /faults`
//! moved onto the scenario fault engine, and before faults on the wire became
//! `FaultEvent`s expanded by `FaultEvent::phases`, so it pins "same ticks, same
//! victims, same accept/reject decisions" across both swaps.

use renaissance::scenario::{
    ControllerSelector, DegradeSpec, FaultEvent, FaultEvent::*, LinkSelector, PartitionSpec,
    SwitchSelector,
};
use sdn_netsim::{BurstLoss, SimDuration};
use sdn_serve::{Command, FlowsSpec, Session, SessionConfig};
use sdn_topology::NodeId;

/// Applies `event`, asserts it was accepted (HTTP 200) or rejected (HTTP 409) as
/// `accepted` says, then runs `ticks` ticks.
fn fault(session: &mut Session, event: FaultEvent, accepted: bool, ticks: u32) {
    let outcome = session.apply(&Command::Fault(event.clone()));
    let ok = outcome.get("ok").and_then(|ok| ok.as_bool());
    assert_eq!(ok, Some(accepted), "{event:?} -> {outcome}");
    (0..ticks).for_each(|_| session.step());
}

fn metric(session: &Session, key: &str) -> Option<f64> {
    session.metrics_json().get(key)?.as_f64()
}

fn n(index: u32) -> NodeId {
    NodeId::new(index)
}

fn between(a: u32, b: u32) -> LinkSelector {
    LinkSelector::Between(n(a), n(b))
}

/// `count` ticks of the session's 500 ms.
fn ticks(count: u64) -> SimDuration {
    SimDuration::from_millis(500 * count)
}

#[test]
fn every_wire_fault_kind_ends_on_the_recorded_report() {
    // Controllers 0 (on 2, 3) and 1 (on 5, 6); switch rows 2-3-4 and 5-6-7 joined
    // by 2-5, 3-6 and 4-7.
    let mut s = Session::new(SessionConfig {
        topology: "grid(2,3)".to_string(),
        controllers: 2,
        seed: 11,
        tick_millis: 500,
        ring_capacity: 64,
    });
    (0..30).for_each(|_| s.step());

    // Fail-stop and revival of nodes; unknown victims conflict.
    let controller = |i| FailController(ControllerSelector::Id(n(i)));
    let switch = |i| FailSwitch(SwitchSelector::Id(n(i)));
    fault(&mut s, controller(1), true, 4);
    fault(&mut s, ReviveController(n(1)), true, 6);
    fault(&mut s, controller(9), false, 0);
    fault(&mut s, ReviveController(n(2)), false, 0);
    fault(&mut s, switch(4), true, 4);
    fault(&mut s, ReviveSwitch(n(4)), true, 6);
    fault(&mut s, switch(99), false, 0);
    fault(&mut s, ReviveSwitch(n(0)), false, 0);

    // Transient and permanent link changes.
    fault(&mut s, FailLink(between(3, 4)), true, 3);
    fault(&mut s, RestoreLink(n(3), n(4)), true, 4);
    fault(&mut s, FailLink(between(3, 99)), false, 0);
    fault(&mut s, RestoreLink(n(99), n(3)), false, 0);
    fault(&mut s, RemoveLink(between(2, 3)), true, 4);
    fault(&mut s, RemoveLink(between(2, 3)), false, 0);
    fault(&mut s, RemoveLink(between(2, 99)), false, 0);
    fault(&mut s, AddLink(n(2), n(3)), true, 3);
    fault(&mut s, AddLink(n(2), n(6)), true, 4);
    fault(&mut s, AddLink(n(3), n(3)), false, 0);

    // Gray links: flat symmetric loss, one-way burst loss, and their restoration.
    let degrade = |a, b, loss, burst: Option<(f64, f64, f64)>| {
        let spec = DegradeSpec {
            loss,
            burst: burst.map(|(enter, exit, bad)| BurstLoss::gilbert(enter, exit, bad)),
            asymmetric: burst.is_some(),
        };
        DegradeLink(between(a, b), spec)
    };
    fault(&mut s, degrade(3, 4, 0.25, None), true, 4);
    fault(&mut s, degrade(3, 6, 0.0, Some((0.15, 0.35, 1.0))), true, 4);
    fault(&mut s, degrade(2, 7, 0.5, None), false, 0);
    fault(&mut s, RestoreLinkQuality(between(3, 4)), true, 2);
    fault(&mut s, RestoreLinkQuality(between(3, 4)), false, 0);
    fault(&mut s, RestoreLinkQuality(between(2, 7)), false, 0);
    fault(&mut s, RestoreLinkQuality(between(3, 6)), true, 3);

    // Partition along the rows (cuts 2-5, 3-6, 4-7 and the added 2-6), then heal.
    let partition = |groups: &[&[u32]]| Partition {
        groups: PartitionSpec::Groups(
            groups
                .iter()
                .map(|g| g.iter().map(|&i| n(i)).collect())
                .collect(),
        ),
        heal_after: None,
    };
    let rows: &[&[u32]] = &[&[0, 2, 3, 4], &[1, 5, 6, 7]];
    fault(&mut s, HealPartition, false, 0);
    fault(&mut s, partition(&[&[2], &[7]]), false, 0);
    fault(&mut s, partition(&[&[2, 3], &[42]]), false, 0);
    fault(&mut s, partition(rows), true, 0);
    assert_eq!(metric(&s, "partitioned_links"), Some(4.0));
    fault(&mut s, partition(rows), false, 5);
    fault(&mut s, HealPartition, true, 5);
    assert_eq!(metric(&s, "partitioned_links"), Some(0.0));

    // An odd-period flap (down 2 of every 5 ticks) overlapping a rolling restart:
    // one queued phase per half-cycle and per fail/revive.
    let flap = |a, b| FlapLink {
        selector: between(a, b),
        period: ticks(5),
        count: 2,
    };
    let rolling = |count| RollingControllerRestart {
        interval: ticks(6),
        down_for: ticks(3),
        count,
    };
    fault(&mut s, flap(2, 7), false, 0);
    fault(&mut s, rolling(9), false, 0);
    fault(&mut s, flap(3, 4), true, 0);
    assert_eq!(metric(&s, "pending_faults"), Some(4.0));
    (0..2).for_each(|_| s.step());
    fault(&mut s, rolling(2), true, 0);
    assert_eq!(metric(&s, "pending_faults"), Some(3.0 + 4.0));
    (0..3).for_each(|_| s.step());

    // Traffic rides through the tail of both.
    let flows = s.apply(&Command::Flows(FlowsSpec {
        pairs: 12,
        duration_ticks: 6,
        rate_per_tick: Some(4.0),
        permutation: false,
        seed_salt: None,
    }));
    assert_eq!(flows.get("ok").and_then(|ok| ok.as_bool()), Some(true));
    (0..16).for_each(|_| s.step());
    assert_eq!(metric(&s, "pending_faults"), Some(0.0));

    let golden = include_str!("fixtures/all_faults.report.json").trim_end();
    assert_eq!(
        s.final_report().to_string(),
        golden,
        "the fault path moved a number"
    );
}
