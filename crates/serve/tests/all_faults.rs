//! Cross-commit golden test for the fault path: one scripted session on `grid(2,3)`
//! drives every wire fault kind — an odd-period flap overlapping a rolling restart,
//! a partition and its heal, one rejected fault of each conflict class, one `/flows`
//! attachment — and must end on the exact final report recorded in
//! `fixtures/all_faults.report.json`. The fixture was recorded before `POST /faults`
//! moved onto the scenario fault engine, so it pins "same ticks, same victims, same
//! accept/reject decisions" across that swap.

use sdn_serve::FaultSpec::{self, *};
use sdn_serve::{Command, FlowsSpec, Session, SessionConfig};

/// Applies `spec`, asserts it was accepted (HTTP 200) or rejected (HTTP 409) as
/// `accepted` says, then runs `ticks` ticks.
fn fault(session: &mut Session, spec: FaultSpec, accepted: bool, ticks: u32) {
    let outcome = session.apply(&Command::Fault(spec.clone()));
    let ok = outcome.get("ok").and_then(|ok| ok.as_bool());
    assert_eq!(ok, Some(accepted), "{spec:?} -> {outcome}");
    (0..ticks).for_each(|_| session.step());
}

fn metric(session: &Session, key: &str) -> Option<f64> {
    session.metrics_json().get(key)?.as_f64()
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
    fault(&mut s, FailController(1), true, 4);
    fault(&mut s, ReviveController(1), true, 6);
    fault(&mut s, FailController(9), false, 0);
    fault(&mut s, ReviveController(2), false, 0);
    fault(&mut s, FailSwitch(4), true, 4);
    fault(&mut s, ReviveSwitch(4), true, 6);
    fault(&mut s, FailSwitch(99), false, 0);
    fault(&mut s, ReviveSwitch(0), false, 0);

    // Transient and permanent link changes.
    fault(&mut s, FailLink(3, 4), true, 3);
    fault(&mut s, RestoreLink(3, 4), true, 4);
    fault(&mut s, FailLink(3, 99), false, 0);
    fault(&mut s, RestoreLink(99, 3), false, 0);
    fault(&mut s, RemoveLink(2, 3), true, 4);
    fault(&mut s, RemoveLink(2, 3), false, 0);
    fault(&mut s, RemoveLink(2, 99), false, 0);
    fault(&mut s, AddLink(2, 3), true, 3);
    fault(&mut s, AddLink(2, 6), true, 4);
    fault(&mut s, AddLink(3, 3), false, 0);

    // Gray links: flat symmetric loss, one-way burst loss, and their restoration.
    let degrade = |a, b, loss, burst: Option<(f64, f64, f64)>| DegradeLink {
        a,
        b,
        loss,
        burst,
        asymmetric: burst.is_some(),
    };
    fault(&mut s, degrade(3, 4, 0.25, None), true, 4);
    fault(&mut s, degrade(3, 6, 0.0, Some((0.15, 0.35, 1.0))), true, 4);
    fault(&mut s, degrade(2, 7, 0.5, None), false, 0);
    fault(&mut s, RestoreLinkQuality(3, 4), true, 2);
    fault(&mut s, RestoreLinkQuality(3, 4), false, 0);
    fault(&mut s, RestoreLinkQuality(2, 7), false, 0);
    fault(&mut s, RestoreLinkQuality(3, 6), true, 3);

    // Partition along the rows (cuts 2-5, 3-6, 4-7 and the added 2-6), then heal.
    let partition = |groups: &[&[u32]]| Partition {
        groups: groups.iter().map(|g| g.to_vec()).collect(),
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
        a,
        b,
        period_ticks: 5,
        count: 2,
    };
    let rolling = |count| RollingRestart {
        interval_ticks: 6,
        down_ticks: 3,
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
