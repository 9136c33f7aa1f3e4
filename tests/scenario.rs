//! Integration tests of the declarative scenario API:
//!
//! * a seeded regression test asserting that the migrated Figure 10 experiment
//!   (controller fail-stop recovery) produces *identical* results through the
//!   `ScenarioRunner` as through direct `SdnNetwork` escape-hatch calls,
//! * the acceptance check that a composite scenario — link failure plus a concurrent
//!   controller crash plus an iperf workload — stays expressible in a handful of
//!   declarative lines.

use renaissance::faults::Action;
use renaissance::scenario::{
    ControlPlane, ControllerSelector, Endpoints, FaultEvent, LinkSelector, MetricKey, Probe,
    Scenario,
};
use renaissance::{ControllerConfig, HarnessConfig, SdnNetwork};
use sdn_netsim::SimDuration;
use sdn_topology::{builders, paths};

const CHECK: SimDuration = SimDuration::from_millis(250);
const TIMEOUT: SimDuration = SimDuration::from_secs(1_200);

/// The migrated Figure 10 experiment (recovery after one controller fail-stop) must be
/// bit-identical between the scenario runner and the old-style direct harness driving,
/// seed for seed. This pins the runner's semantics: same legitimacy-check cadence, same
/// simulator event stream, same measurement resolution.
#[test]
fn fig10_controller_failure_scenario_matches_direct_harness_calls() {
    for seed in [911u64, 912, 913] {
        // New API: declarative scenario.
        let report = Scenario::builder("fig10-regression")
            .network("B4")
            .controllers(3)
            .task_delay(SimDuration::from_millis(200))
            .check_every(CHECK)
            .timeout(TIMEOUT)
            .seeds_from(seed)
            .fault_at(
                SimDuration::ZERO,
                FaultEvent::FailController(ControllerSelector::Index(1)),
            )
            .run();
        let run = &report.runs[0];

        // Old API: the SdnNetwork escape hatch, driven by hand.
        let topology = builders::by_name("B4", 3);
        let mut direct = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(3, 12),
            HarnessConfig::default()
                .with_task_delay(SimDuration::from_millis(200))
                .with_seed(seed),
        );
        let bootstrap = direct
            .run_until_legitimate(CHECK, TIMEOUT)
            .expect("direct bootstrap");
        let victim = direct.controller_ids()[1];
        direct.apply(&Action::FailController(victim));
        let recovery = direct
            .run_until_legitimate(CHECK, TIMEOUT)
            .expect("direct recovery");

        assert_eq!(
            run.bootstrap_s,
            Some(bootstrap.as_secs_f64()),
            "seed {seed}: bootstrap time diverged"
        );
        assert_eq!(
            run.recoveries[0].recovered_in_s,
            Some(recovery.as_secs_f64()),
            "seed {seed}: recovery time diverged"
        );
        assert_eq!(
            run.injected[0].description,
            format!("fail-stop controller {victim}"),
            "seed {seed}: different victim"
        );
        // Not just the timings — the end state matches too.
        assert_eq!(run.total_rules, direct.total_rules(), "seed {seed}");
        assert_eq!(
            run.messages_sent,
            direct.metrics().total_sent(),
            "seed {seed}"
        );
        assert!(run.final_legitimate);
    }
}

/// Acceptance: a composite scenario — concurrent link failure + controller crash with
/// an iperf workload running across the faults — in a dozen declarative lines.
#[test]
fn composite_scenario_is_a_few_declarative_lines() {
    let report = Scenario::builder("composite")
        .network("B4")
        .task_delay(SimDuration::from_millis(200))
        .workload(|| Box::new(sdn_traffic::IperfWorkload::farthest(12)))
        .fault_at(
            SimDuration::from_secs(5),
            FaultEvent::RemoveLink(LinkSelector::RandomSafe { count: 1 }),
        )
        .fault_at(
            SimDuration::from_secs(5),
            FaultEvent::FailController(ControllerSelector::Random { count: 1 }),
        )
        .probe(Probe::legitimacy())
        .runs(2)
        .run();

    assert_eq!(report.runs.len(), 2);
    assert!(report.all_converged(), "both faults recover in every run");
    for run in &report.runs {
        // Both faults fired as one batch at t=5.
        assert_eq!(run.injected.len(), 2);
        assert_eq!(run.recoveries.len(), 1);
        // The workload observed all 12 seconds across the failure.
        let iperf = run.workload("iperf").expect("iperf report");
        let throughput = iperf.series("throughput_mbps").expect("series");
        assert_eq!(throughput.len(), 12);
        assert!(throughput.iter().all(|&t| t >= 0.0));
        // The legitimacy probe observed a legitimate state again after the fault
        // batch (the instantaneous predicate may dip mid-round afterwards).
        let legitimacy = run.probe(&MetricKey::LEGITIMACY).unwrap();
        assert!(legitimacy
            .times_s
            .iter()
            .zip(&legitimacy.values)
            .any(|(&t, &v)| t > 5.0 && v == 1.0));
    }
}

/// The paper's temporary link-failure experiment, plus revival of the crashed
/// controller: each repair names the victim of the failure before it.
#[test]
fn flapping_link_and_controller_revival_scenario() {
    let b4 = builders::by_name("B4", 3);
    let controller = b4.controllers[0];
    let (a, b) = b4
        .switch_graph
        .links()
        .map(|l| (l.a, l.b))
        .find(|&(a, b)| {
            let mut graph = b4.graph.clone();
            graph.remove_link(a, b);
            paths::is_connected(&graph)
        })
        .expect("a link whose failure keeps B4 connected");
    let report = Scenario::builder("flap-and-revive")
        .network("B4")
        .task_delay(SimDuration::from_millis(200))
        .check_every(SimDuration::from_millis(200))
        .timeout(SimDuration::from_secs(600))
        .fault_at(
            SimDuration::ZERO,
            FaultEvent::FailController(ControllerSelector::Id(controller)),
        )
        .fault_at(
            SimDuration::from_secs(60),
            FaultEvent::ReviveController(controller),
        )
        .fault_at(
            SimDuration::from_secs(120),
            FaultEvent::FailLink(LinkSelector::Between(a, b)),
        )
        .fault_at(SimDuration::from_secs(180), FaultEvent::RestoreLink(a, b))
        .run();
    let run = &report.runs[0];
    assert_eq!(run.recoveries.len(), 4);
    assert!(
        run.recoveries.iter().all(|r| r.recovered_in_s.is_some()),
        "every batch recovers: {:?}",
        run.recoveries
    );
    let descriptions: Vec<_> = run
        .injected
        .iter()
        .map(|f| f.description.as_str())
        .collect();
    assert!(descriptions[0].starts_with("fail-stop controller"));
    assert!(descriptions[1].starts_with("revive controller"));
    assert!(descriptions[2].starts_with("fail link"));
    assert!(descriptions[3].starts_with("restore link"));
}

/// Frozen-control-plane scenarios leave the simulator clock untouched after bootstrap
/// (Figure 16's "without recovery" mode).
#[test]
fn frozen_mode_keeps_the_clock_still() {
    let report = Scenario::builder("frozen")
        .network("B4")
        .task_delay(SimDuration::from_millis(200))
        .control_plane(ControlPlane::Frozen)
        .workload(|| Box::new(sdn_traffic::IperfWorkload::farthest(8)))
        .fault_at(
            SimDuration::from_secs(3),
            FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
        )
        .run();
    let run = &report.runs[0];
    assert_eq!(run.sim_end_s, run.bootstrap_s.unwrap());
    assert!(run.recoveries.is_empty());
    let iperf = run.workload("iperf").expect("iperf report");
    assert_eq!(iperf.series("throughput_mbps").unwrap().len(), 8);
}
