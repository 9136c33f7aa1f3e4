//! The bench-side traced driver for the simulation workloads.
//!
//! It executes one seeded run exactly as `ScenarioRunner` does — same construction,
//! same bootstrap polling, same agenda order, same recovery bookkeeping — but through
//! public API only (`SdnNetwork::new`, `run_until`, `is_legitimate`,
//! `FaultSchedule::batches`, `FaultContext::apply`, `Workload::{start,tick,finish}`)
//! with a span around each call. The `fidelity` test holds it to producing the very
//! `RunReport` the runner produces, so the spans describe the run that was timed.

use crate::trace::Tracer;
use crate::workloads::{SimPlan, CHECK_EVERY, CONTROLLERS, TIMEOUT};
use renaissance::scenario::{
    FaultContext, InjectedFault, RecoveryRecord, RunReport, Workload, WorkloadTick,
};
use renaissance::{ControllerConfig, HarnessConfig, SdnNetwork};
use sdn_netsim::{SimDuration, SimTime};
use sdn_topology::{builders, Graph, NodeId};
use sdn_traffic::engine::{FlowEngineWorkload, FlowSetConfig};
use std::collections::BTreeMap;

pub const RUN: &str = "core.scenario.run";
pub const SETUP: &str = "core.scenario.setup";
pub const SCHEDULE_BUILD: &str = "core.scenario.schedule_build";
pub const FAULT_APPLY: &str = "core.scenario.fault_apply";
pub const ADVANCE: &str = "netsim.sim.run_until";
pub const POLL: &str = "core.legitimacy.poll";
pub const ENGINE_START: &str = "traffic.engine.start";
pub const ENGINE_TICK: &str = "traffic.engine.tick";
pub const ENGINE_FINISH: &str = "traffic.engine.finish";
pub const GRAPH_WATCH: &str = "trace.graph_watch";

/// One post-bootstrap agenda entry; `order` breaks ties at equal offsets exactly as
/// the runner does: ticks, then the workload's finish, then fault batches.
struct AgendaItem {
    offset: SimDuration,
    order: u8,
    kind: AgendaKind,
}

enum AgendaKind {
    Tick(WorkloadTick),
    Finish,
    Batch(usize),
}

/// What the outside can see of the controllers' planning: at every slice boundary,
/// each controller that iterated since the last look has its discovered graph
/// compared with the one seen before. A changed graph means `Controller::iterate`
/// had to re-plan (the product keeps no counter for that). Iterate and plan cost
/// grow roughly with `n * (n + m)` of the view they run on, so the watch also sums
/// that *view work*, letting the ledger scale end-state unit costs down for the
/// small views of an unfinished bootstrap.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ViewWatch {
    /// Graph changes observed — the estimated number of re-plans.
    pub plans: u64,
    /// Sum of [`view_work`] over the changed graphs.
    pub plan_work: f64,
    /// Sum of [`view_work`] over observed iterations.
    pub iterate_work: f64,
}

/// The size measure iterate and plan cost scale with: nodes × (nodes + links).
pub fn view_work(graph: &Graph) -> f64 {
    let n = graph.node_count() as f64;
    n * (n + graph.link_count() as f64)
}

#[derive(Default)]
struct GraphWatch {
    seen: BTreeMap<NodeId, (u64, Graph)>,
    totals: ViewWatch,
}

impl GraphWatch {
    fn observe(&mut self, net: &SdnNetwork) {
        for id in net.live_controller_ids() {
            let Some(controller) = net.controller(id) else {
                continue;
            };
            let iterations = controller.stats().iterations;
            let known = self.seen.get(&id);
            let before = known.map_or(0, |(at, _)| *at);
            if known.is_some() && before == iterations {
                continue;
            }
            // A revived controller restarts its counter below the last value seen.
            let fresh = iterations.checked_sub(before).unwrap_or(iterations);
            let graph = controller.discovered_graph(net.sim().observed(id));
            let work = view_work(&graph);
            self.totals.iterate_work += fresh as f64 * work;
            if fresh > 0 && known.is_none_or(|(_, seen)| *seen != graph) {
                self.totals.plans += 1;
                self.totals.plan_work += work;
            }
            self.seen.insert(id, (iterations, graph));
        }
    }
}

/// One traced seeded run: the report the runner would have produced, the network at
/// its end state (for counters and unit-cost probes), and what the view watch saw.
pub struct TracedRun {
    pub report: RunReport,
    pub net: SdnNetwork,
    pub views: ViewWatch,
}

struct Driver<'a> {
    tracer: &'a mut Tracer,
    net: SdnNetwork,
    watch: GraphWatch,
}

impl Driver<'_> {
    fn advance_to(&mut self, target: SimTime) {
        let net = &mut self.net;
        self.tracer.span(ADVANCE, || net.run_until(target));
        let (net, watch) = (&self.net, &mut self.watch);
        self.tracer.span(GRAPH_WATCH, || watch.observe(net));
    }

    fn is_legitimate(&mut self) -> bool {
        let net = &self.net;
        self.tracer.span(POLL, || net.is_legitimate())
    }
}

/// Runs `plan` once with `seed`, recording spans into `tracer`.
pub fn run_seed(plan: &SimPlan, seed: u64, tracer: &mut Tracer) -> TracedRun {
    let root = tracer.enter(RUN);
    let net = tracer.span(SETUP, || {
        let topology = builders::by_name(plan.topology, CONTROLLERS);
        let config =
            ControllerConfig::for_network(topology.controller_count(), topology.switch_count());
        let harness = HarnessConfig::default()
            .with_task_delay(plan.task_delay)
            .with_seed(seed);
        SdnNetwork::new(topology, config, harness)
    });
    let mut d = Driver {
        tracer,
        net,
        watch: GraphWatch::default(),
    };
    let mut report = RunReport {
        seed,
        ..RunReport::default()
    };

    // Phase A: bootstrap, polling legitimacy every CHECK_EVERY.
    let started = d.net.now();
    let bootstrap = loop {
        if d.is_legitimate() {
            break Some(d.net.now() - started);
        }
        if d.net.now() >= started + TIMEOUT {
            break None;
        }
        let target = d.net.now() + CHECK_EVERY;
        d.advance_to(target);
    };
    report.bootstrap_s = bootstrap.map(|b| b.as_secs_f64());
    if bootstrap.is_some() {
        post_bootstrap(plan, seed, &mut d, &mut report);
    }

    report.final_legitimate = d.is_legitimate();
    report.total_rules = d.net.total_rules();
    report.max_rules_per_switch = d.net.max_rules_per_switch();
    report.messages_sent = d.net.metrics().total_sent();
    report.events_processed = d.net.sim().events_processed();
    report.sim_end_s = d.net.now().as_secs_f64();
    let Driver { tracer, net, watch } = d;
    tracer.exit(root);
    TracedRun {
        report,
        net,
        views: watch.totals,
    }
}

/// Phase B: workload ticks, fault batches and recovery waits, relative to the
/// bootstrap instant.
fn post_bootstrap(plan: &SimPlan, seed: u64, d: &mut Driver<'_>, report: &mut RunReport) {
    let origin = d.net.now();
    let mut ctx = FaultContext::new(seed);
    let mut workload: Option<Box<dyn Workload>> = plan.flows.map(|flows| {
        Box::new(FlowEngineWorkload::new(
            FlowSetConfig::stress(flows.pairs),
            flows.ticks,
        )) as Box<dyn Workload>
    });
    if let Some(workload) = workload.as_mut() {
        let net = &mut d.net;
        d.tracer.span(ENGINE_START, || workload.start(net));
    }
    let batches = d.tracer.span(SCHEDULE_BUILD, || plan.schedule.batches());

    let mut agenda = Vec::new();
    if let Some(workload) = workload.as_ref() {
        let interval = workload.tick_interval();
        let ticks = workload.duration().as_micros() / interval.as_micros();
        let mut offset = SimDuration::ZERO;
        for k in 1..=ticks {
            offset += interval;
            agenda.push(AgendaItem {
                offset,
                order: 0,
                kind: AgendaKind::Tick(WorkloadTick {
                    index: k as u32,
                    elapsed: offset,
                }),
            });
        }
        agenda.push(AgendaItem {
            offset,
            order: 1,
            kind: AgendaKind::Finish,
        });
    }
    for (index, (offset, _)) in batches.iter().enumerate() {
        agenda.push(AgendaItem {
            offset: *offset,
            order: 2,
            kind: AgendaKind::Batch(index),
        });
    }
    agenda.sort_by_key(|item| (item.offset, item.order));

    let since_origin = |at: SimTime| (at - origin).as_secs_f64();
    let mut next = 0usize;
    // The fault instant whose recovery is being awaited, and its next check.
    let mut awaiting: Option<SimTime> = None;
    let mut next_check = SimTime::ZERO;
    loop {
        let agenda_at = agenda.get(next).map(|item| origin + item.offset);
        let check = match (agenda_at, awaiting) {
            (None, None) => break,
            (Some(a), Some(since)) if next_check <= a => Some(since),
            (Some(_), _) => None,
            (None, Some(since)) => Some(since),
        };
        if let Some(since) = check {
            let at = next_check;
            d.advance_to(at);
            if d.is_legitimate() {
                report.recoveries.push(RecoveryRecord {
                    fault_at_s: since_origin(since),
                    recovered_in_s: Some((at - since).as_secs_f64()),
                });
                awaiting = None;
            } else if at >= since + TIMEOUT {
                report.recoveries.push(RecoveryRecord {
                    fault_at_s: since_origin(since),
                    recovered_in_s: None,
                });
                awaiting = None;
            } else {
                next_check = at + CHECK_EVERY;
            }
            continue;
        }
        let item = &agenda[next];
        let at = origin + item.offset;
        next += 1;
        d.advance_to(at);
        match item.kind {
            AgendaKind::Tick(tick) => {
                if let Some(workload) = workload.as_mut() {
                    let net = &mut d.net;
                    d.tracer.span(ENGINE_TICK, || workload.tick(net, tick));
                }
            }
            AgendaKind::Finish => {
                if let Some(workload) = workload.as_mut() {
                    let net = &mut d.net;
                    let finished = d.tracer.span(ENGINE_FINISH, || workload.finish(net));
                    report.workloads.push(finished);
                }
            }
            AgendaKind::Batch(index) => {
                // A new batch interrupts any still-pending recovery wait.
                if let Some(since) = awaiting.take() {
                    report.recoveries.push(RecoveryRecord {
                        fault_at_s: since_origin(since),
                        recovered_in_s: None,
                    });
                }
                let (offset, events) = &batches[index];
                let net = &mut d.net;
                d.tracer.span(FAULT_APPLY, || {
                    for event in events {
                        for description in ctx.apply(net, event) {
                            report.injected.push(InjectedFault {
                                at_s: offset.as_secs_f64(),
                                description,
                            });
                        }
                    }
                });
                awaiting = Some(at);
                next_check = at;
            }
        }
    }
}

#[cfg(test)]
mod fidelity {
    use super::*;
    use crate::workloads::{sim_plan, Size, BOOT_EVENTS, BOOT_RULES, CHURN, LOAD};
    use renaissance::scenario::ScenarioRunner;

    /// For every simulation workload (at the reduced size) the traced driver must
    /// reproduce the runner's report of the same seed, field for field — and with
    /// it the sim fingerprint.
    #[test]
    fn traced_driver_reproduces_the_scenario_runner() {
        for name in [BOOT_RULES, BOOT_EVENTS, CHURN, LOAD] {
            let plan = sim_plan(name, Size::Quick).unwrap();
            let scenario = plan.scenario(1000);
            let expected = ScenarioRunner::new(&scenario).run_seed(1001);
            let mut tracer = Tracer::new(true);
            let traced = run_seed(&plan, 1001, &mut tracer);
            assert_eq!(traced.report, expected, "{name}: reports diverge");
            assert_eq!(
                crate::fingerprint::of_run(&traced.report),
                crate::fingerprint::of_run(&expected),
                "{name}: fingerprints diverge"
            );
            assert!(expected.bootstrap_s.is_some(), "{name}: did not converge");
            assert!(
                crate::sim::run_failure(&expected).is_none(),
                "{name}: a fault batch was left unrecovered"
            );
            tracer.check().unwrap();
            let totals = tracer.totals();
            assert_eq!(totals[RUN].count, 1);
            assert!(totals[ADVANCE].count > 0 && totals[POLL].count > 0);
            assert_eq!(
                totals.contains_key(ENGINE_TICK),
                plan.flows.is_some(),
                "{name}: engine spans must exist exactly when flows are attached"
            );
        }
    }

    #[test]
    fn a_disabled_tracer_changes_nothing_but_records_nothing() {
        let plan = sim_plan(BOOT_EVENTS, Size::Quick).unwrap();
        let mut on = Tracer::new(true);
        let mut off = Tracer::new(false);
        let traced = run_seed(&plan, 7, &mut on);
        let untraced = run_seed(&plan, 7, &mut off);
        assert_eq!(traced.report, untraced.report);
        assert_eq!(traced.views, untraced.views);
        assert!(traced.views.plans > 0 && traced.views.plan_work > 0.0);
        assert!(traced.views.iterate_work >= traced.views.plan_work);
        assert!(off.spans().is_empty());
    }
}
