//! The event-driven scenario executor.
//!
//! One [`ScenarioRunner`] run replaces the bespoke bootstrap/inject/poll loops the
//! experiment binaries used to hand-roll: a single agenda merges fault batches,
//! workload ticks, probe samples, and legitimacy checks, and the simulator is advanced
//! from one agenda instant to the next. Legitimacy is still evaluated on the
//! scenario's `check_every` cadence — measurement resolution is unchanged from the
//! polling days, so results are bit-identical with equal seeds (the scenario
//! regression test relies on this).

use super::report::{InjectedFault, RecoveryRecord, RunReport, ScenarioReport};
use super::schedule::FaultContext;
use super::workload::{Workload, WorkloadTick};
use super::{ControlPlane, ProbeSeries, Scenario};
use crate::config::ControllerConfig;
use crate::harness::SdnNetwork;
use sdn_netsim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

// The parallel path shares one `&Scenario` across scoped worker threads and sends each
// worker's `RunReport` back to the caller; these compile-time assertions are the audit
// that every type crossing a thread boundary actually carries the required bound. They
// transitively cover the whole netsim/core data model (`SdnNetwork` embeds the
// simulator, topology, controllers, and switches).
const fn assert_send<T: Send>() {}
const fn assert_sync<T: Sync>() {}
const _: () = {
    assert_sync::<Scenario>();
    assert_send::<Scenario>();
    assert_send::<RunReport>();
    assert_send::<ScenarioReport>();
    assert_send::<SdnNetwork>();
};

/// Executes a [`Scenario`] over its configured seeds.
pub struct ScenarioRunner<'a> {
    scenario: &'a Scenario,
}

impl<'a> ScenarioRunner<'a> {
    /// Creates a runner for `scenario`.
    pub fn new(scenario: &'a Scenario) -> Self {
        ScenarioRunner { scenario }
    }

    /// Runs every seed and aggregates the per-run reports.
    ///
    /// Seeds fan out over [`worker_count`](Self::worker_count) scoped threads; each
    /// seeded run is fully self-contained (its own network, RNG, and workloads), and
    /// the per-run reports are merged back in seed order, so the result is bit-identical
    /// to a sequential execution no matter how many workers run.
    pub fn run(&self) -> ScenarioReport {
        let base = self.scenario.base_seed();
        let runs = self.scenario.runs;
        let workers = self.worker_count().min(runs).max(1);
        let mut report = ScenarioReport {
            scenario: self.scenario.name.clone(),
            network: self.scenario.topology.label(),
            runs: Vec::with_capacity(runs),
        };
        if workers <= 1 {
            for i in 0..runs {
                report.runs.push(self.run_seed(base + i as u64));
            }
        } else {
            report.runs = self.run_parallel(base, runs, workers);
        }
        report
    }

    /// The number of worker threads [`run`](Self::run) uses, before clamping to the
    /// number of runs: an explicit [`ScenarioBuilder::threads`](super::ScenarioBuilder::threads),
    /// else [`std::thread::available_parallelism`].
    pub fn worker_count(&self) -> usize {
        if let Some(threads) = self.scenario.threads {
            return threads.max(1);
        }
        // Host core count sizes the worker pool only: every seed is an independent
        // run and reports merge back in seed order, so the count never reaches
        // simulation state.
        // stancheck: allow(thread-identity) — worker-pool sizing only; bit-identity is enforced by the parallel==sequential property test
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The scoped-thread fan-out: workers pull the next seed index off a shared atomic
    /// counter and deposit the finished report into that index's slot, which preserves
    /// seed order without any cross-run coordination.
    fn run_parallel(&self, base: u64, runs: usize, workers: usize) -> Vec<RunReport> {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunReport>>> = (0..runs).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= runs {
                        break;
                    }
                    let run = self.run_seed(base + i as u64);
                    // A poisoned slot means another worker panicked mid-run; this
                    // slot's own report is still valid, so recover the guard.
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(run);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // stancheck: allow(unwrap-expect) — infallible by construction: thread::scope re-raises worker panics before this drain runs, so every claimed slot was filled
                    .expect("worker completed every claimed seed")
            })
            .collect()
    }

    /// Runs the scenario once with an explicit seed.
    pub fn run_seed(&self, seed: u64) -> RunReport {
        SingleRun::new(self.scenario, seed).execute()
    }
}

/// One agenda entry of the post-bootstrap phase. Offsets are relative to the bootstrap
/// instant; `order` breaks ties at equal offsets: workload ticks observe the pre-fault
/// state, then workloads finish, then fault batches fire.
struct AgendaItem {
    offset: SimDuration,
    order: u8,
    kind: AgendaKind,
}

enum AgendaKind {
    Tick { workload: usize, tick: WorkloadTick },
    Finish { workload: usize },
    Batch { index: usize },
}

struct SingleRun<'a> {
    sc: &'a Scenario,
    seed: u64,
    net: SdnNetwork,
    ctx: FaultContext,
    workloads: Vec<Box<dyn Workload>>,
    probe_series: Vec<ProbeSeries>,
    next_probe: Option<SimTime>,
    /// The run's logical clock: equals the simulator clock in live mode, advances
    /// virtually past the bootstrap instant in frozen mode.
    clock: SimTime,
    report: RunReport,
}

impl<'a> SingleRun<'a> {
    fn new(sc: &'a Scenario, seed: u64) -> Self {
        let topology = sc.topology.build(sc.controllers);
        let controller_config = sc.controller_config.unwrap_or_else(|| {
            ControllerConfig::for_network(topology.controller_count(), topology.switch_count())
        });
        let controller_config = match sc.tune {
            Some(tune) => tune(controller_config),
            None => controller_config,
        };
        let harness = sc.harness.with_seed(seed);
        let net = SdnNetwork::new(topology, controller_config, harness);
        let probe_series = sc
            .probes
            .iter()
            .map(|p| ProbeSeries::new(p.key().clone()))
            .collect();
        let next_probe = if sc.probes.is_empty() {
            None
        } else {
            Some(net.now())
        };
        SingleRun {
            sc,
            seed,
            net,
            ctx: FaultContext::new(seed),
            workloads: sc.workloads.iter().map(|factory| factory()).collect(),
            probe_series,
            next_probe,
            clock: SimTime::ZERO,
            report: RunReport {
                seed,
                ..RunReport::default()
            },
        }
    }

    fn execute(mut self) -> RunReport {
        let bootstrap = self.bootstrap();
        self.report.bootstrap_s = bootstrap.map(|d| d.as_secs_f64());
        if bootstrap.is_some() {
            self.post_bootstrap();
        }
        self.finalize()
    }

    /// Phase A: from the initial (empty-configuration) state to the first legitimate
    /// state. Semantically identical to `SdnNetwork::run_until_legitimate` — legitimacy
    /// is checked every `check_every` — with probe samples interleaved.
    fn bootstrap(&mut self) -> Option<SimDuration> {
        let started = self.net.now();
        let deadline = started + self.sc.timeout;
        loop {
            if self.net.is_legitimate() {
                return Some(self.net.now() - started);
            }
            if self.net.now() >= deadline {
                return None;
            }
            let target = self.net.now() + self.sc.check_every;
            self.advance_to(target, true);
        }
    }

    /// Phase B: workloads, scheduled faults, and recovery measurements, all relative to
    /// the bootstrap instant.
    fn post_bootstrap(&mut self) {
        let origin = self.net.now();
        let live = self.sc.control_plane == ControlPlane::Live;

        for workload in &mut self.workloads {
            workload.start(&mut self.net);
        }
        let agenda = self.build_agenda();
        let batches = self.sc.schedule.batches();

        let mut idx = 0usize;
        // Time of the fault batch we are currently measuring recovery for, plus the
        // instant of its next legitimacy check.
        let mut awaiting: Option<SimTime> = None;
        let mut next_check = SimTime::ZERO;
        loop {
            let agenda_at = agenda.get(idx).map(|item| origin + item.offset);
            // A check step carries the fault instant it is measuring recovery for, so
            // no later lookup into `awaiting` is needed (or can be wrong).
            let check_at = if live {
                awaiting.map(|since| (next_check, since))
            } else {
                None
            };
            let step = match (agenda_at, check_at) {
                (None, None) => break,
                (Some(a), Some((c, since))) if c <= a => Step::Check(c, since),
                (Some(a), _) => Step::Agenda(a),
                (None, Some((c, since))) => Step::Check(c, since),
            };
            match step {
                Step::Check(at, since) => {
                    self.advance_to(at, live);
                    if self.net.is_legitimate() {
                        self.report.recoveries.push(RecoveryRecord {
                            fault_at_s: (since - origin).as_secs_f64(),
                            recovered_in_s: Some((at - since).as_secs_f64()),
                        });
                        awaiting = None;
                    } else if at >= since + self.sc.timeout {
                        self.report.recoveries.push(RecoveryRecord {
                            fault_at_s: (since - origin).as_secs_f64(),
                            recovered_in_s: None,
                        });
                        awaiting = None;
                    } else {
                        next_check = at + self.sc.check_every;
                    }
                }
                Step::Agenda(at) => {
                    self.advance_to(at, live);
                    let item = &agenda[idx];
                    idx += 1;
                    match item.kind {
                        AgendaKind::Tick { workload, tick } => {
                            self.workloads[workload].tick(&mut self.net, tick);
                        }
                        AgendaKind::Finish { workload } => {
                            let report = self.workloads[workload].finish(&mut self.net);
                            self.report.workloads.push(report);
                        }
                        AgendaKind::Batch { index } => {
                            // A new batch interrupts any still-pending recovery wait.
                            if let Some(since) = awaiting.take() {
                                self.report.recoveries.push(RecoveryRecord {
                                    fault_at_s: (since - origin).as_secs_f64(),
                                    recovered_in_s: None,
                                });
                            }
                            let (offset, events) = &batches[index];
                            for event in events {
                                for description in self.ctx.apply(&mut self.net, event) {
                                    self.report.injected.push(InjectedFault {
                                        at_s: offset.as_secs_f64(),
                                        description,
                                    });
                                }
                            }
                            if live {
                                awaiting = Some(at);
                                next_check = at;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Builds the sorted post-bootstrap agenda from workload windows and fault batches.
    fn build_agenda(&self) -> Vec<AgendaItem> {
        let mut items = Vec::new();
        for (wi, workload) in self.workloads.iter().enumerate() {
            let interval = workload.tick_interval();
            assert!(
                !interval.is_zero(),
                "workload '{}' has a zero tick interval",
                workload.label()
            );
            let ticks = workload.duration().as_micros() / interval.as_micros();
            let mut offset = SimDuration::ZERO;
            for k in 1..=ticks {
                offset += interval;
                items.push(AgendaItem {
                    offset,
                    order: 0,
                    kind: AgendaKind::Tick {
                        workload: wi,
                        tick: WorkloadTick {
                            index: k as u32,
                            elapsed: offset,
                        },
                    },
                });
            }
            items.push(AgendaItem {
                offset,
                order: 1,
                kind: AgendaKind::Finish { workload: wi },
            });
        }
        for (bi, (offset, _)) in self.sc.schedule.batches().iter().enumerate() {
            items.push(AgendaItem {
                offset: *offset,
                order: 2,
                kind: AgendaKind::Batch { index: bi },
            });
        }
        items.sort_by_key(|item| (item.offset, item.order));
        items
    }

    /// Brings the run to `target`: samples every probe instant up to `target`, and (in
    /// live mode) advances the simulator. In frozen mode the simulator clock stands
    /// still and probe timestamps advance virtually.
    fn advance_to(&mut self, target: SimTime, live: bool) {
        while let Some(at) = self.next_probe {
            if at > target {
                break;
            }
            if live {
                self.net.run_until(at);
            }
            for (probe, series) in self.sc.probes.iter().zip(&mut self.probe_series) {
                series.push(at.as_secs_f64(), probe.sample(&self.net));
            }
            self.next_probe = Some(at + self.sc.sample_every);
        }
        if live {
            self.net.run_until(target);
        }
        self.clock = self.clock.max(target);
    }

    /// One last probe sample at the end of the run, so every series reflects the final
    /// state even when the run ends between two scheduled samples.
    fn sample_probes_at_end(&mut self) {
        if self.sc.probes.is_empty() {
            return;
        }
        let at = self.clock.as_secs_f64();
        if self.probe_series[0].times_s.last() == Some(&at) {
            return;
        }
        for (probe, series) in self.sc.probes.iter().zip(&mut self.probe_series) {
            series.push(at, probe.sample(&self.net));
        }
    }

    fn finalize(mut self) -> RunReport {
        self.sample_probes_at_end();
        for (key, f) in &self.sc.summaries {
            self.report.summaries.push((key.clone(), f(&self.net)));
        }
        self.report.probes = self.probe_series;
        self.report.final_legitimate = self.net.is_legitimate();
        self.report.total_rules = self.net.total_rules();
        self.report.max_rules_per_switch = self.net.max_rules_per_switch();
        self.report.messages_sent = self.net.metrics().total_sent();
        self.report.events_processed = self.net.sim().events_processed();
        self.report.sim_end_s = self.net.now().as_secs_f64();
        self.report.seed = self.seed;
        self.report
    }
}

enum Step {
    Agenda(SimTime),
    /// Legitimacy check at `.0`, measuring recovery from the fault at `.1`.
    Check(SimTime, SimTime),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        ControllerSelector, Endpoints, FaultEvent, LinkSelector, MetricKey, Namespace, Probe,
        Scenario, SwitchSelector,
    };
    use sdn_topology::builders;

    fn small(name: &str) -> crate::scenario::ScenarioBuilder {
        Scenario::builder(name)
            .topology(builders::ring(5, 2))
            .task_delay(SimDuration::from_millis(100))
            .check_every(SimDuration::from_millis(100))
            .timeout(SimDuration::from_secs(120))
    }

    #[test]
    fn bootstrap_only_scenario_measures_bootstrap() {
        let report = small("bootstrap").runs(2).run();
        assert_eq!(report.network, "Ring-5");
        assert_eq!(report.runs.len(), 2);
        assert!(report.all_converged());
        let digest = report.bootstrap_digest();
        assert_eq!(digest.len(), 2);
        assert!(digest.min() > 0.0);
        // Different seeds are recorded per run.
        assert_ne!(report.runs[0].seed, report.runs[1].seed);
    }

    #[test]
    fn scenario_matches_direct_harness_run() {
        // The runner's bootstrap must be bit-identical to the polling escape hatch.
        let report = small("parity").seeds_from(3).run();
        let topology = builders::ring(5, 2);
        let mut direct = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(2, 5),
            crate::HarnessConfig::default()
                .with_task_delay(SimDuration::from_millis(100))
                .with_seed(3),
        );
        let elapsed = direct
            .run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        assert_eq!(report.runs[0].bootstrap_s, Some(elapsed.as_secs_f64()));
    }

    #[test]
    fn fault_batches_produce_recovery_records() {
        let report = small("controller-failure")
            .fault_at(
                SimDuration::ZERO,
                FaultEvent::FailController(ControllerSelector::Index(1)),
            )
            .run();
        let run = &report.runs[0];
        assert_eq!(run.recoveries.len(), 1);
        assert_eq!(run.recoveries[0].fault_at_s, 0.0);
        assert!(run.recoveries[0].recovered_in_s.unwrap() > 0.0);
        assert_eq!(run.injected.len(), 1);
        assert!(run.injected[0].description.contains("fail-stop controller"));
        assert!(run.final_legitimate);
    }

    #[test]
    fn temporary_link_failure_and_restore_are_two_batches() {
        let report = small("flap")
            .fault_at(
                SimDuration::ZERO,
                FaultEvent::FailLink(LinkSelector::RandomSafe { count: 1 }),
            )
            .fault_at(
                SimDuration::from_secs(30),
                FaultEvent::RestoreLastFailedLinks,
            )
            .run();
        let run = &report.runs[0];
        assert_eq!(run.recoveries.len(), 2);
        assert!(run.recoveries.iter().all(|r| r.recovered_in_s.is_some()));
        assert!(run.final_legitimate);
    }

    #[test]
    fn probes_sample_through_the_run() {
        let report = small("probed")
            .probe(Probe::legitimacy())
            .probe(Probe::total_rules())
            .sample_probes_every(SimDuration::from_millis(500))
            .fault_at(
                SimDuration::ZERO,
                FaultEvent::FailSwitch(SwitchSelector::Random),
            )
            .run();
        let run = &report.runs[0];
        let legitimacy = run
            .probe(&MetricKey::LEGITIMACY)
            .expect("legitimacy series");
        assert!(legitimacy.values.len() > 2);
        // First sample is at t=0 with an un-bootstrapped (illegitimate) network.
        assert_eq!(legitimacy.times_s[0], 0.0);
        assert_eq!(legitimacy.values[0], 0.0);
        // It ends legitimate after recovery.
        assert_eq!(legitimacy.last(), Some(1.0));
        let rules = run
            .probe(&MetricKey::TOTAL_RULES)
            .expect("total_rules series");
        assert!(rules.last().unwrap() > 0.0);
    }

    #[test]
    fn mid_path_removal_with_fixed_endpoints_recovers() {
        let report = small("mid-path")
            .fault_at(
                SimDuration::from_secs(2),
                FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
            )
            .run();
        let run = &report.runs[0];
        assert_eq!(run.injected.len(), 1);
        assert!(run.injected[0].description.contains("remove link"));
        assert!(run.recoveries[0].recovered_in_s.is_some());
    }

    #[test]
    fn frozen_control_plane_skips_recovery_tracking() {
        let report = small("frozen")
            .control_plane(ControlPlane::Frozen)
            .fault_at(
                SimDuration::from_secs(1),
                FaultEvent::RemoveLink(LinkSelector::RandomSafe { count: 1 }),
            )
            .run();
        let run = &report.runs[0];
        assert!(run.bootstrap_s.is_some());
        assert_eq!(run.injected.len(), 1);
        // No recovery record: the control plane never ran after the fault.
        assert!(run.recoveries.is_empty());
        // The simulated clock did not advance past the bootstrap instant.
        assert_eq!(run.sim_end_s, run.bootstrap_s.unwrap());
    }

    /// A scenario exercising every report channel: faults, probes, workloads, and
    /// summaries, over several seeds. Used to prove parallel/sequential bit-identity.
    fn determinism_scenario() -> crate::scenario::ScenarioBuilder {
        struct CountingWorkload {
            ticks: Vec<f64>,
        }
        impl crate::scenario::Workload for CountingWorkload {
            fn label(&self) -> String {
                "counting".to_string()
            }
            fn duration(&self) -> SimDuration {
                SimDuration::from_secs(3)
            }
            fn start(&mut self, _net: &mut SdnNetwork) {}
            fn tick(&mut self, net: &mut SdnNetwork, tick: crate::scenario::WorkloadTick) {
                self.ticks
                    .push(tick.index as f64 + net.total_rules() as f64);
            }
            fn finish(&mut self, _net: &mut SdnNetwork) -> crate::scenario::WorkloadReport {
                let mut report = crate::scenario::WorkloadReport::new("counting");
                report.push_series("ticks", std::mem::take(&mut self.ticks));
                report
            }
        }
        small("determinism")
            .runs(4)
            .seeds_from(17)
            .fault_at(
                SimDuration::from_secs(1),
                FaultEvent::FailController(ControllerSelector::Random { count: 1 }),
            )
            .fault_at(
                SimDuration::from_secs(2),
                FaultEvent::FailLink(LinkSelector::RandomSafe { count: 1 }),
            )
            .probe(Probe::legitimacy())
            .probe(Probe::total_rules())
            .sample_probes_every(SimDuration::from_millis(500))
            .workload(|| Box::new(CountingWorkload { ticks: Vec::new() }))
            .summary(
                MetricKey::custom(Namespace::Scenario, "live_switches"),
                |net| net.live_switch_ids().len() as f64,
            )
    }

    #[test]
    fn parallel_report_is_bit_identical_to_sequential() {
        // The tentpole guarantee: fanning seeds over worker threads must not change a
        // single bit of the aggregated report — same victims, recovery times, probe
        // series, workload series, and end state, merged in seed order.
        let sequential = determinism_scenario().threads(1).run();
        let parallel = determinism_scenario().threads(4).run();
        assert_eq!(sequential, parallel);
        // The typed digests derived from the reports inherit that bit-identity:
        // per-run values reduce in seed order regardless of worker count.
        assert_eq!(sequential.bootstrap_digest(), parallel.bootstrap_digest());
        assert_eq!(sequential.recovery_digest(), parallel.recovery_digest());
        let key = MetricKey::custom(Namespace::Scenario, "live_switches");
        assert_eq!(sequential.metric_digest(&key), parallel.metric_digest(&key));
        assert!(!parallel.metric_digest(&key).is_empty());
        assert_eq!(parallel.runs.len(), 4);
        let seeds: Vec<u64> = parallel.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![17, 18, 19, 20], "reports merged in seed order");
        assert!(parallel.runs.iter().any(|r| !r.recoveries.is_empty()));
        assert!(parallel
            .runs
            .iter()
            .all(|r| r.workload("counting").is_some()));
    }

    /// A scenario over the whole gray-failure family: bursty asymmetric link
    /// degradation, a healing partition, a flapping link, and a quality restore.
    fn gray_scenario() -> crate::scenario::ScenarioBuilder {
        use crate::scenario::{DegradeSpec, PartitionSpec};
        small("gray-failure")
            .runs(3)
            .seeds_from(41)
            .fault_at(
                SimDuration::from_secs(1),
                FaultEvent::DegradeLink(LinkSelector::RandomSafe { count: 2 }, DegradeSpec::gray()),
            )
            .fault_at(
                SimDuration::from_secs(4),
                FaultEvent::Partition {
                    groups: PartitionSpec::Halves,
                    heal_after: Some(SimDuration::from_secs(8)),
                },
            )
            .fault_at(
                SimDuration::from_secs(16),
                FaultEvent::FlapLink {
                    selector: LinkSelector::RandomSafe { count: 1 },
                    period: SimDuration::from_secs(4),
                    count: 2,
                },
            )
            .fault_at(
                SimDuration::from_secs(26),
                FaultEvent::RestoreLinkQuality(LinkSelector::LastDegraded),
            )
            .probe(Probe::legitimacy())
            .sample_probes_every(SimDuration::from_millis(500))
    }

    #[test]
    fn gray_failure_report_is_bit_identical_across_threads_and_repeats() {
        // The satellite guarantee: the full ScenarioReport — fault victims,
        // recovery times, probe series — of a gray-failure scenario must not
        // change with the worker count or across repeated executions, because
        // burst links draw from per-link RNG streams.
        let sequential = gray_scenario().threads(1).run();
        let parallel = gray_scenario().threads(4).run();
        let repeat = gray_scenario().threads(4).run();
        assert_eq!(sequential, parallel);
        assert_eq!(parallel, repeat);
        // Sanity: the whole family actually fired.
        let injected: Vec<&str> = sequential.runs[0]
            .injected
            .iter()
            .map(|f| f.description.as_str())
            .collect();
        assert!(injected.iter().any(|d| d.starts_with("degrade link")));
        assert!(injected.iter().any(|d| d.starts_with("partition into")));
        assert!(injected.iter().any(|d| d.starts_with("heal partition")));
        assert!(injected.iter().any(|d| d.starts_with("flap link")));
        assert!(injected
            .iter()
            .any(|d| d.starts_with("restore link quality")));
        assert!(sequential.runs.iter().all(|r| r.bootstrap_s.is_some()));
        // Every fault batch produced a recovery record (converged or timed out).
        assert!(sequential.runs.iter().all(|r| !r.recoveries.is_empty()));
    }

    #[test]
    fn worker_count_prefers_explicit_threads() {
        let two = determinism_scenario().threads(2).build();
        assert_eq!(ScenarioRunner::new(&two).worker_count(), 2);
        // threads(0) clamps to one worker instead of deadlocking on zero.
        let zero = determinism_scenario().threads(0).build();
        assert_eq!(ScenarioRunner::new(&zero).worker_count(), 1);
    }

    #[test]
    fn more_workers_than_runs_is_fine() {
        let wide = small("wide").runs(2).seeds_from(5).threads(16).run();
        let narrow = small("narrow").runs(2).seeds_from(5).threads(1).run();
        assert_eq!(wide.runs.len(), 2);
        for (w, n) in wide.runs.iter().zip(&narrow.runs) {
            assert_eq!(w, n);
        }
    }

    #[test]
    fn summaries_are_evaluated_at_end_of_run() {
        let key = MetricKey::custom(Namespace::Scenario, "live_switches");
        let report = small("summarized")
            .summary(key.clone(), |net| net.live_switch_ids().len() as f64)
            .run();
        assert_eq!(report.runs[0].metric(&key), Some(5.0));
        assert_eq!(report.metric_digest(&key).mean(), 5.0);
    }
}
