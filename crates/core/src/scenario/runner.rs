//! The event-driven scenario executor.
//!
//! One [`ScenarioRunner`] run replaces the bespoke bootstrap/inject/poll loops the
//! experiment binaries used to hand-roll. Each seeded run boots a [`Driver`] — the
//! network, its fault engine and one agenda that `sdn-serve`'s session drives too —
//! attaches the scenario's workloads and pushes its fault batches at the bootstrap
//! instant, and advances the simulator from one agenda instant to the next. The run
//! keeps to itself what only a scenario measures: legitimacy checks on the
//! scenario's `check_every` cadence, recovery records and probe samples. Measurement
//! resolution is unchanged from the polling days, so results are bit-identical with
//! equal seeds (the scenario regression test relies on this).

use super::driver::{Driver, Fired, Order};
use super::report::{InjectedFault, RecoveryRecord, RunReport, ScenarioReport};
use super::{ControlPlane, ProbeSeries, Scenario};
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

struct SingleRun<'a> {
    sc: &'a Scenario,
    driver: Driver,
    probe_series: Vec<ProbeSeries>,
    next_probe: Option<SimTime>,
    /// The run's logical clock: equals the simulator clock in live mode, advances
    /// virtually past the bootstrap instant in frozen mode.
    clock: SimTime,
    report: RunReport,
}

impl<'a> SingleRun<'a> {
    fn new(sc: &'a Scenario, seed: u64) -> Self {
        let driver = Driver::boot(sc, seed);
        let probe_series = sc
            .probes
            .iter()
            .map(|p| ProbeSeries::new(p.key().clone()))
            .collect();
        let next_probe = (!sc.probes.is_empty()).then(|| driver.net.now());
        SingleRun {
            sc,
            driver,
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
        let started = self.driver.net.now();
        let deadline = started + self.sc.timeout;
        loop {
            let now = self.driver.net.now();
            if self.driver.net.is_legitimate() {
                return Some(now - started);
            }
            if now >= deadline {
                return None;
            }
            self.advance_to(now + self.sc.check_every, true);
        }
    }

    /// Phase B: workloads, scheduled faults, and recovery measurements, all relative to
    /// the bootstrap instant. The workloads and fault batches go on the driver's
    /// agenda; the legitimacy checks of a recovery wait run between its items.
    fn post_bootstrap(&mut self) {
        let origin = self.driver.net.now();
        let live = self.sc.control_plane == ControlPlane::Live;
        for factory in &self.sc.workloads {
            let workload = factory();
            let interval = workload.tick_interval();
            let ticks = workload
                .duration()
                .as_micros()
                .checked_div(interval.as_micros());
            self.driver.attach(workload, interval, ticks.unwrap_or(0));
        }
        for (offset, events) in self.sc.schedule.batches() {
            self.driver.push_faults(origin + offset, events);
        }

        // The instant of the fault batch whose recovery is being measured (only in
        // live mode), and the instant of its next legitimacy check.
        let mut awaiting: Option<SimTime> = None;
        let mut next_check = SimTime::ZERO;
        let record = |since: SimTime, recovered_in_s| RecoveryRecord {
            fault_at_s: (since - origin).as_secs_f64(),
            recovered_in_s,
        };
        loop {
            let agenda_at = self.driver.next_at();
            // A recovery check due no later than the next agenda item runs first.
            if let Some(since) = awaiting.filter(|_| agenda_at.is_none_or(|a| next_check <= a)) {
                let at = next_check;
                self.advance_to(at, live);
                let recovered = self.driver.net.is_legitimate();
                if recovered || at >= since + self.sc.timeout {
                    let recovered_in_s = recovered.then(|| (at - since).as_secs_f64());
                    self.report.recoveries.push(record(since, recovered_in_s));
                    awaiting = None;
                } else {
                    next_check = at + self.sc.check_every;
                }
                continue;
            }
            let Some(at) = agenda_at else { break };
            self.advance_to(at, live);
            match self.driver.fire_due(at, Order::Faults) {
                Some(Fired::Finish(_, report)) => self.report.workloads.push(report),
                Some(Fired::Faults(done)) => {
                    // A new batch interrupts any still-pending recovery wait.
                    if let Some(since) = awaiting.take() {
                        self.report.recoveries.push(record(since, None));
                    }
                    let at_s = (at - origin).as_secs_f64();
                    for description in done {
                        self.report
                            .injected
                            .push(InjectedFault { at_s, description });
                    }
                    if live {
                        awaiting = Some(at);
                        next_check = at;
                    }
                }
                Some(Fired::Tick) | None => {}
            }
        }
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
                self.driver.net.run_until(at);
            }
            for (probe, series) in self.sc.probes.iter().zip(&mut self.probe_series) {
                series.push(at.as_secs_f64(), probe.sample(&self.driver.net));
            }
            self.next_probe = Some(at + self.sc.sample_every);
        }
        if live {
            self.driver.net.run_until(target);
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
            series.push(at, probe.sample(&self.driver.net));
        }
    }

    fn finalize(mut self) -> RunReport {
        self.sample_probes_at_end();
        let net = &self.driver.net;
        for (key, f) in &self.sc.summaries {
            self.report.summaries.push((key.clone(), f(net)));
        }
        self.report.probes = self.probe_series;
        self.report.final_legitimate = net.is_legitimate();
        self.report.total_rules = net.total_rules();
        self.report.max_rules_per_switch = net.max_rules_per_switch();
        self.report.messages_sent = net.metrics().total_sent();
        self.report.events_processed = net.sim().events_processed();
        self.report.sim_end_s = net.now().as_secs_f64();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        ControllerSelector, Endpoints, FaultEvent, LinkSelector, MetricKey, Namespace, Probe,
        Scenario, SwitchSelector,
    };
    use sdn_topology::{builders, NodeId};

    /// Node `i` of the scenario network; `n(2)`–`n(3)` is a ring link of `small`.
    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

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
        assert!(report
            .runs
            .iter()
            .all(|r| r.bootstrap_s.is_some_and(|s| s > 0.0)));
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
            crate::ControllerConfig::for_network(2, 5),
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
                FaultEvent::FailLink(LinkSelector::Between(n(2), n(3))),
            )
            .fault_at(
                SimDuration::from_secs(30),
                FaultEvent::RestoreLink(n(2), n(3)),
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
        let key = MetricKey::custom(Namespace::Scenario, "live_switches");
        assert!(parallel.runs.iter().all(|r| r.metric(&key).is_some()));
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
                FaultEvent::DegradeLink(LinkSelector::Between(n(2), n(3)), DegradeSpec::gray()),
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
                FaultEvent::RestoreLinkQuality(LinkSelector::Between(n(2), n(3))),
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
    }
}
