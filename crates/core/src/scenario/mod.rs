//! Declarative scenario API: compose a topology, configurations, a typed fault
//! schedule, traffic workloads, and probes — then execute the whole experiment with a
//! single event-driven runner, repeated over multiple seeds.
//!
//! The paper's evaluation (Section 6) is ~18 distinct experiments; before this module
//! each was a hand-wired binary with its own imperative fault calls and polling loops.
//! A [`Scenario`] expresses the same experiments declaratively:
//!
//! * a **topology** — one of the paper's networks by name, or any custom
//!   [`NamedTopology`](sdn_topology::NamedTopology),
//! * **configurations** — [`ControllerConfig`](crate::ControllerConfig) and
//!   [`HarnessConfig`](crate::HarnessConfig), with builder-style overrides,
//! * a typed [`FaultSchedule`] — time-stamped [`FaultEvent`]s with per-seed-resolved
//!   victim selectors (fail-stops, link removals, transient corruption, revivals),
//! * [`Workload`]s — tick-driven traffic models (the iperf/Reno workload lives in
//!   `sdn-traffic`),
//! * [`Probe`]s — named observables sampled on a schedule,
//! * **repetition** — [`ScenarioBuilder::runs`] executes the scenario over consecutive
//!   seeds and aggregates the per-run reports into a [`ScenarioReport`].
//!
//! The old [`SdnNetwork`](crate::SdnNetwork) fault-injection and `run_until_legitimate`
//! methods remain available as the escape hatch the runner itself is built on.
//!
//! # Example
//!
//! A composite experiment — a random safe link removal plus a concurrent controller
//! crash five (simulated) seconds after bootstrap — over two seeds:
//!
//! ```
//! use renaissance::scenario::{ControllerSelector, FaultEvent, LinkSelector, Probe, Scenario};
//! use sdn_netsim::SimDuration;
//!
//! let report = Scenario::builder("composite-failure")
//!     .network("B4")
//!     .controllers(3)
//!     .task_delay(SimDuration::from_millis(200))
//!     .fault_at(SimDuration::from_secs(5), FaultEvent::RemoveLink(LinkSelector::RandomSafe { count: 1 }))
//!     .fault_at(SimDuration::from_secs(5), FaultEvent::FailController(ControllerSelector::Random { count: 1 }))
//!     .probe(Probe::total_rules())
//!     .runs(2)
//!     .run();
//! assert_eq!(report.runs.len(), 2);
//! assert!(report.all_converged());
//! assert!(report.runs.iter().all(|run| run.first_recovery_s() > Some(0.0)));
//! ```

mod probe;
mod report;
mod runner;
mod schedule;
mod workload;

pub use probe::{Probe, ProbeSeries};
pub use report::{InjectedFault, RecoveryRecord, RunReport, ScenarioReport};
pub use runner::ScenarioRunner;
pub use schedule::{
    mid_path_link, ControllerSelector, DegradeSpec, Endpoints, FaultContext, FaultError,
    FaultEvent, FaultSchedule, LinkSelector, PartitionSpec, SwitchSelector,
};
pub use sdn_metrics::{
    CsvSink, Digest, JsonLinesSink, MemorySink, MetricKey, Namespace, Recorder, Unit,
};
pub use workload::{NamedSeries, Workload, WorkloadReport, WorkloadTick};

use crate::config::{ControllerConfig, HarnessConfig};
use crate::harness::SdnNetwork;
use sdn_netsim::SimDuration;
use sdn_topology::{builders, NamedTopology};

/// Whether the control plane keeps running while workloads execute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ControlPlane {
    /// The simulator advances normally: controllers observe faults and repair flows
    /// (the paper's "with recovery" mode, Figure 15).
    #[default]
    Live,
    /// After bootstrap the simulator clock stands still: faults mutate the data plane
    /// but controllers never react, so only pre-installed kappa-fault-resilient backup
    /// paths carry traffic (the paper's "without recovery" mode, Figure 16).
    Frozen,
}

/// How the scenario obtains its topology for each run.
#[derive(Clone, Debug)]
pub(crate) enum TopologySpec {
    /// One of the paper's networks, built by name with `controllers` controllers.
    Named(String),
    /// An explicit topology, cloned per run.
    Custom(Box<NamedTopology>),
}

impl TopologySpec {
    pub(crate) fn label(&self) -> String {
        match self {
            TopologySpec::Named(name) => name.clone(),
            TopologySpec::Custom(topology) => topology.name.clone(),
        }
    }

    pub(crate) fn build(&self, controllers: usize) -> NamedTopology {
        match self {
            TopologySpec::Named(name) => builders::by_name(name, controllers),
            TopologySpec::Custom(topology) => (**topology).clone(),
        }
    }
}

/// Factory producing a fresh workload instance for each seeded run.
///
/// `Send + Sync` so a scenario can be shared across the parallel runner's worker
/// threads; the produced [`Workload`] itself is created, driven, and dropped entirely
/// inside one worker, so it needs no bounds of its own.
pub type WorkloadFactory = Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>;

/// An end-of-run summary statistic: a pure function of the final network state.
pub type SummaryFn = fn(&SdnNetwork) -> f64;

/// A fully described experiment, ready to [`run`](Scenario::run).
///
/// Built with [`Scenario::builder`]; executed by a [`ScenarioRunner`].
pub struct Scenario {
    pub(crate) name: String,
    pub(crate) topology: TopologySpec,
    pub(crate) controllers: usize,
    pub(crate) controller_config: Option<ControllerConfig>,
    pub(crate) tune: Option<fn(ControllerConfig) -> ControllerConfig>,
    pub(crate) harness: HarnessConfig,
    pub(crate) schedule: FaultSchedule,
    pub(crate) probes: Vec<Probe>,
    pub(crate) sample_every: SimDuration,
    pub(crate) workloads: Vec<WorkloadFactory>,
    pub(crate) summaries: Vec<(MetricKey, SummaryFn)>,
    pub(crate) runs: usize,
    pub(crate) seed_base: Option<u64>,
    pub(crate) threads: Option<usize>,
    pub(crate) timeout: SimDuration,
    pub(crate) check_every: SimDuration,
    pub(crate) control_plane: ControlPlane,
}

impl Scenario {
    /// Starts building a scenario with the given display name.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            topology: None,
            controllers: 3,
            controller_config: None,
            tune: None,
            harness: HarnessConfig::default(),
            schedule: FaultSchedule::new(),
            probes: Vec::new(),
            sample_every: SimDuration::from_secs(1),
            workloads: Vec::new(),
            summaries: Vec::new(),
            runs: 1,
            seed_base: None,
            threads: None,
            // Generous: the paper's slowest bootstrap is ~2 minutes.
            timeout: SimDuration::from_secs(1_200),
            // Legitimacy is probed at this period; it is also the measurement resolution.
            check_every: SimDuration::from_millis(250),
            control_plane: ControlPlane::Live,
        }
    }

    /// This scenario's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base seed of the first run; run `i` uses `base + i`.
    pub fn base_seed(&self) -> u64 {
        self.seed_base.unwrap_or(self.harness.seed)
    }

    /// Executes the scenario over all its seeds and aggregates the reports.
    pub fn run(&self) -> ScenarioReport {
        ScenarioRunner::new(self).run()
    }
}

/// Fluent builder for [`Scenario`]s — the entry point of the declarative API.
pub struct ScenarioBuilder {
    name: String,
    topology: Option<TopologySpec>,
    controllers: usize,
    controller_config: Option<ControllerConfig>,
    tune: Option<fn(ControllerConfig) -> ControllerConfig>,
    harness: HarnessConfig,
    schedule: FaultSchedule,
    probes: Vec<Probe>,
    sample_every: SimDuration,
    workloads: Vec<WorkloadFactory>,
    summaries: Vec<(MetricKey, SummaryFn)>,
    runs: usize,
    seed_base: Option<u64>,
    threads: Option<usize>,
    timeout: SimDuration,
    check_every: SimDuration,
    control_plane: ControlPlane,
}

impl ScenarioBuilder {
    /// Runs on one of the paper's networks by name (`"B4"`, `"Clos"`, `"Telstra"`,
    /// `"AT&T"`, `"EBONE"`), built fresh for each run with
    /// [`controllers`](Self::controllers) controllers.
    pub fn network(mut self, name: impl Into<String>) -> Self {
        self.topology = Some(TopologySpec::Named(name.into()));
        self
    }

    /// Runs on an explicit topology (cloned per run). The controller count is taken
    /// from the topology itself.
    pub fn topology(mut self, topology: NamedTopology) -> Self {
        self.controllers = topology.controller_count();
        self.topology = Some(TopologySpec::Custom(Box::new(topology)));
        self
    }

    /// Number of controllers to attach when building a named network (default 3).
    pub fn controllers(mut self, controllers: usize) -> Self {
        self.controllers = controllers;
        self
    }

    /// Replaces the derived [`ControllerConfig`] wholesale. Without this, each run uses
    /// [`ControllerConfig::for_network`] for its topology.
    pub fn controller_config(mut self, config: ControllerConfig) -> Self {
        self.controller_config = Some(config);
        self
    }

    /// Applies a transformation to the (derived or explicit) controller configuration,
    /// e.g. `ControllerConfig::non_adaptive`. A plain function pointer keeps the
    /// scenario reusable across runs.
    pub fn tune_controllers(mut self, tune: fn(ControllerConfig) -> ControllerConfig) -> Self {
        self.tune = Some(tune);
        self
    }

    /// Replaces the harness configuration (task delay, detection delay, packet TTL).
    /// The per-run seed still comes from [`runs`](Self::runs)/[`seeds_from`](Self::seeds_from).
    pub fn harness_config(mut self, config: HarnessConfig) -> Self {
        self.harness = config;
        self
    }

    /// Overrides the controller task delay (the paper's 500 ms default, Figure 7's
    /// sweep parameter).
    pub fn task_delay(mut self, delay: SimDuration) -> Self {
        self.harness = self.harness.with_task_delay(delay);
        self
    }

    /// Adds a fault event at `offset` after the bootstrap instant. Events at equal
    /// offsets form one batch with a single recovery measurement.
    pub fn fault_at(mut self, offset: SimDuration, event: FaultEvent) -> Self {
        self.schedule = self.schedule.at(offset, event);
        self
    }

    /// Replaces the whole fault schedule.
    pub fn schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Attaches a probe, sampled every [`sample_probes_every`](Self::sample_probes_every).
    pub fn probe(mut self, probe: Probe) -> Self {
        self.probes.push(probe);
        self
    }

    /// Probe sampling period (default: one simulated second).
    pub fn sample_probes_every(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "probe sampling period must be non-zero");
        self.sample_every = period;
        self
    }

    /// Attaches a workload; the factory builds a fresh instance per run. The factory
    /// must be `Send + Sync` so the parallel runner can invoke it from any worker
    /// thread; the workload instance itself stays on the worker that created it.
    pub fn workload(
        mut self,
        factory: impl Fn() -> Box<dyn Workload> + Send + Sync + 'static,
    ) -> Self {
        self.workloads.push(Box::new(factory));
        self
    }

    /// Registers an end-of-run summary statistic under a typed [`MetricKey`],
    /// evaluated once per run when the run finishes.
    pub fn summary(mut self, key: MetricKey, f: fn(&SdnNetwork) -> f64) -> Self {
        self.summaries.push((key, f));
        self
    }

    /// Number of seeded repetitions (default 1). Run `i` uses seed `base + i`.
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs.max(1);
        self
    }

    /// Base seed for the repetitions (default: the harness configuration's seed).
    pub fn seeds_from(mut self, base: u64) -> Self {
        self.seed_base = Some(base);
        self
    }

    /// Number of worker threads the runner fans the seeded repetitions out over
    /// (clamped to at least 1). Without an explicit value the runner uses
    /// [`std::thread::available_parallelism`]. The aggregated [`ScenarioReport`] is
    /// bit-identical regardless of the thread count: every seeded run is fully
    /// self-contained and reports are merged back in seed order.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Convergence timeout applied to the bootstrap and to each recovery wait
    /// (default 1200 simulated seconds — the paper's slowest bootstrap is ~2 minutes).
    pub fn timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Legitimacy probing period — also the measurement resolution (default 250 ms).
    pub fn check_every(mut self, period: SimDuration) -> Self {
        assert!(
            !period.is_zero(),
            "legitimacy check period must be non-zero"
        );
        self.check_every = period;
        self
    }

    /// Selects whether controllers keep running during workloads (default
    /// [`ControlPlane::Live`]).
    pub fn control_plane(mut self, mode: ControlPlane) -> Self {
        self.control_plane = mode;
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Panics
    ///
    /// Panics if no topology was specified via [`network`](Self::network) or
    /// [`topology`](Self::topology), or if a scheduled event fails
    /// [`FaultEvent::validate`] (see [`FaultSchedule::validate`]).
    pub fn build(self) -> Scenario {
        let topology = self
            .topology
            // stancheck: allow(unwrap-expect) — documented builder contract (see `# Panics`): a scenario without a topology is a programming error, and the fluent builder API has no Result channel
            .expect("Scenario requires a topology: call .network(name) or .topology(t)");
        if let Err(error) = self.schedule.validate() {
            panic!("invalid fault schedule: {error}");
        }
        Scenario {
            name: self.name,
            topology,
            controllers: self.controllers,
            controller_config: self.controller_config,
            tune: self.tune,
            harness: self.harness,
            schedule: self.schedule,
            probes: self.probes,
            sample_every: self.sample_every,
            workloads: self.workloads,
            summaries: self.summaries,
            runs: self.runs,
            seed_base: self.seed_base,
            threads: self.threads,
            timeout: self.timeout,
            check_every: self.check_every,
            control_plane: self.control_plane,
        }
    }

    /// Builds and immediately executes the scenario.
    pub fn run(self) -> ScenarioReport {
        self.build().run()
    }
}
