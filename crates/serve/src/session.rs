//! The deterministic session core: a simulated SDN advanced tick by tick.
//!
//! A [`Session`] owns the [`SdnNetwork`], the attached flow workloads, and a bounded
//! ring of probe samples. It exposes exactly two mutations — [`Session::step`] (one
//! simulated tick) and [`Session::apply`] (one [`Command`]) — and everything it
//! computes derives from simulated state alone. No wall clock, no thread identity,
//! no host entropy reaches this module (the `sdn-stancheck` scope rule enforces
//! that statically), which is why a live interactive session and a single-threaded
//! replay of its command log produce bit-identical final reports.
//!
//! Faults are a thin boundary over the scenario fault engine: a [`FaultSpec`] is
//! validated against the live network (it is input from outside the program),
//! lowered to [`FaultEvent`]s naming concrete victims, and executed by the
//! session's one [`FaultContext`] — at once, or from the pending queue when the
//! phase's tick arrives. This module never mutates the network's nodes or links
//! itself.

use crate::command::{Command, FaultSpec, FlowsSpec};
use renaissance::scenario::{
    ControllerSelector, DegradeSpec, FaultContext, FaultEvent, LinkSelector, PartitionSpec,
    SwitchSelector, Workload, WorkloadReport, WorkloadTick,
};
use renaissance::{ControllerConfig, HarnessConfig, SdnNetwork};
use sdn_metrics::json::Json;
use sdn_metrics::{RingPage, RingSink};
use sdn_netsim::{BurstLoss, SimDuration};
use sdn_topology::{builders, NodeId};
use sdn_traffic::{Arrival, FlowEngineWorkload, FlowMix, FlowSetConfig, TrafficMatrix};
use std::collections::BTreeMap;
use std::fmt;

/// Everything needed to rebuild a session from scratch — the command log's header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// Topology name understood by [`builders::by_name`] (`fat_tree(8)`, `B4`, ...).
    pub topology: String,
    /// Number of controllers.
    pub controllers: usize,
    /// Harness seed; every random draw in the session derives from it.
    pub seed: u64,
    /// Simulated milliseconds one tick advances the network by.
    pub tick_millis: u64,
    /// Probe samples retained by the telemetry ring.
    pub ring_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            topology: "fat_tree(4)".to_string(),
            controllers: 2,
            seed: 7,
            tick_millis: 1000,
            ring_capacity: 4096,
        }
    }
}

/// Why a serialized [`SessionConfig`] was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `topology` is missing or not a string.
    MissingTopology,
    /// `topology` names nothing [`builders::try_by_name`] accepts.
    UnknownTopology(String),
    /// The named member is missing or not a non-negative integer.
    NotACount(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MissingTopology => f.write_str("config needs a `topology` name"),
            ConfigError::UnknownTopology(name) => write!(f, "unknown topology `{name}`"),
            ConfigError::NotACount(key) => write!(f, "config needs a non-negative integer `{key}`"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl SessionConfig {
    /// Serializes to the command-log header object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("topology", Json::str(self.topology.as_str())),
            ("controllers", Json::num(self.controllers as f64)),
            ("seed", Json::num(self.seed as f64)),
            ("tick_millis", Json::num(self.tick_millis as f64)),
            ("ring_capacity", Json::num(self.ring_capacity as f64)),
        ])
    }

    /// Parses the command-log header object. A config this returns boots:
    /// [`Session::new`] accepts its topology name.
    pub fn from_json(json: &Json) -> Result<SessionConfig, ConfigError> {
        let topology = json
            .get("topology")
            .and_then(Json::as_str)
            .ok_or(ConfigError::MissingTopology)?
            .to_string();
        let int = |key: &'static str| -> Result<u64, ConfigError> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or(ConfigError::NotACount(key))
        };
        let config = SessionConfig {
            topology,
            controllers: int("controllers")? as usize,
            seed: int("seed")?,
            tick_millis: int("tick_millis")?.max(1),
            ring_capacity: int("ring_capacity")? as usize,
        };
        if builders::try_by_name(&config.topology, config.controllers).is_none() {
            return Err(ConfigError::UnknownTopology(config.topology));
        }
        Ok(config)
    }
}

/// One attached flow workload, advanced a service tick per session tick.
struct FlowSlot {
    /// Stable attachment label (`flows-<n>`), carried into the finished report.
    label: String,
    workload: FlowEngineWorkload,
    ticks_done: u32,
    duration: u32,
}

/// A validated [`FaultSpec`], lowered to the fault engine's events.
enum Lowered {
    /// One event to execute at the current tick boundary.
    Now(FaultEvent),
    /// The phases of a compound fault, each stamped with the tick it fires at.
    Later(Vec<(u64, FaultEvent)>),
}

/// A long-running simulated SDN session. See the module docs for the contract.
pub struct Session {
    config: SessionConfig,
    net: SdnNetwork,
    flows: Vec<FlowSlot>,
    finished_flows: Vec<WorkloadReport>,
    flows_attached: u64,
    samples: RingSink,
    tick: u64,
    commands_applied: u64,
    /// The scenario fault engine: the only path a fault takes to the network. It
    /// also keeps the cut set of the partition in force.
    faults: FaultContext,
    /// Later phases of accepted faults (flap half-cycles, rolling fail/revive
    /// pairs), keyed by the absolute tick they fire at; a `BTreeMap` keeps the
    /// draining order deterministic.
    pending: BTreeMap<u64, Vec<FaultEvent>>,
}

impl Session {
    /// Boots a session: builds the named topology, wires the SDN, and records the
    /// tick-0 probe sample.
    ///
    /// # Panics
    ///
    /// Panics when `config.topology` is not a name [`builders::by_name`] accepts.
    pub fn new(config: SessionConfig) -> Self {
        let topology = builders::by_name(&config.topology, config.controllers);
        let n_switches = topology.switch_count();
        let net = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(config.controllers, n_switches),
            HarnessConfig::default().with_seed(config.seed),
        );
        let samples = RingSink::new(config.ring_capacity.max(1));
        let faults = FaultContext::new(config.seed);
        let mut session = Session {
            config,
            net,
            flows: Vec::new(),
            finished_flows: Vec::new(),
            flows_attached: 0,
            samples,
            tick: 0,
            commands_applied: 0,
            faults,
            pending: BTreeMap::new(),
        };
        session.record_sample();
        session
    }

    /// The configuration the session was booted from.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Ticks executed so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Current simulated time in seconds.
    pub fn sim_secs(&self) -> f64 {
        self.net.now().as_secs_f64()
    }

    /// The telemetry ring backing `/log` and `/stream`.
    pub fn samples(&self) -> &RingSink {
        &self.samples
    }

    /// The newest probe sample, if any.
    pub fn last_sample(&self) -> Option<(u64, String)> {
        let next = self.samples.next_seq();
        self.samples
            .page(next.saturating_sub(1), 1)
            .lines
            .into_iter()
            .next()
    }

    /// Advances the session by one tick: fires any fault phases pending for this
    /// tick, runs the simulator for the configured slice, drives every attached
    /// flow workload one service tick, retires workloads whose window ended, and
    /// records a probe sample.
    pub fn step(&mut self) {
        self.tick += 1;
        for event in self.pending.remove(&self.tick).unwrap_or_default() {
            self.faults.apply(&mut self.net, &event);
        }
        self.net
            .run_for(SimDuration::from_millis(self.config.tick_millis));
        for slot in &mut self.flows {
            slot.ticks_done += 1;
            let tick = WorkloadTick {
                index: slot.ticks_done,
                elapsed: SimDuration::from_secs(u64::from(slot.ticks_done)),
            };
            slot.workload.tick(&mut self.net, tick);
        }
        while let Some(pos) = self.flows.iter().position(|s| s.ticks_done >= s.duration) {
            let mut slot = self.flows.remove(pos);
            let mut report = slot.workload.finish(&mut self.net);
            report.push_note("attached_as", slot.label.clone());
            report.push_note("finished_at_tick", self.tick.to_string());
            self.finished_flows.push(report);
        }
        self.record_sample();
    }

    /// Applies one command at the current tick boundary and returns its outcome
    /// object. Control commands (`step`/`run`/`pause`/`shutdown`) do not touch
    /// simulated state here — the driver (or replay's tick stamps) realizes their
    /// effect — but they still count toward `commands_applied` so live and replayed
    /// reports agree.
    pub fn apply(&mut self, cmd: &Command) -> Json {
        self.commands_applied += 1;
        match cmd {
            Command::Fault(spec) => self.apply_fault(spec),
            Command::Flows(spec) => self.attach_flows(*spec),
            Command::Step { .. } | Command::Run { .. } | Command::Pause | Command::Shutdown => {
                Json::obj([("ok", Json::Bool(true))])
            }
        }
    }

    /// Validates and lowers `spec`, executes what is due now through the fault
    /// engine and queues the rest. A fault the engine reports as having changed
    /// nothing (an absent link, no override to clear, a partition that cuts no
    /// link, a heal with none in force) is a conflict, like a victim that does not
    /// exist.
    fn apply_fault(&mut self, spec: &FaultSpec) -> Json {
        let outcome = self.lower(spec).and_then(|lowered| match lowered {
            Lowered::Now(event) => {
                let done = self.faults.apply(&mut self.net, &event);
                if done.is_empty() {
                    Err(format!("fault `{}` found nothing to change", spec.kind()))
                } else {
                    Ok(done.join("; "))
                }
            }
            Lowered::Later(phases) => {
                let detail = format!("{} phases queued", phases.len());
                for (tick, event) in phases {
                    self.pending.entry(tick).or_default().push(event);
                }
                Ok(detail)
            }
        });
        match outcome {
            Ok(detail) => Json::obj([
                ("ok", Json::Bool(true)),
                ("applied", spec.to_json()),
                ("detail", Json::str(detail)),
            ]),
            Err(error) => Json::obj([("ok", Json::Bool(false)), ("error", Json::str(error))]),
        }
    }

    /// Checks `spec`'s victims against the live network and translates it into
    /// fault-engine events: concrete-victim selectors only, so a logged command
    /// means the same nodes and links on every replay. Compound faults start on
    /// the next tick.
    fn lower(&self, spec: &FaultSpec) -> Result<Lowered, String> {
        let between = |(a, b)| LinkSelector::Between(a, b);
        let start = self.tick + 1;
        let event = match spec {
            FaultSpec::FailController(n) => {
                FaultEvent::FailController(ControllerSelector::Id(self.controller(*n)?))
            }
            FaultSpec::ReviveController(n) => FaultEvent::ReviveController(self.controller(*n)?),
            FaultSpec::FailSwitch(n) => {
                FaultEvent::FailSwitch(SwitchSelector::Id(self.switch(*n)?))
            }
            FaultSpec::ReviveSwitch(n) => FaultEvent::ReviveSwitch(self.switch(*n)?),
            FaultSpec::FailLink(a, b) => FaultEvent::FailLink(between(self.endpoints(*a, *b)?)),
            FaultSpec::RestoreLink(a, b) => {
                let (a, b) = self.endpoints(*a, *b)?;
                FaultEvent::RestoreLink(a, b)
            }
            FaultSpec::RemoveLink(a, b) => FaultEvent::RemoveLink(between(self.endpoints(*a, *b)?)),
            FaultSpec::AddLink(a, b) if a == b => return Err("cannot add a self-loop".to_string()),
            FaultSpec::AddLink(a, b) => FaultEvent::AddLink(NodeId::new(*a), NodeId::new(*b)),
            FaultSpec::DegradeLink {
                a,
                b,
                loss,
                burst,
                asymmetric,
            } => {
                let degrade = DegradeSpec {
                    loss: *loss,
                    burst: burst
                        .map(|(enter, exit, loss_bad)| BurstLoss::gilbert(enter, exit, loss_bad)),
                    asymmetric: *asymmetric,
                };
                FaultEvent::DegradeLink(between(self.link(*a, *b)?), degrade)
            }
            FaultSpec::RestoreLinkQuality(a, b) => {
                FaultEvent::RestoreLinkQuality(between(self.link(*a, *b)?))
            }
            FaultSpec::Partition { groups } => FaultEvent::Partition {
                groups: PartitionSpec::Groups(self.groups(groups)?),
                heal_after: None,
            },
            FaultSpec::HealPartition => FaultEvent::HealPartition,
            FaultSpec::FlapLink {
                a,
                b,
                period_ticks,
                count,
            } => {
                let (a, b) = self.link(*a, *b)?;
                if *period_ticks < 2 || *count == 0 {
                    return Err("flap needs period_ticks >= 2 and a positive count".to_string());
                }
                let (period, down_for) = (u64::from(*period_ticks), u64::from(*period_ticks / 2));
                let phases = (0..u64::from(*count)).flat_map(|cycle| {
                    let down_at = start + cycle * period;
                    [
                        (down_at, FaultEvent::FailLink(between((a, b)))),
                        (down_at + down_for, FaultEvent::RestoreLink(a, b)),
                    ]
                });
                return Ok(Lowered::Later(phases.collect()));
            }
            FaultSpec::RollingRestart {
                interval_ticks,
                down_ticks,
                count,
            } => {
                let (interval, down_for) = (u64::from(*interval_ticks), u64::from(*down_ticks));
                let controllers = self.net.controller_ids().len();
                if *count == 0 || down_for == 0 || interval <= down_for {
                    return Err("rolling restart needs count >= 1 and down_ticks in \
                                [1, interval_ticks)"
                        .to_string());
                }
                if controllers < *count as usize {
                    return Err(format!(
                        "rolling restart of {count} controllers but only {controllers} exist"
                    ));
                }
                let phases = (0..*count as usize).flat_map(|i| {
                    let down_at = start + i as u64 * interval;
                    let fail = FaultEvent::FailController(ControllerSelector::Index(i));
                    let revive = FaultEvent::ReviveControllerIndex(i);
                    [(down_at, fail), (down_at + down_for, revive)]
                });
                return Ok(Lowered::Later(phases.collect()));
            }
        };
        Ok(Lowered::Now(event))
    }

    fn controller(&self, n: u32) -> Result<NodeId, String> {
        let id = NodeId::new(n);
        let known = self.net.controller_ids().contains(&id);
        known
            .then_some(id)
            .ok_or_else(|| format!("no controller with index {n}"))
    }

    fn switch(&self, n: u32) -> Result<NodeId, String> {
        let id = NodeId::new(n);
        let known = self.net.switch_ids().contains(&id);
        known
            .then_some(id)
            .ok_or_else(|| format!("no switch with index {n}"))
    }

    /// Two known nodes; whether a link joins them is the fault engine's business.
    fn endpoints(&self, a: u32, b: u32) -> Result<(NodeId, NodeId), String> {
        let ids = (NodeId::new(a), NodeId::new(b));
        let graph = self.net.sim().topology();
        let known = graph.contains_node(ids.0) && graph.contains_node(ids.1);
        known
            .then_some(ids)
            .ok_or_else(|| format!("link {a}-{b}: unknown endpoint"))
    }

    /// Like [`Session::endpoints`], but also requires the link to currently exist
    /// in `Gc` — quality overrides and flaps on a never-built link would be silent
    /// no-ops, so they are rejected up front instead.
    fn link(&self, a: u32, b: u32) -> Result<(NodeId, NodeId), String> {
        let ids = self.endpoints(a, b)?;
        let present = self.net.sim().topology().has_link(ids.0, ids.1);
        present
            .then_some(ids)
            .ok_or_else(|| format!("link {a}-{b} not present"))
    }

    /// The groups of a partition request as node ids: at least two groups of known
    /// nodes, and only while no other partition is in force.
    fn groups(&self, groups: &[Vec<u32>]) -> Result<Vec<Vec<NodeId>>, String> {
        if !self.faults.partitioned_links.is_empty() {
            return Err("a partition is already in force (heal it first)".to_string());
        }
        if groups.len() < 2 {
            return Err("a partition needs at least two groups".to_string());
        }
        let graph = self.net.sim().topology();
        let node = |n: &u32| {
            let id = NodeId::new(*n);
            let known = graph.contains_node(id);
            known
                .then_some(id)
                .ok_or_else(|| format!("partition: unknown node {n}"))
        };
        groups
            .iter()
            .map(|group| group.iter().map(node).collect())
            .collect()
    }

    fn attach_flows(&mut self, spec: FlowsSpec) -> Json {
        let label = format!("flows-{}", self.flows_attached);
        let arrival = match spec.rate_per_tick {
            Some(rate_per_tick) => Arrival::Poisson { rate_per_tick },
            None => Arrival::UpFront,
        };
        let config = FlowSetConfig {
            matrix: if spec.permutation {
                TrafficMatrix::Permutation
            } else {
                TrafficMatrix::Uniform
            },
            mix: FlowMix::datacenter(),
            arrival,
            pairs: spec.pairs,
            fan_out: None,
        };
        let mut workload = FlowEngineWorkload::new(config, spec.duration_ticks);
        // Decorrelate repeated attachments by default; an explicit salt wins.
        let salt = spec
            .seed_salt
            .unwrap_or(0x666c_6f77 ^ self.flows_attached.rotate_left(17));
        workload = workload.with_seed_salt(salt);
        workload.start(&mut self.net);
        self.flows_attached += 1;
        self.flows.push(FlowSlot {
            label: label.clone(),
            workload,
            ticks_done: 0,
            duration: spec.duration_ticks.max(1),
        });
        Json::obj([
            ("ok", Json::Bool(true)),
            ("attached_as", Json::str(label)),
            ("flows", Json::num(config_flow_count(&spec) as f64)),
        ])
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// The current communication graph `Gc`: node sets and links.
    pub fn topology_json(&self) -> Json {
        let topo = self.net.topology();
        let graph = self.net.sim().topology();
        let ids = |nodes: &[NodeId]| {
            Json::arr(
                nodes
                    .iter()
                    .map(|n| Json::num(f64::from(n.index())))
                    .collect::<Vec<_>>(),
            )
        };
        let links = graph
            .links()
            .map(|l| {
                Json::arr([
                    Json::num(f64::from(l.a.index())),
                    Json::num(f64::from(l.b.index())),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("name", Json::str(topo.name.as_str())),
            ("controllers", ids(&topo.controllers)),
            ("switches", ids(&topo.switches)),
            ("links", Json::Arr(links)),
            (
                "generation",
                Json::num(self.net.sim().topology_generation() as f64),
            ),
            (
                "expected_diameter",
                Json::num(f64::from(topo.expected_diameter)),
            ),
        ])
    }

    /// One node's state, or `None` when the index names no node.
    pub fn node_json(&self, index: u32) -> Option<Json> {
        let id = NodeId::new(index);
        let topo = self.net.topology();
        let live = !self.net.sim().is_node_failed(id);
        let degree = self.net.sim().operational_graph().degree(id);
        if let Some(controller) = self.net.controller(id) {
            return Some(Json::obj([
                ("id", Json::num(f64::from(index))),
                ("kind", Json::str("controller")),
                ("live", Json::Bool(live)),
                ("degree", Json::num(degree as f64)),
                ("c_resets", Json::num(controller.c_resets() as f64)),
                (
                    "state_version",
                    Json::num(controller.state_version() as f64),
                ),
            ]));
        }
        if let Some(switch) = self.net.switch(id) {
            return Some(Json::obj([
                ("id", Json::num(f64::from(index))),
                ("kind", Json::str("switch")),
                ("live", Json::Bool(live)),
                ("degree", Json::num(degree as f64)),
                ("rules", Json::num(switch.rules().len() as f64)),
            ]));
        }
        // A failed node's state machine may be unreachable; report what the
        // topology still knows.
        if topo.controllers.contains(&id) || topo.switches.contains(&id) {
            return Some(Json::obj([
                ("id", Json::num(f64::from(index))),
                (
                    "kind",
                    Json::str(if topo.controllers.contains(&id) {
                        "controller"
                    } else {
                        "switch"
                    }),
                ),
                ("live", Json::Bool(live)),
                ("degree", Json::num(degree as f64)),
            ]));
        }
        None
    }

    /// The legitimacy verdict (paper, Definition 1) with every violated condition.
    pub fn legitimacy_json(&self) -> Json {
        let report = self.net.legitimacy_report();
        Json::obj([
            ("legitimate", Json::Bool(report.is_legitimate())),
            (
                "issues",
                Json::arr(
                    report
                        .issues
                        .iter()
                        .map(|i| Json::str(i.as_str()))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }

    /// Counters of the session so far: tick, simulated time, control-plane message
    /// totals, rule footprint, workload and sample accounting.
    pub fn metrics_json(&self) -> Json {
        let metrics = self.net.metrics();
        Json::obj([
            ("tick", Json::num(self.tick as f64)),
            ("sim_s", Json::num(self.sim_secs())),
            (
                "events",
                Json::num(self.net.sim().events_processed() as f64),
            ),
            ("msgs_sent", Json::num(metrics.total_sent() as f64)),
            ("msgs_received", Json::num(metrics.total_received() as f64)),
            ("bytes_sent", Json::num(metrics.total_bytes_sent() as f64)),
            ("rules_total", Json::num(self.net.total_rules() as f64)),
            (
                "rules_max_per_switch",
                Json::num(self.net.max_rules_per_switch() as f64),
            ),
            ("flow_workloads", Json::num(self.flows.len() as f64)),
            ("flow_reports", Json::num(self.finished_flows.len() as f64)),
            ("commands", Json::num(self.commands_applied as f64)),
            ("samples_dropped", Json::num(self.samples.dropped() as f64)),
            (
                "pending_faults",
                Json::num(self.pending.values().map(Vec::len).sum::<usize>() as f64),
            ),
            (
                "partitioned_links",
                Json::num(self.faults.partitioned_links.len() as f64),
            ),
            (
                "link_config_warnings",
                Json::num(self.net.link_config_warnings() as f64),
            ),
        ])
    }

    /// A page of the telemetry ring: retained probe samples with sequence `>= from`.
    pub fn log_json(&self, from: u64, limit: usize) -> Json {
        let page = self.samples.page(from, limit);
        page_json(&page)
    }

    /// The canonical end-of-session report — the artifact the replay test compares
    /// byte for byte. Everything here derives from simulated state only.
    pub fn final_report(&self) -> Json {
        let flow_reports = self
            .finished_flows
            .iter()
            .map(workload_report_json)
            .collect::<Vec<_>>();
        Json::obj([
            ("config", self.config.to_json()),
            ("final_tick", Json::num(self.tick as f64)),
            ("sim_s", Json::num(self.sim_secs())),
            ("legitimacy", self.legitimacy_json()),
            ("metrics", self.metrics_json()),
            ("flow_reports", Json::Arr(flow_reports)),
            (
                "samples",
                Json::obj([
                    ("pushed", Json::num(self.samples.next_seq() as f64)),
                    ("dropped", Json::num(self.samples.dropped() as f64)),
                ]),
            ),
        ])
    }

    fn record_sample(&mut self) {
        let metrics = self.net.metrics();
        let report = self.net.legitimacy_report();
        let line = Json::obj([
            ("tick", Json::num(self.tick as f64)),
            ("sim_s", Json::num(self.sim_secs())),
            ("legitimate", Json::Bool(report.is_legitimate())),
            ("issues", Json::num(report.issues.len() as f64)),
            (
                "events",
                Json::num(self.net.sim().events_processed() as f64),
            ),
            ("msgs_sent", Json::num(metrics.total_sent() as f64)),
            ("rules_total", Json::num(self.net.total_rules() as f64)),
            ("flow_workloads", Json::num(self.flows.len() as f64)),
        ])
        .to_string();
        self.samples.push_line(line);
    }
}

/// Total flows a [`FlowsSpec`] expands to (no fan-out on this surface).
fn config_flow_count(spec: &FlowsSpec) -> u64 {
    u64::from(spec.pairs)
}

/// Renders a [`RingPage`] as the `/log` response object; samples are re-embedded as
/// JSON values (they were emitted by this crate, so parsing cannot fail in practice,
/// but a raw string fallback keeps the endpoint total).
pub fn page_json(page: &RingPage) -> Json {
    let lines = page
        .lines
        .iter()
        .map(|(seq, line)| {
            let sample = Json::parse(line).unwrap_or_else(|_| Json::str(line.as_str()));
            Json::obj([("seq", Json::num(*seq as f64)), ("sample", sample)])
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("lines", Json::Arr(lines)),
        (
            "first_seq",
            match page.first_seq {
                Some(seq) => Json::num(seq as f64),
                None => Json::Null,
            },
        ),
        ("next", Json::num(page.next as f64)),
        ("dropped", Json::num(page.dropped as f64)),
    ])
}

/// Serializes one finished workload report: notes, per-tick series, digest summaries.
fn workload_report_json(report: &WorkloadReport) -> Json {
    let notes = report
        .notes
        .iter()
        .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
        .collect::<Vec<_>>();
    let series = report
        .series
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                Json::arr(s.values.iter().map(|v| Json::num(*v)).collect::<Vec<_>>()),
            )
        })
        .collect::<Vec<_>>();
    let digests = report
        .digests
        .iter()
        .map(|(name, d)| {
            (
                name.clone(),
                Json::obj([
                    ("n", Json::num(d.len() as f64)),
                    ("mean", Json::num(d.mean())),
                    ("min", Json::num(d.min())),
                    ("p50", Json::num(d.p50())),
                    ("p90", Json::num(d.p90())),
                    ("p99", Json::num(d.p99())),
                    ("max", Json::num(d.max())),
                ]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("label", Json::str(report.label.as_str())),
        ("notes", Json::Obj(notes)),
        ("series", Json::Obj(series)),
        ("digests", Json::Obj(digests)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SessionConfig {
        SessionConfig {
            topology: "grid(2,3)".to_string(),
            controllers: 2,
            seed: 11,
            tick_millis: 500,
            ring_capacity: 64,
        }
    }

    #[test]
    fn session_config_round_trips() {
        let config = tiny();
        let wire = config.to_json().to_string();
        let back = SessionConfig::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn session_config_refuses_what_would_not_boot() {
        let parse = |wire: &str| SessionConfig::from_json(&Json::parse(wire).unwrap());
        let wire = tiny().to_json().to_string();
        assert_eq!(
            parse(&wire.replace("grid(2,3)", "arpanet")),
            Err(ConfigError::UnknownTopology("arpanet".to_string()))
        );
        assert_eq!(
            parse(&wire.replace("\"tick_millis\":500", "\"tick_millis\":0.5")),
            Err(ConfigError::NotACount("tick_millis"))
        );
        assert_eq!(
            parse(&wire.replace("\"ring_capacity\":64", "\"ring_capacity\":\"64\"")),
            Err(ConfigError::NotACount("ring_capacity"))
        );
        assert_eq!(parse("{}"), Err(ConfigError::MissingTopology));
    }

    #[test]
    fn stepping_twice_from_the_same_config_is_bit_identical() {
        let run = || {
            let mut s = Session::new(tiny());
            for _ in 0..20 {
                s.step();
            }
            s.apply(&Command::Fault(FaultSpec::FailLink(3, 4)));
            for _ in 0..20 {
                s.step();
            }
            s.final_report().to_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_outcomes_validate_their_victims() {
        let mut s = Session::new(tiny());
        let bad = s.apply(&Command::Fault(FaultSpec::FailSwitch(99)));
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        let good = s.apply(&Command::Fault(FaultSpec::FailSwitch(3)));
        assert_eq!(good.get("ok").and_then(Json::as_bool), Some(true));
        // Commands counted either way: outcomes are part of session history.
        assert_eq!(
            s.metrics_json().get("commands").and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn gray_faults_validate_and_apply() {
        let mut s = Session::new(tiny());
        for _ in 0..10 {
            s.step();
        }
        let ok = |outcome: &Json| outcome.get("ok").and_then(Json::as_bool);
        let degraded = s.apply(&Command::Fault(FaultSpec::DegradeLink {
            a: 3,
            b: 4,
            loss: 0.25,
            burst: None,
            asymmetric: false,
        }));
        assert_eq!(ok(&degraded), Some(true), "{degraded}");
        let restored = s.apply(&Command::Fault(FaultSpec::RestoreLinkQuality(3, 4)));
        assert_eq!(ok(&restored), Some(true), "{restored}");
        // Restoring again reports there is nothing left to restore.
        let nothing = s.apply(&Command::Fault(FaultSpec::RestoreLinkQuality(3, 4)));
        assert_eq!(ok(&nothing), Some(false), "{nothing}");
        // Degrading a pair that is not a link is rejected up front, not silently
        // swallowed by the simulator's warning counter.
        let no_link = s.apply(&Command::Fault(FaultSpec::DegradeLink {
            a: 2,
            b: 7,
            loss: 0.5,
            burst: None,
            asymmetric: false,
        }));
        assert_eq!(ok(&no_link), Some(false), "{no_link}");
    }

    #[test]
    fn partitions_cut_heal_and_refuse_double_cuts() {
        let mut s = Session::new(tiny());
        for _ in 0..10 {
            s.step();
        }
        let ok = |outcome: &Json| outcome.get("ok").and_then(Json::as_bool);
        let partitioned = |s: &Session| {
            s.metrics_json()
                .get("partitioned_links")
                .and_then(Json::as_f64)
        };
        // grid(2,3): splitting along the rows cuts the three vertical links.
        let groups = vec![vec![0, 2, 3, 4], vec![1, 5, 6, 7]];
        let cut = s.apply(&Command::Fault(FaultSpec::Partition {
            groups: groups.clone(),
        }));
        assert_eq!(ok(&cut), Some(true), "{cut}");
        assert_eq!(partitioned(&s), Some(3.0));
        let double = s.apply(&Command::Fault(FaultSpec::Partition { groups }));
        assert_eq!(ok(&double), Some(false), "{double}");
        let healed = s.apply(&Command::Fault(FaultSpec::HealPartition));
        assert_eq!(ok(&healed), Some(true), "{healed}");
        assert_eq!(partitioned(&s), Some(0.0));
        let nothing = s.apply(&Command::Fault(FaultSpec::HealPartition));
        assert_eq!(ok(&nothing), Some(false), "{nothing}");
    }

    #[test]
    fn flaps_and_rolling_restarts_fire_on_schedule() {
        let mut s = Session::new(tiny());
        let ok = |outcome: &Json| outcome.get("ok").and_then(Json::as_bool);
        let pending = |s: &Session| {
            s.metrics_json()
                .get("pending_faults")
                .and_then(Json::as_f64)
        };
        let flap = s.apply(&Command::Fault(FaultSpec::FlapLink {
            a: 3,
            b: 4,
            period_ticks: 4,
            count: 2,
        }));
        assert_eq!(ok(&flap), Some(true), "{flap}");
        assert_eq!(pending(&s), Some(4.0), "two down/up phases per cycle");
        let rolling = s.apply(&Command::Fault(FaultSpec::RollingRestart {
            interval_ticks: 6,
            down_ticks: 3,
            count: 2,
        }));
        assert_eq!(ok(&rolling), Some(true), "{rolling}");
        assert_eq!(pending(&s), Some(8.0));
        for _ in 0..20 {
            s.step();
        }
        assert_eq!(pending(&s), Some(0.0), "every phase fired");
        // Asking for more controllers than exist is rejected.
        let too_many = s.apply(&Command::Fault(FaultSpec::RollingRestart {
            interval_ticks: 6,
            down_ticks: 3,
            count: 9,
        }));
        assert_eq!(ok(&too_many), Some(false), "{too_many}");
    }

    #[test]
    fn flows_attach_run_and_retire_into_reports() {
        let mut s = Session::new(tiny());
        for _ in 0..30 {
            s.step();
        }
        let ack = s.apply(&Command::Flows(FlowsSpec {
            pairs: 12,
            duration_ticks: 5,
            rate_per_tick: Some(4.0),
            permutation: false,
            seed_salt: None,
        }));
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
        for _ in 0..6 {
            s.step();
        }
        let report = s.final_report();
        let flows = report.get("flow_reports").and_then(Json::as_array).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(
            flows[0]
                .get("notes")
                .and_then(|n| n.get("attached_as"))
                .and_then(Json::as_str),
            Some("flows-0")
        );
    }

    #[test]
    fn snapshots_are_well_formed() {
        let mut s = Session::new(tiny());
        for _ in 0..4 {
            s.step();
        }
        let topo = s.topology_json();
        assert_eq!(topo.get("name").and_then(Json::as_str), Some("Grid-2x3"));
        assert!(!topo
            .get("links")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
        let node = s.node_json(2).unwrap();
        assert_eq!(node.get("kind").and_then(Json::as_str), Some("switch"));
        assert!(s.node_json(999).is_none());
        let log = s.log_json(0, 3);
        assert_eq!(log.get("lines").and_then(Json::as_array).unwrap().len(), 3);
        assert!(s.last_sample().is_some());
    }
}
