//! The deterministic session core: a simulated SDN advanced tick by tick.
//!
//! A [`Session`] owns a [`Driver`] — the [`SdnNetwork`](renaissance::SdnNetwork),
//! its fault engine and the agenda of attached flow workloads and queued fault
//! phases, the same driver a scenario run uses — and a bounded ring of probe
//! samples. It boots the way a same-seed [`Scenario`] on its topology boots. It
//! exposes exactly two mutations — [`Session::step`] (one simulated tick) and
//! [`Session::apply`] (one [`Command`]) — and everything it computes derives from
//! simulated state alone. No wall clock, no thread identity, no host entropy reaches
//! this module (the `sdn-stancheck` scope rule enforces that statically), which is
//! why a live interactive session and a single-threaded replay of its command log
//! produce bit-identical final reports.
//!
//! Faults are a thin boundary over the scenario fault engine: a [`FaultEvent`]
//! with a wire form passes [`FaultEvent::validate`] at one tick and a check of
//! its victims against the live network (it is input from outside the program),
//! and the driver's fault engine executes it — at once, or, for a compound fault,
//! phase by phase from the agenda, as [`FaultEvent::phases`] expands it for a
//! scenario too. This module never mutates the network's nodes or links itself.

use crate::command::{fault_to_json, Command, FlowsSpec};
use renaissance::scenario::{
    ControllerSelector, Driver, FaultEvent, Fired, LinkSelector, Order, PartitionSpec, Scenario,
    SwitchSelector, WorkloadReport,
};
use sdn_metrics::json::Json;
use sdn_metrics::{RingPage, RingSink};
use sdn_netsim::{SimDuration, SimTime};
use sdn_topology::{builders, NodeId};
use sdn_traffic::{Arrival, FlowEngineWorkload, FlowMix, FlowSetConfig, TrafficMatrix};
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
    /// The simulated time one tick advances, at least a millisecond: the unit
    /// the fault wire form counts periods in.
    pub fn tick(&self) -> SimDuration {
        SimDuration::from_millis(self.tick_millis.max(1))
    }

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
        config.validate()?;
        Ok(config)
    }

    /// Refuses a config [`Session::new`] cannot boot: its topology name, at its
    /// controller count, is one [`builders::try_by_name`] does not accept.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match builders::try_by_name(&self.topology, self.controllers) {
            Some(_) => Ok(()),
            None => Err(ConfigError::UnknownTopology(self.topology.clone())),
        }
    }
}

/// A long-running simulated SDN session. See the module docs for the contract.
pub struct Session {
    config: SessionConfig,
    driver: Driver,
    finished_flows: Vec<WorkloadReport>,
    samples: RingSink,
    tick: u64,
    commands_applied: u64,
}

impl Session {
    /// Boots a session through [`Driver::boot`], as a same-seed [`Scenario`] on the
    /// named topology boots, and records the tick-0 probe sample.
    ///
    /// # Panics
    ///
    /// Panics when `config.topology` is not a name [`builders::by_name`] accepts.
    pub fn new(config: SessionConfig) -> Self {
        let scenario = Scenario::builder("session")
            .network(config.topology.as_str())
            .controllers(config.controllers)
            .build();
        let mut session = Session {
            driver: Driver::boot(&scenario, config.seed),
            samples: RingSink::new(config.ring_capacity.max(1)),
            config,
            finished_flows: Vec::new(),
            tick: 0,
            commands_applied: 0,
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
        self.driver.net.now().as_secs_f64()
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

    /// Advances the session by one tick of [`SessionConfig::tick`]: fires the fault
    /// phases due at the tick's start, runs the simulator to its end, fires the
    /// workload ticks and finishes due there — a finished workload's report is
    /// kept for the final report — and records a probe sample.
    pub fn step(&mut self) {
        self.tick += 1;
        let start = self.driver.net.now();
        let end = start + self.config.tick();
        self.fire_due(start, Order::Faults);
        self.driver.net.run_until(end);
        self.fire_due(end, Order::Finish);
        self.record_sample();
    }

    fn fire_due(&mut self, at: SimTime, through: Order) {
        while let Some(fired) = self.driver.fire_due(at, through) {
            if let Fired::Finish(id, mut report) = fired {
                report.push_note("attached_as", format!("flows-{id}"));
                report.push_note("finished_at_tick", self.tick.to_string());
                self.finished_flows.push(report);
            }
        }
    }

    /// Applies one command at the current tick boundary and returns its outcome
    /// object. Control commands (`step`/`run`/`pause`/`shutdown`) do not touch
    /// simulated state here — the transport (or replay's tick stamps) realizes their
    /// effect — but they still count toward `commands_applied` so live and replayed
    /// reports agree.
    pub fn apply(&mut self, cmd: &Command) -> Json {
        self.commands_applied += 1;
        match cmd {
            Command::Fault(event) => self.apply_fault(event),
            Command::Flows(spec) => self.attach_flows(*spec),
            Command::Step { .. } | Command::Run { .. } | Command::Pause | Command::Shutdown => {
                Json::obj([("ok", Json::Bool(true))])
            }
        }
    }

    /// Checks `event` — a wire form, [`FaultEvent::validate`] at one tick, victims
    /// present in the live network — then executes it through the fault engine,
    /// or queues the phases of a compound fault. A fault the engine reports as
    /// having changed nothing (an absent link, no override to clear, a partition
    /// that cuts no link, a heal with none in force) is a conflict, like a victim
    /// that does not exist.
    fn apply_fault(&mut self, event: &FaultEvent) -> Json {
        let tick = self.config.tick();
        let outcome = fault_to_json(event, tick)
            .map_err(|e| e.to_string())
            .and_then(|wire| {
                event.validate(tick).map_err(|e| e.to_string())?;
                self.check_victims(event)?;
                match self.execute(event) {
                    Some(detail) => Ok((wire, detail)),
                    None => {
                        let kind = wire.get("kind").and_then(Json::as_str).unwrap_or_default();
                        Err(format!("fault `{kind}` found nothing to change"))
                    }
                }
            });
        match outcome {
            Ok((wire, detail)) => Json::obj([
                ("ok", Json::Bool(true)),
                ("applied", wire),
                ("detail", Json::str(detail)),
            ]),
            Err(error) => Json::obj([("ok", Json::Bool(false)), ("error", Json::str(error))]),
        }
    }

    /// Executes a checked fault now and describes what it did (`None`: nothing),
    /// or queues the phases of a compound fault on the agenda: a phase at offset
    /// `d` fires at the start of the tick beginning `⌊d / tick⌋` ticks from now.
    /// The command's sequence number is its flap id, unique within the session.
    fn execute(&mut self, event: &FaultEvent) -> Option<String> {
        let mut phases = event.phases(self.commands_applied as u32);
        if phases.len() == 1 {
            let (faults, net) = (&mut self.driver.faults, &mut self.driver.net);
            let done = faults.apply(net, &phases.remove(0).1);
            return (!done.is_empty()).then(|| done.join("; "));
        }
        let (now, tick_us) = (self.driver.net.now(), self.config.tick().as_micros());
        let detail = format!("{} phases queued", phases.len());
        for (offset, phase) in phases {
            let at = now + SimDuration::from_micros(offset.as_micros() / tick_us * tick_us);
            self.driver.push_faults(at, vec![phase]);
        }
        Some(detail)
    }

    /// The checks that need the live network: the victims exist, a degraded,
    /// restored or flapping link is present in `Gc`, no partition is in force,
    /// and a rolling restart has enough controllers.
    fn check_victims(&self, event: &FaultEvent) -> Result<(), String> {
        match event {
            FaultEvent::FailController(ControllerSelector::Id(id))
            | FaultEvent::ReviveController(id) => {
                known(&self.driver.net.controller_ids(), *id, "controller")
            }
            FaultEvent::FailSwitch(SwitchSelector::Id(id)) | FaultEvent::ReviveSwitch(id) => {
                known(&self.driver.net.switch_ids(), *id, "switch")
            }
            FaultEvent::FailLink(LinkSelector::Between(a, b))
            | FaultEvent::RemoveLink(LinkSelector::Between(a, b))
            | FaultEvent::RestoreLink(a, b) => self.endpoints(*a, *b),
            FaultEvent::DegradeLink(LinkSelector::Between(a, b), _)
            | FaultEvent::RestoreLinkQuality(LinkSelector::Between(a, b))
            | FaultEvent::FlapLink {
                selector: LinkSelector::Between(a, b),
                ..
            } => self.link(*a, *b),
            FaultEvent::Partition {
                groups: PartitionSpec::Groups(groups),
                ..
            } => self.groups(groups),
            FaultEvent::RollingControllerRestart { count, .. } => {
                let controllers = self.driver.net.controller_ids().len();
                if controllers < *count {
                    return Err(format!(
                        "rolling restart of {count} controllers but only {controllers} exist"
                    ));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Two known nodes; whether a link joins them is the fault engine's business.
    fn endpoints(&self, a: NodeId, b: NodeId) -> Result<(), String> {
        let graph = self.driver.net.sim().topology();
        let known = graph.contains_node(a) && graph.contains_node(b);
        known
            .then_some(())
            .ok_or_else(|| format!("link {}-{}: unknown endpoint", a.index(), b.index()))
    }

    /// Like [`Session::endpoints`], but also requires the link to currently exist
    /// in `Gc` — quality overrides and flaps on a never-built link would be silent
    /// no-ops, so they are rejected up front instead.
    fn link(&self, a: NodeId, b: NodeId) -> Result<(), String> {
        self.endpoints(a, b)?;
        let present = self.driver.net.sim().topology().has_link(a, b);
        present
            .then_some(())
            .ok_or_else(|| format!("link {}-{} not present", a.index(), b.index()))
    }

    /// A partition's groups name known nodes, and no other partition is in force.
    fn groups(&self, groups: &[Vec<NodeId>]) -> Result<(), String> {
        if !self.driver.faults.partitioned_links().is_empty() {
            return Err("a partition is already in force (heal it first)".to_string());
        }
        let graph = self.driver.net.sim().topology();
        match groups.iter().flatten().find(|n| !graph.contains_node(**n)) {
            Some(n) => Err(format!("partition: unknown node {}", n.index())),
            None => Ok(()),
        }
    }

    fn attach_flows(&mut self, spec: FlowsSpec) -> Json {
        // Every attached workload is active or finished: this is the attachment's
        // number, which the driver gives it too.
        let n = (self.finished_flows.len() + self.driver.active_workloads()) as u64;
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
        };
        // Decorrelate repeated attachments by default; an explicit salt wins.
        let salt = spec.seed_salt.unwrap_or(0x666c_6f77 ^ n.rotate_left(17));
        let workload = FlowEngineWorkload::new(config, spec.duration_ticks).with_seed_salt(salt);
        let ticks = u64::from(spec.duration_ticks.max(1));
        self.driver
            .attach(Box::new(workload), self.config.tick(), ticks);
        Json::obj([
            ("ok", Json::Bool(true)),
            ("attached_as", Json::str(format!("flows-{n}"))),
            ("flows", Json::num(f64::from(spec.pairs))),
        ])
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// The current communication graph `Gc`: node sets and links.
    pub fn topology_json(&self) -> Json {
        let net = &self.driver.net;
        let topo = net.topology();
        let graph = net.sim().topology();
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
                Json::num(net.sim().topology_generation() as f64),
            ),
            (
                "expected_diameter",
                Json::num(f64::from(topo.expected_diameter)),
            ),
        ])
    }

    /// One node's state, or `None` when the index names no node.
    pub fn node_json(&self, index: u32) -> Option<Json> {
        let (id, net) = (NodeId::new(index), &self.driver.net);
        let topo = net.topology();
        // A failed node's state machine may be unreachable; then report what the
        // topology still knows.
        let (kind, state) = if let Some(controller) = net.controller(id) {
            (
                "controller",
                Some(("c_resets", controller.c_resets() as f64)),
            )
        } else if let Some(switch) = net.switch(id) {
            ("switch", Some(("rules", switch.rules().len() as f64)))
        } else if topo.controllers.contains(&id) {
            ("controller", None)
        } else if topo.switches.contains(&id) {
            ("switch", None)
        } else {
            return None;
        };
        let degree = net.sim().operational_graph().degree(id) as f64;
        let node = [
            ("id", Json::num(f64::from(index))),
            ("kind", Json::str(kind)),
            ("live", Json::Bool(!net.sim().is_node_failed(id))),
            ("degree", Json::num(degree)),
        ];
        let state = state.map(|(key, value)| (key, Json::num(value)));
        Some(Json::obj(node.into_iter().chain(state)))
    }

    /// The legitimacy verdict (paper, Definition 1) with every violated condition.
    pub fn legitimacy_json(&self) -> Json {
        let report = self.driver.net.legitimacy_report();
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
        let (driver, net) = (&self.driver, &self.driver.net);
        let metrics = net.metrics();
        Json::obj([
            ("tick", Json::num(self.tick as f64)),
            ("sim_s", Json::num(self.sim_secs())),
            ("events", Json::num(net.sim().events_processed() as f64)),
            ("msgs_sent", Json::num(metrics.total_sent() as f64)),
            ("msgs_received", Json::num(metrics.total_received() as f64)),
            ("bytes_sent", Json::num(metrics.total_bytes_sent() as f64)),
            ("rules_total", Json::num(net.total_rules() as f64)),
            (
                "rules_max_per_switch",
                Json::num(net.max_rules_per_switch() as f64),
            ),
            (
                "flow_workloads",
                Json::num(driver.active_workloads() as f64),
            ),
            ("flow_reports", Json::num(self.finished_flows.len() as f64)),
            ("commands", Json::num(self.commands_applied as f64)),
            ("samples_dropped", Json::num(self.samples.dropped() as f64)),
            ("pending_faults", Json::num(driver.pending_faults() as f64)),
            (
                "partitioned_links",
                Json::num(driver.faults.partitioned_links().len() as f64),
            ),
            (
                "link_config_warnings",
                Json::num(net.link_config_warnings() as f64),
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
        let (driver, net) = (&self.driver, &self.driver.net);
        let metrics = net.metrics();
        let report = net.legitimacy_report();
        let line = Json::obj([
            ("tick", Json::num(self.tick as f64)),
            ("sim_s", Json::num(self.sim_secs())),
            ("legitimate", Json::Bool(report.is_legitimate())),
            ("issues", Json::num(report.issues.len() as f64)),
            ("events", Json::num(net.sim().events_processed() as f64)),
            ("msgs_sent", Json::num(metrics.total_sent() as f64)),
            ("rules_total", Json::num(net.total_rules() as f64)),
            (
                "flow_workloads",
                Json::num(driver.active_workloads() as f64),
            ),
        ])
        .to_string();
        self.samples.push_line(line);
    }
}

/// `id` is among `ids`, which are the network's nodes of kind `what`.
fn known(ids: &[NodeId], id: NodeId, what: &str) -> Result<(), String> {
    let found = ids.contains(&id);
    found
        .then_some(())
        .ok_or_else(|| format!("no {what} with index {}", id.index()))
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
    use renaissance::scenario::DegradeSpec;

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
        // A network too large to build is refused on its name, before anything is built.
        for big in ["fat_tree(128)", "jellyfish(100000,8,1)", "grid(4096,4096)"] {
            assert_eq!(
                parse(&wire.replace("grid(2,3)", big)),
                Err(ConfigError::UnknownTopology(big.to_string()))
            );
        }
        assert_eq!(
            parse(&wire.replace("\"controllers\":2", "\"controllers\":10000000")),
            Err(ConfigError::UnknownTopology("grid(2,3)".to_string()))
        );
    }

    fn between(a: u32, b: u32) -> LinkSelector {
        LinkSelector::Between(NodeId::new(a), NodeId::new(b))
    }

    /// `n` ticks of [`tiny`]'s session.
    fn ticks(n: u64) -> SimDuration {
        SimDuration::from_millis(500 * n)
    }

    fn ok(outcome: &Json) -> Option<bool> {
        outcome.get("ok").and_then(Json::as_bool)
    }

    fn pending(s: &Session) -> Option<f64> {
        s.metrics_json()
            .get("pending_faults")
            .and_then(Json::as_f64)
    }

    #[test]
    fn stepping_twice_from_the_same_config_is_bit_identical() {
        let run = || {
            let mut s = Session::new(tiny());
            for _ in 0..20 {
                s.step();
            }
            s.apply(&Command::Fault(FaultEvent::FailLink(between(3, 4))));
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
        let switch = |n| Command::Fault(FaultEvent::FailSwitch(SwitchSelector::Id(NodeId::new(n))));
        let bad = s.apply(&switch(99));
        assert_eq!(ok(&bad), Some(false));
        let good = s.apply(&switch(3));
        assert_eq!(ok(&good), Some(true));
        // Commands counted either way: outcomes are part of session history.
        assert_eq!(
            s.metrics_json().get("commands").and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn faults_without_a_wire_form_are_refused() {
        let mut s = Session::new(tiny());
        for event in [
            FaultEvent::CorruptState,
            FaultEvent::FailLink(LinkSelector::RandomSafe { count: 1 }),
            FaultEvent::FlapLink {
                selector: between(3, 4),
                period: SimDuration::from_millis(750),
                count: 2,
            },
        ] {
            let outcome = s.apply(&Command::Fault(event));
            assert_eq!(ok(&outcome), Some(false), "{outcome}");
            let error = outcome.get("error").and_then(Json::as_str).unwrap();
            assert!(error.ends_with("has no wire form"), "{error}");
        }
        assert_eq!(pending(&s), Some(0.0));
    }

    #[test]
    fn gray_faults_validate_and_apply() {
        let mut s = Session::new(tiny());
        for _ in 0..10 {
            s.step();
        }
        let degrade = |a, b, loss| {
            Command::Fault(FaultEvent::DegradeLink(
                between(a, b),
                DegradeSpec::flat(loss),
            ))
        };
        let restore = Command::Fault(FaultEvent::RestoreLinkQuality(between(3, 4)));
        let degraded = s.apply(&degrade(3, 4, 0.25));
        assert_eq!(ok(&degraded), Some(true), "{degraded}");
        let restored = s.apply(&restore);
        assert_eq!(ok(&restored), Some(true), "{restored}");
        // Restoring again reports there is nothing left to restore.
        let nothing = s.apply(&restore);
        assert_eq!(ok(&nothing), Some(false), "{nothing}");
        // Degrading a pair that is not a link is rejected up front, not silently
        // swallowed by the simulator's warning counter.
        let no_link = s.apply(&degrade(2, 7, 0.5));
        assert_eq!(ok(&no_link), Some(false), "{no_link}");
    }

    #[test]
    fn partitions_cut_heal_and_refuse_double_cuts() {
        let mut s = Session::new(tiny());
        for _ in 0..10 {
            s.step();
        }
        let partitioned = |s: &Session| {
            s.metrics_json()
                .get("partitioned_links")
                .and_then(Json::as_f64)
        };
        // grid(2,3): splitting along the rows cuts the three vertical links.
        let rows = [[0, 2, 3, 4], [1, 5, 6, 7]].map(|row| row.map(NodeId::new).to_vec());
        let partition = Command::Fault(FaultEvent::Partition {
            groups: PartitionSpec::Groups(rows.to_vec()),
            heal_after: None,
        });
        let heal = Command::Fault(FaultEvent::HealPartition);
        let cut = s.apply(&partition);
        assert_eq!(ok(&cut), Some(true), "{cut}");
        assert_eq!(partitioned(&s), Some(3.0));
        let double = s.apply(&partition);
        assert_eq!(ok(&double), Some(false), "{double}");
        let healed = s.apply(&heal);
        assert_eq!(ok(&healed), Some(true), "{healed}");
        assert_eq!(partitioned(&s), Some(0.0));
        let nothing = s.apply(&heal);
        assert_eq!(ok(&nothing), Some(false), "{nothing}");
    }

    #[test]
    fn a_zero_millisecond_tick_steps_one_millisecond_and_fires_its_phases() {
        let mut s = Session::new(SessionConfig {
            tick_millis: 0,
            ..tiny()
        });
        let flap = s.apply(&Command::Fault(FaultEvent::FlapLink {
            selector: between(3, 4),
            period: SimDuration::from_millis(4),
            count: 2,
        }));
        assert_eq!(ok(&flap), Some(true), "{flap}");
        assert_eq!(pending(&s), Some(4.0));
        for _ in 0..10 {
            s.step();
        }
        assert_eq!(s.sim_secs(), 0.010);
        assert_eq!(pending(&s), Some(0.0), "every phase fired");
    }

    #[test]
    fn flaps_and_rolling_restarts_fire_on_schedule() {
        let mut s = Session::new(tiny());
        let flap = s.apply(&Command::Fault(FaultEvent::FlapLink {
            selector: between(3, 4),
            period: ticks(4),
            count: 2,
        }));
        assert_eq!(ok(&flap), Some(true), "{flap}");
        assert_eq!(pending(&s), Some(4.0), "two down/up phases per cycle");
        let rolling = |count| {
            Command::Fault(FaultEvent::RollingControllerRestart {
                interval: ticks(6),
                down_for: ticks(3),
                count,
            })
        };
        let accepted = s.apply(&rolling(2));
        assert_eq!(ok(&accepted), Some(true), "{accepted}");
        assert_eq!(pending(&s), Some(8.0));
        for _ in 0..20 {
            s.step();
        }
        assert_eq!(pending(&s), Some(0.0), "every phase fired");
        // Asking for more controllers than exist is rejected.
        let too_many = s.apply(&rolling(9));
        assert_eq!(ok(&too_many), Some(false), "{too_many}");
    }

    #[test]
    fn overlapping_flaps_each_toggle_their_own_link() {
        let mut s = Session::new(tiny());
        for _ in 0..10 {
            s.step();
        }
        let flap = |a, b, period| {
            Command::Fault(FaultEvent::FlapLink {
                selector: between(a, b),
                period: ticks(period),
                count: 2,
            })
        };
        // Down half-cycles in ticks after `start`: 3-4 flaps from tick 1 with
        // period 4, 2-5 from tick 2 with period 6.
        let start = s.tick();
        let down = |k: u64, spans: &[(u64, u64)]| spans.iter().any(|&(a, b)| (a..b).contains(&k));
        let check = |s: &Session| {
            let k = s.tick() - start;
            let up = |a, b| {
                s.driver
                    .net
                    .sim()
                    .link_is_operational(NodeId::new(a), NodeId::new(b))
            };
            assert_eq!(up(3, 4), !down(k, &[(1, 3), (5, 7)]), "3-4 at tick {k}");
            assert_eq!(up(2, 5), !down(k, &[(2, 5), (8, 11)]), "2-5 at tick {k}");
        };
        assert_eq!(ok(&s.apply(&flap(3, 4, 4))), Some(true));
        s.step();
        check(&s);
        assert_eq!(ok(&s.apply(&flap(2, 5, 6))), Some(true));
        for _ in 0..12 {
            s.step();
            check(&s);
        }
        assert_eq!(pending(&s), Some(0.0));
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
