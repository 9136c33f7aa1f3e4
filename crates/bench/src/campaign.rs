//! The scale campaign as data: the [`Tier`]s, the [`cells`] each tier runs, the typed
//! [`Scenario`]s, and the renderer of the committed `BENCH_scale*.json` artifacts.
//!
//! It carries the paper's evaluation (Section 6) to datacenter scale in simulated time
//! only (host time is `renaissance-perf`'s job), so an artifact is a function of the
//! flags and a committed one is accepted byte for byte. The `scale_campaign` binary and
//! `tests/gate.rs` both call [`run`].

use crate::experiments::experiment;
use crate::figures::fct;
use crate::report::{fmt2, json_artifact, Row};
use crate::ExperimentScale;
use renaissance::scenario::{
    ControllerSelector, DegradeSpec, Endpoints, FaultEvent, LinkSelector, PartitionSpec, Probe,
    RunReport, ScenarioBuilder, ScenarioReport, Workload,
};
use sdn_metrics::json::Json;
use sdn_metrics::{csv_field, MemorySink, MetricKey, Recorder};
use sdn_netsim::SimDuration;
use sdn_topology::builders::{self, NamedTopology};
use sdn_topology::connectivity;
use sdn_traffic::engine::{FlowEngineWorkload, FlowSetConfig};

/// The base seed of every tier when `--seed` is not given.
pub const SEED: u64 = 1_000;

/// A campaign tier. Each has its own sweep, its own defaults and its own committed
/// baseline, so a casual smoke run never overwrites the full one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// One small instance per family, one seed: the tier-1 gate, done in seconds.
    Smoke,
    /// Every family from a paper-scale anchor up to several hundred switches.
    Full,
    /// The 10k-switch class with a million flows per under-load cell: run nightly.
    Large,
}

impl Tier {
    /// The artifact's `tier` string.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Full => "full",
            Tier::Large => "large",
        }
    }

    /// The committed baseline the tier writes when `--out` is not given.
    pub fn default_out(self) -> &'static str {
        match self {
            Tier::Smoke => "BENCH_scale_smoke.json",
            Tier::Full => "BENCH_scale.json",
            Tier::Large => "BENCH_scale_large.json",
        }
    }

    /// The tier's defaults for the shared flags: its networks, runs and task delay.
    /// Explicit flags win, like on every other binary
    /// ([`ExperimentScale::with_args`]).
    pub fn scale(self) -> ExperimentScale {
        let (runs, task_delay_ms) = match self {
            Tier::Full => (3, 500),
            Tier::Smoke | Tier::Large => (1, 200),
        };
        ExperimentScale {
            runs,
            networks: self.table().iter().map(|n| n.0.to_string()).collect(),
            task_delay: SimDuration::from_millis(task_delay_ms),
            ..ExperimentScale::default()
        }
    }

    /// The tier's sweep: each network, the under-load population (sampled src/dst
    /// pairs) it runs, if any, and whether it runs the gray family. Jellyfish names pin
    /// the wiring seed so the topology, not just the run, is reproducible. One small and
    /// one mid-size fabric per tier run the gray family: every schedule shape then runs
    /// on a fat tree (the rack-correlated selector) and on another family.
    fn table(self) -> &'static [(&'static str, Option<u32>, bool)] {
        match self {
            Tier::Smoke => &[
                ("fat_tree(4)", None, true),
                ("fat_tree(8)", Some(100_000), false),
                ("jellyfish(20, 3, 1)", None, false),
                ("grid(4, 5)", None, true),
            ],
            Tier::Full => &[
                ("fat_tree(4)", None, false),
                ("fat_tree(8)", Some(100_000), true),
                ("fat_tree(12)", Some(100_000), false),
                ("jellyfish(50, 4, 1)", None, false),
                ("jellyfish(150, 5, 1)", None, false),
                ("jellyfish(300, 5, 1)", None, false),
                ("grid(5, 5)", None, true),
                ("grid(10, 10)", None, false),
                ("grid(14, 20)", None, false),
            ],
            Tier::Large => &[
                ("fat_tree(16)", Some(1_000_000), true),
                ("jellyfish(1024, 8, 1)", Some(1_000_000), false),
            ],
        }
    }
}

/// A campaign scenario: the faults and workloads one cell adds to the shared
/// [`experiment`] skeleton.
///
/// The gray family's offsets leave at least twice the worst committed recovery time
/// (2.75 s across all tiers) between consecutive batches, so a healthy control plane
/// converges inside every window; the flap half-period (6 s) is the tightest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// From the empty configuration to the first legitimate state.
    Bootstrap,
    /// Fail-stop of one random controller in a stable network.
    ControllerFailure,
    /// Removal of the link in the middle of the data-plane path between the two
    /// farthest switches.
    MidpathLinkFailure,
    /// Bootstrap, then a full traffic matrix of this many sampled src/dst pairs on the
    /// stable network: steady-state flow-completion-time (FCT) digests and achieved
    /// goodput, from the heavy-traffic flow engine (up to a million concurrent flows).
    BootstrapUnderLoad(u32),
    /// The same population with a mid-path link failure at second 10 of the traffic
    /// window: what the flows experience while the control plane repairs.
    LinkFailureUnderLoad(u32),
    /// Bursty one-way ~30% loss on correlated links (a whole rack on fat trees, two
    /// random safe links elsewhere), then a mid-path link removal: time to
    /// relegitimacy *while degraded*.
    GrayLinkRecovery,
    /// A two-halves controller partition that heals after 10 s; reports
    /// `partition_messages`, the control-plane messages sent mid-partition.
    PartitionHeal,
    /// One safe link flapping down/up for three 12-second cycles; reports
    /// `flap_survival`, the fraction of batches that re-legitimized in time.
    FlappingLink,
    /// Controllers restarted one at a time (10 s apart, 5 s down each), the
    /// maintenance-window schedule.
    RollingUpgrade,
}

impl Scenario {
    /// What every network runs: the paper's core measurements.
    const BASE: [Scenario; 3] = [
        Scenario::Bootstrap,
        Scenario::ControllerFailure,
        Scenario::MidpathLinkFailure,
    ];

    /// The gray-failure family: dynamic fault schedules that stress recovery under
    /// degradation rather than clean fail-stop.
    pub const GRAY: [Scenario; 4] = [
        Scenario::GrayLinkRecovery,
        Scenario::PartitionHeal,
        Scenario::FlappingLink,
        Scenario::RollingUpgrade,
    ];

    /// The artifact's `scenario` string.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Bootstrap => "bootstrap",
            Scenario::ControllerFailure => "controller_failure",
            Scenario::MidpathLinkFailure => "midpath_link_failure",
            Scenario::BootstrapUnderLoad(_) => "bootstrap_under_load",
            Scenario::LinkFailureUnderLoad(_) => "link_failure_under_load",
            Scenario::GrayLinkRecovery => "gray_link_recovery",
            Scenario::PartitionHeal => "partition_heal",
            Scenario::FlappingLink => "flapping_link",
            Scenario::RollingUpgrade => "rolling_upgrade",
        }
    }

    /// Adds this scenario's faults and workloads to `builder`. All flows start up
    /// front: an under-load cell measures peak concurrency and the completion curve.
    fn schedule(self, builder: ScenarioBuilder, spec: &str, load_ticks: u32) -> ScenarioBuilder {
        let flow_workload = move |pairs| {
            let flows = FlowSetConfig::stress(pairs);
            move || -> Box<dyn Workload> { Box::new(FlowEngineWorkload::new(flows, load_ticks)) }
        };
        let midpath = || FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches));
        match self {
            Scenario::Bootstrap => builder,
            Scenario::ControllerFailure => builder.fault_at(
                SimDuration::ZERO,
                FaultEvent::FailController(ControllerSelector::Random { count: 1 }),
            ),
            Scenario::MidpathLinkFailure => builder.fault_at(SimDuration::ZERO, midpath()),
            Scenario::BootstrapUnderLoad(pairs) => builder.workload(flow_workload(pairs)),
            Scenario::LinkFailureUnderLoad(pairs) => builder
                .workload(flow_workload(pairs))
                .fault_at(SimDuration::from_secs(10), midpath()),
            Scenario::GrayLinkRecovery => builder
                .fault_at(
                    SimDuration::ZERO,
                    FaultEvent::DegradeLink(gray_selector(spec), DegradeSpec::gray()),
                )
                .fault_at(SimDuration::from_secs(2), midpath()),
            Scenario::PartitionHeal => builder
                .fault_at(
                    SimDuration::from_secs(2),
                    FaultEvent::Partition {
                        groups: PartitionSpec::Halves,
                        heal_after: Some(SimDuration::from_secs(10)),
                    },
                )
                .probe(Probe::messages_sent())
                .sample_probes_every(SimDuration::from_millis(500)),
            Scenario::FlappingLink => builder.fault_at(
                SimDuration::from_secs(2),
                FaultEvent::FlapLink {
                    selector: LinkSelector::RandomSafe { count: 1 },
                    period: SimDuration::from_secs(12),
                    count: 3,
                },
            ),
            Scenario::RollingUpgrade => builder.fault_at(
                SimDuration::from_secs(2),
                FaultEvent::RollingControllerRestart {
                    interval: SimDuration::from_secs(10),
                    down_for: SimDuration::from_secs(5),
                    count: 3,
                },
            ),
        }
    }
}

/// The link selector the gray cells degrade: the rack-correlated selector on fat
/// trees (all uplinks of one random edge switch), two random safe links elsewhere.
fn gray_selector(spec: &str) -> LinkSelector {
    match builders::family(spec) {
        Some("fat_tree") => LinkSelector::SameRack,
        _ => LinkSelector::RandomSafe { count: 2 },
    }
}

/// One cell of the campaign: a scenario on a network.
#[derive(Debug)]
pub struct Cell {
    /// The network's name as given (`fat_tree(8)`), the artifact's `spec`.
    pub spec: String,
    /// What the cell injects.
    pub scenario: Scenario,
}

/// The cells a tier runs on `networks`, in artifact order: per network, the base
/// scenarios, then the under-load pair, then the gray family. A network in the tier's
/// table runs the families its entry names; any other network runs the base
/// scenarios, plus the under-load pair on the large tier.
pub fn cells(tier: Tier, networks: &[String]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for spec in networks {
        let (flows, gray) = match tier.table().iter().find(|n| n.0 == spec) {
            Some(&(_, flows, gray)) => (flows, gray),
            // A network given with --networks: the large tier runs its million flows on
            // every network, the others the base scenarios only.
            None => ((tier == Tier::Large).then_some(1_000_000), false),
        };
        let mut scenarios = Scenario::BASE.to_vec();
        if let Some(pairs) = flows {
            scenarios.extend([
                Scenario::BootstrapUnderLoad(pairs),
                Scenario::LinkFailureUnderLoad(pairs),
            ]);
        }
        if gray {
            scenarios.extend(Scenario::GRAY);
        }
        cells.extend(scenarios.into_iter().map(|scenario| Cell {
            spec: spec.clone(),
            scenario,
        }));
    }
    cells
}

/// A finished campaign: the digested metrics, the artifact and the summary rows.
pub struct Campaign {
    sink: MemorySink,
    doc: Json,
    /// One summary row per cell: switches, bootstrap and recovery medians, converged.
    pub rows: Vec<Row>,
}

impl Campaign {
    /// The artifact as JSON: compact, one result cell per line.
    pub fn json(&self) -> String {
        json_artifact(&self.doc)
    }

    /// The artifact as CSV: one row per (cell, metric) with the digest's summary, the
    /// same numbers the JSON cell carries.
    pub fn csv(&self) -> String {
        let mut text = String::from("scope,metric,unit,n,mean,stddev,min,p50,p90,p99,max\n");
        for (scope, key, digest) in self.sink.iter() {
            let stats = digest.summary().map(|(_, value)| value.to_string());
            text.push_str(&format!(
                "{},{},{},{}\n",
                csv_field(scope),
                csv_field(&key.path()),
                csv_field(key.unit().symbol()),
                stats.join(","),
            ));
        }
        text
    }
}

/// Runs every cell of `tier` on `scale`'s networks, runs, task delay, seed and
/// threads. Every per-run sample is recorded under `spec/scenario` scopes and digested
/// in memory; the artifact is rendered from those digests.
pub fn run(tier: Tier, scale: &ExperimentScale) -> Campaign {
    let seed = scale.seed_or(SEED);
    let (mut sink, mut rows, mut results) = (MemorySink::default(), Vec::new(), Vec::new());
    for spec in &scale.networks {
        // Topology metadata once per network: size and the largest kappa it supports.
        let topology = builders::by_name(spec, 3);
        let kappa_max = connectivity::max_supported_kappa(&topology.switch_graph);
        let family = builders::family(spec).unwrap_or_default();
        let head = [
            ("family", Json::str(family)),
            ("network", Json::str(topology.name.clone())),
            ("spec", Json::str(spec.clone())),
            ("switches", Json::num(topology.switch_count() as f64)),
            ("diameter", Json::num(topology.expected_diameter as f64)),
            ("kappa_max", Json::num(kappa_max as f64)),
        ];
        for cell in cells(tier, std::slice::from_ref(spec)) {
            let name = format!("scale-{}", cell.scenario.name());
            let builder = experiment(scale, &name, spec, 3, scale.task_delay)
                .runs(scale.runs)
                .seeds_from(seed);
            // The under-load traffic window, in service ticks (simulated seconds).
            let ticks = if tier == Tier::Large { 60 } else { 30 };
            let report = cell.scenario.schedule(builder, spec, ticks);
            let (result, row) = render(&cell, &topology, &head, seed, &report.run(), &mut sink);
            results.push(result);
            rows.push(row);
        }
    }
    let task_delay_ms = scale.task_delay.as_secs_f64() * 1e3;
    let doc = Json::obj([
        ("benchmark", Json::str("scale_campaign")),
        ("version", Json::num(3.0)),
        ("smoke", Json::Bool(tier == Tier::Smoke)),
        ("tier", Json::str(tier.name())),
        (
            "config",
            Json::obj([
                ("runs", Json::num(scale.runs as f64)),
                ("seed", Json::str(seed.to_string())),
                ("task_delay_ms", Json::num(task_delay_ms)),
            ]),
        ),
        ("results", Json::Arr(results)),
    ]);
    Campaign { sink, doc, rows }
}

/// Records `report`'s samples into `sink` and renders the cell's artifact line (after
/// its network's `head` fields) and summary row from the digests.
fn render(
    cell: &Cell,
    topology: &NamedTopology,
    head: &[(&str, Json)],
    seed: u64,
    report: &ScenarioReport,
    sink: &mut MemorySink,
) -> (Json, Row) {
    let scenario = cell.scenario;
    let scope = format!("{}/{}", cell.spec, scenario.name());
    let mut completed_flows = 0u64;
    let mut peak_concurrent = 0u64;
    for run in &report.runs {
        if let Some(s) = run.bootstrap_s {
            sink.record(&scope, &MetricKey::BOOTSTRAP_TIME, s);
        }
        for recovery in run.recoveries.iter().filter_map(|r| r.recovered_in_s) {
            sink.record(&scope, &MetricKey::RECOVERY_TIME, recovery);
        }
        sink.record(&scope, &MetricKey::SIM_END, run.sim_end_s);
        sink.record(&scope, &MetricKey::MESSAGES_SENT, run.messages_sent as f64);
        // Gray-failure observables: flap survival is the fraction of fault batches
        // that re-legitimized before the next batch fired, partition messages the
        // control-plane traffic between the cut and the heal.
        if scenario == Scenario::FlappingLink && !run.recoveries.is_empty() {
            let survived = run.recoveries.iter().filter(|r| r.recovered_in_s.is_some());
            let share = survived.count() as f64 / run.recoveries.len() as f64;
            sink.record(&scope, &MetricKey::FLAP_SURVIVAL, share);
        }
        if let Some(messages) = messages_during_partition(run) {
            sink.record(&scope, &MetricKey::PARTITION_MESSAGES, messages);
        }
        // The under-load cells carry a flow-engine workload whose report has the FCT
        // digest and achieved-goodput series.
        if let Some(fct) = fct(run) {
            sink.record(&scope, &MetricKey::FCT_P50, fct.p50());
            sink.record(&scope, &MetricKey::FCT_P99, fct.p99());
            completed_flows += fct.count();
        }
        if let Some(wl) = run.workload("flow_engine") {
            if let Some(series) = wl.series("achieved_mbps").filter(|s| !s.is_empty()) {
                let mean = series.iter().sum::<f64>() / series.len() as f64;
                sink.record(&scope, &MetricKey::ACHIEVED_THROUGHPUT, mean);
            }
            if let Some(peak) = wl.note("peak_concurrent").and_then(|p| p.parse().ok()) {
                peak_concurrent = peak_concurrent.max(peak);
            }
        }
    }
    let converged = report.all_converged();
    let digest = |key: &MetricKey| sink.digest(&scope, key).cloned().unwrap_or_default();
    let samples = |key: &MetricKey| Json::samples(&digest(key));
    let row = Row::new(
        format!("{} / {}", topology.name, scenario.name()),
        vec![
            topology.switch_count().to_string(),
            fmt2(digest(&MetricKey::BOOTSTRAP_TIME).median()),
            fmt2(digest(&MetricKey::RECOVERY_TIME).median()),
            if converged { "yes" } else { "NO" }.to_string(),
        ],
    );
    let mut result = head.to_vec();
    result.extend([
        ("scenario", Json::str(scenario.name())),
        ("runs", Json::num(report.runs.len() as f64)),
        ("seed", Json::str(seed.to_string())),
        ("converged", Json::Bool(converged)),
        ("bootstrap_s", samples(&MetricKey::BOOTSTRAP_TIME)),
        ("recovery_s", samples(&MetricKey::RECOVERY_TIME)),
        ("sim_end_s", samples(&MetricKey::SIM_END)),
        ("messages_sent", samples(&MetricKey::MESSAGES_SENT)),
    ]);
    match scenario {
        Scenario::FlappingLink => {
            result.push(("flap_survival", samples(&MetricKey::FLAP_SURVIVAL)))
        }
        Scenario::PartitionHeal => result.push((
            "partition_messages",
            samples(&MetricKey::PARTITION_MESSAGES),
        )),
        Scenario::BootstrapUnderLoad(pairs) | Scenario::LinkFailureUnderLoad(pairs) => result
            .extend([
                ("flows", Json::num(pairs as f64)),
                ("completed_flows", Json::num(completed_flows as f64)),
                ("peak_concurrent_flows", Json::num(peak_concurrent as f64)),
                ("fct_p50_s", samples(&MetricKey::FCT_P50)),
                ("fct_p99_s", samples(&MetricKey::FCT_P99)),
                ("achieved_mbps", samples(&MetricKey::ACHIEVED_THROUGHPUT)),
            ]),
        _ => {}
    }
    (Json::obj(result), row)
}

/// Control-plane messages sent while the partition of a `partition_heal` run was in
/// force: the sampled messages-sent probe's delta between the last sample at or
/// before the cut batch and the last sample at or before the heal batch. `None` when
/// the run has no such window (bootstrap timeout) or no such probe: only
/// `partition_heal` samples it.
fn messages_during_partition(run: &RunReport) -> Option<f64> {
    let boot = run.bootstrap_s?;
    let [cut, heal, ..] = &run.recoveries[..] else {
        return None;
    };
    let series = run
        .probes
        .iter()
        .find(|p| p.key == MetricKey::MESSAGES_SENT)?;
    let value_at = |t: f64| {
        let samples = series.times_s.iter().zip(&series.values);
        samples
            .take_while(|(ts, _)| **ts <= t)
            .last()
            .map(|(_, v)| *v)
    };
    Some(value_at(boot + heal.fault_at_s)? - value_at(boot + cut.fault_at_s)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlisted_networks_run_the_base_scenarios_and_the_large_population() {
        let scenarios = |tier, spec: &str| -> Vec<Scenario> {
            let cells = cells(tier, &[spec.to_string()]);
            cells.into_iter().map(|c| c.scenario).collect()
        };
        assert_eq!(scenarios(Tier::Smoke, "grid(3, 3)"), Scenario::BASE);
        assert_eq!(scenarios(Tier::Full, "B4"), Scenario::BASE);
        let large = scenarios(Tier::Large, "grid(3, 3)");
        assert_eq!(large[..3], Scenario::BASE);
        assert_eq!(
            large[3..],
            [
                Scenario::BootstrapUnderLoad(1_000_000),
                Scenario::LinkFailureUnderLoad(1_000_000)
            ]
        );
        // A network of the table keeps its families when named with --networks.
        let fat_tree_8 = scenarios(Tier::Smoke, "fat_tree(8)");
        assert_eq!(fat_tree_8[3], Scenario::BootstrapUnderLoad(100_000));
    }

    #[test]
    fn gray_cells_pick_the_rack_selector_by_family() {
        for spec in ["fat_tree(4)", "fat tree(4)", "fat-tree-8"] {
            assert_eq!(gray_selector(spec), LinkSelector::SameRack, "{spec}");
        }
        for spec in ["grid(4, 5)", "jelly-fish(20, 3, 1)", "Clos"] {
            assert_eq!(
                gray_selector(spec),
                LinkSelector::RandomSafe { count: 2 },
                "{spec}"
            );
        }
    }
}
