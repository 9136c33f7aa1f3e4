//! The scale campaign: sweeps topology family x size x fault scenario, records
//! simulated-time metrics through the typed metric pipeline, and writes the
//! machine-readable `BENCH_scale.json`, one result cell per line. Every field of the
//! artifact is a function of the flags alone, so equal commands produce byte-identical
//! files: a committed artifact is accepted only byte for byte, and `git diff` of it is
//! the per-cell delta. Host time is `renaissance-perf`'s job (`BENCHMARK.json`).
//!
//! Three fault scenarios per topology, mirroring the paper's core measurements at
//! datacenter scale:
//!
//! * `bootstrap` — from the empty configuration to the first legitimate state,
//! * `controller_failure` — fail-stop of one random controller in a stable network,
//! * `midpath_link_failure` — removal of the link in the middle of the data-plane
//!   path between the two farthest switches.
//!
//! On selected networks two *under-load* scenarios ride along, driving the
//! heavy-traffic flow engine (up to a million concurrent flows) through the scenario
//! workload API:
//!
//! * `bootstrap_under_load` — bootstrap, then a full traffic matrix on the stable
//!   network: steady-state flow-completion-time (FCT) digests and achieved goodput,
//! * `link_failure_under_load` — the same population with a mid-path link failure at
//!   second 10 of the traffic window: what the flows experience while the control
//!   plane repairs.
//!
//! Under-load cells report `fct_p50_s` / `fct_p99_s` / `achieved_mbps` digests plus
//! completed-flow counts.
//!
//! Selected networks additionally run the *gray-failure* family (see
//! [`runs_gray_cells`]) — the dynamic fault schedules that stress recovery under
//! degradation rather than clean fail-stop:
//!
//! * `gray_link_recovery` — bursty one-way ~30% loss on correlated links (a whole
//!   rack on fat trees, random safe links elsewhere), then a mid-path link removal:
//!   time-to-relegitimacy *while degraded*,
//! * `partition_heal` — a two-halves controller partition that heals after 10 s;
//!   reports `partition_messages`, the control-plane messages sent mid-partition,
//! * `flapping_link` — one safe link flapping down/up for three 12-second cycles;
//!   reports `flap_survival`, the fraction of batches that re-legitimized in time,
//! * `rolling_upgrade` — controllers restarted one at a time (10 s apart, 5 s down
//!   each), the maintenance-window schedule.
//!
//! `--smoke` shrinks the sweep to four small topologies with one seed each so the
//! tier-1 test finishes in seconds; the full campaign reaches several hundred switches.

use renaissance::scenario::{
    ControllerSelector, DegradeSpec, Endpoints, FaultEvent, LinkSelector, PartitionSpec, Probe,
    RunReport, ScenarioReport,
};
use renaissance_bench::cli::{self, Flag};
use renaissance_bench::output::OutputFormat;
use renaissance_bench::report::{fmt2, print_table, write_json_file, Row, Table};
use renaissance_bench::{ExperimentScale, MetricKey, Recorder};
use sdn_metrics::json::Json;
use sdn_metrics::{csv_field, Digest, MemorySink};
use sdn_netsim::SimDuration;
use sdn_topology::{builders, connectivity};
use sdn_traffic::engine::{FlowEngineWorkload, FlowSetConfig};

const ABOUT: &str = "Scale campaign: topology family x size x fault scenario sweep, \
emitting BENCH_scale.json (--out PATH, --format json|csv), one result cell per line";

const EXTRA_FLAGS: &[Flag] = &[
    Flag {
        name: "--smoke",
        value_name: None,
        help: "tiny sizes, 1 seed: the smoke tier (BENCH_scale_smoke.json)",
    },
    Flag {
        name: "--large",
        value_name: None,
        help: "scale-large tier: fat_tree(16) and jellyfish(1024, 8, 1), 1 seed",
    },
];

/// The three fault scenarios every network runs.
const SCENARIOS: [&str; 3] = ["bootstrap", "controller_failure", "midpath_link_failure"];

/// The heavy-traffic scenarios; selected networks only (see [`under_load_pairs`]).
const UNDER_LOAD_SCENARIOS: [&str; 2] = ["bootstrap_under_load", "link_failure_under_load"];

/// The gray-failure scenarios; selected networks only (see [`runs_gray_cells`]).
const GRAY_SCENARIOS: [&str; 4] = [
    "gray_link_recovery",
    "partition_heal",
    "flapping_link",
    "rolling_upgrade",
];

/// Whether a network runs the gray-failure family in the given tier. One small and
/// one mid-size fabric per committed tier keeps the smoke job fast while every schedule
/// shape still runs on a fat tree (exercising the rack-correlated selector) and on a
/// non-fat-tree family (exercising the random-safe fallback).
fn runs_gray_cells(network: &str, tier: &str) -> bool {
    matches!(
        (tier, network),
        ("smoke", "fat_tree(4)" | "grid(4, 5)")
            | ("large", "fat_tree(16)")
            | ("full", "fat_tree(8)" | "grid(5, 5)")
    )
}

/// The flow-population size (sampled src/dst pairs) of a network's under-load cells
/// in the given tier, or `None` when the network skips them. The large tier carries
/// the acceptance-scale population: one million concurrent flows per cell.
fn under_load_pairs(network: &str, tier: &str) -> Option<u32> {
    match (tier, network) {
        ("smoke", "fat_tree(8)") => Some(100_000),
        ("large", _) => Some(1_000_000),
        ("full", "fat_tree(8)" | "fat_tree(12)") => Some(100_000),
        _ => None,
    }
}

/// Length of the under-load traffic window in service ticks (simulated seconds).
fn under_load_ticks(tier: &str) -> u32 {
    if tier == "large" {
        60
    } else {
        30
    }
}

/// The full sweep: every family from a paper-scale anchor up to several hundred
/// switches. Jellyfish names pin the wiring seed so the topology (not just the run)
/// is reproducible.
const FULL_NETWORKS: [&str; 9] = [
    "fat_tree(4)",
    "fat_tree(8)",
    "fat_tree(12)",
    "jellyfish(50, 4, 1)",
    "jellyfish(150, 5, 1)",
    "jellyfish(300, 5, 1)",
    "grid(5, 5)",
    "grid(10, 10)",
    "grid(14, 20)",
];

/// The smoke sweep: one small instance per family, plus the fat_tree(8) cells the
/// event-core throughput work is tracked on.
const SMOKE_NETWORKS: [&str; 4] = [
    "fat_tree(4)",
    "fat_tree(8)",
    "jellyfish(20, 3, 1)",
    "grid(4, 5)",
];

/// The scale-large tier: the 10k-switch-class topologies that are too slow for the
/// PR gate and run on the nightly schedule instead.
const LARGE_NETWORKS: [&str; 2] = ["fat_tree(16)", "jellyfish(1024, 8, 1)"];

fn main() {
    let args = cli::parse(ABOUT, EXTRA_FLAGS);
    let smoke = args.switch("--smoke");
    let large = args.switch("--large");
    if smoke && large {
        cli::die("--smoke and --large name different tiers; give at most one");
    }
    // Each tier has its own committed baseline (so a casual smoke run never overwrites
    // the full one) and its own sweep.
    let (tier, default_out, networks) = if smoke {
        ("smoke", "BENCH_scale_smoke.json", &SMOKE_NETWORKS[..])
    } else if large {
        ("large", "BENCH_scale_large.json", &LARGE_NETWORKS[..])
    } else {
        ("full", "BENCH_scale.json", &FULL_NETWORKS[..])
    };
    let out = args.value("--out").unwrap_or(default_out).to_string();
    // The shared validator keeps --format semantics identical across every binary.
    let csv = OutputFormat::from_args(&args) == OutputFormat::Csv;

    // The tier's sweep and scale are only defaults: explicit flags win, like on every
    // other binary.
    let mut scale = ExperimentScale {
        networks: networks.iter().map(|s| s.to_string()).collect(),
        ..ExperimentScale::default()
    };
    if smoke || large {
        scale.runs = 1;
        scale.task_delay = SimDuration::from_millis(200);
    }
    let scale = scale.with_args(&args);
    let seed = scale.seed_or(1_000);

    // The campaign's artifact is rendered from the typed metrics: every per-run
    // sample is recorded under "spec/scenario" scopes and digested in memory.
    let mut sink = MemorySink::default();
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for network in &scale.networks {
        // Topology metadata once per network: size and the largest kappa it supports.
        let topology = builders::by_name(network, 3);
        let switches = topology.switch_count();
        let kappa_max = connectivity::max_supported_kappa(&topology.switch_graph);
        let diameter = topology.expected_diameter;
        let load_pairs = under_load_pairs(network, tier);
        let mut scenarios: Vec<&str> = SCENARIOS.to_vec();
        if load_pairs.is_some() {
            scenarios.extend(UNDER_LOAD_SCENARIOS);
        }
        if runs_gray_cells(network, tier) {
            scenarios.extend(GRAY_SCENARIOS);
        }
        for scenario in scenarios {
            let scope = format!("{network}/{scenario}");
            let report = run_scenario(
                &scale,
                network,
                scenario,
                seed,
                load_pairs,
                under_load_ticks(tier),
            );
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
                // Gray-failure observables: flap survival is the fraction of fault
                // batches that re-legitimized before the next batch fired, partition
                // messages the control-plane traffic between the cut and the heal.
                if scenario == "flapping_link" && !run.recoveries.is_empty() {
                    let survived = run
                        .recoveries
                        .iter()
                        .filter(|r| r.recovered_in_s.is_some())
                        .count();
                    sink.record(
                        &scope,
                        &MetricKey::FLAP_SURVIVAL,
                        survived as f64 / run.recoveries.len() as f64,
                    );
                }
                if scenario == "partition_heal" {
                    if let Some(messages) = messages_during_partition(run) {
                        sink.record(&scope, &MetricKey::PARTITION_MESSAGES, messages);
                    }
                }
                // The under-load cells carry a flow-engine workload whose report has
                // the FCT digest and achieved-goodput series.
                if let Some(wl) = run.workload("flow_engine") {
                    if let Some(fct) = wl.digest("fct_s") {
                        if !fct.is_empty() {
                            sink.record(&scope, &MetricKey::FCT_P50, fct.p50());
                            sink.record(&scope, &MetricKey::FCT_P99, fct.p99());
                        }
                        completed_flows += fct.count();
                    }
                    if let Some(series) = wl.series("achieved_mbps") {
                        if !series.is_empty() {
                            let mean = series.iter().sum::<f64>() / series.len() as f64;
                            sink.record(&scope, &MetricKey::ACHIEVED_THROUGHPUT, mean);
                        }
                    }
                    if let Some(peak) = wl.note("peak_concurrent").and_then(|p| p.parse().ok()) {
                        peak_concurrent = peak_concurrent.max(peak);
                    }
                }
            }
            let under_load = scenario.ends_with("_under_load");
            let converged = report.all_converged();
            let digest = |key: &MetricKey| -> Digest {
                sink.digest(&scope, key).cloned().unwrap_or_default()
            };
            let bootstrap = digest(&MetricKey::BOOTSTRAP_TIME);
            let recovery = digest(&MetricKey::RECOVERY_TIME);
            rows.push(Row::new(
                format!("{} / {scenario}", topology.name),
                vec![
                    switches.to_string(),
                    fmt2(bootstrap.median()),
                    fmt2(recovery.median()),
                    if converged { "yes" } else { "NO" }.to_string(),
                ],
            ));
            let mut cell = vec![
                ("family", Json::str(family_of(network))),
                ("network", Json::str(topology.name.clone())),
                ("spec", Json::str(network.clone())),
                ("switches", Json::num(switches as f64)),
                ("diameter", Json::num(diameter as f64)),
                ("kappa_max", Json::num(kappa_max as f64)),
                ("scenario", Json::str(scenario)),
                ("runs", Json::num(report.runs.len() as f64)),
                ("seed", Json::str(seed.to_string())),
                ("converged", Json::Bool(converged)),
                ("bootstrap_s", Json::samples(&bootstrap)),
                ("recovery_s", Json::samples(&recovery)),
                ("sim_end_s", Json::samples(&digest(&MetricKey::SIM_END))),
                (
                    "messages_sent",
                    Json::samples(&digest(&MetricKey::MESSAGES_SENT)),
                ),
            ];
            if scenario == "flapping_link" {
                cell.push((
                    "flap_survival",
                    Json::samples(&digest(&MetricKey::FLAP_SURVIVAL)),
                ));
            }
            if scenario == "partition_heal" {
                cell.push((
                    "partition_messages",
                    Json::samples(&digest(&MetricKey::PARTITION_MESSAGES)),
                ));
            }
            if under_load {
                cell.extend([
                    ("flows", Json::num(load_pairs.unwrap_or(0) as f64)),
                    ("completed_flows", Json::num(completed_flows as f64)),
                    ("peak_concurrent_flows", Json::num(peak_concurrent as f64)),
                    ("fct_p50_s", Json::samples(&digest(&MetricKey::FCT_P50))),
                    ("fct_p99_s", Json::samples(&digest(&MetricKey::FCT_P99))),
                    (
                        "achieved_mbps",
                        Json::samples(&digest(&MetricKey::ACHIEVED_THROUGHPUT)),
                    ),
                ]);
            }
            results.push(Json::obj(cell));
        }
    }

    let doc = Json::obj([
        ("benchmark", Json::str("scale_campaign")),
        ("version", Json::num(3.0)),
        ("smoke", Json::Bool(smoke)),
        ("tier", Json::str(tier)),
        (
            "config",
            Json::obj([
                ("runs", Json::num(scale.runs as f64)),
                ("seed", Json::str(seed.to_string())),
                (
                    "task_delay_ms",
                    Json::num(scale.task_delay.as_secs_f64() * 1e3),
                ),
            ]),
        ),
        ("results", Json::Arr(results)),
    ]);
    if csv {
        write_campaign_csv(&out, &sink);
    } else {
        write_json_file(std::path::Path::new(&out), &doc)
            .unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    }

    print_table(&Table {
        title: format!(
            "Scale campaign ({tier} mode) — medians over {} run(s), artifact: {out}",
            scale.runs
        ),
        headers: vec!["switches", "boot med s", "recov med s", "conv"],
        rows,
        trailer: Vec::new(),
    });
}

/// Writes the campaign summary as CSV: one row per (cell, metric) with the digest
/// statistics.
fn write_campaign_csv(out: &str, sink: &MemorySink) {
    let mut text = String::from("scope,metric,unit,n,mean,stddev,min,p50,p90,p99,max\n");
    for (scope, key, digest) in sink.iter() {
        let quantiles = digest.quantiles(&[0.5, 0.9, 0.99]);
        text.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            csv_field(scope),
            csv_field(&key.path()),
            csv_field(key.unit().symbol()),
            digest.len(),
            digest.mean(),
            digest.stddev(),
            digest.min(),
            quantiles[0],
            quantiles[1],
            quantiles[2],
            digest.max(),
        ));
    }
    std::fs::write(out, text).unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
}

/// Builds and runs one campaign cell on the same scenario skeleton (timeout,
/// measurement resolution, thread plumbing) as the paper figures.
fn run_scenario(
    scale: &ExperimentScale,
    network: &str,
    scenario: &str,
    seed: u64,
    load_pairs: Option<u32>,
    load_ticks: u32,
) -> ScenarioReport {
    let mut builder = renaissance_bench::experiments::experiment(
        scale,
        &format!("scale-{scenario}"),
        network,
        3,
        scale.task_delay,
    )
    .runs(scale.runs)
    .seeds_from(seed);
    // All flows up front: the cell measures peak concurrency and the completion
    // curve, seeded per run from the harness seed.
    let flow_workload = move || -> Box<dyn renaissance::scenario::Workload> {
        Box::new(FlowEngineWorkload::new(
            FlowSetConfig::stress(load_pairs.unwrap_or(0)),
            load_ticks,
        ))
    };
    builder = match scenario {
        "bootstrap" => builder,
        "controller_failure" => builder.fault_at(
            SimDuration::ZERO,
            FaultEvent::FailController(ControllerSelector::Random { count: 1 }),
        ),
        "midpath_link_failure" => builder.fault_at(
            SimDuration::ZERO,
            FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
        ),
        "bootstrap_under_load" => builder.workload(flow_workload),
        "link_failure_under_load" => builder.workload(flow_workload).fault_at(
            SimDuration::from_secs(10),
            FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
        ),
        // The gray-failure family. Offsets leave at least 2x the worst committed
        // recovery time (2.75 s across all tiers) between consecutive batches so a
        // healthy control plane converges inside every window — the flap half-period
        // (6 s) is the tightest such window.
        "gray_link_recovery" => builder
            .fault_at(
                SimDuration::ZERO,
                FaultEvent::DegradeLink(gray_selector(network), DegradeSpec::gray()),
            )
            .fault_at(
                SimDuration::from_secs(2),
                FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
            ),
        "partition_heal" => builder
            .fault_at(
                SimDuration::from_secs(2),
                FaultEvent::Partition {
                    groups: PartitionSpec::Halves,
                    heal_after: Some(SimDuration::from_secs(10)),
                },
            )
            .probe(Probe::messages_sent())
            .sample_probes_every(SimDuration::from_millis(500)),
        "flapping_link" => builder.fault_at(
            SimDuration::from_secs(2),
            FaultEvent::FlapLink {
                selector: LinkSelector::RandomSafe { count: 1 },
                period: SimDuration::from_secs(12),
                count: 3,
            },
        ),
        "rolling_upgrade" => builder.fault_at(
            SimDuration::from_secs(2),
            FaultEvent::RollingControllerRestart {
                interval: SimDuration::from_secs(10),
                down_for: SimDuration::from_secs(5),
                count: 3,
            },
        ),
        other => unreachable!("unknown campaign scenario {other}"),
    };
    builder.run()
}

/// The link selector the gray cells degrade: the rack-correlated selector on fat
/// trees (all uplinks of one random edge switch), two random safe links elsewhere.
fn gray_selector(network: &str) -> LinkSelector {
    if network.starts_with("fat_tree") {
        LinkSelector::SameRack
    } else {
        LinkSelector::RandomSafe { count: 2 }
    }
}

/// Control-plane messages sent while the partition of a `partition_heal` run was in
/// force: the sampled messages-sent probe's delta between the last sample at or
/// before the cut batch and the last sample at or before the heal batch. `None` when
/// the run has no such window (bootstrap timeout or missing probe).
fn messages_during_partition(run: &RunReport) -> Option<f64> {
    let boot = run.bootstrap_s?;
    let [cut, heal, ..] = &run.recoveries[..] else {
        return None;
    };
    let series = run
        .probes
        .iter()
        .find(|p| p.key == MetricKey::MESSAGES_SENT)?;
    let value_at = |t: f64| -> Option<f64> {
        series
            .times_s
            .iter()
            .zip(&series.values)
            .take_while(|(ts, _)| **ts <= t)
            .last()
            .map(|(_, v)| *v)
    };
    Some(value_at(boot + heal.fault_at_s)? - value_at(boot + cut.fault_at_s)?)
}

/// The topology family a network name belongs to (`fat_tree`, `jellyfish`, `grid`, or
/// the name itself for paper networks).
fn family_of(network: &str) -> String {
    let lower = network.to_ascii_lowercase();
    for family in ["fat_tree", "fat-tree", "fattree", "jellyfish", "grid"] {
        if lower.starts_with(family) {
            return family.replace('-', "_").replace("fattree", "fat_tree");
        }
    }
    lower
}
